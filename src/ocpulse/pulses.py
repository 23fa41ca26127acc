"""Piecewise-constant RF waveforms and static isochromat distributions.

Amplitudes are angular nutation rates in rad/s (a 2*pi*5000 rad/s pulse
turns the magnetization through pi in 100 us on resonance).  Phases are in
radians, stored wrapped to [0, 2*pi).  Guard delays model transmitter
ring-down windows before and after the shaped part.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * np.pi
# Largest offset comb, lo:hi:step range, cycle count or echo count accepted
# from user input (1 Hz steps over +/-50 kHz), checked before any array of
# that size is built.
MAX_RANGE_POINTS = 100_001


@dataclass(frozen=True)
class PulseWaveform:
    """A shaped pulse: uniform step length dt, per-step amplitude and phase.

    ``a_max`` records the hardware amplitude cap.  Construction does not
    enforce amplitudes <= a_max; the optimizer caps every step's amplitude
    at a_max after each update, so its outputs and the files written from
    them satisfy it.
    """

    dt: float
    amplitudes: np.ndarray
    phases: np.ndarray
    a_max: float
    pre_delay: float = 0.0
    post_delay: float = 0.0

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        phases = np.mod(np.atleast_1d(np.asarray(self.phases, dtype=float)), TWO_PI)
        if amps.shape != phases.shape or amps.ndim != 1:
            raise ValueError("amplitudes and phases must be 1-d and the same length")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.a_max > 0.0 and np.isfinite(self.a_max)):
            raise ValueError(f"a_max must be positive and finite, got {self.a_max}")
        if not (0.0 <= self.pre_delay < np.inf and 0.0 <= self.post_delay < np.inf):
            raise ValueError("guard delays must be finite and nonnegative")
        if not (np.all(np.isfinite(amps)) and np.all(np.isfinite(phases))):
            raise ValueError("step values must be finite")
        for name, arr in (("amplitudes", amps), ("phases", phases)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_steps(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def duration(self) -> float:
        """Shaped duration n_steps * dt, guards excluded."""
        return self.n_steps * self.dt

    @property
    def total_duration(self) -> float:
        return self.pre_delay + self.duration + self.post_delay

    def cartesian_controls(self) -> np.ndarray:
        """(n_steps, 2) array of (A cos phi, A sin phi)."""
        return np.stack(
            [
                self.amplitudes * np.cos(self.phases),
                self.amplitudes * np.sin(self.phases),
            ],
            axis=-1,
        )

    def with_steps(self, amplitudes, phases) -> "PulseWaveform":
        """Same timing metadata, new step values."""
        return replace(self, amplitudes=np.asarray(amplitudes), phases=np.asarray(phases))


def hard_pulse(nutation: float, phase: float, a_max: float) -> PulseWaveform:
    """Single rectangular step at full amplitude reaching the given nutation.

    hard_pulse(pi, pi/2, 2*pi*5000) is the 100 us reference pi pulse about y.
    """
    if not 0.0 < nutation < np.inf:
        raise ValueError(f"nutation must be positive and finite, got {nutation}")
    if not 0.0 < a_max < np.inf:
        raise ValueError(f"a_max must be positive and finite, got {a_max}")
    if not np.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase}")
    return PulseWaveform(
        dt=nutation / a_max,
        amplitudes=np.array([a_max]),
        phases=np.array([phase]),
        a_max=a_max,
    )


def waveform_template(
    n_steps: int,
    dt: float,
    a_max: float,
    pre_delay: float = 0.0,
    post_delay: float = 0.0,
) -> PulseWaveform:
    """All-zero waveform fixing the timing grid and the amplitude cap, on
    which :func:`ocpulse.grape.random_waveform` draws a start."""
    return PulseWaveform(
        dt=dt,
        amplitudes=np.zeros(n_steps),
        phases=np.zeros(n_steps),
        a_max=a_max,
        pre_delay=pre_delay,
        post_delay=post_delay,
    )


def check_points(offsets, rf_scales) -> None:
    """Raise ValueError unless every offset is finite and every RF scale
    positive and finite."""
    if not np.all(np.isfinite(offsets)):
        raise ValueError("offsets must be finite")
    scales = np.asarray(rf_scales, dtype=float)
    if not np.all((scales > 0.0) & np.isfinite(scales)):
        raise ValueError("rf_scales must be positive and finite")


@dataclass(frozen=True)
class EnsembleDistribution:
    """Weighted static ensemble of (resonance offset, RF scale) points.

    ``offsets`` are finite angular offsets Delta-omega in rad/s,
    ``rf_scales`` are positive, finite B1 multipliers, ``weights`` are
    strictly positive and sum to one.  Point order is significant and
    preserved by every consumer.
    """

    offsets: np.ndarray
    rf_scales: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        offs = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        scales = np.atleast_1d(np.asarray(self.rf_scales, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if not (offs.shape == scales.shape == weights.shape) or offs.ndim != 1:
            raise ValueError("offsets, rf_scales, weights must be 1-d and equal length")
        if offs.shape[0] == 0:
            raise ValueError("distribution must contain at least one point")
        check_points(offs, scales)
        if not np.all(weights > 0.0):
            raise ValueError("weights must be strictly positive (and not nan)")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        # sorted by (offset, scale), equal points are neighbours; -0.0 == 0.0
        order = np.lexsort((scales, offs))
        so, ss = offs[order], scales[order]
        if np.any((so[1:] == so[:-1]) & (ss[1:] == ss[:-1])):
            raise ValueError("duplicate (offset, rf_scale) points")
        for name, arr in (("offsets", offs), ("rf_scales", scales), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_points(self) -> int:
        return self.offsets.shape[0]

    def points(self):
        """(offset, rf_scale, weight) triples in stored order."""
        return tuple(
            zip(self.offsets.tolist(), self.rf_scales.tolist(), self.weights.tolist())
        )

    @classmethod
    def single_point(cls, offset: float = 0.0, rf_scale: float = 1.0):
        return cls(np.array([offset]), np.array([rf_scale]), np.array([1.0]))

    @classmethod
    def product(cls, offsets, rf_scales):
        """Uniform-weight cross product, offset-major order: the one offset x
        RF-scale grid of the package."""
        n_off, n_rf = np.size(offsets), np.size(rf_scales)
        n = n_off * n_rf
        # with no points the weights are empty, and __post_init__ says so
        return cls(np.repeat(offsets, n_rf), np.tile(rf_scales, n_off),
                   np.full(n, 1.0 / max(n, 1)))


def uniform_ladder_distribution(
    half_bandwidth: float,
    delta: float,
    rf_scales=(1.0,),
    jitter_fraction: float = 0.0,
    seed=0,
) -> EnsembleDistribution:
    """Evenly spaced offset comb crossed with RF scales, uniform weights.

    Offsets sit at (-M .. M) * delta with M = floor(half_bandwidth / delta),
    each multiplied by (1 + u) with u drawn uniformly from
    [-jitter_fraction, +jitter_fraction]; zero stays exactly zero.  Jitter
    keeps isochromat spacings slightly unequal so periodic revivals of the
    discretized ensemble are suppressed.  half_bandwidth == 0 gives the
    single on-resonance point.

    Parameters
    ----------
    half_bandwidth, delta : float
        Angular frequencies, rad/s.
    seed : int or sequence of int
        Feeds ``numpy.random.default_rng``; the comb is reproducible.

    A comb of more than MAX_RANGE_POINTS offsets is refused before it is
    built.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not 0.0 <= jitter_fraction < 0.5:
        raise ValueError(f"jitter_fraction must be in [0, 0.5), got {jitter_fraction}")
    if not 0.0 <= half_bandwidth < np.inf:
        raise ValueError(f"half_bandwidth must be nonnegative and finite, got {half_bandwidth}")
    if 0.0 < half_bandwidth < delta:
        raise ValueError("half_bandwidth smaller than the comb spacing delta")
    scales = np.atleast_1d(np.asarray(rf_scales, dtype=float))
    if scales.size == 0 or np.any(scales <= 0.0):
        raise ValueError("rf_scales must be nonempty and positive")
    m = np.floor(half_bandwidth / delta + 1e-9)
    if not 2 * m + 1 <= MAX_RANGE_POINTS:
        raise ValueError(
            f"offset comb of {2 * m + 1:.3g} points, more than the cap of {MAX_RANGE_POINTS}"
        )
    m = int(m)
    base = np.arange(-m, m + 1, dtype=float) * delta
    rng = np.random.default_rng(seed)
    factors = 1.0 + rng.uniform(-jitter_fraction, jitter_fraction, size=base.size)
    return EnsembleDistribution.product(base * factors, scales)
