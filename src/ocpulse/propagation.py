"""Propagators for shaped pulses, free precession, and CPMG cycles.

Rotating-frame Hamiltonian for one step at offset Delta-omega and RF scale
omega1:

    H = (Delta-omega / 2) Z + (omega1 A / 2)(cos(phi) X + sin(phi) Y)

so the step propagator is exp(-i H dt).  Time order follows the physics
convention: the propagator of "p1 then p2" is U(p2) @ U(p1).  An ideal
refocusing pulse is represented by ``None`` wherever a waveform is
accepted; it acts as an instantaneous exp(-i pi/2 Y) at every ensemble
point.

Steps are held as Cayley-Klein pairs (a, b), the first row of
U = [[a, b], [-conj(b), conj(a)]] (see :mod:`ocpulse.su2`).  One kernel,
:func:`forward_products`, multiplies them in time order; it serves the
pulse product, the optimizer's probe and gradient sweeps, and the Bloch
trajectory.  Public propagators are returned as (P, 2, 2) matrices.
:func:`pulse_propagators` runs that product over fixed chunks of ensemble
points, so its memory does not grow with n_steps x P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulses import EnsembleDistribution, PulseWaveform
from .su2 import Y_AXIS, ck_expm, ck_matrix, ck_mul, expm_su2, rotation_matrices

# The ideal refocusing pulse, exp(-i pi/2 Y); also the optimizer's target.
TARGET_PI_Y = expm_su2(Y_AXIS, np.pi)

# Ensemble points propagated together by pulse_propagators: about 6 MB of
# step pairs for a 100-step pulse.  Chunk-sized complex temporaries stay
# below the 256 KiB from which numpy reuses temporaries in place, where a
# complex product can round differently; so a point's propagator does not
# depend on the ensemble size.
POINT_CHUNK = 2048


def free_propagator(delta_omega, duration: float) -> np.ndarray:
    """exp(-i Delta-omega duration / 2 Z); batched over offsets."""
    delta_omega = np.asarray(delta_omega, dtype=float)
    half = 0.5 * delta_omega * duration
    out = np.zeros(delta_omega.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-1j * half)
    out[..., 1, 1] = np.exp(1j * half)
    return out


def step_propagators(p: PulseWaveform, offsets, rf_scales) -> np.ndarray:
    """Per-step Cayley-Klein pairs over ensemble points, (n_steps, P, 2)."""
    offsets, rf_scales = np.broadcast_arrays(
        np.atleast_1d(np.asarray(offsets, dtype=float)),
        np.atleast_1d(np.asarray(rf_scales, dtype=float)),
    )
    amps = p.amplitudes[:, None] * rf_scales[None, :]
    wx = amps * np.cos(p.phases)[:, None]
    wy = amps * np.sin(p.phases)[:, None]
    wz = np.broadcast_to(offsets[None, :], wx.shape)
    omega = np.stack([wx, wy, wz], axis=-1)
    return ck_expm(omega, p.dt)


def forward_products(steps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Running products S_j ... S_0 start of Cayley-Klein pairs, in place.

    ``steps`` (n_steps, P, 2) is overwritten so that steps[j] holds the
    product through step j.  Returns the whole product (``start`` for an
    empty sequence).
    """
    x = start
    for s in steps:
        s[...] = x = ck_mul(s, x)
    return x


def pulse_propagators(p: PulseWaveform | None, offsets, rf_scales) -> np.ndarray:
    """Total pulse propagators including guard delays, shape (P, 2, 2).

    The ensemble is propagated POINT_CHUNK points at a time (in one pass
    when it is smaller), so the step array never exceeds
    (n_steps, POINT_CHUNK, 2).  Points are independent: each point's result
    is the same, to the bit, as when it is propagated alone.
    """
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    rf_scales = np.atleast_1d(np.asarray(rf_scales, dtype=float))
    if p is None:
        return np.broadcast_to(TARGET_PI_Y, offsets.shape + (2, 2)).copy()
    offsets, rf_scales = np.broadcast_arrays(offsets, rf_scales)
    out = np.empty(offsets.shape + (2,), dtype=complex)
    for i in range(0, offsets.shape[0], POINT_CHUNK):
        chunk = slice(i, i + POINT_CHUNK)
        pre = free_propagator(offsets[chunk], p.pre_delay)[..., 0, :]
        post = free_propagator(offsets[chunk], p.post_delay)[..., 0, :]
        steps = step_propagators(p, offsets[chunk], rf_scales[chunk])
        out[chunk] = ck_mul(post, forward_products(steps, pre))
    return ck_matrix(out)


def pulse_propagator(
    p: PulseWaveform | None, delta_omega: float, omega1_scale: float = 1.0
) -> np.ndarray:
    """Single-point pulse propagator, shape (2, 2)."""
    return pulse_propagators(p, [delta_omega], [omega1_scale])[0]


def cycle_propagators(
    p: PulseWaveform | None, tau: float, offsets, rf_scales
) -> np.ndarray:
    """CPMG cycle [tau - pulse - 2 tau - pulse - tau] propagators, (P, 2, 2).

    tau is the free-precession delay between the echo location and the
    pulse edge (guard delays count as part of the pulse).  For an ideal
    pulse the cycle propagator is exactly -I at every offset.
    """
    if not 0.0 <= tau < np.inf:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    Up = pulse_propagators(p, offsets, rf_scales)
    f1 = free_propagator(offsets, tau)
    f2 = free_propagator(offsets, 2.0 * tau)
    return f1 @ Up @ f2 @ Up @ f1


def cycle_propagator(
    p: PulseWaveform | None, tau: float, delta_omega: float, omega1_scale: float = 1.0
) -> np.ndarray:
    return cycle_propagators(p, tau, [delta_omega], [omega1_scale])[0]


def half_cycle_propagators(
    p: PulseWaveform | None, tau: float, offsets, rf_scales
) -> np.ndarray:
    """Echo-to-echo propagators F(tau) U_pulse F(tau), shape (P, 2, 2)."""
    if not 0.0 <= tau < np.inf:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    Up = pulse_propagators(p, offsets, rf_scales)
    f1 = free_propagator(offsets, tau)
    return f1 @ Up @ f1


@dataclass(frozen=True)
class IsochromatPropagators:
    """Pulse propagators evaluated pointwise over a distribution.

    Point order matches the distribution exactly.
    """

    offsets: np.ndarray
    rf_scales: np.ndarray
    weights: np.ndarray
    propagators: np.ndarray

    def __len__(self) -> int:
        return self.offsets.shape[0]

    def __iter__(self):
        for i in range(len(self)):
            yield (
                float(self.offsets[i]),
                float(self.rf_scales[i]),
                float(self.weights[i]),
                self.propagators[i],
            )


def ensemble_propagators(
    p: PulseWaveform | None, d: EnsembleDistribution
) -> IsochromatPropagators:
    return IsochromatPropagators(
        offsets=d.offsets,
        rf_scales=d.rf_scales,
        weights=d.weights,
        propagators=pulse_propagators(p, d.offsets, d.rf_scales),
    )


def trajectory_times(p: PulseWaveform) -> np.ndarray:
    """Sample times of :func:`bloch_trajectory`: start, after the pre guard,
    after each step, after the post guard."""
    edges = p.pre_delay + p.dt * np.arange(1, p.n_steps + 1)
    return np.concatenate([[0.0, p.pre_delay], edges, [p.total_duration]])


def bloch_trajectory(
    p: PulseWaveform,
    delta_omega: float,
    omega1_scale: float = 1.0,
    m_in=(0.0, 0.0, 1.0),
) -> np.ndarray:
    """Bloch-vector history of one isochromat through a waveform.

    Parameters
    ----------
    m_in : array_like, shape (3,)
        Unit Bloch vector at the start of the pulse.

    Returns
    -------
    (n_steps + 3, 3) float ndarray sampled at :func:`trajectory_times`.
    The final row equals the image of ``m_in`` under the full pulse
    propagator; the norm is conserved to rounding.
    """
    m = np.asarray(m_in, dtype=float)
    if m.shape != (3,):
        raise ValueError("m_in must be a 3-vector")
    if abs(np.linalg.norm(m) - 1.0) > 1e-9:
        raise ValueError("m_in must be unit length")
    pre = free_propagator(delta_omega, p.pre_delay)[0]
    post = free_propagator(delta_omega, p.post_delay)[0]
    steps = step_propagators(p, [delta_omega], [omega1_scale])[:, 0]
    last = ck_mul(post, forward_products(steps, pre))
    pairs = np.concatenate([[[1.0, 0.0], pre], steps, [last]])
    return rotation_matrices(ck_matrix(pairs)) @ m
