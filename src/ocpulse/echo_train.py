"""Multi-echo CPMG/CP train simulation over static ensembles.

One echo corresponds to one half cycle tau - pulse - tau; echoes are
recorded at the end of each half cycle, so echo 2n marks n full cycles.
Isochromats evolve independently (no relaxation, no diffusion) and are
averaged only at readout, never at the propagator level.  The pulse is
propagated once (:func:`ocpulse.propagation.pulse_propagators`); each
point's half cycle is a rotation by theta about an axis r, read from its
Cayley-Klein pair by :func:`ocpulse.su2.axis_angle`, so its Bloch vector at
echo k is the input turned by k theta about r (Rodrigues' formula), taken
in closed form for every echo at once.  The points are an
:class:`ocpulse.pulses.EnsembleDistribution`, a product grid for a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import half_cycle_propagators, pulse_propagators
from .pulses import EnsembleDistribution, PulseWaveform
from .su2 import Y_AXIS, axis_angle, rotate_vectors

_AXES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class EchoTrainResult:
    """Echo-by-echo magnetization of every isochromat plus the ensemble mean.

    per_isochromat[k - 1, p] is the input-axis component of point p at echo
    k; bloch holds the full vectors.  ensemble_average is the
    weight-averaged input-axis component per echo.
    """

    input_axis: str
    per_isochromat: np.ndarray
    ensemble_average: np.ndarray
    bloch: np.ndarray
    distribution: EnsembleDistribution

    @property
    def n_echoes(self) -> int:
        return self.per_isochromat.shape[0]


def simulate_train(
    p: PulseWaveform | None,
    tau: float,
    d: EnsembleDistribution,
    input_axis: str = "y",
    n_echoes: int = 200,
) -> EchoTrainResult:
    """Propagate an echo train and record magnetization at every echo.

    Parameters
    ----------
    p : PulseWaveform or None
        Refocusing pulse; None means the ideal instantaneous pi about y.
    tau : float
        Echo-to-pulse-edge delay in seconds (half echo spacing).
    input_axis : {"x", "y", "z"}
        Initial magnetization direction; "y" is the CPMG phase, "x" the CP
        phase.
    """
    if input_axis not in _AXES:
        raise ValueError(f"input_axis must be one of {sorted(_AXES)}, got {input_axis!r}")
    if n_echoes < 1:
        raise ValueError("n_echoes must be >= 1")
    r, theta = axis_angle(half_cycle_propagators(pulse_propagators(p, d), tau, d))
    m = np.zeros((d.n_points, 3))
    m[:, _AXES[input_axis]] = 1.0
    bloch = rotate_vectors(r, theta, np.arange(1, n_echoes + 1), m)
    per_iso = bloch[:, :, _AXES[input_axis]]
    return EchoTrainResult(
        input_axis=input_axis,
        per_isochromat=per_iso,
        ensemble_average=per_iso @ d.weights,
        bloch=bloch,
        distribution=d,
    )


@dataclass(frozen=True)
class VisibilitySweep:
    """Retained y magnetization at chosen echoes on an (offset, rf) grid.

    retained has shape (n_offsets, n_rf_scales, n_echo_indices).
    """

    offsets: np.ndarray
    rf_scales: np.ndarray
    echo_indices: tuple
    retained: np.ndarray


def echo_visibility_sweep(
    p: PulseWaveform | None,
    tau: float,
    offsets,
    rf_scales,
    echo_indices=(1, 2, 500),
) -> VisibilitySweep:
    """Echo visibility of a sigma_y input across an offset x RF grid.

    The grid is ``EnsembleDistribution.product(offsets, rf_scales)``, which
    checks the points (offsets in rad/s).  Each grid point evolves
    independently; only the requested echoes, at least one, are evaluated.
    """
    d = EnsembleDistribution.product(offsets, rf_scales)
    echo_indices = tuple(int(k) for k in echo_indices)
    if not echo_indices:
        raise ValueError("echo_indices must not be empty")
    if any(k < 1 for k in echo_indices):
        raise ValueError("echo indices are 1-based and must be >= 1")
    n_rf = np.size(rf_scales)
    r, theta = axis_angle(half_cycle_propagators(pulse_propagators(p, d), tau, d))
    retained = rotate_vectors(r, theta, echo_indices, Y_AXIS)[..., 1].T
    return VisibilitySweep(
        offsets=d.offsets[::n_rf],
        rf_scales=d.rf_scales[:n_rf],
        echo_indices=echo_indices,
        retained=retained.reshape(-1, n_rf, len(echo_indices)),
    )
