"""Multi-echo CPMG/CP train simulation over static ensembles.

One echo corresponds to one half cycle tau - pulse - tau; echoes are
recorded at the end of each half cycle, so echo 2n marks n full cycles.
Isochromats evolve independently (no relaxation, no diffusion) and are
averaged only at readout, never at the propagator level.  Each point's
half cycle is a rotation by theta about an axis r, read from its
Cayley-Klein pair by :func:`ocpulse.su2.axis_angle`, so its Bloch vector at
echo k is the input turned by k theta about r (Rodrigues' formula), taken
in closed form for every echo at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import half_cycle_propagators, pulse_propagators
from .pulses import EnsembleDistribution, PulseWaveform, check_points
from .su2 import Y_AXIS, Z_AXIS, axis_angle, rotate_vectors

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
    excitation: PulseWaveform | None = None,
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
    excitation : PulseWaveform, optional
        When given, the initial state is this pulse applied to +z instead
        of a perfect unit vector along input_axis.
    """
    if input_axis not in _AXES:
        raise ValueError(f"input_axis must be one of {sorted(_AXES)}, got {input_axis!r}")
    if n_echoes < 1:
        raise ValueError("n_echoes must be >= 1")
    r, theta = axis_angle(half_cycle_propagators(p, tau, d.offsets, d.rf_scales))
    if excitation is not None:
        u = pulse_propagators(excitation, d.offsets, d.rf_scales)
        m = rotate_vectors(*axis_angle(u), [1], Z_AXIS)[0]
    else:
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

    Each grid point evolves independently; only the requested echoes are
    evaluated.  Offsets in rad/s must be finite, RF scales positive and
    finite; neither the RF scales nor the echo indices may be empty.
    """
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    rf_scales = np.atleast_1d(np.asarray(rf_scales, dtype=float))
    check_points(offsets, rf_scales)
    echo_indices = tuple(int(k) for k in echo_indices)
    for name, values in (("rf_scales", rf_scales), ("echo_indices", echo_indices)):
        if len(values) == 0:
            raise ValueError(f"{name} must not be empty")
    if any(k < 1 for k in echo_indices):
        raise ValueError("echo indices are 1-based and must be >= 1")
    grid_off = np.repeat(offsets, rf_scales.size)
    grid_rf = np.tile(rf_scales, offsets.size)
    r, theta = axis_angle(half_cycle_propagators(p, tau, grid_off, grid_rf))
    retained = rotate_vectors(r, theta, echo_indices, Y_AXIS)[..., 1].T
    return VisibilitySweep(
        offsets=offsets,
        rf_scales=rf_scales,
        echo_indices=echo_indices,
        retained=retained.reshape(offsets.size, rf_scales.size, len(echo_indices)),
    )
