"""Refocusing-quality metrics and analytic CPMG diagnostics.

The design target throughout is the ideal pi rotation about y,
exp(-i pi/2 Y).  Fidelity is the optimizer's t^2, t = Re a(V^dag U) for
Cayley-Klein pairs, equal to the trace overlap |Tr(U V^dag)|^2 / 4, which
for a rotation by theta about axis r equals sin^2(theta/2) r_y^2.  The
axis/angle criteria of :func:`cpmg_criteria` take a whole batch of pairs
in one pass from :func:`ocpulse.su2.axis_angle`; :func:`criteria_sweep`
applies them to a pulse over an offset x RF-scale grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grape import _overlaps, _su2_target
from .propagation import TARGET_PI_Y, PulseWaveform, pulse_propagators
from .pulses import EnsembleDistribution
from .su2 import SIGMA_X, SIGMA_Y, Y_AXIS, Z_AXIS, axis_angle, expm_su2, unitarity_error

# sin(theta/2) below this leaves the rotation axis numerically undefined.
_DEGENERATE_SIN = 1e-9
# Largest | |a|^2 + |b|^2 - 1 | accepted as a propagator.
_UNITARITY_TOL = 1e-9


def average_fidelity(
    p: PulseWaveform | None, d: EnsembleDistribution, target: np.ndarray = TARGET_PI_Y
) -> float:
    """Weight-averaged fidelity of a pulse over an ensemble.

    The optimizer's own objective, taken from the whole pulse product by the
    pairwise tree of :func:`propagation.pulse_propagators`, which is cheaper
    than the optimizer's prefix scan and gives each point the same bits; so a
    gated fidelity and the one the ascent reports are the same number.
    """
    _, t = _overlaps(pulse_propagators(p, d.offsets, d.rf_scales), _su2_target(target))
    return float(np.dot(d.weights, t**2))


@dataclass(frozen=True)
class CpmgCriteria:
    """Axis-angle quality measures of would-be refocusing propagators.

    Each field has the batch shape of the propagators.  angle_from_xy_plane
    is signed, positive when the rotation axis tilts toward +z;
    angle_from_y_axis is the unsigned angle between the axis and +y;
    nutation_angle is the canonical rotation angle in [0, pi].
    ``degenerate`` flags nutation ~ 0, where the axis (and hence the angles)
    carry no information; the axis of an identity is taken as z.
    """

    angle_from_xy_plane: np.ndarray
    angle_from_y_axis: np.ndarray
    nutation_angle: np.ndarray
    fidelity: np.ndarray
    degenerate: np.ndarray


def cpmg_criteria(x: np.ndarray) -> CpmgCriteria:
    """Evaluate propagators, as Cayley-Klein pairs (..., 2), against the
    axis/angle refocusing criteria, all in one batched pass.

    A good CPMG refocusing pulse needs the rotation axis in the xy plane
    (ideally along y) much more than it needs nutation exactly pi; the
    signed plane angle and the axis-to-y angle separate those failure
    modes.  The fidelity is the optimizer's, from :func:`grape._overlaps`.

    Raises
    ------
    ValueError
        If x is not a batch of pairs, or not unitary within 1e-9.
    """
    x = np.asarray(x)
    if x.shape[-1:] != (2,):
        raise ValueError(f"expected (..., 2) Cayley-Klein pairs, got shape {x.shape}")
    if unitarity_error(x) > _UNITARITY_TOL:
        raise ValueError("operator is not unitary within tolerance")
    r, theta = axis_angle(x)
    r = np.where(np.any(r, axis=-1, keepdims=True), r, Z_AXIS)
    _, t = _overlaps(x, _su2_target(TARGET_PI_Y))
    rx, ry, rz = r[..., 0], r[..., 1], r[..., 2]
    # atan2 forms: arcsin/arccos of a unit-vector component near +-1 round
    # every angle below ~1.5e-8 to zero.
    return CpmgCriteria(
        angle_from_xy_plane=np.arctan2(rz, np.hypot(rx, ry)),
        angle_from_y_axis=np.arctan2(np.hypot(rx, rz), ry),
        nutation_angle=theta,
        fidelity=t**2,
        degenerate=np.sin(0.5 * theta) < _DEGENERATE_SIN,
    )


@dataclass(frozen=True)
class CriteriaSweep:
    """Criteria on an (offset x rf_scale) grid, in offset-major order.

    offsets (rad/s) and rf_scales are the grid coordinates of each point;
    criteria holds one value per point in every field.
    """

    offsets: np.ndarray
    rf_scales: np.ndarray
    criteria: CpmgCriteria

    def __len__(self) -> int:
        return self.offsets.size


def criteria_sweep(p: PulseWaveform | None, offsets, rf_scales) -> CriteriaSweep:
    """Criteria of the pulse propagator on an (offset x rf_scale) grid;
    offsets in rad/s."""
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    rf_scales = np.atleast_1d(np.asarray(rf_scales, dtype=float))
    grid_off = np.repeat(offsets, rf_scales.size)
    grid_rf = np.tile(rf_scales, offsets.size)
    props = pulse_propagators(p, grid_off, grid_rf)
    return CriteriaSweep(grid_off, grid_rf, cpmg_criteria(props))


def retained_signal_model(k: int, delta: float, r_y: float) -> float:
    """Echo-k retained y magnetization for a cycle rotation (delta, axis).

    Model for a cycle whose propagator rotates by delta about an axis with
    y component r_y: the axis-parallel share r_y^2 is static while the
    rest oscillates and sign-alternates,

        M_y(k) = (-1)^k cos(k delta) (1 - r_y^2) + r_y^2.
    """
    if abs(r_y) > 1.0 + 1e-12:
        raise ValueError(f"|r_y| must be <= 1, got {r_y}")
    r2 = min(r_y * r_y, 1.0)
    return float((-1.0) ** k * np.cos(k * delta) * (1.0 - r2) + r2)


def tilted_pulse_avg_hamiltonian(zeta: float, delta_omega: float):
    """Leading error of a pi rotation about an axis tilted by zeta from y
    toward z, expressed over one cycle as effective (z, y) field components
    (Delta-omega (1 - cos 2 zeta), Delta-omega sin 2 zeta)."""
    return (
        delta_omega * (1.0 - np.cos(2.0 * zeta)),
        delta_omega * np.sin(2.0 * zeta),
    )


def cp_overlap_orders(epsilon: float, delta_omega_tau: float):
    """Exact per-cycle (O_x, O_y) overlaps for delta-function pi - epsilon
    pulses about y.

    O_w = Tr(sigma_w U sigma_w U^dag) / 2 with U the cycle propagator at
    offset-times-tau angle ``delta_omega_tau``.  Measures how much of an
    initial x (CP) or y (CPMG) component one cycle retains: 1 - O_x is
    second order in epsilon while 1 - O_y is fourth order, which is the
    CPMG phase-memory advantage.
    """
    f1 = expm_su2(Z_AXIS, delta_omega_tau)
    f2 = expm_su2(Z_AXIS, 2.0 * delta_omega_tau)
    r = expm_su2(Y_AXIS, np.pi - epsilon)
    U = f1 @ r @ f2 @ r @ f1
    Ud = U.conj().T
    ox = 0.5 * np.trace(SIGMA_X @ U @ SIGMA_X @ Ud).real
    oy = 0.5 * np.trace(SIGMA_Y @ U @ SIGMA_Y @ Ud).real
    return float(ox), float(oy)
