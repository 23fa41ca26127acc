"""Refocusing-quality metrics and analytic CPMG diagnostics.

The design target throughout is the ideal pi rotation about y,
exp(-i pi/2 Y).  Fidelity is the phase-insensitive trace overlap
|Tr(U V^dag)|^2 / 4, which for a rotation by theta about axis r equals
sin^2(theta/2) r_y^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import TARGET_PI_Y, IsochromatPropagators, PulseWaveform, pulse_propagators
from .su2 import SIGMA_X, SIGMA_Y, Y_AXIS, Z_AXIS, axis_angle, expm_su2, trace_overlap

# sin(theta/2) below this leaves the rotation axis numerically undefined.
_DEGENERATE_SIN = 1e-9


def unitary_fidelity(U: np.ndarray, target: np.ndarray) -> float:
    """|Tr(U target^dag)|^2 / 4, in [0, 1], global-phase invariant."""
    return trace_overlap(U, target)


def average_fidelity(props: IsochromatPropagators, target: np.ndarray) -> float:
    """Weight-averaged pointwise fidelity over an ensemble."""
    fids = trace_overlap(props.propagators, target)
    return float(np.dot(props.weights, fids))


@dataclass(frozen=True)
class CpmgCriteria:
    """Axis-angle quality measures of a would-be refocusing propagator.

    angle_from_xy_plane is signed, positive when the rotation axis tilts
    toward +z; angle_from_y_axis is the unsigned angle between the axis
    and +y; nutation_angle is the canonical rotation angle in [0, pi].
    ``degenerate`` flags nutation ~ 0, where the axis (and hence the
    angles) carry no information.
    """

    angle_from_xy_plane: float
    angle_from_y_axis: float
    nutation_angle: float
    fidelity: float
    degenerate: bool = False


def cpmg_criteria(U: np.ndarray) -> CpmgCriteria:
    """Evaluate a propagator against the axis/angle refocusing criteria.

    A good CPMG refocusing pulse needs the rotation axis in the xy plane
    (ideally along y) much more than it needs nutation exactly pi; the
    signed plane angle and the axis-to-y angle separate those failure
    modes.
    """
    dec = axis_angle(U)
    r = dec.axis
    # atan2 forms: arcsin/arccos of a unit-vector component near +-1 round
    # every angle below ~1.5e-8 to zero.
    return CpmgCriteria(
        angle_from_xy_plane=float(np.arctan2(r[2], np.hypot(r[0], r[1]))),
        angle_from_y_axis=float(np.arctan2(np.hypot(r[0], r[2]), r[1])),
        nutation_angle=dec.theta,
        fidelity=unitary_fidelity(U, TARGET_PI_Y),
        degenerate=bool(np.sin(0.5 * dec.theta) < _DEGENERATE_SIN),
    )


def criteria_sweep(p: PulseWaveform | None, offsets, rf_scales):
    """Criteria of the pulse propagator on an (offset x rf_scale) grid.

    Returns a list of (offset, rf_scale, CpmgCriteria) in offset-major
    order; offsets in rad/s.
    """
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    rf_scales = np.atleast_1d(np.asarray(rf_scales, dtype=float))
    grid_off = np.repeat(offsets, rf_scales.size)
    grid_rf = np.tile(rf_scales, offsets.size)
    props = pulse_propagators(p, grid_off, grid_rf)
    return [
        (float(grid_off[i]), float(grid_rf[i]), cpmg_criteria(props[i]))
        for i in range(grid_off.size)
    ]


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
