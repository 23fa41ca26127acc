"""Refocusing-quality metrics of pulse propagators.

The design target throughout is the ideal pi rotation about y,
exp(-i pi/2 Y), the constant pair :data:`propagation.TARGET_PI_Y`.
Fidelity is the optimizer's t^2, t = Re a(V^dag U) for Cayley-Klein pairs
(:func:`propagation.target_overlaps`), equal to the trace overlap
|Tr(U V^dag)|^2 / 4, which for a rotation by theta about axis r equals
sin^2(theta/2) r_y^2.  The axis/angle criteria of :func:`criteria_sweep`
take a whole batch of pairs, such as ``pulse_propagators(p, d)`` over the
grid of ``EnsembleDistribution.product``, in one pass from
:func:`ocpulse.su2.axis_angle`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import pulse_propagators, target_overlaps
from .pulses import EnsembleDistribution, PulseWaveform
from .su2 import Z_AXIS, axis_angle, unitarity_error

# sin(theta/2) below this leaves the rotation axis numerically undefined.
_DEGENERATE_SIN = 1e-9
# Largest | |a|^2 + |b|^2 - 1 | accepted as a propagator.
_UNITARITY_TOL = 1e-9


def average_fidelity(p: PulseWaveform | None, d: EnsembleDistribution) -> float:
    """Weight-averaged fidelity of a pulse over an ensemble.

    The optimizer's own objective, taken from the whole pulse product by the
    pairwise tree of :func:`propagation.pulse_propagators`, which is cheaper
    than the optimizer's prefix scan and gives each point the same bits; so a
    gated fidelity and the one the ascent reports are the same number.
    """
    U = pulse_propagators(p, d)
    _, t = target_overlaps(U)
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

    def __len__(self) -> int:
        return self.fidelity.size


def criteria_sweep(x: np.ndarray) -> CpmgCriteria:
    """Evaluate propagators, as Cayley-Klein pairs (..., 2), against the
    axis/angle refocusing criteria, all in one batched pass and in the
    order of the pairs.

    A good CPMG refocusing pulse needs the rotation axis in the xy plane
    (ideally along y) much more than it needs nutation exactly pi; the
    signed plane angle and the axis-to-y angle separate those failure
    modes.  The fidelity is the optimizer's, from
    :func:`propagation.target_overlaps`.

    Raises
    ------
    ValueError
        If x is not a batch of pairs, or not unitary within 1e-9 (a pair
        holding NaN is not).
    """
    x = np.asarray(x)
    if x.shape[-1:] != (2,):
        raise ValueError(f"expected (..., 2) Cayley-Klein pairs, got shape {x.shape}")
    if not unitarity_error(x) <= _UNITARITY_TOL:
        raise ValueError("operator is not unitary within tolerance")
    r, theta = axis_angle(x)
    r = np.where(np.any(r, axis=-1, keepdims=True), r, Z_AXIS)
    _, t = target_overlaps(x)
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
