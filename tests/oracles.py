"""Reference implementations that the tests check the package against.

Each builds its result as (2, 2) or (3, 3) matrices, not through the
Cayley-Klein pair products, :func:`ocpulse.su2.axis_angle` and Rodrigues'
formula that the package uses, so agreement with them is a check rather
than a restatement.
"""

from __future__ import annotations

import numpy as np

from ocpulse.su2 import SIGMA_X, SIGMA_Y, Y_AXIS, Z_AXIS, expm_su2, quaternions


def trace_overlap(A: np.ndarray, B: np.ndarray):
    """|Tr(A B^dag)|^2 / 4; equals 1 iff A and B agree up to global phase.

    Batched over leading axes of either argument.  Each element has the bits
    of a lone pair: the square is libm's pow, as ``**`` takes it of a numpy
    scalar, not the x * x that ``**`` takes of an array (the two differ in
    the last bit for about one value in 2000).
    """
    t = np.einsum("...ij,...ij->...", np.asarray(A), np.conj(np.asarray(B)))
    out = 0.25 * np.float_power(np.abs(t), 2)
    return float(out) if out.ndim == 0 else out


def rotation_matrices(x: np.ndarray) -> np.ndarray:
    """SO(3) action of Cayley-Klein pairs on Bloch vectors, batched (..., 3, 3).

    R satisfies (U (m.sigma) U^dag) = (R m).sigma.
    """
    q = quaternions(x)
    c, v = q[..., 0], q[..., 1:]
    vv = np.einsum("...i,...j->...ij", v, v)
    eye = np.eye(3)
    cross = np.zeros(v.shape[:-1] + (3, 3))
    cross[..., 0, 1] = -v[..., 2]
    cross[..., 0, 2] = v[..., 1]
    cross[..., 1, 0] = v[..., 2]
    cross[..., 1, 2] = -v[..., 0]
    cross[..., 2, 0] = -v[..., 1]
    cross[..., 2, 1] = v[..., 0]
    s2 = np.einsum("...i,...i->...", v, v)
    return (
        (c**2 - s2)[..., None, None] * eye
        + 2.0 * vv
        + 2.0 * c[..., None, None] * cross
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
