"""Reference implementations that the tests check the package against.

Most build their result as (2, 2) or (3, 3) matrices, not through the
Cayley-Klein pair products, :func:`ocpulse.su2.axis_angle` and Rodrigues'
formula that the package uses, so agreement with them is a check rather
than a restatement.  The exception is the step exponential: the package
builds no (2, 2) rotation, and :func:`expm_su2`, :func:`ck_expm` and
:func:`ck_matrix` give the tests that form *from* the package's one step
formula :func:`ocpulse.su2.ck_expm_polar`, so they check other code
against that formula, not the formula itself.  :func:`rotation_matrix` is
the independent reference for it: cos(angle/2) I - i sin(angle/2) n.sigma
from the Pauli matrices, with numpy's own cosine and sine.
:func:`ck_expm_polar_strided` is that formula's first implementation, whose
bits the package's must keep.  :func:`points`
is no reference: it puts explicit points in the EnsembleDistribution that
the propagators take.  Nor is :func:`ck_product`, which calls
:func:`ocpulse.su2.ck_mul` with a scratch plane of its own.
"""

from __future__ import annotations

import numpy as np

from ocpulse.pulses import EnsembleDistribution
from ocpulse.su2 import (
    ID2, PAULIS, SIGMA_X, SIGMA_Y, Y_AXIS, Z_AXIS, ck_expm_polar, ck_mul, pair_buffer,
    quaternions,
)


def ck_product(x, y, out=None) -> np.ndarray:
    """ck_mul(x, y, out) with a fresh scratch plane of the batch shape."""
    batch = np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1])
    return ck_mul(x, y, out=out, scratch=np.empty(batch, dtype=complex))


def expm_su2(axis, angle: float) -> np.ndarray:
    """Rotation exp(-i angle/2 n.sigma) about unit axis n.

    Parameters
    ----------
    axis : array_like, shape (3,)
        Rotation axis; normalized internally.
    angle : float
        Rotation angle in radians.

    Returns
    -------
    (2, 2) complex ndarray.
    """
    axis = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(axis))
    if norm == 0.0:
        if angle == 0.0:
            return ID2.copy()
        raise ValueError("degenerate axis: zero-norm axis with nonzero angle")
    return ck_matrix(ck_expm(axis * (angle / norm), 1.0))


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """(2, 2) rotation cos(angle/2) I - i sin(angle/2) n.sigma about the
    unit vector n along ``axis``, written out from the Pauli matrices.

    Unlike :func:`expm_su2` it does not go through
    :func:`ocpulse.su2.ck_expm_polar`, so it can check that formula.  A
    zero angle needs a nonzero axis all the same; any one gives I.
    """
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    return (np.cos(0.5 * angle) * PAULIS[0]
            - 1j * np.sin(0.5 * angle) * np.einsum("k,kij->ij", n, PAULIS[1:]))


def ck_expm(omega, duration) -> np.ndarray:
    """Cayley-Klein pairs of exp(-i duration/2 omega.sigma), batched, for
    omega given by its Cartesian components.

    The transverse part is put in polar form (``hypot``, ``arctan2``) and
    handed to :func:`ocpulse.su2.ck_expm_polar`, which holds the formula.

    Parameters
    ----------
    omega : three array_like components (omega_x, omega_y, omega_z)
        Rotation rates in rad/s (or plain rotation vectors with
        ``duration=1``), as a (3, ...) array or a sequence of three arrays
        that broadcast against each other.
    duration : float or array_like broadcastable to the components

    Returns
    -------
    (..., 2) complex ndarray over the broadcast batch.
    """
    wx, wy, wz = (np.asarray(c, dtype=float) for c in omega)
    return ck_expm_polar(np.hypot(wx, wy), np.arctan2(wy, wx), wz, duration)


def ck_expm_polar_strided(amp, phase, wz, duration, out=None) -> np.ndarray:
    """:func:`ocpulse.su2.ck_expm_polar` as it was first written: the same
    operations in the same order, with t^2, 1 - t^2 and 1 + t^2 held in the
    real and imaginary parts of the output's a until cos h and k wz are
    written there.  The package now keeps those planes contiguous; its
    pairs must carry these bits."""
    amp, phase, wz, duration = (np.asarray(x, dtype=float) for x in (amp, phase, wz, duration))
    shape = np.broadcast(amp, phase, wz, duration).shape
    if out is None:
        out = pair_buffer(shape)
    a, b = out[..., 0], out[..., 1]
    turn = -1j * np.exp(-1j * phase)
    norm = np.multiply(amp, amp, out=np.empty(np.broadcast(amp, wz).shape))
    norm += wz * wz + 1e-150**2
    np.sqrt(norm, out=norm)
    t = np.empty(shape)
    np.multiply(norm, 0.25 * duration, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=a.imag)
    np.subtract(1.0, a.imag, out=a.real)
    a.imag += 1.0
    a.real /= a.imag
    t *= 2.0
    t /= a.imag
    k = np.divide(t, norm, out=t)
    del norm
    np.multiply(k, -wz, out=a.imag)
    k *= amp
    np.multiply(k, turn, out=b)
    return out


def ck_matrix(x: np.ndarray) -> np.ndarray:
    """(..., 2, 2) matrices [[a, b], [-conj(b), conj(a)]] of pairs (..., 2)."""
    a, b = x[..., 0], x[..., 1]
    return np.stack([x, np.stack([-b.conj(), a.conj()], axis=-1)], axis=-2)


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


def points(offsets, rf_scales) -> EnsembleDistribution:
    """The (offset, RF scale) points, in the order given, with equal weights."""
    n = np.size(offsets)
    return EnsembleDistribution(offsets, rf_scales, np.full(n, 1.0 / n))
