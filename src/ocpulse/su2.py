"""Exact 2x2 unitary algebra for spin-1/2 rotations.

Closed-form SU(2) exponentials, phase-stripped quaternions and rotation
vectors (the batched axis-angle form, from which
:func:`ocpulse.metrics.cpmg_criteria` takes the refocusing criteria of a
whole batch), and the trace-overlap fidelity used throughout the optimizer
and simulators.  Operators are plain ``(2, 2)``
complex ndarrays; most helpers also accept batches of shape ``(..., 2, 2)``.

Bulk propagation stores an SU(2) element by its Cayley-Klein pair: the
first row (a, b) of U = [[a, b], [-conj(b), conj(a)]], shape ``(..., 2)``.
One formula builds every exponential, :func:`ck_expm_polar`: it takes the
transverse rate in polar form (amplitude, phase) and works from
t = tan(h/2), h = |omega| duration / 2, so each element costs one ``tan``
and no ``sin`` or ``cos``.  :func:`ck_expm` (Cartesian components) and
:func:`expm_su2` (axis and angle) call it.  Powers of a rotation come from
its rotation vector theta * r: U^n is the rotation by n theta about the
same axis r.
"""

from __future__ import annotations

import numpy as np

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Basis ordered (I, X, Y, Z); index conventions elsewhere rely on this order.
PAULIS = np.stack([ID2, SIGMA_X, SIGMA_Y, SIGMA_Z])

Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])

# cos(theta/2) below this is a half turn, whose quaternion sign comes from
# its vector part.
_DEGENERATE_SIN = 1e-12

# ck_expm_polar adds the square of this to |omega|^2, which moves no
# |omega| above 1e-140 by more than rounding and keeps |omega| >= 1e-150.
# For any duration from 1e-150 to 1e140, (floor duration)^2 then vanishes
# beside 1, so where |omega| is 0 (or its squared parts underflow) cos h
# rounds to 1 and k = sin(h)/|omega| to duration/2, their limits, with no
# 0/0 and no masked divide.
_RATE_FLOOR = 1e-150


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


def ck_expm(omega, duration) -> np.ndarray:
    """Cayley-Klein pairs of exp(-i duration/2 omega.sigma), batched, for
    omega given by its Cartesian components.

    The transverse part is put in polar form (``hypot``, ``arctan2``) and
    handed to :func:`ck_expm_polar`, which holds the formula.

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


def ck_expm_polar(amp, phase, wz, duration) -> np.ndarray:
    """Cayley-Klein pairs of exp(-i duration/2 omega.sigma), batched, for
    omega = (amp cos phase, amp sin phase, wz).

    With h = |omega| duration / 2, |omega|^2 = amp^2 + wz^2 (the phase
    cancels) and t = tan(h/2), the pair is

        a = cos h - i k wz,   b = k amp (-sin phase - i cos phase),

    where cos h = (1 - t^2)/(1 + t^2) and k = sin(h)/|omega| with
    sin h = 2t/(1 + t^2): one tangent per element and no sine or cosine.
    b is one real by complex product against the factor -i exp(-i phase),
    which has the shape of ``phase`` alone (one value per pulse step, say).
    |omega|^2 gains _RATE_FLOOR^2, so where |omega| is 0 (or its squared
    parts underflow) k takes its limit duration/2 and cos h its limit 1
    without a masked divide.

    Parameters
    ----------
    amp : array_like
        Real transverse amplitude in rad/s.
    phase : array_like
        Transverse phase in radians.
    wz : array_like
        z rate in rad/s.
    duration : float or array_like
        All four broadcast against each other.  An argument with fewer
        dimensions than the others (per-point offsets under per-step drive
        terms, per-step phases under per-point amplitudes) is worked on
        once per element it holds.

    Returns
    -------
    (..., 2) complex ndarray over the broadcast batch; |a|^2 + |b|^2 = 1 up
    to rounding.
    """
    amp, phase, wz, duration = (np.asarray(x, dtype=float) for x in (amp, phase, wz, duration))
    turn = -1j * np.exp(-1j * phase)  # -sin phase - i cos phase
    norm = np.multiply(amp, amp, out=np.empty(np.broadcast_shapes(amp.shape, wz.shape)))
    norm += wz * wz + _RATE_FLOOR**2
    np.sqrt(norm, out=norm)
    # tan(h/2): norm (duration/4) is exactly half of norm (duration/2)
    t = np.empty(np.broadcast_shapes(norm.shape, duration.shape))
    np.multiply(norm, 0.25 * duration, out=t)
    np.tan(t, out=t)
    out = np.empty(np.broadcast_shapes(t.shape, turn.shape) + (2,), dtype=complex)
    a, b = out[..., 0], out[..., 1]
    # 1 - t^2 goes straight into a, so t^2 and 1 + t^2 share one buffer
    denom = np.multiply(t, t, out=np.empty(t.shape))
    np.subtract(1.0, denom, out=a.real)
    denom += 1.0
    a.real /= denom  # cos h
    t *= 2.0
    t /= denom  # sin h
    k = np.divide(t, norm, out=t)
    np.multiply(k, -wz, out=a.imag)
    k *= amp
    np.multiply(k, turn, out=b)
    return out


def ck_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cayley-Klein pair of the product x @ y, elementwise over the batch.

    Each element's bits do not depend on the batch size, shape or strides,
    so products can be regrouped and re-batched freely.  That is why every
    complex product is written, operands in order, to an explicit buffer
    that is not one of its inputs.  numpy reuses a temporary of 256 KiB or
    more in place and may then swap the operands of a product; with fused
    multiply-adds x * y and y * x can differ in the last bit.  A one-element
    in-place product rounds differently too.
    """
    xa, xb, ya, yb = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    out = np.empty(np.broadcast(xa, ya).shape + (2,), dtype=complex)
    a, b = out[..., 0], out[..., 1]
    t = np.empty(a.shape, dtype=complex)
    np.multiply(xa, ya, out=a)
    np.multiply(xb, np.conj(yb), out=t)
    a -= t
    np.multiply(xa, yb, out=b)
    np.multiply(xb, np.conj(ya), out=t)
    b += t
    return out


def ck_inv(x: np.ndarray) -> np.ndarray:
    """Cayley-Klein pair of the inverse (conjugate transpose)."""
    return np.stack([x[..., 0].conj(), -x[..., 1]], axis=-1)


def ck_matrix(x: np.ndarray) -> np.ndarray:
    """(..., 2, 2) matrices [[a, b], [-conj(b), conj(a)]] of pairs (..., 2)."""
    a, b = x[..., 0], x[..., 1]
    return np.stack([x, np.stack([-b.conj(), a.conj()], axis=-1)], axis=-2)


def quaternions(U: np.ndarray) -> np.ndarray:
    """Phase-stripped real unit quaternions (q0, q1, q2, q3) of unitaries.

    U ~ q0 I - i (q1 X + q2 Y + q3 Z) up to global phase, with q0 >= 0.
    When q0 ~ 0 the overall sign is fixed by making the largest-magnitude
    vector component positive, so equivalent inputs map to one
    representative.  Accepts shape (..., 2, 2).
    """
    U = np.asarray(U)
    a0 = 0.5 * (U[..., 0, 0] + U[..., 1, 1])
    ax = 0.5 * (U[..., 0, 1] + U[..., 1, 0])
    ay = 0.5j * (U[..., 0, 1] - U[..., 1, 0])
    az = 0.5 * (U[..., 0, 0] - U[..., 1, 1])
    q = np.stack([a0, 1j * ax, 1j * ay, 1j * az], axis=-1)
    # Strip the global phase using the largest component for stability.
    idx = np.argmax(np.abs(q), axis=-1)
    lead = np.take_along_axis(q, idx[..., None], axis=-1)[..., 0]
    phase = lead / np.abs(lead)
    qr = (q * np.conj(phase)[..., None]).real
    qr /= np.linalg.norm(qr, axis=-1, keepdims=True)
    # Canonical sign: q0 >= 0; tie broken by the dominant vector component.
    flip = qr[..., 0] < 0.0
    near_zero = np.abs(qr[..., 0]) < _DEGENERATE_SIN
    if np.any(near_zero):
        vec = qr[..., 1:]
        dom = np.take_along_axis(
            vec, np.argmax(np.abs(vec), axis=-1)[..., None], axis=-1
        )[..., 0]
        flip = np.where(near_zero, dom < 0.0, flip)
    return np.where(flip[..., None], -qr, qr)


def rotation_matrices(U: np.ndarray) -> np.ndarray:
    """SO(3) action of unitaries on Bloch vectors, batched (..., 3, 3).

    R satisfies (U (m.sigma) U^dag) = (R m).sigma.
    """
    q = quaternions(U)
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


def rotation_vectors(U: np.ndarray) -> np.ndarray:
    """Rotation vectors theta * r of unitaries, batched (..., 3).

    U ~ exp(-i theta/2 r.sigma) up to global phase, with theta in [0, pi]
    (the canonical sign of :func:`quaternions`); the identity maps to 0.
    ``ck_matrix(ck_expm(np.moveaxis(rotation_vectors(U), -1, 0), n))`` is
    U^n up to global phase.
    """
    q = quaternions(U)
    s = np.linalg.norm(q[..., 1:], axis=-1, keepdims=True)
    theta = 2.0 * np.arctan2(s, q[..., :1])
    return q[..., 1:] * (theta / np.maximum(s, np.finfo(float).tiny))


def rotate_vectors(rotvec, n, m) -> np.ndarray:
    """Bloch vectors m after n turns by rotation vectors theta r (Rodrigues).

    R^n m = (r.m) r + cos(n theta) (m - (r.m) r) + sin(n theta) r x m, the
    SO(3) action of ``ck_expm(np.moveaxis(rotvec, -1, 0), n)``.  rotvec
    and m broadcast against each other; n is a 1-d sequence of counts, so
    the result has shape (len(n), ..., 3).
    """
    rotvec, m = np.asarray(rotvec, dtype=float), np.asarray(m, dtype=float)
    theta = np.linalg.norm(rotvec, axis=-1, keepdims=True)
    r = rotvec / np.maximum(theta, np.finfo(float).tiny)
    along = np.sum(r * m, axis=-1, keepdims=True) * r
    turns = np.reshape(np.asarray(n, dtype=float), (-1,) + (1,) * max(rotvec.ndim, m.ndim))
    phi = turns * theta
    return along + np.cos(phi) * (m - along) + np.sin(phi) * np.cross(r, m)


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


def unitarity_error(U: np.ndarray) -> float:
    """max |U^dag U - I| over the batch."""
    U = np.asarray(U)
    g = np.einsum("...ji,...jk->...ik", np.conj(U), U)
    return float(np.max(np.abs(g - ID2)))

