"""Exact SU(2) algebra for spin-1/2 rotations.

An SU(2) element is stored by its Cayley-Klein pair: the first row (a, b)
of U = [[a, b], [-conj(b), conj(a)]], shape ``(..., 2)``.  Every helper
here takes and returns pairs, batched over leading axes; the ``(2, 2)``
Pauli matrices below serve only the Choi form of a channel.

One formula builds every exponential, :func:`ck_expm_polar`: it takes the
transverse rate in polar form (amplitude, phase) and works from
t = tan(h/2), h = |omega| duration / 2, so each element costs one ``tan``
and no ``sin`` or ``cos``.  The pulse steps and the pi-about-y target
(:data:`ocpulse.propagation.TARGET_PI_Y`) are both its output.  A pair's
quaternion is (Re a, -Im b, -Re b, -Im a); :func:`axis_angle` turns it
into the unit axis r and angle theta in [0, pi] that the channel, the echo
train and the refocusing criteria all read.  Powers of a rotation need
nothing else: U^n is the rotation by n theta about the same axis r
(:func:`rotate_vectors` applies it to Bloch vectors).

The pair buffers that :func:`ck_expm_polar` and :func:`ck_mul` allocate are
plane-major (:func:`pair_buffer`): a ``(2, ...)`` complex array seen as
``(..., 2)`` through ``np.moveaxis``, so that a and b are each one
contiguous plane.  Shapes and indexing are those of any ``(..., 2)`` array;
only the strides differ, and every function here takes pairs of any layout.
Both kernels also write into a caller's buffer, ``out=``, of any layout, and
:func:`ck_mul` takes a scratch plane; an optimizer that evaluates one
ensemble thousands of times allocates these once.  :func:`ck_expm_polar`
needs no scratch: it works its real intermediates in contiguous planes,
which it lays in the memory of the output's b plane when that plane is one
block, as in a plane-major buffer.  It then writes Re a, Im a and b once
each.  No output or scratch buffer may share memory with an input.
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


def pair_buffer(shape) -> np.ndarray:
    """Uninitialized plane-major pair buffer: a (2,) + shape complex array
    seen as shape + (2,), the view ``np.moveaxis(buf, 0, -1)`` (taken by
    ``transpose``, which costs a quarter as much)."""
    buf = np.empty((2, *shape), dtype=complex)
    return buf.transpose(*range(1, buf.ndim), 0)


def ck_expm_polar(amp, phase, wz, duration, out=None) -> np.ndarray:
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
        All four broadcast against each other.  The per-point offsets under
        per-step drive terms and the per-step phases under per-point
        amplitudes are each worked on once per element they hold.
    out : (..., 2) complex ndarray, optional
        Buffer of the broadcast batch's shape to write the pairs to, in any
        layout; by default a plane-major one is allocated.  Where its b
        plane is one contiguous block, t^2, 1 - t^2 and 1 + t^2 are worked
        in that memory before b is written; otherwise in two new planes.

    Returns
    -------
    ``out``: (..., 2) complex pairs over the broadcast batch; |a|^2 + |b|^2
    = 1 up to rounding.
    """
    amp, phase, wz, duration = (np.asarray(x, dtype=float) for x in (amp, phase, wz, duration))
    shape = np.broadcast(amp, phase, wz, duration).shape
    if out is None:
        out = pair_buffer(shape)
    a, b = out[..., 0], out[..., 1]
    # t^2, then 1 - t^2, and 1 + t^2: two contiguous real planes in the
    # memory of b, which is free until the last product
    if b.flags.c_contiguous:
        planes = b.reshape(-1).view(float).reshape(2, *shape)
    else:
        planes = np.empty((2, *shape))
    square, denom = planes[0, ...], planes[1, ...]
    turn = -1j * np.exp(-1j * phase)  # -sin phase - i cos phase
    norm = np.multiply(amp, amp, out=np.empty(np.broadcast(amp, wz).shape))
    norm += wz * wz + _RATE_FLOOR**2
    np.sqrt(norm, out=norm)
    # tan(h/2): norm (duration/4) is exactly half of norm (duration/2)
    t = np.empty(shape)
    np.multiply(norm, 0.25 * duration, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=square)
    np.add(square, 1.0, out=denom)
    np.subtract(1.0, square, out=square)
    np.divide(square, denom, out=a.real)  # cos h
    t *= 2.0
    t /= denom  # sin h
    k = np.divide(t, norm, out=t)
    del norm  # before the real x complex product takes its cast buffers
    np.multiply(k, -wz, out=a.imag)
    k *= amp
    np.multiply(k, turn, out=b)
    return out


def ck_mul(x: np.ndarray, y: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Cayley-Klein pair of the product x @ y, elementwise over the batch.

    Each element's bits do not depend on the batch size, shape, strides or
    layout, so products can be regrouped and re-batched freely.  That is why
    every complex product is written, operands in order, to an explicit
    buffer that is not one of its inputs.  numpy reuses a temporary of
    256 KiB or more in place and may then swap the operands of a product;
    with fused multiply-adds x * y and y * x can differ in the last bit.  A
    one-element in-place product rounds differently too.  The conjugates
    wait in the output plane that the next product overwrites.

    ``out``, a (..., 2) buffer of the broadcast batch's shape, and
    ``scratch``, a complex array of that batch shape, may be given in any
    layout; by default a plane-major ``out`` and a scratch plane are
    allocated.  Neither may share memory with x or y.  Returns ``out``.
    """
    xa, xb, ya, yb = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    if out is None:
        out = pair_buffer(np.broadcast(xa, ya).shape)
    a, b = out[..., 0], out[..., 1]
    t = np.empty(a.shape, dtype=complex) if scratch is None else scratch
    np.conjugate(yb, out=a)
    np.multiply(xb, a, out=t)
    np.multiply(xa, ya, out=a)
    a -= t
    np.conjugate(ya, out=b)
    np.multiply(xb, b, out=t)
    np.multiply(xa, yb, out=b)
    b += t
    return out


def ck_inv(x: np.ndarray) -> np.ndarray:
    """Cayley-Klein pair of the inverse (conjugate transpose)."""
    return np.stack([x[..., 0].conj(), -x[..., 1]], axis=-1)


def quaternions(x: np.ndarray) -> np.ndarray:
    """Real unit quaternions (q0, q1, q2, q3) of Cayley-Klein pairs (..., 2).

    U = q0 I - i (q1 X + q2 Y + q3 Z), so q = (Re a, -Im b, -Re b, -Im a),
    normalized.  q and -q are the same rotation; q0 >= 0 picks one, and
    when q0 ~ 0 the largest-magnitude vector component is made positive, so
    U and -U map to one representative.
    """
    x = np.asarray(x)
    a, b = x[..., 0], x[..., 1]
    q = np.stack([a.real, -b.imag, -b.real, -a.imag], axis=-1)
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    # Canonical sign: q0 >= 0; tie broken by the dominant vector component.
    flip = q[..., 0] < 0.0
    near_zero = np.abs(q[..., 0]) < _DEGENERATE_SIN
    if np.any(near_zero):
        vec = q[..., 1:]
        dom = np.take_along_axis(
            vec, np.argmax(np.abs(vec), axis=-1)[..., None], axis=-1
        )[..., 0]
        flip = np.where(near_zero, dom < 0.0, flip)
    return np.where(flip[..., None], -q, q)


def axis_angle(x: np.ndarray):
    """Unit rotation axes r (..., 3) and angles theta (...) of Cayley-Klein
    pairs (..., 2): U = +-exp(-i theta/2 r.sigma), theta in [0, pi].

    The sign is that of :func:`quaternions`.  Where theta is 0 (the
    identity, or a vector part whose squares underflow, below about 1e-154)
    the axis is the zero vector.  U^n is, up to sign, the rotation by
    n theta about the same r (:func:`rotate_vectors`).
    """
    q = quaternions(x)
    v = q[..., 1:]
    # |v| as the dot product that np.linalg.norm takes of one 3-vector, so a
    # batch and a lone pair take the same bits; norm(axis=-1) sums the
    # squares in another order.
    s = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    r = np.divide(v, s, out=np.zeros(v.shape), where=s > 0.0)
    return r, 2.0 * np.arctan2(s[..., 0], q[..., 0])


def rotate_vectors(r, theta, n, m) -> np.ndarray:
    """Bloch vectors m after n turns by theta about unit axes r (Rodrigues).

    R^n m = (r.m) r + cos(n theta) (m - (r.m) r) + sin(n theta) r x m, the
    SO(3) action of the n-th power of the rotation that :func:`axis_angle`
    gives (r, theta).  r (..., 3), theta (...) and m (..., 3) broadcast
    against each other; n is a 1-d sequence of counts, so the result has
    shape (len(n), ..., 3).
    """
    r, m = np.asarray(r, dtype=float), np.asarray(m, dtype=float)
    theta = np.asarray(theta, dtype=float)[..., None]
    along = np.sum(r * m, axis=-1, keepdims=True) * r
    turns = np.reshape(np.asarray(n, dtype=float),
                       (-1,) + (1,) * max(r.ndim, theta.ndim, m.ndim))
    phi = turns * theta
    return along + np.cos(phi) * (m - along) + np.sin(phi) * np.cross(r, m)


def unitarity_error(x: np.ndarray) -> float:
    """max | |a|^2 + |b|^2 - 1 | over a batch of Cayley-Klein pairs (..., 2)."""
    x = np.asarray(x)
    return float(np.max(np.abs(np.sum(np.abs(x) ** 2, axis=-1) - 1.0)))
