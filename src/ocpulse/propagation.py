"""Propagators for shaped pulses, free precession, and CPMG cycles.

Rotating-frame Hamiltonian for one step at offset Delta-omega and RF scale
omega1:

    H = (Delta-omega / 2) Z + (omega1 A / 2)(cos(phi) X + sin(phi) Y)

so the step propagator is exp(-i H dt), built by
:func:`ocpulse.su2.ck_expm_polar` from the drive's amplitude omega1 A and
phase phi as they are: the phase cancels from |omega|, and one tangent per
step, tan(h/2), gives both sin h and cos h of h = |omega| dt / 2.  A guard
delay is a step with zero drive, the first or last row of
:func:`step_propagators`, and so is the half cycle's F(tau).  Time order
follows the physics convention: the propagator of "p1 then p2" is
U(p2) @ U(p1).  An ideal refocusing pulse is represented by ``None``
wherever a waveform is accepted; it acts as an instantaneous
exp(-i pi/2 Y) at every ensemble point.  That rotation, the pair
TARGET_PI_Y, is also the one target of the optimizer and of the fidelity,
and :func:`target_overlaps` measures pulse propagators against it.

Steps, free precession and pulses are held as Cayley-Klein pairs (a, b),
the first row of U = [[a, b], [-conj(b), conj(a)]] (see :mod:`ocpulse.su2`),
and multiplied by :func:`ocpulse.su2.ck_mul`.  An ordered step product is
an associative reduction, so it takes log2 of the row count in batched
levels: :func:`ordered_product` is a pairwise tree for the whole product
(the pulse), and :func:`forward_products` an inclusive scan for every
prefix (the optimizer's probes and gradients, and the Bloch trajectory).
Both group the factors the same way, so the last prefix equals the tree
product to the bit.
:func:`pulse_propagators` turns a waveform, or ``None``, into (P, 2) pairs
over an EnsembleDistribution of P points; the half cycle, the cycle (its
square), the criteria, the echo train and the channel stack take those
pairs, so a pulse read two ways is propagated once.  Products run over
chunks of POINT_CHUNK ensemble points (:func:`point_chunks`), so memory
does not grow with n_steps x P.
"""

from __future__ import annotations

import numpy as np

from .pulses import EnsembleDistribution, PulseWaveform
from .su2 import axis_angle, ck_expm_polar, ck_inv, ck_mul, pair_buffer, rotate_vectors

# The ideal refocusing pulse, exp(-i pi/2 Y), as its Cayley-Klein pair: the
# optimizer's one target.  It and the pair of its inverse are read-only, so
# ascents on threads share them and nothing writable.
TARGET_PI_Y = ck_expm_polar(np.pi, np.pi / 2, 0.0, 1.0)
TARGET_PI_Y.flags.writeable = False
_TARGET_INV = ck_inv(TARGET_PI_Y)
_TARGET_INV.flags.writeable = False

# Ensemble points propagated together by pulse_propagators and by the
# optimizer's scans, so memory does not grow with the ensemble.  Every tree or scan
# level sweeps the whole step array (0.8 MB for 100 steps at 256 points).
# Measured with the tangent step exponential on a 2-CPU VM: the 33,621-point
# oct_rfi product took 0.195-0.208 s at 128 points, 0.176-0.204 s at 256 and
# 0.163-0.188 s at 512; the channel benchmark's median run_s (three 15 s
# runs each) was 0.97, 0.89 and 0.91 s.  The design benchmark's ensembles
# hold at most 45 points, one chunk at any of these sizes.  Neither other
# size beat 256 on both measures, so it stays.
POINT_CHUNK = 256


def point_chunks(n_points: int) -> list[slice]:
    """Consecutive slices of at most POINT_CHUNK ensemble points."""
    return [slice(i, i + POINT_CHUNK) for i in range(0, n_points, POINT_CHUNK)]


def step_propagators(p: PulseWaveform, offsets, rf_scales, out=None) -> np.ndarray:
    """Cayley-Klein pairs over ensemble points, (n_steps + 2, P, 2): row 0
    is the pre-delay, rows 1 .. n_steps the steps, the last row the
    post-delay.

    One :func:`ocpulse.su2.ck_expm_polar` call takes the drive in polar
    form, the (n_steps + 2, P) amplitudes s A_j (zero on the guard rows)
    and the (n_steps + 2, 1) phases and durations, and the (P,) offsets as
    the z rate.  No Cartesian drive array is built.  ``out``, an
    (n_steps + 2, P, 2) complex buffer, receives the pairs.
    """
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    rf_scales = np.atleast_1d(np.asarray(rf_scales, dtype=float))
    amps = np.concatenate(([0.0], p.amplitudes, [0.0]))[:, None] * rf_scales
    phases = np.concatenate(([0.0], p.phases, [0.0]))[:, None]
    durations = np.array([p.pre_delay, p.dt, p.post_delay]).repeat([1, p.n_steps, 1])[:, None]
    return ck_expm_polar(amps, phases, offsets, durations, out=out)


def forward_products(steps: np.ndarray, spare=None, scratch=None) -> np.ndarray:
    """Running products X_j = S_j ... S_0 of Cayley-Klein pairs, in place.

    ``steps`` (n, ..., 2), n >= 1, is overwritten so that steps[j] holds
    X_j.  A Hillis-Steele inclusive scan: level d multiplies every prefix
    by the one d steps earlier, d = 1, 2, 4, ...  The levels alternate
    between ``steps`` and ``spare``, a pair buffer of the same shape, and
    the result is copied back once if it ends in ``spare``.  ``scratch``, a
    complex array of the shape of ``steps[..., 0]``, serves
    :func:`ocpulse.su2.ck_mul`.  Both are allocated when not given.
    Returns the whole product, equal to :func:`ordered_product` to the bit.
    """
    n = len(steps)
    if spare is None:
        spare = pair_buffer(steps.shape[:-1])
    if scratch is None:
        scratch = np.empty(steps.shape[:-1], dtype=complex)
    src, dst = steps, spare
    d = 1
    while d < n:
        dst[:d] = src[:d]
        ck_mul(src[d:], src[:-d], out=dst[d:], scratch=scratch[d:])
        src, dst = dst, src
        d *= 2
    if src is not steps:
        steps[...] = src
    return steps[-1]


def ordered_product(steps: np.ndarray, spare, scratch) -> np.ndarray:
    """The whole product S_{n-1} ... S_0 of Cayley-Klein pairs, n >= 1.

    A pairwise tree aligned on the last step: each level multiplies
    neighbours from the end and carries an unpaired first element.  That
    groups the factors as the last prefix of :func:`forward_products` does,
    so the two agree to the bit.  The levels alternate between ``steps``,
    which is overwritten, and ``spare``, a pair buffer of the first level's
    (n + 1) // 2 rows; ``scratch``, a complex array of that shape without
    the pair axis, serves :func:`ocpulse.su2.ck_mul`.  Returns a view of
    the product in one of the two buffers.
    """
    n = len(steps)
    src, dst = steps, spare
    while n > 1:
        odd, m = n % 2, (n + 1) // 2
        dst[:odd] = src[:odd]
        ck_mul(src[odd + 1:n:2], src[odd:n:2], out=dst[odd:m], scratch=scratch[:m - odd])
        src, dst, n = dst, src, m
    return src[0]


def pulse_propagators(p: PulseWaveform | None, d: EnsembleDistribution) -> np.ndarray:
    """Cayley-Klein pairs of the total pulse propagators including guard
    delays, one per point of ``d``, shape (P, 2).

    The ensemble is propagated POINT_CHUNK points at a time, so the step
    array never exceeds (n_steps + 2, POINT_CHUNK, 2).  The step array, the
    tree's spare level and its scratch plane are allocated once per call
    and every chunk writes into them.  Points are independent: each
    point's result is the same, to the bit, as when it is propagated alone.
    """
    if p is None:
        return np.broadcast_to(TARGET_PI_Y, (d.n_points, 2)).copy()
    out = np.empty((d.n_points, 2), dtype=complex)
    width = min(POINT_CHUNK, d.n_points)
    level = ((p.n_steps + 3) // 2, width)
    steps = pair_buffer((p.n_steps + 2, width))
    spare, scratch = pair_buffer(level), np.empty(level, dtype=complex)
    for chunk in point_chunks(d.n_points):
        o = d.offsets[chunk]
        c = o.shape[0]
        X = step_propagators(p, o, d.rf_scales[chunk], out=steps[:, :c])
        out[chunk] = ordered_product(X, spare[:, :c], scratch[:, :c])
    return out


def target_overlaps(U: np.ndarray, out=None, scratch=None):
    """M = TARGET_PI_Y^dag U per point of the Cayley-Klein pairs U (..., 2),
    and t = Tr(M)/2 = Re a(M), real since both lie in SU(2).  The fidelity
    t^2 is the trace overlap |Tr(U TARGET^dag)|^2 / 4.  ``out`` and
    ``scratch`` go to :func:`ocpulse.su2.ck_mul`; a scratch plane is
    allocated when not given."""
    if scratch is None:
        scratch = np.empty(np.shape(U)[:-1], dtype=complex)
    M = ck_mul(_TARGET_INV, U, out=out, scratch=scratch)
    return M, M[..., 0].real


def _half_cycle(U: np.ndarray, tau: float, d: EnsembleDistribution):
    """F(tau) U F(tau) (see :func:`half_cycle_propagators`), with the pair
    buffer of F and the scratch plane, which its two products leave free."""
    if not 0.0 <= tau < np.inf:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if np.shape(U) != (d.n_points, 2):
        raise ValueError(f"need ({d.n_points}, 2) pulse pairs, one per point, got {np.shape(U)}")
    f = ck_expm_polar(0.0, 0.0, d.offsets, tau)
    fu, scratch = pair_buffer((d.n_points,)), np.empty(d.n_points, dtype=complex)
    ck_mul(f, U, out=fu, scratch=scratch)
    return ck_mul(fu, f, scratch=scratch), f, scratch


def half_cycle_propagators(U: np.ndarray, tau: float, d: EnsembleDistribution) -> np.ndarray:
    """Cayley-Klein pairs of the echo-to-echo propagators F(tau) U F(tau),
    one per point of ``d``, shape (P, 2), from the pulse pairs U =
    pulse_propagators(p, d).

    tau is the free-precession delay between the echo location and the
    pulse edge (guard delays count as part of the pulse).  F(tau) is a
    zero-drive :func:`ocpulse.su2.ck_expm_polar`, as a guard row is.
    """
    return _half_cycle(U, tau, d)[0]


def cycle_propagators(U: np.ndarray, tau: float, d: EnsembleDistribution) -> np.ndarray:
    """Cayley-Klein pairs of the CPMG cycle [tau - pulse - 2 tau - pulse -
    tau] propagators from the pulse pairs U, shape (P, 2): the square of
    the half cycle, since F(tau) F(tau) = F(2 tau), written into a buffer
    that the half cycle leaves free.  For an ideal pulse the cycle is -I,
    to rounding, at every offset.
    """
    h, spare, scratch = _half_cycle(U, tau, d)
    return ck_mul(h, h, out=spare, scratch=scratch)


def trajectory_times(p: PulseWaveform) -> np.ndarray:
    """Sample times of :func:`bloch_trajectory`: start, then the end of
    each row of :func:`step_propagators` (pre guard, steps, post guard)."""
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
    delta_omega : float
        Finite resonance offset, rad/s.
    omega1_scale : float
        Positive, finite RF scale.
    m_in : array_like, shape (3,)
        Unit Bloch vector at the start of the pulse.

    Returns
    -------
    (n_steps + 3, 3) float ndarray sampled at :func:`trajectory_times`:
    ``m_in``, then ``m_in`` turned by the axis and angle
    (:func:`ocpulse.su2.axis_angle`) of each prefix of the
    :func:`step_propagators` rows, by Rodrigues' formula
    (:func:`ocpulse.su2.rotate_vectors`), so the final row is the image of
    ``m_in`` under the full pulse propagator and the norm is conserved to
    rounding.
    """
    d = EnsembleDistribution.single_point(delta_omega, omega1_scale)
    m = np.asarray(m_in, dtype=float)
    if m.shape != (3,):
        raise ValueError("m_in must be a 3-vector")
    if abs(np.linalg.norm(m) - 1.0) > 1e-9:
        raise ValueError("m_in must be unit length")
    prefixes = step_propagators(p, d.offsets, d.rf_scales)[:, 0]
    forward_products(prefixes)
    pairs = np.concatenate([[[1.0, 0.0]], prefixes])
    return rotate_vectors(*axis_angle(pairs), [1], m)[0]
