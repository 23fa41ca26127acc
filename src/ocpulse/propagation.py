"""Propagators for shaped pulses, free precession, and CPMG cycles.

Rotating-frame Hamiltonian for one step at offset Delta-omega and RF scale
omega1:

    H = (Delta-omega / 2) Z + (omega1 A / 2)(cos(phi) X + sin(phi) Y)

so the step propagator is exp(-i H dt), built by
:func:`ocpulse.su2.ck_expm_polar` from the drive's amplitude omega1 A and
phase phi as they are: the phase cancels from |omega|, and one tangent per
step, tan(h/2), gives both sin h and cos h of h = |omega| dt / 2.  Time
order follows the physics convention: the propagator of "p1 then p2" is
U(p2) @ U(p1).  An ideal refocusing pulse is represented by ``None``
wherever a waveform is accepted; it acts as an instantaneous
exp(-i pi/2 Y) at every ensemble point.

Steps, free precession and pulses are held as Cayley-Klein pairs (a, b),
the first row of U = [[a, b], [-conj(b), conj(a)]] (see :mod:`ocpulse.su2`),
and multiplied by :func:`ocpulse.su2.ck_mul`.  An ordered step product is
an associative reduction, so it takes log2(n_steps) batched levels rather
than n_steps sequential ones: :func:`ordered_product` is a pairwise tree
for the whole product (the pulse), and :func:`forward_products` an
inclusive scan for every prefix (the optimizer's probes and gradients, and
the Bloch trajectory).  Both group the factors
the same way, so the last prefix equals the tree product to the bit.
The pulse, half-cycle and cycle propagators are returned as (P, 2) pairs;
the cycle is the square of the half cycle.  Products run over chunks of
POINT_CHUNK ensemble points (:func:`point_chunks`), so memory does not grow
with n_steps x P.
"""

from __future__ import annotations

import numpy as np

from .pulses import PulseWaveform, check_points
from .su2 import Y_AXIS, axis_angle, ck_expm_polar, ck_mul, expm_su2, rotate_vectors

# The ideal refocusing pulse, exp(-i pi/2 Y); also the optimizer's target.
TARGET_PI_Y = expm_su2(Y_AXIS, np.pi)

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


def free_pairs(delta_omega, duration: float) -> np.ndarray:
    """Cayley-Klein pairs (exp(-i Delta-omega duration / 2), 0) of free
    precession; batched over offsets, shape offsets.shape + (2,)."""
    delta_omega = np.asarray(delta_omega, dtype=float)
    half = 0.5 * delta_omega * duration
    out = np.zeros(delta_omega.shape + (2,), dtype=complex)
    out[..., 0] = np.exp(-1j * half)
    return out


def step_propagators(p: PulseWaveform, offsets, rf_scales) -> np.ndarray:
    """Per-step Cayley-Klein pairs over ensemble points, (n_steps, P, 2).

    The drive enters in polar form: the (n_steps, P) amplitudes s A_j and
    the (n_steps, 1) phases, from which the kernel takes one complex factor
    per step.  The offset is the (P,) z rate, broadcast over steps.  No
    Cartesian drive array is built.
    """
    offsets, rf_scales = np.broadcast_arrays(
        np.atleast_1d(np.asarray(offsets, dtype=float)),
        np.atleast_1d(np.asarray(rf_scales, dtype=float)),
    )
    amps = p.amplitudes[:, None] * rf_scales[None, :]
    return ck_expm_polar(amps, p.phases[:, None], offsets, p.dt)


def forward_products(steps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Running products X_j = S_j ... S_0 start of Cayley-Klein pairs, in place.

    ``steps`` (n_steps, ..., 2) is overwritten so that steps[j] holds X_j.
    A Hillis-Steele inclusive scan: level d multiplies every prefix by the
    one d steps earlier, d = 1, 2, 4, ...  Returns the whole product
    (``start`` for an empty sequence), equal to :func:`ordered_product` to
    the bit.
    """
    if len(steps) == 0:
        return start
    steps[0] = ck_mul(steps[0], start)
    d = 1
    while d < len(steps):
        steps[d:] = ck_mul(steps[d:], steps[:-d])
        d *= 2
    return steps[-1]


def ordered_product(steps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The whole product S_{n-1} ... S_0 start of Cayley-Klein pairs.

    A pairwise tree aligned on the last step: each level multiplies
    neighbours from the end and carries an unpaired first element.  That
    groups the factors as the last prefix of :func:`forward_products` does,
    so the two agree to the bit.  ``steps[0]`` is overwritten.
    """
    if len(steps) == 0:
        return start
    steps[0] = ck_mul(steps[0], start)
    x = steps
    while len(x) > 1:
        odd = len(x) % 2
        x = np.concatenate((x[:odd], ck_mul(x[odd + 1::2], x[odd::2])))
    return x[0]


def pulse_propagators(p: PulseWaveform | None, offsets, rf_scales) -> np.ndarray:
    """Cayley-Klein pairs of the total pulse propagators including guard
    delays, shape (P, 2).

    The ensemble is propagated POINT_CHUNK points at a time, so the step
    array never exceeds (n_steps, POINT_CHUNK, 2).  Points are independent:
    each point's result is the same, to the bit, as when it is propagated
    alone.
    """
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    rf_scales = np.atleast_1d(np.asarray(rf_scales, dtype=float))
    if p is None:
        return np.broadcast_to(TARGET_PI_Y[0], offsets.shape + (2,)).copy()
    offsets, rf_scales = np.broadcast_arrays(offsets, rf_scales)
    out = np.empty(offsets.shape + (2,), dtype=complex)
    for chunk in point_chunks(offsets.shape[0]):
        o = offsets[chunk]
        steps = step_propagators(p, o, rf_scales[chunk])
        pulse = ordered_product(steps, free_pairs(o, p.pre_delay))
        out[chunk] = ck_mul(free_pairs(o, p.post_delay), pulse)
    return out


def half_cycle_propagators(
    p: PulseWaveform | None, tau: float, offsets, rf_scales
) -> np.ndarray:
    """Cayley-Klein pairs of the echo-to-echo propagators F(tau) U_pulse
    F(tau), shape (P, 2).

    tau is the free-precession delay between the echo location and the
    pulse edge (guard delays count as part of the pulse).
    """
    if not 0.0 <= tau < np.inf:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    f = free_pairs(offsets, tau)
    return ck_mul(ck_mul(f, pulse_propagators(p, offsets, rf_scales)), f)


def cycle_propagators(
    p: PulseWaveform | None, tau: float, offsets, rf_scales
) -> np.ndarray:
    """Cayley-Klein pairs of the CPMG cycle [tau - pulse - 2 tau - pulse -
    tau] propagators, shape (P, 2): the square of the half cycle, since
    F(tau) F(tau) = F(2 tau).  For an ideal pulse the cycle is -I, to
    rounding, at every offset.
    """
    h = half_cycle_propagators(p, tau, offsets, rf_scales)
    return ck_mul(h, h)


def trajectory_times(p: PulseWaveform) -> np.ndarray:
    """Sample times of :func:`bloch_trajectory`: start, after the pre guard,
    after each step, after the post guard."""
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
    (n_steps + 3, 3) float ndarray sampled at :func:`trajectory_times`.
    Each row is ``m_in`` turned by the axis and angle
    (:func:`ocpulse.su2.axis_angle`) of the propagator up to that sample,
    by Rodrigues' formula (:func:`ocpulse.su2.rotate_vectors`), so the
    final row is the image of ``m_in`` under the full pulse propagator and
    the norm is conserved to rounding.
    """
    check_points(delta_omega, omega1_scale)
    m = np.asarray(m_in, dtype=float)
    if m.shape != (3,):
        raise ValueError("m_in must be a 3-vector")
    if abs(np.linalg.norm(m) - 1.0) > 1e-9:
        raise ValueError("m_in must be unit length")
    pre = free_pairs(delta_omega, p.pre_delay)
    post = free_pairs(delta_omega, p.post_delay)
    steps = step_propagators(p, [delta_omega], [omega1_scale])[:, 0]
    last = ck_mul(post, forward_products(steps, pre))
    pairs = np.concatenate([[[1.0, 0.0], pre], steps, [last]])
    return rotate_vectors(*axis_angle(pairs), [1], m)[0]
