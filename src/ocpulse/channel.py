"""Cumulative pulse error as a quantum channel on the echoed spin.

After n CPMG cycles the ensemble-averaged map is

    E_n(rho) = sum_p w_p U_p^n rho U_p^dag n

whose Pauli transfer matrix R_ab = Tr(sigma_a E_n(sigma_b)) / 2 is built
here, together with its Choi/Kraus form, the nearest Pauli-channel
probabilities, and the exponential identity-decay fit that defines the
pulse-error time constant and the asymptotic echo amplitude.  Averaging is
always over *powered* propagators; averaging first and powering the mean
destroys the dephasing physics.  Each point's cycle is a rotation by theta
about an axis r, whose n-th power turns Bloch vectors by

    R_p^n = r r^T + cos(n theta) (I - r r^T) + sin(n theta) [r]x

so the averaged Bloch block is sum_p w_p r r^T plus two weighted sums over
points, of cos(n theta) and sin(n theta), against fixed per-point 3x3
terms.  Those sums are matrix products over points, taken for blocks of
counts at a time: no per-point matrix is formed for any count, and memory
stays linear in the number of points whatever n_max is.  Within a block,
consecutive counts step cos(n theta) and sin(n theta) forward by angle
addition from the block's first count, which is the only one taken by cos
and sin directly; the next block starts afresh.  As n -> infinity
the oscillating sums average out and each point keeps r r^T (or I for a
cycle that is the identity).

Both the n-cycle stack (transfer_of_unitaries) and that limit
(asymptotic_channel) take the cycle unitaries as Cayley-Klein pairs, not a
pulse, and read r and theta from :func:`ocpulse.su2.axis_angle`: a caller
that needs both, as analyze-channel --asymptotic does, propagates each
pulse once and hands the same pairs to each.

Channels are plain float arrays: one transfer matrix is (4, 4), and a
sequence of them is an (n_max, 4, 4) stack whose row n - 1 is the n-cycle
channel.  The Pauli projection and the fit take the whole stack at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import cycle_propagators
from .pulses import EnsembleDistribution, PulseWaveform
from .su2 import PAULIS, axis_angle

# Counts x points evaluated at once when summing cycle powers (about 8 MB
# per float array); the count block shrinks as the ensemble grows.
_POWER_BLOCK_ELEMENTS = 1 << 20

# Choi eigenvalues down to -_CP_TOL are rounding, not a channel that fails
# complete positivity.
_CP_TOL = 1e-6

# Share of the trailing cycles (at least one) whose mean probabilities are
# the fit's asymptotic constants.
_TAIL_FRACTION = 0.25


def _transfer(R, stack: bool = True) -> np.ndarray:
    """R as a float array, checked to be (..., 4, 4) (one (4, 4) matrix
    when stack is False)."""
    R = np.asarray(R, dtype=float)
    if (R.shape[-2:] if stack else R.shape) != (4, 4):
        want = "(..., 4, 4)" if stack else "(4, 4)"
        raise ValueError(f"transfer matrix must be {want}, got shape {R.shape}")
    return R


def _embed(block: np.ndarray) -> np.ndarray:
    """(..., 4, 4) transfer matrices with identity row/column around (..., 3, 3)."""
    out = np.zeros(block.shape[:-2] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = block
    return out


def transfer_of_unitaries(U: np.ndarray, weights, n=1) -> np.ndarray:
    """Transfer matrix of a weighted mixture of n-fold unitary conjugations.

    Each U_p is a rotation by theta about r, and its n-th power acts on
    Bloch vectors as r r^T + cos(n theta) (I - r r^T) + sin(n theta) [r]x.
    The weighted 3x3 block is therefore

        sum w r r^T + sum w cos(n theta) (I - r r^T) + sum w sin(n theta) [r]x

    where the two oscillating sums are (counts, P) @ (P, 9) products over
    points, evaluated for blocks of counts so that memory stays O(P).  The
    identity row and column are exact by construction.

    Each block takes cos and sin of its first count directly.  A row whose
    count is one more than the previous row's comes from that row by angle
    addition, cos((n + 1) theta) = cos(n theta) cos(theta) - sin(n theta)
    sin(theta) and likewise for sin, four products instead of two
    transcendentals per point; any other row is evaluated directly.  The
    recurrence restarts at every block, so its rounding drift is bounded
    by the block length, and a scalar n or non-consecutive counts give the
    bits of direct evaluation.

    Parameters
    ----------
    U : (..., 2) complex ndarray
        Cayley-Klein pairs of the unitaries, flattened to P points.
    weights : (P,) array_like
        Mixture weights, e.g. an EnsembleDistribution's weights.
    n : int or 1-d sequence of ints
        Power of each unitary.  A scalar gives a (4, 4) matrix, a sequence
        of counts a stack (len(n), 4, 4).
    """
    r, theta = axis_angle(np.reshape(U, (-1, 2)))
    P = theta.shape[0]
    w = np.asarray(weights, dtype=float).reshape(-1)
    rr = r[:, :, None] * r[:, None, :]
    cross = np.zeros((P, 3, 3))
    cross[:, [2, 0, 1], [1, 2, 0]] = r
    cross[:, [1, 2, 0], [2, 0, 1]] = -r
    fixed = (w @ rr.reshape(P, 9)).reshape(3, 3)
    w_cos = w[:, None] * (np.eye(3) - rr).reshape(P, 9)
    w_sin = w[:, None] * cross.reshape(P, 9)

    counts = np.asarray(n, dtype=float)
    flat = counts.reshape(-1)
    blocks = np.empty((flat.size, 9))
    step = max(1, _POWER_BLOCK_ELEMENTS // max(P, 1))
    # Two buffers, not one of twice the size: freeing a block that large
    # raises malloc's mmap threshold, and perfbench's channel workload then
    # peaked at 100 MB of RSS instead of 87.
    rows = min(step, flat.size)
    cos_n, sin_n = np.empty((rows, P)), np.empty((rows, P))
    tmp = np.empty(P)
    cos_1, sin_1 = np.cos(theta), np.sin(theta)
    for i in range(0, flat.size, step):
        block = flat[i:i + step].tolist()
        c, s = cos_n[:len(block)], sin_n[:len(block)]
        for j, count in enumerate(block):
            if j and count == block[j - 1] + 1.0:
                # (n + 1) theta from n theta by angle addition
                np.multiply(c[j - 1], cos_1, out=c[j])
                np.multiply(s[j - 1], sin_1, out=tmp)
                c[j] -= tmp
                np.multiply(s[j - 1], cos_1, out=s[j])
                np.multiply(c[j - 1], sin_1, out=tmp)
                s[j] += tmp
            else:
                np.multiply(count, theta, out=tmp)
                np.cos(tmp, out=c[j])
                np.sin(tmp, out=s[j])
        blocks[i:i + step] = c @ w_cos + s @ w_sin
    out = _embed(fixed + blocks.reshape(-1, 3, 3))
    return out[0] if counts.ndim == 0 else out


def superoperator_sequence(
    p: PulseWaveform | None, tau: float, d: EnsembleDistribution, n_max: int
) -> np.ndarray:
    """(n_max, 4, 4) transfer matrices of the n-cycle channels, n = 1 ..
    n_max (row n - 1 is the n-cycle channel), from one closed-form
    weighted sum."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    U = cycle_propagators(p, tau, d.offsets, d.rf_scales)
    return transfer_of_unitaries(U, d.weights, np.arange(1, n_max + 1))


def choi_matrix(R: np.ndarray) -> np.ndarray:
    """(4, 4) Choi matrix (column-stacking convention) of the channel with
    (4, 4) transfer matrix R."""
    R = _transfer(R, stack=False)
    C = 0.5 * np.einsum("ba,aji,bkl->ikjl", R, PAULIS, PAULIS)
    return C.reshape(4, 4)


def choi_kraus(R: np.ndarray):
    """Kraus form [(probability, operator), ...] of the channel with (4, 4)
    transfer matrix R, sorted by weight.

    Operators are normalized so each fires with the paired probability;
    probabilities are Choi eigenvalues over 2 and sum to 1 for a
    trace-preserving channel.

    Raises
    ------
    ValueError
        If R is not (4, 4), the channel is not trace preserving, or a Choi
        eigenvalue is below -_CP_TOL (not completely positive).
    """
    R = _transfer(R, stack=False)
    if np.max(np.abs(R[0] - np.array([1.0, 0.0, 0.0, 0.0]))) > 1e-8:
        raise ValueError("channel is not trace preserving")
    evals, evecs = np.linalg.eigh(choi_matrix(R))
    if evals.min() < -_CP_TOL:
        raise ValueError(
            f"channel is not completely positive (Choi eigenvalue {evals.min():.3e})"
        )
    order = np.argsort(evals)[::-1]
    out = []
    for idx in order:
        lam = float(max(evals[idx], 0.0))
        prob = 0.5 * lam
        if prob <= 1e-12:
            continue
        A = evecs[:, idx].reshape(2, 2).T * np.sqrt(lam)
        out.append((prob, A / np.sqrt(prob)))
    return out


def pauli_probabilities(R: np.ndarray):
    """Nearest Pauli-channel probabilities and the off-diagonal residual
    that projection discards, for (..., 4, 4) transfer matrices.

    Returns probs (..., 4), ordered (p_I, p_x, p_y, p_z), and residual
    (...), the Frobenius norm of each matrix's off-diagonal part.  Exact
    (residual ~ 0) when the transfer matrix is diagonal; the diagonal is
    all a Pauli channel can see.
    """
    R = _transfer(R)
    rx, ry, rz = R[..., 1, 1], R[..., 2, 2], R[..., 3, 3]
    probs = 0.25 * np.stack(
        [
            1.0 + rx + ry + rz,
            1.0 + rx - ry - rz,
            1.0 - rx + ry - rz,
            1.0 - rx - ry + rz,
        ],
        axis=-1,
    )
    residual = np.linalg.norm(R * (1.0 - np.eye(4)), axis=(-2, -1))
    return probs, residual


def offdiagonal_parts(R: np.ndarray):
    """Frobenius norms (coherent, symmetric) of the two parts of the
    off-diagonal content of (..., 4, 4) transfer matrices.

    coherent is the norm of the antisymmetric part (R - R^T)/2, where the
    sin(n theta) [r]x rotation of the cycle powers lands; symmetric is the
    norm of the off-diagonal entries of (R + R^T)/2.  The two parts are
    orthogonal, so they add in quadrature to the residual of
    pauli_probabilities.
    """
    R = _transfer(R)
    Rt = np.swapaxes(R, -2, -1)
    coherent = np.linalg.norm(0.5 * (R - Rt), axis=(-2, -1))
    symmetric = np.linalg.norm(0.5 * (R + Rt) * (1.0 - np.eye(4)), axis=(-2, -1))
    return coherent, symmetric


def asymptotic_channel(U: np.ndarray, weights) -> np.ndarray:
    """(4, 4) transfer matrix of the n -> infinity channel of a weighted
    mixture of cycle unitaries: per point rho -> (rho + (r.sigma) rho
    (r.sigma))/2 with r the cycle rotation axis, then weight averaged.

    U holds the Cayley-Klein pairs (..., 2) of cycle unitaries (e.g. from
    cycle_propagators), flattened to P points, and weights their (P,)
    mixture weights, as for transfer_of_unitaries, so the limit and the
    n-cycle stack can share one propagation.  The per-point Bloch block is the rank-one projector
    r r^T, the limit of the n-average of the closed form once the cos and
    sin terms wash out.  A point whose cycle is numerically the identity
    (theta below 2e-12, e.g. every point of the ideal pulse, whose cycle is
    -I) has no axis and never dephases, so it contributes the identity.
    """
    r, theta = axis_angle(np.reshape(U, (-1, 2)))
    w = np.asarray(weights, dtype=float).reshape(-1)
    still = theta < 2e-12
    axes = np.where(still[:, None], 0.0, r)
    block = np.einsum("p,pi,pj->ij", w, axes, axes)
    block += w[still].sum() * np.eye(3)
    return _embed(block)


def cycle_time(p: PulseWaveform | None, tau: float) -> float:
    """Duration of one full cycle, 4 tau plus two pulse occupancies."""
    t_pulse = 0.0 if p is None else p.total_duration
    return 4.0 * tau + 2.0 * t_pulse


@dataclass(frozen=True)
class PauliChannelFit:
    """Exponential identity-decay summary of a simulated channel sequence.

    The identity weight is modeled as c_i + 0.5 exp(-n t_c / t2_pulse);
    t2_pulse is the 1/e time of the excess identity weight over its tail
    value (infinite when the excess never decays to 1/e of its n = 0
    value).  m_infinity = c_i + c_y - c_x - c_z is the echo amplitude the
    train retains asymptotically.  fit_overlap is the worst (over n)
    normalized Frobenius overlap between the per-cycle Pauli channel and
    the full simulated transfer matrix, min_n ||diag R_n|| / ||R_n||; it
    measures how much of the map the Pauli-channel form captures (the
    deficit is coherent off-diagonal content a probability model cannot
    represent).
    """

    per_cycle_probs: np.ndarray
    c_i: float
    c_x: float
    c_y: float
    c_z: float
    t2_pulse: float
    t2_pulse_cycles: float
    cycle_time: float
    m_infinity: float
    fit_overlap: float


def fit_pauli_model(R: np.ndarray, t_c: float) -> PauliChannelFit:
    """Fit the exponential identity-decay model to an n-cycle transfer stack.

    Parameters
    ----------
    R : (n_max, 4, 4) array
        Simulated transfer matrices for n = 1 .. n_max, n_max >= 3,
        off-diagonals included, as transfer_of_unitaries and
        superoperator_sequence return them.  The per-cycle probabilities
        are pauli_probabilities(R), and fit_overlap is
        min_n ||diag R_n|| / ||R_n||: the normalized Frobenius overlap
        between the Pauli channel of cycle n, whose transfer matrix is
        diag R_n, and R_n itself.
    t_c : float
        Cycle duration in seconds.

    Notes
    -----
    The asymptotic constants c are the mean probabilities over the last
    quarter of the cycles (_TAIL_FRACTION, at least one cycle).  The
    crossing n* solves p_I(n*) = c_i + (1 - c_i)/e by linear interpolation
    on the simulated samples, anchored at p_I(0) = 1, so the model
    amplitude at n = 0 is consistent with an initially perfect identity
    channel.
    """
    R = _transfer(R)
    probs, _ = pauli_probabilities(R)
    if probs.ndim != 2 or probs.shape[0] < 3:
        raise ValueError(
            f"need an (n_max, 4, 4) stack of at least 3 cycles, got shape {R.shape}"
        )
    if not 0.0 < t_c < np.inf:
        raise ValueError(f"cycle time must be positive and finite, got {t_c}")
    n_max = probs.shape[0]
    tail = max(1, int(round(_TAIL_FRACTION * n_max)))
    c_i, c_x, c_y, c_z = probs[-tail:].mean(axis=0)

    excess0 = 1.0 - c_i
    target = c_i + excess0 / np.e
    pi_seq = np.concatenate([[1.0], probs[:, 0]])
    below = np.nonzero(pi_seq <= target)[0]
    if excess0 <= 1e-12 or below.size == 0:
        n_star = np.inf
    else:
        k = int(below[0])
        if k == 0:
            n_star = 0.0
        else:
            hi, lo = pi_seq[k - 1], pi_seq[k]
            frac = (hi - target) / (hi - lo) if hi > lo else 1.0
            n_star = (k - 1) + frac
    t2_cycles = float(n_star)
    t2 = float(n_star * t_c) if np.isfinite(n_star) else np.inf

    diag_norms = np.linalg.norm(np.diagonal(R, axis1=-2, axis2=-1), axis=-1)
    overlap = float(np.min(diag_norms / np.linalg.norm(R, axis=(-2, -1))))

    return PauliChannelFit(
        per_cycle_probs=probs,
        c_i=float(c_i),
        c_x=float(c_x),
        c_y=float(c_y),
        c_z=float(c_z),
        t2_pulse=t2,
        t2_pulse_cycles=t2_cycles,
        cycle_time=float(t_c),
        m_infinity=float(c_i + c_y - c_x - c_z),
        fit_overlap=overlap,
    )
