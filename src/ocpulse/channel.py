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

so the averaged Bloch block is a sum of moments of the cycle axes and
angles (Hurlimann & Griffin, JMR 143, 120 (2000)):

    sum w r r^T + (sum w cos n theta) I - sum w cos(n theta) r r^T + [c(n)]x

with c(n) = sum w sin(n theta) r.  Ten numbers per count carry the whole
channel: p_I(n) = (1 + sum w cos n theta)/2, the diagonal is sum w r_k^2 +
sum w (1 - r_k^2) cos n theta, and the antisymmetric part, the coherent
rotation that the Pauli projection drops, is [c(n)]x.  No per-point matrix
is formed, and memory stays linear in the number of points whatever n_max
is (see transfer_of_unitaries).  As n -> infinity the oscillating sums
average out and each point keeps r r^T (or I for a cycle that is the
identity).

Both the n-cycle stack (transfer_of_unitaries) and that limit
(asymptotic_channel) take each point's cycle axis r and angle theta, as
:func:`ocpulse.su2.axis_angle` returns them from the cycle unitaries: a
caller that needs both, as analyze-channel --asymptotic does, propagates
and decomposes each pulse once and hands the same (r, theta) to each.
superoperator_sequence, like the criteria, takes the pulse pairs of
:func:`ocpulse.propagation.pulse_propagators`.

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

# Counts x points of one block of cycle powers; the count block shrinks as
# the ensemble grows, and the recurrence restarts at each block.  The
# block's complex rows exp(i n theta) set the channel benchmark's peak
# memory: 15 counts at 33,621 points, 8.07 MB.  Twice this would hold 31
# counts (16.6 MB) and raise the peak by about as much.
_POWER_BLOCK_ELEMENTS = 1 << 19

# Row and column indices of the six distinct entries of a symmetric 3x3
# matrix, i <= j.
_UPPER = np.triu_indices(3)

# Choi eigenvalues down to -_CP_TOL are rounding, not a channel that fails
# complete positivity.
_CP_TOL = 1e-6

# Share of the trailing cycles (at least one) whose mean probabilities are
# the fit's asymptotic constants.
_TAIL_FRACTION = 0.25


def _transfer(R, stack: bool = True) -> np.ndarray:
    """R as a float array, checked to be finite and (..., 4, 4) (one (4, 4)
    matrix when stack is False)."""
    R = np.asarray(R, dtype=float)
    if (R.shape[-2:] if stack else R.shape) != (4, 4):
        want = "(..., 4, 4)" if stack else "(4, 4)"
        raise ValueError(f"transfer matrix must be {want}, got shape {R.shape}")
    if not np.isfinite(R).all():
        raise ValueError("transfer matrix must be finite")
    return R


def _rotations(r, theta, weights):
    """Axes (P, 3), angles (P,) and weights (P,) of a mixture of rotations
    as float arrays, checked to be finite with P >= 1, the weights
    nonnegative with sum 1 within 1e-9 (as an EnsembleDistribution's) and
    each axis of unit length within 1e-9, or zero (an identity's)."""
    r, theta, w = (np.asarray(x, dtype=float) for x in (r, theta, weights))
    if r.shape[-1:] != (3,) or not 0 < r.size == 3 * theta.size == 3 * w.size:
        raise ValueError(f"need (P, 3) axes, P angles and P weights (P >= 1), got shapes "
                         f"{r.shape}, {theta.shape} and {w.shape}")
    if not (np.isfinite(r).all() and np.isfinite(theta).all() and np.isfinite(w).all()):
        raise ValueError("rotation axes, angles and weights must be finite")
    if (w < 0.0).any() or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must be nonnegative and sum to 1, got min {w.min()!r} "
                         f"and sum {w.sum()!r}")
    norm = np.linalg.norm(r.reshape(-1, 3), axis=1)
    if not ((norm == 0.0) | (np.abs(norm - 1.0) <= 1e-9)).all():
        raise ValueError("rotation axes must be unit vectors or zero")
    return r.reshape(-1, 3), theta.reshape(-1), w.reshape(-1)


def _embed(block: np.ndarray) -> np.ndarray:
    """(..., 4, 4) transfer matrices with identity row/column around (..., 3, 3)."""
    out = np.zeros(block.shape[:-2] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = block
    return out


def _outer_products(r: np.ndarray) -> np.ndarray:
    """(P, 6) distinct entries r_i r_j (i <= j) of each axis's r r^T, in the
    order of _UPPER (see :func:`_symmetric`)."""
    return r[:, _UPPER[0]] * r[:, _UPPER[1]]


def _symmetric(v: np.ndarray) -> np.ndarray:
    """(..., 3, 3) symmetric matrices from their (..., 6) distinct entries."""
    out = np.empty(v.shape[:-1] + (3, 3))
    out[..., _UPPER[0], _UPPER[1]] = v
    out[..., _UPPER[1], _UPPER[0]] = v
    return out


def transfer_of_unitaries(r, theta, weights, n_max: int) -> np.ndarray:
    """(n_max, 4, 4) transfer matrices of a weighted mixture of n-fold
    rotations, n = 1 .. n_max (row n - 1 is the n-fold one).

    Point p turns by theta_p about the unit axis r_p.  The ten moments per
    count of the closed form in the module docstring (sum w cos n theta,
    the six distinct entries of sum w cos(n theta) r r^T and the three of
    c(n)) come from one product of the rows z^n = exp(i n theta) over
    points, read as interleaved (cos, sin) reals, with a (2P, 10) matrix of
    the cycle moments w, w r_i r_j and w r.  No per-point matrix is formed,
    and memory stays O(P) whatever n_max.  The identity row and column are
    exact by construction.

    Counts are taken in blocks of _POWER_BLOCK_ELEMENTS // P.  A block's
    first row is cos and sin of its count directly, and each later row is
    the previous one times z = exp(i theta), which is angle addition.  The
    recurrence restarts at every block, so its rounding drift is bounded by
    the block length.

    Parameters
    ----------
    r : (..., 3) array_like
        Unit rotation axes, flattened to P points.
    theta : (...) array_like
        Rotation angles, one per point.
    weights : (P,) array_like
        Mixture weights, e.g. an EnsembleDistribution's weights.  Axes,
        angles and weights must be finite and agree in P >= 1, weights
        nonnegative with sum 1 and axes unit or zero (ValueError).
    n_max : int
        Largest count, at least 1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    r, theta, w = _rotations(r, theta, weights)
    P = theta.shape[0]
    rr = _outer_products(r)
    # row 2p meets cos(n theta_p) and row 2p + 1 sin(n theta_p)
    moments = np.zeros((P, 2, 10))
    moments[:, 0, 0] = w
    np.multiply(w[:, None], rr, out=moments[:, 0, 1:7])
    np.multiply(w[:, None], r, out=moments[:, 1, 7:])
    moments = moments.reshape(2 * P, 10)

    sums = np.empty((n_max, 10))
    step = max(1, _POWER_BLOCK_ELEMENTS // P)
    rows = np.empty((min(step, n_max), P), dtype=complex)
    z = np.empty(P, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    for first in range(0, n_max, step):
        block = rows[:min(step, n_max - first)]
        # the first row's phase sits in its imaginary part: no temporary
        np.multiply(first + 1, theta, out=block[0].imag)
        np.cos(block[0].imag, out=block[0].real)
        np.sin(block[0].imag, out=block[0].imag)
        for j in range(1, len(block)):
            np.multiply(block[j - 1], z, out=block[j])
        sums[first:first + len(block)] = block.view(float) @ moments
    blocks = _symmetric(w @ rr - sums[:, 1:7])
    blocks[:, [0, 1, 2], [0, 1, 2]] += sums[:, :1]
    c = sums[:, 7:]
    blocks[:, [2, 0, 1], [1, 2, 0]] += c
    blocks[:, [1, 2, 0], [2, 0, 1]] -= c
    return _embed(blocks)


def superoperator_sequence(U: np.ndarray, tau: float, d: EnsembleDistribution,
                           n_max: int) -> np.ndarray:
    """(n_max, 4, 4) transfer matrices of the n-cycle channels, n = 1 ..
    n_max (row n - 1 is the n-cycle channel), of the pulse pairs U =
    pulse_propagators(p, d), from one closed-form weighted sum."""
    C = cycle_propagators(U, tau, d)
    return transfer_of_unitaries(*axis_angle(C), d.weights, n_max)


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


def asymptotic_channel(r, theta, weights) -> np.ndarray:
    """(4, 4) transfer matrix of the n -> infinity channel of a weighted
    mixture of cycle rotations: per point rho -> (rho + (r.sigma) rho
    (r.sigma))/2 with r the cycle rotation axis, then weight averaged.

    r (..., 3), theta (...) and weights (P,) are as for
    transfer_of_unitaries, so the limit and the n-cycle stack can share one
    propagation and one axis-angle decomposition.  The per-point Bloch
    block is the rank-one projector r r^T, the limit of the n-average of
    the closed form once the cos and sin terms wash out.  A point whose
    cycle is numerically the identity (theta below 2e-12, e.g. every point
    of the ideal pulse, whose cycle is -I) has no axis and never dephases,
    so it contributes the identity.
    """
    r, theta, w = _rotations(r, theta, weights)
    still = theta < 2e-12
    axes = np.where(still[:, None], 0.0, r)
    block = _symmetric(w @ _outer_products(axes))
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
    quarter of the cycles (_TAIL_FRACTION; one at least, as n_max >= 3).
    The crossing n* solves p_I(n*) = c_i + (1 - c_i)/e by linear
    interpolation on the simulated samples, anchored at p_I(0) = 1, so the
    model amplitude at n = 0 is consistent with an initially perfect
    identity channel.
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
    tail = int(round(_TAIL_FRACTION * n_max))
    c_i, c_x, c_y, c_z = probs[-tail:].mean(axis=0)

    excess0 = 1.0 - c_i
    target = c_i + excess0 / np.e
    pi_seq = np.concatenate([[1.0], probs[:, 0]])
    below = np.nonzero(pi_seq <= target)[0]
    if excess0 <= 1e-12 or below.size == 0:
        n_star = np.inf
    else:
        # p_I(0) = 1 lies above the target, so k >= 1 and hi > target >= lo
        k = int(below[0])
        hi, lo = pi_seq[k - 1], pi_seq[k]
        n_star = (k - 1) + (hi - target) / (hi - lo)
    t2_cycles = float(n_star)
    t2 = float(n_star * t_c)

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
