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
stays linear in the number of points whatever n_max is.  As n -> infinity
the oscillating sums average out and each point keeps r r^T (or I for a
cycle that is the identity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .propagation import cycle_propagators
from .pulses import EnsembleDistribution, PulseWaveform
from .su2 import PAULIS, rotation_vectors

# Counts x points evaluated at once when summing cycle powers (about 8 MB
# per float array); the count block shrinks as the ensemble grows.
_POWER_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class SuperoperatorMatrix:
    """Pauli transfer matrix of the averaged n-cycle channel.

    entries is real (4, 4) in the (I, X, Y, Z) basis; n_cycles is None for
    the asymptotic (n -> infinity) channel.
    """

    entries: np.ndarray
    n_cycles: int | None

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (4, 4):
            raise ValueError("entries must be a (4, 4) real matrix")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def _axes_and_angles(U: np.ndarray):
    """Unit rotation axes (P, 3) and angles (P,) of unitaries; the axis of an
    identity (theta = 0) is the zero vector."""
    rotvec = rotation_vectors(np.asarray(U).reshape(-1, 2, 2))
    theta = np.linalg.norm(rotvec, axis=-1)
    return rotvec / np.maximum(theta, np.finfo(float).tiny)[:, None], theta


def _embed(block: np.ndarray) -> np.ndarray:
    """(..., 4, 4) transfer matrices with identity row/column around (..., 3, 3)."""
    out = np.zeros(block.shape[:-2] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = block
    return out


def transfer_of_unitaries(U: np.ndarray, weights=None, n=1) -> np.ndarray:
    """Transfer matrix of a weighted mixture of n-fold unitary conjugations.

    Each U_p is a rotation by theta about r, and its n-th power acts on
    Bloch vectors as r r^T + cos(n theta) (I - r r^T) + sin(n theta) [r]x.
    The weighted 3x3 block is therefore

        sum w r r^T + sum w cos(n theta) (I - r r^T) + sum w sin(n theta) [r]x

    where the two oscillating sums are (counts, P) @ (P, 9) products over
    points, evaluated for blocks of counts so that memory stays O(P).  The
    identity row and column are exact by construction.

    Parameters
    ----------
    U : (..., 2, 2) complex ndarray
        Unitaries, flattened to P points.
    weights : (P,) array_like, optional
        Mixture weights; the plain mean when omitted.
    n : int or 1-d sequence of ints
        Power of each unitary.  A scalar gives a (4, 4) matrix, a sequence
        of counts a stack (len(n), 4, 4).
    """
    r, theta = _axes_and_angles(U)
    P = theta.shape[0]
    w = np.full(P, 1.0 / P) if weights is None else np.asarray(weights, dtype=float).reshape(-1)
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
    for i in range(0, flat.size, step):
        phase = np.multiply.outer(flat[i:i + step], theta)
        blocks[i:i + step] = np.cos(phase) @ w_cos + np.sin(phase) @ w_sin
    out = _embed(fixed + blocks.reshape(-1, 3, 3))
    return out[0] if counts.ndim == 0 else out


def superoperator_sequence(
    p: PulseWaveform | None, tau: float, d: EnsembleDistribution, n_max: int
) -> list:
    """Channels for n = 1 .. n_max, all from one closed-form weighted sum."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    U = cycle_propagators(p, tau, d.offsets, d.rf_scales)
    R = transfer_of_unitaries(U, d.weights, np.arange(1, n_max + 1))
    return [SuperoperatorMatrix(entries, n) for n, entries in enumerate(R, start=1)]


def choi_matrix(s: SuperoperatorMatrix) -> np.ndarray:
    """(4, 4) Choi matrix (column-stacking convention) of the channel."""
    R = s.entries
    C = 0.5 * np.einsum("ba,aji,bkl->ikjl", R, PAULIS, PAULIS)
    return C.reshape(4, 4)


def choi_kraus(s: SuperoperatorMatrix, cp_tol: float = 1e-6):
    """Kraus form [(probability, operator), ...] sorted by weight.

    Operators are normalized so each fires with the paired probability;
    probabilities are Choi eigenvalues over 2 and sum to 1 for a
    trace-preserving channel.

    Raises
    ------
    ValueError
        If the channel is not trace preserving, or a Choi eigenvalue is
        below -cp_tol (not completely positive).
    """
    R = s.entries
    if np.max(np.abs(R[0] - np.array([1.0, 0.0, 0.0, 0.0]))) > 1e-8:
        raise ValueError("channel is not trace preserving")
    evals, evecs = np.linalg.eigh(choi_matrix(s))
    if evals.min() < -cp_tol:
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


def pauli_probabilities(s: SuperoperatorMatrix):
    """Nearest Pauli-channel probabilities (p_I, p_x, p_y, p_z) and the
    off-diagonal residual discarded by that projection.

    Exact (residual ~ 0) when the transfer matrix is diagonal; the
    diagonal is all a Pauli channel can see.
    """
    R = s.entries
    rx, ry, rz = R[1, 1], R[2, 2], R[3, 3]
    probs = 0.25 * np.array(
        [
            1.0 + rx + ry + rz,
            1.0 + rx - ry - rz,
            1.0 - rx + ry - rz,
            1.0 - rx - ry + rz,
        ]
    )
    residual = float(np.linalg.norm(R - np.diag(np.diag(R))))
    return probs, residual


def asymptotic_channel(
    p: PulseWaveform | None, tau: float, d: EnsembleDistribution
) -> SuperoperatorMatrix:
    """n -> infinity channel: per point rho -> (rho + (r.sigma) rho (r.sigma))/2
    with r the cycle rotation axis, then weight averaged.

    The per-point Bloch block is the rank-one projector r r^T, the limit of
    the n-average of the closed form once the cos and sin terms wash out.
    A point whose cycle is numerically the identity (theta below 2e-12,
    e.g. every point of the ideal pulse, whose cycle is -I) has no axis and
    never dephases, so it contributes the identity.
    """
    r, theta = _axes_and_angles(cycle_propagators(p, tau, d.offsets, d.rf_scales))
    still = theta < 2e-12
    axes = np.where(still[:, None], 0.0, r)
    block = np.einsum("p,pi,pj->ij", d.weights, axes, axes)
    block += d.weights[still].sum() * np.eye(3)
    return SuperoperatorMatrix(_embed(block), None)


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
    normalized Frobenius overlap between the per-cycle fitted Pauli
    channel and the full simulated transfer matrix; it measures how much
    of the map the Pauli-channel form captures (the deficit is coherent
    off-diagonal content a probability model cannot represent).
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


def model_probabilities(fit: PauliChannelFit, n) -> np.ndarray:
    """Fitted-model (p_I, p_x, p_y, p_z) at cycle n (broadcasts over n).

    The 0.5-amplitude exponential moves weight from sigma_y to the
    identity as n decreases; with no decay (t2 infinite) the model is the
    constant tail.
    """
    n = np.asarray(n, dtype=float)
    if np.isinf(fit.t2_pulse_cycles):
        e = np.zeros_like(n)
    else:
        e = np.exp(-n / fit.t2_pulse_cycles)
    out = np.empty(n.shape + (4,))
    out[..., 0] = fit.c_i + 0.5 * e
    out[..., 1] = fit.c_x
    out[..., 2] = fit.c_y - 0.5 * e
    out[..., 3] = fit.c_z
    return out


def _transfer_from_probs(probs: np.ndarray) -> np.ndarray:
    """Diagonal transfer matrix of a Pauli channel with the given probs."""
    pi, px, py, pz = probs
    return np.diag(
        [
            1.0,
            pi + px - py - pz,
            pi - px + py - pz,
            pi - px - py + pz,
        ]
    )


def _normalized_overlap(A: np.ndarray, B: np.ndarray) -> float:
    na, nb = np.linalg.norm(A), np.linalg.norm(B)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.sum(A * B) / (na * nb))


def fit_pauli_model(
    per_cycle_probs: np.ndarray,
    t_c: float,
    *,
    superoperators: list | None = None,
    tail_fraction: float = 0.25,
) -> PauliChannelFit:
    """Fit the exponential identity-decay model to per-cycle probabilities.

    Parameters
    ----------
    per_cycle_probs : (n_max, 4) array
        Pauli probabilities for n = 1 .. n_max.
    t_c : float
        Cycle duration in seconds.
    superoperators : list of SuperoperatorMatrix, optional
        Full simulated transfer matrices, off-diagonals included.  When
        given, fit_overlap is the minimum over n of the overlap between
        the fitted Pauli channel at that cycle and the simulated matrix;
        without them the overlap is left as nan (the diagonal alone
        cannot say how Pauli-like the map is).
    tail_fraction : float
        Portion of the trailing cycles averaged into the asymptotic
        constants.

    Notes
    -----
    The crossing n* solves p_I(n*) = c_i + (1 - c_i)/e by linear
    interpolation on the simulated samples, anchored at p_I(0) = 1, so the
    model amplitude at n = 0 is consistent with an initially perfect
    identity channel.
    """
    probs = np.asarray(per_cycle_probs, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != 4 or probs.shape[0] < 3:
        raise ValueError("need at least 3 cycles of (p_I, p_x, p_y, p_z) samples")
    if not 0.0 < t_c < np.inf:
        raise ValueError(f"cycle time must be positive and finite, got {t_c}")
    n_max = probs.shape[0]
    tail = max(1, int(round(tail_fraction * n_max)))
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

    fit = PauliChannelFit(
        per_cycle_probs=probs,
        c_i=float(c_i),
        c_x=float(c_x),
        c_y=float(c_y),
        c_z=float(c_z),
        t2_pulse=t2,
        t2_pulse_cycles=t2_cycles,
        cycle_time=float(t_c),
        m_infinity=float(c_i + c_y - c_x - c_z),
        fit_overlap=np.nan,
    )
    if superoperators is None:
        return fit
    overlaps = []
    for i in range(n_max):
        S_fit = _transfer_from_probs(probs[i])
        S_sim = np.asarray(superoperators[i].entries)
        overlaps.append(_normalized_overlap(S_fit, S_sim))
    return replace(fit, fit_overlap=float(np.min(overlaps)))
