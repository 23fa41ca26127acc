"""Gradient-ascent pulse engineering over a static ensemble.

Controls are the Cartesian pair u1 = A cos(phi), u2 = A sin(phi) per step.
The objective is the ensemble-averaged trace overlap with a target unitary.
Its gradient is the first-order GRAPE one (Khaneja et al., JMR 172, 296
(2005)): it drops the commutator terms of each step's derivative, so its
error is first order in dt |H|.  It comes from the prefix products X_j of the
Cayley-Klein steps, one inclusive scan (:func:`propagation.forward_products`)
per chunk of ensemble points.  A line-search probe runs the same scan and
can leave its prefixes in a buffer; when the probe is accepted, the next
gradient starts from them instead of building the steps again.  Steps follow
the averaged gradient with a backtracking line search, so the fidelity
history is monotone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .pulses import EnsembleDistribution, PulseWaveform
from .propagation import (
    forward_products,
    free_pairs,
    point_chunks,
    step_propagators,
)
from .su2 import ck_inv, ck_mul

# Line search: the trial step grows by _LS_GROWTH after an accepted probe
# and shrinks by _LS_SHRINK after a rejected one, with at most
# _LS_MAX_PROBES probes per iteration.
_LS_GROWTH = 1.5
_LS_SHRINK = 0.5
_LS_MAX_PROBES = 20


class Termination(enum.Enum):
    TARGET_REACHED = "target_reached"
    STALLED = "stalled"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class GrapeConfig:
    """Ascent budget and stopping rules.

    Iterations stop at target_fidelity, on an improvement below
    improvement_threshold (stall), or at max_iterations.  The line search
    has no settings: its first trial step moves the largest control by 5%
    of the amplitude cap, and later steps follow _LS_GROWTH, _LS_SHRINK
    and _LS_MAX_PROBES.
    """

    improvement_threshold: float = 1e-7
    max_iterations: int = 2000
    target_fidelity: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.improvement_threshold < np.inf:
            raise ValueError(
                f"improvement_threshold must be positive and finite, "
                f"got {self.improvement_threshold}"
            )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.target_fidelity <= 1.0:
            raise ValueError("target_fidelity must be in (0, 1]")


@dataclass(frozen=True)
class GrapeReport:
    """Outcome of one ascent run.

    fidelity_history[0] is the starting fidelity; one entry follows per
    accepted iteration, and step_sizes aligns with those accepted steps.
    """

    final_waveform: PulseWaveform
    fidelity_history: np.ndarray
    step_sizes: np.ndarray
    iterations: int
    termination: Termination


def _su2_target(target) -> np.ndarray:
    """The target with its global phase removed, so that det = 1."""
    target = np.asarray(target, dtype=complex)
    return target / np.sqrt(np.linalg.det(target))


def _overlaps(U, target):
    """M = target^dag U per point and t = Tr(M)/2 = Re a(M), real for an
    SU(2) target; the fidelity is t^2."""
    M = ck_mul(ck_inv(target[0]), U)
    return M, M[:, 0].real


def _scan(p: PulseWaveform, o, s, target):
    """Prefixes X_j (n_steps, P, 2) of one chunk of points, with (M, t) of
    the whole pulse (see :func:`_overlaps`)."""
    X = step_propagators(p, o, s)
    last = forward_products(X, free_pairs(o, p.pre_delay))
    return X, *_overlaps(ck_mul(free_pairs(o, p.post_delay), last), target)


def _ensemble_fidelity(p: PulseWaveform, d: EnsembleDistribution, target, prefixes=None):
    """Averaged fidelity of a waveform without the gradient sweep: the
    line-search probe.

    Given an (n_steps, P, 2) complex buffer ``prefixes``, leaves the
    prefixes X_j of every point there for :func:`_averaged_eval`.
    """
    t = np.empty(d.n_points)
    for chunk in point_chunks(d.n_points):
        X, _, t[chunk] = _scan(p, d.offsets[chunk], d.rf_scales[chunk], target)
        if prefixes is not None:
            prefixes[:, chunk] = X
    return float(np.dot(d.weights, t**2))


def _fidelity_and_gradients_raw(p: PulseWaveform, d: EnsembleDistribution, target,
                                prefixes=None):
    """Pointwise fidelities (P,) and first-order gradients (P, N, 2) wrt (u1, u2).

    ``target`` must lie in SU(2).  With X_j the product through step j
    (pre-delay included) and M = target^dag U_total (post-delay included),
    t = Tr(M)/2 is real, the fidelity is t^2, and
    dF/du_k(j) = dt omega1 t Tr(sigma_k X_j M X_j^dag) / (2i): the k = x, y
    components of X_j M X_j^dag are Im b and Re b of its Cayley-Klein pair.
    ``prefixes``, the buffer of a probe of this same waveform
    (:func:`_ensemble_fidelity`), supplies the X_j, and the steps are not
    built again.  Points are taken in the chunks of
    :func:`propagation.point_chunks`; each point's result is the same, to
    the bit, as when it is evaluated alone.
    """
    fids = np.empty(d.n_points)
    grads = np.empty((p.n_steps, d.n_points, 2))
    for chunk in point_chunks(d.n_points):
        o, s = d.offsets[chunk], d.rf_scales[chunk]
        if prefixes is None:
            X, M, t = _scan(p, o, s, target)
        else:
            X = prefixes[:, chunk]
            M, t = _overlaps(ck_mul(free_pairs(o, p.post_delay), X[-1]), target)
        # b of (X_j M) X_j^dag is the one part of that product the gradient needs
        XM = ck_mul(X, M)
        b = XM[..., 1] * X[..., 0] - XM[..., 0] * X[..., 1]
        w = p.dt * s * t
        fids[chunk] = t**2
        grads[:, chunk, 0] = w * b.imag
        grads[:, chunk, 1] = w * b.real
    return fids, grads.transpose(1, 0, 2)


def fidelity_and_gradients(p: PulseWaveform, point, target):
    """Fidelity and (n_steps, 2) gradient wrt (u1, u2) at one ensemble point.

    ``point`` is (delta_omega, omega1_scale); ``target`` is any 2x2 unitary
    (its global phase does not matter).
    """
    delta_omega, omega1_scale = point
    d = EnsembleDistribution.single_point(delta_omega, omega1_scale)
    fids, grads = _fidelity_and_gradients_raw(p, d, _su2_target(target))
    return float(fids[0]), grads[0]


def _averaged_eval(p: PulseWaveform, d: EnsembleDistribution, target, prefixes=None):
    fids, grads = _fidelity_and_gradients_raw(p, d, target, prefixes)
    return float(np.dot(d.weights, fids)), np.einsum("p,pnk->nk", d.weights, grads)


def grape_ascend(
    p0: PulseWaveform,
    d: EnsembleDistribution,
    target: np.ndarray,
    cfg: GrapeConfig | None = None,
) -> GrapeReport:
    """Maximize the ensemble-averaged fidelity starting from p0.

    Each iteration evaluates the averaged gradient, then probes
    u + eps * g with eps shrinking until the averaged fidelity strictly
    improves; amplitudes are clipped to a_max after every update, so the
    returned waveform always respects the cap.  Each probe leaves its
    prefix products in one (n_steps, P, 2) buffer, and the gradient at an
    accepted probe reads them from there before the next probe overwrites
    them.  Deterministic: identical inputs give an identical report.

    Raises
    ------
    ValueError
        If p0 exceeds its amplitude cap.
    RuntimeError
        On non-finite fidelity or gradient values.
    """
    if cfg is None:
        cfg = GrapeConfig()
    if p0.n_steps == 0:
        raise ValueError("cannot optimize an empty waveform")
    if np.max(p0.amplitudes) > p0.a_max * (1.0 + 1e-12) or np.min(p0.amplitudes) < 0.0:
        raise ValueError("initial amplitudes must lie in [0, a_max]")

    target = _su2_target(target)
    u = p0.cartesian_controls()
    u1, u2 = u[:, 0].copy(), u[:, 1].copy()
    p = p0
    prefixes = np.empty((p0.n_steps, d.n_points, 2), dtype=complex)

    fid, grad = _averaged_eval(p, d, target)
    if not (np.isfinite(fid) and np.all(np.isfinite(grad))):
        raise RuntimeError("non-finite objective at the starting point")
    history = [fid]
    accepted_steps: list[float] = []
    gmax = float(np.max(np.abs(grad)))
    eps = 0.05 * p0.a_max / gmax if gmax > 0.0 else 1.0
    termination = Termination.MAX_ITERATIONS

    for _ in range(cfg.max_iterations):
        if fid >= cfg.target_fidelity:
            termination = Termination.TARGET_REACHED
            break

        improvement = None
        for _probe in range(_LS_MAX_PROBES):
            v1 = u1 + eps * grad[:, 0]
            v2 = u2 + eps * grad[:, 1]
            amps = np.minimum(np.hypot(v1, v2), p0.a_max)
            phases = np.arctan2(v2, v1)
            trial = p.with_steps(amps, phases)
            f_trial = _ensemble_fidelity(trial, d, target, prefixes)
            if not np.isfinite(f_trial):
                raise RuntimeError("non-finite fidelity during line search")
            if f_trial > fid:
                improvement = f_trial - fid
                u1, u2 = amps * np.cos(phases), amps * np.sin(phases)
                p = trial
                fid = f_trial
                accepted_steps.append(eps)
                eps *= _LS_GROWTH
                break
            eps *= _LS_SHRINK
        if improvement is None:
            termination = Termination.STALLED
            break
        history.append(fid)
        if fid >= cfg.target_fidelity:
            termination = Termination.TARGET_REACHED
            break
        if improvement < cfg.improvement_threshold:
            termination = Termination.STALLED
            break
        fid, grad = _averaged_eval(p, d, target, prefixes)
        if not np.all(np.isfinite(grad)):
            raise RuntimeError("non-finite gradient")

    return GrapeReport(
        final_waveform=p,
        fidelity_history=np.asarray(history),
        step_sizes=np.asarray(accepted_steps),
        iterations=len(history) - 1,
        termination=termination,
    )


def random_waveform(template: PulseWaveform, rng) -> PulseWaveform:
    """Random start on template's grid: amplitudes in [0.3, 0.8] a_max,
    phases uniform."""
    n = template.n_steps
    amps = rng.uniform(0.3, 0.8, size=n) * template.a_max
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return template.with_steps(amps, phases)


def multistart_reports(
    d: EnsembleDistribution,
    target: np.ndarray,
    cfg: GrapeConfig | None,
    n_starts: int,
    seed: int,
    *,
    template: PulseWaveform,
    max_workers: int | None = None,
) -> list[GrapeReport]:
    """Independent ascents from seeded random starts, in start order.

    Start j is drawn from ``numpy.random.SeedSequence(seed).spawn`` child j;
    results do not depend on max_workers.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    children = np.random.SeedSequence(seed).spawn(n_starts)
    starts = [random_waveform(template, np.random.default_rng(c)) for c in children]
    if max_workers is not None and max_workers > 1 and n_starts > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(lambda p0: grape_ascend(p0, d, target, cfg), starts))
    return [grape_ascend(p0, d, target, cfg) for p0 in starts]

