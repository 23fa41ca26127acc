"""Gradient-ascent pulse engineering over a static ensemble.

Controls are the Cartesian pair u1 = A cos(phi), u2 = A sin(phi) per step.
The objective is the ensemble-averaged trace overlap with a target unitary;
its exact first-order gradient comes from the prefix products of the
Cayley-Klein steps, one inclusive scan (:func:`propagation.forward_products`)
per chunk of ensemble points.  Line-search probes need only the whole
product, a pairwise tree (:func:`propagation.pulse_pairs`); both give each
point's fidelity to the same bits.  Steps follow the averaged gradient with
a backtracking line search, so the fidelity history is monotone.
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
    pulse_pairs,
    step_propagators,
)
from .su2 import ck_inv, ck_mul


class Termination(enum.Enum):
    TARGET_REACHED = "target_reached"
    STALLED = "stalled"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class GrapeConfig:
    """Ascent knobs.

    step_size_init of ``None`` auto-scales the first trial step so the
    largest control change is 5% of the amplitude cap.  The line search
    grows the step by ls_growth after an accepted iteration and shrinks it
    by ls_shrink on rejection, at most ls_max_probes shrinks per
    iteration.  Iterations stop at target_fidelity, on an improvement
    below improvement_threshold (stall), or at max_iterations.
    """

    step_size_init: float | None = None
    ls_growth: float = 1.5
    ls_shrink: float = 0.5
    ls_max_probes: int = 20
    improvement_threshold: float = 1e-7
    max_iterations: int = 2000
    target_fidelity: float = 1.0

    def __post_init__(self):
        if self.step_size_init is not None and self.step_size_init <= 0.0:
            raise ValueError("step_size_init must be positive")
        if self.ls_growth <= 1.0 or not 0.0 < self.ls_shrink < 1.0:
            raise ValueError("need ls_growth > 1 and 0 < ls_shrink < 1")
        if self.ls_max_probes < 1 or self.max_iterations < 1:
            raise ValueError("ls_max_probes and max_iterations must be >= 1")
        if self.improvement_threshold <= 0.0:
            raise ValueError("improvement_threshold must be positive")
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


def _ensemble_fidelity(p: PulseWaveform, d: EnsembleDistribution, target):
    """Averaged fidelity of a waveform without the gradient sweep."""
    _, t = _overlaps(pulse_pairs(p, d.offsets, d.rf_scales), target)
    return float(np.dot(d.weights, t**2))


def _fidelity_and_gradients_raw(p: PulseWaveform, d: EnsembleDistribution, target):
    """Pointwise fidelities (P,) and first-order gradients (P, N, 2) wrt (u1, u2).

    ``target`` must lie in SU(2).  With X_j the product through step j
    (pre-delay included) and M = target^dag U_total (post-delay included),
    t = Tr(M)/2 is real, the fidelity is t^2, and
    dF/du_k(j) = dt omega1 t Tr(sigma_k X_j M X_j^dag) / (2i): the k = x, y
    components of X_j M X_j^dag are Im b and Re b of its Cayley-Klein pair.
    Points are taken in the chunks of :func:`propagation.pulse_pairs`; each
    point's result is the same, to the bit, as when it is evaluated alone.
    """
    fids = np.empty(d.n_points)
    grads = np.empty((p.n_steps, d.n_points, 2))
    for chunk in point_chunks(d.n_points):
        o, s = d.offsets[chunk], d.rf_scales[chunk]
        steps = step_propagators(p, o, s)
        pre, post = free_pairs(o, p.pre_delay), free_pairs(o, p.post_delay)
        M, t = _overlaps(ck_mul(post, forward_products(steps, pre)), target)
        # steps now holds the prefixes X_j; b of (X_j M) X_j^dag is the one
        # part of that product the gradient needs
        XM = ck_mul(steps, M)
        b = XM[..., 1] * steps[..., 0] - XM[..., 0] * steps[..., 1]
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


def _averaged_eval(p: PulseWaveform, d: EnsembleDistribution, target):
    fids, grads = _fidelity_and_gradients_raw(p, d, target)
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
    returned waveform always respects the cap.  Deterministic: identical
    inputs give an identical report.

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

    fid, grad = _averaged_eval(p, d, target)
    if not (np.isfinite(fid) and np.all(np.isfinite(grad))):
        raise RuntimeError("non-finite objective at the starting point")
    history = [fid]
    accepted_steps: list[float] = []
    eps = cfg.step_size_init
    termination = Termination.MAX_ITERATIONS

    for _ in range(cfg.max_iterations):
        if fid >= cfg.target_fidelity:
            termination = Termination.TARGET_REACHED
            break
        gmax = float(np.max(np.abs(grad)))
        if eps is None:
            eps = 0.05 * p0.a_max / gmax if gmax > 0.0 else 1.0

        improvement = None
        for _probe in range(cfg.ls_max_probes):
            v1 = u1 + eps * grad[:, 0]
            v2 = u2 + eps * grad[:, 1]
            amps = np.minimum(np.hypot(v1, v2), p0.a_max)
            phases = np.arctan2(v2, v1)
            trial = p.with_steps(amps, phases)
            f_trial = _ensemble_fidelity(trial, d, target)
            if not np.isfinite(f_trial):
                raise RuntimeError("non-finite fidelity during line search")
            if f_trial > fid:
                improvement = f_trial - fid
                u1, u2 = amps * np.cos(phases), amps * np.sin(phases)
                p = trial
                fid = f_trial
                accepted_steps.append(eps)
                eps *= cfg.ls_growth
                break
            eps *= cfg.ls_shrink
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
        fid_check, grad = _averaged_eval(p, d, target)
        if not np.all(np.isfinite(grad)):
            raise RuntimeError("non-finite gradient")
        fid = fid_check

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

