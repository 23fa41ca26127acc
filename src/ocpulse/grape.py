"""Gradient-ascent pulse engineering over a static ensemble.

Controls are the Cartesian pair u1 = A cos(phi), u2 = A sin(phi) per step.
The objective is the ensemble-averaged trace overlap with the pi rotation
about y, the constant pair :data:`propagation.TARGET_PI_Y`.  Its gradient
is the first-order GRAPE one (Khaneja et al., JMR 172, 296 (2005)): it
drops the commutator terms of each step's derivative, so its error is first
order in dt |H|.  It comes from the prefix products X_j of the Cayley-Klein
steps, one inclusive scan (:func:`propagation.forward_products`) per chunk
of ensemble points.  A line-search probe runs the same scan and leaves its
prefixes in the ascent's workspace (:class:`_Workspace`); when the probe is
accepted, the next gradient starts from them instead of building the steps
again.  The workspace also holds what is fixed for the whole ascent (the
free precession of the guards) and the chunk-sized buffers that every probe
and gradient reuse; the inverse target is a read-only constant of
:mod:`ocpulse.propagation`, which :func:`propagation.target_overlaps`
applies.  Steps follow the averaged gradient with a backtracking line
search, so the fidelity history is monotone.
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
    target_overlaps,
)
from .su2 import ck_mul, pair_buffer

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
    accepted iteration, and step_sizes and probes align with those accepted
    steps: probes[i] counts the line-search probes of iteration i, the
    accepted one included.  The probes of a line search that finds no
    improvement (a stall) are in no count.
    """

    final_waveform: PulseWaveform
    fidelity_history: np.ndarray
    step_sizes: np.ndarray
    probes: np.ndarray
    iterations: int
    termination: Termination


class _Workspace:
    """The buffers and ascent-wide invariants of one ensemble and pulse
    timing.

    Per chunk k of points (:func:`propagation.point_chunks`) it holds the
    pre- and post-delay free precession and ``prefixes[k]``, the
    (n_steps, c, 2) prefix products X_j of ``waveform``.  The spare scan
    level, the scratch plane and the pairs U and M of a chunk are shared by
    every chunk of one width (a ragged last chunk has its own), and reused
    by every probe and gradient.  Pair buffers are plane-major
    (:func:`ocpulse.su2.pair_buffer`), and each chunk's are whole arrays,
    so every plane is contiguous.
    """

    def __init__(self, p: PulseWaveform, d: EnsembleDistribution):
        n = p.n_steps
        self.chunks = point_chunks(d.n_points)
        offsets = [d.offsets[c] for c in self.chunks]
        self.pre = [free_pairs(o, p.pre_delay) for o in offsets]
        self.post = [free_pairs(o, p.post_delay) for o in offsets]
        self.prefixes = [pair_buffer((n, o.size)) for o in offsets]
        self.waveform = None
        shared = {c: (pair_buffer((n, c)), np.empty((n, c), dtype=complex), pair_buffer((2, c)))
                  for c in {o.size for o in offsets}}
        self.spare, self.scratch, self.ends = zip(*(shared[o.size] for o in offsets))


def _chunk_overlaps(ws: _Workspace, k: int):
    """:func:`propagation.target_overlaps` of chunk k from its last prefix,
    with the post-delay applied; both products go to ``ws.ends[k]``."""
    U, M = ws.ends[k]
    scratch = ws.scratch[k][0]
    ck_mul(ws.post[k], ws.prefixes[k][-1], out=U, scratch=scratch)
    return target_overlaps(U, out=M, scratch=scratch)


def _scan(p: PulseWaveform, d: EnsembleDistribution, ws: _Workspace, k: int):
    """Fills ``ws.prefixes[k]`` with the prefixes X_j of chunk k and
    returns (M, t) of the whole pulse (see :func:`_chunk_overlaps`)."""
    chunk = ws.chunks[k]
    X = step_propagators(p, d.offsets[chunk], d.rf_scales[chunk], out=ws.prefixes[k])
    forward_products(X, ws.pre[k], ws.spare[k], ws.scratch[k])
    return _chunk_overlaps(ws, k)


def _ensemble_fidelity(p: PulseWaveform, d: EnsembleDistribution, ws: _Workspace):
    """Averaged fidelity of a waveform without the gradient sweep: the
    line-search probe.

    Leaves the prefixes X_j of every chunk in ``ws`` (a :class:`_Workspace`
    of this ensemble), where :func:`_averaged_eval` of the same waveform
    finds them.
    """
    t = np.empty(d.n_points)
    for k, chunk in enumerate(ws.chunks):
        t[chunk] = _scan(p, d, ws, k)[1]
    ws.waveform = p
    return float(np.dot(d.weights, t**2))


def _fidelity_and_gradients_raw(p: PulseWaveform, d: EnsembleDistribution, ws=None):
    """Pointwise fidelities (P,) and first-order gradients (P, N, 2) wrt (u1, u2).

    With X_j the product through step j (pre-delay included) and
    M = TARGET_PI_Y^dag U_total (post-delay included), t = Tr(M)/2 is
    real, the fidelity is t^2, and
    dF/du_k(j) = dt omega1 t Tr(sigma_k X_j M X_j^dag) / (2i): the k = x, y
    components of X_j M X_j^dag are Im b and Re b of its Cayley-Klein pair.
    When ``ws`` holds the prefixes of this same waveform (a probe left
    them, :func:`_ensemble_fidelity`), the steps are not built again.
    Points are taken in the chunks of :func:`propagation.point_chunks`;
    each point's result is the same, to the bit, as when it is evaluated
    alone.
    """
    if ws is None:
        ws = _Workspace(p, d)
    held = ws.waveform is p
    fids = np.empty(d.n_points)
    grads = np.empty((p.n_steps, d.n_points, 2))
    for k, chunk in enumerate(ws.chunks):
        M, t = _chunk_overlaps(ws, k) if held else _scan(p, d, ws, k)
        X = ws.prefixes[k]
        # b of (X_j M) X_j^dag is the one part of that product the gradient
        # needs; the b plane of X_j M is free once its product is taken
        XM = ck_mul(X, M, out=ws.spare[k], scratch=ws.scratch[k])
        b = np.multiply(XM[..., 1], X[..., 0], out=ws.scratch[k])
        b -= np.multiply(XM[..., 0], X[..., 1], out=XM[..., 1])
        w = p.dt * d.rf_scales[chunk] * t
        np.multiply(t, t, out=fids[chunk])
        np.multiply(w, b.imag, out=grads[:, chunk, 0])
        np.multiply(w, b.real, out=grads[:, chunk, 1])
    ws.waveform = p
    return fids, grads.transpose(1, 0, 2)


def fidelity_and_gradients(p: PulseWaveform, point):
    """Fidelity and (n_steps, 2) gradient wrt (u1, u2) at one ensemble point,
    ``point`` = (delta_omega, omega1_scale)."""
    delta_omega, omega1_scale = point
    d = EnsembleDistribution.single_point(delta_omega, omega1_scale)
    fids, grads = _fidelity_and_gradients_raw(p, d)
    return float(fids[0]), grads[0]


def _averaged_eval(p: PulseWaveform, d: EnsembleDistribution, ws: _Workspace):
    fids, grads = _fidelity_and_gradients_raw(p, d, ws)
    return float(np.dot(d.weights, fids)), np.einsum("p,pnk->nk", d.weights, grads)


def grape_ascend(
    p0: PulseWaveform,
    d: EnsembleDistribution,
    cfg: GrapeConfig,
) -> GrapeReport:
    """Maximize the ensemble-averaged fidelity to the pi-about-y target
    starting from p0.

    Each iteration evaluates the averaged gradient, then probes
    u + eps * g with eps shrinking until the averaged fidelity strictly
    improves, so an ascent capped at k iterations takes k gradients;
    amplitudes are clipped to a_max after every update, so the
    returned waveform always respects the cap.  Each probe leaves its
    prefix products in the ascent's one workspace (:class:`_Workspace`),
    and the gradient at an accepted probe reads them from there before the
    next probe overwrites them.  Deterministic: identical inputs give an identical report.

    Raises
    ------
    ValueError
        If p0 exceeds its amplitude cap.
    RuntimeError
        On non-finite fidelity or gradient values.
    """
    if p0.n_steps == 0:
        raise ValueError("cannot optimize an empty waveform")
    if np.max(p0.amplitudes) > p0.a_max * (1.0 + 1e-12) or np.min(p0.amplitudes) < 0.0:
        raise ValueError("initial amplitudes must lie in [0, a_max]")

    u = p0.cartesian_controls()
    u1, u2 = u[:, 0].copy(), u[:, 1].copy()
    p = p0
    ws = _Workspace(p0, d)

    fid, grad = _averaged_eval(p, d, ws)
    if not (np.isfinite(fid) and np.isfinite(grad).all()):
        raise RuntimeError("non-finite objective at the starting point")
    history = [fid]
    accepted_steps: list[float] = []
    probes: list[int] = []
    gmax = float(np.max(np.abs(grad)))
    eps = 0.05 * p0.a_max / gmax if gmax > 0.0 else 1.0
    termination = Termination.MAX_ITERATIONS

    for iteration in range(cfg.max_iterations):
        if iteration:
            # the gradient at the last accepted probe, taken here so that
            # none is taken after the last iteration
            fid, grad = _averaged_eval(p, d, ws)
            if not np.isfinite(grad).all():
                raise RuntimeError("non-finite gradient")
        if fid >= cfg.target_fidelity:
            termination = Termination.TARGET_REACHED
            break

        improvement = None
        for probe in range(_LS_MAX_PROBES):
            v1 = u1 + eps * grad[:, 0]
            v2 = u2 + eps * grad[:, 1]
            amps = np.minimum(np.hypot(v1, v2), p0.a_max)
            phases = np.arctan2(v2, v1)
            trial = p.with_steps(amps, phases)
            f_trial = _ensemble_fidelity(trial, d, ws)
            if not np.isfinite(f_trial):
                raise RuntimeError("non-finite fidelity during line search")
            if f_trial > fid:
                improvement = f_trial - fid
                u1, u2 = amps * np.cos(phases), amps * np.sin(phases)
                p = trial
                fid = f_trial
                accepted_steps.append(eps)
                probes.append(probe + 1)
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

    return GrapeReport(
        final_waveform=p,
        fidelity_history=np.asarray(history),
        step_sizes=np.asarray(accepted_steps),
        probes=np.asarray(probes, dtype=int),
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
    cfg: GrapeConfig,
    n_starts: int,
    seed: int,
    *,
    template: PulseWaveform,
    max_workers: int,
) -> list[GrapeReport]:
    """Independent ascents from seeded random starts, in start order.

    Start j is drawn from ``numpy.random.SeedSequence(seed).spawn`` child j;
    results do not depend on max_workers.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    children = np.random.SeedSequence(seed).spawn(n_starts)
    starts = [random_waveform(template, np.random.default_rng(c)) for c in children]
    if max_workers > 1 and n_starts > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(lambda p0: grape_ascend(p0, d, cfg), starts))
    return [grape_ascend(p0, d, cfg) for p0 in starts]

