"""Gradient-ascent pulse engineering over a static ensemble.

Controls are the Cartesian pair u1 = A cos(phi), u2 = A sin(phi) per step.
The objective is the ensemble-averaged trace overlap with the pi rotation
about y, the constant pair :data:`propagation.TARGET_PI_Y`.  Its gradient
is the first-order GRAPE one (Khaneja et al., JMR 172, 296 (2005)): it
drops the commutator terms of each step's derivative, so its error is first
order in dt |H|.  It comes from the prefix products X_j of the Cayley-Klein
rows of :func:`propagation.step_propagators`, the guards being the first and
last rows, by one inclusive scan (:func:`propagation.forward_products`) per
chunk of ensemble points.  A line-search probe runs the same scan and leaves
its prefixes in the ascent's workspace (:class:`_Workspace`); when the probe
is accepted, the next gradient starts from them instead of building the
steps again.  The workspace holds the chunk-sized buffers that every probe
and gradient reuse; the inverse target is a read-only constant of
:mod:`ocpulse.propagation`, which :func:`propagation.target_overlaps`
applies.  Steps follow a projected L-BFGS direction over the Cartesian
controls (Nocedal & Wright, Numerical Optimization, ch. 7; for quasi-Newton
GRAPE, de Fouquieres et al., JMR 212, 412 (2011)), with a halving line
search that accepts only a strict improvement, so the fidelity history is
monotone.  Each trial's amplitudes are clipped to the cap, so the cap is
kept by projection onto the disc hypot(u1, u2) <= a_max.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .pulses import EnsembleDistribution, PulseWaveform
from .propagation import forward_products, point_chunks, step_propagators, target_overlaps
from .su2 import ck_mul, pair_buffer

# Line search: the trial step is halved (_LS_SHRINK) after each rejected
# probe, with at most _LS_MAX_PROBES probes per search; the L-BFGS
# direction uses the last _LBFGS_MEMORY pairs.
_LS_SHRINK = 0.5
_LS_MAX_PROBES = 20
_LBFGS_MEMORY = 8


class Termination(enum.Enum):
    TARGET_REACHED = "target_reached"
    STALLED = "stalled"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class GrapeConfig:
    """Ascent budget and stopping rules.

    Iterations stop at target_fidelity, on a line search with no
    improvement or a gradient-direction step that improves by less than
    improvement_threshold (stall), or at max_iterations.  A quasi-Newton
    step below improvement_threshold does not stall: it drops the L-BFGS
    pairs, and the next iteration steps along the gradient.  The search
    has no settings: a gradient-direction step moves the largest control
    by 5% of the amplitude cap, a quasi-Newton step starts at the full
    L-BFGS step, and each is halved (_LS_SHRINK) up to _LS_MAX_PROBES
    times; the L-BFGS memory is _LBFGS_MEMORY pairs.
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
    steps: step_sizes[i] is the Euclidean norm of the change of the
    Cartesian controls (u1, u2) in iteration i, in rad/s, and probes[i]
    counts its line-search probes, the accepted one included and those of a
    failed quasi-Newton search before it too.  The probes of an iteration
    that finds no improvement (a stall) are in no count.
    """

    final_waveform: PulseWaveform
    fidelity_history: np.ndarray
    step_sizes: np.ndarray
    probes: np.ndarray
    iterations: int
    termination: Termination


class _Workspace:
    """The buffers of one ensemble and pulse length.

    Per chunk k of points (:func:`propagation.point_chunks`) it holds
    ``prefixes[k]``, the (n_steps + 2, c, 2) prefix products of
    ``waveform``, guards included.  The spare scan level, the scratch plane
    and the overlap pairs M of a chunk are shared by every chunk of one
    width (a ragged last chunk has its own), and reused by every probe and
    gradient.  Pair buffers are plane-major
    (:func:`ocpulse.su2.pair_buffer`), and each chunk's are whole arrays,
    so every plane is contiguous.
    """

    def __init__(self, p: PulseWaveform, d: EnsembleDistribution):
        rows = p.n_steps + 2
        self.chunks = point_chunks(d.n_points)
        widths = [d.offsets[c].size for c in self.chunks]
        self.prefixes = [pair_buffer((rows, c)) for c in widths]
        self.waveform = None
        shared = {c: (pair_buffer((rows, c)), np.empty((rows, c), dtype=complex), pair_buffer((c,)))
                  for c in set(widths)}
        self.spare, self.scratch, self.overlaps = zip(*(shared[c] for c in widths))


def _chunk_overlaps(ws: _Workspace, k: int):
    """:func:`propagation.target_overlaps` of chunk k from its last prefix,
    the whole pulse; M goes to ``ws.overlaps[k]``."""
    return target_overlaps(ws.prefixes[k][-1], out=ws.overlaps[k], scratch=ws.scratch[k][0])


def _scan(p: PulseWaveform, d: EnsembleDistribution, ws: _Workspace, k: int):
    """Fills ``ws.prefixes[k]`` with the prefixes of chunk k and returns
    (M, t) of the whole pulse (see :func:`_chunk_overlaps`)."""
    chunk = ws.chunks[k]
    X = step_propagators(p, d.offsets[chunk], d.rf_scales[chunk], out=ws.prefixes[k])
    forward_products(X, ws.spare[k], ws.scratch[k])
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


def _fidelity_and_gradients_raw(p: PulseWaveform, d: EnsembleDistribution, ws: _Workspace):
    """Pointwise fidelities (P,) and first-order gradients (P, N, 2) wrt (u1, u2).

    With X_j the product through step j (pre-delay included), prefix row
    j + 1, and M = TARGET_PI_Y^dag U_total, U_total the last prefix row
    (post-delay included), t = Tr(M)/2 is real, the fidelity is t^2, and
    dF/du_k(j) = dt omega1 t Tr(sigma_k X_j M X_j^dag) / (2i): the k = x, y
    components of X_j M X_j^dag are Im b and Re b of its Cayley-Klein pair.
    ``ws`` is a :class:`_Workspace` of this ensemble; when it holds the
    prefixes of this same waveform (a probe left them,
    :func:`_ensemble_fidelity`), the steps are not built again.
    Points are taken in the chunks of :func:`propagation.point_chunks`;
    each point's result is the same, to the bit, as when it is evaluated
    alone.
    """
    held = ws.waveform is p
    n = p.n_steps
    fids = np.empty(d.n_points)
    grads = np.empty((n, d.n_points, 2))
    for k, chunk in enumerate(ws.chunks):
        M, t = _chunk_overlaps(ws, k) if held else _scan(p, d, ws, k)
        X = ws.prefixes[k][1:-1]
        # b of (X_j M) X_j^dag is the one part of that product the gradient
        # needs; the b plane of X_j M is free once its product is taken
        XM = ck_mul(X, M, out=ws.spare[k][:n], scratch=ws.scratch[k][:n])
        b = np.multiply(XM[..., 1], X[..., 0], out=ws.scratch[k][:n])
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
    fids, grads = _fidelity_and_gradients_raw(p, d, _Workspace(p, d))
    return float(fids[0]), grads[0]


def _averaged_eval(p: PulseWaveform, d: EnsembleDistribution, ws: _Workspace):
    fids, grads = _fidelity_and_gradients_raw(p, d, ws)
    return float(np.dot(d.weights, fids)), np.einsum("p,pnk->nk", d.weights, grads)


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """H g by the two-loop recursion (Nocedal & Wright, Algorithm 7.4) over
    the flat (s, y, 1 / s.y) pairs, oldest first, with the initial inverse
    Hessian s.y / y.y of the newest pair."""
    q = grad.ravel().copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    s, y, rho = pairs[-1]
    q *= 1.0 / (rho * (y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return q.reshape(grad.shape)


def _line_search(p: PulseWaveform, u: np.ndarray, step: np.ndarray, fid: float,
                 d: EnsembleDistribution, ws: _Workspace):
    """Probes u + step, then halves the step, up to _LS_MAX_PROBES times,
    each trial's amplitudes clipped to a_max.  Returns (probes taken, the
    first trial waveform whose fidelity strictly beats fid, its fidelity),
    or (_LS_MAX_PROBES, None, None) when no trial does."""
    for probe in range(1, _LS_MAX_PROBES + 1):
        v = u + step
        trial = p.with_steps(np.minimum(np.hypot(v[:, 0], v[:, 1]), p.a_max),
                             np.arctan2(v[:, 1], v[:, 0]))
        f_trial = _ensemble_fidelity(trial, d, ws)
        if not np.isfinite(f_trial):
            raise RuntimeError("non-finite fidelity during line search")
        if f_trial > fid:
            return probe, trial, f_trial
        step = step * _LS_SHRINK
    return _LS_MAX_PROBES, None, None


def grape_ascend(
    p0: PulseWaveform,
    d: EnsembleDistribution,
    cfg: GrapeConfig,
) -> GrapeReport:
    """Maximize the ensemble-averaged fidelity to the pi-about-y target
    starting from p0.

    Each iteration evaluates the averaged gradient g and searches along a
    projected L-BFGS direction over the Cartesian controls: the two-loop
    recursion over the last _LBFGS_MEMORY pairs (s, y), s the accepted
    step of the clipped controls and y = g_old - g_new, kept only when
    s.y > 1e-10 |s||y|.  With no pairs the direction is the gradient step
    eps * g, eps = 0.05 a_max / max|g|, which moves the largest control
    by 5% of the cap.  The search (:func:`_line_search`) accepts the first
    strict improvement, so the fidelity history is monotone and an ascent
    capped at k iterations takes k gradients.  Amplitudes are clipped to
    a_max in every trial, so the returned waveform respects the cap.  Two
    safeguards keep the quasi-Newton steps honest: a quasi-Newton search
    that finds no improvement (the cap can turn its step away from ascent)
    drops the pairs and searches once along eps * g, and a quasi-Newton
    step that improves by less than improvement_threshold drops the pairs
    instead of stopping.  Each probe leaves its prefix products in the
    ascent's one workspace (:class:`_Workspace`), and the gradient at an
    accepted probe reads them from there before the next probe overwrites
    them.  Deterministic: identical inputs give an identical report.

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
    p = p0
    ws = _Workspace(p0, d)

    fid, grad = _averaged_eval(p, d, ws)
    if not (np.isfinite(fid) and np.isfinite(grad).all()):
        raise RuntimeError("non-finite objective at the starting point")
    history = [fid]
    accepted_steps: list[float] = []
    probes: list[int] = []
    pairs: list = []
    # the controls and gradient at the start of the last accepted step,
    # from which the next gradient forms a pair; None after a reset
    last = None
    termination = Termination.MAX_ITERATIONS

    for iteration in range(cfg.max_iterations):
        if iteration:
            # the gradient at the last accepted probe, taken here so that
            # none is taken after the last iteration
            fid, grad = _averaged_eval(p, d, ws)
            if not np.isfinite(grad).all():
                raise RuntimeError("non-finite gradient")
            if last is not None:
                s, y = (u - last[0]).ravel(), (last[1] - grad).ravel()
                sy = float(s @ y)
                if sy > 1e-10 * np.sqrt((s @ s) * (y @ y)):
                    pairs = [*pairs, (s, y, 1.0 / sy)][-_LBFGS_MEMORY:]
        if fid >= cfg.target_fidelity:
            termination = Termination.TARGET_REACHED
            break

        gmax = float(np.max(np.abs(grad)))
        gradient_step = (0.05 * p0.a_max / gmax if gmax > 0.0 else 1.0) * grad
        quasi = bool(pairs)
        n, trial, f_trial = _line_search(
            p, u, _lbfgs_direction(grad, pairs) if quasi else gradient_step, fid, d, ws)
        if trial is None and quasi:
            pairs, quasi = [], False
            extra, trial, f_trial = _line_search(p, u, gradient_step, fid, d, ws)
            n += extra
        if trial is None:
            termination = Termination.STALLED
            break
        improvement = f_trial - fid
        last = (u, grad)
        u = trial.cartesian_controls()
        p, fid = trial, f_trial
        accepted_steps.append(float(np.linalg.norm(u - last[0])))
        probes.append(n)
        history.append(fid)
        if fid >= cfg.target_fidelity:
            termination = Termination.TARGET_REACHED
            break
        if improvement < cfg.improvement_threshold:
            if not quasi:
                termination = Termination.STALLED
                break
            pairs, last = [], None

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

