"""Gradient-ascent pulse engineering over a static ensemble.

Controls are the Cartesian pair u1 = A cos(phi), u2 = A sin(phi) per step.
The objective is the ensemble-averaged trace overlap with the pi rotation
about y, the constant pair :data:`propagation.TARGET_PI_Y`.  Its gradient
is the first-order GRAPE one (Khaneja et al., JMR 172, 296 (2005)): it
drops the commutator terms of each step's derivative, so its error is first
order in dt |H|.  It comes from the prefix products X_j of the Cayley-Klein
rows of :func:`propagation.step_propagators`, the guards being the first and
last rows, by one inclusive scan (:func:`propagation.forward_products`) per
chunk of ensemble points, and from the overlap pairs M = TARGET^dag U of the
whole pulse and their overlaps t (:func:`propagation.target_overlaps`; the
inverse target is a read-only constant of :mod:`ocpulse.propagation`).  One
scan (:func:`_scan`) serves the line-search probe and the gradient: it
leaves the prefixes, M and t in the ascent's workspace (:class:`_Workspace`),
so the gradient at an accepted probe reads them there and runs no scan of
its own.  The workspace's one spare scan level and scratch plane, cut into
contiguous per-chunk views by :func:`propagation.chunk_buffers`, serve every
chunk, probe and gradient.  Steps follow a projected L-BFGS direction over
the Cartesian controls (Nocedal & Wright, Numerical Optimization, ch. 7;
for quasi-Newton GRAPE, de Fouquieres et al., JMR 212, 412 (2011)), with a
halving line search that accepts only a strict improvement, so the
fidelity history is monotone.  Each trial's amplitudes are clipped to the
cap, so the cap is kept by projection onto the disc hypot(u1, u2) <= a_max.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .pulses import EnsembleDistribution, PulseWaveform
from .propagation import chunk_buffers, forward_products, step_propagators, target_overlaps
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

    A scan (:func:`_scan`) of ``waveform`` leaves in it everything the
    gradient reads: per chunk k of points ``prefixes[k]``, the
    (n_steps + 2, c, 2) prefix products, guards included, and over all P
    points the overlap pairs M = TARGET_PI_Y^dag U_total in ``overlaps``
    and their overlaps t = Re a(M) in ``t``, both sliced by chunk.
    ``levels[k]`` is chunk k of :func:`propagation.chunk_buffers`: its
    points, and a spare scan level and a scratch plane that every chunk,
    probe and gradient shares; the gradient overwrites them and nothing
    else.  Pair buffers are plane-major (:func:`ocpulse.su2.pair_buffer`).
    """

    def __init__(self, p: PulseWaveform, d: EnsembleDistribution):
        self.levels = chunk_buffers(p.n_steps + 2, d.n_points)
        self.prefixes = [pair_buffer(spare.shape[:-1]) for _, spare, _ in self.levels]
        self.overlaps = pair_buffer((d.n_points,))
        self.t = self.overlaps[:, 0].real
        self.waveform = None


def _scan(p: PulseWaveform, d: EnsembleDistribution, ws: _Workspace):
    """Fills ``ws`` with the prefixes, M and t of waveform p, chunk by chunk
    (:func:`propagation.forward_products`, then
    :func:`propagation.target_overlaps` of the last prefix, the whole
    pulse)."""
    for X, (chunk, spare, scratch) in zip(ws.prefixes, ws.levels):
        step_propagators(p, d.offsets[chunk], d.rf_scales[chunk], out=X)
        forward_products(X, spare, scratch)
        target_overlaps(X[-1], out=ws.overlaps[chunk], scratch=scratch[0])
    ws.waveform = p


def _ensemble_fidelity(p: PulseWaveform, d: EnsembleDistribution, ws: _Workspace):
    """Averaged fidelity sum w t^2 of a waveform without the gradient sweep:
    the line-search probe.

    Leaves the scan of p in ``ws`` (a :class:`_Workspace` of this
    ensemble), where :func:`_averaged_eval` of the same waveform finds it.
    """
    _scan(p, d, ws)
    return float(np.dot(d.weights, ws.t**2))


def _averaged_eval(p: PulseWaveform, d: EnsembleDistribution, ws: _Workspace):
    """Averaged fidelity and first-order (n_steps, 2) gradient wrt (u1, u2).

    With X_j the product through step j (pre-delay included), prefix row
    j + 1, and M = TARGET_PI_Y^dag U_total, U_total the last prefix row
    (post-delay included), t = Tr(M)/2 is real, the fidelity is t^2, and
    dF/du_k(j) = dt omega1 t Tr(sigma_k X_j M X_j^dag) / (2i): the k = x, y
    components of X_j M X_j^dag are Im b and Re b of its Cayley-Klein pair.
    ``ws`` is a :class:`_Workspace` of this ensemble; the scan runs only
    when it holds another waveform than p (a probe of p leaves its own).
    Each chunk's per-point products are weighted and summed by one einsum,
    so each point's products carry the bits of that point evaluated alone.
    """
    if ws.waveform is not p:
        _scan(p, d, ws)
    n = p.n_steps
    grad = np.zeros((n, 2))
    for prefixes, (chunk, spare, scratch) in zip(ws.prefixes, ws.levels):
        X, M, t = prefixes[1:-1], ws.overlaps[chunk], ws.t[chunk]
        # b of (X_j M) X_j^dag is the one part of that product the gradient
        # needs; the b plane of X_j M is free once its product is taken
        XM = ck_mul(X, M, out=spare[:n], scratch=scratch[:n])
        b = np.multiply(XM[..., 1], X[..., 0], out=scratch[:n])
        b -= np.multiply(XM[..., 0], X[..., 1], out=XM[..., 1])
        w = p.dt * d.rf_scales[chunk] * t
        g = np.empty((n, t.size, 2))
        np.multiply(w, b.imag, out=g[..., 0])
        np.multiply(w, b.real, out=g[..., 1])
        grad += np.einsum("p,npk->nk", d.weights[chunk], g)
    return float(np.dot(d.weights, ws.t**2)), grad


def fidelity_and_gradients(p: PulseWaveform, point):
    """Fidelity and (n_steps, 2) gradient wrt (u1, u2) at one ensemble point,
    ``point`` = (delta_omega, omega1_scale)."""
    d = EnsembleDistribution.single_point(*point)
    return _averaged_eval(p, d, _Workspace(p, d))


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
    instead of stopping.  Each probe leaves its prefix products, M and t in
    the ascent's one workspace (:class:`_Workspace`), and the gradient at an
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

