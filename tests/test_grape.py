import tracemalloc

import numpy as np
import pytest

from ocpulse import grape
from ocpulse.grape import (
    GrapeConfig,
    Termination,
    fidelity_and_gradients,
    grape_ascend,
    multistart_reports,
    random_waveform,
)
from ocpulse.metrics import average_fidelity
from ocpulse.propagation import POINT_CHUNK, point_chunks
from ocpulse.pulses import EnsembleDistribution, PulseWaveform, hard_pulse, waveform_template

A_MAX = 2 * np.pi * 5000.0


def finite_difference_gradient(p, d, h=1e-6):
    """Central differences on the Cartesian controls through the public objective."""
    u = p.cartesian_controls()
    g = np.zeros_like(u)
    ws = grape._Workspace(p, d)
    for j in range(p.n_steps):
        for k in range(2):
            up, um = u.copy(), u.copy()
            up[j, k] += h
            um[j, k] -= h
            fp = grape._ensemble_fidelity(
                p.with_steps(np.hypot(up[:, 0], up[:, 1]), np.arctan2(up[:, 1], up[:, 0])),
                d, ws,
            )
            fm = grape._ensemble_fidelity(
                p.with_steps(np.hypot(um[:, 0], um[:, 1]), np.arctan2(um[:, 1], um[:, 0])),
                d, ws,
            )
            g[j, k] = (fp - fm) / (2 * h)
    return g


def test_gradient_matches_finite_differences():
    # the analytic gradient drops the commutator term, so its residual is
    # first order in dt * |H|; dt = 4e-7 keeps that comfortably below 1e-3
    rng = np.random.default_rng(7)
    for _ in range(3):
        p = PulseWaveform(4e-7, rng.uniform(0.2, 1.0, 20) * A_MAX,
                          rng.uniform(0, 2 * np.pi, 20), A_MAX)
        offs = rng.uniform(-2 * np.pi * 1e3, 2 * np.pi * 1e3, 5)
        d = EnsembleDistribution(offs, np.ones(5), np.full(5, 0.2))
        _, ga = grape._averaged_eval(p, d, grape._Workspace(p, d))
        gf = finite_difference_gradient(p, d)
        assert np.max(np.abs(ga - gf)) / np.max(np.abs(gf)) < 1e-3


def test_single_point_gradient_wrapper():
    p = PulseWaveform(4e-7, np.full(6, 0.5 * A_MAX), np.linspace(0, 1, 6), A_MAX)
    fid, g = fidelity_and_gradients(p, (2 * np.pi * 500.0, 1.0))
    assert 0.0 <= fid <= 1.0
    assert g.shape == (6, 2)
    d = EnsembleDistribution.single_point(2 * np.pi * 500.0, 1.0)
    gf = finite_difference_gradient(p, d)
    assert np.max(np.abs(g - gf)) / np.max(np.abs(gf)) < 1e-3


def test_gradient_vanishes_at_optimum():
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    fid, g = fidelity_and_gradients(p, (0.0, 1.0))
    assert fid == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(g)) < 1e-12


def test_lbfgs_direction_meets_the_secant_equation_of_its_newest_pair():
    # H y = s for the newest pair (Nocedal & Wright, eq. 6.17), whatever the
    # older pairs; on a quadratic with gradient -A u, y = A s, and H g is an
    # ascent direction
    rng = np.random.default_rng(4)
    B = rng.normal(size=(12, 12))
    A = B @ B.T + 12 * np.eye(12)
    pairs = []
    for _ in range(grape._LBFGS_MEMORY):
        s = rng.normal(size=12)
        pairs.append((s, A @ s, 1.0 / (s @ A @ s)))
    s, y, _ = pairs[-1]
    assert np.allclose(grape._lbfgs_direction(y.reshape(6, 2), pairs).ravel(), s, rtol=1e-12)
    g = rng.normal(size=(6, 2))
    assert g.ravel() @ grape._lbfgs_direction(g, pairs).ravel() > 0.0


def test_ascent_from_optimum_stalls_immediately():
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    d = EnsembleDistribution.single_point()
    rep = grape_ascend(p, d, GrapeConfig(target_fidelity=1.0))
    assert rep.iterations == 0
    assert rep.termination in (Termination.STALLED, Termination.TARGET_REACHED)
    assert np.array_equal(rep.final_waveform.amplitudes, p.amplitudes)
    assert rep.fidelity_history.shape == (1,)


def test_history_monotone_and_aligned():
    rng = np.random.default_rng(11)
    tmpl = waveform_template(20, 1e-5, A_MAX)
    p0 = random_waveform(tmpl, rng)
    d = EnsembleDistribution.product(2 * np.pi * np.array([-1e3, 0.0, 1e3]), [1.0])
    rep = grape_ascend(p0, d, GrapeConfig(max_iterations=100))
    h = rep.fidelity_history
    assert np.all(np.diff(h) > 0.0)  # line search only accepts strict improvement
    assert rep.step_sizes.shape == (rep.iterations,)
    assert h.shape == (rep.iterations + 1,)
    assert h[-1] > h[0]
    assert np.all(rep.final_waveform.amplitudes <= A_MAX * (1 + 1e-12))


def test_target_reached_on_resonance():
    rng = np.random.default_rng(3)
    tmpl = waveform_template(20, 1e-5, A_MAX)
    rep = grape_ascend(
        random_waveform(tmpl, rng),
        EnsembleDistribution.single_point(),
        GrapeConfig(target_fidelity=0.9999),
    )
    assert rep.termination is Termination.TARGET_REACHED
    assert rep.fidelity_history[-1] >= 0.9999


def test_amplitude_cap_binds_when_target_needs_more():
    # 60 us at a 5 kHz cap cannot reach a pi rotation, so the optimum
    # saturates the cap
    rng = np.random.default_rng(5)
    tmpl = waveform_template(12, 5e-6, A_MAX)
    rep = grape_ascend(
        random_waveform(tmpl, rng),
        EnsembleDistribution.single_point(),
        GrapeConfig(max_iterations=300),
    )
    w = rep.final_waveform
    assert np.all(w.amplitudes <= A_MAX * (1 + 1e-12))
    assert np.max(w.amplitudes) == pytest.approx(A_MAX, rel=1e-9)
    # total rotation is capped below pi
    assert rep.fidelity_history[-1] < 0.9


def test_ascent_deterministic():
    rng = np.random.default_rng(13)
    tmpl = waveform_template(16, 1e-5, A_MAX)
    p0 = random_waveform(tmpl, rng)
    d = EnsembleDistribution.product(2 * np.pi * np.array([-2e3, 2e3]), [0.95, 1.05])
    cfg = GrapeConfig(max_iterations=60)
    a = grape_ascend(p0, d, cfg)
    b = grape_ascend(p0, d, cfg)
    assert np.array_equal(a.fidelity_history, b.fidelity_history)
    assert np.array_equal(a.final_waveform.amplitudes, b.final_waveform.amplitudes)
    assert np.array_equal(a.final_waveform.phases, b.final_waveform.phases)
    assert a.termination == b.termination


def test_start_validation():
    d = EnsembleDistribution.single_point()
    with pytest.raises(ValueError, match="empty"):
        grape_ascend(PulseWaveform(1e-6, np.zeros(0), np.zeros(0), A_MAX), d, GrapeConfig())
    over = PulseWaveform(1e-6, np.array([1.5 * A_MAX]), np.array([0.0]), A_MAX)
    with pytest.raises(ValueError, match="a_max"):
        grape_ascend(over, d, GrapeConfig())


def test_ascent_stops_on_a_nonfinite_objective_or_gradient(monkeypatch):
    p0 = random_waveform(waveform_template(10, 1e-5, A_MAX), np.random.default_rng(2))
    # an offset whose square overflows gives a nan pulse
    with np.errstate(all="ignore"), pytest.raises(RuntimeError) as err:
        grape_ascend(p0, EnsembleDistribution.single_point(1e200), GrapeConfig())
    assert str(err.value) == "non-finite objective at the starting point"
    evaluate = grape._averaged_eval
    evaluations = []

    def poisoned(*args):
        # a nan in the gradient from the second evaluation on
        fid, grad = evaluate(*args)
        evaluations.append(fid)
        if len(evaluations) > 1:
            grad[3, 1] = np.nan
        return fid, grad

    monkeypatch.setattr(grape, "_averaged_eval", poisoned)
    with pytest.raises(RuntimeError) as err:
        grape_ascend(p0, EnsembleDistribution.single_point(), GrapeConfig())
    assert str(err.value) == "non-finite gradient" and len(evaluations) == 2
    # poisoned from the first evaluation on: the starting gradient
    evaluations.append(0.0)
    with pytest.raises(RuntimeError) as err:
        grape_ascend(p0, EnsembleDistribution.single_point(), GrapeConfig())
    assert str(err.value) == "non-finite objective at the starting point"
    # a finite start whose first probe is nan
    monkeypatch.setattr(grape, "_averaged_eval", evaluate)
    monkeypatch.setattr(grape, "_ensemble_fidelity", lambda *args: np.nan)
    with pytest.raises(RuntimeError) as err:
        grape_ascend(p0, EnsembleDistribution.single_point(), GrapeConfig())
    assert str(err.value) == "non-finite fidelity during line search"


def test_a_line_search_that_never_improves_stalls_with_no_probe_counted(monkeypatch):
    # the hard pulse sits at its amplitude cap, and at RF scale 0.9 no
    # probe along the gradient beats its starting fidelity
    probe = grape._ensemble_fidelity
    probed = []

    def recorded(*args):
        probed.append(probe(*args))
        return probed[-1]

    monkeypatch.setattr(grape, "_ensemble_fidelity", recorded)
    p0 = hard_pulse(np.pi, np.pi / 2, A_MAX)
    rep = grape_ascend(p0, EnsembleDistribution.single_point(0.0, 0.9), GrapeConfig())
    assert rep.termination is Termination.STALLED and rep.iterations == 0
    assert len(probed) == grape._LS_MAX_PROBES
    assert all(f <= rep.fidelity_history[0] for f in probed)
    assert rep.probes.tolist() == [] and rep.step_sizes.tolist() == []
    # a 0.9 pi turn about y: t = cos(0.05 pi)
    assert rep.fidelity_history.tolist() == pytest.approx([np.cos(0.05 * np.pi) ** 2], abs=1e-15)
    assert rep.final_waveform is p0


def test_config_validation():
    with pytest.raises(ValueError):
        GrapeConfig(improvement_threshold=0.0)
    # nan passes a "<= 0" test, and "improvement < nan" never stops a stall
    with pytest.raises(ValueError, match="positive and finite, got nan"):
        GrapeConfig(improvement_threshold=np.nan)
    with pytest.raises(ValueError):
        GrapeConfig(target_fidelity=1.5)
    with pytest.raises(ValueError):
        GrapeConfig(max_iterations=0)


def test_random_waveform_ranges():
    tmpl = waveform_template(50, 1e-5, A_MAX, pre_delay=6e-6, post_delay=6e-6)
    p = random_waveform(tmpl, np.random.default_rng(0))
    assert p.n_steps == 50 and p.dt == tmpl.dt
    assert p.pre_delay == tmpl.pre_delay and p.post_delay == tmpl.post_delay
    assert np.all(p.amplitudes >= 0.3 * A_MAX) and np.all(p.amplitudes <= 0.8 * A_MAX)


def _final_fidelities(*args, **kwargs):
    return np.array([r.fidelity_history[-1] for r in multistart_reports(*args, **kwargs)])


def test_multistart_reproducible():
    d = EnsembleDistribution.single_point()
    cfg = GrapeConfig(max_iterations=30)
    tmpl = waveform_template(10, 1e-5, A_MAX)
    h1 = _final_fidelities(d, cfg, 4, 21, template=tmpl, max_workers=1)
    h2 = _final_fidelities(d, cfg, 4, 21, template=tmpl, max_workers=1)
    assert np.array_equal(h1, h2)
    h3 = _final_fidelities(d, cfg, 4, 22, template=tmpl, max_workers=1)
    assert not np.array_equal(h1, h3)


def test_multistart_single_start_matches_direct_ascent():
    d = EnsembleDistribution.single_point()
    cfg = GrapeConfig(max_iterations=30)
    tmpl = waveform_template(10, 1e-5, A_MAX)
    h = _final_fidelities(d, cfg, 1, 5, template=tmpl, max_workers=1)
    child = np.random.SeedSequence(5).spawn(1)[0]
    p0 = random_waveform(tmpl, np.random.default_rng(child))
    rep = grape_ascend(p0, d, cfg)
    assert h[0] == pytest.approx(rep.fidelity_history[-1], abs=0)


def test_multistart_threaded_matches_serial():
    d = EnsembleDistribution.product(2 * np.pi * np.array([-1e3, 1e3]), [1.0])
    cfg = GrapeConfig(max_iterations=15)
    tmpl = waveform_template(8, 1e-5, A_MAX)
    serial = multistart_reports(d, cfg, 3, 9, template=tmpl, max_workers=1)
    threaded = multistart_reports(d, cfg, 3, 9, template=tmpl, max_workers=2)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.fidelity_history, b.fidelity_history)
        assert np.array_equal(a.final_waveform.amplitudes, b.final_waveform.amplitudes)
    with pytest.raises(ValueError, match="n_starts"):
        multistart_reports(d, cfg, 0, 9, template=tmpl, max_workers=1)


def _guarded_random_waveform(rng, n_steps):
    return PulseWaveform(4e-6, rng.uniform(0, A_MAX, n_steps), rng.uniform(0, 2 * np.pi, n_steps),
                         A_MAX, pre_delay=6e-6, post_delay=1e-5)


@pytest.mark.parametrize("n_points", [1, 45, POINT_CHUNK + 37])
def test_probe_fidelity_equals_gradient_fidelity(n_points):
    # the line search compares a probe against the fidelity of the last
    # gradient evaluation, and average_fidelity (the pairwise tree) gates
    # what the ascent (the prefix scan) reports: all must be one number
    rng = np.random.default_rng(n_points)
    p = _guarded_random_waveform(rng, 100)
    d = EnsembleDistribution(rng.uniform(-2 * np.pi * 1e4, 2 * np.pi * 1e4, n_points),
                             rng.uniform(0.8, 1.2, n_points), np.full(n_points, 1.0 / n_points))
    f = grape._averaged_eval(p, d, grape._Workspace(p, d))[0]
    assert grape._ensemble_fidelity(p, d, grape._Workspace(p, d)) == f
    assert average_fidelity(p, d) == f


def test_a_probe_on_a_warmed_workspace_allocates_nothing_step_sized():
    # the scan, its spare level, the overlaps and the pair products all go
    # to the ascent's buffers; what a probe still allocates is the kernel's
    # per-step amplitudes, norm and tangent, each a quarter of a chunk's
    # step array.  A fresh step array per chunk and per scan level once
    # took 2.4 MB here.
    rng = np.random.default_rng(40)
    p = _guarded_random_waveform(rng, 100)
    n_points = POINT_CHUNK + 37
    d = EnsembleDistribution(rng.uniform(-2 * np.pi * 1e4, 2 * np.pi * 1e4, n_points),
                             rng.uniform(0.8, 1.2, n_points), np.full(n_points, 1.0 / n_points))
    ws = grape._Workspace(p, d)
    grape._ensemble_fidelity(p, d, ws)
    trial = p.with_steps(p.amplitudes[::-1].copy(), p.phases)
    tracemalloc.start()
    try:
        f = grape._ensemble_fidelity(trial, d, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.n_steps * POINT_CHUNK * 32
    assert f == grape._ensemble_fidelity(trial, d, grape._Workspace(trial, d))


def test_gradient_over_chunks_equals_per_point_evaluation():
    # 2.5 chunks: every point's fidelity and gradient carry the bits of that
    # point evaluated alone
    rng = np.random.default_rng(12)
    p = _guarded_random_waveform(rng, 100)
    n_points = 5 * POINT_CHUNK // 2
    d = EnsembleDistribution(rng.uniform(-2 * np.pi * 1e4, 2 * np.pi * 1e4, n_points),
                             rng.uniform(0.8, 1.2, n_points), np.full(n_points, 1.0 / n_points))
    fids, grads = grape._fidelity_and_gradients_raw(p, d, grape._Workspace(p, d))
    assert grads.shape == (n_points, 100, 2)
    for k in range(n_points):
        f, g = fidelity_and_gradients(p, (d.offsets[k], d.rf_scales[k]))
        assert f == fids[k]
        assert np.array_equal(g, grads[k])


def _two_chunk_problem():
    # POINT_CHUNK + 37 points, so the prefix buffer is taken in two strided
    # chunks; over this budget probes are rejected, and each safeguard of
    # the quasi-Newton ascent runs (_reference_ascent counts them)
    rng = np.random.default_rng(31)
    n_points = POINT_CHUNK + 37
    d = EnsembleDistribution(rng.uniform(-2 * np.pi * 6e3, 2 * np.pi * 6e3, n_points),
                             rng.uniform(0.9, 1.1, n_points), np.full(n_points, 1.0 / n_points))
    p0 = random_waveform(waveform_template(40, 1e-5, A_MAX, pre_delay=6e-6, post_delay=6e-6), rng)
    return p0, d, GrapeConfig(max_iterations=30)


def _reference_ascent(p0, d, cfg):
    """grape_ascend's loop written out, with every gradient evaluated afresh
    and every probe in a fresh workspace.  Also counts rejected probes and
    the iterations that took each safeguard: a failed quasi-Newton search
    ("failed") and a quasi-Newton step below the improvement threshold
    ("small")."""
    u = p0.cartesian_controls()
    p = p0
    fid, grad = grape._averaged_eval(p, d, grape._Workspace(p, d))
    history, steps, rejected = [fid], [], 0
    safeguards = {"failed": 0, "small": 0}
    pairs, last = [], None
    termination = Termination.MAX_ITERATIONS
    for _ in range(cfg.max_iterations):
        gradient_step = 0.05 * p0.a_max / float(np.max(np.abs(grad))) * grad
        searches = [grape._lbfgs_direction(grad, pairs), gradient_step] if pairs else [gradient_step]
        trial = None
        for step in searches:
            for _probe in range(grape._LS_MAX_PROBES):
                v = u + step
                candidate = p.with_steps(np.minimum(np.hypot(v[:, 0], v[:, 1]), p0.a_max),
                                         np.arctan2(v[:, 1], v[:, 0]))
                f_trial = grape._ensemble_fidelity(candidate, d, grape._Workspace(candidate, d))
                if f_trial > fid:
                    trial = candidate
                    break
                rejected += 1
                step = step * grape._LS_SHRINK
            if trial is not None:
                break
            if pairs:
                safeguards["failed"] += 1
                pairs = []
        if trial is None:
            termination = Termination.STALLED
            break
        quasi = bool(pairs)
        improvement = f_trial - fid
        last = (u, grad)
        u = trial.cartesian_controls()
        p, fid = trial, f_trial
        steps.append(np.linalg.norm(u - last[0]))
        history.append(fid)
        if improvement < cfg.improvement_threshold:
            if not quasi:
                termination = Termination.STALLED
                break
            safeguards["small"] += 1
            pairs, last = [], None
        fid, grad = grape._averaged_eval(p, d, grape._Workspace(p, d))
        if last is not None:
            s, y = (u - last[0]).ravel(), (last[1] - grad).ravel()
            if s @ y > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
                pairs = [*pairs, (s, y, 1.0 / (s @ y))][-grape._LBFGS_MEMORY:]
    return p, np.asarray(history), np.asarray(steps), termination, rejected, safeguards


def test_ascent_equals_a_loop_that_evaluates_every_gradient_afresh():
    # the gradient at an accepted probe reuses that probe's prefixes; a
    # stale or mixed-up buffer would move some bit of the report
    p0, d, cfg = _two_chunk_problem()
    p, history, steps, termination, rejected, safeguards = _reference_ascent(p0, d, cfg)
    assert rejected > 0 and len(steps) > 1
    assert safeguards["failed"] > 0 and safeguards["small"] > 0
    rep = grape_ascend(p0, d, cfg)
    assert np.array_equal(rep.fidelity_history, history)
    assert np.array_equal(rep.step_sizes, steps)
    assert np.array_equal(rep.final_waveform.amplitudes, p.amplitudes)
    assert np.array_equal(rep.final_waveform.phases, p.phases)
    assert rep.iterations == len(steps) and rep.termination is termination


def test_ascent_builds_step_exponentials_once_per_probe(monkeypatch):
    # one build per chunk for the starting gradient and per probe; the
    # gradient at an accepted probe builds none
    p0, d, cfg = _two_chunk_problem()
    calls = {"steps": 0, "probes": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(grape, "step_propagators", counted("steps", grape.step_propagators))
    monkeypatch.setattr(grape, "_ensemble_fidelity", counted("probes", grape._ensemble_fidelity))
    rep = grape_ascend(p0, d, cfg)
    assert rep.iterations > 1 and calls["probes"] > rep.iterations
    assert calls["steps"] == (calls["probes"] + 1) * len(point_chunks(d.n_points))


def test_report_counts_the_line_search_probes_of_each_iteration(monkeypatch):
    # an iteration ends at the first probe that beats the last accepted
    # fidelity; a capped ascent whose line searches all succeed counts
    # every probe, the rejected ones of the written-out loop included, and
    # those of a failed quasi-Newton search in the iteration that follows
    # it with a gradient search
    p0, d, cfg = _two_chunk_problem()
    _, _, steps, termination, rejected, safeguards = _reference_ascent(p0, d, cfg)
    assert termination is Termination.MAX_ITERATIONS and rejected > 0
    assert safeguards["failed"] > 0
    probed = []
    probe = grape._ensemble_fidelity

    def recorded(*args):
        probed.append(probe(*args))
        return probed[-1]

    monkeypatch.setattr(grape, "_ensemble_fidelity", recorded)
    rep = grape_ascend(p0, d, cfg)
    counts, n = [], 0
    for f in probed:
        n += 1
        if f > rep.fidelity_history[len(counts)]:
            counts.append(n)
            n = 0
    assert rep.probes.dtype.kind == "i" and rep.probes.tolist() == counts
    assert len(counts) == rep.iterations and sum(counts) == len(probed) == rejected + len(steps)
    assert max(counts) > grape._LS_MAX_PROBES


def test_a_capped_ascent_takes_one_gradient_per_iteration(monkeypatch):
    # the starting gradient and one at each accepted probe but the last:
    # a gradient after the last iteration was once taken and never read
    p0, d, cfg = _two_chunk_problem()
    p, history, steps, termination, _, _ = _reference_ascent(p0, d, cfg)
    assert termination is Termination.MAX_ITERATIONS
    calls = []
    evaluate = grape._averaged_eval

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(grape, "_averaged_eval", counted)
    rep = grape_ascend(p0, d, cfg)
    assert rep.termination is Termination.MAX_ITERATIONS
    assert rep.iterations == cfg.max_iterations == len(calls)
    assert np.array_equal(rep.fidelity_history, history)
    assert np.array_equal(rep.step_sizes, steps)
    assert np.array_equal(rep.final_waveform.cartesian_controls(), p.cartesian_controls())


def _recorded_ascent(monkeypatch, p0, d, cfg):
    """grape_ascend with the waveform and gradient of every iteration and
    the waveform of every probe recorded."""
    gradients, probes = [], []
    evaluate, probe = grape._averaged_eval, grape._ensemble_fidelity

    def gradient(p, *args):
        fid, grad = evaluate(p, *args)
        gradients.append((p, grad))
        return fid, grad

    def probed(trial, *args):
        probes.append(trial)
        return probe(trial, *args)

    monkeypatch.setattr(grape, "_averaged_eval", gradient)
    monkeypatch.setattr(grape, "_ensemble_fidelity", probed)
    return grape_ascend(p0, d, cfg), gradients, probes


def _gradient_step(p, grad):
    """The clipped waveform of the gradient step eps * g from p."""
    v = p.cartesian_controls() + 0.05 * p.a_max / np.max(np.abs(grad)) * grad
    return p.with_steps(np.minimum(np.hypot(v[:, 0], v[:, 1]), p.a_max), np.arctan2(v[:, 1], v[:, 0]))


def test_a_failed_quasi_newton_search_falls_back_to_the_gradient_step(monkeypatch):
    # on this problem the amplitude cap turns a quasi-Newton step away from
    # ascent: its search fails, the pairs are dropped, and the iteration
    # goes on with one search along eps * g instead of stalling
    p0, d, cfg = _two_chunk_problem()
    rep, gradients, probes = _recorded_ascent(monkeypatch, p0, d, cfg)
    assert rep.termination is Termination.MAX_ITERATIONS
    starts = np.concatenate(([0], np.cumsum(rep.probes)))
    failed = np.flatnonzero(rep.probes > grape._LS_MAX_PROBES)
    assert failed.size > 0
    for i in failed:
        p, grad = gradients[i]
        fallback = probes[starts[i] + grape._LS_MAX_PROBES]
        assert np.array_equal(fallback.cartesian_controls(), _gradient_step(p, grad).cartesian_controls())
        # the next iteration starts from one pair again: a quasi-Newton step
        assert not np.array_equal(probes[starts[i + 1]].cartesian_controls(),
                                  _gradient_step(*gradients[i + 1]).cartesian_controls())


def test_a_small_quasi_newton_step_drops_the_pairs_instead_of_stalling(monkeypatch):
    # a quasi-Newton step below the improvement threshold does not end the
    # ascent; the next iteration searches along eps * g, and only a small
    # gradient step would stall
    p0, d, cfg = _two_chunk_problem()
    rep, gradients, probes = _recorded_ascent(monkeypatch, p0, d, cfg)
    assert rep.termination is Termination.MAX_ITERATIONS
    starts = np.concatenate(([0], np.cumsum(rep.probes)))
    small = np.flatnonzero(np.diff(rep.fidelity_history) < cfg.improvement_threshold)
    assert small.size > 0
    for i in small:
        first = probes[starts[i + 1]]
        assert np.array_equal(first.cartesian_controls(),
                              _gradient_step(*gradients[i + 1]).cartesian_controls())
