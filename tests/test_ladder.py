import numpy as np
import pytest

from ocpulse import grape, ladder
from ocpulse.grape import GrapeConfig, GrapeReport, Termination, random_waveform
from ocpulse.ladder import (
    LadderResult,
    LadderRung,
    LadderStop,
    add_rfi_and_reoptimize,
    run_ladder,
    select_best_rung,
)
from ocpulse.pulses import EnsembleDistribution, hard_pulse, waveform_template

A_MAX = 2 * np.pi * 5000.0
DELTA = 2 * np.pi * 500.0


def quick_start(seed=11, n_steps=20):
    return random_waveform(waveform_template(n_steps, 1e-5, A_MAX), np.random.default_rng(seed))


def test_rung0_is_on_resonance_only():
    res = run_ladder(quick_start(), DELTA, cfg=GrapeConfig(max_iterations=200), max_rungs=0)
    assert res.stop_reason is LadderStop.MAX_RUNGS
    assert len(res.rungs) == 1
    r0 = res.rungs[0]
    assert r0.index == 0
    assert r0.half_bandwidth == 0.0
    assert r0.distribution.n_points == 1
    assert r0.distribution.offsets[0] == 0.0
    assert r0.distribution.points() == EnsembleDistribution.single_point().points()
    assert r0.avg_fidelity >= 0.9999  # on resonance a perfect pi is reachable


def test_rung_comb_structure():
    res = run_ladder(
        quick_start(), DELTA, cfg=GrapeConfig(max_iterations=80), seed=1, max_rungs=2
    )
    assert len(res.rungs) == 3
    for m, rung in enumerate(res.rungs):
        assert rung.index == m
        assert rung.half_bandwidth == pytest.approx(m * DELTA)
        d = rung.distribution
        assert d.n_points == 2 * m + 1
        assert np.allclose(d.weights, 1.0 / (2 * m + 1))
        # jittered comb: each point within 5% of its nominal slot, center exact
        nominal = np.arange(-m, m + 1) * DELTA
        assert np.all(np.abs(np.sort(d.offsets) - nominal) <= 0.05 * np.abs(nominal) + 1e-9)
        assert 0.0 in d.offsets.tolist()


def test_rungs_warm_start_from_previous_waveform():
    res = run_ladder(
        quick_start(), DELTA, cfg=GrapeConfig(max_iterations=60), seed=2, max_rungs=2
    )
    for prev, cur in zip(res.rungs, res.rungs[1:]):
        f0 = grape._ensemble_fidelity(prev.waveform, cur.distribution,
                                      grape._Workspace(prev.waveform, cur.distribution))
        assert cur.report.fidelity_history[0] == pytest.approx(f0, abs=1e-12)
        assert cur.avg_fidelity == pytest.approx(cur.report.fidelity_history[-1])


def test_ladder_deterministic():
    cfg = GrapeConfig(max_iterations=40)
    a = run_ladder(quick_start(3), DELTA, cfg=cfg, seed=5, max_rungs=2)
    b = run_ladder(quick_start(3), DELTA, cfg=cfg, seed=5, max_rungs=2)
    for ra, rb in zip(a.rungs, b.rungs):
        assert ra.avg_fidelity == rb.avg_fidelity
        assert np.array_equal(ra.waveform.amplitudes, rb.waveform.amplitudes)
        assert np.array_equal(ra.distribution.offsets, rb.distribution.offsets)


def test_ladder_floor_stop_records_failing_rung():
    # tiny budget cannot hold a 0.99999 floor; the stopping rung stays in
    # the result so the caller can see where the ladder broke
    res = run_ladder(
        quick_start(4), DELTA, stop_fidelity=0.99999,
        cfg=GrapeConfig(max_iterations=3), max_rungs=10,
    )
    assert res.stop_reason is LadderStop.FIDELITY_FLOOR
    assert res.rungs[-1].avg_fidelity < 0.99999
    assert len(res.rungs) <= 11


def test_ladder_validation(monkeypatch):
    # every bad argument fails before any ascent; rung 0 was once ascended
    # before delta and the jitter were checked
    calls = []

    def counting_ascend(*args, **kwargs):
        calls.append(args)
        return grape.grape_ascend(*args, **kwargs)

    monkeypatch.setattr(ladder, "grape_ascend", counting_ascend)
    cfg = GrapeConfig(max_iterations=5)
    with pytest.raises(ValueError, match="stop_fidelity"):
        run_ladder(quick_start(), DELTA, stop_fidelity=1.0, cfg=cfg)
    with pytest.raises(ValueError, match="max_rungs"):
        run_ladder(quick_start(), DELTA, cfg=cfg, max_rungs=-1)
    with pytest.raises(ValueError, match="jitter_fraction"):
        run_ladder(quick_start(), DELTA, cfg=cfg, jitter_fraction=0.6)
    with pytest.raises(ValueError, match="delta"):
        run_ladder(quick_start(), 0.0, cfg=cfg)
    assert calls == []


def _toy_result(fids):
    w = hard_pulse(np.pi, np.pi / 2, A_MAX)
    rungs = tuple(
        LadderRung(i, i * DELTA, EnsembleDistribution.single_point(float(i)), w, f,
                   GrapeReport(w, np.array([f]), np.zeros(0), np.zeros(0, dtype=int), 0,
                               Termination.STALLED))
        for i, f in enumerate(fids)
    )
    return LadderResult(rungs, LadderStop.MAX_RUNGS)


def test_select_best_rung():
    res = _toy_result([1.0, 0.995, 0.97])
    assert select_best_rung(res, 0.99) == 1
    assert select_best_rung(res, 0.999) == 0
    assert select_best_rung(res, 0.96) == 2
    with pytest.raises(ValueError, match="no rung"):
        select_best_rung(_toy_result([0.9, 0.85]), 0.99)


def test_add_rfi_nominal_only_reproduces_plain_ascent():
    res = run_ladder(
        quick_start(6), DELTA, cfg=GrapeConfig(max_iterations=40), seed=7, max_rungs=1
    )
    rung = res.rungs[-1]
    cfg = GrapeConfig(max_iterations=25)
    d, w, fid = add_rfi_and_reoptimize(rung, (1.0,), cfg)
    assert np.array_equal(d.offsets, rung.distribution.offsets)
    assert np.all(d.rf_scales == 1.0)
    direct = grape.grape_ascend(rung.waveform, rung.distribution, cfg)
    assert fid == direct.fidelity_history[-1]
    assert np.array_equal(w.amplitudes, direct.final_waveform.amplitudes)
    assert np.array_equal(w.phases, direct.final_waveform.phases)


def test_add_rfi_widens_ensemble():
    res = run_ladder(
        quick_start(8), DELTA, cfg=GrapeConfig(max_iterations=40), seed=9, max_rungs=1
    )
    rung = res.rungs[-1]
    scales = (0.9, 1.0, 1.1)
    d, w, fid = add_rfi_and_reoptimize(rung, scales, GrapeConfig(max_iterations=30))
    assert d.n_points == rung.distribution.n_points * 3
    assert sorted(set(d.rf_scales.tolist())) == list(scales)
    assert 0.0 <= fid <= 1.0


def test_add_rfi_requires_nominal_scale():
    res = run_ladder(quick_start(), DELTA, cfg=GrapeConfig(max_iterations=10), max_rungs=0)
    with pytest.raises(ValueError, match="1.0"):
        add_rfi_and_reoptimize(res.rungs[0], (0.9, 1.1), GrapeConfig())
