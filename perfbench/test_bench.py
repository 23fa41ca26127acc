"""Tests of the benchmark itself, at reduced sizes.

    python -m pytest perfbench

Each workload must run and pass its checks, and each check must reject a
deliberately corrupted output.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def _run_workload(name, workdir, tracer=None):
    setup, check = workloads.WORKLOADS[name]
    run = workloads.Run(root=ROOT, workdir=workdir, seed=7, sizes=workloads.REDUCED)
    cli, fileio = bench.import_program(SRC)
    rounds = bench.Rounds(cli.main, setup(run, fileio))
    if tracer is not None:
        tracer.install()
    try:
        rounds.run(wrap=tracer.span if tracer else None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return run, check, rounds


def _fixture(name):
    @pytest.fixture(scope="module", name=name)
    def done(tmp_path_factory):
        return _run_workload(name, tmp_path_factory.mktemp(name))

    return done


design, channel, reports = (_fixture(name) for name in ("design", "channel", "reports"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, request):
    run, check, rounds = request.getfixturevalue(name)
    errors, infidelity = check(run)
    assert rounds.failed == 0 and rounds.attempted == len(rounds.commands)
    assert errors == []
    assert 0.0 < infidelity < 1.0


@contextlib.contextmanager
def corrupted(path: Path, edit):
    original = path.read_text()
    path.write_text(edit(original))
    try:
        yield
    finally:
        path.write_text(original)


def test_channel_check_rejects_a_probability_moved_by_1e_6(channel):
    run, check, _ = channel

    def edit(text):
        data = json.loads(text)
        data["probs"][5][2] += 1e-6
        return json.dumps(data)

    with corrupted(run.workdir / "channel_oct_rfi" / "channel.json", edit):
        errors, _ = check(run)
    assert any("per-cycle probabilities differ" in e for e in errors)


def test_reports_check_rejects_a_train_component_moved_by_1e_6(reports):
    run, check, _ = reports

    def edit(text):
        lines = text.splitlines()
        cells = lines[7].split(",")
        cells[4] = repr(float(cells[4]) + 1e-6)
        lines[7] = ",".join(cells)
        return "\n".join(lines) + "\n"

    with corrupted(run.workdir / "train" / "train.csv", edit):
        errors, _ = check(run)
    assert any("Bloch vectors differ" in e for e in errors)


def test_reports_check_rejects_a_sweep_value_moved_by_1e_6(reports):
    run, check, _ = reports

    def edit(text):
        lines = text.splitlines()
        cells = lines[3].split(",")
        cells[3] = repr(float(cells[3]) + 1e-6)
        lines[3] = ",".join(cells)
        return "\n".join(lines) + "\n"

    with corrupted(run.workdir / "sweep" / "sweep.csv", edit):
        errors, _ = check(run)
    assert any("sweep.csv" in e for e in errors)


def test_design_check_rejects_an_amplitude_over_the_cap(design):
    run, check, _ = design

    def edit(text):
        data = json.loads(text)
        data["steps"][3]["amp_rad_s"] = data["a_max_rad_s"] * 1.001
        return json.dumps(data)

    with corrupted(run.workdir / "design_01" / "waveform.json", edit):
        errors, _ = check(run)
    assert any("amplitude outside" in e for e in errors)


def test_design_check_rejects_a_claimed_fidelity_moved_by_1e_6(design):
    run, check, _ = design

    def edit(text):
        data = json.loads(text)
        data["params"]["final_fidelity"] += 1e-6
        return json.dumps(data)

    with corrupted(run.workdir / "design_00" / "manifest.json", edit):
        errors, _ = check(run)
    assert any("final_fidelity" in e for e in errors)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    tracer = tracing.Tracer()
    run, check, rounds = _run_workload(name, tmp_path, tracer)
    assert check(run)[0] == [] and rounds.failed == 0
    values = tracer.layer_metrics()
    assert set(values) | {"trace.overhead_s"} == {m for m, _, _ in tracing.PER_LAYER}
    assert tracer.absent == []
    # the layers each workload is meant to load actually ran
    loaded = {"design": ["grape.gradient.calls", "grape.probe.calls", "ladder.rungs",
                         "propagation.step_propagators.calls"],
              "channel": ["channel.cycle_propagators.calls", "channel.transfer.calls",
                          "fileio.load_distribution.s"],
              "reports": ["echo_train.point_echoes", "metrics.criteria_points",
                          "fileio.rows_written"]}[name]
    assert all(values[m] > 0 for m in loaded)


def test_a_removed_lookup_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + [
        ("ocpulse.cli", "no_such_function", "cli.none", None)])
    bench.import_program(SRC)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["ocpulse.cli.no_such_function"]


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "peak_rss_mb", "design_infidelity"}


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reports", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
