import csv
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from importlib.metadata import entry_points
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

import numpy as np
import pytest

from ocpulse import channel, cli, echo_train, fileio, metrics, propagation
from ocpulse.channel import asymptotic_channel, superoperator_sequence
from ocpulse.cli import main
from ocpulse.echo_train import simulate_train
from ocpulse.propagation import cycle_propagators, pulse_propagators
from ocpulse.pulses import EnsembleDistribution, PulseWaveform, hard_pulse
from ocpulse.su2 import axis_angle

A_MAX = 2 * np.pi * 5000.0
ROOT = Path(__file__).resolve().parents[1]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_info_runs(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "ocpulse" in out and "defaults" in out


def test_info_describes_files(tmp_path, capsys):
    # JSON that is not an object: 3 and null once ended in a TypeError
    # traceback, and ["steps"] was read as a waveform and stopped info
    # before the files after it
    odd = []
    for name, text in (("three", "3"), ("null", "null"), ("list", '["steps"]')):
        odd.append(tmp_path / f"{name}.json")
        odd[-1].write_text(text)
    wf = tmp_path / "p.json"
    fileio.save_waveform_json(hard_pulse(np.pi, np.pi / 2, A_MAX), wf)
    bogus = tmp_path / "missing.json"
    assert main(["info", *map(str, odd), str(wf), str(bogus)]) == 0
    captured = capsys.readouterr()
    for path in odd:
        assert f"{path}: unrecognized JSON payload" in captured.out
    assert "waveform, 1 steps" in captured.out
    assert "unreadable" in captured.err


@pytest.mark.parametrize("record, problem", [
    ({"steps": 1}, "malformed waveform record: 'dt_s'"),
    ({"points": [{"offset_hz": 0.0}]}, "malformed distribution record: 'weight'"),
])
def test_info_reports_a_malformed_record_and_goes_on(tmp_path, capsys, record, problem):
    # a malformed record once stopped info with exit 2 before the next file
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(record))
    good = tmp_path / "good.json"
    fileio.save_waveform_json(hard_pulse(np.pi, np.pi / 2, A_MAX), good)
    assert main(["info", str(bad), str(good)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"{bad}: malformed ({problem})"]
    assert f"{good}: waveform, 1 steps" in captured.out
    assert str(bad) not in captured.out


@pytest.mark.parametrize("kind, field, value, name", [
    ("waveform", "dt_s", "1e-5", "a string"),
    ("distribution", "offset_hz", "100", "a string"),
    ("distribution", "offset_hz", True, "a boolean"),
    ("distribution", "weight", None, "null"),
])
def test_a_non_numeric_field_exits_2_with_one_error_line(tmp_path, capsys, kind, field, value, name):
    # a "1e-5" s step and "100" Hz were once read as numbers, and true as 1 Hz
    waveform = fileio.waveform_to_dict(hard_pulse(np.pi, np.pi / 2, A_MAX))
    point = {"offset_hz": 0.0, "rf_scale": 1.0, "weight": 1.0}
    (waveform if kind == "waveform" else point)[field] = value
    wf, dist = tmp_path / "p.json", tmp_path / "d.json"
    wf.write_text(json.dumps(waveform))
    dist.write_text(json.dumps({"points": [point]}))
    out = tmp_path / "out"
    assert main(["analyze-channel", "--pulse", str(wf), "--distribution", str(dist),
                 "--cycles", "5", "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: malformed {kind} record: {field} must be a number, got {name}"]
    assert list(out.glob("*")) == []


def test_simulate_rejects_an_infinite_guard(tmp_path, capsys):
    # an Infinity guard was once accepted and gave a NaN train.csv
    record = fileio.waveform_to_dict(hard_pulse(np.pi, np.pi / 2, A_MAX))
    record["pre_delay_s"] = float("inf")
    wf = tmp_path / "inf_guard.json"
    wf.write_text(json.dumps(record))
    assert "Infinity" in wf.read_text()
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--pulse", str(wf), "--train", "--echoes", "4",
                     "-o", str(out)]) == 2
    assert caught == []
    assert capsys.readouterr().err.splitlines() == [
        "error: guard delays must be finite and nonnegative"
    ]
    assert list(out.glob("*")) == []


def test_console_script_installed():
    # The wrapper pip generates for [project.scripts] imports module:function
    # and runs sys.exit(function()) with argv[0] set to the script name.
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, func = project["scripts"]["ocpulse"].split(":")
    expected = f"ocpulse {project['version']}"
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv = ['ocpulse', '--version']; sys.exit({func}())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected

    # Once the distribution is installed, the generated script must be on PATH.
    if entry_points(group="console_scripts", name="ocpulse"):
        exe = shutil.which("ocpulse")
        assert exe is not None
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


OPT_ARGS = [
    "optimize", "--on-resonance", "--duration-ms", "0.2", "--steps", "20",
    "--max-iter", "500", "--target-fidelity", "0.99995", "--seed", "0",
]


def test_optimize_on_resonance(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(OPT_ARGS + ["-o", str(out)]) == 0
    for name in ("waveform.json", "waveform.csv", "distribution.json",
                 "trace.jsonl", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "optimize"
    assert manifest["params"]["final_fidelity"] >= 0.9999
    assert manifest["params"]["termination"] == "target_reached"
    assert "waveform.json" in manifest["outputs"]
    p = fileio.load_waveform_json(out / "waveform.json")
    assert p.n_steps == 20
    assert np.all(p.amplitudes <= p.a_max * (1 + 1e-12))
    assert "fidelity" in capsys.readouterr().out
    # trace rows are one starting entry plus one per accepted iteration
    lines = (out / "trace.jsonl").read_text().strip().splitlines()
    trace = [json.loads(x) for x in lines]
    assert trace[0]["iter"] == 0 and trace[0]["step_size"] is None
    fids = [t["fidelity"] for t in trace]
    assert fids == sorted(fids)
    # with the line-search probes of each accepted iteration
    assert trace[0]["probes"] is None
    assert all(type(t["probes"]) is int and t["probes"] >= 1 for t in trace[1:])


def test_optimize_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(OPT_ARGS + ["-o", str(a)]) == 0
    assert main(OPT_ARGS + ["-o", str(b)]) == 0
    assert (a / "waveform.json").read_bytes() == (b / "waveform.json").read_bytes()


def test_optimize_ladder_smoke(tmp_path):
    out = tmp_path / "ladder"
    rc = main([
        "optimize", "--ladder", "-o", str(out), "--duration-ms", "0.2",
        "--steps", "10", "--max-iter", "40", "--max-rungs", "1", "--seed", "1",
    ])
    assert rc == 0
    header, rows = read_csv(out / "ladder.csv")
    assert header == ["rung", "half_bandwidth_hz", "n_points", "avg_fidelity"]
    assert len(rows) == 2  # rung 0 plus one widened rung
    assert (out / "rungs" / "rung_000.json").exists()
    assert (out / "rungs" / "rung_001.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["selected_rung"] in (0, 1)
    assert (out / "waveform.json").exists()


def test_optimize_init_takes_its_timing_from_the_waveform(tmp_path):
    # the comb spacing and the manifest once came from the --duration-ms,
    # --steps, --amax-khz and --guard-us defaults: rung 1 of this 0.1 ms
    # pulse sat at +-258 Hz instead of +-2500 Hz
    init = tmp_path / "init20.json"
    rng = np.random.default_rng(4)
    fileio.save_waveform_json(
        PulseWaveform(5e-6, rng.uniform(0.3, 0.8, 20) * 2 * np.pi * 8e3,
                      rng.uniform(0, 2 * np.pi, 20), 2 * np.pi * 8e3,
                      pre_delay=2e-6, post_delay=2e-6),
        init,
    )
    out = tmp_path / "run"
    assert main(["optimize", "--ladder", "--init", str(init), "--max-iter", "2",
                 "--max-rungs", "1", "--stop-fidelity", "0.01", "-o", str(out)]) == 0
    params = json.loads((out / "manifest.json").read_text())["params"]
    assert params["steps"] == 20
    assert params["duration_ms"] == pytest.approx(0.1, rel=1e-12)
    assert params["amax_khz"] == pytest.approx(8.0, rel=1e-12)
    assert params["guard_us"] == pytest.approx(2.0, rel=1e-12)
    assert params["delta_hz"] == pytest.approx(2500.0, rel=1e-12)
    _, rows = read_csv(out / "ladder.csv")
    assert [row[0] for row in rows] == ["0", "1"]
    assert float(rows[1][1]) == pytest.approx(2500.0, rel=1e-12)


def test_simulate_ideal_train_is_flat(tmp_path):
    out = tmp_path / "train"
    rc = main([
        "simulate", "--pulse", "ideal", "--train", "-o", str(out),
        "--echoes", "5", "--halfbw-khz", "2", "--delta-hz", "1000",
    ])
    assert rc == 0
    _, rows = read_csv(out / "train_avg.csv")
    assert len(rows) == 5
    assert all(float(v) == pytest.approx(1.0, abs=1e-9) for _, v in rows)
    header, rows = read_csv(out / "train.csv")
    assert header == ["echo", "offset_hz", "rf_scale", "mx", "my", "mz"]
    # 5 offsets x default 5 RF scales per echo
    assert len(rows) == 5 * 25


def test_simulate_train_csv_bytes_match_the_row_loop(tmp_path):
    # the row-tuple loop that wrote train.csv before the column writer,
    # rebuilt here from simulate_train on the same inputs
    pulse = tmp_path / "oct_rfi.json"
    fileio.save_waveform_json(fileio.reference_waveform("oct_rfi"), pulse)
    rng = np.random.default_rng(4)
    comb = 2 * np.pi * np.arange(-3, 4) * 250.0 * (1.0 + rng.uniform(-0.05, 0.05, 7))
    d = EnsembleDistribution.product(comb, [0.9, 1.1])
    dist = tmp_path / "comb.json"
    fileio.save_distribution_json(d, dist)
    out = tmp_path / "train"
    assert main(["simulate", "--pulse", str(pulse), "--train", "--echoes", "6",
                 "--distribution", str(dist), "--tau-ms", "1.0", "-o", str(out)]) == 0

    d = fileio.load_distribution_json(dist)
    res = simulate_train(fileio.load_waveform_json(pulse), 1.0e-3, d, input_axis="y", n_echoes=6)
    rows = []
    for k in range(1, res.n_echoes + 1):
        for pidx in range(d.n_points):
            mx, my, mz = res.bloch[k - 1, pidx]
            rows.append((k, d.offsets[pidx] / (2 * np.pi), d.rf_scales[pidx],
                         float(mx), float(my), float(mz)))
    avg_rows = [(k + 1, float(v)) for k, v in enumerate(res.ensemble_average)]
    for name, header, table in (
        ("train.csv", ["echo", "offset_hz", "rf_scale", "mx", "my", "mz"], rows),
        ("train_avg.csv", ["echo", "avg"], avg_rows),
    ):
        with open(tmp_path / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in table:
                w.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_simulate_sweep_csv_layout(tmp_path):
    # offset-major, then RF scale, then the 1-based echo index
    out = tmp_path / "sweep"
    assert main(["simulate", "--pulse", "ideal", "--sweep", "-o", str(out),
                 "--offsets-khz=0:1:1", "--rf", "1.0", "--echo-indices", "1,3"]) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert [r[1:3] for r in rows] == [["1.0", "1"], ["1.0", "3"]] * 2
    assert [float(r[0]) for r in rows] == pytest.approx([0.0, 0.0, 1000.0, 1000.0])
    assert [float(r[3]) for r in rows] == pytest.approx([1.0] * 4)


def test_simulate_sweep_with_negative_range(tmp_path):
    out = tmp_path / "sweep"
    rc = main([
        "simulate", "--pulse", "hard", "--sweep", "-o", str(out),
        "--offsets-khz=-2:2:1", "--rf", "1.0", "--echo-indices", "1,2,5",
    ])
    assert rc == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["offset_hz", "rf_scale", "echo", "my"]
    assert len(rows) == 5 * 1 * 3
    offsets = sorted({float(r[0]) for r in rows})
    assert offsets == pytest.approx([-2000.0, -1000.0, 0.0, 1000.0, 2000.0], abs=1e-6)


def test_simulate_trajectory(tmp_path):
    out = tmp_path / "traj"
    rc = main([
        "simulate", "--pulse", "hard", "--trajectory", "-o", str(out),
        "--offset-khz", "0", "--axis", "z",
    ])
    assert rc == 0
    _, rows = read_csv(out / "trajectory.csv")
    last = [float(x) for x in rows[-1][1:]]
    assert last == pytest.approx([0.0, 0.0, -1.0], abs=1e-9)  # hard pi inverts z


def test_simulate_trajectory_rejects_ideal(tmp_path, capsys):
    rc = main(["simulate", "--pulse", "ideal", "--trajectory", "-o", str(tmp_path)])
    assert rc == 2
    assert "shaped pulse" in capsys.readouterr().err


def test_simulate_missing_waveform(tmp_path, capsys):
    rc = main([
        "simulate", "--pulse", str(tmp_path / "nope.json"), "--train",
        "-o", str(tmp_path), "--echoes", "2",
    ])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_analyze_ideal_pulse_never_decays(tmp_path, capsys):
    out = tmp_path / "chan"
    rc = main([
        "analyze-channel", "--pulse", "ideal", "-o", str(out),
        "--cycles", "10", "--halfbw-khz", "4", "--delta-hz", "500",
        "--rf", "1.0", "--asymptotic",
    ])
    assert rc == 0
    payload = json.loads((out / "channel.json").read_text())
    assert payload["m_infinity"] == pytest.approx(1.0, abs=1e-9)
    assert payload["t2_pulse_s"] is None  # perfect pulse: no decay to fit
    assert payload["fit_overlap"] == pytest.approx(1.0, abs=1e-9)
    assert "asymptotic" in payload
    assert "inf" in capsys.readouterr().out


def test_analyze_ideal_pulse_asymptote_is_the_identity(tmp_path):
    # every ideal cycle is -I, so the n -> infinity channel keeps the
    # identity and the 10-cycle channel is already there
    out = tmp_path / "chan"
    rc = main([
        "analyze-channel", "--pulse", "ideal", "-o", str(out),
        "--cycles", "10", "--halfbw-khz", "4", "--delta-hz", "500", "--asymptotic",
    ])
    assert rc == 0
    asym = json.loads((out / "channel.json").read_text())["asymptotic"]
    assert np.allclose(asym["entries"], np.eye(4), rtol=0.0, atol=1e-12)
    assert asym["max_entry_gap_at_n"] <= 1e-12


def test_analyze_writes_the_offdiagonal_residual(tmp_path):
    d = EnsembleDistribution.product(2 * np.pi * np.array([-2.5e3, 300.0, 4e3]), [0.9, 1.05])
    fileio.save_distribution_json(d, tmp_path / "d.json")
    out = tmp_path / "chan"
    rc = main([
        "analyze-channel", "--pulse", "hard", "-o", str(out), "--cycles", "5",
        "--distribution", str(tmp_path / "d.json"),
    ])
    assert rc == 0
    payload = json.loads((out / "channel.json").read_text())
    residual = np.array(payload["offdiag_residual"])
    assert residual.shape == (5,) and len(payload["probs"]) == 5
    assert np.all(np.isfinite(residual)) and np.all(residual >= 0.0)
    R = superoperator_sequence(pulse_propagators(hard_pulse(np.pi, np.pi / 2, A_MAX), d), 1e-3, d, 5)[2]
    assert residual[2] == pytest.approx(np.linalg.norm(R - np.diag(np.diag(R))), rel=0.0, abs=1e-14)
    assert residual[2] > 0.01  # the hard pulse's cycles are not Pauli-diagonal
    # the residual splits into a coherent (antisymmetric) and a symmetric
    # part, orthogonal to each other
    coherent = np.array(payload["coherent_residual"])
    symmetric = np.array(payload["symmetric_residual"])
    assert coherent.shape == symmetric.shape == (5,)
    assert np.all(np.isfinite(coherent)) and np.all(np.isfinite(symmetric))
    assert np.max(np.abs(np.hypot(coherent, symmetric) - residual)) <= 1e-14
    assert coherent[2] == pytest.approx(np.linalg.norm(0.5 * (R - R.T)), rel=0.0, abs=1e-14)
    error = payload["cycle_unitarity_error"]
    assert np.isfinite(error) and 0.0 <= error < 1e-12


@pytest.mark.parametrize("argv, calls", [
    # the n-cycle stack and the n -> infinity limit share one pulse product
    # and one axis-angle decomposition
    (["analyze-channel", "--pulse", "{dir}/hard.json", "--cycles", "5",
      "--distribution", "{dir}/d.json", "--asymptotic"], ["pulse_propagators", "axis_angle"]),
    # the criteria and the stack share each pulse's product; the criteria
    # and the cycle each decompose it
    (["compare", "{dir}/a.json", "{dir}/b.json", "--include-hard", "--sweep-khz=-2:2:1",
      "--rf", "0.9,1.05", "--cycles", "5"], ["pulse_propagators", "axis_angle", "axis_angle"] * 3),
    (["simulate", "--pulse", "{dir}/hard.json", "--train", "--echoes", "4",
      "--distribution", "{dir}/d.json"], ["pulse_propagators", "axis_angle"]),
    (["simulate", "--pulse", "{dir}/hard.json", "--sweep", "--offsets-khz=-2:2:1",
      "--echo-indices", "1,2"], ["pulse_propagators", "axis_angle"]),
], ids=["analyze-channel-asymptotic", "compare", "simulate-train", "simulate-sweep"])
def test_command_propagates_each_pulse_once(tmp_path, monkeypatch, argv, calls):
    d = EnsembleDistribution.product(2 * np.pi * np.array([-2.5e3, 300.0, 4e3]), [0.9, 1.05])
    fileio.save_distribution_json(d, tmp_path / "d.json")
    for name in ("hard", "a", "b"):
        fileio.save_waveform_json(hard_pulse(np.pi, np.pi / 2, A_MAX), tmp_path / f"{name}.json")
    seen = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # wherever the package looks them up
    for module in (propagation, echo_train, metrics):
        counted(module, "pulse_propagators")
    for module in (cli, channel, echo_train, metrics):
        counted(module, "axis_angle")
    argv = [a.format(dir=tmp_path) for a in argv] + ["-o", str(tmp_path / "out")]
    assert main(argv) == 0
    assert seen == calls


def test_analyze_asymptotic_matches_the_library_to_the_bit(tmp_path):
    d = EnsembleDistribution.product(2 * np.pi * np.array([-2.5e3, 300.0, 4e3]), [0.9, 1.05])
    fileio.save_distribution_json(d, tmp_path / "d.json")
    fileio.save_waveform_json(hard_pulse(np.pi, np.pi / 2, A_MAX), tmp_path / "hard.json")
    out = tmp_path / "chan"
    rc = main([
        "analyze-channel", "--pulse", str(tmp_path / "hard.json"), "-o", str(out),
        "--cycles", "5", "--distribution", str(tmp_path / "d.json"), "--asymptotic",
    ])
    assert rc == 0
    asym = json.loads((out / "channel.json").read_text())["asymptotic"]
    # the inputs as the command read them, to the bit
    d = fileio.load_distribution_json(tmp_path / "d.json")
    U = pulse_propagators(fileio.load_waveform_json(tmp_path / "hard.json"), d)
    limit = asymptotic_channel(*axis_angle(cycle_propagators(U, 1e-3, d)), d.weights)
    assert asym["entries"] == limit.tolist()
    R = superoperator_sequence(U, 1e-3, d, 5)
    assert asym["max_entry_gap_at_n"] == float(np.max(np.abs(R[-1] - limit)))


def test_analyze_needs_three_cycles(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze-channel", "--pulse", "ideal", "-o", str(tmp_path), "--cycles", "2"])
    assert exc.value.code == 2


def test_compare_symmetrized_90_equals_hard_180(tmp_path):
    # same constant x-phase Hamiltonian in one vs two steps: criteria rows
    # must agree to float precision at every grid point
    h180 = tmp_path / "h180.json"
    sym90 = tmp_path / "sym90.json"
    fileio.save_waveform_json(hard_pulse(np.pi, 0.0, A_MAX), h180)
    # the hard 90 followed by its time-reversed, phase-reversed copy
    dt90 = hard_pulse(np.pi / 2, 0.0, A_MAX).dt
    fileio.save_waveform_json(PulseWaveform(dt90, np.full(2, A_MAX), np.zeros(2), A_MAX), sym90)
    out = tmp_path / "cmp"
    rc = main([
        "compare", str(h180), str(sym90), "-o", str(out),
        "--sweep-khz=-2:2:1", "--rf", "0.9,1.0,1.1", "--cycles", "5",
    ])
    assert rc == 0
    _, rows_a = read_csv(out / "criteria_h180.csv")
    _, rows_b = read_csv(out / "criteria_sym90.csv")
    assert len(rows_a) == len(rows_b) == 5 * 3
    a = np.array([[float(x) for x in r] for r in rows_a])
    b = np.array([[float(x) for x in r] for r in rows_b])
    assert np.allclose(a, b, atol=1e-9)
    assert (out / "table.csv").exists() and (out / "compare.csv").exists()


def test_compare_partial_failure_continues(tmp_path, capsys):
    good = tmp_path / "good.json"
    fileio.save_waveform_json(hard_pulse(np.pi, np.pi / 2, A_MAX), good)
    out = tmp_path / "cmp"
    rc = main([
        "compare", str(good), str(tmp_path / "absent.json"), "-o", str(out),
        "--sweep-khz", "0:1:1", "--rf", "1.0", "--cycles", "5",
    ])
    assert rc == 1  # failure reported, good input still processed
    assert (out / "criteria_good.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["failures"] == [str(tmp_path / "absent.json")]
    assert "absent.json" in capsys.readouterr().err


def test_compare_with_nothing_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "-o", str(tmp_path)])
    assert exc.value.code == 2


def test_compare_needs_three_cycles(tmp_path, capsys):
    # the fit needs three samples; refuse before any criteria file is written
    out = tmp_path / "cmp"
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--include-hard", "-o", str(out), "--sweep-khz", "0:1:1",
              "--rf", "1.0", "--cycles", "2"])
    assert exc.value.code == 2
    assert "need --cycles >= 3" in capsys.readouterr().err
    assert not list(tmp_path.rglob("criteria_*.csv"))
    assert not out.exists()


def test_outdir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("OCPULSE_OUTDIR", str(tmp_path / "envout"))
    rc = main(["simulate", "--pulse", "hard", "--trajectory"])
    assert rc == 0
    assert (tmp_path / "envout" / "trajectory.csv").exists()


def test_missing_outdir_errors(monkeypatch):
    monkeypatch.delenv("OCPULSE_OUTDIR", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--pulse", "hard", "--trajectory"])
    assert exc.value.code == 2


def test_bad_distribution_file_is_rejected(tmp_path, capsys):
    # json writes nan as NaN, which json.loads reads back as a float nan
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": [
        {"offset_hz": 0.0, "rf_scale": 1.0, "weight": 0.5},
        {"offset_hz": float("nan"), "rf_scale": 1.0, "weight": 0.5},
    ]}))
    rc = main(["analyze-channel", "--pulse", "hard", "--distribution", str(bad),
               "--cycles", "3", "-o", str(tmp_path / "out")])
    assert rc == 2
    assert "error: offsets must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["analyze-channel", "--pulse", "hard", "--halfbw-khz", "inf"],
     "half_bandwidth must be nonnegative and finite"),
    (["analyze-channel", "--pulse", "hard", "--delta-hz", "nan"],
     "delta must be positive and finite"),
    (["simulate", "--pulse", "hard", "--sweep", "--rf", "nan"],
     "rf_scales must be positive and finite"),
    (["simulate", "--pulse", "hard", "--sweep", "--rf=-1"],
     "rf_scales must be positive and finite"),
    (["simulate", "--pulse", "hard", "--trajectory", "--rf-scale", "nan"],
     "rf_scales must be positive and finite"),
    # sizes past MAX_RANGE_POINTS, which would otherwise try to allocate
    # gigabytes before failing
    (["analyze-channel", "--pulse", "hard", "--halfbw-khz", "1e9", "--cycles", "3"],
     "offset comb of 8e+09 points, more than the cap of 100001"),
    (["analyze-channel", "--pulse", "hard", "--cycles", "1000000000"],
     "--cycles 1000000000 is more than the cap of 100001"),
    (["compare", "--include-hard", "--cycles", "100002"],
     "--cycles 100002 is more than the cap of 100001"),
    (["simulate", "--pulse", "hard", "--train", "--echoes", "100000000"],
     "--echoes 100000000 is more than the cap of 100001"),
    # the hard pulse's own inputs; these once reported a dt of 0 or nan, or
    # printed a numpy RuntimeWarning first
    (["analyze-channel", "--pulse", "hard", "--amax-khz", "inf"],
     "a_max must be positive and finite, got inf"),
    (["analyze-channel", "--pulse", "hard", "--amax-khz", "nan"],
     "a_max must be positive and finite, got nan"),
    (["analyze-channel", "--pulse", "hard", "--hard-nutation-deg", "nan"],
     "nutation must be positive and finite, got nan"),
    (["analyze-channel", "--pulse", "hard", "--hard-phase-deg", "inf"],
     "phase must be finite, got inf"),
    # empty lists: the first once ended in an uncaught ZeroDivisionError,
    # the sweeps in a header-only sweep.csv and a numpy reduction error
    (["compare", "--include-hard", "--rf", ","],
     "distribution must contain at least one point"),
    (["simulate", "--pulse", "hard", "--sweep", "--rf", ","],
     "distribution must contain at least one point"),
    (["simulate", "--pulse", "hard", "--sweep", "--echo-indices", ","],
     "echo_indices must not be empty"),
    # a nan stall threshold was once accepted, and never stopped a stall
    (["optimize", "--on-resonance", "--stall", "nan"],
     "improvement_threshold must be positive and finite, got nan"),
    # a bad --rfi list was once found only after the whole ladder had run
    # and written its rungs, and an empty one was ignored
    (["optimize", "--ladder", "--rfi", "0.9,1.1", "--steps", "10", "--max-iter", "5",
      "--max-rungs", "2"],
     "rf_scales must contain the nominal scale 1.0"),
    (["optimize", "--ladder", "--rfi", ",", "--steps", "10", "--max-iter", "5"],
     "rf_scales must contain the nominal scale 1.0"),
    (["optimize", "--ladder", "--rfi", "1.0,1.0", "--steps", "10", "--max-iter", "5",
      "--max-rungs", "2"],
     "rf_scales must not repeat a scale"),
    # --rfi without --ladder was once silently ignored
    (["optimize", "--on-resonance", "--rfi", "0.9,1.0"],
     "--rfi re-optimizes the selected ladder rung: it needs --ladder"),
    # a nan floor once selected the best rung and wrote NaN into manifest.json
    (["optimize", "--ladder", "--select-floor", "nan", "--steps", "10", "--max-iter", "5",
      "--max-rungs", "2"],
     "--select-floor must be finite, got nan"),
    # a non-finite guard was once accepted: nan ended in "numerical failure"
    (["optimize", "--on-resonance", "--guard-us", "nan"],
     "guard delays must be finite and nonnegative"),
    (["optimize", "--on-resonance", "--guard-us", "inf"],
     "guard delays must be finite and nonnegative"),
    # a repeated RF scale once wrote every sweep row twice
    (["simulate", "--pulse", "hard", "--sweep", "--rf", "1,1"],
     "duplicate (offset, rf_scale) points"),
])
def test_nonfinite_or_negative_input_fails_at_the_boundary(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "-o", str(out)]) == 2
    assert caught == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
    assert list(out.glob("*")) == []


MULTISTART_ALONE = "--multistart draws its own starts: it cannot be used with --ladder or --init"


@pytest.mark.parametrize("argv, message", [
    # each of these once ended in an uncaught ZeroDivisionError
    (["--on-resonance", "--steps", "0"], "--steps must be >= 1, got 0"),
    (["--on-resonance", "--duration-ms", "0"], "--duration-ms must be positive and finite"),
    # each of these was once silently replaced by the default
    (["--on-resonance", "--max-iter", "0"], "--max-iter must be >= 1, got 0"),
    (["--on-resonance", "--multistart", "0"], "--multistart must be >= 1, got 0"),
    # each of these was once silently ignored
    (["--ladder", "--multistart", "2"], MULTISTART_ALONE),
    (["--on-resonance", "--multistart", "2", "--init", "start.json"], MULTISTART_ALONE),
    # this one once ran the starts serially without a word
    (["--on-resonance", "--multistart", "2", "--threads", "-5"], "--threads must be >= 1, got -5"),
    # each of these was once silently replaced by the --init waveform's own
    (["--ladder", "--init", "start.json", "--steps", "50", "--duration-ms", "3",
      "--amax-khz", "9", "--guard-us", "1"],
     "--steps, --duration-ms, --amax-khz, --guard-us cannot be used with --init"),
    (["--on-resonance", "--init", "start.json", "--amax-khz", "5"],
     "--amax-khz cannot be used with --init: the warm-start waveform sets"),
    (["--ladder", "--init", "start.json", "--guard-us", "6", "--steps", "0"],
     "--steps, --guard-us cannot be used with --init"),
])
def test_optimize_rejects_bad_sizes_at_the_boundary(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(["optimize", *argv, "-o", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
    assert not out.exists()


def test_bad_range_argument(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--include-hard", "-o", str(tmp_path), "--sweep-khz", "2:1:1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("spec, message", [
    ("0:inf:1", "values must be finite"),
    ("nan:1:1", "values must be finite"),
    ("0:1e7:1e-3", "more than the cap of 100001"),
    ("-1e308:1e308:1", "more than the cap of 100001"),
])
def test_unbounded_range_is_rejected_before_allocation(tmp_path, capsys, spec, message):
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--pulse", "hard", "--sweep", "-o", str(tmp_path),
                  f"--offsets-khz={spec}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert peak < 16 * 2**20
    assert not (tmp_path / "sweep.csv").exists()
