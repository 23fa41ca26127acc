"""The scripts under scripts/ and the README's Python quick start run end
to end on the package's public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ocpulse import fileio
from ocpulse.channel import asymptotic_channel
from ocpulse.propagation import cycle_propagators, pulse_propagators
from ocpulse.pulses import hard_pulse
from ocpulse.su2 import axis_angle

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fingerprint(tmp_path, hard_channel, oct_channel, analysis_distribution, oct_rfi):
    # one run compares with a baseline and saves; the baseline holds the
    # conftest fixtures' probabilities (the same seed-42 ensemble and 100
    # cycles) for hard and oct_rfi, and zeros for oct_broadband, and two
    # numbers: the fixture's hard M_inf and 20 grape iterations
    base, saved = tmp_path / "base.npz", tmp_path / "saved.npz"
    np.savez(base, hard=hard_channel[1].per_cycle_probs,
             oct_rfi=oct_channel[1].per_cycle_probs, oct_broadband=np.zeros((100, 4)),
             **{"hard m_infinity": hard_channel[1].m_infinity, "grape iterations": 20})
    out = run_script("fingerprint.py", "--against", base, "--save", saved)
    values, changes = {}, {}
    for line in out.splitlines():
        name, field, value, *change = line.split()
        values[name, field] = value if field == "controls_sha256" else float(value)
        if change:
            changes[name, field] = float(*change)
    # a number that the baseline holds is followed by its |change|
    assert sorted(changes) == [("grape", "iterations"), ("hard", "m_infinity")]
    assert changes["grape", "iterations"] == 5.0
    assert changes["hard", "m_infinity"] <= 1e-12
    # 3 pulses x 4 channel numbers, 3 probability gaps, 2 oct_rfi lines on
    # the compare grid, 4 optimizer lines and the ladder line
    assert len(values) == 22
    assert 0.0 < values["oct_rfi", "criteria_mean_fidelity"] <= 1.0
    assert -1.0 <= values["oct_rfi", "min_retained_y_echo500"] <= 1.0
    assert 0.0 < values["grape", "final_fidelity"] < 1.0
    assert values["grape", "iterations"] == 25 and values["grape", "probes"] >= 25
    assert re.fullmatch("[0-9a-f]{64}", values["grape", "controls_sha256"])
    assert re.fullmatch("[0-9a-f]{64}", values["ladder", "controls_sha256"])
    assert values["ladder", "controls_sha256"] != values["grape", "controls_sha256"]
    for name, (_, fit) in (("hard", hard_channel), ("oct_rfi", oct_channel)):
        for field in ("m_infinity", "t2_pulse_cycles", "fit_overlap"):
            assert values[name, field] == pytest.approx(getattr(fit, field), abs=1e-12)
        assert values[name, "max_abs_dprobs"] <= 1e-12
    d = analysis_distribution
    for name, w in (("hard", hard_pulse(np.pi, np.pi / 2, 2 * np.pi * 5000)), ("oct_rfi", oct_rfi)):
        U = pulse_propagators(w, d)
        limit = asymptotic_channel(*axis_angle(cycle_propagators(U, 1e-3, d)), d.weights)
        assert values[name, "asymptotic_y"] == pytest.approx(limit[2, 2], rel=0.0, abs=1e-12)
    # against zeros the gap is the largest probability, p_I at n = 1
    assert 0.9 < values["oct_broadband", "max_abs_dprobs"] <= 1.0
    # the save holds the probabilities and every printed number but the
    # gaps, which are themselves differences, and the hashes
    numbers = {f"{name} {field}": value for (name, field), value in values.items()
               if field not in ("max_abs_dprobs", "controls_sha256")}
    with np.load(saved) as got:
        assert sorted(got.files) == sorted(["hard", "oct_broadband", "oct_rfi", *numbers])
        assert np.allclose(got["hard"], hard_channel[1].per_cycle_probs, rtol=0.0, atol=1e-12)
        for key, value in numbers.items():
            assert got[key].item() == value


def test_readme_quick_start(capsys):
    # the first ```python block of the README, run as written: 805 points x
    # 100 cycles
    text = (ROOT / "README.md").read_text()
    code = re.search(r"^```python\n(.*?)^```", text, re.S | re.M).group(1)
    exec(compile(code, "README.md", "exec"), {})
    fidelity, channel_line = capsys.readouterr().out.splitlines()
    assert float(fidelity) == pytest.approx(0.983, abs=5e-4)
    m_inf, t2_cycles, overlap = map(float, channel_line.split())
    assert 0.9 < m_inf < 1.0
    assert 0.0 < t2_cycles < np.inf
    assert 0.99 < overlap <= 1.0


def test_run_full_pipeline(tmp_path):
    run_script("run_full_pipeline.py", "--rung-iterations", 1, "--polish-iterations", 1,
               "--rfi-iterations", 1, "--rfi-rung", 0, "--outdir", tmp_path)
    for name in ("oct_rfi", "oct_broadband"):
        p = fileio.load_waveform_json(tmp_path / f"{name}.json")
        assert p.n_steps == 100
        assert np.all(p.amplitudes <= p.a_max)
