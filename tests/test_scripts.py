"""The scripts under scripts/ and the README's Python quick start run end
to end on the package's public API."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ocpulse import fileio

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


def test_channel_table(tmp_path):
    out = tmp_path / "table.csv"
    run_script("channel_table.py", "--cycles", 3, "--out", out)
    with open(out, newline="") as fh:
        rows = {row["pulse"]: row for row in csv.DictReader(fh)}
    assert list(rows) == ["ideal", "hard", "oct_rfi"]
    assert rows["ideal"]["t2_cycles"] == "inf"
    assert float(rows["ideal"]["m_infinity"]) == 1.0
    for name in ("hard", "oct_rfi"):
        assert 0.0 < float(rows[name]["t2_cycles"]) < np.inf
        assert 0.0 < float(rows[name]["m_infinity"]) <= 1.0
        assert 0.0 < float(rows[name]["fit_overlap"]) <= 1.0
    # the optimized pulse keeps more magnetization than the hard pulse
    assert float(rows["oct_rfi"]["m_infinity"]) > float(rows["hard"]["m_infinity"])


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
