"""The scripts under scripts/ run end to end on the package's public API."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_run_full_pipeline(tmp_path):
    run_script("run_full_pipeline.py", "--rung-iterations", 1, "--polish-iterations", 1,
               "--rfi-iterations", 1, "--rfi-rung", 0, "--outdir", tmp_path)
    for name in ("oct_rfi", "oct_broadband"):
        p = fileio.load_waveform_json(tmp_path / f"{name}.json")
        assert p.n_steps == 100
        assert np.all(p.amplitudes <= p.a_max)
