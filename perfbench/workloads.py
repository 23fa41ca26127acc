"""The benchmark's workloads: their inputs, their command lists and the checks
of the program's outputs against the independent reference.

Each workload writes its inputs from the seed during set-up, then names the
``ocpulse`` command lines that make up one round.  Its check reads the last
round's output files and returns a list of failures (empty when correct)
plus the workload's pulse infidelity.  No check compares against a stored
copy of earlier output: each value is recomputed by ``reference`` or is a
property the method must have.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

TAU_MS = 1.0
TAU = TAU_MS * 1e-3
RF5 = (0.9, 0.95, 1.0, 1.05, 1.1)
AMAX_KHZ = 5.0
STOP_FIDELITY = 0.9
TOL = 1e-9          # agreement with the reference
TOL_EXACT = 1e-12   # sums and norms that hold to rounding
PACKAGED = ("oct_rfi", "oct_broadband")


@dataclass(frozen=True)
class Sizes:
    design_starts: int = 8
    design_iters: int = 25
    design_rungs: int = 4
    channel_offsets: int = 1601
    channel_scales: int = 21
    channel_cycles: int = 100
    train_halfbw_hz: float = 8000.0
    train_spacing_hz: float = 250.0
    train_echoes: int = 500
    sweep_khz: str = "-10:10:0.1"
    sweep_echoes: tuple = (1, 2, 500)
    compare_khz: str = "-10:10:0.25"
    compare_cycles: int = 100


FULL = Sizes()
REDUCED = Sizes(design_starts=2, design_iters=6, design_rungs=2, channel_offsets=41,
                channel_scales=3, channel_cycles=12, train_halfbw_hz=1000.0,
                train_echoes=20, sweep_khz="-2:2:0.5", sweep_echoes=(1, 2, 30),
                compare_khz="-2:2:0.5", compare_cycles=12)


@dataclass(frozen=True)
class Run:
    """Where one benchmark process keeps its inputs and outputs."""

    root: Path      # checkout root; holds src/ocpulse
    workdir: Path
    seed: int
    sizes: Sizes = FULL

    def packaged(self, name: str) -> Path:
        return self.root / "src" / "ocpulse" / "data" / f"{name}.json"


def product_grid(khz: str):
    """Offsets (rad/s) that ``ocpulse`` builds from a lo:hi:step kHz range, and
    their offset-major product with RF5 as (offsets, grid offsets, grid scales)."""
    lo, hi, step = (float(x) for x in khz.split(":"))
    offsets = (lo + step * np.arange(int(round((hi - lo) / step)) + 1)) * ref.KHZ
    return offsets, np.repeat(offsets, len(RF5)), np.tile(RF5, offsets.size)


def write_distribution(path: Path, offsets_hz: np.ndarray, scales) -> None:
    """Uniform-weight offset x RF-scale product, offset-major, as distribution JSON."""
    n = offsets_hz.size * len(scales)
    pts = [{"offset_hz": o, "rf_scale": s, "weight": 1.0 / n}
           for o in offsets_hz.tolist() for s in scales]
    path.write_text(json.dumps({"points": pts}, indent=1))


def write_packaged_pulses(run: Run, fileio) -> None:
    """Load the packaged pulses through the program and save them as inputs."""
    for name in PACKAGED:
        fileio.save_waveform_json(fileio.reference_waveform(name), run.workdir / f"{name}.json")


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def close(a, b, tol=TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


def mean_infidelity(wf, offsets, scales, weights) -> float:
    return float(1.0 - weights @ ref.fidelity(ref.pulse_rotation(wf, offsets, scales)))


# ------------------------------------------------------------------ design

def write_start(path: Path, slot: int) -> None:
    """Random start for design slot ``slot``: 100 steps of 10 us between 6 us
    guards, amplitudes uniform in [0.3, 0.8] a_max, phases uniform, drawn from
    ``numpy.random.default_rng(slot)``."""
    rng = np.random.default_rng(slot)
    a_max = AMAX_KHZ * ref.KHZ
    amps = rng.uniform(0.3, 0.8, 100) * a_max
    phases = rng.uniform(0.0, ref.TWO_PI, 100)
    path.write_text(json.dumps({
        "dt_s": 1e-5, "pre_delay_s": 6e-6, "post_delay_s": 6e-6, "a_max_rad_s": a_max,
        "steps": [{"amp_rad_s": a, "phase_rad": p} for a, p in zip(amps.tolist(), phases.tolist())],
    }))


def setup_design(run: Run, fileio) -> list:
    s = run.sizes
    seeds = np.random.SeedSequence(run.seed).generate_state(s.design_starts)
    commands = []
    for j, seed in enumerate(seeds.tolist()):
        write_start(run.workdir / f"start_{j:02d}.json", j)
        commands.append([
            "optimize", "--ladder", "--rfi", ",".join(map(str, RF5)), "--seed", str(seed),
            "--init", str(run.workdir / f"start_{j:02d}.json"),
            "--max-iter", str(s.design_iters), "--max-rungs", str(s.design_rungs),
            "--stop-fidelity", str(STOP_FIDELITY), "--select-floor", str(STOP_FIDELITY),
            "--outdir", str(run.workdir / f"design_{j:02d}")])
    return commands


def check_design(run: Run):
    errors, infid = [], []
    a_max = AMAX_KHZ * ref.KHZ
    for j in range(run.sizes.design_starts):
        out = run.workdir / f"design_{j:02d}"
        for path in [out / "waveform.json", *sorted((out / "rungs").glob("*.json"))]:
            wf = ref.read_waveform(path)
            if abs(wf.a_max - a_max) > TOL * a_max or np.any(wf.amps > a_max) or np.any(wf.amps < 0):
                errors.append(f"{path}: amplitude outside [0, a_max]")
        by_rung = {}
        for line in (out / "trace.jsonl").read_text().splitlines():
            row = json.loads(line)
            by_rung.setdefault(row["rung"], []).append(row["fidelity"])
        if any(np.any(np.diff(f) < 0.0) for f in by_rung.values()):
            errors.append(f"{out}/trace.jsonl: fidelity decreases within a rung")
        ladder = [float(r[3]) for r in read_csv(out / "ladder.csv")]
        if not ladder or any(f < STOP_FIDELITY for f in ladder[:-1]):
            errors.append(f"{out}/ladder.csv: a rung before the last is below the stop floor")
        claimed = json.loads((out / "manifest.json").read_text())["params"]["final_fidelity"]
        value = mean_infidelity(ref.read_waveform(out / "waveform.json"),
                                *ref.read_distribution(out / "distribution.json"))
        if abs((1.0 - value) - claimed) > TOL:
            errors.append(f"{out}: final_fidelity {claimed!r} but reference {1.0 - value!r}")
        infid.append(value)
    return errors, float(np.median(infid))


# ------------------------------------------------------------------ channel

def channel_pulses(run: Run):
    """(label, --pulse argument, reference waveform) of the channel workload."""
    return [("hard", "hard", ref.hard_pi_y(AMAX_KHZ * ref.KHZ))] + [
        (name, str(run.workdir / f"{name}.json"), ref.read_waveform(run.packaged(name)))
        for name in PACKAGED]


def setup_channel(run: Run, fileio) -> list:
    s = run.sizes
    write_packaged_pulses(run, fileio)
    rng = np.random.default_rng(run.seed)
    offsets_hz = np.sort(rng.uniform(-8000.0, 8000.0, s.channel_offsets))
    write_distribution(run.workdir / "channel_distribution.json", offsets_hz,
                       np.linspace(0.9, 1.1, s.channel_scales).tolist())
    return [["analyze-channel", "--pulse", arg, "--cycles", str(s.channel_cycles),
             "--asymptotic", "--distribution", str(run.workdir / "channel_distribution.json"),
             "--tau-ms", str(TAU_MS), "--amax-khz", str(AMAX_KHZ), "--seed", str(run.seed),
             "--outdir", str(run.workdir / f"channel_{label}")]
            for label, arg, _ in channel_pulses(run)]


def compare_channel(where: str, ch: ref.Channel, t2, m_inf, overlap) -> list:
    errors = []
    if not close(m_inf, ch.m_infinity):
        errors.append(f"{where}: m_infinity {m_inf!r}, reference {ch.m_infinity!r}")
    if not close(overlap, ch.fit_overlap):
        errors.append(f"{where}: fit_overlap {overlap!r}, reference {ch.fit_overlap!r}")
    t2 = np.inf if t2 in (None, "inf") else float(t2)
    if not (t2 == ch.t2_cycles or abs(t2 - ch.t2_cycles) <= TOL * max(1.0, abs(ch.t2_cycles))):
        errors.append(f"{where}: t2_pulse_cycles {t2!r}, reference {ch.t2_cycles!r}")
    return errors


def check_channel(run: Run):
    errors = []
    dist = ref.read_distribution(run.workdir / "channel_distribution.json")
    for label, _, wf in channel_pulses(run):
        path = run.workdir / f"channel_{label}" / "channel.json"
        got = json.loads(path.read_text())
        ch = ref.channel(wf, TAU, *dist, run.sizes.channel_cycles)
        table = np.array(got["probs"], dtype=float)
        probs = table[:, 1:]
        if not np.array_equal(table[:, 0], np.arange(1, len(ch.probs) + 1)) or not close(probs, ch.probs):
            errors.append(f"{path}: per-cycle probabilities differ from the reference")
        if not close(probs.sum(axis=1), 1.0, TOL_EXACT) or probs.min() < -TOL_EXACT:
            errors.append(f"{path}: probabilities do not sum to 1 or are negative")
        if not close(got["asymptotic"]["entries"], ch.asymptotic):
            errors.append(f"{path}: asymptotic block differs from the weighted r r^T")
        errors += compare_channel(str(path), ch, got["t2_pulse_cycles"], got["m_infinity"],
                                  got["fit_overlap"])
    return errors, mean_infidelity(ref.read_waveform(run.packaged("oct_rfi")), *dist)


# ------------------------------------------------------------------ reports

def setup_reports(run: Run, fileio) -> list:
    s, w = run.sizes, run.workdir
    write_packaged_pulses(run, fileio)
    m = int(round(s.train_halfbw_hz / s.train_spacing_hz))
    rng = np.random.default_rng(run.seed)
    comb = np.arange(-m, m + 1) * s.train_spacing_hz * (1.0 + rng.uniform(-0.05, 0.05, 2 * m + 1))
    write_distribution(w / "train_distribution.json", comb, list(RF5))
    rf = ",".join(map(str, RF5))
    return [
        ["simulate", "--pulse", str(w / "oct_rfi.json"), "--train", "--echoes", str(s.train_echoes),
         "--distribution", str(w / "train_distribution.json"), "--tau-ms", str(TAU_MS),
         "--outdir", str(w / "train")],
        ["simulate", "--pulse", str(w / "oct_broadband.json"), "--sweep", f"--offsets-khz={s.sweep_khz}",
         "--rf", rf, "--echo-indices", ",".join(map(str, s.sweep_echoes)), "--tau-ms", str(TAU_MS),
         "--outdir", str(w / "sweep")],
        ["compare", str(w / "oct_rfi.json"), str(w / "oct_broadband.json"), "--include-hard",
         "--amax-khz", str(AMAX_KHZ), f"--sweep-khz={s.compare_khz}", "--rf", rf,
         "--cycles", str(s.compare_cycles), "--tau-ms", str(TAU_MS), "--outdir", str(w / "compare")],
    ]


def check_train(run: Run, dist) -> list:
    offsets, scales, weights = dist
    w, n = run.workdir / "train", run.sizes.train_echoes
    rows = np.loadtxt(w / "train.csv", delimiter=",", skiprows=1, ndmin=2)
    expect = ref.echo_train(ref.read_waveform(run.packaged("oct_rfi")), TAU, offsets, scales, n)
    P = offsets.size
    if rows.shape != (n * P, 6):
        return [f"{w}/train.csv: {rows.shape[0]} rows, want {n * P}"]
    errors = []
    keys = np.column_stack([np.repeat(np.arange(1, n + 1), P), np.tile(offsets / ref.TWO_PI, n),
                            np.tile(scales, n)])
    if not close(rows[:, :3], keys):
        errors.append(f"{w}/train.csv: echo, offset or RF-scale columns out of order")
    m = rows[:, 3:]
    if not close(m, expect.reshape(-1, 3)):
        errors.append(f"{w}/train.csv: Bloch vectors differ from the reference")
    if not close(np.linalg.norm(m, axis=1), 1.0):
        errors.append(f"{w}/train.csv: a Bloch vector is not of unit norm")
    avg = np.loadtxt(w / "train_avg.csv", delimiter=",", skiprows=1, ndmin=2)
    if not (np.array_equal(avg[:, 0], np.arange(1, n + 1))
            and close(avg[:, 1], m[:, 1].reshape(n, P) @ weights, TOL_EXACT)):
        errors.append(f"{w}/train_avg.csv: not the weighted mean of the train.csv rows")
    return errors


def check_sweep(run: Run) -> list:
    s, path = run.sizes, run.workdir / "sweep" / "sweep.csv"
    _, grid_off, grid_rf = product_grid(s.sweep_khz)
    theta, r = ref.axis_angle(ref.echo_rotation(ref.read_waveform(run.packaged("oct_broadband")),
                                                TAU, grid_off, grid_rf))
    my = ref.powers(theta, r, np.array(s.sweep_echoes))[:, :, 1, 1].T  # (points, echoes)
    k = len(s.sweep_echoes)
    expect = np.column_stack([np.repeat(grid_off / ref.TWO_PI, k), np.repeat(grid_rf, k),
                              np.tile(s.sweep_echoes, grid_off.size), my.reshape(-1)])
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != expect.shape or not close(rows, expect):
        return [f"{path}: rows differ from the reference"]
    return []


def check_compare(run: Run) -> list:
    s, w = run.sizes, run.workdir / "compare"
    offsets, grid_off, grid_rf = product_grid(s.compare_khz)
    weights = np.full(grid_off.size, 1.0 / grid_off.size)
    pulses = [("hard", ref.hard_pi_y(AMAX_KHZ * ref.KHZ))] + [
        (name, ref.read_waveform(run.packaged(name))) for name in PACKAGED]
    table = {row[0]: row[1:] for row in read_csv(w / "table.csv")}
    means = read_csv(w / "compare.csv")
    errors = []
    if sorted(table) != sorted(label for label, _ in pulses):
        return [f"{w}/table.csv: pulses {sorted(table)}"]
    for i, (label, wf) in enumerate(pulses):
        ch = ref.channel(wf, TAU, grid_off, grid_rf, weights, s.compare_cycles)
        t2, m_inf, overlap = table[label]
        errors += compare_channel(f"{w}/table.csv[{label}]", ch, t2, float(m_inf), float(overlap))
        fid = ref.fidelity(ref.pulse_rotation(wf, grid_off, grid_rf))
        crit = np.loadtxt(w / f"criteria_{label}.csv", delimiter=",", skiprows=1, ndmin=2)
        if crit.shape[0] != fid.size or not close(crit[:, 2], fid):
            errors.append(f"{w}/criteria_{label}.csv: fidelity column differs from the reference")
        block = means[i * offsets.size:(i + 1) * offsets.size]
        got = np.array([float(row[2]) for row in block])
        if ([row[0] for row in block] != [label] * offsets.size
                or not close(got, fid.reshape(offsets.size, -1).mean(axis=1))):
            errors.append(f"{w}/compare.csv: mean fidelities of {label} differ from the reference")
    return errors


def check_reports(run: Run):
    dist = ref.read_distribution(run.workdir / "train_distribution.json")
    errors = check_train(run, dist) + check_sweep(run) + check_compare(run)
    _, grid_off, grid_rf = product_grid(run.sizes.compare_khz)
    weights = np.full(grid_off.size, 1.0 / grid_off.size)
    return errors, mean_infidelity(ref.read_waveform(run.packaged("oct_rfi")), grid_off, grid_rf, weights)


WORKLOADS = {
    "design": (setup_design, check_design),
    "channel": (setup_channel, check_channel),
    "reports": (setup_reports, check_reports),
}
