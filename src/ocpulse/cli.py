"""Command-line front end.

Subcommands: optimize, simulate, analyze-channel, compare, info.  Flags use
bench units (kHz, ms, us, degrees); everything is converted to angular
SI units once, at this boundary.  Each run writes a manifest.json with the
resolved configuration and seed so outputs can be regenerated exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, channel, propagation
from .channel import (
    asymptotic_channel,
    cycle_time,
    fit_pauli_model,
    offdiagonal_parts,
    pauli_probabilities,
    superoperator_sequence,
)
from .echo_train import echo_visibility_sweep, simulate_train
from .fileio import (
    channel_fit_to_dict,
    distribution_from_dict,
    load_distribution_json,
    load_waveform_json,
    save_distribution_json,
    save_waveform_csv,
    save_waveform_json,
    waveform_from_dict,
    write_csv,
)
from .grape import GrapeConfig, grape_ascend, multistart_reports, random_waveform
from .ladder import add_rfi_and_reoptimize, check_rfi_scales, run_ladder, select_best_rung
from .metrics import criteria_sweep
from .propagation import bloch_trajectory, trajectory_times
from .pulses import (
    MAX_RANGE_POINTS,
    EnsembleDistribution,
    hard_pulse,
    uniform_ladder_distribution,
    waveform_template,
)
from .su2 import axis_angle, unitarity_error

KHZ = 2.0 * np.pi * 1e3
OUTDIR_ENV = "OCPULSE_OUTDIR"

DEFAULT_DURATION_MS = 1.0
DEFAULT_STEPS = 100
DEFAULT_AMAX_KHZ = 5.0
DEFAULT_GUARD_US = 6.0
DEFAULT_TAU_MS = 1.0
DEFAULT_RF_LIST = "0.9,0.95,1.0,1.05,1.1"


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad int list {text!r}") from exc


def _range(text: str) -> np.ndarray:
    """lo:hi:step, endpoints included (within rounding), at most MAX_RANGE_POINTS."""
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, want lo:hi:step") from exc
    if not all(np.isfinite([lo, hi, step])):
        raise argparse.ArgumentTypeError(f"bad range {text!r}: values must be finite")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    n = (hi - lo) / step + 1
    if not n <= MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}: {n:.3g} points, more than the cap of {MAX_RANGE_POINTS}"
        )
    return lo + step * np.arange(int(round(n)))


def _check_count(name: str, n: int) -> None:
    """Reject a --cycles or --echoes count above MAX_RANGE_POINTS."""
    if n > MAX_RANGE_POINTS:
        raise ValueError(f"{name} {n} is more than the cap of {MAX_RANGE_POINTS}")


# optimize's grid flags, unset (None) unless given, and the defaults that
# a random start takes for them
_TIMING_DEFAULTS = {"steps": DEFAULT_STEPS, "duration_ms": DEFAULT_DURATION_MS,
                    "amax_khz": DEFAULT_AMAX_KHZ, "guard_us": DEFAULT_GUARD_US}


def _check_optimize_args(args) -> None:
    """Reject optimize sizes that would divide by zero, and flags that the
    chosen mode would otherwise ignore or replace by a default; then fill
    in the defaults of the grid flags that were not given."""
    given = [f"--{name.replace('_', '-')}" for name in _TIMING_DEFAULTS
             if getattr(args, name) is not None]
    if args.init and given:
        raise ValueError(f"{', '.join(given)} cannot be used with --init: the warm-start "
                         "waveform sets the steps, duration, amplitude cap and guards")
    for name, default in _TIMING_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    if not 0.0 < args.duration_ms < np.inf:
        raise ValueError(f"--duration-ms must be positive and finite, got {args.duration_ms}")
    for flag, n in (("--max-iter", args.max_iter), ("--multistart", args.multistart),
                    ("--threads", args.threads)):
        if n is not None and n < 1:
            raise ValueError(f"{flag} must be >= 1, got {n}")
    if args.multistart is not None and (args.mode == "ladder" or args.init):
        raise ValueError("--multistart draws its own starts: it cannot be used with "
                         "--ladder or --init")
    if args.rfi is not None:
        if args.mode != "ladder":
            raise ValueError("--rfi re-optimizes the selected ladder rung: it needs --ladder")
        check_rfi_scales(args.rfi)
    if not np.isfinite(args.select_floor):
        raise ValueError(f"--select-floor must be finite, got {args.select_floor}")


def _outdir(args, parser) -> Path:
    out = args.outdir or os.environ.get(OUTDIR_ENV)
    if not out:
        parser.error(f"no output directory: pass --outdir or set {OUTDIR_ENV}")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(outdir: Path, command: str, params: dict, outputs: list) -> None:
    manifest = {
        "tool": "ocpulse",
        "version": __version__,
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "params": params,
        "outputs": sorted(outputs),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _resolve_pulse(spec: str, amax_khz: float, nutation_deg: float, phase_deg: float):
    """Turn a --pulse argument into a waveform (or None for ideal)."""
    if spec == "ideal":
        return None, "ideal"
    if spec == "hard":
        p = hard_pulse(np.radians(nutation_deg), np.radians(phase_deg), amax_khz * KHZ)
        return p, "hard"
    p = load_waveform_json(spec)
    return p, Path(spec).stem


def _build_distribution(args, parser) -> EnsembleDistribution:
    if getattr(args, "distribution", None):
        return load_distribution_json(args.distribution)
    return uniform_ladder_distribution(
        half_bandwidth=args.halfbw_khz * KHZ,
        delta=args.delta_hz * 2.0 * np.pi,
        rf_scales=args.rf,
        jitter_fraction=args.jitter,
        seed=args.seed,
    )


def _add_distribution_flags(sp, jitter_default=0.0):
    sp.add_argument("--distribution", help="distribution JSON file (overrides grid flags)")
    sp.add_argument("--halfbw-khz", type=float, default=8.0,
                    help="half bandwidth of the built offset comb (kHz)")
    sp.add_argument("--delta-hz", type=float, default=250.0, help="comb spacing (Hz)")
    sp.add_argument("--rf", type=_floats, default=_floats(DEFAULT_RF_LIST),
                    help="comma-separated RF scale factors")
    sp.add_argument("--jitter", type=float, default=jitter_default,
                    help="fractional offset jitter of the built comb")


def _add_pulse_flags(sp):
    sp.add_argument("--pulse", required=True,
                    help="waveform JSON path, or 'ideal' / 'hard'")
    sp.add_argument("--amax-khz", type=float, default=DEFAULT_AMAX_KHZ,
                    help="amplitude cap used for the built-in hard pulse (kHz)")
    sp.add_argument("--hard-nutation-deg", type=float, default=180.0)
    sp.add_argument("--hard-phase-deg", type=float, default=90.0)


def _criteria_columns(U, d):
    """The CRITERIA_HEADER columns of the criteria of pulse pairs U over d."""
    c = criteria_sweep(U)
    return [
        d.offsets / (2.0 * np.pi),
        d.rf_scales,
        c.fidelity,
        np.degrees(c.angle_from_xy_plane),
        np.degrees(c.angle_from_y_axis),
        np.degrees(c.nutation_angle),
    ]


CRITERIA_HEADER = ["offset_hz", "rf_scale", "fidelity", "angle_xy_deg", "angle_y_deg", "nutation_deg"]


# ---------------------------------------------------------------- optimize

def cmd_optimize(args, parser) -> int:
    _check_optimize_args(args)
    default_iter = 300 if args.mode == "ladder" else 2000  # per rung in ladder mode
    cfg = GrapeConfig(
        max_iterations=default_iter if args.max_iter is None else args.max_iter,
        target_fidelity=args.target_fidelity,
        improvement_threshold=args.stall,
    )
    outdir = _outdir(args, parser)
    if args.init:
        # the warm start, not the timing flags, sets the grid, the cap and
        # the guards, so the comb spacing and the manifest come from it
        p0 = load_waveform_json(args.init)
        duration = p0.duration
        pre, post = p0.pre_delay * 1e6, p0.post_delay * 1e6
        timing = {"duration_ms": duration * 1e3, "steps": p0.n_steps,
                  "amax_khz": p0.a_max / KHZ, "guard_us": pre if pre == post else [pre, post]}
    else:
        # the flags as given, which rebuild this grid to the bit
        duration = args.duration_ms * 1e-3
        guard = args.guard_us * 1e-6
        template = waveform_template(args.steps, duration / args.steps, args.amax_khz * KHZ,
                                     pre_delay=guard, post_delay=guard)
        p0 = random_waveform(template, np.random.default_rng(args.seed))
        timing = {"duration_ms": args.duration_ms, "steps": args.steps,
                  "amax_khz": args.amax_khz, "guard_us": args.guard_us}
    delta_hz = args.delta_hz if args.delta_hz is not None else 1.0 / (4.0 * duration)
    delta = delta_hz * 2.0 * np.pi

    outputs = []
    params = {
        **timing,
        "delta_hz": delta_hz,
        "seed": args.seed,
        "threads": args.threads,
        "mode": args.mode,
        "max_iter": args.max_iter,
        "target_fidelity": args.target_fidelity,
        "stall": args.stall,
        "init": args.init,
    }

    def _trace_rows(report, rung=None):
        rows = []
        hist = report.fidelity_history
        steps = report.step_sizes
        probes = report.probes.tolist()
        for i, f in enumerate(hist):
            accepted = 1 <= i <= steps.size
            row = {"iter": i, "fidelity": float(f),
                   "step_size": float(steps[i - 1]) if accepted else None,
                   "probes": probes[i - 1] if accepted else None}
            if rung is not None:
                row = {"rung": rung, **row}
            rows.append(row)
        return rows

    if args.mode == "ladder":
        result = run_ladder(
            p0,
            delta,
            stop_fidelity=args.stop_fidelity,
            cfg=cfg,
            seed=args.seed,
            jitter_fraction=args.jitter,
            max_rungs=args.max_rungs,
        )
        params.update(
            stop_fidelity=args.stop_fidelity,
            jitter=args.jitter,
            max_rungs=args.max_rungs,
            select_floor=args.select_floor,
            rfi=args.rfi,
        )
        rungdir = outdir / "rungs"
        rungdir.mkdir(exist_ok=True)
        trace = []
        for rung in result.rungs:
            name = f"rungs/rung_{rung.index:03d}.json"
            save_waveform_json(rung.waveform, outdir / name)
            outputs.append(name)
            trace.extend(_trace_rows(rung.report, rung=rung.index))
        rungs = result.rungs
        write_csv(outdir / "ladder.csv",
                  ["rung", "half_bandwidth_hz", "n_points", "avg_fidelity"],
                  [r.index for r in rungs],
                  [r.half_bandwidth / (2.0 * np.pi) for r in rungs],
                  [r.distribution.n_points for r in rungs],
                  [r.avg_fidelity for r in rungs])
        outputs.append("ladder.csv")

        try:
            chosen = select_best_rung(result, args.select_floor)
        except ValueError:
            chosen = int(np.argmax([r.avg_fidelity for r in result.rungs]))
            params["select_note"] = f"no rung at floor {args.select_floor}; took best"
        rung = result.rungs[chosen]
        params["selected_rung"] = chosen
        final_wf, final_d, final_fid = rung.waveform, rung.distribution, rung.avg_fidelity

        if args.rfi is not None:
            d2, wf2, fid2 = add_rfi_and_reoptimize(rung, args.rfi, cfg)
            final_wf, final_d, final_fid = wf2, d2, fid2
            params["rfi_fidelity"] = fid2
        params["final_fidelity"] = final_fid
        message = (f"ladder: {len(result.rungs)} rungs ({result.stop_reason.value}), "
                   f"selected rung {chosen}, final avg fidelity {final_fid:.6f}")
    else:
        if args.mode == "on-resonance":
            d = EnsembleDistribution.single_point()
        else:
            d = load_distribution_json(args.distribution_file)
        if args.multistart is not None:
            reports = multistart_reports(
                d, cfg, args.multistart, args.seed,
                template=template, max_workers=args.threads,
            )
            fids = [float(r.fidelity_history[-1]) for r in reports]
            write_csv(outdir / "histogram.csv", ["rank", "fidelity"],
                      range(len(fids)), sorted(fids))
            outputs.append("histogram.csv")
            report = reports[int(np.argmax(fids))]
            params["multistart"] = args.multistart
        else:
            report = grape_ascend(p0, d, cfg)
        final_wf, final_d = report.final_waveform, d
        final_fid = float(report.fidelity_history[-1])
        params["final_fidelity"] = final_fid
        params["termination"] = report.termination.value
        trace = _trace_rows(report)
        message = (f"optimize[{args.mode}]: fidelity {final_fid:.6f} "
                   f"after {report.iterations} iterations ({report.termination.value})")

    save_waveform_json(final_wf, outdir / "waveform.json")
    save_waveform_csv(final_wf, outdir / "waveform.csv")
    save_distribution_json(final_d, outdir / "distribution.json")
    with open(outdir / "trace.jsonl", "w") as fh:
        for row in trace:
            fh.write(json.dumps(row) + "\n")
    outputs += ["waveform.json", "waveform.csv", "distribution.json", "trace.jsonl"]
    print(message)
    _write_manifest(outdir, "optimize", params, outputs)
    return 0


# ---------------------------------------------------------------- simulate

def cmd_simulate(args, parser) -> int:
    if args.mode == "train":
        _check_count("--echoes", args.echoes)
    outdir = _outdir(args, parser)
    pulse, label = _resolve_pulse(
        args.pulse, args.amax_khz, args.hard_nutation_deg, args.hard_phase_deg
    )
    tau = args.tau_ms * 1e-3
    outputs = []
    params = {
        "pulse": args.pulse,
        "label": label,
        "tau_ms": args.tau_ms,
        "mode": args.mode,
        "seed": args.seed,
    }

    if args.mode == "train":
        d = _build_distribution(args, parser)
        res = simulate_train(pulse, tau, d, input_axis=args.axis, n_echoes=args.echoes)
        n = res.n_echoes
        write_csv(outdir / "train.csv",
                  ["echo", "offset_hz", "rf_scale", "mx", "my", "mz"],
                  np.repeat(np.arange(1, n + 1), d.n_points),
                  np.tile(d.offsets / (2 * np.pi), n),
                  np.tile(d.rf_scales, n),
                  *res.bloch.reshape(-1, 3).T)
        write_csv(outdir / "train_avg.csv", ["echo", "avg"],
                  np.arange(1, n + 1), res.ensemble_average)
        outputs += ["train.csv", "train_avg.csv"]
        params.update(echoes=args.echoes, axis=args.axis, n_points=d.n_points)
        print(f"train: {res.n_echoes} echoes x {d.n_points} isochromats; "
              f"final avg {res.ensemble_average[-1]:+.4f}")
    elif args.mode == "sweep":
        offsets = args.offsets_khz * KHZ
        sweep = echo_visibility_sweep(pulse, tau, offsets, args.rf, args.echo_indices)
        n_off, n_rf, n_echo = sweep.retained.shape
        write_csv(outdir / "sweep.csv", ["offset_hz", "rf_scale", "echo", "my"],
                  np.repeat(sweep.offsets / (2 * np.pi), n_rf * n_echo),
                  np.tile(np.repeat(sweep.rf_scales, n_echo), n_off),
                  np.tile(sweep.echo_indices, n_off * n_rf),
                  sweep.retained.ravel())
        outputs.append("sweep.csv")
        params.update(echo_indices=list(args.echo_indices), rf=args.rf)
        print(f"sweep: {sweep.retained.shape[0]} offsets x {sweep.retained.shape[1]} RF scales, "
              f"min retained {sweep.retained.min():+.4f}")
    else:
        if pulse is None:
            print("error: --trajectory needs a shaped pulse, not 'ideal'", file=sys.stderr)
            return 2
        axis_map = {"x": (1.0, 0, 0), "y": (0, 1.0, 0), "z": (0, 0, 1.0)}
        traj = bloch_trajectory(
            pulse, args.offset_khz * KHZ, args.rf_scale, axis_map[args.axis]
        )
        times = trajectory_times(pulse)
        write_csv(outdir / "trajectory.csv", ["t_s", "x", "y", "z"], times, *traj.T)
        outputs.append("trajectory.csv")
        params.update(offset_khz=args.offset_khz, rf_scale=args.rf_scale, axis=args.axis)
        print(f"trajectory: {traj.shape[0]} samples, endpoint "
              f"({traj[-1, 0]:+.3f}, {traj[-1, 1]:+.3f}, {traj[-1, 2]:+.3f})")

    _write_manifest(outdir, "simulate", params, outputs)
    return 0


# ---------------------------------------------------------------- analyze-channel

def cmd_analyze(args, parser) -> int:
    if args.cycles < 3:
        parser.error("insufficient samples for fit: need --cycles >= 3")
    _check_count("--cycles", args.cycles)
    outdir = _outdir(args, parser)
    pulse, label = _resolve_pulse(
        args.pulse, args.amax_khz, args.hard_nutation_deg, args.hard_phase_deg
    )
    d = _build_distribution(args, parser)
    tau = args.tau_ms * 1e-3
    # One pulse product and one axis-angle decomposition per pulse: the
    # n-cycle stack and the n -> infinity limit both come from these cycle
    # axes and angles.  The propagators and the stack go through their
    # modules, where perfbench times them.
    C = channel.cycle_propagators(propagation.pulse_propagators(pulse, d), tau, d)
    r, theta = axis_angle(C)
    R = channel.transfer_of_unitaries(r, theta, d.weights, args.cycles)
    _, residuals = pauli_probabilities(R)
    fit = fit_pauli_model(R, cycle_time(pulse, tau))
    coherent, symmetric = offdiagonal_parts(R)
    payload = channel_fit_to_dict(fit)
    payload["offdiag_residual"] = residuals.tolist()
    payload["coherent_residual"] = coherent.tolist()
    payload["symmetric_residual"] = symmetric.tolist()
    payload["cycle_unitarity_error"] = unitarity_error(C)
    outputs = ["channel.json"]
    params = {
        "pulse": args.pulse, "label": label, "tau_ms": args.tau_ms,
        "cycles": args.cycles, "n_points": d.n_points, "seed": args.seed,
    }
    if args.asymptotic:
        limit = asymptotic_channel(r, theta, d.weights)
        gap = float(np.max(np.abs(R[-1] - limit)))
        payload["asymptotic"] = {
            "entries": limit.tolist(),
            "max_entry_gap_at_n": gap,
        }
        params["asymptotic_gap"] = gap
    (outdir / "channel.json").write_text(json.dumps(payload, indent=1))
    t2c = fit.t2_pulse_cycles
    t2_text = f"{t2c:.3f}" if np.isfinite(t2c) else "inf"
    print(f"channel[{label}]: m_inf {fit.m_infinity:+.4f}, T2p/tc {t2_text}, "
          f"fit overlap {fit.fit_overlap:.6f}")
    _write_manifest(outdir, "analyze-channel", params, outputs)
    return 0


# ---------------------------------------------------------------- compare

def cmd_compare(args, parser) -> int:
    if args.cycles < 3:
        parser.error("insufficient samples for fit: need --cycles >= 3")
    _check_count("--cycles", args.cycles)
    outdir = _outdir(args, parser)
    tau = args.tau_ms * 1e-3
    entries = []
    failures = []
    if args.include_hard:
        entries.append(("hard", hard_pulse(np.pi, np.pi / 2, args.amax_khz * KHZ)))
    for path in args.waveforms:
        try:
            entries.append((Path(path).stem, load_waveform_json(path)))
        except (OSError, ValueError) as exc:
            failures.append(path)
            print(f"error: {path}: {exc}", file=sys.stderr)
    if not entries:
        parser.error("nothing to compare: give waveform files or --include-hard")

    offsets = args.sweep_khz * KHZ
    d = EnsembleDistribution.product(offsets, args.rf)
    outputs = []
    table = {name: [] for name in ("pulse", "t2_pulse_cycles", "m_infinity", "fit_overlap")}
    means = {name: [] for name in ("pulse", "offset_hz", "fidelity")}
    for label, p in entries:
        # one pulse product feeds both the criteria and the channel stack
        U = propagation.pulse_propagators(p, d)
        columns = _criteria_columns(U, d)
        name = f"criteria_{label}.csv"
        write_csv(outdir / name, CRITERIA_HEADER, *columns)
        outputs.append(name)
        fid = columns[2].reshape(offsets.size, len(args.rf))
        means["pulse"] += [label] * offsets.size
        means["offset_hz"] += (offsets / (2 * np.pi)).tolist()
        means["fidelity"] += [float(row.mean()) for row in fid]
        R = superoperator_sequence(U, tau, d, args.cycles)
        fit = fit_pauli_model(R, cycle_time(p, tau))
        t2c = fit.t2_pulse_cycles
        table["pulse"].append(label)
        table["t2_pulse_cycles"].append(t2c if np.isfinite(t2c) else "inf")
        table["m_infinity"].append(fit.m_infinity)
        table["fit_overlap"].append(fit.fit_overlap)
        t2_text = f"{t2c:.2f}" if np.isfinite(t2c) else "inf"
        print(f"{label}: m_inf {fit.m_infinity:+.4f}, T2p/tc {t2_text}")
    write_csv(outdir / "compare.csv", list(means), *means.values())
    write_csv(outdir / "table.csv", list(table), *table.values())
    outputs += ["compare.csv", "table.csv"]
    _write_manifest(
        outdir, "compare",
        {"waveforms": list(args.waveforms), "tau_ms": args.tau_ms,
         "cycles": args.cycles, "rf": args.rf, "failures": failures},
        outputs,
    )
    return 1 if failures else 0


# ---------------------------------------------------------------- info

def cmd_info(args, parser) -> int:
    print(f"ocpulse {__version__}")
    print(f"defaults: duration {DEFAULT_DURATION_MS} ms in {DEFAULT_STEPS} steps, "
          f"amplitude cap {DEFAULT_AMAX_KHZ} kHz, guards {DEFAULT_GUARD_US} us, "
          f"tau {DEFAULT_TAU_MS} ms, RF scales {DEFAULT_RF_LIST}")
    for path in args.files:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            continue
        if not (isinstance(data, dict) and ("steps" in data or "points" in data)):
            print(f"{path}: unrecognized JSON payload")
            continue
        try:
            record = (waveform_from_dict if "steps" in data else distribution_from_dict)(data)
        except ValueError as exc:
            print(f"{path}: malformed ({exc})", file=sys.stderr)
            continue
        if "steps" in data:
            print(f"{path}: waveform, {record.n_steps} steps x {record.dt * 1e6:.3f} us, "
                  f"cap {record.a_max / KHZ:.3f} kHz, guards "
                  f"{record.pre_delay * 1e6:.1f}/{record.post_delay * 1e6:.1f} us")
        else:
            lo, hi = record.offsets.min() / (2 * np.pi), record.offsets.max() / (2 * np.pi)
            print(f"{path}: distribution, {record.n_points} points, "
                  f"offsets {lo:.1f}..{hi:.1f} Hz, "
                  f"RF scales {sorted(set(record.rf_scales.tolist()))}")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocpulse",
        description="Broadband CPMG refocusing pulses: optimize, simulate, analyze.",
    )
    parser.add_argument("--version", action="version", version=f"ocpulse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("optimize", help="design a refocusing pulse")
    sp.add_argument("--outdir", "-o")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=os.cpu_count(),
                    help="worker cap for multistart runs")
    sp.add_argument("--duration-ms", type=float, help=f"default {DEFAULT_DURATION_MS}; not with --init")
    sp.add_argument("--steps", type=int, help=f"default {DEFAULT_STEPS}; not with --init")
    sp.add_argument("--amax-khz", type=float, help=f"default {DEFAULT_AMAX_KHZ}; not with --init")
    sp.add_argument("--guard-us", type=float, help=f"default {DEFAULT_GUARD_US}; not with --init")
    sp.add_argument("--delta-hz", type=float, default=None,
                    help="offset comb spacing; default 1/(4 duration)")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--on-resonance", dest="mode", action="store_const",
                      const="on-resonance", help="single on-resonance point")
    mode.add_argument("--ladder", dest="mode", action="store_const", const="ladder",
                      help="incremental-bandwidth schedule")
    mode.add_argument("--distribution-file", metavar="FILE",
                      help="optimize over a distribution JSON")
    sp.add_argument("--init", help="warm-start waveform JSON")
    sp.add_argument("--max-iter", type=int, default=None,
                    help="iteration budget (per rung in ladder mode)")
    sp.add_argument("--target-fidelity", type=float, default=1.0)
    sp.add_argument("--stall", type=float, default=1e-7)
    sp.add_argument("--multistart", type=int, default=None,
                    help="run N random starts, write histogram.csv "
                         "(not with --ladder or --init)")
    sp.add_argument("--stop-fidelity", type=float, default=0.9)
    sp.add_argument("--jitter", type=float, default=0.05)
    sp.add_argument("--max-rungs", type=int, default=100)
    sp.add_argument("--select-floor", type=float, default=0.99)
    sp.add_argument("--rfi", type=_floats, default=None,
                    help="RF scales for a post-ladder robustness re-optimization")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("simulate", help="echo trains, sweeps, trajectories")
    sp.add_argument("--outdir", "-o")
    sp.add_argument("--seed", type=int, default=0)
    _add_pulse_flags(sp)
    sp.add_argument("--tau-ms", type=float, default=DEFAULT_TAU_MS)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--train", dest="mode", action="store_const", const="train")
    mode.add_argument("--sweep", dest="mode", action="store_const", const="sweep")
    mode.add_argument("--trajectory", dest="mode", action="store_const", const="trajectory")
    _add_distribution_flags(sp)
    sp.add_argument("--echoes", type=int, default=200)
    sp.add_argument("--axis", choices=("x", "y", "z"), default="y")
    sp.add_argument("--offsets-khz", type=_range, default=_range("-10:10:0.1"),
                    help="sweep offsets, lo:hi:step in kHz")
    sp.add_argument("--echo-indices", type=_ints, default=[1, 2, 500])
    sp.add_argument("--offset-khz", type=float, default=0.0,
                    help="trajectory offset (kHz)")
    sp.add_argument("--rf-scale", type=float, default=1.0)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("analyze-channel", help="Pauli channel fit of pulse error")
    sp.add_argument("--outdir", "-o")
    sp.add_argument("--seed", type=int, default=0)
    _add_pulse_flags(sp)
    sp.add_argument("--tau-ms", type=float, default=DEFAULT_TAU_MS)
    sp.add_argument("--cycles", type=int, default=100)
    _add_distribution_flags(sp, jitter_default=0.05)
    sp.add_argument("--asymptotic", action="store_true",
                    help="also emit the n->infinity channel and the gap to it")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("compare", help="criteria sweeps and channel table for pulses")
    sp.add_argument("waveforms", nargs="*", help="waveform JSON files")
    sp.add_argument("--outdir", "-o")
    sp.add_argument("--include-hard", action="store_true")
    sp.add_argument("--amax-khz", type=float, default=DEFAULT_AMAX_KHZ)
    sp.add_argument("--tau-ms", type=float, default=DEFAULT_TAU_MS)
    sp.add_argument("--cycles", type=int, default=100)
    sp.add_argument("--rf", type=_floats, default=_floats(DEFAULT_RF_LIST))
    sp.add_argument("--sweep-khz", type=_range, default=_range("-10:10:0.25"))
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("info", help="version, defaults, file summaries")
    sp.add_argument("files", nargs="*")
    sp.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) is None and args.command == "optimize":
        args.mode = "distribution"
    try:
        return args.func(args, parser)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
