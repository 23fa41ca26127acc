"""Traced run: spans around the program's layers, recorded from outside.

``Tracer.install`` replaces module attributes of ``ocpulse`` with timing
wrappers, at the names through which the program looks them up (so
``ocpulse.propagation.step_propagators``, called from ``pulse_propagators``,
and ``ocpulse.grape.step_propagators``, called from the optimizer, are two
lookups of one span name).  Each call records a span with its parent, so a
layer's self time is its duration minus that of its direct children.
Lookups that no longer exist are reported as absent; their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict


def _steps(c, res, *a, **k):
    c["propagation.isochromat_steps"] += res.shape[0] * res.shape[1]


def _iterations(c, res, *a, **k):
    c["grape.iterations"] += res.iterations


def _rungs(c, res, *a, **k):
    c["ladder.rungs"] += len(res.rungs)


def _point_cycles(c, res, p, tau, d, *a, **k):
    c["channel.point_cycles"] += d.n_points * len(res)


def _train(c, res, *a, **k):
    c["echo_train.point_echoes"] += res.bloch.shape[0] * res.bloch.shape[1]


def _sweep(c, res, *a, **k):
    c["echo_train.point_echoes"] += res.retained.shape[0] * res.retained.shape[1] * max(res.echo_indices)


def _criteria(c, res, *a, **k):
    c["metrics.criteria_points"] += len(res)


def _csv(c, res, path, header, rows, *a, **k):
    c["fileio.rows_written"] += len(rows)
    c["fileio.bytes_written"] += os.path.getsize(path)


# (module, attribute, span name, counter)
WRAPS = [
    ("ocpulse.propagation", "step_propagators", "propagation.step_propagators", _steps),
    ("ocpulse.grape", "step_propagators", "propagation.step_propagators", _steps),
    ("ocpulse.propagation", "pulse_propagators", "propagation.pulse_propagators", None),
    ("ocpulse.metrics", "pulse_propagators", "propagation.pulse_propagators", None),
    ("ocpulse.echo_train", "pulse_propagators", "propagation.pulse_propagators", None),
    ("ocpulse.grape", "_averaged_eval", "grape.gradient", None),
    ("ocpulse.grape", "_ensemble_fidelity", "grape.probe", None),
    ("ocpulse.cli", "grape_ascend", "grape.ascend", _iterations),
    ("ocpulse.ladder", "grape_ascend", "grape.ascend", _iterations),
    ("ocpulse.cli", "run_ladder", "ladder.run_ladder", _rungs),
    ("ocpulse.cli", "add_rfi_and_reoptimize", "ladder.rfi", None),
    ("ocpulse.channel", "cycle_propagators", "channel.cycle_propagators", None),
    ("ocpulse.channel", "transfer_of_unitaries", "channel.transfer", None),
    ("ocpulse.cli", "superoperator_sequence", "channel.sequence", _point_cycles),
    ("ocpulse.cli", "asymptotic_channel", "channel.asymptotic", None),
    ("ocpulse.cli", "pauli_probabilities", "channel.fit", None),
    ("ocpulse.cli", "fit_pauli_model", "channel.fit", None),
    ("ocpulse.cli", "simulate_train", "echo_train.simulate_train", _train),
    ("ocpulse.cli", "echo_visibility_sweep", "echo_train.sweep", _sweep),
    ("ocpulse.cli", "criteria_sweep", "metrics.criteria_sweep", _criteria),
    ("ocpulse.cli", "write_csv", "fileio.write_csv", _csv),
    ("ocpulse.cli", "load_distribution_json", "fileio.load_distribution", None),
]

COMMANDS = ("optimize", "simulate", "analyze-channel", "compare")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("propagation.step_propagators.calls", "count", "lower"),
    ("propagation.step_propagators.s", "s", "lower"),
    ("propagation.pulse_propagators.calls", "count", "lower"),
    ("propagation.pulse_propagators.self_s", "s", "lower"),
    ("propagation.isochromat_steps", "count", "lower"),
    ("propagation.isochromat_steps_per_s", "1/s", "higher"),
    ("grape.gradient.calls", "count", "lower"),
    ("grape.gradient.s", "s", "lower"),
    ("grape.probe.calls", "count", "lower"),
    ("grape.probe.s", "s", "lower"),
    ("grape.iterations", "count", "lower"),
    ("grape.accept_ratio", "ratio", "higher"),
    ("grape.ascend.self_s", "s", "lower"),
    ("ladder.rungs", "count", "higher"),
    ("ladder.run_ladder.self_s", "s", "lower"),
    ("ladder.rfi.s", "s", "lower"),
    ("channel.cycle_propagators.calls", "count", "lower"),
    ("channel.cycle_propagators.self_s", "s", "lower"),
    ("channel.sequence.self_s", "s", "lower"),
    ("channel.transfer.calls", "count", "lower"),
    ("channel.transfer.s", "s", "lower"),
    ("channel.asymptotic.self_s", "s", "lower"),
    ("channel.fit.s", "s", "lower"),
    ("channel.point_cycles_per_s", "1/s", "higher"),
    ("echo_train.simulate_train.s", "s", "lower"),
    ("echo_train.sweep.s", "s", "lower"),
    ("echo_train.point_echoes", "count", "lower"),
    ("metrics.criteria_sweep.s", "s", "lower"),
    ("metrics.criteria_points", "count", "lower"),
    ("fileio.write_csv.s", "s", "lower"),
    ("fileio.rows_written", "count", "lower"),
    ("fileio.bytes_written", "B", "lower"),
    ("fileio.rows_per_s", "1/s", "higher"),
    ("fileio.load_distribution.s", "s", "lower"),
] + [(f"cli.{c}.self_s", "s", "lower") for c in COMMANDS] + [
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory spans (name, parent index, start, end) and counters."""

    def __init__(self):
        self.absent: list[str] = []
        self._restore: list = []
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.parents: list = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else None)
            tracer.ends.append(None)
            tracer._stack.append(i)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer.counts, result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        self.absent = []
        for module, attr, name, counter in WRAPS:
            mod = importlib.import_module(module)
            if not hasattr(mod, attr):
                self.absent.append(f"{module}.{attr}")
                continue
            original = getattr(mod, attr)
            self._restore.append((mod, attr, original))
            setattr(mod, attr, self.span(name, original, counter))

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer values of the spans and counts recorded since reset."""
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        busy = 0.0
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += d
            own[name] += d
            parent = self.parents[i]
            if parent is not None:
                own[self.names[parent]] -= d
            if name.startswith("propagation.") and not (
                    parent is not None and self.names[parent].startswith("propagation.")):
                busy += d
        c = self.counts

        def rate(num, den):
            return num / den if den > 0.0 else 0.0

        out = {
            "propagation.step_propagators.calls": calls["propagation.step_propagators"],
            "propagation.step_propagators.s": total["propagation.step_propagators"],
            "propagation.pulse_propagators.calls": calls["propagation.pulse_propagators"],
            "propagation.pulse_propagators.self_s": own["propagation.pulse_propagators"],
            "propagation.isochromat_steps": c["propagation.isochromat_steps"],
            "propagation.isochromat_steps_per_s": rate(c["propagation.isochromat_steps"], busy),
            "grape.gradient.calls": calls["grape.gradient"],
            "grape.gradient.s": total["grape.gradient"],
            "grape.probe.calls": calls["grape.probe"],
            "grape.probe.s": total["grape.probe"],
            "grape.iterations": c["grape.iterations"],
            "grape.accept_ratio": rate(c["grape.iterations"], calls["grape.probe"]),
            "grape.ascend.self_s": own["grape.ascend"],
            "ladder.rungs": c["ladder.rungs"],
            "ladder.run_ladder.self_s": own["ladder.run_ladder"],
            "ladder.rfi.s": total["ladder.rfi"],
            "channel.cycle_propagators.calls": calls["channel.cycle_propagators"],
            "channel.cycle_propagators.self_s": own["channel.cycle_propagators"],
            "channel.sequence.self_s": own["channel.sequence"],
            "channel.transfer.calls": calls["channel.transfer"],
            "channel.transfer.s": total["channel.transfer"],
            "channel.asymptotic.self_s": own["channel.asymptotic"],
            "channel.fit.s": total["channel.fit"],
            "channel.point_cycles_per_s": rate(c["channel.point_cycles"], total["channel.sequence"]),
            "echo_train.simulate_train.s": total["echo_train.simulate_train"],
            "echo_train.sweep.s": total["echo_train.sweep"],
            "echo_train.point_echoes": c["echo_train.point_echoes"],
            "metrics.criteria_sweep.s": total["metrics.criteria_sweep"],
            "metrics.criteria_points": c["metrics.criteria_points"],
            "fileio.write_csv.s": total["fileio.write_csv"],
            "fileio.rows_written": c["fileio.rows_written"],
            "fileio.bytes_written": c["fileio.bytes_written"],
            "fileio.rows_per_s": rate(c["fileio.rows_written"], total["fileio.write_csv"]),
            "fileio.load_distribution.s": total["fileio.load_distribution"],
        }
        for command in COMMANDS:
            out[f"cli.{command}.self_s"] = own[f"cli.{command}"]
        return out
