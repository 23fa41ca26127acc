"""Benchmark of the ocpulse command line, one workload per process.

    python3 perfbench/run.py --workload design|channel|reports --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  Set-up
(fresh import of the package, packaged-pulse loading, input-file generation)
is repeated and its median reported.  Then whole rounds of the workload's
``ocpulse`` commands run in this process through ``ocpulse.cli.main`` until
S seconds have passed; ``run_s`` is the median round.  Every round must
leave the same output files, and the last round's files are checked against
the independent reference.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

SETUP_REPS = 3  # before the first round; one more follows each round


def cap_blas_threads() -> None:
    """At most nproc BLAS/OpenMP threads; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)


def import_program(src: Path):
    """Import ocpulse afresh from src; returns (cli, fileio) modules."""
    import importlib

    for name in [m for m in sys.modules if m == "ocpulse" or m.startswith("ocpulse.")]:
        del sys.modules[name]
    cli = importlib.import_module("ocpulse.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"ocpulse imported from {cli.__file__}, not from {src}")
    return cli, importlib.import_module("ocpulse.fileio")


def digest(workdir: Path) -> dict:
    """sha256 of every output file but manifest.json (which holds a timestamp)."""
    out = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            out[str(path.relative_to(workdir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class Rounds:
    """Runs rounds of commands through one ``main``, counting failures."""

    def __init__(self, main, commands):
        self.main, self.commands = main, commands
        self.attempted = self.failed = 0

    def run(self, wrap=None) -> list:
        """One round; returns each command's wall time."""
        times = []
        for argv in self.commands:
            self.attempted += 1
            main = wrap(f"cli.{argv[0]}", self.main) if wrap else self.main
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main(list(argv))
            except Exception:
                traceback.print_exc()
                rc = -1
            times.append(time.perf_counter() - t0)
            if rc != 0:
                self.failed += 1
                print(f"failed ({rc}): ocpulse {' '.join(argv)}", file=sys.stderr)
        return times


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("design", "channel", "reports"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ocpulse" / "__init__.py").is_file():
        print(f"error: no ocpulse package under {src}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    setup, check = workloads.WORKLOADS[args.workload]
    (root / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench"))
    try:
        run = workloads.Run(root=root, workdir=workdir, seed=args.seed)
        setup_times = []

        def set_up():
            t0 = time.perf_counter()
            cli, fileio = import_program(src)
            commands = setup(run, fileio)
            setup_times.append(time.perf_counter() - t0)
            return cli.main, commands

        for _ in range(SETUP_REPS - 1):
            set_up()
        rounds = Rounds(*set_up())
        plain, traced, layers, digests = [], [], [], []
        tracer = tracing.Tracer() if args.trace else None
        start = time.perf_counter()
        while True:
            if tracer is None or len(plain) <= len(traced):
                kind, times = "plain", rounds.run()
                plain.append(times)
            else:
                tracer.reset()
                tracer.install()
                try:
                    kind, times = "traced", rounds.run(wrap=tracer.span)
                finally:
                    tracer.uninstall()
                traced.append(times)
                layers.append(tracer.layer_metrics())
            digests.append(digest(workdir))
            print(f"round {len(digests)} ({kind}): {sum(times):.4f} s =",
                  " + ".join(f"{t:.4f}" for t in times), file=sys.stderr)
            if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
                break
            rounds.main = set_up()[0]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            errors, infidelity = check(run)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors, infidelity = [f"outputs unreadable: {exc!r}"], 1.0
        errors += [f"round {i + 1} left other output files than round 1"
                   for i, d in enumerate(digests) if d != digests[0]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "run_s": metric(statistics.median(map(sum, plain)), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "design_infidelity": metric(infidelity, "fraction"),
        }
    else:
        if tracer.absent:
            print(f"trace: absent lookups (metrics read 0): {', '.join(tracer.absent)}")
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: metric(statistics.median(m[name] for m in layers), units[name])
                   for name in layers[0]}
        metrics["trace.overhead_s"] = metric(
            statistics.median(map(sum, traced)) - statistics.median(map(sum, plain)), "s")
    print(json.dumps({"correct": not errors, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
