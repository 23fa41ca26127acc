"""Regenerate the packaged reference pulses from scratch.

Runs the bandwidth ladder (comb spacing 250 Hz, 500-iteration rungs),
selects the rung that scores best on the fixed +/-10 kHz grid, polishes
it there, and separately re-optimizes the 8 kHz rung over +/-10% RF
scatter.  With --install the two waveforms replace the JSON files under
src/ocpulse/data/; otherwise they land in --outdir.

Takes a couple of minutes on a laptop.  The run is fully seeded; the
shipped pulses came from the defaults below.
"""

import argparse
import time
from pathlib import Path

import numpy as np

import ocpulse as oc
from ocpulse import fileio, grape, ladder, metrics

KHZ = 2.0 * np.pi * 1e3


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--rung-iterations", type=int, default=500)
    ap.add_argument("--polish-iterations", type=int, default=4000)
    ap.add_argument("--rfi-iterations", type=int, default=600)
    ap.add_argument("--rfi-rung", type=int, default=32, help="8 kHz at 250 Hz spacing")
    ap.add_argument("--outdir", type=Path, default=Path("pipeline_out"))
    ap.add_argument("--install", action="store_true",
                    help="write into the package data directory instead of --outdir")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    template = oc.waveform_template(100, 1e-5, 2 * np.pi * 5000,
                                    pre_delay=6e-6, post_delay=6e-6)
    p0 = grape.random_waveform(template, rng)

    t0 = time.time()
    result = ladder.run_ladder(
        p0, delta=2 * np.pi * 250, stop_fidelity=0.9,
        cfg=grape.GrapeConfig(max_iterations=args.rung_iterations),
        seed=args.seed,
    )
    print(f"ladder: {len(result.rungs)} rungs in {time.time()-t0:.0f} s")

    # broadband pulse: best rung on the fixed 4 A_max band, then dense polish
    offs10 = np.linspace(-10 * KHZ, 10 * KHZ, 201)
    d10 = oc.EnsembleDistribution.product(offs10, (1.0,))

    def fixed_band_fid(w):
        return metrics.average_fidelity(w, d10)

    best = max(result.rungs, key=lambda r: fixed_band_fid(r.waveform))
    rep = grape.grape_ascend(best.waveform, d10,
                             grape.GrapeConfig(max_iterations=args.polish_iterations))
    w_broadband = rep.final_waveform
    print(f"broadband: rung {best.index} polished to "
          f"{fixed_band_fid(w_broadband):.4f} over +/-10 kHz")

    # RFI pulse: re-optimize the 3.2 A_max rung over the RF-scale grid
    rung = next(r for r in result.rungs if r.index == args.rfi_rung)
    _, w_rfi, comb_fid = ladder.add_rfi_and_reoptimize(
        rung, (0.9, 0.95, 1.0, 1.05, 1.1),
        grape.GrapeConfig(max_iterations=args.rfi_iterations))
    offs8 = np.linspace(-8 * KHZ, 8 * KHZ, 161)
    d8 = oc.EnsembleDistribution.product(offs8, (0.9, 0.95, 1.0, 1.05, 1.1))
    print(f"rfi: rung {args.rfi_rung} re-optimized, comb {comb_fid:.4f}, "
          f"dense grid {metrics.average_fidelity(w_rfi, d8):.4f}")

    if args.install:
        outdir = Path(__file__).resolve().parent.parent / "src" / "ocpulse" / "data"
    else:
        outdir = args.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    fileio.save_waveform_json(w_rfi, outdir / "oct_rfi.json")
    fileio.save_waveform_json(w_broadband, outdir / "oct_broadband.json")
    print(f"wrote {outdir}/oct_rfi.json and {outdir}/oct_broadband.json")


if __name__ == "__main__":
    main()
