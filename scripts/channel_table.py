"""Dephasing-channel comparison table for a set of refocusing pulses.

For each pulse, simulates 100 CPMG cycles over the analysis ensemble
(|dw|/2pi <= 8 kHz, RF scales 0.9-1.1), fits the Pauli dephasing model,
and prints T2,pulse / t_c and the asymptotically retained magnetization.
Offsets are drawn uniformly at random (seeded): a regular comb aliases
against the 2 ms free-precession phase and pollutes the per-cycle
ensemble averages.
"""

import argparse

import numpy as np

import ocpulse as oc
from ocpulse import channel, fileio

KHZ = 2.0 * np.pi * 1e3


def analysis_distribution(n_offsets=1601, n_scales=21, seed=42):
    rng = np.random.default_rng(seed)
    offsets = np.sort(rng.uniform(-8 * KHZ, 8 * KHZ, n_offsets))
    return oc.EnsembleDistribution.product(offsets, np.linspace(0.9, 1.1, n_scales))


def fit_for(waveform, tau, d, n_cycles):
    R = channel.superoperator_sequence(waveform, tau, d, n_cycles)
    probs, _ = channel.pauli_probabilities(R)
    return channel.fit_pauli_model(probs, channel.cycle_time(waveform, tau), transfer=R)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("waveforms", nargs="*", help="extra waveform JSON files")
    ap.add_argument("--tau", type=float, default=1e-3)
    ap.add_argument("--cycles", type=int, default=100)
    ap.add_argument("--out", default="channel_table.csv")
    args = ap.parse_args()

    pulses = [
        ("ideal", None),
        ("hard", oc.hard_pulse(np.pi, np.pi / 2, 2 * np.pi * 5000)),
        ("oct_rfi", fileio.reference_waveform("oct_rfi")),
    ]
    for path in args.waveforms:
        pulses.append((path, fileio.load_waveform_json(path)))

    d = analysis_distribution()
    table = {name: [] for name in ("pulse", "t2_cycles", "m_infinity", "fit_overlap")}
    for name, w in pulses:
        fit = fit_for(w, args.tau, d, args.cycles)
        t2 = "inf" if not np.isfinite(fit.t2_pulse_cycles) else f"{fit.t2_pulse_cycles:.2f}"
        table["pulse"].append(name)
        table["t2_cycles"].append(t2)
        table["m_infinity"].append(f"{fit.m_infinity:.4f}")
        table["fit_overlap"].append(f"{fit.fit_overlap:.5f}")
        print(f"{name:12s} T2/tc {t2:>6s}   M_inf {fit.m_infinity:.4f}   "
              f"overlap {fit.fit_overlap:.5f}")

    fileio.write_csv(args.out, list(table), *table.values())
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
