"""Result fingerprint of the channel analysis and of the optimizer, to show
a change moved no physics number.

For the hard, oct_rfi and oct_broadband pulses on the seed-42 analysis
ensemble (1601 random offsets over +-8 kHz x 21 RF scales 0.9-1.1, 100
cycles, tau = 1 ms) prints the repr of M_inf, T2,pulse / t_c, the fit
overlap and the y entry sum w r_y^2 of the n -> infinity channel, one value
per line: the dephasing-channel table of the packaged pulses.  For any
other pulse, ``ocpulse analyze-channel --distribution FILE`` gives the same
numbers on a saved ensemble.  For oct_rfi on the
compare grid (offsets -10:10:0.25 kHz x RF scales 0.9, 0.95, 1.0, 1.05,
1.1) it adds the mean criteria fidelity and the smallest retained y at
echo 500, which cover the criteria and the echo train.  Each pulse is
propagated once per ensemble (``ocpulse.pulse_propagators``), and its pairs
feed the cycle or the criteria, as the commands take them.
Then come the repr of the final fidelity, the sha256 of the final
Cartesian controls, the iterations and the total line-search probes of a
fixed, seeded 25-iteration ascent on a 45-point comb (15 offsets over
+-3.5 kHz x RF scales 0.9, 1.0, 1.1), so that a change of line search
shows in the diff, and last the sha256 of the final controls of a fixed,
seeded ladder from the same start, which covers the optimizer on small
batches: three rungs of 25 iterations on the 1-, 3- and 5-point combs,
then the last comb crossed with RF scales 0.9, 1.0, 1.1 and re-optimized
for 25 iterations.

--save FILE keeps the per-cycle Pauli probabilities and every number
printed but the probability gaps.  --against FILE adds, per pulse, the
largest |difference| between this tree's probabilities and the saved ones
(``max_abs_dprobs``), and after each number that the file holds, its
|change| from the saved one.  Every line reads ``name field value``, or
``name field value change``.  Save at the parent (this script with the
parent's package on PYTHONPATH) and compare at the change; the last column
then quotes each move:

    PYTHONPATH=parent/src python scripts/fingerprint.py --save parent.npz
    python scripts/fingerprint.py --against parent.npz
"""

import argparse
import hashlib

import numpy as np

import ocpulse as oc
from ocpulse import channel, fileio, metrics
from ocpulse.echo_train import echo_visibility_sweep
from ocpulse.su2 import axis_angle

KHZ = 2.0 * np.pi * 1e3
TAU = 1e-3
CYCLES = 100
A_MAX = 2 * np.pi * 5000.0
# the compare command's default sweep grid
GRID_OFFSETS = (-10.0 + 0.25 * np.arange(81)) * KHZ
GRID_RF = [0.9, 0.95, 1.0, 1.05, 1.1]


def analysis_distribution(n_offsets=1601, n_scales=21, seed=42):
    """Offsets drawn uniformly at random (seeded) over +-8 kHz, crossed with
    RF scales 0.9-1.1: a regular comb aliases against the 2 ms
    free-precession phase and pollutes the per-cycle ensemble averages."""
    rng = np.random.default_rng(seed)
    offsets = np.sort(rng.uniform(-8 * KHZ, 8 * KHZ, n_offsets))
    return oc.EnsembleDistribution.product(offsets, np.linspace(0.9, 1.1, n_scales))


def channel_for(waveform, tau, d, n_cycles):
    """The fit of the channels of n = 1 .. n_cycles cycles and the n ->
    infinity transfer matrix, from one pulse product, one cycle and one
    axis-angle decomposition, as ``analyze-channel --asymptotic`` takes
    them."""
    r, theta = axis_angle(channel.cycle_propagators(oc.pulse_propagators(waveform, d), tau, d))
    R = channel.transfer_of_unitaries(r, theta, d.weights, n_cycles)
    fit = channel.fit_pauli_model(R, channel.cycle_time(waveform, tau))
    return fit, channel.asymptotic_channel(r, theta, d.weights)


def fixed_start():
    """100 steps of 10 us between 6 us guards, drawn by random_waveform from
    numpy.random.default_rng(0)."""
    template = oc.waveform_template(100, 1e-5, A_MAX, pre_delay=6e-6, post_delay=6e-6)
    return oc.random_waveform(template, np.random.default_rng(0))


def controls_sha256(p):
    return hashlib.sha256(p.cartesian_controls().tobytes()).hexdigest()


def grape_fingerprint():
    """The report of the fixed ascent."""
    d = oc.EnsembleDistribution.product(2 * np.pi * np.linspace(-3.5e3, 3.5e3, 15),
                                        [0.9, 1.0, 1.1])
    return oc.grape_ascend(fixed_start(), d, oc.GrapeConfig(max_iterations=25))


def ladder_fingerprint():
    """sha256 of the final controls of the fixed ladder: comb spacing
    250 Hz (1/(4 T) for the 1 ms pulse), jitter seed 0, and a fidelity
    floor of 0.01, so that all three rungs run."""
    cfg = oc.GrapeConfig(max_iterations=25)
    result = oc.run_ladder(fixed_start(), 2 * np.pi * 250.0, stop_fidelity=0.01, cfg=cfg,
                           seed=0, max_rungs=2)
    _, w, _ = oc.add_rfi_and_reoptimize(result.rungs[-1], [0.9, 1.0, 1.1], cfg)
    return controls_sha256(w)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--save", help="write the per-cycle probabilities to this .npz")
    ap.add_argument("--against", help="a --save file to compare the probabilities with")
    args = ap.parse_args()

    pulses = {
        "hard": oc.hard_pulse(np.pi, np.pi / 2, 2 * np.pi * 5000),
        "oct_rfi": fileio.reference_waveform("oct_rfi"),
        "oct_broadband": fileio.reference_waveform("oct_broadband"),
    }
    before = np.load(args.against) if args.against else None
    saved = {}

    def number(name, field, value):
        """Prints one number, kept for --save under "name field", with its
        |change| from the --against file when that holds it."""
        key = f"{name} {field}"
        saved[key] = value
        if before is not None and key in before.files:
            print(f"{key} {value!r} {abs(value - before[key].item())!r}")
        else:
            print(f"{key} {value!r}")

    d = analysis_distribution()
    for name, w in pulses.items():
        fit, limit = channel_for(w, TAU, d, CYCLES)
        saved[name] = fit.per_cycle_probs
        for field in ("m_infinity", "t2_pulse_cycles", "fit_overlap"):
            number(name, field, getattr(fit, field))
        number(name, "asymptotic_y", float(limit[2, 2]))
        if before is not None:
            gap = float(np.max(np.abs(fit.per_cycle_probs - before[name])))
            print(f"{name} max_abs_dprobs {gap!r}")
    w = pulses["oct_rfi"]
    grid = oc.EnsembleDistribution.product(GRID_OFFSETS, GRID_RF)
    criteria = metrics.criteria_sweep(oc.pulse_propagators(w, grid))
    number("oct_rfi", "criteria_mean_fidelity", float(np.mean(criteria.fidelity)))
    retained = echo_visibility_sweep(w, TAU, GRID_OFFSETS, GRID_RF, echo_indices=(500,)).retained
    number("oct_rfi", "min_retained_y_echo500", float(retained.min()))
    rep = grape_fingerprint()
    number("grape", "final_fidelity", float(rep.fidelity_history[-1]))
    print(f"grape controls_sha256 {controls_sha256(rep.final_waveform)}")
    number("grape", "iterations", rep.iterations)
    number("grape", "probes", int(rep.probes.sum()))
    print(f"ladder controls_sha256 {ladder_fingerprint()}")
    if args.save:
        np.savez(args.save, **saved)


if __name__ == "__main__":
    main()
