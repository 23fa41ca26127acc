"""Release gate: one test per headline guarantee, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v`` for a one-line verdict per
guarantee.  The full-pipeline reproduction is multi-minute and only runs
under ``--run-extended``; everything else is seconds-to-a-minute.  The
numbers quoted in comments are what this tree measured when the gate was
frozen.
"""

import numpy as np
import pytest

from ocpulse import channel, grape, ladder
from ocpulse.echo_train import echo_visibility_sweep
from ocpulse.metrics import average_fidelity
from ocpulse.propagation import cycle_propagators, half_cycle_propagators, pulse_propagators
from ocpulse.pulses import (
    EnsembleDistribution,
    PulseWaveform,
    hard_pulse,
    waveform_template,
)
from ocpulse.su2 import axis_angle

from oracles import cp_overlap_orders

A_MAX = 2 * np.pi * 5000.0
KHZ = 2 * np.pi * 1e3
TAU = 1e-3


def _fd_gradient(p, d, h=1e-6):
    """Central differences on the Cartesian controls through the objective."""
    u = p.cartesian_controls()
    g = np.zeros_like(u)
    for j in range(p.n_steps):
        for k in range(2):
            up, um = u.copy(), u.copy()
            up[j, k] += h
            um[j, k] -= h
            fp = grape._ensemble_fidelity(
                p.with_steps(np.hypot(up[:, 0], up[:, 1]), np.arctan2(up[:, 1], up[:, 0])),
                d,
            )
            fm = grape._ensemble_fidelity(
                p.with_steps(np.hypot(um[:, 0], um[:, 1]), np.arctan2(um[:, 1], um[:, 0])),
                d,
            )
            g[j, k] = (fp - fm) / (2 * h)
    return g


def _worst_gradient_error(dt):
    """Worst relative gradient error over 20 random waveforms at 5 isochromats."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        p = PulseWaveform(dt, rng.uniform(0.2, 1.0, 20) * A_MAX,
                          rng.uniform(0, 2 * np.pi, 20), A_MAX)
        offs = rng.uniform(-2 * np.pi * 1e3, 2 * np.pi * 1e3, 5)
        d = EnsembleDistribution(offs, np.ones(5), np.full(5, 0.2))
        _, ga = grape._averaged_eval(p, d)
        gf = _fd_gradient(p, d)
        worst = max(worst, np.max(np.abs(ga - gf)) / np.max(np.abs(gf)))
    return worst


def test_01_gradients_match_finite_differences_to_first_order():
    # the piecewise-constant gradient drops the within-step commutator, so
    # the residual against central differences is first order in dt*|H|:
    # measured worst 5.7e-4 at dt = 400 ns, 2.7e-4 at 200 ns (ratio 2.1)
    worst = _worst_gradient_error(4e-7)
    assert worst <= 1e-3
    worst_half = _worst_gradient_error(2e-7)
    assert 1.5 <= worst / worst_half <= 3.5


def test_02_on_resonance_ascent_reaches_four_nines_from_any_seed():
    # with no ensemble spread a pi rotation is always exactly reachable,
    # so every start must climb to the target (measured worst 0.99993)
    d = EnsembleDistribution.single_point()
    template = waveform_template(20, 1e-5, A_MAX)
    cfg = grape.GrapeConfig(max_iterations=2000, target_fidelity=0.9999)
    for seed in range(10):
        p0 = grape.random_waveform(template, np.random.default_rng(seed))
        rep = grape.grape_ascend(p0, d, cfg)
        fid = rep.fidelity_history[-1]
        assert fid >= 0.9999, f"seed {seed} stalled at {fid:.6f}"


def test_03_flip_angle_error_enters_cp_at_second_and_cpmg_at_fourth_order():
    # per-cycle overlap deficits for delta-function pi-epsilon pulses:
    # 1-O_x ~ eps^2 (CP), 1-O_y ~ eps^4 (CPMG phase-memory advantage)
    eps = np.logspace(-3, -2, 9)
    ox, oy = np.array([cp_overlap_orders(e, 0.5) for e in eps]).T
    slope_x = np.polyfit(np.log(eps), np.log1p(-ox), 1)[0]
    slope_y = np.polyfit(np.log(eps), np.log1p(-oy), 1)[0]
    assert slope_x == pytest.approx(2.00, abs=0.05)
    assert slope_y == pytest.approx(4.00, abs=0.10)


def test_04_hard_pulse_channel_asymptote_and_decay_time(hard_channel):
    # 100 us hard pi over |dw| <= 1.6 A_max x +/-10% RF at 2 ms echo
    # spacing: the train settles to ~0.65 of full amplitude within about
    # one cycle (measured m_inf 0.637, t2 0.70 cycles)
    _, fit = hard_channel
    assert fit.m_infinity == pytest.approx(0.646, abs=0.02)
    assert fit.t2_pulse_cycles == pytest.approx(1.0, abs=0.5)


def test_05_hard_pulse_fit_overlap_three_nines_at_every_cycle_count(hard_channel):
    # fit_overlap is the minimum over all 100 simulated cycle counts, so
    # one bound covers every n
    #
    # Known failure, physical rather than numerical.  Measured worst
    # overlaps, always at n = 8: 0.99800 for this seed-42 ensemble,
    # 0.99697-0.99727 for seeds 1-5 (1601 offsets x 21 RF scales), and
    # 0.99723 for a regular 16001-point offset comb over n <= 12.  At n = 8
    # the transfer matrix carries an antisymmetric x-z pair of +-0.0552:
    # a coherent rotation about y, <sin(n theta) r_y>, which a diagonal
    # Pauli channel cannot represent.  ||diag R|| / ||R|| by hand gives
    # 0.997999, the same as fit_overlap.
    _, fit = hard_channel
    assert fit.fit_overlap >= 0.999, (
        f"worst per-cycle overlap {fit.fit_overlap:.5f}"
    )


def test_06_kraus_decomposition_agrees_with_transfer_diagonal():
    # two independent routes to the Pauli probabilities (Choi eigenvalues
    # vs transfer-matrix diagonal) and Kraus completeness, 50 channels
    rng = np.random.default_rng(11)
    for _ in range(50):
        w = rng.uniform(0.05, 1.0, 4)
        w /= w.sum()
        s = np.diag([1.0,
                     w[0] + w[1] - w[2] - w[3],
                     w[0] - w[1] + w[2] - w[3],
                     w[0] - w[1] - w[2] + w[3]])
        pairs = channel.choi_kraus(s)
        got = np.sort(np.concatenate([[pr for pr, _ in pairs],
                                      np.zeros(4 - len(pairs))]))
        want = np.sort(channel.pauli_probabilities(s)[0])
        assert np.max(np.abs(got - want)) <= 1e-8
        completeness = sum(pr * (A @ A.conj().T) for pr, A in pairs)
        assert np.max(np.abs(completeness - np.eye(2))) <= 1e-8


@pytest.mark.extended
def test_07_full_pipeline_reproduces_the_packaged_pulse_quality():
    # end-to-end rerun of scripts/run_full_pipeline.py (seed 2): ladder,
    # best-rung polish on the fixed +/-10 kHz band, and RF-scatter
    # re-optimization of the 8 kHz rung; then the three headline figures.
    # Shipping-run values: 0.983 / 0.989 / visibility floor 0.954.
    seed = 2
    rng = np.random.default_rng(seed)
    template = waveform_template(100, 1e-5, A_MAX, pre_delay=6e-6, post_delay=6e-6)
    p0 = grape.random_waveform(template, rng)
    result = ladder.run_ladder(
        p0, delta=2 * np.pi * 250, stop_fidelity=0.9,
        cfg=grape.GrapeConfig(max_iterations=500), seed=seed,
    )

    offs10 = np.linspace(-10 * KHZ, 10 * KHZ, 201)
    d10 = EnsembleDistribution.product(offs10, (1.0,))

    def band_fid(w, d):
        return average_fidelity(w, d)

    best = max(result.rungs, key=lambda r: band_fid(r.waveform, d10))
    rep = grape.grape_ascend(best.waveform, d10, grape.GrapeConfig(max_iterations=4000))
    w_broadband = rep.final_waveform

    indices = [r.index for r in result.rungs]
    assert 32 in indices, f"ladder stopped early, reached rungs {indices[-1]}"
    rung = next(r for r in result.rungs if r.index == 32)
    _, w_rfi, _ = ladder.add_rfi_and_reoptimize(
        rung, (0.9, 0.95, 1.0, 1.05, 1.1),
        grape.GrapeConfig(max_iterations=600),
    )

    d8 = EnsembleDistribution.product(
        np.linspace(-8 * KHZ, 8 * KHZ, 161), (0.9, 0.95, 1.0, 1.05, 1.1))
    assert band_fid(w_rfi, d8) >= 0.97
    assert band_fid(w_broadband, d10) >= 0.975

    sweep = echo_visibility_sweep(
        w_broadband, TAU, np.linspace(-10 * KHZ, 10 * KHZ, 401), [1.0], (1, 2, 500))
    assert sweep.retained[:, 0, :].min() >= 0.95


def test_08_powered_cycles_converge_to_the_asymptotic_channel(
    oct_channel, oct_rfi, analysis_distribution
):
    # by ~30 cycles the ensemble has dephased onto the per-isochromat
    # rotation axes (measured worst entry gap 0.016 over n = 30..100)
    seq, _ = oct_channel
    d = analysis_distribution
    U = pulse_propagators(oct_rfi, d)
    asym = channel.asymptotic_channel(*axis_angle(cycle_propagators(U, TAU, d)), d.weights)
    gaps = np.max(np.abs(seq[29:100] - asym), axis=(1, 2))  # rows are n = 30..100
    assert len(gaps) == 71
    assert max(gaps) <= 0.05


def test_09_cycles_are_powered_per_isochromat_then_averaged():
    # the operational order matters: each spin packet evolves coherently
    # for all n cycles before detection averages, and the two orders
    # differ by 0.52 in the worst entry at n = 10 on this two-point case
    d = EnsembleDistribution(np.array([-2 * np.pi * 300.0, 2 * np.pi * 500.0]),
                             np.ones(2), np.array([0.5, 0.5]))
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    got = channel.superoperator_sequence(pulse_propagators(p, d), TAU, d, 10)[-1]

    U = cycle_propagators(pulse_propagators(p, d), TAU, d)
    R = [channel.transfer_of_unitaries(*axis_angle(U[k]), [1.0], 1)[0] for k in range(2)]
    power_then_average = 0.5 * (np.linalg.matrix_power(R[0], 10)
                                + np.linalg.matrix_power(R[1], 10))
    average_then_power = np.linalg.matrix_power(0.5 * (R[0] + R[1]), 10)

    assert np.max(np.abs(got - power_then_average)) <= 1e-12
    assert np.max(np.abs(got - average_then_power)) >= 0.01


def test_10_oct_rfi_refocuses_over_98_percent_across_its_band(
    oct_channel, oct_rfi, analysis_distribution
):
    # The paper's headline: a 10 t_180 pulse under a peak-power cap keeps
    # over 98% of the magnetization for offsets up to 3.2 times the maximum
    # RF amplitude, with +-10% RF inhomogeneity.  Read here as a full width
    # of 3.2 a_max: +-8 kHz at a_max = 5 kHz (t_180 = 100 us, so the 1 ms
    # oct_rfi is 10 t_180), RF scales 0.9-1.1, the analysis_distribution
    # ensemble.  Do not retune that reading or the ensemble to pass.
    # Measured: M_inf 0.990585; the y-train minimum 0.981276, at echo 1.
    _, fit = oct_channel
    assert fit.m_infinity >= 0.98
    # The y-train ensemble average at echo k is the (y, y) entry of the
    # k-fold half-cycle channel: equal to simulate_train's average (7e-15
    # apart over echoes 1-20) without its (1000, P, 3) Bloch array.
    d = analysis_distribution
    half = half_cycle_propagators(pulse_propagators(oct_rfi, d), TAU, d)
    train = channel.transfer_of_unitaries(*axis_angle(half), d.weights, 1000)[:, 2, 2]
    assert train.min() >= 0.98, f"echo {train.argmin() + 1}: {train.min():.6f}"
