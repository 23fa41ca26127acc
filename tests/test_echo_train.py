import numpy as np
import pytest

from ocpulse.echo_train import EchoTrainResult, echo_visibility_sweep, simulate_train
from ocpulse.propagation import half_cycle_propagators, pulse_propagators
from ocpulse.pulses import EnsembleDistribution, PulseWaveform, hard_pulse
from ocpulse.su2 import quaternions

from oracles import rotation_matrices

A_MAX = 2 * np.pi * 5000.0
TAU = 1e-3  # echo spacing 2 ms
KHZ = 2 * np.pi * 1e3

HARD = hard_pulse(np.pi, np.pi / 2, A_MAX)


def offset_distribution(n=301, seed=42, half_bw=8 * KHZ):
    rng = np.random.default_rng(seed)
    offs = np.sort(rng.uniform(-half_bw, half_bw, n))
    return EnsembleDistribution(offs, np.ones(n), np.full(n, 1.0 / n))


def test_ideal_pulse_refocuses_perfectly():
    d = offset_distribution(51)
    res = simulate_train(None, TAU, d, "y", n_echoes=40)
    assert np.allclose(res.per_isochromat, 1.0, atol=1e-12)
    assert np.allclose(res.ensemble_average, 1.0, atol=1e-12)


def test_result_layout_and_weighted_average():
    d = offset_distribution(17)
    res = simulate_train(HARD, TAU, d, "y", n_echoes=25)
    assert isinstance(res, EchoTrainResult)
    assert res.n_echoes == 25
    assert res.per_isochromat.shape == (25, 17)
    assert res.bloch.shape == (25, 17, 3)
    assert np.array_equal(res.per_isochromat, res.bloch[:, :, 1])
    assert np.allclose(res.ensemble_average, res.per_isochromat @ d.weights, atol=1e-15)
    # unitary dynamics: unit Bloch vectors at every echo
    assert np.allclose(np.linalg.norm(res.bloch, axis=2), 1.0, atol=1e-9)
    assert np.all(np.abs(res.per_isochromat) <= 1.0 + 1e-12)


def test_cpmg_retains_more_than_cp():
    # same hard pulse, same offsets: y input (CPMG) must beat x input (CP)
    # at every echo; the x signal also has to actually decay
    d = offset_distribution()
    ry = simulate_train(HARD, TAU, d, "y", 200).ensemble_average
    rx = simulate_train(HARD, TAU, d, "x", 200).ensemble_average
    assert np.all(ry >= rx - 1e-9)
    assert np.mean(np.abs(rx[-50:])) < 0.1
    assert np.mean(ry[-50:]) > 0.5


def test_simulation_is_power_then_average():
    # isochromats evolve independently; averaging a 2-point ensemble's
    # rotations before powering gives a visibly different answer
    d = EnsembleDistribution(
        np.array([-300.0, 500.0]) * 2 * np.pi, np.ones(2), np.full(2, 0.5)
    )
    res = simulate_train(HARD, TAU, d, "y", n_echoes=10)
    rot = rotation_matrices(half_cycle_propagators(pulse_propagators(HARD, d), TAU, d))
    y = np.array([0.0, 1.0, 0.0])
    m0, m1, mavg = y.copy(), y.copy(), y.copy()
    r_avg = 0.5 * (rot[0] + rot[1])
    for _ in range(10):
        m0, m1, mavg = rot[0] @ m0, rot[1] @ m1, r_avg @ mavg
    assert res.ensemble_average[9] == pytest.approx(0.5 * (m0[1] + m1[1]), abs=1e-12)
    assert abs(mavg[1] - res.ensemble_average[9]) > 0.01


def test_input_validation():
    d = EnsembleDistribution.single_point()
    with pytest.raises(ValueError, match="input_axis"):
        simulate_train(HARD, TAU, d, "q")
    with pytest.raises(ValueError, match="n_echoes"):
        simulate_train(HARD, TAU, d, "y", n_echoes=0)


def test_visibility_sweep_matches_train_pointwise():
    offs = np.array([-2 * KHZ, 0.0, 5 * KHZ])
    scales = np.array([0.9, 1.1])
    sweep = echo_visibility_sweep(HARD, TAU, offs, scales, echo_indices=(1, 2, 7))
    assert sweep.retained.shape == (3, 2, 3)
    for i, dw in enumerate(offs):
        for s, rf in enumerate(scales):
            d = EnsembleDistribution.single_point(float(dw), float(rf))
            train = simulate_train(HARD, TAU, d, "y", n_echoes=7)
            for e, k in enumerate((1, 2, 7)):
                assert sweep.retained[i, s, e] == pytest.approx(
                    train.per_isochromat[k - 1, 0], abs=1e-12
                )


def test_visibility_rows_layout():
    # retained[i, s, e] is offset i, RF scale s, echo echo_indices[e] (1-based)
    sweep = echo_visibility_sweep(None, TAU, [0.0, KHZ], [1.0], echo_indices=(1, 3))
    assert sweep.retained.shape == (2, 1, 2)
    assert (sweep.offsets[0], sweep.rf_scales[0], sweep.echo_indices[0]) == (0.0, 1.0, 1)
    assert sweep.retained[0, 0, 0] == pytest.approx(1.0)
    assert (sweep.offsets[1], sweep.rf_scales[0], sweep.echo_indices[1]) == (KHZ, 1.0, 3)
    assert sweep.retained[1, 0, 1] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="1-based"):
        echo_visibility_sweep(None, TAU, [0.0], [1.0], echo_indices=(0, 1))


@pytest.mark.parametrize("pulse", ["hard", "random", "ideal"])
def test_echo_500_matches_explicit_rotation_loop(pulse):
    # closed-form echo powers against 500 explicit rotation-matrix steps;
    # the hard pulse's on-resonance half cycle is a pi rotation about y,
    # whose quaternion has q0 = 0 and takes the sign tie-break
    rng = np.random.default_rng(3)
    p = {
        "hard": HARD,
        "random": PulseWaveform(
            1e-5, rng.uniform(0, A_MAX, 10), rng.uniform(0, 2 * np.pi, 10), A_MAX),
        "ideal": None,
    }[pulse]
    offsets, scales = np.array([-3.0, 0.0, 1.7]) * KHZ, np.array([0.95, 1.0])
    d = EnsembleDistribution.product(offsets, scales)
    half = half_cycle_propagators(pulse_propagators(p, d), TAU, d)
    if pulse == "hard":
        assert abs(quaternions(half[3])[0]) < 1e-12
    rot = rotation_matrices(half)
    m = np.tile([0.0, 1.0, 0.0], (d.n_points, 1))
    for _ in range(500):
        m = np.einsum("pij,pj->pi", rot, m)
    train = simulate_train(p, TAU, d, "y", n_echoes=500)
    assert np.allclose(train.bloch[-1], m, atol=1e-11)
    sweep = echo_visibility_sweep(p, TAU, offsets, scales, echo_indices=(500, 1))
    assert np.allclose(sweep.retained[..., 0], m[:, 1].reshape(3, 2), atol=1e-11)
    assert np.allclose(sweep.retained[..., 1], train.bloch[0, :, 1].reshape(3, 2), atol=1e-14)
