import numpy as np
import pytest

from ocpulse import propagation
from ocpulse.pulses import (
    MAX_RANGE_POINTS,
    EnsembleDistribution,
    PulseWaveform,
    check_points,
    hard_pulse,
    uniform_ladder_distribution,
    waveform_template,
)

A_MAX = 2 * np.pi * 5000.0  # reference hardware cap, 5 kHz nutation


def test_hard_pulse_reference_pi():
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    assert p.n_steps == 1
    assert p.dt == pytest.approx(1e-4)  # 100 us
    assert p.duration == pytest.approx(1e-4)
    assert p.total_duration == pytest.approx(1e-4)
    assert p.amplitudes[0] == A_MAX
    assert p.phases[0] == pytest.approx(np.pi / 2)


def test_hard_pulse_durations_scale():
    assert hard_pulse(np.pi / 2, 0.0, A_MAX).duration == pytest.approx(50e-6)
    # doubling the cap halves the pi time
    assert hard_pulse(np.pi, 0.0, 2 * A_MAX).duration == pytest.approx(50e-6)
    assert hard_pulse(0.8, 0.0, A_MAX).duration == pytest.approx(0.8 / A_MAX)


def test_hard_pulse_validation():
    with pytest.raises(ValueError, match="nutation"):
        hard_pulse(0.0, 0.0, A_MAX)
    with pytest.raises(ValueError, match="a_max"):
        hard_pulse(np.pi, 0.0, -1.0)
    for nutation in (np.inf, np.nan):
        with pytest.raises(ValueError, match="nutation must be positive and finite"):
            hard_pulse(nutation, 0.0, A_MAX)
    for a_max in (np.inf, np.nan):
        with pytest.raises(ValueError, match="a_max must be positive and finite"):
            hard_pulse(np.pi, 0.0, a_max)
    for phase in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="phase must be finite"):
            hard_pulse(np.pi, phase, A_MAX)


def test_waveform_validation():
    with pytest.raises(ValueError, match="same length"):
        PulseWaveform(1e-6, np.zeros(3), np.zeros(2), A_MAX)
    with pytest.raises(ValueError, match="dt"):
        PulseWaveform(0.0, np.zeros(3), np.zeros(3), A_MAX)
    with pytest.raises(ValueError, match="a_max"):
        PulseWaveform(1e-6, np.zeros(3), np.zeros(3), np.inf)
    with pytest.raises(ValueError, match="guard"):
        PulseWaveform(1e-6, np.zeros(3), np.zeros(3), A_MAX, pre_delay=-1e-6)
    with pytest.raises(ValueError, match="finite"):
        PulseWaveform(1e-6, np.array([np.nan]), np.array([0.0]), A_MAX)


@pytest.mark.parametrize("amps, phases", [
    ([np.nan], [0.0]), ([1.0, np.inf], [0.0, 1.0]), ([1.0], [np.nan]), ([1.0, 2.0], [0.0, -np.inf]),
])
def test_waveform_rejects_nonfinite_steps(amps, phases):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as err:
        PulseWaveform(1e-6, np.array(amps), np.array(phases), A_MAX)
    assert str(err.value) == "step values must be finite"


@pytest.mark.parametrize("offsets, rf_scales, message", [
    (np.nan, [1.0], "offsets must be finite"),
    ([0.0, -np.inf], [1.0, 1.0], "offsets must be finite"),
    (0.0, [1.0, np.inf], "rf_scales must be positive and finite"),
    (0.0, [0.9, -1.1], "rf_scales must be positive and finite"),
    (0.0, 0.0, "rf_scales must be positive and finite"),
])
def test_check_points_takes_scalars_and_sequences(offsets, rf_scales, message):
    # a scalar offset and a list of scales, as the RF stage of the ladder
    # passes them
    check_points(0.0, [0.9, 1.0])
    check_points(np.zeros(3), 1.0)
    with pytest.raises(ValueError) as err:
        check_points(offsets, rf_scales)
    assert str(err.value) == message


def test_waveform_wraps_phases_and_freezes_arrays():
    p = PulseWaveform(1e-6, np.ones(2), np.array([-np.pi / 2, 2 * np.pi + 0.1]), A_MAX)
    assert np.allclose(p.phases, [3 * np.pi / 2, 0.1])
    with pytest.raises(ValueError):
        p.amplitudes[0] = 0.0


def test_empty_waveform_is_constructible():
    p = PulseWaveform(1e-6, np.zeros(0), np.zeros(0), A_MAX)
    assert p.n_steps == 0
    assert p.duration == 0.0


def test_cartesian_controls():
    p = PulseWaveform(1e-6, np.array([1.0, 2.0]), np.array([0.0, np.pi / 2]), A_MAX)
    c = p.cartesian_controls()
    assert c.shape == (2, 2)
    assert np.allclose(c, [[1.0, 0.0], [0.0, 2.0]], atol=1e-15)


def test_with_steps_keeps_timing():
    p = waveform_template(4, 2e-6, A_MAX, pre_delay=1e-6, post_delay=3e-6)
    q = p.with_steps(np.full(4, 0.5 * A_MAX), np.full(4, -0.25))
    assert q.dt == p.dt and q.pre_delay == p.pre_delay and q.post_delay == p.post_delay
    assert np.allclose(q.amplitudes, 0.5 * A_MAX)
    assert np.allclose(q.phases, 2 * np.pi - 0.25)  # rewrapped


def test_symmetrized_hard_90_is_the_hard_180():
    # same constant Hamiltonian, so the propagators agree at every
    # (offset, rf_scale), not just on resonance
    h90 = hard_pulse(np.pi / 2, 0.0, A_MAX)
    # the 90 followed by its time-reversed, phase-reversed copy: at phase 0
    # both halves are the same step
    sym = PulseWaveform(h90.dt, np.full(2, A_MAX), np.zeros(2), A_MAX)
    h180 = hard_pulse(np.pi, 0.0, A_MAX)
    assert sym.duration == pytest.approx(h180.duration)
    d = EnsembleDistribution.product(
        2 * np.pi * 1e3 * np.array([-7.0, -2.0, 0.0, 3.3]), [0.9, 1.0, 1.1]
    )
    Ua = propagation.pulse_propagators(sym, d)
    Ub = propagation.pulse_propagators(h180, d)
    assert np.allclose(Ua, Ub, atol=1e-13)


def test_waveform_template():
    p = waveform_template(10, 2e-6, A_MAX, pre_delay=1e-6, post_delay=3e-6)
    assert p.n_steps == 10 and p.a_max == A_MAX
    assert np.array_equal(p.amplitudes, np.zeros(10))
    assert np.array_equal(p.phases, np.zeros(10))
    assert p.duration == pytest.approx(20e-6)
    assert p.pre_delay == 1e-6 and p.post_delay == 3e-6


def test_distribution_validation():
    with pytest.raises(ValueError, match="equal length"):
        EnsembleDistribution(np.zeros(2), np.ones(2), np.array([1.0]))
    with pytest.raises(ValueError, match="at least one"):
        EnsembleDistribution(np.zeros(0), np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError, match="positive"):
        EnsembleDistribution(np.array([0.0, 1.0]), np.ones(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="sum to 1"):
        EnsembleDistribution(np.array([0.0, 1.0]), np.ones(2), np.array([0.6, 0.6]))
    with pytest.raises(ValueError, match="duplicate"):
        EnsembleDistribution(np.zeros(2), np.ones(2), np.full(2, 0.5))


@pytest.mark.parametrize("offsets, rf_scales", [
    # the repeat is neither next to its twin in the given order nor in
    # offset order alone
    ([3.0, 1.0, -2.0, 1.0, 5.0], [1.1, 0.9, 1.0, 0.9, 0.9]),
    # -0.0 and 0.0 are the same offset
    ([0.0, 4.0, -0.0], [1.0, 1.0, 1.0]),
])
def test_distribution_rejects_duplicates_anywhere(offsets, rf_scales):
    w = np.full(len(offsets), 1.0 / len(offsets))
    with pytest.raises(ValueError, match="duplicate"):
        EnsembleDistribution(np.array(offsets), np.array(rf_scales), w)


@pytest.mark.parametrize(
    "offsets, rf_scales, weights, message",
    [
        ([0.0, np.nan], [1.0, 1.0], [0.5, 0.5], "offsets must be finite"),
        ([0.0, np.inf], [1.0, 1.0], [0.5, 0.5], "offsets must be finite"),
        ([0.0, 1.0], [1.0, np.nan], [0.5, 0.5], "rf_scales must be positive and finite"),
        ([0.0, 1.0], [1.0, -0.9], [0.5, 0.5], "rf_scales must be positive and finite"),
        ([0.0, 1.0], [1.0, 0.0], [0.5, 0.5], "rf_scales must be positive and finite"),
        ([0.0, 1.0], [1.0, 1.0], [1.0, np.nan], "weights must be strictly positive"),
    ],
    ids=["nan-offset", "inf-offset", "nan-rf", "negative-rf", "zero-rf", "nan-weight"],
)
def test_distribution_rejects_bad_points(offsets, rf_scales, weights, message):
    with pytest.raises(ValueError, match=message):
        EnsembleDistribution(np.array(offsets), np.array(rf_scales), np.array(weights))


def test_distribution_product_order_and_weights():
    d = EnsembleDistribution.product([-1.0, 1.0], [0.9, 1.0, 1.1])
    assert d.n_points == 6
    assert np.allclose(d.offsets, [-1, -1, -1, 1, 1, 1])  # offset-major
    assert np.allclose(d.rf_scales, [0.9, 1.0, 1.1, 0.9, 1.0, 1.1])
    assert np.allclose(d.weights, 1 / 6)
    s = EnsembleDistribution.single_point()
    assert s.n_points == 1 and s.offsets[0] == 0.0 and s.rf_scales[0] == 1.0


def test_uniform_ladder_counts():
    khz = 2 * np.pi * 1e3
    d = uniform_ladder_distribution(8 * khz, 0.25 * khz)
    assert d.n_points == 65  # 2*32 + 1
    assert uniform_ladder_distribution(0.0, 0.25 * khz).n_points == 1
    d5 = uniform_ladder_distribution(8 * khz, 0.25 * khz, rf_scales=(0.9, 0.95, 1.0, 1.05, 1.1))
    assert d5.n_points == 65 * 5


def test_uniform_ladder_exact_comb_without_jitter():
    khz = 2 * np.pi * 1e3
    d = uniform_ladder_distribution(2 * khz, khz)
    assert np.allclose(np.sort(d.offsets), khz * np.array([-2, -1, 0, 1, 2]), atol=1e-9)
    assert np.allclose(d.weights, 0.2)


def test_uniform_ladder_jitter_reproducible_and_bounded():
    khz = 2 * np.pi * 1e3
    a = uniform_ladder_distribution(8 * khz, 0.25 * khz, jitter_fraction=0.1, seed=3)
    b = uniform_ladder_distribution(8 * khz, 0.25 * khz, jitter_fraction=0.1, seed=3)
    assert np.array_equal(a.offsets, b.offsets)
    c = uniform_ladder_distribution(8 * khz, 0.25 * khz, jitter_fraction=0.1, seed=4)
    assert not np.array_equal(a.offsets, c.offsets)
    base = np.arange(-32, 33) * 0.25 * khz
    assert np.all(np.abs(a.offsets - base) <= 0.1 * np.abs(base) + 1e-9)
    assert a.offsets[32] == 0.0  # center point stays on resonance
    gaps = np.diff(np.sort(a.offsets))
    assert gaps.std() > 0.0  # spacings deliberately unequal


def test_uniform_ladder_errors():
    khz = 2 * np.pi * 1e3
    for delta in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            uniform_ladder_distribution(khz, delta)
    with pytest.raises(ValueError, match="jitter"):
        uniform_ladder_distribution(khz, khz, jitter_fraction=0.5)
    for half_bandwidth in (-khz, np.nan, np.inf):
        with pytest.raises(ValueError, match="half_bandwidth must be nonnegative and finite"):
            uniform_ladder_distribution(half_bandwidth, khz)
    with pytest.raises(ValueError, match="spacing"):
        uniform_ladder_distribution(0.5 * khz, khz)
    # 2 * 50000 + 1 offsets is the cap; one comb step more is refused
    assert uniform_ladder_distribution(50000 * khz, khz).n_points == MAX_RANGE_POINTS
    for half_bandwidth in (50001 * khz, 1e9 * khz):
        with pytest.raises(ValueError, match="more than the cap of 100001"):
            uniform_ladder_distribution(half_bandwidth, khz)
    with pytest.raises(ValueError, match="distribution must contain at least one point"):
        uniform_ladder_distribution(khz, khz, rf_scales=())
