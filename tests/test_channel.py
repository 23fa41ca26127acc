import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocpulse import channel, fileio
from ocpulse.channel import (
    asymptotic_channel,
    choi_kraus,
    choi_matrix,
    cycle_time,
    fit_pauli_model,
    offdiagonal_parts,
    pauli_probabilities,
    superoperator_sequence,
    transfer_of_unitaries,
)
from ocpulse.echo_train import simulate_train
from ocpulse.propagation import cycle_propagators
from ocpulse.pulses import EnsembleDistribution, PulseWaveform, hard_pulse
from ocpulse.su2 import PAULIS, axis_angle

from oracles import expm_su2, rotation_matrices

A_MAX = 2 * np.pi * 5000.0
TAU = 1e-3
HARD = hard_pulse(np.pi, np.pi / 2, A_MAX)


def pauli_diagonal(probs):
    pi_, px, py, pz = probs
    return np.diag([1.0, pi_ + px - py - pz, pi_ - px + py - pz, pi_ - px - py + pz])


def kraus_transfer(pairs):
    """Rebuild the transfer matrix from [(prob, A), ...]."""
    R = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            acc = 0.0
            for prob, A in pairs:
                acc += prob * np.trace(PAULIS[a] @ A @ PAULIS[b] @ A.conj().T).real
            R[a, b] = 0.5 * acc
    return R


def test_transfer_of_unitaries_examples():
    # unitaries enter as Cayley-Klein pairs, the first rows of the matrices
    assert np.allclose(transfer_of_unitaries(np.array([1.0, 0.0]), [1.0]), np.eye(4))
    # pi about y flips x and z
    R = transfer_of_unitaries(expm_su2([0, 1, 0], np.pi)[0], [1.0])
    assert np.allclose(R, np.diag([1.0, -1.0, 1.0, -1.0]), atol=1e-12)
    # equal mixture of identity and pi-about-y kills x and z, keeps y
    U = np.stack([[1.0, 0.0], expm_su2([0, 1, 0], np.pi)[0]])
    R = transfer_of_unitaries(U, [0.5, 0.5])
    assert np.allclose(R, np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-12)


def test_transfer_is_trace_preserving_and_unital():
    rng = np.random.default_rng(0)
    axes = rng.normal(size=(6, 3))
    U = np.stack([expm_su2(a / np.linalg.norm(a), t)[0]
                  for a, t in zip(axes, rng.uniform(0, np.pi, 6))])
    w = rng.dirichlet(np.ones(6))
    R = transfer_of_unitaries(U, w)
    assert np.allclose(R[0], [1, 0, 0, 0], atol=1e-14)
    assert np.allclose(R[:, 0], [1, 0, 0, 0], atol=1e-14)


def _explicit_power(U, w, n):
    """Weighted mean over points of matrix_power(transfer of U_k, n), with
    each point's transfer matrix built from its quaternion rotation matrix."""
    R = np.zeros((len(U), 4, 4))
    R[:, 0, 0] = 1.0
    R[:, 1:, 1:] = rotation_matrices(U)
    return sum(wk * np.linalg.matrix_power(Rk, n) for wk, Rk in zip(w, R))


def test_transfer_counts_match_single_calls_and_matrix_powers(monkeypatch):
    # stacked counts against per-count calls and explicit per-point matrix
    # powers; 18 count x point elements over 6 points make blocks of 3
    # counts and a ragged last block (the default puts all in one block,
    # as test_sequence_matches_powered_build covers)
    monkeypatch.setattr(channel, "_POWER_BLOCK_ELEMENTS", 18)
    rng = np.random.default_rng(5)
    random_pulse = PulseWaveform(
        1e-5, rng.uniform(0, A_MAX, 10), rng.uniform(0, 2 * np.pi, 10), A_MAX)
    d = EnsembleDistribution.product(2 * np.pi * np.array([-3e3, 0.0, 6e3]), [0.95, 1.0])
    counts = np.array([1, 7, 1000, 4096])
    for p in (random_pulse, None, HARD):
        U = cycle_propagators(p, TAU, d.offsets, d.rf_scales)
        stacked = transfer_of_unitaries(U, d.weights, counts)
        assert stacked.shape == (4, 4, 4)
        for n, got in zip(counts, stacked):
            single = transfer_of_unitaries(U, d.weights, n)
            assert single.shape == (4, 4)
            assert np.allclose(got, single, rtol=0.0, atol=1e-15)
            assert np.allclose(got, _explicit_power(U, d.weights, n), rtol=0.0, atol=1e-11)


def test_consecutive_counts_by_angle_addition_match_direct_calls(monkeypatch):
    # counts 1..4096 over 6 points in blocks of 2500 counts: the angle-
    # addition recurrence runs 2499 steps, restarts at 2501 and runs 1595
    # more.  Each row against its own direct call (a scalar count, always
    # evaluated by cos and sin).  Measured worst deviation 3.35e-13, at
    # n = 3343 for the random pulse (3.2e-13 at n = 3647 for the hard
    # pulse); direct evaluation itself rounds n theta by up to half an ulp,
    # 9.1e-13 at n = 4096 here.  At the largest accepted --cycles, 100001
    # consecutive counts in one block over these 6 points deviate by at
    # most 1.1e-11.
    monkeypatch.setattr(channel, "_POWER_BLOCK_ELEMENTS", 6 * 2500)
    rng = np.random.default_rng(5)
    random_pulse = PulseWaveform(
        1e-5, rng.uniform(0, A_MAX, 10), rng.uniform(0, 2 * np.pi, 10), A_MAX)
    d = EnsembleDistribution.product(2 * np.pi * np.array([-3e3, 0.0, 6e3]), [0.95, 1.0])
    counts = np.arange(1, 4097)
    for p in (random_pulse, HARD):
        U = cycle_propagators(p, TAU, d.offsets, d.rf_scales)
        stacked = transfer_of_unitaries(U, d.weights, counts)
        single = np.stack([transfer_of_unitaries(U, d.weights, n) for n in counts])
        assert np.max(np.abs(stacked - single)) <= 4e-13
        # each block starts from a direct evaluation (carried on without
        # the restart, n = 2501 measured 3.9e-14 off)
        for n in (1, 2501):
            assert np.max(np.abs(stacked[n - 1] - single[n - 1])) <= 1e-15


def test_sequence_matches_powered_build():
    # closed-form powers against explicit per-point matrix powers, out past
    # 1024 cycles; the ideal cycle is -I (no axis) and the hard pulse's
    # on-resonance cycle is (pi about y)^2
    rng = np.random.default_rng(1)
    random_pulse = PulseWaveform(
        1e-5, rng.uniform(0, A_MAX, 10), rng.uniform(0, 2 * np.pi, 10), A_MAX)
    d = EnsembleDistribution.product(2 * np.pi * np.array([-3e3, 0.0, 6e3]), [0.95, 1.0])
    for p in (random_pulse, None, HARD):
        U = cycle_propagators(p, TAU, d.offsets, d.rf_scales)
        seq = superoperator_sequence(p, TAU, d, 4096)
        assert seq.shape == (4096, 4, 4)
        for n in (1, 7, 1000, 4096):
            expect = _explicit_power(U, d.weights, n)
            assert np.allclose(seq[n - 1], expect, atol=1e-11)
            direct = superoperator_sequence(p, TAU, d, n)[-1]
            assert np.allclose(direct, expect, atol=1e-11)
        if p is None:
            assert np.allclose(seq[-1], np.eye(4), atol=1e-11)


def test_sequence_memory_stays_linear_in_points():
    # 1000 cycles over 33,621 points: the parent's per-n matrices and
    # one-pass pulse product peaked at 363 MiB; measured here about 29 MiB
    rng = np.random.default_rng(10)
    p = PulseWaveform(1e-5, rng.uniform(0, A_MAX, 100), rng.uniform(0, 2 * np.pi, 100), A_MAX)
    d = EnsembleDistribution.product(
        np.linspace(-2 * np.pi * 8e3, 2 * np.pi * 8e3, 1601), np.linspace(0.9, 1.1, 21))
    tracemalloc.start()
    try:
        seq = superoperator_sequence(p, TAU, d, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq) == 1000
    assert peak < 48 * 2**20


def test_input_validation():
    d = EnsembleDistribution.single_point()
    with pytest.raises(ValueError, match="n_max"):
        superoperator_sequence(HARD, TAU, d, 0)
    with pytest.raises(ValueError, match="4, 4"):
        pauli_probabilities(np.eye(3))
    with pytest.raises(ValueError, match="4, 4"):
        choi_kraus(np.eye(3))


def test_choi_kraus_unitary_channel():
    s = transfer_of_unitaries(expm_su2([0.3, 0.8, 0.52], 1.4)[0], [1.0])
    pairs = choi_kraus(s)
    assert len(pairs) == 1
    prob, A = pairs[0]
    assert prob == pytest.approx(1.0, abs=1e-10)
    # A equals U up to a global phase: compare conjugation actions
    assert np.allclose(kraus_transfer(pairs), s, atol=1e-8)
    assert np.allclose(A @ A.conj().T, np.eye(2), atol=1e-8)


def test_choi_kraus_t2_dephasing_snapshot():
    # transverse decay e^{-t/T2} sampled at t = T2
    lam = np.exp(-1.0)
    s = np.diag([1.0, lam, lam, 1.0])
    probs, residual = pauli_probabilities(s)
    assert residual == 0.0
    assert np.allclose(probs, [0.6839, 0.0, 0.0, 0.3161], atol=5e-5)
    kraus_probs = sorted((p for p, _ in choi_kraus(s)), reverse=True)
    assert np.allclose(kraus_probs, [0.6839, 0.3161], atol=5e-5)


def test_choi_kraus_depolarizing():
    s = np.diag([1.0, 0.0, 0.0, 0.0])
    pairs = choi_kraus(s)
    assert len(pairs) == 4
    assert np.allclose([p for p, _ in pairs], 0.25, atol=1e-10)
    total = sum(p * (A @ A.conj().T) for p, A in pairs)
    assert np.allclose(total, np.eye(2), atol=1e-10)


def test_choi_kraus_rejects_bad_channels():
    with pytest.raises(ValueError, match="trace preserving"):
        choi_kraus(np.diag([0.9, 1.0, 1.0, 1.0]))
    # an impossible "channel": transfer diag outside the CP tetrahedron
    with pytest.raises(ValueError, match="completely positive"):
        choi_kraus(np.diag([1.0, 1.2, 1.2, 1.2]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_kraus_reconstructs_random_pauli_channels(raw):
    probs = np.array(raw) / np.sum(raw)
    s = pauli_diagonal(probs)
    pairs = choi_kraus(s)
    assert np.allclose(kraus_transfer(pairs), s, atol=1e-8)
    # pauli channels are unital, so the flipped completeness sum holds too
    total = sum(p * (A @ A.conj().T) for p, A in pairs)
    assert np.allclose(total, np.eye(2), atol=1e-8)
    got, residual = pauli_probabilities(s)
    assert residual == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.sort(got), np.sort([p for p, _ in pairs] + [0.0] * (4 - len(pairs))),
                       atol=1e-8)


def test_pauli_probabilities_reports_offdiagonal_residual():
    R = np.diag([1.0, 0.5, 0.5, 0.8])
    R[1, 3] = 0.3
    probs, residual = pauli_probabilities(R)
    assert residual == pytest.approx(0.3, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # a (2, 3, 4, 4) stack gives each matrix's own result: the probabilities
    # bit for bit, the residuals up to the summation order of the norm
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(2, 3, 4, 4))
    stack[..., 0, :] = [1.0, 0.0, 0.0, 0.0]
    stack[0, 0] = R
    probs, residual = pauli_probabilities(stack)
    assert probs.shape == (2, 3, 4) and residual.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        one_probs, one_residual = pauli_probabilities(stack[idx])
        assert np.array_equal(probs[idx], one_probs)
        assert abs(residual[idx] - one_residual) <= 1e-15


def test_choi_matrix_identity_channel():
    C = choi_matrix(np.eye(4))
    evals = np.sort(np.linalg.eigvalsh(C))
    assert np.allclose(evals, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_asymptotic_channel_pure_y_axis():
    # on resonance at rf 0.9 the cycle is a non-degenerate rotation about
    # y, so the asymptotic map projects onto y exactly
    d = EnsembleDistribution.single_point(0.0, 0.9)
    U = cycle_propagators(HARD, TAU, d.offsets, d.rf_scales)
    s = asymptotic_channel(U, d.weights)
    assert s.shape == (4, 4)
    assert np.allclose(s, np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-12)


def test_asymptotic_channel_of_identity_cycles_is_identity():
    # every ideal cycle is -I, and so is the hard pulse's on resonance at
    # rf 1: such points never dephase, so n -> infinity keeps the identity
    d = EnsembleDistribution.product(2 * np.pi * np.array([-3e3, 0.0, 6e3]), [0.95, 1.0])
    seq = superoperator_sequence(None, TAU, d, 50)
    asym = asymptotic_channel(cycle_propagators(None, TAU, d.offsets, d.rf_scales), d.weights)
    assert np.allclose(asym, np.eye(4), rtol=0.0, atol=1e-15)
    assert np.max(np.abs(seq[-1] - asym)) <= 1e-12
    d1 = EnsembleDistribution.single_point(0.0, 1.0)
    on_resonance = asymptotic_channel(
        cycle_propagators(HARD, TAU, d1.offsets, d1.rf_scales), d1.weights)
    assert np.allclose(on_resonance, np.eye(4), rtol=0.0, atol=1e-12)


def test_asymptotic_matches_ergodic_mean_single_point():
    # one isochromat never converges at fixed n (the map stays unitary);
    # the asymptotic channel is the n-average, so compare against the
    # running mean of the whole sequence
    d = EnsembleDistribution.single_point(2 * np.pi * 1300.0)
    seq = superoperator_sequence(HARD, TAU, d, 10_000)
    mean = np.mean(seq, axis=0)
    asym = asymptotic_channel(cycle_propagators(HARD, TAU, d.offsets, d.rf_scales), d.weights)
    assert np.max(np.abs(mean - asym)) < 0.02
    # while a single late snapshot is still far away
    assert np.max(np.abs(seq[-1] - asym)) > 0.2


def test_symmetric_offsets_cancel_y_cross_terms():
    # y-phase pulses obey U(-dw) = sigma_y U(dw) sigma_y, so averaging a
    # symmetric pair zeroes the (x,y) and (y,z) blocks but not (x,z)
    d = EnsembleDistribution(
        2 * np.pi * np.array([-2700.0, 2700.0]), np.ones(2), np.full(2, 0.5)
    )
    R = superoperator_sequence(HARD, TAU, d, 5)[-1]
    for i, j in ((1, 2), (2, 1), (2, 3), (3, 2)):
        assert abs(R[i, j]) < 1e-12
    assert abs(R[1, 3]) > 0.5


def test_cycle_time():
    assert cycle_time(None, TAU) == pytest.approx(4e-3)
    assert cycle_time(HARD, TAU) == pytest.approx(4e-3 + 2e-4)
    p = PulseWaveform(1e-5, np.zeros(100), np.zeros(100), A_MAX,
                      pre_delay=6e-6, post_delay=6e-6)
    assert cycle_time(p, TAU) == pytest.approx(4e-3 + 2 * 1.012e-3)


def test_fit_recovers_synthetic_exponential():
    # the diagonal transfer matrices of Pauli channels with a known decay
    c_i, c_x, c_z, n0 = 0.6, 0.1, 0.05, 7.0
    n = np.arange(1, 61)
    pi_n = c_i + (1 - c_i) * np.exp(-n / n0)
    probs = np.stack(
        [pi_n, np.full(60, c_x), 1.0 - pi_n - c_x - c_z, np.full(60, c_z)], axis=1
    )
    lam = probs @ np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    R = np.zeros((60, 4, 4))
    R[:, 0, 0] = 1.0
    R[:, [1, 2, 3], [1, 2, 3]] = lam
    fit = fit_pauli_model(R, 4.2e-3)
    assert np.allclose(fit.per_cycle_probs, probs, rtol=0.0, atol=1e-15)
    assert fit.t2_pulse_cycles == pytest.approx(n0, abs=0.1)
    assert fit.t2_pulse == pytest.approx(n0 * 4.2e-3, abs=0.1 * 4.2e-3)
    assert fit.c_i == pytest.approx(c_i, abs=1e-2)
    assert fit.m_infinity == pytest.approx(c_i + 0.25 - c_x - c_z, abs=1e-2)
    # a diagonal stack is all Pauli channel
    assert fit.fit_overlap == pytest.approx(1.0, rel=0.0, abs=1e-15)

    # plus a coherent rotation about y at cycle 8: an antisymmetric x-z
    # pair +-s that the diagonal cannot hold
    s = 0.05
    R[7, 1, 3], R[7, 3, 1] = s, -s
    diag_sq = 1.0 + np.sum(lam[7] ** 2)
    coherent = fit_pauli_model(R, 4.2e-3)
    assert coherent.fit_overlap == pytest.approx(
        np.sqrt(diag_sq / (diag_sq + 2 * s**2)), rel=0.0, abs=1e-15)
    assert coherent.fit_overlap < 0.999
    assert coherent.t2_pulse_cycles == fit.t2_pulse_cycles
    assert coherent.m_infinity == fit.m_infinity


def test_fit_ideal_channel_infinite_t2():
    fit = fit_pauli_model(np.broadcast_to(np.eye(4), (10, 4, 4)), 4e-3)
    assert np.isinf(fit.t2_pulse)
    assert np.isinf(fit.t2_pulse_cycles)
    assert fit.m_infinity == pytest.approx(1.0)
    assert fit.fit_overlap == 1.0


def test_fit_input_validation():
    identity = np.broadcast_to(np.eye(4), (5, 4, 4))
    with pytest.raises(ValueError, match="3 cycles"):
        fit_pauli_model(identity[:2], 4e-3)
    with pytest.raises(ValueError, match="3 cycles"):
        fit_pauli_model(np.eye(4), 4e-3)
    with pytest.raises(ValueError, match="4, 4"):
        fit_pauli_model(np.zeros((5, 4)), 4e-3)
    with pytest.raises(ValueError, match="cycle time"):
        fit_pauli_model(identity, 0.0)
    # the depolarizing channel: every probability 0.25
    depolarizing = np.broadcast_to(np.diag([1.0, 0.0, 0.0, 0.0]), (5, 4, 4))
    for t_c in (np.nan, np.inf):
        with pytest.raises(ValueError, match="cycle time must be positive and finite"):
            fit_pauli_model(depolarizing, t_c)


def test_hard_pulse_m_infinity_matches_train_tail(analysis_distribution, hard_channel):
    _, fit = hard_channel
    train = simulate_train(HARD, TAU, analysis_distribution, "y", n_echoes=200)
    even = train.ensemble_average[1::2]  # echo 2n closes cycle n
    assert abs(fit.m_infinity - np.mean(even[-25:])) < 0.01


def test_hard_pulse_fit_overlap_above_universal_floor(hard_channel):
    _, fit = hard_channel
    assert fit.fit_overlap >= 0.99
    assert 0.0 < fit.m_infinity < 1.0
    assert np.isfinite(fit.t2_pulse)


@pytest.fixture(scope="module", params=["hard", "oct_rfi", "oct_broadband"])
def cycle_moments(request, analysis_distribution):
    """Cycle axes r, angles theta, weights and the n = 1 .. 100 transfer
    stack of one pulse on the analysis ensemble, with the reference sums
    over points of cos(n theta) and sin(n theta) taken directly."""
    d = analysis_distribution
    p = HARD if request.param == "hard" else fileio.reference_waveform(request.param)
    U = cycle_propagators(p, TAU, d.offsets, d.rf_scales)
    r, theta = axis_angle(U)
    phi = np.arange(1, 101)[:, None] * theta
    cos, w = np.cos(phi), d.weights
    return {
        "r": r, "w": w,
        "R": transfer_of_unitaries(U, w, np.arange(1, 101)),
        "cos": cos @ w,
        "cos_rr": cos @ (w[:, None] * r**2),
        "c": np.sin(phi) @ (w[:, None] * r),
    }


def test_identity_weight_is_the_mean_cosine_of_the_cycle_angles(cycle_moments):
    # p_I(n) = (1 + sum w cos n theta) / 2: T2,pulse reads only the spread
    # of the cycle angles
    m = cycle_moments
    p_i = pauli_probabilities(m["R"])[0][:, 0]
    assert np.max(np.abs(p_i - 0.5 * (1.0 + m["cos"]))) <= 2e-15


def test_transfer_diagonal_from_axis_moments(cycle_moments):
    # diag R_n = sum w r_k^2 + sum w (1 - r_k^2) cos n theta
    m = cycle_moments
    fixed = m["w"] @ m["r"]**2
    want = fixed + m["cos"][:, None] - m["cos_rr"]
    got = np.diagonal(m["R"], axis1=-2, axis2=-1)[:, 1:]
    assert np.max(np.abs(got - want)) <= 1e-14


def test_antisymmetric_part_is_the_coherent_vector(cycle_moments):
    # (R_n - R_n^T)/2 = [c(n)]x with c(n) = sum w sin(n theta) r, and the
    # coherent residual is its norm, sqrt(2) |c(n)|
    m = cycle_moments
    R, c = m["R"], m["c"]
    anti = 0.5 * (R - np.swapaxes(R, -2, -1))
    want = np.zeros_like(anti)
    want[:, [3, 1, 2], [2, 3, 1]] = c
    want[:, [2, 3, 1], [3, 1, 2]] = -c
    assert np.max(np.abs(anti - want)) <= 2.5e-16
    coherent = offdiagonal_parts(R)[0]
    assert np.max(np.abs(coherent - np.sqrt(2.0) * np.linalg.norm(c, axis=-1))) <= 2.5e-16


@pytest.mark.xfail(
    strict=True,
    reason="the optimized pulse's averaged cycle keeps a coherent y rotation "
    "(residual <sin n-theta r_y> ~ 0.065 near n = 8) that a diagonal Pauli "
    "model cannot absorb; overlap measures 0.99975",
)
def test_oct_pulse_fit_overlap_point_nine_four_nines(oct_channel):
    _, fit = oct_channel
    assert fit.fit_overlap >= 0.9999
