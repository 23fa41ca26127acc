import tracemalloc

import numpy as np
import pytest

from ocpulse import propagation as prop
from ocpulse.pulses import EnsembleDistribution, PulseWaveform, hard_pulse, waveform_template
from ocpulse.su2 import SIGMA_X, SIGMA_Y, SIGMA_Z, ck_expm_polar, pair_buffer

from oracles import ck_expm, ck_matrix, ck_product, expm_su2, points, rotation_matrices

A_MAX = 2 * np.pi * 5000.0


def _expm_hamiltonian(H, dt):
    """exp(-i H dt) of a Hermitian 2x2 H by eigendecomposition."""
    evals, evecs = np.linalg.eigh(H)
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


def test_step_propagators_match_hamiltonian_exponential():
    # H = (dw / 2) Z + (s A / 2)(cos(phi) X + sin(phi) Y): phase 0 drives
    # x, phase pi/2 drives y, the offset drives z, and the rf scale s
    # multiplies only the transverse part
    dt = 3e-6
    cases = [
        (A_MAX, 0.0, 0.0, 1.0, 0.5 * A_MAX * SIGMA_X),
        (A_MAX, np.pi / 2, 0.0, 1.0, 0.5 * A_MAX * SIGMA_Y),
        (0.0, 0.0, 2 * np.pi * 800.0, 1.0, 0.5 * 2 * np.pi * 800.0 * SIGMA_Z),
        (A_MAX, 0.0, 1e3, 0.5, 0.25 * A_MAX * SIGMA_X + 0.5e3 * SIGMA_Z),
        (A_MAX, 2.1, -2e4, 1.1, 0.55 * A_MAX * (np.cos(2.1) * SIGMA_X + np.sin(2.1) * SIGMA_Y)
         - 1e4 * SIGMA_Z),
    ]
    for amp, phase, dw, scale, H in cases:
        p = PulseWaveform(dt, [amp], [phase], A_MAX)
        pair = prop.step_propagators(p, [dw], [scale])[1]
        U = _expm_hamiltonian(H, dt)
        # Cayley-Klein storage: the pair is the first row of the SU(2) step
        assert np.allclose(pair[0], U[0], atol=1e-14)
        assert np.allclose(U[1], [-np.conj(U[0, 1]), np.conj(U[0, 0])], atol=1e-14)


def test_free_propagator_matches_z_rotation():
    # free precession is the zero-drive exponential: a turn by dw t about z
    dw = 2 * np.pi * 1234.0
    t = 3.7e-4
    for w in (0.0, dw, -dw):
        assert np.allclose(ck_matrix(ck_expm_polar(0.0, 0.0, w, t)),
                           expm_su2([0, 0, 1], w * t), rtol=0.0, atol=1e-14)
    batch = ck_matrix(ck_expm_polar(0.0, 0.0, [0.0, dw, -dw], t))
    assert batch.shape == (3, 2, 2)
    assert np.array_equal(batch[0], np.eye(2))
    assert np.array_equal(batch[2], batch[1].conj())


def test_hard_pulse_propagator_on_resonance():
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    U = ck_matrix(prop.pulse_propagators(p, EnsembleDistribution.single_point())[0])
    assert np.allclose(U, expm_su2([0, 1, 0], np.pi), atol=1e-12)
    # half rf amplitude gives half the nutation
    U = ck_matrix(prop.pulse_propagators(p, EnsembleDistribution.single_point(0.0, 0.5))[0])
    assert np.allclose(U, expm_su2([0, 1, 0], np.pi / 2), atol=1e-12)


def test_hard_pulse_propagator_off_resonance_closed_form():
    # offset equal to the rf amplitude: effective field along (y+z)/sqrt(2),
    # nutation angle sqrt(2) * pi over the nominal 100 us
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    U = ck_matrix(prop.pulse_propagators(p, EnsembleDistribution.single_point(A_MAX))[0])
    expect = expm_su2([0, 1 / np.sqrt(2), 1 / np.sqrt(2)], np.sqrt(2) * np.pi)
    assert np.allclose(U, expect, atol=1e-12)


def test_guards_are_free_precession():
    # the first and last step rows are the zero-drive exponentials of the
    # guard delays, whatever the drive and RF scale of the steps
    rng = np.random.default_rng(4)
    dw = 2 * np.pi * 2000.0
    p = PulseWaveform(1e-5, rng.uniform(0, A_MAX, 3), rng.uniform(0, 2 * np.pi, 3), A_MAX,
                      pre_delay=4e-5, post_delay=2e-5)
    offs = np.array([0.0, dw, -dw])
    X = prop.step_propagators(p, offs, [1.0, 0.9, 1.1])
    for row, t in ((0, p.pre_delay), (-1, p.post_delay)):
        assert np.array_equal(X[row], ck_expm_polar(0.0, 0.0, offs, t))
        for i, w in enumerate(offs):
            assert np.allclose(ck_matrix(X[row, i]), expm_su2([0, 0, 1], w * t),
                               rtol=0.0, atol=1e-14)
    # a zero-amplitude waveform precesses freely for its whole duration
    p = waveform_template(3, 1e-5, A_MAX, pre_delay=4e-5, post_delay=2e-5)
    u = prop.pulse_propagators(p, EnsembleDistribution.single_point(dw))[0]
    assert np.allclose(ck_matrix(u), expm_su2([0, 0, 1], dw * p.total_duration), atol=1e-13)


def test_a_zero_length_guard_is_the_identity_pair():
    # so a pulse without guards keeps the bits of its steps alone: the
    # one-step hard pulse is its step row
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    offs = 2 * np.pi * np.array([-3e3, 0.0, 5e3])
    d = points(offs, [0.9, 1.0, 1.1])
    X = prop.step_propagators(p, offs, d.rf_scales)
    for row in (0, -1):
        assert np.array_equal(X[row, :, 0].real, np.ones(3))
        assert not X[row, :, 0].imag.any() and not X[row, :, 1].any()
    assert np.array_equal(prop.pulse_propagators(p, d), X[1])


@pytest.mark.parametrize("n", [0, 1, 5])
def test_step_array_has_a_guard_row_at_each_end(n):
    # (n_steps + 2, P, 2), and the step rows keep the bits of the step
    # exponentials taken without guards
    rng = np.random.default_rng(n)
    p = PulseWaveform(2e-6, rng.uniform(0, A_MAX, n), rng.uniform(0, 2 * np.pi, n), A_MAX,
                      pre_delay=1e-5, post_delay=3e-5)
    offs = 2 * np.pi * np.array([-3e3, 0.0, 5e3, 8e3])
    scales = np.array([0.9, 1.0, 1.1, 1.2])
    X = prop.step_propagators(p, offs, scales)
    assert X.shape == (n + 2, 4, 2)
    steps = ck_expm_polar(p.amplitudes[:, None] * scales, p.phases[:, None], offs, p.dt)
    assert np.array_equal(X[1:-1], steps)


def test_pulse_propagator_is_ordered_step_product():
    rng = np.random.default_rng(5)
    p = PulseWaveform(
        2e-6, rng.uniform(0, A_MAX, 6), rng.uniform(0, 2 * np.pi, 6), A_MAX,
        pre_delay=1e-5, post_delay=3e-5,
    )
    offs = np.array([0.0, 2 * np.pi * 3e3, -2 * np.pi * 7e3])
    assert prop.step_propagators(p, offs, np.ones(3)).shape == (8, 3, 2)
    got = ck_matrix(prop.pulse_propagators(p, points(offs, np.ones(3))))
    for i, dw in enumerate(offs):
        U = expm_su2([0, 0, 1], dw * p.pre_delay)
        for amp, phase in zip(p.amplitudes, p.phases):
            omega = np.array([amp * np.cos(phase), amp * np.sin(phase), dw])
            w = np.linalg.norm(omega)
            U = expm_su2(omega / w, w * p.dt) @ U  # later steps multiply from the left
        U = expm_su2([0, 0, 1], dw * p.post_delay) @ U
        assert np.allclose(got[i], U, atol=1e-13)


def test_pulse_propagators_chunked_equals_per_slice_product():
    # 2.5 chunks plus a ragged tail: every slice equals the single-pass
    # product over that slice, and a point alone gives the same bits
    rng = np.random.default_rng(8)
    p = PulseWaveform(
        2e-6, rng.uniform(0, A_MAX, 7), rng.uniform(0, 2 * np.pi, 7), A_MAX,
        pre_delay=1e-5, post_delay=3e-5,
    )
    P = 5 * prop.POINT_CHUNK // 2 + 37
    offs = rng.uniform(-2 * np.pi * 1e4, 2 * np.pi * 1e4, P)
    scales = rng.uniform(0.8, 1.2, P)
    got = prop.pulse_propagators(p, points(offs, scales))
    assert got.shape == (P, 2)
    for i in range(0, P, prop.POINT_CHUNK):
        o, s = offs[i:i + prop.POINT_CHUNK], scales[i:i + prop.POINT_CHUNK]
        whole = prop.forward_products(prop.step_propagators(p, o, s))
        assert np.array_equal(got[i:i + prop.POINT_CHUNK], whole)
    for i in (0, prop.POINT_CHUNK, P - 1):
        alone = points(offs[i:i + 1], scales[i:i + 1])
        assert np.array_equal(got[i], prop.pulse_propagators(p, alone)[0])


def _tree_buffers(steps):
    """A spare level and a scratch plane for the ordered product of ``steps``."""
    level = ((len(steps) + 1) // 2,) + steps.shape[1:-1]
    return pair_buffer(level), np.empty(level, dtype=complex)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100, 101, 201])
def test_forward_products_are_the_ordered_prefixes(n):
    # n steps between two guard rows, as step_propagators lays them out:
    # the scan's prefix j is S_j ... S_0, as a plain matmul loop gives it,
    # and its last prefix is the pairwise tree's product to the bit
    rng = np.random.default_rng(n)
    steps = ck_expm(np.moveaxis(rng.normal(size=(n + 2, 3, 3)), -1, 0), 0.7)
    prefixes = steps.copy()
    total = prop.forward_products(prefixes)
    X = np.eye(2)
    for j in range(n + 2):
        X = ck_matrix(steps[j]) @ X
        assert np.allclose(ck_matrix(prefixes[j]), X, rtol=0, atol=1e-14)
    assert np.allclose(ck_matrix(total), X, rtol=0, atol=1e-14)
    assert np.array_equal(prop.ordered_product(steps.copy(), *_tree_buffers(steps)), total)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100, 101])
def test_scan_into_caller_buffers_keeps_the_bits(n):
    # the second chunk of a plane-major buffer POINT_CHUNK + 37 points wide,
    # n steps between two guard rows, scanned with a chunk-wide spare level
    # and scratch plane, holds the prefixes of the allocating scan, and its
    # last prefix is the pairwise tree's product to the bit
    rng = np.random.default_rng(n + 1)
    width, rows = prop.POINT_CHUNK + 37, n + 2
    steps = ck_expm(np.moveaxis(rng.normal(size=(rows, width, 3)), -1, 0), 0.7)
    want = steps.copy()
    total = prop.forward_products(want)
    assert np.array_equal(prop.ordered_product(steps.copy(), *_tree_buffers(steps)), total)
    chunk = slice(prop.POINT_CHUNK, width)
    X = pair_buffer((rows, width))
    X[...] = steps
    last = prop.forward_products(X[:, chunk], pair_buffer((rows, 37)),
                                 np.empty((rows, 37), dtype=complex))
    assert np.array_equal(X[:, chunk], want[:, chunk])
    assert np.array_equal(X[:, :prop.POINT_CHUNK], steps[:, :prop.POINT_CHUNK])
    assert np.array_equal(last, total[chunk])
    # prefixes left in an interleaved buffer equal them too
    inter = np.ascontiguousarray(steps[:, chunk])
    assert np.array_equal(prop.forward_products(inter), total[chunk])
    assert np.array_equal(inter, want[:, chunk])
    # the tree in the same chunk of a plane-major buffer, with a spare level
    # and a scratch plane cut from POINT_CHUNK-wide buffers as
    # pulse_propagators cuts them for a ragged last chunk
    tree = pair_buffer((rows, width))
    tree[...] = steps
    level = ((rows + 1) // 2, prop.POINT_CHUNK)
    spare, scratch = pair_buffer(level), np.empty(level, dtype=complex)
    got = prop.ordered_product(tree[:, chunk], spare[:, :37], scratch[:, :37])
    alone = steps[:, chunk].copy()
    assert np.array_equal(got, prop.ordered_product(alone, *_tree_buffers(alone)))
    assert np.array_equal(got, total[chunk])
    assert np.array_equal(tree[:, :prop.POINT_CHUNK], steps[:, :prop.POINT_CHUNK])


def test_step_propagators_into_a_chunk_view_keep_the_bits():
    rng = np.random.default_rng(17)
    p = PulseWaveform(1e-5, rng.uniform(0, A_MAX, 100), rng.uniform(0, 2 * np.pi, 100), A_MAX)
    width = prop.POINT_CHUNK + 37
    offs = rng.uniform(-2 * np.pi * 1e4, 2 * np.pi * 1e4, width)
    scales = rng.uniform(0.8, 1.2, width)
    want = prop.step_propagators(p, offs, scales)
    X = pair_buffer((102, width))
    for chunk in prop.point_chunks(width):
        got = prop.step_propagators(p, offs[chunk], scales[chunk], out=X[:, chunk])
        assert np.shares_memory(got, X)
    assert np.array_equal(X, want)


def test_pulse_propagators_memory_does_not_grow_with_steps_times_points():
    # 100 steps x 33,621 points held 363 MiB of step arrays in one pass;
    # in 256-point chunks the traced peak measures about 5 MiB
    rng = np.random.default_rng(9)
    p = PulseWaveform(1e-5, rng.uniform(0, A_MAX, 100), rng.uniform(0, 2 * np.pi, 100), A_MAX)
    d = EnsembleDistribution.product(
        np.linspace(-2 * np.pi * 8e3, 2 * np.pi * 8e3, 1601), np.linspace(0.9, 1.1, 21))
    tracemalloc.start()
    try:
        prop.pulse_propagators(p, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_offset_sign_symmetry_for_x_phase_pulses():
    # sigma_x H(dw) sigma_x = H(-dw) when all phases are 0
    rng = np.random.default_rng(6)
    p = PulseWaveform(2e-6, rng.uniform(0, A_MAX, 5), np.zeros(5), A_MAX)
    dw = 2 * np.pi * 4.2e3
    Up, Um = ck_matrix(prop.pulse_propagators(p, points([dw, -dw], [1.0, 1.0])))
    assert np.allclose(Um, SIGMA_X @ Up @ SIGMA_X, atol=1e-12)


def test_ideal_pulse_sentinel():
    # the target pair has the bits, signed zeros included, of the first row
    # of the matrix exp(-i pi/2 Y), and the ideal pulse is that pair at
    # every point
    bits = prop.TARGET_PI_Y.view(np.float64).view(np.uint64)
    assert prop.TARGET_PI_Y.shape == (2,)
    assert np.array_equal(bits, expm_su2([0, 1, 0], np.pi)[0].view(np.float64).view(np.uint64))
    offs = 2 * np.pi * np.array([-5e3, 0.0, 1e3])
    u = prop.pulse_propagators(None, points(offs, np.ones(3)))
    assert u.shape == (3, 2)
    for i in range(3):
        assert np.array_equal(u[i].view(np.float64).view(np.uint64), bits)


def test_ideal_cycle_is_minus_identity_everywhere():
    offs = 2 * np.pi * np.array([-8e3, -1.3e3, 0.0, 0.4e3, 8e3])
    d = points(offs, np.ones(5))
    C = ck_matrix(prop.cycle_propagators(prop.pulse_propagators(None, d), 1e-3, d))
    for i in range(5):
        assert np.allclose(C[i], -np.eye(2), atol=1e-12)


def test_hard_cycle_on_resonance_is_minus_identity():
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    d = EnsembleDistribution.single_point()
    C = ck_matrix(prop.cycle_propagators(prop.pulse_propagators(p, d), 1e-3, d)[0])
    assert np.allclose(C, -np.eye(2), atol=1e-12)


def test_cycle_is_square_of_half_cycle():
    # f(tau) U f(2 tau) U f(tau) == (f(tau) U f(tau))^2
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    offs = 2 * np.pi * np.array([-6e3, 1.7e3])
    scales = np.array([1.05, 0.92])
    d = points(offs, scales)
    U = prop.pulse_propagators(p, d)
    half = ck_matrix(prop.half_cycle_propagators(U, 1e-3, d))
    full = ck_matrix(prop.cycle_propagators(U, 1e-3, d))
    f1, f2 = (np.array([expm_su2([0, 0, 1], w * t) for w in offs]) for t in (1e-3, 2e-3))
    u = ck_matrix(U)
    assert np.allclose(full, f1 @ u @ f2 @ u @ f1, atol=1e-13)
    assert np.allclose(full, half @ half, atol=1e-13)


def test_half_cycle_and_cycle_keep_the_bits_of_allocating_products():
    # one scratch plane and buffers reused between the products change no bit
    rng = np.random.default_rng(12)
    p = PulseWaveform(2e-6, rng.uniform(0, A_MAX, 9), rng.uniform(0, 2 * np.pi, 9), A_MAX,
                      pre_delay=1e-5, post_delay=3e-5)
    d = points(rng.uniform(-2 * np.pi * 1e4, 2 * np.pi * 1e4, 300), rng.uniform(0.8, 1.2, 300))
    U = prop.pulse_propagators(p, d)
    f = ck_expm_polar(0.0, 0.0, d.offsets, 1e-3)
    half = ck_product(ck_product(f, U), f)
    assert np.array_equal(prop.half_cycle_propagators(U, 1e-3, d), half)
    assert np.array_equal(prop.cycle_propagators(U, 1e-3, d), ck_product(half, half))


def test_negative_tau_rejected():
    d = EnsembleDistribution.single_point()
    U = prop.pulse_propagators(None, d)
    with pytest.raises(ValueError, match="tau"):
        prop.cycle_propagators(U, -1e-3, d)
    with pytest.raises(ValueError, match="tau"):
        prop.half_cycle_propagators(U, -1e-3, d)
    # nan < 0 is false, so non-finite values need their own check
    for tau in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            prop.cycle_propagators(U, tau, d)
        with pytest.raises(ValueError, match="tau must be finite"):
            prop.half_cycle_propagators(U, tau, d)


@pytest.mark.parametrize("pick", [
    lambda U: U[0], lambda U: U[:1], lambda U: np.concatenate([U, U[:1]]), lambda U: U.T,
], ids=["one-pair", "one-point", "four-points", "transposed"])
def test_cycle_takes_one_pulse_pair_per_point(pick):
    # pairs of another ensemble would broadcast against d's free precession
    d = points(2 * np.pi * np.array([-1e3, 0.0, 2e3]), np.ones(3))
    U = pick(prop.pulse_propagators(None, d))
    for build in (prop.half_cycle_propagators, prop.cycle_propagators):
        with pytest.raises(ValueError, match=r"need \(3, 2\) pulse pairs, one per point"):
            build(U, 1e-3, d)


def test_ensemble_propagators_pointwise():
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    d = EnsembleDistribution.product(2 * np.pi * np.array([-2e3, 0.0, 5e3]), [0.9, 1.1])
    ens = prop.pulse_propagators(p, d)
    assert ens.shape == (6, 2)
    for i, (dw, s) in enumerate(zip(d.offsets, d.rf_scales)):
        alone = EnsembleDistribution.single_point(dw, s)
        assert np.allclose(ens[i], prop.pulse_propagators(p, alone)[0], atol=1e-14)


def test_trajectory_times_layout():
    p = waveform_template(4, 1e-5, A_MAX, pre_delay=2e-5, post_delay=3e-5)
    t = prop.trajectory_times(p)
    assert t.shape == (7,)
    assert np.allclose(t, [0.0, 2e-5, 3e-5, 4e-5, 5e-5, 6e-5, 9e-5])


def test_bloch_trajectory_hard_90_about_y():
    p = hard_pulse(np.pi / 2, np.pi / 2, A_MAX)
    traj = prop.bloch_trajectory(p, 0.0)
    assert traj.shape == (4, 3)
    assert np.allclose(traj[0], [0, 0, 1])
    assert np.allclose(traj[-1], [1, 0, 0], atol=1e-12)  # y rotation tips z onto x
    assert np.allclose(np.linalg.norm(traj, axis=1), 1.0, atol=1e-12)


def test_bloch_trajectory_matches_propagator_endpoint():
    rng = np.random.default_rng(7)
    p = PulseWaveform(
        2e-6, rng.uniform(0, A_MAX, 8), rng.uniform(0, 2 * np.pi, 8), A_MAX,
        pre_delay=5e-6, post_delay=1e-5,
    )
    m_in = np.array([0.6, -0.48, 0.64])
    m_in /= np.linalg.norm(m_in)
    dw, s = 2 * np.pi * 3.1e3, 1.07
    traj = prop.bloch_trajectory(p, dw, s, m_in)
    R = rotation_matrices(prop.pulse_propagators(p, EnsembleDistribution.single_point(dw, s))[0])
    assert np.allclose(traj[-1], R @ m_in, atol=1e-12)
    assert np.allclose(np.linalg.norm(traj, axis=1), 1.0, atol=1e-10)


def test_bloch_trajectory_free_precession_sense():
    # pure guard at offset dw for time t rotates the Bloch vector by
    # +dw*t about z (x toward y), same convention as expm_su2
    p = waveform_template(1, 1e-9, A_MAX, pre_delay=0.25 / 1000.0)
    dw = 2 * np.pi * 1000.0  # quarter turn over the pre guard
    traj = prop.bloch_trajectory(p, dw, m_in=(1.0, 0.0, 0.0))
    assert np.allclose(traj[1], [0, 1, 0], atol=1e-5)


def test_bloch_trajectory_input_validation():
    p = hard_pulse(np.pi, 0.0, A_MAX)
    with pytest.raises(ValueError, match="3-vector"):
        prop.bloch_trajectory(p, 0.0, m_in=(1.0, 0.0))
    with pytest.raises(ValueError, match="unit"):
        prop.bloch_trajectory(p, 0.0, m_in=(0.5, 0.0, 0.0))
