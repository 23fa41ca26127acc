import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocpulse import su2
from ocpulse.propagation import POINT_CHUNK, TARGET_PI_Y, step_propagators
from ocpulse.pulses import PulseWaveform
from ocpulse.su2 import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    axis_angle,
    ck_inv,
    ck_mul,
    pair_buffer,
    quaternions,
    rotate_vectors,
    unitarity_error,
)

from oracles import (
    ck_expm, ck_expm_polar_strided, ck_matrix, expm_su2, rotation_matrices, rotation_matrix,
    trace_overlap,
)

angles = st.floats(1e-6, 2 * np.pi - 1e-6)
components = st.floats(-1.0, 1.0)


def random_axes(draw_x, draw_y, draw_z):
    v = np.array([draw_x, draw_y, draw_z])
    return v


def test_expm_su2_pi_about_y():
    U = expm_su2([0, 1, 0], np.pi)
    assert np.allclose(U, np.array([[0, -1], [1, 0]]), atol=1e-15)
    assert np.allclose(U, -1j * SIGMA_Y, atol=1e-15)


def test_expm_su2_zero_angle_is_identity():
    assert np.allclose(expm_su2([0.3, -0.2, 0.9], 0.0), ID2)


def test_expm_su2_half_pi_about_z():
    U = expm_su2([0, 0, 1], np.pi / 2)
    expect = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    assert np.allclose(U, expect, atol=1e-15)


def test_expm_su2_degenerate_axis():
    with pytest.raises(ValueError, match="degenerate axis"):
        expm_su2([0, 0, 0], 0.5)
    assert np.allclose(expm_su2([0, 0, 0], 0.0), ID2)


def test_axis_angle_round_trip_simple():
    # pairs are the first rows of the matrices
    axis, theta = axis_angle((-1j * SIGMA_Y)[0])
    assert theta == pytest.approx(np.pi)
    assert np.allclose(axis, [0, 1, 0], atol=1e-12)

    axis, theta = axis_angle(ID2[0])
    assert theta == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(axis, np.zeros(3))  # no axis, not nan

    axis, theta = axis_angle(expm_su2([1, 0, 0], 0.3)[0])
    assert theta == pytest.approx(0.3, abs=1e-12)
    assert np.allclose(axis, [1, 0, 0], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(components, components, components, angles, st.sampled_from([1.0, -1.0]))
def test_axis_angle_inverts_expm_up_to_phase(x, y, z, angle, sign):
    # a pair carries no global phase but its sign: U and -U
    v = np.array([x, y, z])
    n = np.linalg.norm(v)
    if n < 1e-3:
        return
    U = sign * expm_su2(v / n, angle)
    axis, theta = axis_angle(U[0])
    # (theta, r) and (2pi - theta, -r) are the same rotation; the
    # decomposition picks theta in [0, pi], so recompose instead of
    # comparing components directly.
    V = expm_su2(axis, theta)
    assert trace_overlap(U, V) >= 1 - 1e-10
    assert 0.0 <= theta <= np.pi + 1e-12
    if np.sin(theta / 2) > 1e-9:
        assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-12)


def test_trace_overlap_examples():
    U = expm_su2([0.2, 0.5, -0.3], 1.1)
    assert trace_overlap(U, U) == pytest.approx(1.0)
    assert trace_overlap(-1j * SIGMA_Y, ID2) == pytest.approx(0.0, abs=1e-15)
    got = trace_overlap(expm_su2([0, 1, 0], np.pi - 0.1), expm_su2([0, 1, 0], np.pi))
    assert got == pytest.approx(np.sin((np.pi - 0.1) / 2) ** 2, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(angles, st.floats(-np.pi, np.pi))
def test_trace_overlap_global_phase_invariant(angle, alpha):
    U = expm_su2([0.6, -0.8, 0.0], angle)
    V = expm_su2([0.0, 0.36, 0.93], 0.7)
    assert trace_overlap(np.exp(1j * alpha) * U, V) == pytest.approx(
        trace_overlap(U, V), abs=1e-12
    )


def test_ck_expm_matches_expm_su2():
    rng = np.random.default_rng(0)
    omega = rng.normal(size=(7, 3)) * 1e4
    dt = 1e-5
    batch = ck_matrix(ck_expm(omega.T, dt))
    for i in range(7):
        w = np.linalg.norm(omega[i])
        assert np.allclose(batch[i], expm_su2(omega[i] / w, w * dt), atol=1e-13)
    # the zero rotation vector takes the guarded limit k = dt/2
    assert np.allclose(ck_matrix(ck_expm(np.zeros(3), dt)), ID2, atol=1e-15)


def test_ck_expm_polar_matches_the_closed_form_rotation():
    # the step formula (a tangent half-angle, no sine or cosine) against
    # cos(h) I - i sin(h) n.sigma taken directly, h = |omega| dt / 2, on
    # rates to 2 pi x 14 kHz over steps to 100 us (turns to 7.1 rad here;
    # measured worst entry gap 5.6e-16)
    rng = np.random.default_rng(21)
    amp = rng.uniform(0.0, 2 * np.pi * 1e4, 200)
    phase = rng.uniform(0.0, 2 * np.pi, 200)
    wz = rng.uniform(-2 * np.pi * 1e4, 2 * np.pi * 1e4, 200)
    dt = rng.uniform(0.0, 1e-4, 200)
    pairs = ck_matrix(su2.ck_expm_polar(amp, phase, wz, dt))
    omega = np.stack([amp * np.cos(phase), amp * np.sin(phase), wz], axis=-1)
    rate = np.linalg.norm(omega, axis=-1)
    want = np.stack([rotation_matrix(w, r * t) for w, r, t in zip(omega, rate, dt)])
    assert np.max(np.abs(pairs - want)) <= 2e-15
    # omega = 0 is the identity
    assert np.array_equal(ck_matrix(su2.ck_expm_polar(0.0, 0.0, 0.0, 1e-5)), ID2)
    # the optimizer's target, pi about y
    assert np.max(np.abs(ck_matrix(TARGET_PI_Y) - rotation_matrix([0, 1, 0], np.pi))) <= 2e-16


def test_ck_expm_is_exact_at_and_near_zero_rotation():
    # k = sin(h) / |omega| against its series (dt/2)(1 - h^2/6), with
    # h = |omega| dt / 2, from |omega| = 1e-300 (whose squared components
    # underflow to 0, so the guarded limit dt/2 is taken) up to 1e-6 (where
    # the h^2 term is 4e-14 of k); k is read back from a and b
    dt = 1.0
    scale = 10.0 ** np.arange(-300, -5)
    wx, wz = 0.6 * scale, 0.8 * scale
    pairs = ck_expm((wx, 0.0, wz), dt)
    h = 0.5 * scale * dt
    series = 0.5 * dt * (1.0 - h * h / 6.0)
    for k in (-pairs[:, 0].imag / wz, -pairs[:, 1].imag / wx):
        assert np.all(np.isfinite(k))
        assert np.allclose(k, series, rtol=1e-15, atol=0.0)
    assert np.array_equal(pairs[:, 1].real, np.zeros(scale.size))
    # omega = 0 is the identity pair, exactly
    assert np.array_equal(ck_expm(np.zeros(3), 1e-5), np.array([1.0, 0.0]))
    # zero and non-zero rows in one batch: no nan and no 0/0 warning, and
    # each row has the bits it has alone
    omega = np.array([[0.0, 0.0, 0.0], [1e4, -2e4, 3e4], [0.0, 0.0, 0.0], [0.0, 5e-310, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = ck_expm(omega.T, 1e-5)
    assert not np.any(np.isnan(batch))
    for row, got in zip(omega, batch):
        assert np.array_equal(got, ck_expm(row, 1e-5))
    assert np.array_equal(batch[0], np.array([1.0, 0.0]))
    assert batch[3, 1].real == -0.5e-5 * 5e-310
    # the step exponentials of a strided slice of points, and of one point
    # alone, are the columns of the whole batch's, bit for bit
    rng = np.random.default_rng(12)
    p = PulseWaveform(1e-5, rng.uniform(0, 3e4, 9), rng.uniform(0, 2 * np.pi, 9), 3e4)
    offs = rng.uniform(-6e4, 6e4, 301)
    scales = rng.uniform(0.8, 1.2, 301)
    steps = step_propagators(p, offs, scales)
    assert np.array_equal(step_propagators(p, offs[5::7], scales[5::7]), steps[:, 5::7])
    for i in (0, 150, 300):
        assert np.array_equal(step_propagators(p, [offs[i]], [scales[i]])[:, 0], steps[:, i])


def _tangent_cases():
    """Half angles h = |omega| dt / 2 for the tangent form: a grid over
    [0, 3 pi], h/2 within 1e-12 of pi/2 (where tan(h/2) reaches 1e12-1e16),
    and the 100 us hard pi pulse at +-8 kHz and RF 1.1 (h about 3.05)."""
    grid = np.linspace(0.0, 3 * np.pi, 3001)
    near = np.pi + 2 * np.array([-1e-12, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-12])
    near = np.concatenate([near, np.nextafter(np.pi, 0.0) + np.arange(-3, 4) * 2 ** -51])
    a_max = 2 * np.pi * 5000.0
    rate = np.hypot(1.1 * a_max, 2 * np.pi * 8000.0)
    return np.concatenate([grid, near, [0.5 * rate * np.pi / a_max]])


def test_tangent_form_is_unitary_and_matches_libm_over_three_pi():
    h = _tangent_cases()
    t = np.tan(0.5 * h)
    assert np.abs(t).max() > 1e15  # the largest tangents are reached
    rng = np.random.default_rng(13)
    # |omega| = 2h over unit duration, split into a transverse part at a
    # random phase and a z part; the first row is pure z (and h = 0), the
    # second transverse up to a z part of 6e-17 of it
    split = np.concatenate([[0.0, 0.5 * np.pi], rng.uniform(0, 2 * np.pi, h.size - 2)])
    amp, wz = 2 * h * np.sin(split), 2 * h * np.cos(split)
    phase = rng.uniform(0, 2 * np.pi, h.size)
    pairs = su2.ck_expm_polar(amp, phase, wz, 1.0)
    a, b = pairs[:, 0], pairs[:, 1]
    assert np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0).max() <= 2e-15
    for i in range(h.size):
        # the kernel's |omega| and h, which math then takes sin and cos of
        norm = math.sqrt(amp[i] * amp[i] + wz[i] * wz[i])
        hi = norm * 0.5
        k = math.sin(hi) / norm if norm else 0.5
        expect_a = complex(math.cos(hi), -k * wz[i])
        expect_b = k * amp[i] * complex(-math.sin(phase[i]), -math.cos(phase[i]))
        assert abs(a[i] - expect_a) <= 1e-15, (h[i], a[i], expect_a)
        assert abs(b[i] - expect_b) <= 1e-15, (h[i], b[i], expect_b)


def test_long_products_stay_unitary():
    # drift budget: 1e5 sequential multiplications
    rng = np.random.default_rng(1)
    U = ID2[0]
    step = expm_su2(rng.normal(size=3), 0.013)[0]
    for _ in range(100):
        for _ in range(1000):
            U = ck_mul(step, U)
    assert unitarity_error(U) < 1e-10


def test_cayley_klein_pairs_multiply_like_matrices():
    rng = np.random.default_rng(3)
    x = ck_expm(rng.normal(size=(4, 3)).T, 0.7)
    y = ck_expm(rng.normal(size=(4, 3)).T, 1.3)
    X, Y = ck_matrix(x), ck_matrix(y)
    assert np.array_equal(X[:, 0, :], x)
    assert np.allclose(ck_matrix(ck_mul(x, y)), X @ Y, atol=1e-14)
    assert np.allclose(ck_matrix(ck_inv(x)), X.conj().swapaxes(-1, -2), atol=1e-15)
    assert np.allclose(np.linalg.det(X), 1.0, atol=1e-14)



def test_ck_mul_rounding_does_not_depend_on_batch_size():
    # one call over 20,000 pairs, where numpy would reuse temporaries in
    # place, must give the bits of the same pairs multiplied in slices
    rng = np.random.default_rng(11)
    x = ck_expm(rng.normal(size=(20000, 3)).T, 1.0)
    y = ck_expm(rng.normal(size=(20000, 3)).T, 1.0)
    whole = ck_mul(x, y)
    sliced = [ck_mul(x[i:i + 100], y[i:i + 100]) for i in range(0, 20000, 100)]
    assert np.array_equal(np.concatenate(sliced), whole)
    # a batch of one and a lone pair take the same bits too
    for i in range(100):
        assert np.array_equal(ck_mul(x[i:i + 1], y[i:i + 1])[0], whole[i])
        assert np.array_equal(ck_mul(x[i], y[i]), whole[i])


KERNEL_SHAPES = [(1,), (99, 1), (99, 45), (100, 256)]


def _layouts(pairs):
    """The pairs interleaved, plane-major, and as the first chunk of a
    plane-major buffer POINT_CHUNK + 37 points wide (a strided view)."""
    shape = pairs.shape[:-1]
    plane = pair_buffer(shape)
    wide = pair_buffer(shape[:-1] + (POINT_CHUNK + 37,))[..., :shape[-1], :]
    plane[...] = wide[...] = pairs
    return [np.ascontiguousarray(pairs), plane, wide]


def _scratches(shape):
    wide = np.empty(shape[:-1] + (POINT_CHUNK + 37,), dtype=complex)
    return [None, np.empty(shape, dtype=complex), wide[..., :shape[-1]]]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_ck_mul_into_caller_buffers_keeps_the_bits(shape):
    # out= and scratch= in every layout, on operands in every layout, give
    # the bits of the allocating call on interleaved operands
    rng = np.random.default_rng(shape[0] * shape[-1])
    x = np.ascontiguousarray(ck_expm(rng.normal(size=(3, *shape)), 0.7))
    y = np.ascontiguousarray(ck_expm(rng.normal(size=(3, *shape)), 1.3))
    want = ck_mul(x, y)
    for i, (xs, ys) in enumerate(itertools.product(_layouts(x), _layouts(y))):
        assert np.array_equal(ck_mul(xs, ys), want)
        scratches = _scratches(shape)
        scratches = scratches[i % 3:] + scratches[:i % 3]
        for out, scratch in zip(_layouts(np.zeros(shape + (2,), dtype=complex)), scratches):
            assert ck_mul(xs, ys, out=out, scratch=scratch) is out
            assert np.array_equal(out, want)
    # a right factor broadcast over the leading axis, as the gradient's M is
    want = ck_mul(x, y[0])
    for out in _layouts(np.zeros(shape + (2,), dtype=complex)):
        assert np.array_equal(ck_mul(x, _layouts(y)[2][0], out=out), want)


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_ck_expm_polar_into_caller_buffers_keeps_the_bits(shape):
    rng = np.random.default_rng(shape[0] + shape[-1])
    amp = rng.uniform(0.0, 2 * np.pi * 5500.0, shape)
    phase = rng.uniform(0.0, 2 * np.pi, shape[:-1] + (1,))
    wz = rng.uniform(-2 * np.pi * 1e4, 2 * np.pi * 1e4, shape[-1:])
    want = su2.ck_expm_polar(amp, phase, wz, 1e-5)
    wide = np.empty(shape[:-1] + (POINT_CHUNK + 37,))[..., :shape[-1]]
    wide[...] = amp
    for amps in (amp, wide):
        for out in _layouts(np.zeros(shape + (2,), dtype=complex)):
            assert su2.ck_expm_polar(amps, phase, wz, 1e-5, out=out) is out
            assert np.array_equal(out, want)


def _out_layouts(shape):
    """Zeroed pair buffers of a batch shape: interleaved, plane-major and,
    for a batch with axes, the first chunk of a wider plane-major buffer
    (whose planes are not one block)."""
    outs = [np.zeros(shape + (2,), dtype=complex), pair_buffer(shape)]
    if shape:
        outs.append(pair_buffer(shape[:-1] + (POINT_CHUNK + 37,))[..., :shape[-1], :])
    for out in outs[1:]:
        out[...] = 0.0
    return outs


@pytest.mark.parametrize("amp_shape, phase_shape, wz_shape, duration_shape", [
    ((), (), (), ()),
    ((1,), (1,), (1,), ()),
    ((99, 45), (99, 1), (45,), ()),
    ((100, 256), (100, 1), (256,), ()),
    ((7, 1), (1, 5), (), (7, 5)),
    ((3, 4, 5), (4, 1), (5,), (3, 1, 1)),
])
def test_ck_expm_polar_keeps_the_bits_of_the_strided_formula(amp_shape, phase_shape, wz_shape,
                                                            duration_shape):
    # the contiguous t^2, 1 - t^2 and 1 + t^2 planes take the same
    # operations as the strided parts of a did, into every output layout;
    # zero amplitudes and offsets take the rate floor's limit
    rng = np.random.default_rng(len(amp_shape) + sum(amp_shape))
    amp = rng.uniform(0.0, 2 * np.pi * 5500.0, amp_shape)
    phase = rng.uniform(0.0, 2 * np.pi, phase_shape)
    wz = rng.uniform(-2 * np.pi * 1e4, 2 * np.pi * 1e4, wz_shape)
    duration = rng.uniform(1e-6, 1e-3, duration_shape)
    if amp.size > 1:
        amp.flat[::3] = 0.0
    if wz.size > 1:
        wz.flat[::2] = 0.0
    shape = np.broadcast(amp, phase, wz, duration).shape
    want = ck_expm_polar_strided(amp, phase, wz, duration)
    assert want.shape == shape + (2,)
    got = su2.ck_expm_polar(amp, phase, wz, duration)
    assert got.tobytes() == want.tobytes()
    for out, old in zip(_out_layouts(shape), _out_layouts(shape)):
        assert su2.ck_expm_polar(amp, phase, wz, duration, out=out) is out
        assert ck_expm_polar_strided(amp, phase, wz, duration, out=old) is old
        assert out.tobytes() == old.tobytes() == want.tobytes()


def test_axis_angle_power_in_closed_form():
    rng = np.random.default_rng(4)
    rotvec = rng.normal(size=(6, 3))
    rotvec *= (rng.uniform(0.1, 3.0, 6) / np.linalg.norm(rotvec, axis=1))[:, None]
    x = ck_expm(rotvec.T, 1.0) * rng.choice([1.0, -1.0], 6)[:, None]
    r, theta = axis_angle(x)
    assert np.allclose(r * theta[:, None], rotvec, atol=1e-13)
    R = rotation_matrices(x)
    for n in (1, 5, 33):
        expect = np.stack([np.linalg.matrix_power(m, n) for m in R])
        powered = rotation_matrices(ck_expm((r * theta[:, None]).T, n))
        assert np.allclose(powered, expect, atol=1e-12)
    # the identity has no axis; it is zero, not nan
    r, theta = axis_angle(-ID2[0])
    assert np.array_equal(r, np.zeros(3)) and theta == 0.0


def test_axis_angle_at_and_near_zero_and_at_pi():
    # theta = 0: the identity pair and its negative have the zero axis
    for x in (np.array([1.0, 0.0]), np.array([-1.0, 0.0])):
        r, theta = axis_angle(x)
        assert np.array_equal(r, np.zeros(3)) and theta == 0.0
    # near 0 the axis is still resolved: the vector part is sin(theta/2) r
    axis = np.array([0.36, -0.48, 0.8])
    for angle in (1e-9, 1e-150):
        r, theta = axis_angle(ck_expm(axis * angle, 1.0))
        assert theta == pytest.approx(angle, rel=1e-12, abs=0.0)
        assert np.allclose(r, axis, rtol=0.0, atol=1e-12)
    # below about 1e-154 |v|^2 underflows: theta is 0 and so is the axis
    r, theta = axis_angle(ck_expm(axis * 1e-200, 1.0))
    assert np.array_equal(r, np.zeros(3)) and theta == 0.0
    # theta = pi: a turn about r and about -r are one rotation, and the
    # largest axis component is made positive
    for sign in (1.0, -1.0):
        r, theta = axis_angle(expm_su2(sign * np.array([0.6, -0.8, 0.0]), np.pi)[0])
        assert theta == pytest.approx(np.pi, abs=1e-15)
        assert np.allclose(r, [-0.6, 0.8, 0.0], rtol=0.0, atol=1e-15)
    # a batch takes the bits of each pair alone
    x = ck_expm(np.random.default_rng(6).normal(size=(3, 50)), 1.0)
    r, theta = axis_angle(x)
    for i in range(50):
        ri, ti = axis_angle(x[i])
        assert np.array_equal(ri, r[i]) and ti == theta[i]


def test_quaternions_match_traces_of_the_matrix():
    # q0 = Re Tr(U)/2 and q_k = -Im Tr(sigma_k U)/2, sign-fixed to q0 >= 0;
    # angles past pi give negative q0, which the canonical sign flips
    rng = np.random.default_rng(7)
    rotvec = rng.normal(size=(3, 40)) * 2.0
    x = ck_expm(rotvec, 1.0)
    U = ck_matrix(x)
    expect = np.stack(
        [0.5 * np.trace(U, axis1=-2, axis2=-1).real]
        + [-0.5 * np.trace(s @ U, axis1=-2, axis2=-1).imag for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)],
        axis=-1,
    )
    assert np.any(expect[:, 0] < 0.0)
    expect *= np.where(expect[:, :1] < 0.0, -1.0, 1.0)
    assert np.allclose(quaternions(x), expect, rtol=0.0, atol=1e-15)


def test_rotate_vectors_is_the_so3_action_of_powers():
    rng = np.random.default_rng(5)
    rotvec = rng.normal(size=(8, 3))
    m = rng.normal(size=(8, 3))
    theta = np.linalg.norm(rotvec, axis=-1)
    out = rotate_vectors(rotvec / theta[:, None], theta, [1, 3, 40], m)
    assert out.shape == (3, 8, 3)
    for turns, got in zip((1, 3, 40), out):
        R = rotation_matrices(ck_expm(rotvec.T, turns))
        assert np.allclose(got, np.einsum("pij,pj->pi", R, m), atol=1e-12)
    assert np.allclose(rotate_vectors(np.zeros(3), 0.0, [5], m)[0], m, atol=1e-15)


def test_quaternions_canonical_sign():
    q = quaternions(expm_su2([0, 1, 0], np.pi / 3)[0])
    assert q[0] >= 0
    assert np.allclose(q, [np.cos(np.pi / 6), 0, np.sin(np.pi / 6), 0], atol=1e-12)
    # theta = pi has zero scalar part; sign fixed by dominant component
    q1 = quaternions((-1j * SIGMA_Y)[0])
    q2 = quaternions((1j * SIGMA_Y)[0])
    assert np.allclose(q1, q2, atol=1e-12)
    assert np.allclose(q1, [0, 0, 1, 0], atol=1e-12)


def test_rotation_matrices_so3():
    rng = np.random.default_rng(2)
    x = ck_expm(rng.normal(size=(5, 3)).T, 0.9)
    U = ck_matrix(x)
    R = rotation_matrices(x)
    for i in range(5):
        assert np.allclose(R[i] @ R[i].T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R[i]) == pytest.approx(1.0, abs=1e-12)
    # conjugation identity on a test vector
    m = np.array([0.3, -0.5, 0.81])
    sig = m[0] * su2.SIGMA_X + m[1] * su2.SIGMA_Y + m[2] * su2.SIGMA_Z
    lhs = U[0] @ sig @ U[0].conj().T
    mr = R[0] @ m
    rhs = mr[0] * su2.SIGMA_X + mr[1] * su2.SIGMA_Y + mr[2] * su2.SIGMA_Z
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_rotation_matrices_pi_about_y():
    R = rotation_matrices(expm_su2([0, 1, 0], np.pi)[0])
    assert np.allclose(R, np.diag([-1.0, 1.0, -1.0]), atol=1e-12)
