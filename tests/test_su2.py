import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocpulse import su2
from ocpulse.su2 import (
    ID2,
    SIGMA_Y,
    ck_expm,
    ck_inv,
    ck_matrix,
    ck_mul,
    expm_su2,
    quaternions,
    rotate_vectors,
    rotation_matrices,
    rotation_vectors,
    trace_overlap,
    unitarity_error,
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


def _axis_angle(U):
    """(theta, axis) of the canonical rotation vector; the identity has a
    zero axis."""
    rotvec = rotation_vectors(U)
    theta = np.linalg.norm(rotvec)
    return theta, rotvec / max(theta, np.finfo(float).tiny)


def test_axis_angle_round_trip_simple():
    theta, axis = _axis_angle(-1j * SIGMA_Y)
    assert theta == pytest.approx(np.pi)
    assert np.allclose(axis, [0, 1, 0], atol=1e-12)

    theta, axis = _axis_angle(ID2)
    assert theta == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(axis, np.zeros(3))  # no axis, not nan

    theta, axis = _axis_angle(expm_su2([1, 0, 0], 0.3))
    assert theta == pytest.approx(0.3, abs=1e-12)
    assert np.allclose(axis, [1, 0, 0], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(components, components, components, angles, st.floats(0, 2 * np.pi))
def test_axis_angle_inverts_expm_up_to_phase(x, y, z, angle, phase):
    v = np.array([x, y, z])
    n = np.linalg.norm(v)
    if n < 1e-3:
        return
    U = np.exp(1j * phase) * expm_su2(v / n, angle)
    theta, axis = _axis_angle(U)
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
    batch = ck_matrix(ck_expm(omega, dt))
    for i in range(7):
        w = np.linalg.norm(omega[i])
        assert np.allclose(batch[i], expm_su2(omega[i] / w, w * dt), atol=1e-13)
    # zero rotation vector is smooth (sinc limit), not a special case
    assert np.allclose(ck_matrix(ck_expm(np.zeros(3), dt)), ID2, atol=1e-15)


def test_long_products_stay_unitary():
    # drift budget: 1e5 sequential multiplications
    rng = np.random.default_rng(1)
    U = ID2.copy()
    step = expm_su2(rng.normal(size=3), 0.013)
    for _ in range(100):
        for _ in range(1000):
            U = step @ U
    assert unitarity_error(U) < 1e-10


def test_cayley_klein_pairs_multiply_like_matrices():
    rng = np.random.default_rng(3)
    x = ck_expm(rng.normal(size=(4, 3)), 0.7)
    y = ck_expm(rng.normal(size=(4, 3)), 1.3)
    X, Y = ck_matrix(x), ck_matrix(y)
    assert np.array_equal(X[:, 0, :], x)
    assert np.allclose(ck_matrix(ck_mul(x, y)), X @ Y, atol=1e-14)
    assert np.allclose(ck_matrix(ck_inv(x)), X.conj().swapaxes(-1, -2), atol=1e-15)
    assert np.allclose(np.linalg.det(X), 1.0, atol=1e-14)



def test_ck_mul_rounding_does_not_depend_on_batch_size():
    # one call over 20,000 pairs, where numpy would reuse temporaries in
    # place, must give the bits of the same pairs multiplied in slices
    rng = np.random.default_rng(11)
    x = ck_expm(rng.normal(size=(20000, 3)), 1.0)
    y = ck_expm(rng.normal(size=(20000, 3)), 1.0)
    whole = ck_mul(x, y)
    sliced = [ck_mul(x[i:i + 100], y[i:i + 100]) for i in range(0, 20000, 100)]
    assert np.array_equal(np.concatenate(sliced), whole)
    # a batch of one and a lone pair take the same bits too
    for i in range(100):
        assert np.array_equal(ck_mul(x[i:i + 1], y[i:i + 1])[0], whole[i])
        assert np.array_equal(ck_mul(x[i], y[i]), whole[i])

def test_rotation_vectors_power_in_closed_form():
    rng = np.random.default_rng(4)
    rotvec = rng.normal(size=(6, 3))
    rotvec *= (rng.uniform(0.1, 3.0, 6) / np.linalg.norm(rotvec, axis=1))[:, None]
    U = ck_matrix(ck_expm(rotvec, 1.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))[:, None, None]
    assert np.allclose(rotation_vectors(U), rotvec, atol=1e-13)
    R = rotation_matrices(U)
    for n in (1, 5, 33):
        expect = np.stack([np.linalg.matrix_power(r, n) for r in R])
        assert np.allclose(rotation_matrices(ck_matrix(ck_expm(rotation_vectors(U), n))), expect, atol=1e-12)
    # the identity has no axis; its rotation vector is zero, not nan
    assert np.array_equal(rotation_vectors(-ID2), np.zeros(3))


def test_rotate_vectors_is_the_so3_action_of_powers():
    rng = np.random.default_rng(5)
    rotvec = rng.normal(size=(8, 3))
    m = rng.normal(size=(8, 3))
    out = rotate_vectors(rotvec, [1, 3, 40], m)
    assert out.shape == (3, 8, 3)
    for turns, got in zip((1, 3, 40), out):
        R = rotation_matrices(ck_matrix(ck_expm(rotvec, turns)))
        assert np.allclose(got, np.einsum("pij,pj->pi", R, m), atol=1e-12)
    assert np.allclose(rotate_vectors(np.zeros(3), [5], m)[0], m, atol=1e-15)


def test_quaternions_canonical_sign():
    q = quaternions(expm_su2([0, 1, 0], np.pi / 3))
    assert q[0] >= 0
    assert np.allclose(q, [np.cos(np.pi / 6), 0, np.sin(np.pi / 6), 0], atol=1e-12)
    # theta = pi has zero scalar part; sign fixed by dominant component
    q1 = quaternions(-1j * SIGMA_Y)
    q2 = quaternions(1j * SIGMA_Y)
    assert np.allclose(q1, q2, atol=1e-12)
    assert np.allclose(q1, [0, 0, 1, 0], atol=1e-12)


def test_rotation_matrices_so3():
    rng = np.random.default_rng(2)
    U = ck_matrix(ck_expm(rng.normal(size=(5, 3)), 0.9))
    R = rotation_matrices(U)
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
    R = rotation_matrices(expm_su2([0, 1, 0], np.pi))
    assert np.allclose(R, np.diag([-1.0, 1.0, -1.0]), atol=1e-12)
