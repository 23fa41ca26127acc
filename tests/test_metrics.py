import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocpulse import metrics
from ocpulse.metrics import average_fidelity, criteria_sweep
from ocpulse.propagation import POINT_CHUNK, TARGET_PI_Y, pulse_propagators
from ocpulse.pulses import EnsembleDistribution, hard_pulse, waveform_template
from ocpulse.su2 import Z_AXIS, ck_inv, quaternions

from oracles import ck_matrix, ck_product, cp_overlap_orders, expm_su2, trace_overlap

A_MAX = 2 * np.pi * 5000.0
PI_Y = ck_matrix(TARGET_PI_Y)


def test_unitary_fidelity_examples():
    assert trace_overlap(PI_Y, PI_Y) == pytest.approx(1.0)
    assert trace_overlap(np.eye(2, dtype=complex), PI_Y) == pytest.approx(0.0, abs=1e-15)
    # rotation by theta about y: fidelity sin^2(theta/2)
    for theta in (0.3, np.pi / 2, 2.8):
        got = trace_overlap(expm_su2([0, 1, 0], theta), PI_Y)
        assert got == pytest.approx(np.sin(theta / 2) ** 2, abs=1e-12)
    # tilt the axis: fidelity picks up r_y^2
    axis = np.array([0.6, 0.64, 0.48])
    axis /= np.linalg.norm(axis)
    got = trace_overlap(expm_su2(axis, 1.9), PI_Y)
    assert got == pytest.approx(np.sin(0.95) ** 2 * axis[1] ** 2, abs=1e-12)


def test_average_fidelity_is_weighted_mean():
    # the hard pi pulse at RF scale 1.0 and 0.5 nutates by pi and pi/2
    # about y: fidelities 1 and 1/2
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    d = EnsembleDistribution(np.zeros(2), np.array([1.0, 0.5]), np.array([0.3, 0.7]))
    assert average_fidelity(p, d) == pytest.approx(0.3 + 0.7 * 0.5, abs=1e-12)


def test_average_fidelity_of_hard_pulse_ensemble():
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    d = EnsembleDistribution.product(2 * np.pi * np.array([0.0, 2e3]), [1.0])
    pointwise = [
        trace_overlap(ck_matrix(pulse_propagators(p, EnsembleDistribution.single_point(dw, s))[0]),
                      PI_Y)
        for dw, s in zip(d.offsets, d.rf_scales)
    ]
    assert average_fidelity(p, d) == pytest.approx(np.mean(pointwise), abs=1e-12)


def test_cpmg_criteria_tilted_axis():
    zeta = 0.23
    theta = 2.9
    # propagators enter as Cayley-Klein pairs, the first rows of the matrices
    c = criteria_sweep(expm_su2([0.0, np.cos(zeta), np.sin(zeta)], theta)[0])
    assert c.angle_from_xy_plane == pytest.approx(zeta, abs=1e-12)
    assert c.angle_from_y_axis == pytest.approx(zeta, abs=1e-12)
    assert c.nutation_angle == pytest.approx(theta, abs=1e-12)
    assert c.fidelity == pytest.approx(np.sin(theta / 2) ** 2 * np.cos(zeta) ** 2, abs=1e-12)
    # tilt below the plane flips the sign of the plane angle only
    c = criteria_sweep(expm_su2([0.0, np.cos(zeta), -np.sin(zeta)], theta)[0])
    assert c.angle_from_xy_plane == pytest.approx(-zeta, abs=1e-12)
    assert c.angle_from_y_axis == pytest.approx(zeta, abs=1e-12)


def test_cpmg_criteria_degenerate_identity():
    c = criteria_sweep(np.array([1.0, 0.0], dtype=complex))
    assert c.nutation_angle == pytest.approx(0.0, abs=1e-9)
    assert c.fidelity == pytest.approx(0.0, abs=1e-12)
    # the identity has no axis; z stands in, a right angle from plane and y
    assert c.angle_from_xy_plane == np.pi / 2
    assert c.angle_from_y_axis == np.pi / 2


def test_cpmg_criteria_rejects_nonunitary():
    # |a|^2 + |b|^2 = 1.01
    with pytest.raises(ValueError, match="not unitary"):
        criteria_sweep(np.array([1.0, 0.1], dtype=complex))
    # one bad operator in a batch rejects the batch
    batch = np.array([[1.0, 0.0], [1.0, 0.1]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        criteria_sweep(batch)
    with pytest.raises(ValueError, match="shape"):
        criteria_sweep(np.eye(3, dtype=complex))
    # a NaN unitarity error is not within tolerance: "> tol" once let it by
    for bad in ([np.nan, 0.0], [1.0, complex(0.0, np.nan)]):
        with pytest.raises(ValueError, match="not unitary"):
            criteria_sweep(np.array([[1.0, 0.0], bad], dtype=complex))


@pytest.mark.parametrize("offsets, rf_scales, message", [
    # each of these once came out as NaN or as a plausible row
    ([np.nan], [1.0], "offsets must be finite"),
    ([0.0, np.inf], [1.0], "offsets must be finite"),
    ([0.0], [-1.0], "rf_scales must be positive and finite"),
    ([0.0], [0.9, np.nan], "rf_scales must be positive and finite"),
])
def test_criteria_sweep_rejects_bad_points(offsets, rf_scales, message):
    # the grid is refused where it is built, before any propagation
    with pytest.raises(ValueError, match=message):
        criteria_sweep(pulse_propagators(hard_pulse(np.pi, np.pi / 2, A_MAX),
                                         EnsembleDistribution.product(offsets, rf_scales)))


def test_cpmg_criteria_resolves_tiny_tilt_from_y():
    # a 2e-9 rad tilt toward z: both angles must see it, not round it to 0
    zeta = 2e-9
    c = criteria_sweep(expm_su2([0.0, np.cos(zeta), np.sin(zeta)], 1.0)[0])
    assert c.angle_from_xy_plane == pytest.approx(zeta, rel=1e-6)
    assert c.angle_from_y_axis == pytest.approx(zeta, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(0.05, np.pi - 0.05))
# near-y axis: a tilt below ~1.5e-8 must not round the y-angle to 0
@example(x=0.0, y=0.5, z=1e-9, theta=1.0)
def test_cpmg_criteria_internal_consistency(x, y, z, theta):
    v = np.array([x, y, z])
    n = np.linalg.norm(v)
    if n < 1e-3:
        return
    c = criteria_sweep(expm_su2(v / n, theta)[0])
    # fidelity must decompose into nutation and axis terms
    assert c.fidelity == pytest.approx(
        np.sin(c.nutation_angle / 2) ** 2 * np.cos(c.angle_from_y_axis) ** 2, abs=1e-10
    )
    # y lies in the plane, so the axis is never closer to y than to the plane
    assert abs(c.angle_from_xy_plane) <= c.angle_from_y_axis + 1e-9


def test_criteria_sweep_order_and_values():
    p = hard_pulse(np.pi, np.pi / 2, A_MAX)
    offs = 2 * np.pi * np.array([-1e3, 1e3])
    d = EnsembleDistribution.product(offs, [0.9, 1.0])
    c = criteria_sweep(pulse_propagators(p, d))
    assert len(c) == 4
    assert list(zip(d.offsets, d.rf_scales)) == [
        (offs[0], 0.9), (offs[0], 1.0), (offs[1], 0.9), (offs[1], 1.0)
    ]
    for i, (dw, s) in enumerate(zip(d.offsets, d.rf_scales)):
        expect = criteria_sweep(pulse_propagators(p, EnsembleDistribution.single_point(dw, s))[0])
        assert c.fidelity[i] == pytest.approx(expect.fidelity, abs=1e-12)
        assert c.nutation_angle[i] == pytest.approx(expect.nutation_angle, abs=1e-12)


def _pointwise_criteria(u):
    """The criteria of one Cayley-Klein pair as a per-point loop takes them:
    the overlap t = Re a(target^dag U) of a lone pair and its square t t,
    the quaternion, np.linalg.norm of its 1-d vector part, then atan2
    angles."""
    q = quaternions(u)
    s = np.linalg.norm(q[1:])
    theta = 2.0 * np.arctan2(s, q[0])
    r = Z_AXIS if s == 0.0 else q[1:] / s
    t = ck_product(ck_inv(TARGET_PI_Y), u)[0].real
    return (
        t * t,
        np.arctan2(r[2], np.hypot(r[0], r[1])),
        np.arctan2(np.hypot(r[0], r[2]), r[1]),
        theta,
    )


@pytest.mark.parametrize("pulse", ["hard", "ideal", "zero"])
def test_criteria_sweep_matches_pointwise_criteria_bitwise(pulse):
    # 2.5 x POINT_CHUNK grid points, so the pulse product runs in a partial
    # last chunk; the zero-amplitude pulse is free precession, which is the
    # identity (no axis) on resonance
    p = {
        "hard": hard_pulse(np.pi, np.pi / 2, A_MAX),
        "ideal": None,
        "zero": waveform_template(4, 1e-5, A_MAX, pre_delay=6e-6, post_delay=6e-6),
    }[pulse]
    n_rf = 5
    offs = np.sort(np.append(np.linspace(-2 * np.pi * 1e4, 2 * np.pi * 1e4, POINT_CHUNK // 2), 0.0))
    d = EnsembleDistribution.product(offs, np.linspace(0.9, 1.1, n_rf))
    U = pulse_propagators(p, d)
    c = criteria_sweep(U)
    assert len(c) == offs.size * n_rf >= 5 * POINT_CHUNK // 2
    got = np.column_stack([c.fidelity, c.angle_from_xy_plane, c.angle_from_y_axis,
                           c.nutation_angle])
    expect = np.array([_pointwise_criteria(u) for u in U])
    assert np.array_equal(got, expect)
    if pulse == "zero":
        assert np.count_nonzero(c.nutation_angle == 0.0) == n_rf


def test_cp_overlap_perfect_pulse():
    for dwt in (0.0, 0.5, 1.3):
        ox, oy = cp_overlap_orders(0.0, dwt)
        assert ox == pytest.approx(1.0, abs=1e-12)
        assert oy == pytest.approx(1.0, abs=1e-12)


def test_cp_overlap_on_resonance_closed_form():
    # with no precession the cycle is a rotation by 2*epsilon about y:
    # O_x = cos(2 eps), O_y = 1
    eps = 0.1
    ox, oy = cp_overlap_orders(eps, 0.0)
    assert ox == pytest.approx(np.cos(2 * eps), abs=1e-12)
    assert ox == pytest.approx(0.98007, abs=1e-4)
    assert oy == pytest.approx(1.0, abs=1e-12)


def test_cpmg_beats_cp_on_grid():
    for eps in np.linspace(0.01, 0.3, 7):
        for dwt in np.linspace(0.0, 1.0, 9):
            ox, oy = cp_overlap_orders(eps, dwt)
            assert oy >= ox - 1e-12
            assert -1.0 - 1e-12 <= ox <= 1.0 + 1e-12
            assert -1.0 - 1e-12 <= oy <= 1.0 + 1e-12
