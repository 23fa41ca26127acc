"""Figures of merit of the two packaged 1 ms pulses.

These pin the shipped waveforms against the numbers recorded when they
were produced, so a silent regeneration or file corruption shows up as a
test failure rather than as quietly worse pulses.
"""

import numpy as np
import pytest

from ocpulse.echo_train import echo_visibility_sweep
from ocpulse.metrics import average_fidelity, criteria_sweep
from ocpulse.propagation import bloch_trajectory, pulse_propagators, trajectory_times
from ocpulse.pulses import EnsembleDistribution

KHZ = 2 * np.pi * 1e3
TAU = 1e-3

BAND_8K = np.linspace(-8 * KHZ, 8 * KHZ, 161)     # 1.6 x the 5 kHz cap
BAND_10K = np.linspace(-10 * KHZ, 10 * KHZ, 201)  # total bandwidth 4 x cap
RF_SCALES = [0.9, 0.95, 1.0, 1.05, 1.1]


def band_fidelity(p, offsets, scales):
    d = EnsembleDistribution.product(offsets, scales)
    return average_fidelity(p, d)


def test_rfi_pulse_fidelity_over_design_band(oct_rfi):
    fid = band_fidelity(oct_rfi, BAND_8K, RF_SCALES)
    assert fid >= 0.97
    assert fid == pytest.approx(0.982, abs=0.01)


def test_rfi_pulse_fidelity_at_nominal_rf(oct_rfi):
    fid = band_fidelity(oct_rfi, BAND_8K, [1.0])
    assert fid == pytest.approx(0.99, abs=0.01)


def test_broadband_pulse_fidelity(oct_broadband):
    fid = band_fidelity(oct_broadband, BAND_10K, [1.0])
    assert fid >= 0.975
    assert fid == pytest.approx(0.989, abs=0.01)


def test_rfi_axis_stays_near_y_across_band(oct_rfi):
    # the pulse is a universal rotation: the per-offset rotation axis must
    # hug +/-y (axis sign is a branch choice, so fold the angle) and the
    # nutation must stay near pi
    band = EnsembleDistribution.product(np.linspace(-8 * KHZ, 8 * KHZ, 81), [1.0])
    c = criteria_sweep(pulse_propagators(oct_rfi, band))
    folded = np.minimum(c.angle_from_y_axis, np.pi - c.angle_from_y_axis)
    assert np.all(np.degrees(folded) <= 15.0)
    assert np.all(np.abs(np.degrees(c.nutation_angle) - 180.0) <= 30.0)


def test_rfi_magnetization_dwells_in_transverse_plane(oct_rfi):
    # at the band edge scale of offsets (5 kHz) a y spin spends roughly
    # two-thirds of the pulse in the transverse plane
    traj = bloch_trajectory(oct_rfi, 5 * KHZ, 1.0, (0.0, 1.0, 0.0))
    t = trajectory_times(oct_rfi)
    mz = np.abs(traj[:, 2])
    transverse_share = 1.0 - np.trapezoid(mz, t) / (t[-1] - t[0])
    assert 0.55 <= transverse_share <= 0.75


def test_broadband_echo_visibility_floor(oct_broadband):
    sweep = echo_visibility_sweep(
        oct_broadband, TAU, np.linspace(-10 * KHZ, 10 * KHZ, 401), [1.0], (1, 2, 500)
    )
    mins = sweep.retained[:, 0, :].min(axis=0)
    assert np.all(mins >= 0.95)
    # early transient stays within a percent-level dip of the late train
    assert mins[1] >= 0.99
