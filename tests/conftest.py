"""Shared fixtures: the channel-analysis ensemble and its fitted channels.

The heavy session fixtures (100-cycle transfer-matrix stacks over the
33621-point analysis ensemble) are shared between the channel tests and
the acceptance suite so they are built once per run.
"""

import numpy as np
import pytest

import ocpulse as oc
from ocpulse import channel, fileio

KHZ = 2.0 * np.pi * 1e3
TAU = 1e-3  # echo spacing 2*tau = 2 ms throughout


def pytest_addoption(parser):
    parser.addoption(
        "--run-extended",
        action="store_true",
        default=False,
        help="run the multi-minute end-to-end optimization tests",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-extended"):
        return
    skip = pytest.mark.skip(reason="needs --run-extended")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def analysis_distribution():
    """|dw|/2pi <= 8 kHz x RF scales 0.9-1.1, offsets drawn at random.

    A regular offset comb aliases against the 2 ms free-precession phase
    (coherent per-cycle revivals near n = 8, 24, 46 at 100-250 Hz
    spacings), so channel statistics use seeded uniform draws instead.
    """
    rng = np.random.default_rng(42)
    offsets = np.sort(rng.uniform(-8 * KHZ, 8 * KHZ, 1601))
    return oc.EnsembleDistribution.product(offsets, np.linspace(0.9, 1.1, 21))


def _sequence_and_fit(waveform, d, n_cycles=100):
    R = channel.superoperator_sequence(oc.pulse_propagators(waveform, d), TAU, d, n_cycles)
    fit = channel.fit_pauli_model(R, channel.cycle_time(waveform, TAU))
    return R, fit


@pytest.fixture(scope="session")
def hard_channel(analysis_distribution):
    """((100, 4, 4) transfer stack, fit) for the 100 us hard pi pulse."""
    hard = oc.hard_pulse(np.pi, np.pi / 2, 5 * KHZ)
    return _sequence_and_fit(hard, analysis_distribution)


@pytest.fixture(scope="session")
def oct_channel(analysis_distribution):
    """((100, 4, 4) transfer stack, fit) for the packaged RFI-robust pulse."""
    w = fileio.reference_waveform("oct_rfi")
    return _sequence_and_fit(w, analysis_distribution)


@pytest.fixture(scope="session")
def oct_rfi():
    return fileio.reference_waveform("oct_rfi")


@pytest.fixture(scope="session")
def oct_broadband():
    return fileio.reference_waveform("oct_broadband")
