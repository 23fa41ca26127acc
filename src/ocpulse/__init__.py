"""Broadband CPMG refocusing pulses by optimal control.

Design shaped refocusing pulses with gradient-ascent pulse engineering
over a static (offset, RF-scale) ensemble, simulate the resulting echo
trains, and characterize cumulative pulse error as a Pauli dephasing
channel.
"""

__version__ = "0.1.0"

from .pulses import (
    EnsembleDistribution,
    PulseWaveform,
    hard_pulse,
    uniform_ladder_distribution,
    waveform_template,
)
from .propagation import (
    TARGET_PI_Y,
    bloch_trajectory,
    cycle_propagators,
    pulse_propagators,
)
from .metrics import (
    CpmgCriteria,
    average_fidelity,
    criteria_sweep,
)
from .grape import (
    GrapeConfig,
    GrapeReport,
    Termination,
    fidelity_and_gradients,
    grape_ascend,
    random_waveform,
)
from .ladder import (
    LadderResult,
    LadderRung,
    LadderStop,
    add_rfi_and_reoptimize,
    run_ladder,
    select_best_rung,
)
from .echo_train import EchoTrainResult, echo_visibility_sweep, simulate_train
from .channel import (
    PauliChannelFit,
    asymptotic_channel,
    choi_kraus,
    cycle_time,
    fit_pauli_model,
    pauli_probabilities,
    superoperator_sequence,
)
from .fileio import (
    load_waveform_json,
    reference_waveform,
    save_waveform_csv,
    save_waveform_json,
)
