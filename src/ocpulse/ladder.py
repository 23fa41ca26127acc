"""Incremental-bandwidth optimization schedule.

Rung 0 optimizes on resonance only; rung m widens the offset comb to
+/- m * delta and re-optimizes starting from the previous rung's waveform.
Warm starts keep each rung cheap, so a broadband pulse emerges from tens
of short optimizations instead of one expensive wide-band run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .grape import GrapeConfig, GrapeReport, grape_ascend
from .pulses import (
    EnsembleDistribution, PulseWaveform, check_points, uniform_ladder_distribution,
)


class LadderStop(enum.Enum):
    FIDELITY_FLOOR = "fidelity_floor"
    MAX_RUNGS = "max_rungs"


@dataclass(frozen=True)
class LadderRung:
    """One optimized rung: the comb it was trained on and what it reached.

    half_bandwidth is the nominal (pre-jitter) half width m * delta in
    rad/s.
    """

    index: int
    half_bandwidth: float
    distribution: EnsembleDistribution
    waveform: PulseWaveform
    avg_fidelity: float
    report: GrapeReport = field(repr=False, compare=False)


@dataclass(frozen=True)
class LadderResult:
    rungs: tuple
    stop_reason: LadderStop


def run_ladder(
    p0: PulseWaveform,
    delta: float,
    stop_fidelity: float = 0.9,
    *,
    cfg: GrapeConfig,
    seed: int = 0,
    jitter_fraction: float = 0.05,
    max_rungs: int = 100,
) -> LadderResult:
    """Climb the bandwidth ladder until the fidelity floor breaks.

    Every rung optimizes toward the pi-about-y target at nominal RF: rung 0
    at the single on-resonance point, rung m over the jittered offset comb
    of half width m * delta.

    Parameters
    ----------
    p0 : PulseWaveform
        Starting waveform for rung 0 (typically random).
    delta : float
        Comb spacing in rad/s; 2*pi / (4 T) for a pulse of duration T keeps
        neighboring isochromats within the pulse's intrinsic linewidth.
    stop_fidelity : float
        The ladder stops after the first rung whose averaged fidelity
        falls below this floor (that rung is still recorded).
    cfg : GrapeConfig
        Per-rung ascent budget.
    seed : int
        Drives the per-rung comb jitter; rung m uses child seed (seed, m).

    Returns
    -------
    LadderResult with one LadderRung per optimized comb.
    """
    if not 0.0 < stop_fidelity < 1.0:
        raise ValueError("stop_fidelity must be in (0, 1)")
    if max_rungs < 0:
        raise ValueError("max_rungs must be nonnegative")

    rungs = []
    stop_reason = LadderStop.MAX_RUNGS
    for m in range(max_rungs + 1):
        # m = 0 is the single on-resonance point, so delta and the jitter
        # are checked before any ascent
        d = uniform_ladder_distribution(
            m * delta, delta, jitter_fraction=jitter_fraction, seed=[seed, m]
        )
        report = grape_ascend(rungs[-1].waveform if rungs else p0, d, cfg)
        fid = float(report.fidelity_history[-1])
        rungs.append(LadderRung(m, m * delta, d, report.final_waveform, fid, report))
        if fid < stop_fidelity:
            stop_reason = LadderStop.FIDELITY_FLOOR
            break
    return LadderResult(tuple(rungs), stop_reason)


def check_rfi_scales(rf_scales) -> np.ndarray:
    """RF scales for :func:`add_rfi_and_reoptimize` as a 1-d array, checked
    to be positive, finite and distinct and to contain the nominal scale 1.0."""
    scales = np.atleast_1d(np.asarray(rf_scales, dtype=float))
    check_points(0.0, scales)
    if np.unique(scales).size != scales.size:
        raise ValueError("rf_scales must not repeat a scale")
    if not np.any(np.abs(scales - 1.0) < 1e-12):
        raise ValueError("rf_scales must contain the nominal scale 1.0")
    return scales


def add_rfi_and_reoptimize(
    rung: LadderRung,
    rf_scales,
    cfg: GrapeConfig,
):
    """Cross a rung's offsets with RF-scale points and re-optimize toward
    the pi-about-y target.

    The offset comb is reused exactly as trained (jitter included); only
    the RF dimension is new.  rf_scales must contain 1.0 so the nominal
    hardware point stays in the ensemble.

    Returns
    -------
    (distribution, waveform, avg_fidelity)
    """
    scales = check_rfi_scales(rf_scales)
    offsets = list(dict.fromkeys(rung.distribution.offsets.tolist()))
    d = EnsembleDistribution.product(np.asarray(offsets), scales)
    report = grape_ascend(rung.waveform, d, cfg)
    return d, report.final_waveform, float(report.fidelity_history[-1])


def select_best_rung(result: LadderResult, fidelity_floor: float = 0.99) -> int:
    """Index of the widest rung still at or above the floor."""
    best = None
    for rung in result.rungs:
        if rung.avg_fidelity >= fidelity_floor:
            best = rung.index
    if best is None:
        raise ValueError(f"no rung reached fidelity {fidelity_floor}")
    return best
