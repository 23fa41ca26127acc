"""On-disk formats: waveform and distribution JSON, CSV exports.

JSON is the canonical, lossless interchange format (floats round-trip at
full precision).  CSV files use spectrometer-friendly units (Hz, degrees,
seconds) and are meant for plotting and console import, not as a lossless
store.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .pulses import TWO_PI, EnsembleDistribution, PulseWaveform


def waveform_to_dict(p: PulseWaveform) -> dict:
    return {
        "dt_s": p.dt,
        "pre_delay_s": p.pre_delay,
        "post_delay_s": p.post_delay,
        "a_max_rad_s": p.a_max,
        "steps": [
            {"amp_rad_s": a, "phase_rad": ph}
            for a, ph in zip(p.amplitudes.tolist(), p.phases.tolist())
        ],
    }


# A numeric field holds a JSON number: an int or a float, not a bool (which
# json reads as a subclass of int), a string, null or a container.
_NUMBER_TYPES = frozenset((int, float))
_JSON_NAMES = {str: "a string", bool: "a boolean", type(None): "null",
               list: "an array", dict: "an object"}


def _numbers(kind: str, field: str, values: list) -> np.ndarray:
    """A column of JSON numbers as a float array.

    One set of types per column keeps the check cheap beside the parse.
    Anything else raises ValueError("malformed <kind> record: <field> ...").
    """
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        bad = type(next(v for v in values if type(v) not in _NUMBER_TYPES))
        raise ValueError(f"malformed {kind} record: {field} must be a number, "
                         f"got {_JSON_NAMES.get(bad, bad.__name__)}")
    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(f"malformed {kind} record: {field}: {exc}") from exc


def _number(kind: str, field: str, value) -> float:
    return float(_numbers(kind, field, [value])[0])


def _json_objects(objects: list) -> str:
    """The text of a list of objects of numbers, all with the keys of the
    first in the same order, as a field of :func:`_record_json`."""
    if not objects:
        return "[]"
    keys = list(objects[0])
    item = "\n  {" + ",".join(f"\n   {json.dumps(key)}: %s" for key in keys) + "\n  }"
    # each column's number texts from one call of json's C encoder
    columns = [json.dumps([obj[key] for obj in objects])[1:-1].split(", ") for key in keys]
    return "[" + ",".join(item % texts for texts in zip(*columns)) + "\n ]"


def _record_json(record: dict) -> str:
    """``json.dumps(record, indent=1)``, written directly, in less than half
    the time of json's pure-Python indenting encoder.

    ``record`` is one that :func:`waveform_to_dict` or
    :func:`distribution_to_dict` builds: an object whose fields are numbers
    or lists of objects of numbers (:func:`_json_objects`).
    """
    fields = (f"\n {json.dumps(key)}: "
              + (_json_objects(value) if isinstance(value, list) else json.dumps(value))
              for key, value in record.items())
    return "{" + ",".join(fields) + "\n}"


def waveform_from_dict(data: dict) -> PulseWaveform:
    try:
        steps = data["steps"]
        dt = _number("waveform", "dt_s", data["dt_s"])
        amps = _numbers("waveform", "amp_rad_s", [s["amp_rad_s"] for s in steps])
        phases = _numbers("waveform", "phase_rad", [s["phase_rad"] for s in steps])
        a_max = _number("waveform", "a_max_rad_s", data["a_max_rad_s"])
        pre = _number("waveform", "pre_delay_s", data.get("pre_delay_s", 0.0))
        post = _number("waveform", "post_delay_s", data.get("post_delay_s", 0.0))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed waveform record: {exc}") from exc
    return PulseWaveform(dt=dt, amplitudes=amps, phases=phases, a_max=a_max,
                         pre_delay=pre, post_delay=post)


def save_waveform_json(p: PulseWaveform, path) -> None:
    Path(path).write_text(_record_json(waveform_to_dict(p)))


def load_waveform_json(path) -> PulseWaveform:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return waveform_from_dict(data)


def save_waveform_csv(p: PulseWaveform, path) -> None:
    """Rows time_s, amp_hz, phase_deg; time is the step start on the shaped
    grid (guards not included)."""
    write_csv(
        path,
        ["time_s", "amp_hz", "phase_deg"],
        np.arange(p.n_steps) * p.dt,
        p.amplitudes / TWO_PI,
        np.degrees(p.phases),
    )


def distribution_to_dict(d: EnsembleDistribution) -> dict:
    return {
        "points": [
            {"offset_hz": off / TWO_PI, "rf_scale": rf, "weight": w}
            for off, rf, w in d.points()
        ]
    }


def distribution_from_dict(data: dict) -> EnsembleDistribution:
    try:
        pts = data["points"]
        offsets = _numbers("distribution", "offset_hz", [p["offset_hz"] for p in pts]) * TWO_PI
        scales = _numbers("distribution", "rf_scale", [p.get("rf_scale", 1.0) for p in pts])
        weights = _numbers("distribution", "weight", [p["weight"] for p in pts])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed distribution record: {exc}") from exc
    return EnsembleDistribution(offsets, scales, weights)


def save_distribution_json(d: EnsembleDistribution, path) -> None:
    Path(path).write_text(_record_json(distribution_to_dict(d)))


def load_distribution_json(path) -> EnsembleDistribution:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return distribution_from_dict(data)


# Rows formatted, joined and written per block: the text of one block is
# held at a time, never the whole table.
CSV_BLOCK_ROWS = 8192
_CSV_SPECIAL = frozenset(',"\r\n')


def _csv_field(x) -> str:
    """One field as ``csv.writer`` writes it, floats as ``repr``."""
    if isinstance(x, float):
        # float() strips numpy scalar types whose repr does not parse back
        return repr(float(x))
    if x is None:
        return ""
    s = x if isinstance(x, str) else str(x)
    if _CSV_SPECIAL.isdisjoint(s):
        return s
    return '"' + s.replace('"', '""') + '"'


def _csv_texts(col):
    """Field texts of one column slice.

    float64 and integer arrays format each distinct value once.  Floats are
    told apart by their bits, so -0.0 and 0.0 keep their own text.
    """
    if isinstance(col, np.ndarray):
        if col.dtype.type is np.float64:
            bits = np.ascontiguousarray(col, dtype=np.float64).view(np.int64)
            uniq, inverse = np.unique(bits, return_inverse=True)
            texts = [repr(v) for v in uniq.view(np.float64).tolist()]
            return np.array(texts, dtype=object)[inverse]
        if col.dtype.kind in "iu":
            uniq, inverse = np.unique(col, return_inverse=True)
            return np.array([str(v) for v in uniq.tolist()], dtype=object)[inverse]
    return [_csv_field(x) for x in col]


def _csv_lines(rows, width: int) -> list:
    lines = list(map(",".join, rows))
    if width == 1:
        # csv.writer quotes a record that is one empty field, so it reads back
        lines = [line or '""' for line in lines]
    return lines


def write_csv(path, header, *columns) -> None:
    """Write a table given column by column, one sequence or 1-d array each.

    The text is what ``csv.writer`` writes with floats passed as
    ``repr(float(x))``: floats (numpy float64 too) as ``repr``, None as an
    empty field, anything else as ``str``; fields holding a comma, a double
    quote, CR or LF are quoted; lines end in CRLF.  Columns of unequal
    length raise ValueError.
    """
    for col in columns:
        if isinstance(col, np.ndarray) and col.ndim != 1:
            raise ValueError(f"CSV columns must be 1-d, got shape {col.shape}")
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines([map(_csv_field, header)], len(header))[0] + "\r\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = [_csv_texts(col[start:start + CSV_BLOCK_ROWS]) for col in columns]
            lines = _csv_lines(zip(*block), len(columns))
            lines.append("")
            fh.write("\r\n".join(lines))


# Reference pulses shipped with the package (see scripts/run_full_pipeline.py
# for the exact seeded run that produced them).
#   oct_rfi        1 ms refocusing pulse, comb-trained to |dw|/2pi <= 8 kHz
#                  then re-optimized over +/-10% RF scatter.
#   oct_broadband  1 ms pulse polished over the full +/-10 kHz band at
#                  nominal RF (best echo-visibility instance).
REFERENCE_PULSES = ("oct_rfi", "oct_broadband")


def reference_waveform(name: str) -> PulseWaveform:
    """Load one of the packaged reference pulses by short name."""
    from importlib import resources

    if name not in REFERENCE_PULSES:
        raise ValueError(
            f"unknown reference pulse {name!r}; have {', '.join(REFERENCE_PULSES)}"
        )
    ref = resources.files("ocpulse") / "data" / f"{name}.json"
    return waveform_from_dict(json.loads(ref.read_text()))
