import csv
import json
import tracemalloc

import numpy as np
import pytest

from ocpulse import fileio
from ocpulse.channel import fit_pauli_model
from ocpulse.pulses import EnsembleDistribution, PulseWaveform, uniform_ladder_distribution

A_MAX = 2 * np.pi * 5000.0


def sample_waveform():
    rng = np.random.default_rng(17)
    return PulseWaveform(
        1e-5,
        rng.uniform(0, A_MAX, 9),
        rng.uniform(0, 2 * np.pi, 9),
        A_MAX,
        pre_delay=6e-6,
        post_delay=6e-6,
    )


def test_waveform_json_round_trip_lossless(tmp_path):
    p = sample_waveform()
    f = tmp_path / "w.json"
    fileio.save_waveform_json(p, f)
    q = fileio.load_waveform_json(f)
    # bit-exact: JSON floats carry full double precision
    assert q.dt == p.dt and q.a_max == p.a_max
    assert q.pre_delay == p.pre_delay and q.post_delay == p.post_delay
    assert np.array_equal(q.amplitudes, p.amplitudes)
    assert np.array_equal(q.phases, p.phases)


def test_waveform_json_defaults_and_malformed(tmp_path):
    minimal = {
        "dt_s": 1e-5,
        "a_max_rad_s": A_MAX,
        "steps": [{"amp_rad_s": 100.0, "phase_rad": 0.5}],
    }
    p = fileio.waveform_from_dict(minimal)
    assert p.pre_delay == 0.0 and p.post_delay == 0.0  # guards optional

    with pytest.raises(ValueError, match="malformed"):
        fileio.waveform_from_dict({"dt_s": 1e-5})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        fileio.load_waveform_json(bad)


def test_waveform_csv_columns(tmp_path):
    # an export in bench units, not read back: one row per shaped step
    p = sample_waveform()
    f = tmp_path / "w.csv"
    fileio.save_waveform_csv(p, f)
    with open(f, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["time_s", "amp_hz", "phase_deg"]
    got = np.array(rows, dtype=float)
    assert got.shape == (p.n_steps, 3)
    # step starts j dt on the shaped grid; the guards are not in the table
    assert np.array_equal(got[:, 0], np.arange(p.n_steps) * p.dt)
    assert np.array_equal(got[:, 1], p.amplitudes / (2 * np.pi))
    assert np.array_equal(got[:, 2], np.degrees(p.phases))


def test_distribution_json_round_trip(tmp_path):
    d = uniform_ladder_distribution(
        2 * np.pi * 4e3, 2 * np.pi * 500.0, rf_scales=(0.9, 1.0, 1.1),
        jitter_fraction=0.05, seed=3,
    )
    f = tmp_path / "d.json"
    fileio.save_distribution_json(d, f)
    q = fileio.load_distribution_json(f)
    assert q.n_points == d.n_points
    assert np.allclose(q.offsets, d.offsets, rtol=1e-15)
    assert np.array_equal(q.rf_scales, d.rf_scales)
    assert np.array_equal(q.weights, d.weights)


def test_distribution_rf_scale_defaults_to_nominal():
    d = fileio.distribution_from_dict(
        {"points": [{"offset_hz": 0.0, "weight": 0.5}, {"offset_hz": 100.0, "weight": 0.5}]}
    )
    assert np.all(d.rf_scales == 1.0)
    with pytest.raises(ValueError, match="malformed"):
        fileio.distribution_from_dict({"points": [{"offset_hz": 0.0}]})


WAVEFORM = {"dt_s": 1e-5, "a_max_rad_s": 3e4, "pre_delay_s": 0.0,
            "steps": [{"amp_rad_s": 100.0, "phase_rad": 0.5}]}
DISTRIBUTION = {"points": [{"offset_hz": 0.0, "rf_scale": 1.0, "weight": 1.0}]}


def _with(record, path, value):
    """A deep copy of record with the field at path (keys and indices) set."""
    record = json.loads(json.dumps(record))
    *parents, last = path
    node = record
    for key in parents:
        node = node[key]
    node[last] = value
    return record


@pytest.mark.parametrize("value, name", [
    ("100", "a string"), (True, "a boolean"), (None, "null"), ([1.0], "an array"),
    ({"v": 1.0}, "an object"),
])
@pytest.mark.parametrize("kind, record, path", [
    ("waveform", WAVEFORM, ("dt_s",)),
    ("waveform", WAVEFORM, ("a_max_rad_s",)),
    ("waveform", WAVEFORM, ("pre_delay_s",)),
    ("waveform", WAVEFORM, ("steps", 0, "amp_rad_s")),
    ("waveform", WAVEFORM, ("steps", 0, "phase_rad")),
    ("distribution", DISTRIBUTION, ("points", 0, "offset_hz")),
    ("distribution", DISTRIBUTION, ("points", 0, "rf_scale")),
    ("distribution", DISTRIBUTION, ("points", 0, "weight")),
])
def test_numeric_fields_take_only_json_numbers(kind, record, path, value, name):
    # "100" was once read as 100, true as 1, null as nan and [1.0] as a
    # second axis
    load = fileio.waveform_from_dict if kind == "waveform" else fileio.distribution_from_dict
    load(record)
    with pytest.raises(ValueError) as err:
        load(_with(record, path, value))
    assert str(err.value) == f"malformed {kind} record: {path[-1]} must be a number, got {name}"


def test_numeric_fields_take_ints_and_reject_ints_beyond_floats():
    p = fileio.waveform_from_dict(_with(WAVEFORM, ("steps", 0, "amp_rad_s"), 100))
    assert p.amplitudes.tolist() == [100.0]
    d = fileio.distribution_from_dict(_with(DISTRIBUTION, ("points", 0, "weight"), 1))
    assert d.weights.tolist() == [1.0]
    with pytest.raises(ValueError, match="malformed distribution record: offset_hz: int too large"):
        fileio.distribution_from_dict(_with(DISTRIBUTION, ("points", 0, "offset_hz"), 10**400))


def test_write_csv_repr_floats(tmp_path):
    f = tmp_path / "t.csv"
    x = 0.1 + 0.2  # 0.30000000000000004: repr must survive the trip
    fileio.write_csv(f, ["a", "b"], [x, 1.0 / 3.0], [3, "s"])
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert float(lines[1].split(",")[0]) == x
    assert float(lines[2].split(",")[0]) == 1.0 / 3.0


def reference_csv(path, header, rows):
    """The row-tuple CSV writer write_csv replaced; its bytes are the contract."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])


SPECIAL_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1 + 0.2,
                  float.fromhex("0x1.fffffffffffffp+1023"), -2.5, 1.0 / 3.0]
# quiet and signalling NaN payloads and a negative NaN, as raw bits
NAN_BITS = np.array([0x7FF8000000000001, 0x7FF0000000000002, -0x0008000000000000], dtype=np.int64)
STRINGS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " lead", "x"]
BLOCK = fileio.CSV_BLOCK_ROWS


def mixed_columns(n, seed=0):
    """Columns of every kind write_csv takes, n rows each."""
    rng = np.random.default_rng(seed)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    specials = np.concatenate([SPECIAL_FLOATS, NAN_BITS.view(np.float64)])[:n]
    floats[: specials.size] = specials
    repeated = np.tile(np.array([-0.0, 0.0, 0.1, -0.1]), n // 4 + 1)[:n]
    ints = rng.integers(-3, 1000, n)
    objects = [[np.float64(f), None, int(i), s, np.float32(0.1), True][k % 6]
               for k, (f, i, s) in enumerate(zip(floats, ints, STRINGS * (n // len(STRINGS) + 1)))]
    return [
        floats,                                 # float64 array, mostly distinct
        repeated,                               # float64 array, few values, signed zeros
        floats[::-1].astype(">f8"),             # non-native byte order
        np.repeat(np.arange(1, n + 1), 3)[:n],  # integer array
        ints.astype(np.uint16),                 # unsigned integers
        rng.standard_normal(n).astype(np.float32),  # other dtype: str(np.float32)
        objects,                                # list: np.float64, None, int, str, ...
        [STRINGS[k % len(STRINGS)] for k in range(n)],
        floats.tolist(),                        # list of Python floats
    ]


@pytest.mark.parametrize("n", [0, 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_write_csv_matches_csv_writer_bytes(tmp_path, n):
    columns = mixed_columns(n)
    header = [f"c{k}" for k in range(len(columns) - 1)] + ['odd,"name"']
    fileio.write_csv(tmp_path / "new.csv", header, *columns)
    reference_csv(tmp_path / "ref.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("column", [["", None, "a"], np.array([-0.0, 0.0, -0.0]), [None]])
def test_write_csv_single_column_matches_csv_writer_bytes(tmp_path, column):
    # csv.writer quotes a record that is one empty field
    for header in (["only"], [""]):
        fileio.write_csv(tmp_path / "new.csv", header, column)
        reference_csv(tmp_path / "ref.csv", header, zip(column))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="length"):
        fileio.write_csv(tmp_path / "t.csv", ["a", "b"], np.zeros(3), [1, 2])
    with pytest.raises(ValueError, match="1-d"):
        fileio.write_csv(tmp_path / "t.csv", ["a"], np.zeros((2, 2)))


def test_write_csv_memory_is_bounded_by_the_block(tmp_path):
    # the simulate --train table at its benchmark size: 500 echoes x 325 points
    rng = np.random.default_rng(1)
    n_echoes, n_points = 500, 325
    columns = [
        np.repeat(np.arange(1, n_echoes + 1), n_points),
        np.tile(rng.uniform(-8000.0, 8000.0, n_points), n_echoes),
        np.tile(np.repeat([0.9, 0.95, 1.0, 1.05, 1.1], n_points // 5), n_echoes),
        *rng.uniform(-1.0, 1.0, (3, n_echoes * n_points)),
    ]
    tracemalloc.start()
    try:
        fileio.write_csv(tmp_path / "train.csv", ["echo", "offset_hz", "rf_scale", "mx", "my", "mz"],
                         *columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 8192-row blocks peak at about 5.5 MiB traced; joining the whole table
    # into one string before writing peaked at 88 MiB
    assert peak < 16 * 2**20
    assert (tmp_path / "train.csv").read_bytes().count(b"\r\n") == n_echoes * n_points + 1


def test_channel_fit_json_inf_becomes_null():
    identity = np.broadcast_to(np.eye(4), (5, 4, 4))
    fit = fit_pauli_model(identity, 4e-3)  # never decays: infinite t2
    d = fileio.channel_fit_to_dict(fit)
    assert d["t2_pulse_s"] is None
    assert d["t2_pulse_cycles"] is None
    assert d["m_infinity"] == pytest.approx(1.0)
    assert d["probs"][0][0] == 1 and len(d["probs"]) == 5
    text = json.dumps(d)
    assert '"t2_pulse_s": null' in text and '"t2_pulse_cycles": null' in text


def test_reference_waveforms_load(oct_rfi, oct_broadband):
    for p in (oct_rfi, oct_broadband):
        assert p.n_steps == 100
        assert p.dt == pytest.approx(1e-5)
        assert p.pre_delay == pytest.approx(6e-6)
        assert p.post_delay == pytest.approx(6e-6)
        assert p.a_max == pytest.approx(A_MAX)
        assert np.all(p.amplitudes <= p.a_max * (1 + 1e-12))
    assert not np.array_equal(oct_rfi.amplitudes, oct_broadband.amplitudes)


def test_reference_waveform_unknown_name():
    with pytest.raises(ValueError, match="unknown reference pulse"):
        fileio.reference_waveform("nope")
