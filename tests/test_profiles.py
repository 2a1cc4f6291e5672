from __future__ import annotations

import csv
import io
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firmdispatch import (
    KIND_CAPACITY_FACTOR,
    KIND_DEMAND,
    AlignedDataset,
    TimeSeries,
    align,
    load_series,
)
from firmdispatch.profiles import (
    CF_CLAMP_TOL,
    MAX_SYNTHETIC_HOURS,
    demand_stats,
    dump_series,
    scale_demand,
    synthesize_dataset,
)

import oracle
from conftest import FIXTURES, random_dataset


def test_timeseries_basic_contract():
    ts = TimeSeries([1.0, 2.0, 3.0], 1.0, KIND_DEMAND, "load")
    assert len(ts) == 3
    assert ts.total_hours == 3.0
    assert ts.values.dtype == np.float64
    assert ts.label == "load"


def test_timeseries_copies_and_freezes_input():
    src = np.array([1.0, 2.0])
    ts = TimeSeries(src, 1.0, KIND_DEMAND)
    src[0] = 99.0
    assert ts.values[0] == 1.0
    with pytest.raises(ValueError):
        ts.values[0] = 5.0


def test_timeseries_half_hourly_span():
    ts = TimeSeries(np.ones(48), 0.5, KIND_CAPACITY_FACTOR)
    assert ts.total_hours == 24.0


def test_timeseries_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError, match="nonempty 1-D"):
        TimeSeries([], 1.0, KIND_DEMAND)
    with pytest.raises(ValueError, match="nonempty 1-D"):
        TimeSeries(np.ones((2, 2)), 1.0, KIND_DEMAND)
    with pytest.raises(ValueError, match="non-finite value at step 1"):
        TimeSeries([1.0, np.nan], 1.0, KIND_DEMAND)
    with pytest.raises(ValueError, match="unknown series kind"):
        TimeSeries([1.0], 1.0, "power")
    with pytest.raises(ValueError, match="dt_hours"):
        TimeSeries([1.0], 0.25, KIND_DEMAND)
    with pytest.raises(ValueError, match="negative at step 2"):
        TimeSeries([1.0, 2.0, -0.1], 1.0, KIND_DEMAND)
    with pytest.raises(ValueError, match=r"outside \[0, 1\] at step 0"):
        TimeSeries([1.5], 1.0, KIND_CAPACITY_FACTOR)
    with pytest.raises(ValueError, match=r"outside \[0, 1\] at step 1"):
        TimeSeries([0.5, -0.01], 1.0, KIND_CAPACITY_FACTOR)


def test_aligned_dataset_validates_kinds_lengths_steps():
    d = TimeSeries([1.0, 2.0], 1.0, KIND_DEMAND)
    w = TimeSeries([0.1, 0.2], 1.0, KIND_CAPACITY_FACTOR)
    p = TimeSeries([0.0, 0.3], 1.0, KIND_CAPACITY_FACTOR)
    data = align(d, w, p)
    assert data.n_steps == 2
    assert data.dt_hours == 1.0
    assert data.total_hours == 2.0

    with pytest.raises(ValueError, match="demand series has kind"):
        AlignedDataset(demand=w, wind_cf=w, pv_cf=p)
    with pytest.raises(ValueError, match="wind_cf series has kind"):
        AlignedDataset(demand=d, wind_cf=d, pv_cf=p)
    short = TimeSeries([0.1], 1.0, KIND_CAPACITY_FACTOR)
    with pytest.raises(ValueError, match="demand has 2 steps.*wind_cf has 1 steps"):
        align(d, short, p)
    half = TimeSeries([0.1, 0.2], 0.5, KIND_CAPACITY_FACTOR)
    with pytest.raises(ValueError, match="step lengths differ"):
        align(d, half, p)


def test_load_series_reads_value_column_and_ignores_timestamp():
    text = "timestamp,value\n2019-01-01T00:00,3.5\n2019-01-01T01:00,4.0\n"
    ts = load_series(text.encode(), KIND_DEMAND, label="sa")
    assert np.array_equal(ts.values, [3.5, 4.0])
    assert ts.label == "sa"


def test_load_series_reads_value_column_of_spaced_header():
    text = b"timestamp, value \n2019-01-01T00:00,3.5\n2019-01-01T01:00, 4.0\n"
    ts = load_series(text, KIND_DEMAND)
    assert np.array_equal(ts.values, [3.5, 4.0])


def test_load_series_rejects_two_value_columns():
    for header in ("value,value", "timestamp,value, value"):
        text = f"{header}\n1.0,2.0,3.0\n".encode()
        with pytest.raises(ValueError, match="more than one 'value' column") as err:
            load_series(text, KIND_DEMAND, label="d.csv")
        assert repr(header.split(",")) in str(err.value)
        assert str(err.value).startswith("d.csv: ")


def test_load_series_accepts_bom_and_crlf():
    text = "﻿value\r\n1.0\r\n2.0\r\n"
    ts = load_series(text.encode("utf-8"), KIND_DEMAND)
    assert np.array_equal(ts.values, [1.0, 2.0])


def test_load_series_accepts_file_object_and_path(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text("value\n7.25\n")
    from_path = load_series(path, KIND_DEMAND)
    with open(path, "rb") as fh:
        from_file = load_series(fh, KIND_DEMAND)
    assert np.array_equal(from_path.values, [7.25])
    assert np.array_equal(from_file.values, [7.25])
    assert from_path.label == "demand.csv"


def test_load_series_error_messages_carry_line_numbers():
    with pytest.raises(ValueError, match="no 'value' column"):
        load_series(b"val\n1.0\n", KIND_DEMAND)
    with pytest.raises(ValueError, match="empty input"):
        load_series(b"", KIND_DEMAND)
    with pytest.raises(ValueError, match="no data rows"):
        load_series(b"value\n", KIND_DEMAND)
    with pytest.raises(ValueError, match="line 3"):
        load_series(b"value\n1.0\nbogus\n", KIND_DEMAND)
    with pytest.raises(ValueError, match="missing value on line 2"):
        load_series(b"timestamp,value\n2019-01-01,\n", KIND_DEMAND)
    with pytest.raises(ValueError, match="non-finite value on line 2"):
        load_series(b"value\ninf\n", KIND_DEMAND)
    # skipped blank lines still count, and a row too short for the value
    # column has no value
    with pytest.raises(ValueError, match="unparseable value 'bogus' on line 5"):
        load_series(b"value\n1.0\n\n\nbogus\n", KIND_DEMAND)
    with pytest.raises(ValueError, match="missing value on line 4"):
        load_series(b"timestamp,value\nt0,1.0\n\nt2\n", KIND_DEMAND)


def test_load_series_skips_blank_lines():
    ts = load_series(b"value\n\n1.0\n\n2.0\n\n", KIND_DEMAND)
    assert ts.values.tolist() == [1.0, 2.0]


def test_load_series_clamps_rounding_noise_only():
    noisy = f"value\n{1.0 + CF_CLAMP_TOL / 2}\n{-CF_CLAMP_TOL / 2}\n".encode()
    ts = load_series(noisy, KIND_CAPACITY_FACTOR)
    assert np.array_equal(ts.values, [1.0, 0.0])
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        load_series(f"value\n{1.0 + 10 * CF_CLAMP_TOL}\n".encode(), KIND_CAPACITY_FACTOR)
    # demand gets no clamp tolerance
    with pytest.raises(ValueError, match="negative"):
        load_series(f"value\n{-CF_CLAMP_TOL / 2}\n".encode(), KIND_DEMAND)



def _count_csv_readers(monkeypatch):
    """The argument tuples of every ``csv.reader`` call from here on."""
    calls = []
    reader = csv.reader

    def counting(*args, **kwargs):
        calls.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counting)
    return calls


def test_load_series_reads_a_value_only_file_without_csv(monkeypatch):
    text = (FIXTURES / "demand.csv").read_bytes()
    expected = oracle.load_series(text, KIND_DEMAND).values.view(np.int64).tolist()
    calls = _count_csv_readers(monkeypatch)
    for raw in (text, text.replace(b"\n", b"\r\n"), b"\xef\xbb\xbf" + text + b"\n\n"):
        assert load_series(raw, KIND_DEMAND).values.view(np.int64).tolist() == expected
    assert calls == []


def test_load_series_reads_other_shapes_and_faults_row_by_row(monkeypatch):
    calls = _count_csv_readers(monkeypatch)
    assert load_series(b'value\n"1.5"\n2\n', KIND_DEMAND).values.tolist() == [1.5, 2.0]
    assert len(calls) == 1
    # a lone \r ends a csv row, so the space before it is a row of its own
    with pytest.raises(ValueError, match="missing value on line 2"):
        load_series(b"value\n \r1.5\n", KIND_DEMAND)
    with pytest.raises(ValueError, match="non-finite value on line 3"):
        load_series(b"value\n1\n1e999\n", KIND_DEMAND)
    with pytest.raises(ValueError, match="missing value on line 3"):
        load_series(b"value\n1\n  \n", KIND_DEMAND)
    assert len(calls) == 4


def test_load_series_names_the_line_of_a_cell_csv_cannot_hold():
    long_cell = "0" * 140_000 + "1"
    assert len(long_cell) > csv.field_size_limit()
    # read without csv, as float reads it
    ts = load_series(f"value\n2\n{long_cell}\n".encode(), KIND_DEMAND)
    assert ts.values.tolist() == [2.0, 1.0]
    with pytest.raises(ValueError) as raised:
        load_series(f'value\n"2"\n{long_cell}\n'.encode(), KIND_DEMAND, label="d.csv")
    assert str(raised.value) == (
        "d.csv: malformed CSV on line 3: field larger than field limit (131072)"
    )


_NOISE = [b + s * k * CF_CLAMP_TOL for b in (0.0, 1.0) for s in (-1, 1) for k in (0.5, 2.0)]
_FAULTS = [
    "nan", "inf", "-inf", "1e999", "1_0", "+1.5", "-0.25", "-0.0", " 2.5 ", "\t3", "0x1",
    "abc", "1,5", "", "  ", '"0.5"', '"0.5', '" 7"', "1e-3",
    "١", "\u00a00.5", "0.5\u2009", "\u2028", "\x00", "\r0.5", " \r0.5",
]


@st.composite
def _series_texts(draw):
    """CSV bytes in many shapes, each with at most one faulty cell, and the
    kind to read them as."""
    header = draw(
        st.one_of(
            st.just("value"),
            st.just("value"),
            st.sampled_from(
                ["value", " value ", "timestamp,value", "value,timestamp", "timestamp, value ",
                 '"value"', "val", "value,value"]
            ),
        )
    )
    columns = [name.strip(' "') for name in header.split(",")]
    column = columns.index("value") if "value" in columns else 0
    cell = st.one_of(
        st.floats(0.0, 1.0).map(repr),
        st.floats(0.0, 1.0).map(lambda x: f" {x:.6g}"),
        st.sampled_from(_NOISE).map(repr),
    )
    cells = draw(st.lists(cell, max_size=8))
    fault = draw(st.one_of(st.none(), st.sampled_from(_FAULTS)))
    if fault is not None:
        cells.insert(draw(st.integers(0, len(cells))), fault)
    blanks = [""] if draw(st.integers(0, 2)) else ["", " ", "\t"]
    endings = [["\n"], ["\r\n"], ["\n", "\r\n"]]
    if not draw(st.integers(0, 3)):  # a lone \r, which csv splits a row at
        endings = [["\n", "\r"], ["\r"], ["\r\n", "\r"]]
    ends = draw(st.sampled_from(endings))
    lines = [header]
    for text in cells:
        lines.extend(draw(st.lists(st.sampled_from(blanks), max_size=1)))
        lines.append(",".join(["t0"] * column + [text] + ["t0"] * (len(columns) - column - 1)))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    bom = draw(st.sampled_from(["", "", "\ufeff", "\ufeff\ufeff"]))
    kind = draw(st.sampled_from([KIND_DEMAND, KIND_CAPACITY_FACTOR]))
    return (bom + text).encode("utf-8"), kind


def _outcome(load, raw, kind):
    try:
        ts = load(raw, kind, 1.0, "s.csv")
    except ValueError as exc:
        return type(exc), str(exc)
    return ts.values.view(np.int64).tolist(), ts.label


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_series_texts())
@example((b"value\n \r0.5\n", KIND_DEMAND))  # csv reads a blank cell before the \r
def test_load_series_matches_the_row_walk_oracle(case):
    raw, kind = case
    assert _outcome(load_series, raw, kind) == _outcome(oracle.load_series, raw, kind)


@pytest.mark.parametrize(
    ("raw", "message"),
    [
        (b"value\n\xff\n", "byte 0xff on line 2 is not UTF-8 (invalid start byte)"),
        (
            b"\xef\xbb\xbftimestamp,value\r\n0,1\r\n1,\xe9\r\n",
            "byte 0xe9 on line 3 is not UTF-8 (invalid continuation byte)",
        ),
        # a lone \r ends a line, as it ends a csv row
        (b"value\r0.5\r\xc3", "byte 0xc3 on line 3 is not UTF-8 (unexpected end of data)"),
    ],
)
def test_load_series_names_the_line_of_a_byte_that_is_not_utf8(raw, message):
    with pytest.raises(ValueError) as raised:
        load_series(raw, KIND_DEMAND, 1.0, "s.csv")
    assert raised.type is ValueError
    assert str(raised.value) == f"s.csv: {message}"


def test_dump_series_round_trips_exactly():
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = rng.random(int(rng.integers(1, 200)))
        ts = TimeSeries(values, 0.5, KIND_CAPACITY_FACTOR, "rt")
        back = load_series(dump_series(ts).encode(), ts.kind, ts.dt_hours, ts.label)
        assert np.array_equal(back.values, ts.values)


def test_timeseries_equality_compares_values_step_and_names():
    rng = np.random.default_rng(12)
    values = rng.random(50)
    ts = TimeSeries(values, 0.5, KIND_CAPACITY_FACTOR, "eq")
    assert ts == ts
    assert pickle.loads(pickle.dumps(ts)) == ts
    assert load_series(dump_series(ts).encode(), ts.kind, ts.dt_hours, ts.label) == ts
    assert TimeSeries(values.copy(), 0.5, KIND_CAPACITY_FACTOR, "eq") == ts
    data = random_dataset(rng, n_steps=20)
    assert pickle.loads(pickle.dumps(data)) == data
    nudged = values.copy()
    nudged[17] = np.nextafter(nudged[17], 1.0)
    for other in (
        TimeSeries(nudged, 0.5, KIND_CAPACITY_FACTOR, "eq"),
        TimeSeries(values[:-1], 0.5, KIND_CAPACITY_FACTOR, "eq"),
        TimeSeries(values, 1.0, KIND_CAPACITY_FACTOR, "eq"),
        TimeSeries(values, 0.5, KIND_DEMAND, "eq"),
        TimeSeries(values, 0.5, KIND_CAPACITY_FACTOR, "other"),
    ):
        assert other != ts and not other == ts
    assert ts != (ts.buffer, ts.dt_hours, ts.kind, ts.label) and ts != ts.buffer


def test_demand_stats_hand_values():
    ts = TimeSeries([1.0, 2.0, 3.0, 2.0], 1.0, KIND_DEMAND)
    stats = demand_stats(ts)
    assert stats.peak_gw == 3.0
    assert stats.average_gw == 2.0
    assert stats.annual_energy_twh == 8.0 / 1000.0

    half = TimeSeries([1.0, 2.0, 3.0, 2.0], 0.5, KIND_DEMAND)
    half_stats = demand_stats(half)
    assert half_stats.annual_energy_twh == 4.0 / 1000.0
    assert half_stats.average_gw == 2.0

    with pytest.raises(ValueError, match="needs a demand series"):
        demand_stats(TimeSeries([0.5], 1.0, KIND_CAPACITY_FACTOR))


def test_demand_stats_average_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        data = random_dataset(rng)
        stats = demand_stats(data.demand)
        assert stats.average_gw * data.total_hours / 1000.0 == pytest.approx(
            stats.annual_energy_twh, rel=1e-12
        )
        assert stats.peak_gw >= stats.average_gw


def test_scale_demand_scales_only_demand():
    rng = np.random.default_rng(5)
    data = random_dataset(rng, n_steps=48)
    scaled = scale_demand(data, 1.03)
    assert np.array_equal(scaled.demand.values, data.demand.values * 1.03)
    assert scaled.wind_cf is data.wind_cf
    assert scaled.pv_cf is data.pv_cf
    assert demand_stats(scale_demand(data, 2.0).demand).annual_energy_twh == pytest.approx(
        2.0 * demand_stats(data.demand).annual_energy_twh, rel=1e-12
    )
    identity = scale_demand(data, 1.0)
    assert np.array_equal(identity.demand.values, data.demand.values)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="multiplier"):
            scale_demand(data, bad)


def test_synthesize_dataset_is_deterministic():
    a = synthesize_dataset(seed=42, total_hours=96)
    b = synthesize_dataset(seed=42, total_hours=96)
    c = synthesize_dataset(seed=43, total_hours=96)
    assert np.array_equal(a.demand.values, b.demand.values)
    assert np.array_equal(a.wind_cf.values, b.wind_cf.values)
    assert np.array_equal(a.pv_cf.values, b.pv_cf.values)
    assert not np.array_equal(a.demand.values, c.demand.values)


def test_synthesize_dataset_contract():
    data = synthesize_dataset(seed=1, total_hours=8760)
    assert data.n_steps == 8760
    assert data.dt_hours == 1.0
    assert np.all(data.demand.values >= 0.5)
    for cf in (data.wind_cf.values, data.pv_cf.values):
        assert np.all(cf >= 0.0) and np.all(cf <= 1.0)
    # PV is zero outside the daylight arc
    night = data.pv_cf.values[np.arange(8760) % 24 < 6]
    assert np.all(night == 0.0)


@pytest.mark.parametrize("hours", [24, 47])
def test_synthesize_dataset_shorter_than_a_smoothing_window(hours):
    # PV weather is smoothed over 48 h, longer than the series
    data = synthesize_dataset(seed=1, total_hours=hours)
    assert data.n_steps == hours
    for cf in (data.wind_cf.values, data.pv_cf.values):
        assert np.all(cf >= 0.0) and np.all(cf <= 1.0)


def test_synthesize_dataset_droughts_zero_both_resources():
    data = synthesize_dataset(seed=9, total_hours=240, droughts=[(50, 122), (200, 210)])
    plain = synthesize_dataset(seed=9, total_hours=240)
    for lo, hi in ((50, 122), (200, 210)):
        assert np.all(data.wind_cf.values[lo:hi] == 0.0)
        assert np.all(data.pv_cf.values[lo:hi] == 0.0)
    outside = np.ones(240, dtype=bool)
    outside[50:122] = False
    outside[200:210] = False
    assert np.array_equal(data.wind_cf.values[outside], plain.wind_cf.values[outside])
    assert np.array_equal(data.demand.values, plain.demand.values)

    with pytest.raises(ValueError, match="drought window"):
        synthesize_dataset(seed=9, total_hours=100, droughts=[(90, 110)])
    with pytest.raises(ValueError, match="drought window"):
        synthesize_dataset(seed=9, total_hours=100, droughts=[(30, 30)])
    with pytest.raises(ValueError, match="at least 24"):
        synthesize_dataset(seed=9, total_hours=12)


def test_synthesize_dataset_refuses_too_many_hours(monkeypatch):
    # the bound is checked before the generator or any series is made
    monkeypatch.setattr(np.random, "default_rng", mock.Mock(side_effect=AssertionError))
    monkeypatch.setattr(np, "arange", mock.Mock(side_effect=AssertionError))
    with pytest.raises(ValueError, match="synthetic_hours must be at most"):
        synthesize_dataset(1, MAX_SYNTHETIC_HOURS + 1)
