"""Demand and resource profiles.

Hourly (or half-hourly) demand and capacity-factor series are the inputs to
every simulation in this package.  This module loads them from CSV, validates
them, bundles aligned series into a dataset, and can synthesize deterministic
test datasets with optional zero-resource drought windows.

Units follow grid convention: demand in GW, capacity factors dimensionless in
[0, 1], energy in TWh, time step in hours.

A series keeps its values in a stdlib float64 buffer that the C library
reads, so loading and checking CSV needs no numpy.  numpy is imported to
synthesize a dataset, and where a caller reads ``TimeSeries.values``.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
import sys
from array import array
from dataclasses import dataclass
from itertools import filterfalse
from typing import IO, TYPE_CHECKING, Sequence

from . import _kernels

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

KIND_DEMAND = "demand-GW"
KIND_CAPACITY_FACTOR = "capacity-factor"

_VALID_KINDS = (KIND_DEMAND, KIND_CAPACITY_FACTOR)
_VALID_DT = (1.0, 0.5)

# Capacity factors this far outside [0, 1] are treated as rounding noise and
# clamped on load; anything further out is a data error.
CF_CLAMP_TOL = 1e-9


class _Values:
    """The ``values`` field of a ``TimeSeries``.

    Set, it copies what it is given into a new ``array('d')`` (None unless
    it lies along one axis), for ``__post_init__`` to check.  Read, it is
    the series as a read-only float64 ndarray over ``buffer``, which imports
    numpy.  Read on the class it raises ``AttributeError``, so the field
    has no default.
    """

    def __get__(self, series, owner=None):
        if series is None:
            raise AttributeError("values")
        return _kernels.as_ndarray(series.buffer)

    def __set__(self, series, values):
        series.__dict__["buffer"] = _float64_copy(values)


def _float64_copy(values) -> array | None:
    """``values`` copied into a new ``array('d')``, or None unless they lie
    along one axis: a buffer of doubles or a list of numbers without numpy,
    anything else through ``np.asarray``."""
    view = memoryview(values) if isinstance(values, (array, memoryview)) else None
    if view is not None and view.format == "d":
        return array("d", view.tobytes()) if view.ndim == 1 else None
    if isinstance(values, (list, tuple)):
        try:
            return array("d", values)
        except TypeError:
            pass
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    return array("d", values.tobytes()) if values.ndim == 1 else None


def _first_outside(values: array, lo: float, hi: float) -> int:
    """The first index of ``values`` outside ``[lo, hi]`` or not a number, or its length."""
    return _kernels.first_outside(len(values), values.buffer_info()[0], lo, hi)


_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class TimeSeries:
    """A validated fixed-step series of demand or capacity-factor values.

    The values are kept in ``buffer``, a read-only float64 memoryview of a
    stdlib ``array('d')``, which the C library reads by address; reading
    ``values`` gives them as a read-only float64 ndarray over that buffer.

    Parameters
    ----------
    values : ndarray, buffer of float64, or sequence of numbers
        One value per step, finite.  Demand must be nonnegative GW and
        capacity factors must lie in [0, 1].  They are copied.
    dt_hours : float
        Step length in hours, 1.0 for hourly data or 0.5 for half-hourly.
    kind : str
        Either ``KIND_DEMAND`` or ``KIND_CAPACITY_FACTOR``.
    label : str
        Free-form name used in messages and reports.
    """

    values: NDArray[np.float64] = _Values()
    dt_hours: float
    kind: str
    label: str = ""

    def __post_init__(self) -> None:
        values = self.buffer  # the copy ``_Values`` made
        if values is None or len(values) == 0:
            raise ValueError(f"series {self.label!r} must be a nonempty 1-D array")
        bad = _first_outside(values, -_FLOAT_MAX, _FLOAT_MAX)
        if bad < len(values):
            raise ValueError(f"series {self.label!r} has non-finite value at step {bad}")
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown series kind {self.kind!r}, expected one of {_VALID_KINDS}")
        if float(self.dt_hours) not in _VALID_DT:
            raise ValueError(f"dt_hours must be 1.0 or 0.5, got {self.dt_hours!r}")
        if self.kind == KIND_DEMAND:
            bad = _first_outside(values, 0.0, math.inf)
            if bad < len(values):
                raise ValueError(f"demand series {self.label!r} is negative at step {bad}")
        else:
            bad = _first_outside(values, 0.0, 1.0)
            if bad < len(values):
                raise ValueError(
                    f"capacity-factor series {self.label!r} is outside [0, 1] at step {bad}"
                )
        object.__setattr__(self, "buffer", memoryview(values).toreadonly())
        object.__setattr__(self, "dt_hours", float(self.dt_hours))

    def __eq__(self, other):
        # the values compared as doubles, without the ndarray ``values`` makes
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = (self.buffer, self.dt_hours, self.kind, self.label)
        return mine == (other.buffer, other.dt_hours, other.kind, other.label)

    def __len__(self) -> int:
        return len(self.buffer)

    def __reduce__(self):
        # a memoryview does not pickle, the array under it does
        return type(self), (self.buffer.obj, self.dt_hours, self.kind, self.label)

    @property
    def total_hours(self) -> float:
        """Span of the series in hours."""
        return len(self) * self.dt_hours

    def total(self) -> float:
        """The sum of the values, ``np.sum(self.values)`` bit for bit."""
        return _kernels.total(len(self.buffer), _kernels.address(self.buffer))

    def peak(self) -> float:
        """The greatest value, ``np.max(self.values)``; +0.0 for zeros of both signs."""
        return _kernels.peak(len(self.buffer), _kernels.address(self.buffer))


@dataclass(frozen=True)
class AlignedDataset:
    """Demand, wind, and PV series sharing one step grid."""

    demand: TimeSeries
    wind_cf: TimeSeries
    pv_cf: TimeSeries

    def __post_init__(self) -> None:
        if self.demand.kind != KIND_DEMAND:
            raise ValueError(f"demand series has kind {self.demand.kind!r}")
        for name, series in (("wind_cf", self.wind_cf), ("pv_cf", self.pv_cf)):
            if series.kind != KIND_CAPACITY_FACTOR:
                raise ValueError(f"{name} series has kind {series.kind!r}")
        lengths = {
            "demand": len(self.demand),
            "wind_cf": len(self.wind_cf),
            "pv_cf": len(self.pv_cf),
        }
        if len(set(lengths.values())) != 1:
            detail = ", ".join(f"{k} has {v} steps" for k, v in lengths.items())
            raise ValueError(f"series lengths differ: {detail}")
        steps = {self.demand.dt_hours, self.wind_cf.dt_hours, self.pv_cf.dt_hours}
        if len(steps) != 1:
            raise ValueError(
                f"series step lengths differ: demand dt={self.demand.dt_hours}, "
                f"wind_cf dt={self.wind_cf.dt_hours}, pv_cf dt={self.pv_cf.dt_hours}"
            )

    @property
    def n_steps(self) -> int:
        return len(self.demand)

    @property
    def dt_hours(self) -> float:
        return self.demand.dt_hours

    @property
    def total_hours(self) -> float:
        return self.demand.total_hours


@dataclass(frozen=True)
class DemandStats:
    """Headline demand figures used for reports and default search ranges."""

    peak_gw: float
    average_gw: float
    annual_energy_twh: float


def load_series(
    source: bytes | str | os.PathLike | IO[bytes],
    kind: str,
    dt_hours: float = 1.0,
    label: str = "",
) -> TimeSeries:
    """Read one series from CSV.

    The CSV must have a header row including exactly one ``value`` column;
    spaces around header names are ignored.  Any other column, such as a
    ``timestamp``, is carried as opaque text and ignored.  Blank lines are
    skipped, and error messages give the line number in the file.
    Capacity factors within ``CF_CLAMP_TOL`` of the [0, 1] bounds are clamped
    to the bound; demand gets no such tolerance.

    The shape ``dump_series`` writes, a lone ``value`` header over one
    ASCII number per line with LF or CRLF endings and no ``"``, is read
    without csv, by one ``float`` per undecoded line.  Any other shape, and
    any such text with a fault in it, is decoded and read row by row with
    ``csv.reader``; both give every value as ``float`` of its cell, bit
    for bit.

    Parameters
    ----------
    source : bytes, path, or binary file object
        UTF-8 CSV text with LF or CRLF line endings.
    kind : str
        ``KIND_DEMAND`` or ``KIND_CAPACITY_FACTOR``.
    dt_hours : float
        Step length of the data, 1.0 or 0.5.
    label : str
        Name for error messages; defaults to the file name when a path is
        given.

    Returns
    -------
    TimeSeries

    Raises
    ------
    ValueError
        On malformed CSV (a cell longer than ``csv.field_size_limit()``), a
        missing or repeated ``value`` column, empty input, non-finite or
        out-of-range values.
    """
    if isinstance(source, bytes):
        raw = source
        name = label or "<bytes>"
    elif isinstance(source, (str, os.PathLike)):
        name = label or os.path.basename(os.fspath(source))
        with open(source, "rb") as fh:
            raw = fh.read()
    else:
        raw = source.read()
        name = label or getattr(source, "name", "<stream>")

    values = _read_value_only(raw)
    if values is None:
        text = _decode_utf8(raw, name).removeprefix("\ufeff")
        values = array("d", _read_rows(text, name))
    if kind == KIND_CAPACITY_FACTOR and _first_outside(values, 0.0, 1.0) < len(values):
        # Rounding noise just outside the bounds is clamped, real excursions are not.
        values = array("d", map(_clamp_rounding_noise, values))
    return TimeSeries(values=values, dt_hours=dt_hours, kind=kind, label=label or name)


def _clamp_rounding_noise(cf: float) -> float:
    """A capacity factor within ``CF_CLAMP_TOL`` outside [0, 1] clamped to the bound."""
    if -CF_CLAMP_TOL <= cf < 0.0:
        return 0.0
    if 1.0 < cf <= 1.0 + CF_CLAMP_TOL:
        return 1.0
    return cf


_BLANK_LINES = frozenset((b"\n", b"\r\n"))


def _read_value_only(raw: bytes) -> array | None:
    r"""The values of CSV bytes with a lone ``value`` header, or None.

    None leaves the text to ``_read_rows``: a text of another shape, a line
    ``float`` cannot read (a quoted or non-ASCII cell among them), a
    non-finite value or no rows.  A ``\r`` outside ``\r\n`` ends a csv row
    but not a ``float``, so it is left there too.
    """
    body = raw.removeprefix(codecs.BOM_UTF8)
    if not body.startswith((b"value\n", b"value\r\n")) or (
        b"\r" in body and body.count(b"\r") != body.count(b"\r\n")
    ):
        return None
    lines = io.BytesIO(body)
    next(lines)  # the header
    try:
        values = array("d", map(float, filterfalse(_BLANK_LINES.__contains__, lines)))
    except ValueError:
        return None
    finite = _first_outside(values, -_FLOAT_MAX, _FLOAT_MAX) == len(values)
    return values if values and finite else None


def _decode_utf8(raw: bytes, name: str, error: type[ValueError] = ValueError) -> str:
    """``raw`` as UTF-8 text, or ``error`` naming ``name`` and the line of its first bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start] + b"_").splitlines())
        bad = f"byte 0x{raw[exc.start]:02x} on line {line} is not UTF-8 ({exc.reason})"
        raise error(f"{name}: {bad}") from None


def _read_rows(text: str, name: str) -> list[float]:
    """The ``value`` cells of CSV ``text``, checked row by row."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{name}: empty input, expected a CSV header row")
        fields = [f.strip() for f in header]
        if "value" not in fields:
            raise ValueError(f"{name}: no 'value' column in header {header!r}")
        if fields.count("value") > 1:
            raise ValueError(f"{name}: more than one 'value' column in header {header!r}")
        column = fields.index("value")

        values: list[float] = []
        for row in reader:
            if not row:  # a blank line
                continue
            cell = row[column] if column < len(row) else ""
            if cell.strip() == "":
                raise ValueError(f"{name}: missing value on line {reader.line_num}")
            try:
                x = float(cell)
            except ValueError:
                raise ValueError(
                    f"{name}: unparseable value {cell!r} on line {reader.line_num}"
                ) from None
            if not math.isfinite(x):
                raise ValueError(f"{name}: non-finite value on line {reader.line_num}")
            values.append(x)
    except csv.Error as exc:
        raise ValueError(f"{name}: malformed CSV on line {reader.line_num}: {exc}") from None
    if not values:
        raise ValueError(f"{name}: no data rows")
    return values


def dump_series(series: TimeSeries) -> str:
    """Serialize a series to CSV text that ``load_series`` reads back exactly.

    Values are written with shortest round-trip float formatting, so
    ``load_series(dump_series(ts).encode(), ts.kind, ts.dt_hours)`` reproduces
    ``ts.values`` bit for bit.
    """
    lines = ["value"]
    lines.extend(map(repr, series.buffer.tolist()))
    return "\n".join(lines) + "\n"


def align(demand: TimeSeries, wind_cf: TimeSeries, pv_cf: TimeSeries) -> AlignedDataset:
    """Bundle three series after checking kinds, lengths, and step size."""
    return AlignedDataset(demand=demand, wind_cf=wind_cf, pv_cf=pv_cf)


def demand_stats(demand: TimeSeries) -> DemandStats:
    """Peak GW, average GW, and total energy in TWh for a demand series.

    Average is defined as energy divided by span, so
    ``average_gw * total_hours / 1000 == annual_energy_twh`` holds by
    construction.
    """
    if demand.kind != KIND_DEMAND:
        raise ValueError(f"demand_stats needs a demand series, got kind {demand.kind!r}")
    energy_twh = demand.total() * demand.dt_hours / 1000.0
    peak = demand.peak()
    average = energy_twh * 1000.0 / demand.total_hours
    return DemandStats(peak_gw=peak, average_gw=average, annual_energy_twh=energy_twh)


def scale_demand(data: AlignedDataset, multiplier: float) -> AlignedDataset:
    """Return a dataset with demand scaled by ``multiplier``, resources unchanged."""
    if not (multiplier > 0.0 and math.isfinite(multiplier)):
        raise ValueError(f"demand multiplier must be positive and finite, got {multiplier!r}")
    demand = data.demand.buffer
    scaled = TimeSeries(
        values=_kernels.scale(len(demand), _kernels.address(demand), float(multiplier)),
        dt_hours=data.demand.dt_hours,
        kind=KIND_DEMAND,
        label=data.demand.label,
    )
    return AlignedDataset(demand=scaled, wind_cf=data.wind_cf, pv_cf=data.pv_cf)


def _smooth(noise: NDArray[np.float64], width: int) -> NDArray[np.float64]:
    # Moving-average smoothing with mirrored edges, keeps output length; a
    # series shorter than the window is mirrored more than once.
    import numpy as np

    kernel = np.ones(width) / width
    padded = np.pad(noise, width, mode="symmetric")
    return np.convolve(padded, kernel, mode="same")[width:-width]


# The most hours a synthetic dataset may have.  A run holds about 0.26 kB an
# hour (pv-only --trace at initial_soc_fraction 0.5 peaked at 38, 59 and 81 MB
# for 8,760, 87,600 and 175,200 h, the searches no higher; CPython 3.11, numpy
# 2.4, x86-64), so 7.8 M hours fit in 2 GB; a million, 114 years, leave room.
MAX_SYNTHETIC_HOURS = 1_000_000


def _check_synthetic_hours(total_hours: int) -> None:
    """Raise ``ValueError`` unless a synthetic series of ``total_hours`` lies
    within [24, ``MAX_SYNTHETIC_HOURS``]."""
    if not 24 <= total_hours <= MAX_SYNTHETIC_HOURS:
        bound = "at least 24" if total_hours < 24 else f"at most {MAX_SYNTHETIC_HOURS}"
        raise ValueError(f"synthetic_hours must be {bound}, got {total_hours}")


def _check_drought_window(start: int, end: int, total_hours: int) -> None:
    """Raise ``ValueError`` unless ``(start, end)`` is a nonempty half-open
    window inside a synthetic series of ``total_hours``."""
    if not (0 <= start < end <= total_hours):
        raise ValueError(
            f"drought window {start}-{end} must have 0 <= start < end <= synthetic_hours, "
            f"got synthetic_hours {total_hours}"
        )


def synthesize_dataset(
    seed: int,
    total_hours: int,
    droughts: Sequence[tuple[int, int]] | None = None,
) -> AlignedDataset:
    """Build a deterministic hourly test dataset.

    Demand carries diurnal and seasonal shape around a 10 GW base with mild
    noise.  Wind is a smoothed stochastic process, PV follows a clear-sky
    daylight arc scaled by slow weather noise.  Optional drought windows force
    both resource series to exactly zero, which is the stress case for firm
    backup sizing.

    Parameters
    ----------
    seed : int
        Seed for the random generator; equal seeds give equal datasets.
    total_hours : int
        Series length in hours, from 24 to ``MAX_SYNTHETIC_HOURS``.
    droughts : sequence of (start_hour, end_hour), optional
        Half-open windows, in hours from the series start, where both wind
        and PV capacity factors are set to zero.

    Returns
    -------
    AlignedDataset
    """
    import numpy as np

    _check_synthetic_hours(total_hours)
    rng = np.random.default_rng(seed)
    h = np.arange(total_hours, dtype=np.float64)

    seasonal = np.cos(2.0 * np.pi * h / 8760.0)
    diurnal = -np.cos(2.0 * np.pi * ((h % 24.0) - 19.0) / 24.0)
    demand = 10.0 * (
        1.0 + 0.12 * seasonal + 0.22 * diurnal + 0.04 * _smooth(rng.standard_normal(total_hours), 6)
    )
    demand = np.maximum(demand, 0.5)

    wind = 0.35 + 0.10 * seasonal + 0.45 * _smooth(rng.standard_normal(total_hours), 24)
    wind = np.clip(wind, 0.0, 1.0)

    sun = np.sin(np.pi * ((h % 24.0) - 6.0) / 12.0)
    sun = np.maximum(sun, 0.0)
    weather = np.clip(0.75 + 0.35 * _smooth(rng.standard_normal(total_hours), 48), 0.05, 1.0)
    pv = np.clip(sun * weather * (0.95 + 0.05 * seasonal), 0.0, 1.0)

    if droughts:
        for start, end in droughts:
            _check_drought_window(start, end, total_hours)
            wind[start:end] = 0.0
            pv[start:end] = 0.0

    return AlignedDataset(
        demand=TimeSeries(demand, 1.0, KIND_DEMAND, label=f"synthetic-demand-{seed}"),
        wind_cf=TimeSeries(wind, 1.0, KIND_CAPACITY_FACTOR, label=f"synthetic-wind-{seed}"),
        pv_cf=TimeSeries(pv, 1.0, KIND_CAPACITY_FACTOR, label=f"synthetic-pv-{seed}"),
    )
