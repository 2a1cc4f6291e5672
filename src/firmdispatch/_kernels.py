"""Hot inner loop of the dispatch simulation, and the array work around it.

``balance_loop`` runs a pass as one C loop, ``firmdispatch_balance`` in
``_kernels.c``, which walks every step once in the statement order of the
element-indexed loop and writes all ten rows of the ledger, so the ledger
is the same bit for bit.  Each figure a caller reads is one row, the
battery charge and the draw on dispatchable plant among them.  The
battery state couples every step to the one before it; the loop branches
on one signed flow per step, renewables minus the demand that baseload
leaves, which is the surplus where it is positive and the residual demand
negated where it is negative.  A battery that cannot act (no power, or no
energy and an empty start) is skipped, and its flows stay zero.

Series and ledgers live in stdlib ``array('d')`` buffers, which the C
library reads and writes by address, so nothing here imports numpy.
``doubles`` is the one form they take: a flat read-only memoryview of a
whole ``array('d')``.  ``scale``, ``total`` and ``peak`` do what numpy's
``a * x``, ``np.sum`` and ``np.max`` did, bit for bit; only the sign of a
zero maximum may differ, which is +0.0 wherever zeros of both signs meet.
``read_values`` and ``format_rows`` do the per-value text work of a CSV
run in C, with the parser ``float()`` and the formatter ``repr()`` call,
so every value and every byte is theirs.

The C loop is compiled on first import with the compiler Python was built
with (``sysconfig``'s ``CC``) and fixed flags, into
``$XDG_CACHE_HOME/firmdispatch`` (else ``~/.cache/firmdispatch``), and
loaded through ``ctypes``.  The library's name is a hash of what the
compile depends on, so a warm import starts no process, and a changed
source or interpreter compiles anew.  A compile writes under a temporary
name and renames it into place, so processes that compile at once each
load a whole library.  Deleting the cache is safe.

Two tests here let ``dispatch.SizingTable`` answer a mix from another
mix's pass.  ``_battery_is_idle`` says when the battery cannot act on any
flow, so the ledger does not depend on the battery.
``_capacity_never_binds`` says when, with the flag off and a +0.0 start,
no step of a pass meets the capacity, so the ledger is that of every
battery of the same power that clears the same margin.
"""

from __future__ import annotations

import ctypes
import importlib.util
import math
import os
import sys
from array import array

# Row indices of the step ledger filled by the balance loop.
ROW_BASELOAD = 0
ROW_REN_TO_DEMAND = 1
ROW_CHARGE = 2  # from renewables and from dispatch
ROW_CHARGE_FROM_DISPATCH = 3
ROW_DISCHARGE = 4
ROW_CURTAILED = 5
ROW_DISPATCH = 6
ROW_UNSERVED = 7
ROW_SOC = 8
ROW_DISPATCH_DRAW = 9  # dispatch plus the charge from dispatch
N_ROWS = 10

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# no -ffast-math, and no fused multiply-add: either would change bits
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _load():
    """The library of ``_kernels.c``, compiled into the cache first if it is not there.

    The file name hashes the source, the flags, the platform and
    ``sys.version``, which names the interpreter's build and so the ``CC``
    it was built with; reading ``CC`` itself would load sysconfig's build
    table on every import.  The machine is ``os.uname().machine``, the
    string ``platform.machine()`` gives, without importing ``platform``.
    """
    with open(_SOURCE, "rb") as fh:
        key = repr((fh.read(), _FLAGS, sys.platform, os.uname().machine, sys.version))
    cache = os.path.join(
        os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "firmdispatch"
    )
    path = os.path.join(cache, f"_kernels-{importlib.util.source_hash(key.encode()).hex()}.so")
    if not os.path.exists(path):
        _compile(path)
    return ctypes.CDLL(path)


def _command(output):
    """The compile command: the C compiler Python was built with, and ``_FLAGS``."""
    import sysconfig

    cc = (sysconfig.get_config_var("CC") or "cc").split()
    return [*cc, *_FLAGS, "-o", output, _SOURCE]


def _compile(path):
    """Compile ``_kernels.c`` to ``path`` through a temporary file in its directory."""
    import subprocess
    import tempfile

    cache = os.path.dirname(path)
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    except OSError as exc:
        raise ImportError(
            f"cannot compile {_SOURCE} into the cache directory {cache}: {exc}"
        ) from None
    os.close(fd)
    try:
        command = _command(tmp)
        try:
            run = subprocess.run(command, capture_output=True, text=True, errors="replace")
        except OSError as exc:
            raise ImportError(f"cannot compile {_SOURCE} with {command[0]}: {exc}") from None
        if run.returncode != 0:
            lines = (run.stderr + run.stdout).splitlines()
            first = next((line for line in lines if "error" in line), None)
            first = first or (lines[0] if lines else f"exit code {run.returncode}")
            raise ImportError(f"cannot compile {_SOURCE} with {command[0]}: {first}")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_LIBRARY = _load()
_BALANCE = _LIBRARY.firmdispatch_balance
_BALANCE.argtypes = (
    ctypes.c_void_p,  # demand
    ctypes.c_void_p,  # wind capacity factors
    ctypes.c_double,  # wind GW
    ctypes.c_void_p,  # PV capacity factors
    ctypes.c_double,  # PV GW
    ctypes.c_long,  # steps
    *[ctypes.c_double] * 7,  # dt, baseload, power, capacity, efficiency, start, dispatch cap
    ctypes.c_int,  # charge from dispatch
    ctypes.c_int,  # idle battery
    ctypes.c_void_p,  # the ledger
)
_BALANCE.restype = None
_SCALE = _LIBRARY.firmdispatch_scale
_SCALE.argtypes = (ctypes.c_void_p, ctypes.c_double, ctypes.c_long, ctypes.c_void_p)
_SCALE.restype = None
_SUM = _LIBRARY.firmdispatch_sum
_MAX = _LIBRARY.firmdispatch_max
for _reduce in (_SUM, _MAX):
    _reduce.argtypes = (ctypes.c_void_p, ctypes.c_long)
    _reduce.restype = ctypes.c_double
_FIRST_OUTSIDE = _LIBRARY.firmdispatch_first_outside
_FIRST_OUTSIDE.argtypes = (ctypes.c_void_p, ctypes.c_long, ctypes.c_double, ctypes.c_double)
_FIRST_OUTSIDE.restype = ctypes.c_long

# The text routines call CPython's float parser and formatter, so they go
# through a PyDLL handle of the same library: it holds the GIL over the call
# and raises any error those routines set.  The routines are handed over as
# pointers, so the library links no Python symbol.
_PY_LIBRARY = ctypes.PyDLL(_LIBRARY._name)
_READ_VALUES = _PY_LIBRARY.firmdispatch_read_values
_READ_VALUES.argtypes = (ctypes.c_char_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p)
_READ_VALUES.restype = ctypes.c_long
_FORMAT_ROWS = _PY_LIBRARY.firmdispatch_format_rows
_FORMAT_ROWS.argtypes = (
    ctypes.c_void_p,  # the column addresses
    ctypes.c_long,  # columns
    ctypes.c_long,  # first row
    ctypes.c_long,  # row past the last
    ctypes.c_void_p,  # the text
    ctypes.c_void_p,  # PyOS_double_to_string
    ctypes.c_void_p,  # PyMem_Free
)
_FORMAT_ROWS.restype = ctypes.c_long
_PARSE, _REPR, _RELEASE = (
    ctypes.cast(getattr(ctypes.pythonapi, name), ctypes.c_void_p).value
    for name in ("PyOS_string_to_double", "PyOS_double_to_string", "PyMem_Free")
)

_ZERO = array("d", [0.0])


def _new_doubles(size):
    """A new ``array('d')`` of ``size`` zeros."""
    return _ZERO * size


def doubles(values):
    """``values``, a buffer of doubles of any shape, as a flat read-only view
    of an ``array('d')``: of the one it views whole, else of a new copy.

    ``ValueError`` unless the buffer holds native doubles.
    """
    view = values if isinstance(values, memoryview) else memoryview(values)
    if view.format != "d":
        raise ValueError(f"expected a buffer of float64, not format {view.format!r}")
    base = view.obj
    whole = isinstance(base, array) and base.typecode == "d" and view.nbytes == 8 * len(base)
    if not (whole and view.c_contiguous):
        base = array("d", view.tobytes())
    elif view.readonly and view.ndim == 1:
        return view
    return memoryview(base).toreadonly()


def address(view):
    """The address of the first double of a view made by ``doubles``."""
    return view.obj.buffer_info()[0]


def scale(n, a, x):
    """``a * x`` over the ``n`` doubles at address ``a``, bit for bit as
    numpy computes it, as a read-only view of a new ``array('d')``."""
    out = _new_doubles(n)
    _SCALE(a, x, n, out.buffer_info()[0])
    return memoryview(out).toreadonly()


def total(n, a):
    """``np.sum`` of the ``n`` doubles at address ``a``, bit for bit."""
    return _SUM(a, n)


def peak(n, a):
    """``np.max`` of the ``n`` doubles at address ``a``, none of them NaN;
    a zero of both signs gives +0.0."""
    if n == 0:
        raise ValueError("the maximum of no values is undefined")
    return _MAX(a, n)


def first_outside(n, a, lo, hi):
    """The index of the first of the ``n`` doubles at address ``a`` outside
    ``[lo, hi]`` (a NaN is outside every range), or ``n``."""
    return _FIRST_OUTSIDE(a, n, lo, hi)


def read_values(text):
    r"""The numbers of ``text``, bytes of one number a line, as a new
    ``array('d')``, each ``float`` of its line bit for bit; or None.

    Empty lines are skipped.  Every other line must be ASCII blanks (space,
    ``\t``, ``\v``, ``\f``), one decimal ``[+-]?(d+(\.d*)?|\.d+)([eE][+-]?d+)?``,
    blanks, then ``\n``, ``\r\n`` or the end of the text.  Any other text
    gives None, as does a decimal the parser does not end where the line's
    does.  The values may be infinite.
    """
    values = _new_doubles(text.count(b"\n") + 1)
    try:
        count = _READ_VALUES(text, len(text), values.buffer_info()[0], _PARSE)
    except ValueError:  # the parser refused a whole decimal, and said so
        return None
    if count < 0:
        return None
    del values[count:]
    return values


def row_bytes(ncols):
    """The most bytes ``format_rows`` writes for one row of ``ncols`` columns:
    a step of up to 20, then per column a comma and a ``repr`` of up to 24
    ("-2.2250738585072014e-308"), then the newline."""
    return 21 + 25 * ncols


def format_rows(addresses, start, stop, out):
    """Rows ``start`` to ``stop - 1`` of the columns of doubles at
    ``addresses`` as CSV lines into the ``array('B')`` ``out``, which holds
    ``row_bytes`` per row; the number of bytes written.

    A line is the step, then per column a comma and the ``repr`` of its
    value, made by the routine ``float.__repr__`` calls.
    """
    if len(out) < (stop - start) * row_bytes(len(addresses)):
        raise ValueError(f"{len(out)} bytes cannot hold {stop - start} rows")
    columns = (ctypes.c_void_p * len(addresses))(*addresses)
    return _FORMAT_ROWS(
        columns, len(addresses), start, stop, out.buffer_info()[0], _REPR, _RELEASE
    )


def as_ndarray(view):
    """``view`` as a read-only float64 ndarray over the same buffer; this
    imports numpy."""
    import numpy as np

    return np.frombuffer(view, dtype=np.float64)


def _battery_is_idle(battery_power, battery_energy_cap, soc0):
    """Whether every battery flow of the step loop would be +0.0 and its SOC ``soc0``.

    A battery without power takes no branch of the loop.  One with power
    but no energy that starts empty clamps every flow to a headroom or a
    stored charge of zero; those zeros are +0.0 only when the capacity and
    the start are +0.0 (a -0.0 capacity signs the clamped charge).
    """
    if not battery_power > 0.0:
        return True
    return (
        battery_energy_cap == 0.0
        and soc0 == 0.0
        and math.copysign(1.0, battery_energy_cap) > 0.0
        and math.copysign(1.0, soc0) > 0.0
    )


def _series(values, name):
    """``values`` as ``doubles``, once it holds float64 along one axis."""
    view = memoryview(values)
    if view.format != "d" or view.ndim != 1:
        raise ValueError(
            f"{name} must be float64 with one axis, "
            f"not format {view.format!r} of shape {view.shape}"
        )
    return doubles(view)


def balance_loop(
    demand,
    wind_gw,
    wind_cf,
    pv_gw,
    pv_cf,
    dt,
    baseload_out,
    battery_power,
    battery_energy_cap,
    efficiency,
    soc0,
    dispatch_cap,
    charge_from_dispatch,
):
    """Run the merit-order balance over all steps and return its ledger.

    Per step: baseload first, then renewables, surplus renewables charge the
    battery (losses applied on the way in), remaining surplus is curtailed,
    deficits draw the battery and then dispatchable capacity, and whatever
    is left goes unserved.  The renewable output of a step is ``wind_gw *
    wind_cf[t] + pv_gw * pv_cf[t]``, formed in the loop as numpy forms
    ``wind_gw * wind_cf + pv_gw * pv_cf``.  Every series must be finite,
    and ``efficiency`` and ``dt`` positive.  All power values are GW, state
    of charge is GWh.  The ledger is a new buffer of float64, a memoryview
    of shape (N_ROWS, n_steps), one row per ``ROW_*`` constant.

    The C loop takes raw pointers, so ``ValueError``, naming the series, is
    raised before it runs unless ``demand``, ``wind_cf`` and ``pv_cf`` are
    nonempty float64 vectors of one length.  So it is unless the start
    charge ``soc0`` lies in ``[0, battery_energy_cap]`` (a NaN on either
    side fails too): the loop relies on it to leave its flows unfloored.
    """
    demand = _series(demand, "demand")
    wind_cf, pv_cf = _series(wind_cf, "wind_cf"), _series(pv_cf, "pv_cf")
    n = len(demand)
    for name, series in (("wind_cf", wind_cf), ("pv_cf", pv_cf)):
        if len(series) != n:
            raise ValueError(f"demand has {n} steps but {name} has {len(series)}")
    if n == 0:
        raise ValueError("a balance pass needs at least one step")
    battery_energy_cap = float(battery_energy_cap)
    soc0 = float(soc0)
    if not 0.0 <= soc0 <= battery_energy_cap:
        raise ValueError(
            f"the start charge {soc0!r} GWh is outside [0, {battery_energy_cap!r}] GWh"
        )
    ledger = _new_doubles(N_ROWS * n)
    _BALANCE(
        address(demand),
        address(wind_cf),
        float(wind_gw),
        address(pv_cf),
        float(pv_gw),
        n,
        float(dt),
        float(baseload_out),
        float(battery_power),
        battery_energy_cap,
        float(efficiency),
        soc0,
        float(dispatch_cap),
        bool(charge_from_dispatch),
        _battery_is_idle(battery_power, battery_energy_cap, soc0),
        ledger.buffer_info()[0],
    )
    return memoryview(ledger).cast("B").cast("d", (N_ROWS, n))


def _capacity_never_binds(battery_power, battery_energy_cap, efficiency, dt, peak_soc):
    """Whether the capacity binds in no step of a pass whose SOC never exceeds ``peak_soc``.

    Takes the floats ``balance_loop`` hands the step loop, and tests the
    loop's own headroom ``(cap - soc) / (efficiency * dt)`` at the peak.
    Every charge starts from a SOC of at most the peak, and the headroom
    cannot rise with the SOC, rounding included, so when it is at least
    ``battery_power`` at the peak, the headroom clamp never binds on a
    charge of at most that power.  The overfill clamp needs the SOC to
    reach the capacity, and a peak there has a headroom of at most 0.0, so
    it never binds either.
    """
    return (battery_energy_cap - peak_soc) / (efficiency * dt) >= battery_power
