"""Shared builders for randomized test fixtures, and a recorder of balance passes.

Every randomized test seeds its own generator so failures reproduce from
the test name alone.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from unittest import mock

import numpy as np

from firmdispatch import (
    KIND_CAPACITY_FACTOR,
    KIND_DEMAND,
    AlignedDataset,
    CapacityMix,
    SimParams,
    TimeSeries,
    _kernels,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def random_dataset(rng, n_steps=None, dt_hours=None, drought=None):
    """Build a random aligned dataset, optionally zeroing CFs on a window."""
    if n_steps is None:
        n_steps = int(rng.integers(24, 240))
    if dt_hours is None:
        dt_hours = float(rng.choice([1.0, 0.5]))
    demand = 5.0 + 10.0 * rng.random(n_steps)
    wind = rng.random(n_steps)
    pv = rng.random(n_steps) * (np.sin(np.arange(n_steps) / 3.8) > 0)
    if drought is not None:
        lo, hi = drought
        wind[lo:hi] = 0.0
        pv[lo:hi] = 0.0
    return AlignedDataset(
        demand=TimeSeries(demand, dt_hours, KIND_DEMAND, "demand"),
        wind_cf=TimeSeries(wind, dt_hours, KIND_CAPACITY_FACTOR, "wind"),
        pv_cf=TimeSeries(pv, dt_hours, KIND_CAPACITY_FACTOR, "pv"),
    )


def random_mix(rng, with_baseload=False):
    baseload = float(rng.uniform(0.0, 6.0)) if with_baseload else 0.0
    eaf = float(rng.uniform(0.3, 1.0)) if with_baseload else 1.0
    return CapacityMix(
        wind_gw=float(rng.uniform(0.0, 30.0)),
        pv_gw=float(rng.uniform(0.0, 30.0)),
        battery_power_gw=float(rng.uniform(0.0, 10.0)),
        battery_hours=float(rng.choice([0.0, 1.0, 2.0, 4.0, 8.0])),
        dispatch_gw=float(rng.uniform(0.0, 20.0)),
        baseload_gw=baseload,
        baseload_eaf=eaf,
    )


def random_params(rng):
    return SimParams(
        round_trip_efficiency=float(rng.uniform(0.5, 1.0)),
        initial_soc_fraction=float(rng.uniform(0.0, 1.0)),
        battery_charges_from_dispatch=bool(rng.integers(0, 2)),
    )


@contextlib.contextmanager
def stepped_passes():
    """Record, while open, whether each ``balance_loop`` call steps its battery.

    A call steps it unless ``_kernels._battery_is_idle`` holds for the
    battery power, capacity and start it is handed.
    """
    stepped = []
    loop = _kernels.balance_loop

    def recording(*args):
        power, cap, soc0 = args[4], float(args[5]), float(args[7])
        stepped.append(not _kernels._battery_is_idle(power, cap, soc0))
        return loop(*args)

    with mock.patch.object(_kernels, "balance_loop", recording):
        yield stepped
