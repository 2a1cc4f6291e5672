from __future__ import annotations

import numpy as np
import pytest

from firmdispatch._kernels import N_ROWS, ROW_DISPATCH, ROW_SOC, balance_loop, size_dispatch_batch


def _random_call(rng):
    n = int(rng.integers(8, 300))
    demand = 20.0 * rng.random(n)
    ren = 25.0 * rng.random(n)
    dt = float(rng.choice([1.0, 0.5]))
    battery_power = float(rng.uniform(0.0, 8.0))
    battery_energy = battery_power * float(rng.choice([0.0, 1.0, 4.0, 12.0]))
    return (
        demand,
        ren,
        dt,
        float(rng.uniform(0.0, 5.0)),  # baseload output
        battery_power,
        battery_energy,
        float(rng.uniform(0.5, 1.0)),  # efficiency
        battery_energy * float(rng.random()),  # initial soc
        float(rng.choice([0.0, 3.0, 8.0, np.inf])),  # dispatch cap
        bool(rng.integers(0, 2)),  # charge from dispatch
    )


def test_python_loop_soc_stays_bounded():
    rng = np.random.default_rng(55)
    for _ in range(30):
        args = _random_call(rng)
        n = args[0].shape[0]
        out = np.empty((N_ROWS, n))
        balance_loop(*args, out)
        cap = args[5]
        assert np.all(out[ROW_SOC] >= 0.0)
        assert np.all(out[ROW_SOC] <= cap)


@pytest.mark.parametrize("k", [1, 3, 7, 15])
def test_batched_sizing_matches_python_loop_bitwise(k):
    rng = np.random.default_rng(300 + k)
    for _ in range(12):
        n = int(rng.integers(8, 300))
        dt = float(rng.choice([1.0, 0.5]))
        demand = 20.0 * rng.random(n)
        wind_cf = rng.random(n)
        pv_cf = rng.random(n) * (rng.random(n) < 0.6)
        baseload_out = float(rng.choice([0.0, rng.uniform(0.0, 8.0)]))
        efficiency = float(rng.uniform(0.5, 1.0))
        wind = 30.0 * rng.random(k) * (rng.random(k) < 0.8)
        pv = 30.0 * rng.random(k) * (rng.random(k) < 0.8)
        # zero power, and zero-hour rungs with power above zero
        power = 8.0 * rng.random(k) * (rng.random(k) < 0.7)
        energy_cap = power * rng.choice([0.0, 1.0, 4.0, 12.0], size=k)
        soc0 = energy_cap * rng.random(k) * (rng.random(k) < 0.5)
        out = np.empty((k, n))
        size_dispatch_batch(
            demand,
            wind_cf,
            pv_cf,
            dt,
            baseload_out,
            wind,
            pv,
            power,
            energy_cap,
            efficiency,
            soc0,
            out,
        )
        for j in range(k):
            ledger = np.empty((N_ROWS, n))
            balance_loop(
                demand,
                wind[j] * wind_cf + pv[j] * pv_cf,
                dt,
                baseload_out,
                power[j],
                energy_cap[j],
                efficiency,
                soc0[j],
                np.inf,  # sizing: no dispatch cap
                False,  # and no charging from dispatch
                ledger,
            )
            row = ledger[ROW_DISPATCH]
            assert np.array_equal(out[j].view(np.int64), row.view(np.int64))
            assert float(np.max(out[j])) == float(np.max(row))
            assert float(np.sum(out[j])) == float(np.sum(row))

