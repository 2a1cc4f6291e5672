"""The two-pass reference for one search point, against which the
optimizer's one-pass sizing and costing are checked.

``evaluate`` sizes the firm capacity with ``size_dispatch``, simulates the
sized mix, and costs it from that simulation with ``system_cost``: two
balance passes where ``optimize`` takes one.
"""

from __future__ import annotations

from dataclasses import replace

from firmdispatch import (
    AlignedDataset,
    CapacityMix,
    CostBook,
    DispatchResult,
    SimParams,
    SystemCost,
    simulate,
    size_dispatch,
)
from firmdispatch.costing import DEFAULT_BOOK, cost_from_energy
from firmdispatch.dispatch import DEFAULT_PARAMS
from firmdispatch.optimizer import Evaluation


def system_cost(mix: CapacityMix, result: DispatchResult, book: CostBook) -> SystemCost:
    """Assemble the annual cost of a mix from a simulation of it.

    Energy served is demand minus unserved energy.
    """
    return cost_from_energy(mix, result.served_energy_twh, result.dispatch_energy_twh, book)


def evaluate(
    candidate: CapacityMix,
    data: AlignedDataset,
    params: SimParams = DEFAULT_PARAMS,
    book: CostBook = DEFAULT_BOOK,
) -> Evaluation:
    """Size dispatch for a candidate, simulate it, and cost the system.

    The candidate's own ``dispatch_gw`` is ignored; the returned mix carries
    the sized value, and its simulation serves all demand by construction.
    """
    sized = replace(candidate, dispatch_gw=size_dispatch(candidate, data, params))
    result = simulate(sized, data, params)
    return Evaluation(mix=sized, result=result, cost=system_cost(sized, result, book))
