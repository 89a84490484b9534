"""Exhaustive reference for the placement objective.

Enumerates every capacity-respecting assignment of logical qubits to
controllers and returns the true optimum.  The controller vectors are priced
in stacks of CHUNK, one `set_costs` call each, so the pin index is built per
stack rather than per vector; only the optimum becomes a mapping, by
`control.fill_slots`.
Deliberately independent of the heuristic placement code so the two can
check each other.
"""
from __future__ import annotations

import numpy as np

from .cidq import CidqList, set_costs
from .control import ControllerTopology, LogicalPhysicalMap, QubitControllerMap, fill_slots

ENUMERATION_LIMIT = 10**7
CHUNK = 1024  # controller vectors priced per set_costs call


class InstanceTooLarge(ValueError):
    """Raised when the assignment space exceeds the enumeration budget."""


def brute_force_placement(
    ld: CidqList,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    mode: str = "pair",
) -> tuple[int, LogicalPhysicalMap]:
    """Optimal (cost, mapping) by exhaustive enumeration.

    Prunes on controller capacity while recursing qubit by qubit.  When the
    hop matrix is uniform and all controllers have equal capacity, controllers
    are interchangeable, so qubit 0 is pinned to controller 0 (relabeling any
    optimum moves it there without changing cost or feasibility).
    """
    n = ld.n_qubits
    k = topo.k
    if k**n > ENUMERATION_LIMIT:
        raise InstanceTooLarge(f"{k}^{n} assignments exceed {ENUMERATION_LIMIT}")
    capacities = [mc.capacity(c) for c in range(k)]
    if sum(capacities) < n:
        raise ValueError(f"capacity {sum(capacities)} cannot host {n} qubits")
    symmetric = topo.is_uniform() and len(set(capacities)) == 1

    best_cost: int | None = None
    best: list[int] | None = None
    ctl_of = [0] * n
    free = list(capacities)
    stack: list[list[int]] = []  # feasible vectors not yet priced, in enumeration order

    def price() -> None:
        """Price the stack; keep its first minimum if it beats the best so far."""
        nonlocal best_cost, best
        costs = set_costs(ld, np.array(stack), topo, mode).sum(-1)
        i = int(costs.argmin())
        if best_cost is None or costs[i] < best_cost:
            best_cost, best = int(costs[i]), stack[i]
        stack.clear()

    def recurse(q: int) -> None:
        if q == n:
            stack.append(list(ctl_of))
            if len(stack) == CHUNK:
                price()
            return
        choices = range(1 if q == 0 and symmetric and k > 1 else k)
        for c in choices:
            if free[c] == 0:
                continue
            free[c] -= 1
            ctl_of[q] = c
            recurse(q + 1)
            free[c] += 1

    recurse(0)
    if stack:
        price()
    if best is None:
        raise RuntimeError(f"no assignment of {n} qubits fits capacities {capacities}")
    return best_cost, fill_slots(LogicalPhysicalMap(n, mc.m), mc, enumerate(best))
