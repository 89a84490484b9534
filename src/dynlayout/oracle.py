"""Exhaustive reference for the placement objective.

Enumerates every capacity-respecting assignment of logical qubits to
controllers and returns the true optimum.  Deliberately independent of the
heuristic placement code so the two can check each other.
"""
from __future__ import annotations

from .cidq import CidqList, total_cost_L
from .control import ControllerTopology, LogicalPhysicalMap, QubitControllerMap

ENUMERATION_LIMIT = 10**7


class InstanceTooLarge(ValueError):
    """Raised when the assignment space exceeds the enumeration budget."""


def _mapping_from_controllers(
    ctl_of: list[int], mc: QubitControllerMap, m: int
) -> LogicalPhysicalMap:
    """Realize a qubit->controller vector as a concrete mapping, packing each
    qubit onto the lowest-index free physical node of its controller (physical
    position within a controller never changes the objective)."""
    slots = {c: iter(mc.qubits_of(c)) for c in set(ctl_of)}
    mq = LogicalPhysicalMap(len(ctl_of), m)
    for q, c in enumerate(ctl_of):
        mq.assign(q, next(slots[c]))
    return mq


def brute_force_placement(
    ld: CidqList,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    mode: str = "pair",
    n_qubits: int | None = None,
) -> tuple[int, LogicalPhysicalMap]:
    """Optimal (cost, mapping) by exhaustive enumeration.

    Prunes on controller capacity while recursing qubit by qubit.  When the
    hop matrix is uniform and all controllers have equal capacity, controllers
    are interchangeable, so qubit 0 is pinned to controller 0 (relabeling any
    optimum moves it there without changing cost or feasibility).
    """
    n = ld.n_qubits if n_qubits is None else n_qubits
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

    def recurse(q: int) -> None:
        nonlocal best_cost, best
        if q == n:
            mq = _mapping_from_controllers(ctl_of, mc, mc.m)
            cost = total_cost_L(ld, mq, mc, topo, mode)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = list(ctl_of)
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
    if best is None:
        raise RuntimeError(f"no assignment of {n} qubits fits capacities {capacities}")
    return best_cost, _mapping_from_controllers(best, mc, mc.m)
