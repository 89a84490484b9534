"""Shared instance builders for the test suite."""
from __future__ import annotations

import random

from dynlayout import (
    CidqList,
    CidqSet,
    LogicalPhysicalMap,
    QubitControllerMap,
    contiguous_assignment,
    star_topology,
)


def random_cidq_list(rng: random.Random, n_qubits: int, n_sets: int) -> CidqList:
    """Synthetic dependency sets over n_qubits, each one measured qubit plus a
    nonempty target group (no backing circuit needed for placement tests)."""
    sets = []
    for i in range(n_sets):
        src = rng.randrange(n_qubits)
        pool = [q for q in range(n_qubits) if q != src]
        n_tgt = rng.randint(1, max(1, min(len(pool), n_qubits // 2)))
        targets = frozenset(rng.sample(pool, n_tgt))
        sets.append(CidqSet(i, frozenset({src}), targets))
    ld = CidqList(tuple(sets), n_qubits)
    ld.validate()
    return ld


def uniform_setup(n_qubits: int, k: int, capacity: int):
    """Star topology plus a contiguous controller split of k*capacity slots."""
    topo = star_topology(k)
    mc = contiguous_assignment(k * capacity, k)
    return topo, mc


def explicit_mapping(slots: list[int], m: int) -> LogicalPhysicalMap:
    mq = LogicalPhysicalMap(len(slots), m)
    for q, p in enumerate(slots):
        mq.assign(q, p)
    return mq


def complete_random_mapping(
    rng: random.Random, n_qubits: int, mc: QubitControllerMap
) -> LogicalPhysicalMap:
    mq = LogicalPhysicalMap(n_qubits, mc.m)
    for q, p in enumerate(rng.sample(range(mc.m), n_qubits)):
        mq.assign(q, p)
    return mq


def random_metric_hops(rng: random.Random, k: int) -> list[list[int]]:
    """Random symmetric hop matrix with entries in 1..4; metric closure keeps
    the triangle inequality that topology validation demands."""
    hop = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            hop[i][j] = hop[j][i] = rng.randint(1, 4)
    for via in range(k):
        for a in range(k):
            for b in range(k):
                if a != b:
                    hop[a][b] = min(hop[a][b], hop[a][via] + hop[via][b])
    return hop
