"""Shared instance builders for the test suite."""
from __future__ import annotations

import random

from dynlayout import LogicalPhysicalMap, contiguous_assignment, star_topology
from dynlayout.cidq import CidqList, CidqSet
from dynlayout.control import MAX_HOP, ConfigError, QubitControllerMap


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


def reference_set_cost(d: CidqSet, ctl_of: list[int], hop, mode: str) -> int:
    """The paper's cost of one dependency set, written out pair by pair.

    ctl_of[q] is the controller holding logical qubit q.  pair mode pays the
    hop of every distinct (source controller, target controller) pair once;
    per_target mode pays it for every (measured qubit, target qubit)
    combination.  A pair on one controller pays nothing.
    """
    src = [ctl_of[q] for q in d.measured]
    tgt = [ctl_of[q] for q in d.targets]
    if mode == "pair":
        return sum(hop[cs][ct] for cs in set(src) for ct in set(tgt) if cs != ct)
    return sum(hop[cs][ct] for cs in src for ct in tgt if cs != ct)


def reference_is_uniform(hop) -> bool:
    """True when all off-diagonal hops share one value."""
    k = len(hop)
    return len({hop[i][j] for i in range(k) for j in range(k) if i != j}) <= 1


def reference_validate_hops(hop) -> None:
    """matrix_topology's hop check written out entry by entry: the reference
    its numpy checks must match, error for error.  Scans row-major; each row
    checks its diagonal, then each entry's symmetry, lower bound and limit;
    then the triangle inequality against the Floyd-Warshall closure."""
    k = len(hop)
    if k < 1:
        raise ConfigError("need at least one controller")
    for row in hop:
        if len(row) != k:
            raise ConfigError("hop matrix must be square")
    for i in range(k):
        if hop[i][i] != 0:
            raise ConfigError(f"hop[{i}][{i}] must be 0")
        for j in range(k):
            if hop[i][j] != hop[j][i]:
                raise ConfigError(f"hop matrix asymmetric at ({i},{j})")
            if i != j and hop[i][j] < 1:
                raise ConfigError(f"hop[{i}][{j}] must be >= 1")
            if hop[i][j] > MAX_HOP:
                raise ConfigError(f"hop[{i}][{j}] = {hop[i][j]} exceeds the limit 2**31 - 1")
    if reference_is_uniform(hop):
        return
    closure = [list(row) for row in hop]
    for l in range(k):
        for i in range(k):
            for j in range(k):
                via = closure[i][l] + closure[l][j]
                if via < closure[i][j]:
                    closure[i][j] = via
    for i in range(k):
        for j in range(k):
            if closure[i][j] != hop[i][j]:
                raise ConfigError(
                    f"triangle inequality violated at ({i},{j}): "
                    f"hop {hop[i][j]} > relay {closure[i][j]}"
                )
