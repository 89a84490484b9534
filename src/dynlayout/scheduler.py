"""SWAP scheduling that knows about measurement feedforward.

The routing loop is look-ahead distance-minimizing in the usual style: run
every front-layer op whose operands allow it, and when only non-adjacent
two-qubit gates remain, insert the SWAP that minimizes a depth cost over the
front layer plus a bounded window of upcoming two-qubit gates.

Whatever depends only on the front layer is built in one pass, when the
front's first SWAP decision comes, and kept while SWAPs go in against it:
the sorted front, its blocked gates by logical qubit (whose keys are the
qubits the candidate SWAPs touch), and the look-ahead's pair weights by
logical qubit (a SWAP moves qubits but changes no gate, so the index stays
valid); the active dependency sets are found at the front's first tie.
Scores are integers (the depth cost scaled by a per-front constant): each
candidate is scored by the change in weighted distance of the look-ahead
pairs on its two logical qubits, so "equally good" SWAPs tie exactly.
After a SWAP only the front gates on the two swapped qubits are tested
again, since no other gate moved.

The input circuit is validated at entry (a circuit the parser or benchgen
already checked is not checked again).  The DAG, the dependency sets and the
table of the sets each op reads for are derived from it (build_dag,
extract_cidq_sets and read_rows, which record them on the circuit).  Routing
only maps ops through a layout into the device and adds SWAPs, so the routed
circuit is not validated again: each SWAP is checked against the device's
edges as it goes in.

The router emits the report's numbers as it routes: the op count (the
source's plus the SWAPs), the depth (levels of physical qubits and clbits
kept under `circuit.depth`'s rules) and the ICCS (each executed read's
(population row, qubit, controller) observation, priced by observed_cost,
as accumulate_iccs prices its replay of the log).  The routed circuit
itself is built from the log the first time it is read.

The tie is the candidates with exactly the best score.  It is broken by
the communication cost of the dependency sets active near the front,
evaluated under each tied SWAP, with a seeded-random pick among the
remaining best.  A baseline variant replaces that tie-break with the seeded
pick alone, leaving every other decision identical.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .circuit import Circuit, OpDag, Operation, build_dag
from .cidq import CidqList, CidqSet, extract_cidq_sets, population_cost, set_costs
from .control import (
    ConfigError,
    ControllerTopology,
    DeviceGraph,
    LogicalPhysicalMap,
    QubitControllerMap,
)

EXTENDED_SET_SIZE = 20
EXTENDED_SET_WEIGHT = Fraction(1, 2)


@dataclass(frozen=True)
class SwapDecision:
    """One SWAP choice: the candidates tied on depth cost, the pick, and
    whether the livelock escape forced it."""

    chosen: tuple[int, int]
    depth_argmin: tuple[tuple[int, int], ...]
    forced: bool = False


@dataclass
class RoutedCircuit:
    """Routing result: what the router emitted as it routed.

    log: execution-order entries, ("op", input op index) or ("swap", pa, pb);
        replaying it from initial_mapping tracks the mapping at any point.
    decisions: one per inserted SWAP.
    operations, depth, iccs: the routed circuit's op count (barriers
        excluded), its depth and the communication steps it incurs, counted
        while routing; they equal count_ops and depth of `circuit` and
        accumulate_iccs under the cost mode routing used.
    circuit: the executed op sequence over physical qubit indices, inserted
        swap gates included; built from log on the first read and kept.
    """

    source: Circuit
    initial_mapping: LogicalPhysicalMap
    final_mapping: LogicalPhysicalMap
    log: tuple[tuple, ...]
    decisions: tuple[SwapDecision, ...]
    operations: int
    depth: int
    iccs: int

    @property
    def swaps_inserted(self) -> int:
        return len(self.decisions)

    @cached_property
    def circuit(self) -> Circuit:
        ops = self.source.ops
        mq = self.initial_mapping.copy()
        fwd = mq.forward
        out = []
        for entry in self.log:
            if entry[0] == "swap":
                out.append(Operation("swap", entry[1:]))
                mq.swap_physical(entry[1], entry[2])
            else:
                op = ops[entry[1]]
                out.append(Operation(
                    op.name, tuple([fwd[q] for q in op.qubits]), op.params, op.clbit, op.condition
                ))
        return Circuit(mq.m, self.source.n_clbits, tuple(out))


def obtain_swaps(
    qubits, mq: LogicalPhysicalMap, device: DeviceGraph
) -> list[tuple[int, int]]:
    """Candidate SWAPs: every device edge touching the physical image of any
    of the logical qubits (the router passes those of the front layer's
    two-qubit gates), deduplicated and sorted."""
    fwd, incident = mq.forward, device.incident
    edges = set()
    for q in qubits:
        edges.update(incident[fwd[q]])
    return sorted(edges)


def extended_set(front: list[int], dag: OpDag) -> list[int]:
    """Up to EXTENDED_SET_SIZE upcoming two-qubit ops, breadth-first over DAG
    successors of the front layer."""
    succ, two_qubit = dag.succ, dag.two_qubit
    out: list[int] = []
    seen = set(front)
    frontier = front
    while frontier:
        nxt = []
        for node in frontier:
            for s in succ[node]:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        nxt.sort()
        frontier = nxt
        for node in nxt:
            if two_qubit[node]:
                out.append(node)
                if len(out) == EXTENDED_SET_SIZE:
                    return out
    return out


def _lookahead(front: list[int], dag: OpDag) -> tuple[dict[tuple[int, int], int], int]:
    """The depth cost's weights by logical pair, and its scale.

    Returns (weights, scale) with weights[(a, b)], a < b, the summed weight
    of the front-layer two-qubit ops and extended-set ops on logical qubits
    a and b, such that the depth cost under any mapping is
    sum(weight * distance) / scale.  With F the front's two-qubit ops, E the
    extended set and w the look-ahead weight p/q, the cost
    sum_F/|F| + w*sum_E/|E| is scaled by q|F||E|; without look-ahead it is
    sum_F/|F|, scaled by |F|.
    """
    ops, two_qubit = dag.ops, dag.two_qubit
    f2 = [node for node in front if two_qubit[node]]
    if not f2:
        return {}, 1
    ext = extended_set(front, dag)
    if ext:
        p, q = EXTENDED_SET_WEIGHT.as_integer_ratio()
        front_weight, ext_weight, scale = q * len(ext), p * len(f2), q * len(f2) * len(ext)
    else:
        front_weight, ext_weight, scale = 1, 0, len(f2)
    weights: dict[tuple[int, int], int] = {}
    for nodes, w in ((f2, front_weight), (ext, ext_weight)):
        for node in nodes:
            a, b = ops[node].qubits
            key = (a, b) if a < b else (b, a)
            weights[key] = weights.get(key, 0) + w
    return weights, scale


def depth_cost(
    front: list[int], dag: OpDag, device: DeviceGraph, mq: LogicalPhysicalMap
) -> Fraction:
    """Average front-layer distance plus half the average look-ahead distance,
    as an exact rational (the look-ahead term drops out when no two-qubit op
    is upcoming)."""
    weights, scale = _lookahead(front, dag)
    dist, phys = device.dist, mq.physical
    return Fraction(sum(w * dist[phys(a)][phys(b)] for (a, b), w in weights.items()), scale)


def read_rows(circuit: Circuit) -> tuple[tuple[int, ...], ...]:
    """rows[i]: the population rows (set_costs' order) of the circuit's
    dependency sets that op i reads for with all its qubits: row 2s if it is
    the measure of set s, 2s + 1 if it is conditioned on that measure.
    Built on the first call and recorded on the circuit, like its DAG; equal
    row tuples are one object, so the table costs a pointer per op."""
    return circuit.derived("_rows", _read_rows, extract_cidq_sets(circuit))


def _read_rows(circuit: Circuit, ld: CidqList) -> tuple[tuple[int, ...], ...]:
    rows: list[tuple[int, ...]] = [()] * len(circuit.ops)
    for d in ld:
        for row, op_ids in ((2 * d.id, d.source_ops), (2 * d.id + 1, d.target_ops)):
            for i in op_ids:
                rows[i] += (row,)
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    return tuple(shared.setdefault(r, r) for r in rows)


def active_cidq_sets(
    front: list[int], dag: OpDag, ld: CidqList, rows
) -> list[CidqSet]:
    """Sets of ld owning a conditional op inside the two-layer window made of
    the front layer and its direct DAG successors, ordered by id.  The window
    is structural, so no mapping changes which sets are active.  rows is
    read_rows of the circuit."""
    window = set(front)
    for node in front:
        window.update(dag.succ[node])
    ids = {row >> 1 for node in window for row in rows[node] if row & 1}
    return [ld[i] for i in sorted(ids)]


def _swap_controllers(swaps, mq: LogicalPhysicalMap, mc: QubitControllerMap) -> np.ndarray:
    """ctl[i, q]: the controller holding logical qubit q once swaps[i] is applied."""
    fwd = np.asarray(mq.forward)
    a, b = np.array(swaps).T[:, :, None]
    return np.asarray(mc.assignment)[np.where(fwd == a, b, np.where(fwd == b, a, fwd))]


def iccs_score(
    swap: tuple[int, int],
    mq: LogicalPhysicalMap,
    active: list[CidqSet],
    mc: QubitControllerMap,
    topo: ControllerTopology,
    mode: str = "pair",
) -> int:
    """Total communication cost of the active sets with the SWAP applied."""
    return int(set_costs(active, _swap_controllers([swap], mq, mc), topo, mode).sum())


def observed_cost(seen, n_sets: int, topo: ControllerTopology, mode: str = "pair") -> int:
    """Total cost of n_sets dependency sets from where their reads ran.

    seen holds distinct (population row, qubit, controller) observations,
    row 2s for the measure of set s and 2s + 1 for its conditioned ops: a
    qubit counts once per controller it was read on, so a read after a SWAP
    moved it adds a delivery."""
    k = topo.k
    keys = np.fromiter((row * k + c for row, _, c in seen), dtype=np.int64, count=len(seen))
    pop = np.bincount(keys, minlength=2 * n_sets * k).reshape(n_sets, 2, k)
    return int(population_cost(pop[:, 0], pop[:, 1], topo.hop, mode).sum())


def schedule(
    circuit: Circuit,
    mq0: LogicalPhysicalMap,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    device: DeviceGraph,
    cost_mode: str = "pair",
    seed: int = 0,
    tie_break: str = "iccs",
) -> RoutedCircuit:
    """Route a circuit onto the device starting from a complete layout.

    circuit is validated first, and the DAG and dependency sets are derived
    from it; mq0 must place every logical qubit on the device.
    tie_break "iccs" scores depth-tied SWAPs by the communication cost of the
    active dependency sets; "random" (the baseline ablation) picks among the
    depth-tied SWAPs directly.  Both use the seeded generator, so a fixed
    (circuit, layout, seed, config) tuple reproduces the output exactly.
    The result's iccs is priced under cost_mode.
    """
    if tie_break not in ("iccs", "random"):
        raise ValueError(f"tie_break must be 'iccs' or 'random', got {tie_break!r}")
    circuit.validate()
    if not mq0.is_complete():
        raise ConfigError("routing needs a complete initial layout")
    if mq0.m != device.m or min(mq0.forward, default=0) < 0:
        raise ConfigError(f"initial layout must map into the device's {device.m} physical qubits")
    dag = build_dag(circuit)
    ld = extract_cidq_sets(circuit)
    rows = read_rows(circuit)
    rng = random.Random(seed)
    mq = mq0.copy()
    fwd, inv = mq.forward, mq.inverse  # swap_physical updates both in place
    dist, assignment = device.dist, mc.assignment
    ops, two_qubit = circuit.ops, dag.two_qubit
    indeg = [len(p) for p in dag.pred]
    front = set(dag.front_layer())
    log: list[tuple] = []
    decisions: list[SwapDecision] = []  # one per inserted SWAP
    # circuit.depth's levels: of the last op on each physical qubit, of the
    # measure that last wrote each clbit, and the highest of that measure and
    # its readers; keyed by the clbits in use, not sized by the register
    on_qubit = [0] * device.m
    written: dict[int, int] = {}
    touched: dict[int, int] = {}
    seen: set[tuple[int, int, int]] = set()  # (population row, qubit, controller)
    stagnant_swaps = 0
    livelock_limit = 3 * device.m
    ready: list[int] | None = None  # None until the whole front has been tested
    front_nodes: list[int] | None = None  # the sorted front, once a decision needs it

    def adjacent(node: int) -> bool:
        a, b = ops[node].qubits
        return dist[fwd[a]][fwd[b]] == 1

    def emit_swap(pa: int, pb: int) -> None:
        nonlocal stagnant_swaps
        if dist[pa][pb] != 1:
            raise RuntimeError(f"router chose SWAP ({pa}, {pb}), which is not a device edge")
        log.append(("swap", pa, pb))
        mq.swap_physical(pa, pb)
        on_qubit[pa] = on_qubit[pb] = max(on_qubit[pa], on_qubit[pb]) + 1
        stagnant_swaps += 1

    while front:
        if ready is None:
            ready = [node for node in sorted(front) if not two_qubit[node] or adjacent(node)]
        if ready:
            for node in ready:
                op = ops[node]
                log.append(("op", node))
                qubits, condition = op.qubits, op.condition
                level = 0
                for q in qubits:
                    if on_qubit[fwd[q]] > level:
                        level = on_qubit[fwd[q]]
                if condition is not None:
                    for bit, _ in condition:
                        if written[bit] > level:
                            level = written[bit]
                measure = op.name == "measure"
                if measure and touched.get(op.clbit, 0) > level:
                    level = touched[op.clbit]
                if op.name != "barrier":
                    level += 1
                for q in qubits:
                    on_qubit[fwd[q]] = level
                if condition is not None:
                    for bit, _ in condition:
                        if touched[bit] < level:
                            touched[bit] = level
                if measure:
                    written[op.clbit] = touched[op.clbit] = level
                for row in rows[node]:
                    for q in qubits:
                        seen.add((row, q, assignment[fwd[q]]))
                front.discard(node)
                for succ in dag.succ[node]:
                    indeg[succ] -= 1
                    if indeg[succ] == 0:
                        front.add(succ)
            stagnant_swaps = 0
            ready = front_nodes = None
            continue

        if front_nodes is None:
            # state that depends only on the front, kept while SWAPs go in
            # against it; every front op is now a blocked two-qubit gate
            front_nodes = sorted(front)
            blocked: dict[int, list[int]] = {}  # logical qubit -> front gates on it
            for node in front_nodes:
                for q in ops[node].qubits:
                    blocked.setdefault(q, []).append(node)
            weights, _ = _lookahead(front_nodes, dag)
            touching: dict[int, list[tuple[int, int]]] = {}  # logical -> (other end, weight)
            for (a, b), w in weights.items():
                touching.setdefault(a, []).append((b, w))
                touching.setdefault(b, []).append((a, w))
            active: list[CidqSet] | None = None  # found at the front's first tie

        if stagnant_swaps >= livelock_limit:
            # force-route the oldest blocked gate along a shortest path
            a, b = ops[front_nodes[0]].qubits
            path = device.shortest_path(fwd[a], fwd[b])
            for i in range(len(path) - 2):
                decisions.append(
                    SwapDecision((min(path[i], path[i + 1]), max(path[i], path[i + 1])), (), True)
                )
                emit_swap(path[i], path[i + 1])
            stagnant_swaps = 0
            ready = None
            continue

        candidates = obtain_swaps(blocked, mq, device)
        # each score is the scaled depth cost after the SWAP minus the one
        # before: only pairs with one end on a swapped qubit move (a pair on
        # both keeps its distance).  The tie is every SWAP with exactly the
        # best score, in candidate order.
        best, similar = None, []
        for c in candidates:
            x, y = c
            qx, qy = inv[x], inv[y]
            dx, dy = dist[x], dist[y]
            delta = 0
            for other, w in touching.get(qx, ()):
                if other != qy:
                    p = fwd[other]
                    delta += w * (dy[p] - dx[p])
            for other, w in touching.get(qy, ()):
                if other != qx:
                    p = fwd[other]
                    delta += w * (dx[p] - dy[p])
            if best is None or delta < best:
                best, similar = delta, [c]
            elif delta == best:
                similar.append(c)
        if len(similar) > 1 and tie_break == "iccs" and active is None:
            active = active_cidq_sets(front_nodes, dag, ld, rows)
        if len(similar) == 1:
            chosen = similar[0]
        elif tie_break == "iccs" and active:
            # all tied SWAPs scored as iccs_score would, in one batch (with no
            # active set every score is 0 and the seeded pick below decides)
            comm = set_costs(active, _swap_controllers(similar, mq, mc), topo, cost_mode).sum(-1)
            low = comm.min()
            chosen = rng.choice([c for c, s in zip(similar, comm) if s == low])
        else:
            chosen = rng.choice(similar)
        decisions.append(SwapDecision(chosen, tuple(similar)))
        emit_swap(*chosen)
        # only gates on the two swapped qubits changed distance, and none was
        # ready before the SWAP
        swapped = (inv[chosen[0]], inv[chosen[1]])
        ready = sorted({node for q in swapped for node in blocked.get(q, ()) if adjacent(node)})

    return RoutedCircuit(
        source=circuit,
        initial_mapping=mq0.copy(),
        final_mapping=mq,
        log=tuple(log),
        decisions=tuple(decisions),
        operations=circuit.count_ops() + len(decisions),
        # every op's level lands on one of its qubits, and a qubit's level only rises
        depth=max(on_qubit),
        iccs=observed_cost(seen, len(ld), topo, cost_mode),
    )


def accumulate_iccs(
    routed: RoutedCircuit,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    mode: str = "pair",
) -> int:
    """Communication steps actually incurred by a routed circuit.

    Replays the execution log: a set's source controller is wherever the
    measured qubit sat when its measure executed; each conditioned op charges
    delivery to wherever its qubits sat when it executed.  A target qubit
    counts once per distinct controller it was observed in (SWAPs between two
    reads of the same outcome add a delivery).  Without SWAPs this equals the
    static objective under the initial mapping.  The reference for the iccs
    the router emits: it builds its own table of reads from the sets.
    """
    ld = extract_cidq_sets(routed.source)
    # op index -> (population row, qubits) of the sets it reads for; row 2i
    # holds the sources of set i and row 2i + 1 its deliveries
    reads: dict[int, list[tuple[int, frozenset[int]]]] = {}
    for d in ld:
        for row, op_ids, qubits in ((0, d.source_ops, d.measured), (1, d.target_ops, d.targets)):
            for idx in op_ids:
                reads.setdefault(idx, []).append((2 * d.id + row, qubits))

    mq = routed.initial_mapping.copy()
    seen: set[tuple[int, int, int]] = set()  # (population row, qubit, controller)
    for entry in routed.log:
        if entry[0] == "swap":
            mq.swap_physical(entry[1], entry[2])
            continue
        for row, qubits in reads.get(entry[1], ()):
            for q in routed.source.ops[entry[1]].qubits:
                if q in qubits:
                    seen.add((row, q, mc.assignment[mq.physical(q)]))
    return observed_cost(seen, len(ld), topo, mode)
