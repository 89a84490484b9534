"""SWAP scheduling that knows about measurement feedforward.

The routing loop is look-ahead distance-minimizing in the usual style: run
every front-layer op whose operands allow it, and when only non-adjacent
two-qubit gates remain, insert the SWAP that minimizes a depth cost over the
front layer plus a bounded window of upcoming two-qubit gates.

Whatever depends only on the front layer is built once per front, when its
first SWAP decision comes, and kept while SWAPs go in against it: the sorted
front, the look-ahead gates and weights indexed by logical qubit (a SWAP
moves qubits but changes no gate, so the index stays valid), and the front's
blocked gates by logical qubit.  Scores are integers (the depth cost scaled
by a per-front constant): each candidate is scored by the change in
weighted distance of the look-ahead gates on its two logical qubits, so
"equally good" SWAPs tie exactly.  After a SWAP only the front gates on the
two swapped qubits are tested again, since no other gate moved.

The input circuit is validated at entry (a circuit the parser or benchgen
already checked is not checked again), and the dag and dependency sets
passed in must come from it.  Routing only maps ops through a layout into
the device and adds SWAPs, so the routed circuit is not validated again:
each SWAP is checked against the device's edges as it goes in.

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

import numpy as np

from .circuit import Circuit, OpDag, Operation
from .cidq import CidqList, CidqSet, population_cost, set_costs
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
    """Routing result.

    circuit: the executed op sequence over physical qubit indices, inserted
        swap gates included.
    log: execution-order entries, ("op", input op index) or ("swap", pa, pb);
        replaying it from initial_mapping tracks the mapping at any point.
    """

    circuit: Circuit
    source: Circuit
    initial_mapping: LogicalPhysicalMap
    final_mapping: LogicalPhysicalMap
    log: tuple[tuple, ...]
    swaps_inserted: int
    decisions: tuple[SwapDecision, ...]


def obtain_swaps(
    front_ops: list[Operation], mq: LogicalPhysicalMap, device: DeviceGraph
) -> list[tuple[int, int]]:
    """Candidate SWAPs: every device edge touching the physical image of any
    qubit in the front layer's two-qubit gates, deduplicated and sorted."""
    physical, incident = mq.physical, device.incident
    edges = set()
    for op in front_ops:
        if op.is_two_qubit:
            for q in op.qubits:
                edges.update(incident[physical(q)])
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


def _lookahead(front: list[int], dag: OpDag) -> tuple[list[tuple[int, int, int]], int]:
    """The depth cost's weighted gates and its scale.

    Returns (gates, scale) with gates as (logical a, logical b, weight) for
    every front-layer two-qubit op and every extended-set op, such that the
    depth cost under any mapping is sum(weight * distance) / scale.  With F
    the front's two-qubit ops, E the extended set and w the look-ahead
    weight p/q, the cost sum_F/|F| + w*sum_E/|E| is scaled by q|F||E|; without
    look-ahead it is sum_F/|F|, scaled by |F|.
    """
    ops, two_qubit = dag.circuit.ops, dag.two_qubit
    f2 = [node for node in front if two_qubit[node]]
    if not f2:
        return [], 1
    ext = extended_set(front, dag)
    if not ext:
        return [(*ops[node].qubits, 1) for node in f2], len(f2)
    p, q = EXTENDED_SET_WEIGHT.as_integer_ratio()
    front_weight, ext_weight = q * len(ext), p * len(f2)
    gates = [(*ops[node].qubits, front_weight) for node in f2]
    gates += [(*ops[node].qubits, ext_weight) for node in ext]
    return gates, q * len(f2) * len(ext)


def depth_cost(
    front: list[int], dag: OpDag, device: DeviceGraph, mq: LogicalPhysicalMap
) -> Fraction:
    """Average front-layer distance plus half the average look-ahead distance,
    as an exact rational (the look-ahead term drops out when no two-qubit op
    is upcoming)."""
    gates, scale = _lookahead(front, dag)
    dist, phys = device.dist, mq.physical
    return Fraction(sum(w * dist[phys(a)][phys(b)] for a, b, w in gates), scale)


def target_owners(ld: CidqList) -> dict[int, list[CidqSet]]:
    """Op index -> the dependency sets holding that op as a conditional target."""
    owners: dict[int, list[CidqSet]] = {}
    for d in ld:
        for op_idx in d.target_ops:
            owners.setdefault(op_idx, []).append(d)
    return owners


def active_cidq_sets(
    front: list[int], dag: OpDag, owners: dict[int, list[CidqSet]]
) -> list[CidqSet]:
    """Sets owning a conditional op inside the two-layer window made of the
    front layer and its direct DAG successors, ordered by id.  The window is
    structural, so no mapping changes which sets are active.  owners is
    target_owners(ld)."""
    window = set(front)
    for node in front:
        window.update(dag.succ[node])
    active = {d.id: d for node in window for d in owners.get(node, ())}
    return [active[sid] for sid in sorted(active)]


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


def schedule(
    circuit: Circuit,
    dag: OpDag,
    mq0: LogicalPhysicalMap,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    device: DeviceGraph,
    ld: CidqList,
    cost_mode: str = "pair",
    seed: int = 0,
    tie_break: str = "iccs",
) -> RoutedCircuit:
    """Route a circuit onto the device starting from a complete layout.

    circuit is validated first; dag and ld must be built from this very
    circuit (build_dag and extract_cidq_sets of it), and mq0 must place
    every logical qubit on the device.
    tie_break "iccs" scores depth-tied SWAPs by the communication cost of the
    active dependency sets; "random" (the baseline ablation) picks among the
    depth-tied SWAPs directly.  Both use the seeded generator, so a fixed
    (circuit, layout, seed, config) tuple reproduces the output exactly.
    """
    if tie_break not in ("iccs", "random"):
        raise ValueError(f"tie_break must be 'iccs' or 'random', got {tie_break!r}")
    if dag.circuit is not circuit:
        raise ValueError("dag was built from another circuit")
    circuit.validate()
    if not mq0.is_complete():
        raise ConfigError("routing needs a complete initial layout")
    if mq0.m != device.m or min(mq0.forward, default=0) < 0:
        raise ConfigError(f"initial layout must map into the device's {device.m} physical qubits")
    owners = target_owners(ld)
    rng = random.Random(seed)
    mq = mq0.copy()
    fwd, inv = mq.forward, mq.inverse  # swap_physical updates both in place
    dist = device.dist
    ops, two_qubit = circuit.ops, dag.two_qubit
    indeg = [len(p) for p in dag.pred]
    front = set(dag.front_layer())
    out_ops: list[Operation] = []
    log: list[tuple] = []
    decisions: list[SwapDecision] = []  # one per inserted SWAP
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
        out_ops.append(Operation("swap", (pa, pb)))
        log.append(("swap", pa, pb))
        mq.swap_physical(pa, pb)
        stagnant_swaps += 1

    while front:
        if ready is None:
            ready = [node for node in sorted(front) if not two_qubit[node] or adjacent(node)]
        if ready:
            for node in ready:
                op = ops[node]
                out_ops.append(Operation(
                    op.name, tuple([fwd[q] for q in op.qubits]), op.params, op.clbit, op.condition
                ))
                log.append(("op", node))
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
            front_ops = [ops[node] for node in front_nodes]
            blocked: dict[int, list[int]] = {}  # logical qubit -> front gates on it
            for node in front_nodes:
                for q in ops[node].qubits:
                    blocked.setdefault(q, []).append(node)
            gates, _ = _lookahead(front_nodes, dag)
            # the look-ahead by logical qubit, which no SWAP changes; gates on
            # one pair are merged, so a candidate sums each pair once
            pair_weight: dict[tuple[int, int], int] = {}
            for a, b, w in gates:
                key = (a, b) if a < b else (b, a)
                pair_weight[key] = pair_weight.get(key, 0) + w
            touching: dict[int, list[tuple[int, int]]] = {}  # logical -> (other end, weight)
            for (a, b), w in pair_weight.items():
                touching.setdefault(a, []).append((b, w))
                touching.setdefault(b, []).append((a, w))

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

        candidates = obtain_swaps(front_ops, mq, device)
        # each score is the scaled depth cost after the SWAP minus the one
        # before: only gates with one operand on a swapped qubit move (a gate
        # on both keeps its distance)
        scores = []
        for x, y in candidates:
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
            scores.append(delta)
        # the tie: every SWAP with exactly the best score
        best = min(scores)
        similar = [c for c, s in zip(candidates, scores) if s == best]
        if len(similar) == 1:
            chosen = similar[0]
        elif tie_break == "iccs" and (active := active_cidq_sets(front_nodes, dag, owners)):
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
        circuit=Circuit(device.m, circuit.n_clbits, tuple(out_ops)),
        source=circuit,
        initial_mapping=mq0.copy(),
        final_mapping=mq,
        log=tuple(log),
        swaps_inserted=len(decisions),
        decisions=tuple(decisions),
    )


def accumulate_iccs(
    routed: RoutedCircuit,
    ld: CidqList,
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
    static objective under the initial mapping.
    """
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

    k = topo.k
    keys = np.array([row * k + c for row, _, c in seen], dtype=np.int64)
    pop = np.bincount(keys, minlength=2 * len(ld) * k).reshape(len(ld), 2, k)
    return int(population_cost(pop[:, 0], pop[:, 1], topo.hop, mode).sum())
