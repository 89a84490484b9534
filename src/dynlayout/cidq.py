"""Feedforward dependency model.

Every mid-circuit measurement whose outcome steers later operations induces a
dependency set: the measured qubit plus all qubits targeted by operations
conditioned on that outcome.  When the measured qubit and a target live under
different controllers, the outcome must be forwarded between controllers, and
the hop distance between them is the number of communication steps paid.
The total over all sets is the quantity the placement stage minimizes.
`population_cost` is the one definition of a set's cost: placement, the
router's tie-break, the post-routing replay and the oracle all evaluate it.
`cost_lower_bound` is a total no placement can beat, from the controller
capacities alone.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit
from .control import MAX_HOP, ControllerTopology, LogicalPhysicalMap, QubitControllerMap

COST_MODES = ("pair", "per_target")


@dataclass(frozen=True)
class CidqSet:
    """One measurement event and the qubits its outcome steers.

    measured: qubit(s) whose measurement produces the outcome (one per set
        when extracted from a circuit).
    targets: qubits acted on by operations conditioned on that outcome.
    source_ops / target_ops: op indices of the measure and of the dependent
        conditional operations (extraction bookkeeping; empty for hand-built
        sets).
    """

    id: int
    measured: frozenset[int]
    targets: frozenset[int]
    source_ops: tuple[int, ...] = ()
    target_ops: tuple[int, ...] = ()

    @property
    def qubits(self) -> frozenset[int]:
        return self.measured | self.targets


@dataclass(frozen=True)
class CidqList:
    """Dependency sets of one circuit, ordered by measure position; ids are
    dense list indices."""

    sets: tuple[CidqSet, ...]
    n_qubits: int

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __getitem__(self, i: int) -> CidqSet:
        return self.sets[i]

    def validate(self) -> None:
        for i, d in enumerate(self.sets):
            if d.id != i:
                raise ValueError(f"set ids must be dense list indices, got {d.id} at {i}")
            if not d.measured:
                raise ValueError(f"set {i} has no measured qubit")
            if not d.targets:
                raise ValueError(f"set {i} has no targets")
            for q in d.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"set {i} mentions qubit {q} outside 0..{self.n_qubits - 1}")


def extract_cidq_sets(circuit: Circuit) -> CidqList:
    """Collect one dependency set per measurement event with dependents.

    A conditional op binds to the most recent earlier measure writing each of
    its condition bits, so re-measuring into the same clbit starts a fresh
    event.  Ops with multi-bit conditions contribute their qubits to every
    involved event.  Measures nobody reads produce no set.  The circuit is
    validated first (at once if it already passed), so a malformed one
    raises CircuitError.  The sets are extracted on the first call and
    recorded on the circuit, like its DAG.
    """
    return circuit.derived("_cidq", _extract)


def _extract(circuit: Circuit) -> CidqList:
    circuit.validate()
    ops = circuit.ops
    writer: dict[int, int] = {}  # clbit -> op index of current measure
    target_ops: dict[int, list[int]] = {}  # measure op index -> its dependent ops
    for i, (name, _, _, clbit, condition) in enumerate(ops):
        if condition is not None:
            for bit, _ in condition:
                event = writer[bit]
                if event in target_ops:
                    target_ops[event].append(i)
                else:
                    target_ops[event] = [i]
        elif name == "measure":  # a valid measure is never conditioned
            writer[clbit] = i
    sets = []
    for event in sorted(target_ops):
        dependents = target_ops[event]
        sets.append(
            CidqSet(
                id=len(sets),
                measured=frozenset(ops[event].qubits),
                targets=frozenset(itertools.chain.from_iterable(ops[i].qubits for i in dependents)),
                source_ops=(event,),
                target_ops=tuple(dependents),
            )
        )
    ld = CidqList(tuple(sets), circuit.n_qubits)
    ld.validate()
    return ld


@dataclass(frozen=True)
class FeedforwardHypergraph:
    """Hypergraph with logical qubits as vertices and one hyperedge per
    dependency set (measured and target qubits together)."""

    n_vertices: int
    hyperedges: tuple[frozenset[int], ...]
    incidence: tuple[tuple[int, ...], ...] = field(repr=False)

    def degree(self, q: int) -> int:
        return len(self.incidence[q])


def build_hypergraph(ld: CidqList, n_qubits: int) -> FeedforwardHypergraph:
    edges = tuple(d.qubits for d in ld)
    incidence: list[list[int]] = [[] for _ in range(n_qubits)]
    for e, qubits in enumerate(edges):
        for q in qubits:
            incidence[q].append(e)
    return FeedforwardHypergraph(n_qubits, edges, tuple(tuple(x) for x in incidence))


def population_cost(scnt, tcnt, hop, mode: str = "pair") -> np.ndarray:
    """Cost scnt . hop . tcnt of sets whose measured / target qubits number
    scnt[..., c] / tcnt[..., c] under controller c.  pair mode collapses the
    populations to indicators, so each distinct controller pair pays its hop
    once; the zero hop diagonal makes same-controller deliveries free."""
    if mode not in COST_MODES:
        raise ValueError(f"cost mode must be one of {COST_MODES}, got {mode!r}")
    if mode == "pair":
        scnt, tcnt = scnt > 0, tcnt > 0
    return np.einsum("...d,...d->...", scnt @ hop, tcnt)


def controllers(mq: LogicalPhysicalMap, mc: QubitControllerMap) -> np.ndarray:
    """ctl[q]: the controller holding logical qubit q under a complete mapping."""
    return np.array([mc.assignment[mq.physical(q)] for q in range(mq.n)], dtype=np.int64)


def set_costs(sets, ctl: np.ndarray, topo: ControllerTopology, mode: str = "pair") -> np.ndarray:
    """Cost of each of `sets` when logical qubit q sits under controller
    ctl[..., q].  Leading axes of ctl stack placements; the result has shape
    ctl.shape[:-1] + (len(sets),)."""
    # population row 2i counts the sources of set i, row 2i + 1 its targets
    rows = [qubits for d in sets for qubits in (d.measured, d.targets)]
    pin_row = np.repeat(np.arange(len(rows)), [len(qubits) for qubits in rows])
    pin_q = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64)
    k, size = topo.k, len(rows) * topo.k
    flat = ctl.reshape(-1, ctl.shape[-1])
    keys = pin_row * k + flat[:, pin_q] + size * np.arange(len(flat))[:, None]
    pop = np.bincount(keys.ravel(), minlength=size * len(flat))
    pop = pop.reshape(*ctl.shape[:-1], len(sets), 2, k)
    return population_cost(pop[..., 0, :], pop[..., 1, :], topo.hop, mode)


def total_cost_L(
    ld: CidqList,
    mq: LogicalPhysicalMap,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    mode: str = "pair",
) -> int:
    """Objective the placement stage minimizes: sum of per-set costs."""
    return int(set_costs(ld, controllers(mq, mc), topo, mode).sum())


def cost_lower_bound(
    ld: CidqList,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    mode: str = "pair",
) -> int:
    """A total cost no complete placement of ld on mc can go below.

    Every delivery between two controllers costs at least h_min, the
    smallest off-diagonal hop (0 when k = 1).  Per set S:

    - pair mode: if S's sources sit on s controllers and its targets on t,
      o of them shared, S pays for at least s*t - o >= s + t - o - 1
      controller pairs, one fewer than the controllers it spans.  It spans at
      least j(S), the fewest controllers whose largest capacities hold
      |qubits(S)|, so it pays at least h_min * (j(S) - 1).
    - per_target mode: S pays at least h_min * max(0, |qubits(S)| - largest
      capacity).  Each qubit of S off a controller that holds both a source
      and a target of S adds a delivery; with no such controller, every
      source-target pair crosses.
    """
    if mode not in COST_MODES:
        raise ValueError(f"cost mode must be one of {COST_MODES}, got {mode!r}")
    off_diagonal = ~np.eye(topo.k, dtype=bool)
    h_min = int(topo.hop.min(where=off_diagonal, initial=MAX_HOP)) if topo.k > 1 else 0
    capacity = np.sort(np.bincount(mc.assignment, minlength=mc.k))[::-1]
    sizes = np.array([len(d.qubits) for d in ld], dtype=np.int64)
    if mode == "pair":
        # j(S) - 1: the index of the first prefix of capacities that holds S
        excess = np.searchsorted(np.cumsum(capacity), sizes)
    else:
        excess = np.maximum(0, sizes - capacity[0])
    return h_min * int(excess.sum())
