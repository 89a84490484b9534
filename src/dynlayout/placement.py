"""Feedforward-aware initial placement.

Stage 1 seeds a complete logical-to-physical mapping greedily, visiting qubits
by descending feedforward-hypergraph degree and packing each next to its
already-placed neighbors.  Stage 2 refines it with Kernighan-Lin style passes:
for one controller C_i at a time, enumerate single-qubit relocations from C_i
into free slots of the other controllers and exchanges of a C_i qubit with an
outside qubit, repeatedly apply the currently best-gain movement (locking
touched qubits, negative gains allowed), then keep the prefix of applied
movements with the best cumulative gain if that gain is positive.

Movement gains come from per-set controller population counts.  A set's
cost depends only on its counts, and a moving qubit shifts them by a vector
fixed by its role in the set (source, target or both) and the two controllers
involved, so each apply-loop iteration evaluates the cost form once per
(set, role, source, destination) and once per (set, role pair, destination)
over all sets together, then gathers those table entries per qubit.  The cost
of one iteration grows with the number of set memberships, not with the
number of candidate movements times set sizes.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

import numpy as np

from .cidq import (
    CidqList,
    FeedforwardHypergraph,
    build_hypergraph,
    cidq_cost_S,
    total_cost_L,
)
from .control import (
    UNASSIGNED,
    ConfigError,
    ControllerTopology,
    DeviceGraph,
    LogicalPhysicalMap,
    QubitControllerMap,
)


class InvalidMovement(ValueError):
    """Raised when a movement cannot be applied to the given mapping."""


@dataclass(frozen=True)
class Movement:
    """A relocation of one qubit into a free slot of another controller, or an
    exchange of the physical homes of two qubits under different controllers."""

    kind: str  # "relocate" | "exchange"
    qubit: int
    from_controller: int
    to_controller: int
    partner: int | None = None
    to_physical: int | None = None
    gain: int | None = None

    def moved_qubits(self) -> tuple[int, ...]:
        return (self.qubit,) if self.partner is None else (self.qubit, self.partner)


@dataclass
class PassState:
    """Record of one qubit-moving pass (for inspection and tests)."""

    controller: int
    others: tuple[int, ...]
    applied: list[Movement] = field(default_factory=list)
    gains: list[int] = field(default_factory=list)
    locked: set[int] = field(default_factory=set)
    prefix_length: int = 0
    prefix_gain: int = 0


def _free_slots(mq: LogicalPhysicalMap, mc: QubitControllerMap, c: int) -> list[int]:
    return [p for p in mc.qubits_of(c) if mq.inverse[p] == UNASSIGNED]


def apply_movement(
    mq: LogicalPhysicalMap, move: Movement, mc: QubitControllerMap
) -> LogicalPhysicalMap:
    """Return a copy of mq with the movement applied.

    A relocation lands on move.to_physical when set, else on the lowest-index
    free physical qubit of the destination controller.
    """
    out = mq.copy()
    if mc.assignment[out.physical(move.qubit)] != move.from_controller:
        raise InvalidMovement(f"qubit {move.qubit} is not under controller {move.from_controller}")
    if move.kind == "relocate":
        if move.to_physical is not None:
            target = move.to_physical
            if mc.assignment[target] != move.to_controller or out.inverse[target] != UNASSIGNED:
                raise InvalidMovement(f"physical qubit {target} is not a free destination slot")
        else:
            free = _free_slots(out, mc, move.to_controller)
            if not free:
                raise InvalidMovement(f"controller {move.to_controller} has no free slot")
            target = min(free)
        out.move(move.qubit, target)
    elif move.kind == "exchange":
        if move.partner is None:
            raise InvalidMovement("exchange needs a partner qubit")
        if mc.assignment[out.physical(move.partner)] != move.to_controller:
            raise InvalidMovement(
                f"qubit {move.partner} is not under controller {move.to_controller}"
            )
        out.swap_physical(out.physical(move.qubit), out.physical(move.partner))
    else:
        raise InvalidMovement(f"unknown movement kind {move.kind!r}")
    return out


def movement_gain(
    move: Movement,
    mq: LogicalPhysicalMap,
    ld: CidqList,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    mode: str = "pair",
) -> int:
    """Objective change of one movement, summed over the sets it touches.

    Only sets containing a moved qubit can change cost, so this local sum
    equals the global objective delta exactly.
    """
    moved = set(move.moved_qubits())
    affected = [d for d in ld if moved & d.qubits]
    after = apply_movement(mq, move, mc)
    return sum(
        cidq_cost_S(d, mq, mc, topo, mode) - cidq_cost_S(d, after, mc, topo, mode)
        for d in affected
    )


_NEG = np.iinfo(np.int64).min // 4


class _GainEngine:
    """Vectorized movement-gain evaluation for one CidqList.

    Counts, per dependency set, the sources and targets under every
    controller; a set's cost is a bilinear form of those two count rows
    through the hop matrix (with counts collapsed to indicators in pair mode).

    A pin is one (set, qubit) membership, typed 2*is_source + is_target.
    Moving a pin's qubit from controller a to b shifts its set's count rows by
    a vector fixed by the pin type, a and b, so gains are read from per-set
    type tables: single moves from D[set, type, a, b] (one evaluation of the
    form over all sets at once) and exchange corrections from
    tab[set, type_x, type_y, b] (three evaluations).  Pins gather their
    entries from the tables and scatter them onto qubits.
    """

    # source / target flag of each pin type
    TYPE_SRC = np.array([0, 0, 1, 1], dtype=np.int64)
    TYPE_TGT = np.array([0, 1, 0, 1], dtype=np.int64)

    def __init__(self, ld: CidqList, k: int, hop, mode: str):
        self.k = k
        self.mode = mode
        self.hop = np.asarray(hop, dtype=np.int64)
        self.n = ld.n_qubits
        self.n_sets = len(ld)
        pins = [
            (i, q, 2 * (q in d.measured) + (q in d.targets))
            for i, d in enumerate(ld)
            for q in sorted(d.qubits)
        ]
        self.pin_set, self.pin_q, self.pin_type = (
            np.array(pins, dtype=np.int64).reshape(-1, 3).T
        )
        self.pin_src = self.TYPE_SRC[self.pin_type] == 1
        self.pin_tgt = self.TYPE_TGT[self.pin_type] == 1
        eye = np.eye(k, dtype=np.int64)
        # shift[a, b]: count-row change when one unit moves from controller a to b
        self.shift = eye[None, :, :] - eye[:, None, :]

    def _eval(self, scnt: np.ndarray, tcnt: np.ndarray) -> np.ndarray:
        if self.mode == "pair":
            scnt, tcnt = scnt > 0, tcnt > 0
        return np.einsum("...d,...d->...", scnt @ self.hop, tcnt)

    def _deltas(self, scnt, tcnt, s_cur, ds: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Cost change of every set when its count rows move by ds / dt, which
        are (..., k) arrays shared by all sets; shape (sets, ...)."""
        lead = (slice(None),) + (None,) * (ds.ndim - 1)
        return self._eval(scnt[lead] + ds, tcnt[lead] + dt) - s_cur[lead]

    def tables(self, ctl: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source counts, target counts, current per-set cost) under ctl."""
        size = self.n_sets * self.k
        key = self.pin_set * self.k + ctl[self.pin_q]
        scnt = np.bincount(key[self.pin_src], minlength=size).reshape(self.n_sets, self.k)
        tcnt = np.bincount(key[self.pin_tgt], minlength=size).reshape(self.n_sets, self.k)
        return scnt, tcnt, self._eval(scnt, tcnt)

    def single_move_deltas(
        self, ctl: np.ndarray, scnt: np.ndarray, tcnt: np.ndarray, s_cur: np.ndarray
    ) -> np.ndarray:
        """drel[q, b]: objective change when qubit q alone moves to controller b."""
        per_type = (slice(None), None, None, None)
        ds = self.TYPE_SRC[per_type] * self.shift
        dt = self.TYPE_TGT[per_type] * self.shift
        table = self._deltas(scnt, tcnt, s_cur, ds, dt)  # D[set, type, a, b]
        drel = np.zeros((self.n, self.k), dtype=np.int64)
        np.add.at(drel, self.pin_q, table[self.pin_set, self.pin_type, ctl[self.pin_q]])
        return drel

    def exchange_corrections(
        self,
        ctl: np.ndarray,
        scnt: np.ndarray,
        tcnt: np.ndarray,
        s_cur: np.ndarray,
        ci: int,
        allowed: np.ndarray,
    ) -> np.ndarray:
        """corr[qa, qb]: joint-move delta minus the two single-move deltas, for
        qa under ci and qb under an allowed controller sharing a set with qa.
        Nonzero only when both endpoints sit in one set, which the per-qubit
        sums cannot see."""
        # x of type tx leaves ci for b; y of type ty leaves b for ci
        ds = self.TYPE_SRC[:, None, None] * self.shift[ci]
        dt = self.TYPE_TGT[:, None, None] * self.shift[ci]
        d_x = self._deltas(scnt, tcnt, s_cur, ds, dt)
        d_y = self._deltas(scnt, tcnt, s_cur, -ds, -dt)
        d_j = self._deltas(scnt, tcnt, s_cur, ds[:, None] - ds, dt[:, None] - dt)
        tab = (d_j - d_x[:, :, None] - d_y[:, None]) * allowed  # [set, tx, ty, b]
        # w[set, tx, qb]: the entry pin (set, qb) adds for a partner of type tx
        w = np.zeros((self.n_sets, 4, self.n), dtype=np.int64)
        w[self.pin_set, :, self.pin_q] = tab[self.pin_set, :, self.pin_type, ctl[self.pin_q]]
        # x[qa, set, tx]: qa under ci is a pin of that type in that set
        in_ci = ctl[self.pin_q] == ci
        x = np.zeros((self.n, self.n_sets, 4), dtype=np.int64)
        x[self.pin_q[in_ci], self.pin_set[in_ci], self.pin_type[in_ci]] = 1
        rows = np.flatnonzero(ctl == ci)
        corr = np.zeros((self.n, self.n), dtype=np.int64)
        corr[rows] = x[rows].reshape(rows.size, 4 * self.n_sets) @ w.reshape(-1, self.n)
        return corr

    def scores(
        self,
        ctl: np.ndarray,
        ci: int,
        allowed: np.ndarray,
        locked: np.ndarray,
        has_free: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gains of every movement out of ci, _NEG where the movement is not
        available: rel[q, b] relocates unlocked q to a free slot of allowed
        controller b; ex[qa, qb] exchanges unlocked qa with unlocked qb under
        an allowed controller."""
        scnt, tcnt, s_cur = self.tables(ctl)
        drel = self.single_move_deltas(ctl, scnt, tcnt, s_cur)
        corr = self.exchange_corrections(ctl, scnt, tcnt, s_cur, ci, allowed)
        movable = (ctl == ci) & ~locked
        rel_valid = movable[:, None] & (allowed & has_free)[None, :]
        rel = np.where(rel_valid, -drel, _NEG)
        ex_valid = movable[:, None] & (allowed[ctl] & ~locked)[None, :]
        ex_gain = -(drel[np.arange(self.n)[:, None], ctl[None, :]] + drel[:, ci][None, :] + corr)
        return rel, np.where(ex_valid, ex_gain, _NEG)



def run_pass(
    mq: LogicalPhysicalMap,
    controller: int,
    others,
    ld: CidqList,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    mode: str = "pair",
    validate: bool = False,
) -> tuple[LogicalPhysicalMap, PassState]:
    """One qubit-moving pass between `controller` and the `others` subset.

    Returns the improved mapping (the input mapping reapplied up to the best
    positive cumulative-gain prefix, else unchanged) plus the pass record.
    """
    others = tuple(sorted(set(others) - {controller}))
    state = PassState(controller=controller, others=others)
    if not mq.is_complete():
        raise ConfigError("qubit moving pass needs a complete mapping")
    if len(ld) == 0 or not others:
        return mq.copy(), state

    k = topo.k
    engine = _GainEngine(ld, k, topo.hop, mode)
    n = engine.n
    allowed = np.zeros(k, dtype=bool)
    allowed[list(others)] = True

    work = mq.copy()
    ctl = np.array([mc.assignment[work.physical(q)] for q in range(n)], dtype=np.int64)
    free_heaps: dict[int, list[int]] = {
        c: sorted(_free_slots(work, mc, c)) for c in range(k)
    }
    for h in free_heaps.values():
        heapq.heapify(h)
    locked = np.zeros(n, dtype=bool)

    while True:
        has_free = np.array([bool(free_heaps[b]) for b in range(k)])
        rel_score, ex_score = engine.scores(ctl, controller, allowed, locked, has_free)
        # argmax over flat arrays: ties resolve to relocations first, then to
        # the lexicographically smallest (qubit, destination) pair
        best_rel_flat = int(np.argmax(rel_score))
        best_rel = int(rel_score.flat[best_rel_flat])
        best_ex_flat = int(np.argmax(ex_score))
        best_ex = int(ex_score.flat[best_ex_flat])
        if best_rel <= _NEG and best_ex <= _NEG:
            break

        if best_rel >= best_ex:
            q, b = divmod(best_rel_flat, k)
            slot = heapq.heappop(free_heaps[b])
            move = Movement(
                "relocate", q, controller, b, to_physical=slot, gain=best_rel
            )
            heapq.heappush(free_heaps[controller], work.physical(q))
            work.move(q, slot)
            ctl[q] = b
            locked[q] = True
        else:
            qa, qb = divmod(best_ex_flat, n)
            move = Movement(
                "exchange", qa, controller, int(ctl[qb]), partner=qb, gain=best_ex
            )
            work.swap_physical(work.physical(qa), work.physical(qb))
            ctl[qa], ctl[qb] = ctl[qb], ctl[qa]
            locked[qa] = locked[qb] = True
        state.applied.append(move)
        state.gains.append(move.gain)
        state.locked.update(move.moved_qubits())
        if validate:
            expect = total_cost_L(ld, work, mc, topo, mode)
            got = int(engine.tables(ctl)[2].sum())
            if got != expect:
                raise AssertionError(f"incremental cost {got} != recomputed {expect}")

    # keep the best positive prefix of the applied movement sequence
    result = mq.copy()
    if state.gains:
        cumulative = np.cumsum(state.gains)
        best = int(cumulative.max())
        if best > 0:
            state.prefix_length = int(np.argmax(cumulative)) + 1
            state.prefix_gain = best
            for move in state.applied[: state.prefix_length]:
                result = apply_movement(result, move, mc)
    return result, state


def stage1_greedy(
    mc: QubitControllerMap,
    ld: CidqList,
    hypergraph: FeedforwardHypergraph,
    seed: int = 0,
) -> LogicalPhysicalMap:
    """Greedy seeding: qubits in descending hypergraph degree (ties by lower
    index) join the free-capacity controller holding most of their placed
    neighbors (ties: more free capacity, then lower index); feedforward qubits
    with no placed neighbor take a seeded-random controller among those with
    the most free slots, so the densest cluster never starts on a cramped
    controller.  Qubits outside every dependency set are placed last and pile
    onto the fullest controller; their location is cost-neutral here, but
    keeping the program compact spares the router from dragging qubits across
    half the device.  Each qubit lands on the lowest-index free physical qubit
    of its controller."""
    rng = random.Random(seed)
    n = hypergraph.n_vertices
    k = mc.k
    mq = LogicalPhysicalMap(n, mc.m)
    free_slots = {c: sorted(mc.qubits_of(c)) for c in range(k)}
    for h in free_slots.values():
        heapq.heapify(h)
    free = {c: len(free_slots[c]) for c in range(k)}
    if sum(free.values()) < n:
        raise ConfigError(f"device hosts {sum(free.values())} qubits, circuit needs {n}")
    placed_ctl: dict[int, int] = {}
    placed_count = {c: 0 for c in range(k)}
    order = sorted(range(n), key=lambda q: (-hypergraph.degree(q), q))
    for q in order:
        eligible = [c for c in range(k) if free[c] > 0]
        placed_neighbors = [x for x in hypergraph.neighbors(q) if x in placed_ctl]
        if placed_neighbors:
            score = {c: 0 for c in eligible}
            for x in placed_neighbors:
                c = placed_ctl[x]
                if c in score:
                    score[c] += 1
            choice = max(eligible, key=lambda c: (score[c], free[c], -c))
        elif hypergraph.degree(q) > 0:
            most_free = max(free[c] for c in eligible)
            choice = rng.choice([c for c in eligible if free[c] == most_free])
        else:
            choice = max(eligible, key=lambda c: (placed_count[c], free[c], -c))
        mq.assign(q, heapq.heappop(free_slots[choice]))
        free[choice] -= 1
        placed_count[choice] += 1
        placed_ctl[q] = choice
    return mq


def stage2_iterate(
    mq: LogicalPhysicalMap,
    mc: QubitControllerMap,
    ld: CidqList,
    topo: ControllerTopology,
    mode: str = "pair",
    sweeps: int = 1,
) -> LogicalPhysicalMap:
    """Refinement: per sweep, run one movement pass per controller C_i against
    all the others, every pass starting from the same input mapping, and keep
    the cheapest result (ties: first encountered).  Extra sweeps restart from
    the winner and stop early once no pass improves."""
    current = mq.copy()
    current_cost = total_cost_L(ld, current, mc, topo, mode)
    for _ in range(max(1, sweeps)):
        best, best_cost = None, current_cost
        for ci in range(mc.k):
            candidate, _ = run_pass(
                current, ci, [c for c in range(mc.k) if c != ci], ld, mc, topo, mode
            )
            cost = total_cost_L(ld, candidate, mc, topo, mode)
            if cost < best_cost:
                best, best_cost = candidate, cost
        if best is None:
            break
        current, current_cost = best, best_cost
    return current


def initial_placement(
    mc: QubitControllerMap,
    ld: CidqList,
    topo: ControllerTopology,
    device: DeviceGraph,
    mode: str = "pair",
    seed: int = 0,
    sweeps: int = 1,
) -> LogicalPhysicalMap:
    """Full placement: greedy seeding plus refinement sweeps."""
    if mc.m != device.m:
        raise ConfigError(f"assignment covers {mc.m} qubits, device has {device.m}")
    hyper = build_hypergraph(ld, ld.n_qubits)
    seeded = stage1_greedy(mc, ld, hyper, seed)
    refined = stage2_iterate(seeded, mc, ld, topo, mode, sweeps=sweeps)
    seeded_cost = total_cost_L(ld, seeded, mc, topo, mode)
    refined_cost = total_cost_L(ld, refined, mc, topo, mode)
    if refined_cost > seeded_cost:
        raise RuntimeError(
            f"refinement lost to its seed: cost {refined_cost} > seeded {seeded_cost}"
        )
    return refined


def random_layout(n_qubits: int, m_physical: int, seed: int = 0) -> LogicalPhysicalMap:
    """Uniformly random complete layout (the baseline pipeline's stand-in for
    feedforward-aware placement)."""
    rng = random.Random(seed)
    mq = LogicalPhysicalMap(n_qubits, m_physical)
    for q, p in enumerate(rng.sample(range(m_physical), n_qubits)):
        mq.assign(q, p)
    return mq
