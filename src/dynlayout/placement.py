"""Feedforward-aware initial placement.

Stage 1 seeds a complete logical-to-physical mapping greedily, visiting qubits
by descending feedforward-hypergraph degree and packing each next to its
already-placed neighbors.  Stage 2 refines it with Kernighan-Lin style passes:
for one controller C_i at a time, enumerate single-qubit relocations from C_i
into free slots of the other controllers and exchanges of a C_i qubit with an
outside qubit, repeatedly apply the currently best-gain movement (locking
touched qubits, negative gains allowed), then keep the prefix of applied
movements with the best cumulative gain if that gain is positive.
Refinement stops at the certified lower bound `cidq.cost_lower_bound`: a
mapping that meets it cannot improve, so no further pass runs.

Movement gains come from per-set controller populations, the input of the
cost kernel `cidq.population_cost`.  A moving qubit shifts them by a vector
fixed by its role in the set (source, target or both) and the controller it
trades with the pass controller, so each apply-loop iteration calls the
kernel three times over all sets: per (set, role, controller) for a qubit
leaving the pass controller, for one arriving, and per (set, role pair,
controller) for both at once.  It then sums those table entries, in exact
integers, over the set memberships of the qubits that can still move and of
their possible exchange partners only.  The cost of one iteration grows with
those memberships, not with the number of candidate movements times set
sizes.
"""
from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .cidq import (
    CidqList,
    FeedforwardHypergraph,
    build_hypergraph,
    controllers,
    cost_lower_bound,
    population_cost,
    set_costs,
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
    """Record of one qubit-moving pass: the movements applied, in order, and
    the prefix of them kept."""

    applied: list[Movement] = field(default_factory=list)
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
    ctl = np.stack([controllers(mq, mc), controllers(apply_movement(mq, move, mc), mc)])
    before, now = set_costs(affected, ctl, topo, mode).sum(-1)
    return int(before - now)


_NEG = np.iinfo(np.int64).min // 4


class _GainEngine:
    """Vectorized movement-gain evaluation for one CidqList.

    Counts, per dependency set, the sources and targets under every
    controller: the populations `cidq.population_cost` turns into a cost.

    A pin is one (set, qubit) membership, typed 0 for a target, 1 for a
    source and 2 for both; pins are listed qubit by qubit.  Moving a pin's
    qubit between the pass controller ci and a controller b shifts its set's
    count rows by a vector fixed by the pin type and b, so one scoring
    evaluates the form three times over all sets: d_x[set, type, b] (a pin
    leaves ci for b), d_y[set, type, b] (a pin comes from b to ci) and
    d_j[set, type_x, type_y, b] (both at once).  A movement's gain sums d_x
    and d_y over the pins of the moved qubits; an exchange adds the joint
    correction d_j - d_x - d_y of every set holding both qubits.  Only the
    pins of movable qubits and of their partners are read, and every sum is
    an exact int64 sum per qubit.
    """

    # source / target flag of each pin type
    TYPE_SRC = np.array([0, 1, 1], dtype=np.int64)
    TYPE_TGT = np.array([1, 0, 1], dtype=np.int64)

    def __init__(self, ld: CidqList, k: int, hop, mode: str):
        self.k = k
        self.mode = mode
        self.hop = np.asarray(hop, dtype=np.int64)
        self.n = ld.n_qubits
        self.n_sets = len(ld)

        def keys(role: str) -> np.ndarray:
            """Pin key q * sets + set of every qubit q in that role of a set."""
            groups = [getattr(d, role) for d in ld]
            q = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.int64)
            return q * self.n_sets + np.repeat(np.arange(self.n_sets), [len(g) for g in groups])

        src, tgt = keys("measured"), keys("targets")
        key = np.sort(np.concatenate((src, tgt)))
        key = key[np.diff(key, prepend=-1) != 0]  # ascending: pins listed qubit by qubit
        self.pin_q, self.pin_set = np.divmod(key, self.n_sets)
        self.pin_src = np.zeros(key.size, dtype=bool)
        self.pin_src[np.searchsorted(key, src)] = True
        self.pin_tgt = np.zeros(key.size, dtype=bool)
        self.pin_tgt[np.searchsorted(key, tgt)] = True
        self.pin_type = 2 * self.pin_src + self.pin_tgt - 1
        self.pin_count = np.bincount(self.pin_q, minlength=self.n)
        eye = np.eye(k, dtype=np.int64)
        # shift[a, b]: count-row change when one unit moves from controller a to b
        self.shift = eye[None, :, :] - eye[:, None, :]

    def _deltas(self, scnt, tcnt, s_cur, ds: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Cost change of every set when its count rows move by ds / dt, which
        are (..., k) arrays shared by all sets; shape (sets, ...)."""
        lead = (slice(None),) + (None,) * (ds.ndim - 1)
        return population_cost(scnt[lead] + ds, tcnt[lead] + dt, self.hop, self.mode) - s_cur[lead]

    def tables(self, ctl: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source counts, target counts, current per-set cost) under ctl."""
        size = self.n_sets * self.k
        key = self.pin_set * self.k + ctl[self.pin_q]
        scnt = np.bincount(key[self.pin_src], minlength=size).reshape(self.n_sets, self.k)
        tcnt = np.bincount(key[self.pin_tgt], minlength=size).reshape(self.n_sets, self.k)
        return scnt, tcnt, population_cost(scnt, tcnt, self.hop, self.mode)

    def _per_qubit(self, qubits: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """vals summed over the pins of each of the ascending `qubits`: the
        last axis of vals lists their pins in pin order, and becomes one
        entry per qubit."""
        count = self.pin_count[qubits]
        out = np.zeros(vals.shape[:-1] + (qubits.size,), dtype=np.int64)
        has_pins = count > 0  # reduceat cannot give an empty group its zero sum
        if has_pins.any():
            starts = (np.cumsum(count) - count)[has_pins]
            out[..., has_pins] = np.add.reduceat(vals, starts, axis=-1)
        return out

    def scores(
        self,
        ctl: np.ndarray,
        ci: int,
        locked: np.ndarray,
        has_free: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gains of every movement out of ci, _NEG where the movement is not
        available: rel[q, b] relocates unlocked q to a free slot of controller
        b != ci; ex[qa, qb] exchanges unlocked qa with unlocked qb under
        another controller."""
        scnt, tcnt, s_cur = self.tables(ctl)
        # x of type tx leaves ci for b; y of type ty leaves b for ci
        ds = self.TYPE_SRC[:, None, None] * self.shift[ci]
        dt = self.TYPE_TGT[:, None, None] * self.shift[ci]
        d_x = self._deltas(scnt, tcnt, s_cur, ds, dt)
        d_y = self._deltas(scnt, tcnt, s_cur, -ds, -dt)
        d_j = self._deltas(scnt, tcnt, s_cur, ds[:, None] - ds, dt[:, None] - dt)
        movable = (ctl == ci) & ~locked
        partner = (ctl != ci) & ~locked
        rows, cols = np.flatnonzero(movable), np.flatnonzero(partner)
        pa = np.flatnonzero(movable[self.pin_q])  # pins of rows, qubit by qubit
        pb = np.flatnonzero(partner[self.pin_q])  # pins of cols, qubit by qubit
        set_a, type_a = self.pin_set[pa], self.pin_type[pa]
        set_b, type_b, ctl_b = self.pin_set[pb], self.pin_type[pb], ctl[self.pin_q[pb]]
        # leave[b, i]: rows[i] alone leaves ci for b; enter[j]: cols[j] alone comes to ci
        leave = self._per_qubit(rows, d_x[set_a, type_a].T)
        enter = self._per_qubit(cols, d_y[set_b, type_b, ctl_b])
        # w[j, set, tx]: the joint correction pin (set, cols[j]) adds to an
        # exchange of cols[j] with a pin of type tx in that set
        w = np.zeros((cols.size, self.n_sets, 3), dtype=np.int64)
        col_of_pin = np.repeat(np.arange(cols.size), self.pin_count[cols])
        w[col_of_pin, set_b] = (d_j - d_x[:, :, None] - d_y[:, None])[set_b, :, type_b, ctl_b]
        corr = self._per_qubit(rows, w[:, set_a, type_a])  # [j, i]
        rel = np.full((self.n, self.k), _NEG, dtype=np.int64)
        dests = np.flatnonzero(has_free)
        dests = dests[dests != ci]
        rel[rows[:, None], dests] = -leave[dests].T
        ex = np.full((self.n, self.n), _NEG, dtype=np.int64)
        ex[rows[:, None], cols] = -(leave[ctl[cols]] + enter[:, None] + corr).T
        return rel, ex


def run_pass(
    mq: LogicalPhysicalMap,
    controller: int,
    ld: CidqList,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    mode: str = "pair",
) -> tuple[LogicalPhysicalMap, PassState]:
    """One qubit-moving pass between `controller` and every other controller.

    Returns the improved mapping (the input mapping reapplied up to the best
    positive cumulative-gain prefix, else unchanged) plus the pass record.
    """
    state = PassState()
    if not mq.is_complete():
        raise ConfigError("qubit moving pass needs a complete mapping")
    k = topo.k
    if len(ld) == 0 or k == 1:
        return mq.copy(), state

    engine = _GainEngine(ld, k, topo.hop, mode)
    n = engine.n

    work = mq.copy()
    ctl = controllers(work, mc)
    free_heaps: dict[int, list[int]] = {
        c: sorted(_free_slots(work, mc, c)) for c in range(k)
    }
    for h in free_heaps.values():
        heapq.heapify(h)
    locked = np.zeros(n, dtype=bool)

    while True:
        has_free = np.array([bool(free_heaps[b]) for b in range(k)])
        rel_score, ex_score = engine.scores(ctl, controller, locked, has_free)
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

    # keep the best positive prefix of the applied movement sequence
    result = mq.copy()
    if state.applied:
        cumulative = np.cumsum([move.gain for move in state.applied])
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
    the winner and stop early once no pass improves.  sweeps must be >= 1.

    Refinement stops at the certified bound `cidq.cost_lower_bound`: no sweep
    starts from a mapping that meets it, and a sweep runs no further pass once
    a candidate meets it.  Only a strictly lower cost is accepted, so neither
    stop changes the result."""
    if sweeps < 1:
        raise ValueError(f"sweeps must be at least 1, got {sweeps}")
    bound = cost_lower_bound(ld, mc, topo, mode)

    def cost_of(mapping: LogicalPhysicalMap) -> int:
        cost = total_cost_L(ld, mapping, mc, topo, mode)
        if cost < bound:
            raise RuntimeError(f"cost {cost} is below its certified lower bound {bound}")
        return cost

    current = mq.copy()
    current_cost = cost_of(current)
    for _ in range(sweeps):
        if current_cost == bound:
            break
        best, best_cost = None, current_cost
        for ci in range(mc.k):
            candidate, _ = run_pass(current, ci, ld, mc, topo, mode)
            cost = cost_of(candidate)
            if cost < best_cost:
                best, best_cost = candidate, cost
                if cost == bound:
                    break
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
