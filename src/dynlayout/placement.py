"""Feedforward-aware initial placement.

Both stages choose a controller for each logical qubit, which alone sets
the cost; the slot rule `control.fill_slots` turns the choices into
physical qubits.  Stage 1 seeds a complete mapping greedily, visiting qubits
by descending feedforward-hypergraph degree and packing each next to its
already-placed neighbors.  Stage 2 refines it with Kernighan-Lin style passes:
for one controller C_i at a time, enumerate single-qubit relocations from C_i
into free slots of the other controllers and exchanges of a C_i qubit with an
outside qubit, repeatedly apply the currently best-gain movement (locking
touched qubits, negative gains allowed), then keep the prefix of applied
movements with the best cumulative gain if that gain is positive.  Sweeps
of passes, one per controller that holds a qubit, repeat until a sweep finds
nothing cheaper.  Refinement stops at the certified lower bound
`cidq.cost_lower_bound`: a mapping that meets it cannot improve, so no
further pass runs.  Gains are exact cost deltas, so a candidate's cost is its
input's cost less its pass's prefix gain; only the seed and a refined result
are priced through `total_cost_L`, the latter once, as a check.

Movement gains come from per-set controller populations, the input of the
cost kernel `cidq.population_cost`.  A moving qubit shifts them by a vector
fixed by its role in the set (source, target or both) and the controller it
trades with the pass controller.  So each apply-loop iteration prices only
the keys its candidates read: each distinct (set, role) of a qubit that can
still move, leaving the pass controller for every other controller, and each
distinct (set, role, controller) of a possible exchange partner, arriving
alone and trading places with a qubit of each role.  It then sums those
changes, in exact integers, over the set memberships of those qubits.  The
cost of one iteration grows with those memberships, not with the number of
candidate movements times set sizes, nor with the number of sets times k**2.
"""
from __future__ import annotations

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
    ConfigError,
    ControllerTopology,
    DeviceGraph,
    LogicalPhysicalMap,
    QubitControllerMap,
    fill_slots,
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


def _check_fits(n_logical: int, m_physical: int) -> None:
    """Refuse a circuit the device cannot hold, before anything sized by the
    circuit's qubit count is built."""
    if n_logical > m_physical:
        raise ConfigError(f"device hosts {m_physical} qubits, circuit needs {n_logical}")


def apply_movement(
    mq: LogicalPhysicalMap, move: Movement, mc: QubitControllerMap
) -> LogicalPhysicalMap:
    """Return a copy of mq with the movement applied.

    An exchange swaps the homes of its two qubits; a relocation takes a free
    slot of another controller by the slot rule `control.fill_slots`, or
    raises.
    """
    out = mq.copy()
    if mc.assignment[out.physical(move.qubit)] != move.from_controller:
        raise InvalidMovement(f"qubit {move.qubit} is not under controller {move.from_controller}")
    if move.kind == "relocate":
        if move.to_controller == move.from_controller:
            raise InvalidMovement(
                f"relocation of qubit {move.qubit} onto its own controller {move.to_controller}"
            )
        out.unassign(move.qubit)
        try:
            fill_slots(out, mc, [(move.qubit, move.to_controller)])
        except ConfigError as exc:
            raise InvalidMovement(str(exc)) from None
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
    count rows by a vector fixed by the pin type and b.  One scoring prices
    a key once, however many pins share it: each distinct (set, type) of a
    movable qubit's pins leaving ci for every b, and each distinct (set,
    type, controller) of a partner's pins arriving at ci, with the joint
    change of that pin and a pin of each type trading places.  A movement's
    gain sums the leave and arrive changes over the pins of the moved
    qubits; an exchange adds the joint correction (joint less leave less
    arrive) of every set holding both qubits.  Every sum is an exact int64
    sum per qubit.
    """

    # source / target flag of each pin type
    TYPE_SRC = np.array([0, 1, 1], dtype=np.int64)
    TYPE_TGT = np.array([1, 0, 1], dtype=np.int64)
    # row ty: the source / target moves priced per (set, controller c) of a
    # partner pin of type ty: the partner alone comes from c to ci, then a
    # pin of each type tx alone leaves ci for c, then that pin and the
    # partner trade places
    PARTNER_SRC, PARTNER_TGT = (
        np.column_stack((-flag, np.tile(flag, (3, 1)), flag - flag[:, None]))
        for flag in (TYPE_SRC, TYPE_TGT)
    )

    def __init__(self, ld: CidqList, k: int, hop, mode: str):
        self.k = k
        self.mode = mode
        self.hop = hop
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
        self.eye = np.eye(k, dtype=np.int64)

    def _change(self, counts, sets, d_src, d_tgt, shift: np.ndarray) -> np.ndarray:
        """Cost change of each of `sets` when d_src of its sources and d_tgt
        of its targets move along the count-row change `shift` (last axis:
        controllers).  counts is `tables`; the arguments broadcast together."""
        scnt, tcnt, s_cur = counts
        return population_cost(
            scnt[sets] + d_src[..., None] * shift,
            tcnt[sets] + d_tgt[..., None] * shift,
            self.hop,
            self.mode,
        ) - s_cur[sets]

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
        counts = self.tables(ctl)
        # shift[b]: count-row change when one unit moves from ci to b
        shift = self.eye - self.eye[ci]
        movable = (ctl == ci) & ~locked
        partner = (ctl != ci) & ~locked
        rows, cols = np.flatnonzero(movable), np.flatnonzero(partner)
        pa = np.flatnonzero(movable[self.pin_q])  # pins of rows, qubit by qubit
        pb = np.flatnonzero(partner[self.pin_q])  # pins of cols, qubit by qubit
        set_a, type_a = self.pin_set[pa], self.pin_type[pa]
        set_b, type_b, ctl_b = self.pin_set[pb], self.pin_type[pb], ctl[self.pin_q[pb]]
        # x_cost[u, b]: a pin of the u-th distinct (set, type) of rows leaves
        # ci for b; priced in blocks of keys, so that no (keys, k, k)
        # population table holds much more than 2**18 entries
        x_key, x_of_pin = np.unique(set_a * 3 + type_a, return_inverse=True)
        x_set, x_type = np.divmod(x_key, 3)
        n_blocks = max(1, -(-x_key.size * self.k**2 // 2**18))  # rounded up
        x_cost = np.concatenate([
            self._change(counts, x_set[u, None], self.TYPE_SRC[x_type[u], None],
                         self.TYPE_TGT[x_type[u], None], shift)
            for u in np.array_split(np.arange(x_key.size), n_blocks)
        ])
        # y_cost[v]: the changes of the v-th distinct (set, type, controller)
        # of cols, as the columns of PARTNER_SRC / PARTNER_TGT list them
        y_key, y_of_pin = np.unique((set_b * 3 + type_b) * self.k + ctl_b, return_inverse=True)
        y_set_type, y_ctl = np.divmod(y_key, self.k)
        y_set, y_type = np.divmod(y_set_type, 3)
        y_cost = self._change(
            counts, y_set[:, None], self.PARTNER_SRC[y_type], self.PARTNER_TGT[y_type],
            shift[y_ctl, None],
        )
        arrive = y_cost[:, 0]
        joint = y_cost[:, 4:] - y_cost[:, 1:4] - arrive[:, None]  # [v, tx]
        # leave[b, i]: rows[i] alone leaves ci for b; enter[j]: cols[j] alone comes to ci
        leave = self._per_qubit(rows, x_cost[x_of_pin].T)
        enter = self._per_qubit(cols, arrive[y_of_pin])
        # w[j, set, tx]: the joint correction pin (set, cols[j]) adds to an
        # exchange of cols[j] with a pin of type tx in that set
        w = np.zeros((cols.size, self.n_sets, 3), dtype=np.int64)
        col_of_pin = np.repeat(np.arange(cols.size), self.pin_count[cols])
        w[col_of_pin, set_b] = joint[y_of_pin]
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

    Returns the mapping after the first movement prefix with the largest
    positive cumulative gain (else a copy of the input) plus the pass record.
    """
    state = PassState()
    if not mq.is_complete():
        raise ConfigError("qubit moving pass needs a complete mapping")
    k = topo.k
    if len(ld) == 0 or k == 1:
        return mq.copy(), state

    engine = _GainEngine(ld, k, topo.hop, mode)
    n = engine.n
    ctl = controllers(mq, mc)
    free = np.bincount(mc.assignment, minlength=k) - np.bincount(ctl, minlength=k)
    locked = np.zeros(n, dtype=bool)
    running = 0

    while True:
        rel_score, ex_score = engine.scores(ctl, controller, locked, free > 0)
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
            move = Movement("relocate", q, controller, b, gain=best_rel)
            free[b] -= 1
            ctl[q] = b
            locked[q] = True
        else:
            qa, qb = divmod(best_ex_flat, n)
            move = Movement(
                "exchange", qa, controller, int(ctl[qb]), partner=qb, gain=best_ex
            )
            ctl[qa], ctl[qb] = ctl[qb], ctl[qa]
            locked[qa] = locked[qb] = True
        state.applied.append(move)
        # keep the first prefix whose cumulative gain is the largest positive one
        running += move.gain
        if running > state.prefix_gain:
            state.prefix_length, state.prefix_gain = len(state.applied), running

    # realize the kept prefix: no relocation lands in the pass controller, the
    # one place a pass frees slots, so exchanges commute with relocations
    out, relocated = mq.copy(), []
    for move in state.applied[: state.prefix_length]:
        if move.kind == "relocate":
            out.unassign(move.qubit)
            relocated.append((move.qubit, move.to_controller))
        else:
            out.swap_physical(out.physical(move.qubit), out.physical(move.partner))
    return fill_slots(out, mc, relocated), state


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
    half the device.  Choices use free counts only; `control.fill_slots`
    then realizes them once, in visit order."""
    rng = random.Random(seed)
    n = hypergraph.n_vertices
    k = mc.k
    _check_fits(n, mc.m)
    free = np.bincount(mc.assignment, minlength=k).tolist()
    placed_ctl: dict[int, int] = {}  # in visit order
    placed_count = [0] * k
    # qubit sets as int bitmasks (bit q for qubit q); q itself is never among
    # the placed qubits when it is visited
    edge_mask = [sum(1 << q for q in e) for e in hypergraph.hyperedges]
    placed_on = [0] * k  # controller -> its placed qubits
    placed = 0  # every placed qubit
    order = sorted(range(n), key=lambda q: (-hypergraph.degree(q), q))
    for q in order:
        eligible = [c for c in range(k) if free[c] > 0]
        hit = 0  # q's placed neighbours
        for e in hypergraph.incidence[q]:
            hit |= edge_mask[e]
        hit &= placed
        if hit:
            # per-controller counts, by whichever is fewer: one step per
            # placed neighbour, or one AND per eligible controller
            score = [0] * k
            if hit.bit_count() < len(eligible):
                while hit:
                    low = hit & -hit
                    score[placed_ctl[low.bit_length() - 1]] += 1
                    hit ^= low
            else:
                for c in eligible:
                    score[c] = (hit & placed_on[c]).bit_count()
            choice = max(eligible, key=lambda c: (score[c], free[c], -c))
        elif hypergraph.degree(q) > 0:
            most_free = max(free[c] for c in eligible)
            choice = rng.choice([c for c in eligible if free[c] == most_free])
        else:
            choice = max(eligible, key=lambda c: (placed_count[c], free[c], -c))
        free[choice] -= 1
        placed_count[choice] += 1
        placed_ctl[q] = choice
        bit = 1 << q
        placed_on[choice] |= bit
        placed |= bit
    return fill_slots(LogicalPhysicalMap(n, mc.m), mc, placed_ctl.items())


def stage2_iterate(
    mq: LogicalPhysicalMap,
    mc: QubitControllerMap,
    ld: CidqList,
    topo: ControllerTopology,
    mode: str = "pair",
) -> LogicalPhysicalMap:
    """Refinement to a fixpoint: per sweep, run one movement pass per
    controller C_i that holds a logical qubit, in ascending order, against all
    the others, every pass starting from the same input mapping, and keep the
    cheapest result (ties: first encountered).  Sweeps restart from the winner
    until one finds nothing cheaper.  A pass moves qubits only out of its own
    controller, so a pass on an empty controller would return its input;
    skipping it changes neither the result nor the tie order.

    Each layout is priced once: the input through `total_cost_L`, a candidate
    as its input's cost less its pass's prefix gain (an exact drop).  The
    carried cost only falls, and one re-pricing of a refined result checks
    it: a price other than the carried cost raises `RuntimeError`.

    Refinement stops at the certified bound `cidq.cost_lower_bound`: no sweep
    starts from a mapping that meets it, and a sweep runs no further pass once
    a candidate meets it.  Only a strictly lower cost is accepted, so neither
    stop changes the result, and every sweep but the last lowers an integer
    cost that cannot fall below the bound, so the loop ends."""
    bound = cost_lower_bound(ld, mc, topo, mode)

    def cost_of(mapping: LogicalPhysicalMap) -> int:
        cost = total_cost_L(ld, mapping, mc, topo, mode)
        if cost < bound:
            raise RuntimeError(f"cost {cost} is below its certified lower bound {bound}")
        return cost

    current = mq.copy()
    seed_cost = current_cost = cost_of(current)
    while current_cost > bound:
        best, best_gain = None, 0
        for ci in sorted({mc.assignment[p] for p in current.forward}):
            candidate, state = run_pass(current, ci, ld, mc, topo, mode)
            if state.prefix_gain > best_gain:
                best, best_gain = candidate, state.prefix_gain
                if current_cost - best_gain == bound:
                    break
        if best is None:
            break
        current, current_cost = best, current_cost - best_gain
    if current_cost < seed_cost and (priced := cost_of(current)) != current_cost:
        raise RuntimeError(f"refined cost {priced} is not the carried cost {current_cost}")
    return current


def initial_placement(
    mc: QubitControllerMap,
    ld: CidqList,
    topo: ControllerTopology,
    device: DeviceGraph,
    mode: str = "pair",
    seed: int = 0,
) -> LogicalPhysicalMap:
    """Full placement: greedy seeding plus refinement to a fixpoint."""
    if mc.m != device.m:
        raise ConfigError(f"assignment covers {mc.m} qubits, device has {device.m}")
    _check_fits(ld.n_qubits, mc.m)  # before the hypergraph, sized by the qubit count
    hyper = build_hypergraph(ld, ld.n_qubits)
    return stage2_iterate(stage1_greedy(mc, ld, hyper, seed), mc, ld, topo, mode)


def random_layout(n_qubits: int, m_physical: int, seed: int = 0) -> LogicalPhysicalMap:
    """Uniformly random complete layout (the baseline pipeline's stand-in for
    feedforward-aware placement)."""
    _check_fits(n_qubits, m_physical)
    rng = random.Random(seed)
    mq = LogicalPhysicalMap(n_qubits, m_physical)
    for q, p in enumerate(rng.sample(range(m_physical), n_qubits)):
        mq.assign(q, p)
    return mq
