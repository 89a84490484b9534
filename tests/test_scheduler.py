import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import (
    CircuitError,
    LogicalPhysicalMap,
    build_dag,
    contiguous_assignment,
    extract_cidq_sets,
    generate,
    heavy_hex_127_device,
    line_device,
    star_topology,
    total_cost_L,
)
from dynlayout.cidq import CidqList, CidqSet
from dynlayout.circuit import Circuit, Operation, depth
from dynlayout.control import grid_device
from dynlayout.pipeline import build_layout, run_pipeline
from dynlayout.placement import random_layout
from dynlayout.scheduler import (
    RoutedCircuit,
    accumulate_iccs,
    active_cidq_sets,
    depth_cost,
    extended_set,
    iccs_score,
    obtain_swaps,
    schedule,
    read_rows,
)
from helpers import explicit_mapping


def identity_mapping(n, m):
    mq = LogicalPhysicalMap(n, m)
    for q in range(n):
        mq.assign(q, q)
    return mq


def route_benchmark(fam, n, seed, device, k, tie_break="iccs", blocks=None):
    c = generate(fam, n, n_blocks=blocks, seed=seed)
    ld = extract_cidq_sets(c)
    topo = star_topology(k)
    mc = contiguous_assignment(device.m, k)
    mq0 = identity_mapping(c.n_qubits, device.m)
    routed = schedule(c, mq0, mc, topo, device, seed=seed, tie_break=tie_break)
    return c, routed, ld, mc, topo, device


class TestObtainSwaps:
    def test_edges_incident_to_front_qubits(self):
        # the qubits of a front cx(0, 3) on a 5-line
        dev = line_device(5)
        mq = identity_mapping(5, 5)
        swaps = obtain_swaps([0, 3], mq, dev)
        assert swaps == [(0, 1), (2, 3), (3, 4)]

    def test_deduplicates_shared_edge(self):
        # the qubits of a front cx(0, 1), cx(1, 2): qubits 0 and 1 both touch edge (0, 1)
        dev = line_device(3)
        mq = identity_mapping(3, 3)
        swaps = obtain_swaps([0, 1, 2], mq, dev)
        assert swaps == [(0, 1), (1, 2)]

    def test_follows_the_mapping(self):
        dev = line_device(4)
        mq = explicit_mapping([3, 0, 1, 2], 4)
        assert obtain_swaps([0], mq, dev) == [(2, 3)]

    def test_no_qubits_no_candidates(self):
        dev = line_device(3)
        mq = identity_mapping(3, 3)
        assert obtain_swaps([], mq, dev) == []


class TestDepthCost:
    def test_single_adjacent_gate_scores_one(self):
        c = Circuit(2, 0, (Operation("cx", (0, 1)),))
        dag = build_dag(c)
        mq = identity_mapping(2, 2)
        assert depth_cost([0], dag, line_device(2), mq) == Fraction(1)

    def test_symmetric_swaps_tie_exactly(self):
        # cx(q0,q2) on a 3-line: either neighbor swap leaves distance 1
        c = Circuit(3, 0, (Operation("cx", (0, 2)),))
        dag = build_dag(c)
        dev = line_device(3)
        scores = []
        for pa, pb in ((0, 1), (1, 2)):
            mq = identity_mapping(3, 3)
            mq.swap_physical(pa, pb)
            scores.append(depth_cost([0], dag, dev, mq))
        assert scores[0] == scores[1]

    def test_moving_away_scores_strictly_worse(self):
        for seed in range(20):
            rng = random.Random(seed)
            m = rng.randint(4, 9)
            dev = line_device(m)
            a, b = rng.sample(range(m), 2)
            c = Circuit(m, 0, (Operation("cx", (a, b)),))
            dag = build_dag(c)
            mq = identity_mapping(m, m)
            base = depth_cost([0], dag, dev, mq)
            pa, pb = sorted((a, b))
            if pa - 1 >= 0 and pb + 1 < m and pb - pa >= 1:
                mq.swap_physical(pa, pa - 1)
                mq.swap_physical(pb, pb + 1)
                assert depth_cost([0], dag, dev, mq) > base

    def test_lookahead_term_weighted_half(self):
        # F: cx(0,1) at distance 1; E: cx(0,2) at distance 2 -> 1 + 0.5*2
        c = Circuit(3, 0, (Operation("cx", (0, 1)), Operation("cx", (0, 2))))
        dag = build_dag(c)
        mq = identity_mapping(3, 3)
        assert depth_cost([0], dag, line_device(3), mq) == Fraction(1) + Fraction(1, 2) * 2

    def test_extended_set_caps_at_twenty(self):
        ops = [Operation("cx", (0, 1))] + [
            Operation("cx", (0, 1)) if i % 2 else Operation("cx", (1, 2)) for i in range(30)
        ]
        c = Circuit(3, 0, tuple(ops))
        dag = build_dag(c)
        assert len(extended_set([0], dag)) == 20


class TestActiveSets:
    def test_window_sees_conditional_after_measure(self):
        c = generate("dqft", 4)
        dag = build_dag(c)
        ld = extract_cidq_sets(c)
        # front = first op (measure q0 comes second; execute h first)
        # find the measure of q0 and use it as the front
        measure_idx = next(i for i, op in enumerate(c.ops) if op.is_measure)
        active = active_cidq_sets([measure_idx], dag, ld, read_rows(c))
        assert [d.id for d in active] == [0]

    def test_deduplicates_sets(self):
        ops = (
            Operation("measure", (0,), (), 0, None),
            Operation("x", (1,), (), None, frozenset({(0, 1)})),
            Operation("z", (1,), (), None, frozenset({(0, 1)})),
        )
        c = Circuit(2, 1, ops)
        c.validate()
        dag = build_dag(c)
        ld = extract_cidq_sets(c)
        active = active_cidq_sets([0], dag, ld, read_rows(c))
        assert len(active) == 1

    def test_static_window_empty(self):
        c = Circuit(2, 0, (Operation("cx", (0, 1)),))
        dag = build_dag(c)
        ld = extract_cidq_sets(c)
        assert active_cidq_sets([0], dag, ld, read_rows(c)) == []


class TestIccsScore:
    def test_prefers_keeping_set_together(self):
        # q0 measured, q1 conditioned; controllers split the 4-line in half
        ld = CidqList((CidqSet(0, frozenset({0}), frozenset({1})),), 2)
        mc = contiguous_assignment(4, 2)
        topo = star_topology(2)
        mq = explicit_mapping([0, 1], 4)
        together = iccs_score((0, 1), mq, list(ld), mc, topo, "pair")
        split = iccs_score((1, 2), mq, list(ld), mc, topo, "pair")
        assert (together, split) == (0, 1)

    def test_empty_active_means_zero(self):
        mq = explicit_mapping([0, 1], 4)
        mc = contiguous_assignment(4, 2)
        assert iccs_score((0, 1), mq, [], mc, star_topology(2), "pair") == 0


class TestSchedule:
    @pytest.mark.parametrize("fam,n,blocks", [("cc", 8, None), ("random", 8, 10), ("ipe", 6, None)])
    def test_adjacency_and_semantics(self, fam, n, blocks):
        dev = line_device(8)
        c, routed, *_ = route_benchmark(fam, n, seed=2, device=dev, k=2, blocks=blocks)
        perm = list(routed.initial_mapping.forward)
        replayed = []
        out_ops = iter(routed.circuit.ops)
        for entry in routed.log:
            op_out = next(out_ops)
            if entry[0] == "swap":
                pa, pb = entry[1], entry[2]
                assert op_out.name == "swap" and set(op_out.qubits) == {pa, pb}
                assert dev.is_edge(pa, pb)
                for q in range(len(perm)):
                    if perm[q] == pa:
                        perm[q] = pb
                    elif perm[q] == pb:
                        perm[q] = pa
            else:
                src = c.ops[entry[1]]
                assert op_out.name == src.name
                assert op_out.qubits == tuple(perm[q] for q in src.qubits)
                assert op_out.params == src.params
                assert op_out.clbit == src.clbit
                assert op_out.condition == src.condition
                if src.is_two_qubit:
                    assert dev.is_edge(*op_out.qubits)
                replayed.append(entry[1])
        assert sorted(replayed) == list(range(len(c.ops)))
        assert perm == list(routed.final_mapping.forward)

    def test_dependency_order_respected(self):
        dev = line_device(8)
        c, routed, *_ = route_benchmark("random", 8, seed=4, device=dev, k=2, blocks=12)
        dag = build_dag(c)
        seen = set()
        for entry in routed.log:
            if entry[0] == "op":
                node = entry[1]
                assert all(p in seen for p in dag.pred[node])
                seen.add(node)

    def test_deterministic(self):
        dev = line_device(8)
        _, a, *_ = route_benchmark("random", 8, seed=7, device=dev, k=2, blocks=10)
        _, b, *_ = route_benchmark("random", 8, seed=7, device=dev, k=2, blocks=10)
        assert a.log == b.log
        assert a.circuit == b.circuit

    def test_chosen_swap_always_in_argmin_set(self):
        dev = line_device(10)
        for fam, n, blocks in (("cc", 10, None), ("random", 10, 12)):
            _, routed, *_ = route_benchmark(fam, n, seed=3, device=dev, k=2, blocks=blocks)
            checked = 0
            for decision in routed.decisions:
                if not decision.forced:
                    assert decision.chosen in decision.depth_argmin
                    checked += 1
            assert checked == routed.swaps_inserted

    def test_type_one_routes_without_swaps(self):
        dev = line_device(6)
        c, routed, ld, mc, topo, _ = route_benchmark("dqft", 6, seed=0, device=dev, k=2)
        assert routed.swaps_inserted == 0
        static = total_cost_L(ld, routed.initial_mapping, mc, topo, "pair")
        assert accumulate_iccs(routed, mc, topo, "pair") == static

    def test_incomplete_layout_rejected(self):
        c = generate("dqft", 3)
        mq = LogicalPhysicalMap(3, 4)  # nothing assigned
        mc = contiguous_assignment(4, 2)
        from dynlayout import ConfigError

        with pytest.raises(ConfigError):
            schedule(c, mq, mc, star_topology(2), line_device(4))

    @pytest.mark.parametrize("m, slots", [(5, [0, 4, 2]), (4, [0, -2, 1])],
                             ids=["larger-device", "negative-index"])
    def test_layout_off_the_device_rejected(self, m, slots):
        # the routed circuit is not re-validated, so the layout is checked;
        # the map is written directly, since assign rejects an index off the map
        from dynlayout import ConfigError

        c = generate("dqft", 3)
        mq = LogicalPhysicalMap(3, m)
        for q, p in enumerate(slots):
            mq.forward[q] = p
            mq.inverse[p] = q
        with pytest.raises(ConfigError, match="device"):
            schedule(c, mq, contiguous_assignment(4, 2), star_topology(2), line_device(4))

    def test_unvalidated_bad_op_rejected(self):
        # built by hand, so neither the parser nor benchgen has checked it
        c = Circuit(2, 0, (Operation("u1", (0,), (float("nan"),)), Operation("cx", (0, 1))))
        with pytest.raises(CircuitError, match="finite real"):
            schedule(c, identity_mapping(2, 2), contiguous_assignment(2, 2),
                     star_topology(2), line_device(2))

    @pytest.mark.parametrize("eps", [Fraction(-1), -0.5, float("nan"), float("inf")])
    def test_bad_tie_epsilon_rejected(self, eps):
        # The tie is the exact minimum; there is no tie_epsilon left to range-check,
        # so any value is an unknown keyword rather than one silently ignored.
        c = generate("random", 4, n_blocks=3, seed=0)
        mq0 = identity_mapping(4, 4)
        with pytest.raises(TypeError, match="tie_epsilon"):
            schedule(c, mq0, contiguous_assignment(4, 2), star_topology(2), line_device(4),
                     tie_epsilon=eps)


def reference_depth_cost(front, dag, device, mq):
    """The depth cost written out from its definition, independently of the
    scaled weights the router and depth_cost share."""
    ops = dag.ops

    def mean_distance(nodes):
        total = sum(device.dist[mq.physical(ops[n].qubits[0])][mq.physical(ops[n].qubits[1])]
                    for n in nodes)
        return Fraction(total, len(nodes))

    f2 = [n for n in front if ops[n].is_two_qubit]
    if not f2:
        return Fraction(0)
    ext = extended_set(front, dag)
    return mean_distance(f2) + (Fraction(1, 2) * mean_distance(ext) if ext else 0)


PROPERTY_DEVICES = {
    "line4": line_device(4),
    "line6": line_device(6),
    "line7": line_device(7),
    "grid2x3": grid_device(2, 3),
    "grid3x3": grid_device(3, 3),
}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(PROPERTY_DEVICES)),
    st.integers(0, 10**6),
    st.integers(1, 10),
    st.sampled_from(["iccs", "random"]),
    st.sampled_from(["pair", "per_target"]),
)
def test_argmin_matches_brute_force_depth_cost(device_name, seed, blocks, tie_break, mode):
    """Replaying the log, every non-forced decision's depth_argmin is exactly
    the set of candidates whose depth_cost with the SWAP applied is the
    minimum; the pick is one of them, and the ICCS tie-break picks one whose
    iccs_score is the lowest of that set."""
    dev = PROPERTY_DEVICES[device_name]
    n = 2 + seed % (dev.m - 1)
    c = generate("random", n, n_blocks=blocks, seed=seed)
    dag = build_dag(c)
    mq = random_layout(n, dev.m, seed=seed)
    mc, topo = contiguous_assignment(dev.m, 3), star_topology(3)
    ld = extract_cidq_sets(c)
    rows = read_rows(c)
    routed = schedule(c, mq, mc, topo, dev, cost_mode=mode, seed=seed, tie_break=tie_break)
    indeg = [len(dag.pred[i]) for i in range(dag.n_nodes)]
    front = set(dag.front_layer())
    decisions = iter(routed.decisions)
    checked = 0
    for entry in routed.log:
        if entry[0] == "op":
            front.discard(entry[1])
            for succ in dag.succ[entry[1]]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    front.add(succ)
            continue
        decision = next(decisions)
        if not decision.forced:
            nodes = sorted(front)
            costs = {}
            qubits = {q for i in nodes if c.ops[i].is_two_qubit for q in c.ops[i].qubits}
            for cand in obtain_swaps(qubits, mq, dev):
                mq.swap_physical(*cand)
                costs[cand] = depth_cost(nodes, dag, dev, mq)
                assert costs[cand] == reference_depth_cost(nodes, dag, dev, mq)
                mq.swap_physical(*cand)
            best = min(costs.values())
            assert decision.depth_argmin == tuple(x for x in costs if costs[x] == best)
            assert costs[decision.chosen] == best
            if tie_break == "iccs" and len(decision.depth_argmin) > 1:
                active = active_cidq_sets(nodes, dag, ld, rows)
                comm = {}
                for cand in decision.depth_argmin:
                    mq.swap_physical(*cand)
                    comm[cand] = total_cost_L(active, mq, mc, topo, mode)
                    mq.swap_physical(*cand)
                    assert iccs_score(cand, mq, active, mc, topo, mode) == comm[cand]
                assert comm[decision.chosen] == min(comm.values())
            checked += 1
        mq.swap_physical(*entry[1:])
    assert checked == sum(not d.forced for d in routed.decisions)


def routing_digest(routed):
    """Digest of everything a routing run decides: the decision records, the
    execution log, the routed ops and the final mapping."""
    ops = tuple(
        (op.name, op.qubits, op.params, op.clbit,
         None if op.condition is None else tuple(sorted(op.condition)))
        for op in routed.circuit.ops
    )
    blob = repr((routed.decisions, routed.log, ops, tuple(routed.final_mapping.forward)))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


PIN_DEVICES = {"heavy_hex": heavy_hex_127_device, "line8": lambda: line_device(8),
               "grid3x3": lambda: grid_device(3, 3)}
# (device, k, family, n, blocks, mode, seed) -> digest; circuits use generator
# seed 0 and the layout comes from build_layout
PINNED_ROUTES = {
    ("heavy_hex", 4, "pe", 20, None, "class", 0): "9e5cde765c7f601e",
    ("heavy_hex", 4, "pe", 20, None, "class", 1): "775ae0690dc9b298",
    ("heavy_hex", 4, "pe", 20, None, "baseline", 0): "0135ec8563dfa64c",
    ("heavy_hex", 4, "pe", 20, None, "baseline", 1): "ce3ee18e2e8c578e",
    ("heavy_hex", 4, "cc", 12, None, "class", 0): "132592afbfb88cac",
    ("heavy_hex", 4, "cc", 12, None, "class", 1): "21327e5c251794c3",
    ("heavy_hex", 4, "cc", 12, None, "baseline", 0): "0d5f4fbdd49d2624",
    ("heavy_hex", 4, "cc", 12, None, "baseline", 1): "19fb654ac6a2a7cc",
    ("heavy_hex", 4, "random", 20, 20, "class", 0): "e4bdcecf6143e8fd",
    ("heavy_hex", 4, "random", 20, 20, "class", 1): "057190fd14445e8f",
    ("heavy_hex", 4, "random", 20, 20, "baseline", 0): "347c7d8398bd3f15",
    ("heavy_hex", 4, "random", 20, 20, "baseline", 1): "a9dde73921669cac",
    ("heavy_hex", 4, "random", 48, 6, "class", 0): "35b828912eb11fd0",
    ("heavy_hex", 4, "random", 48, 6, "class", 1): "5158ba42f07a2c1d",
    ("heavy_hex", 4, "random", 48, 6, "baseline", 0): "195087e1908b00d0",
    ("heavy_hex", 4, "random", 48, 6, "baseline", 1): "6488c6d45f7cc772",
    ("line8", 2, "random", 8, 10, "class", 0): "299efedb6b061d1d",
    ("line8", 2, "random", 8, 10, "baseline", 0): "45f4242b9422c9d2",
    ("line8", 2, "random", 6, 12, "class", 3): "5556cf0154ab4e46",
    ("line8", 2, "random", 6, 12, "baseline", 3): "f8782b99104ff501",
    ("grid3x3", 2, "random", 8, 10, "class", 0): "44192e2fbad9936a",
    ("grid3x3", 2, "random", 8, 10, "baseline", 0): "0fd4e1338461cdd1",
    ("grid3x3", 2, "random", 6, 12, "class", 3): "0ac4c7f845a9535d",
    ("grid3x3", 2, "random", 6, 12, "baseline", 3): "6dc05d85d38398c7",
}


@pytest.fixture(scope="module")
def pinned_routes():
    """PINNED_ROUTES cell -> its RoutedCircuit."""
    devices = {name: build() for name, build in PIN_DEVICES.items()}
    routes = {}
    for cell in PINNED_ROUTES:
        name, k, fam, n, blocks, mode, seed = cell
        dev = devices[name]
        c = generate(fam, n, n_blocks=blocks, seed=0)
        mc, topo = contiguous_assignment(dev.m, k), star_topology(k)
        mq = build_layout(c, mc, topo, dev, mode, seed)
        routes[cell] = schedule(c, mq, mc, topo, dev, seed=seed,
                                tie_break="iccs" if mode == "class" else "random")
    return routes


def test_schedule_outputs_pinned(pinned_routes):
    """Routing decisions, logs, routed circuits and final mappings stay
    exactly as pinned: a router speed-up must not change what it routes."""
    got = {cell: routing_digest(routed) for cell, routed in pinned_routes.items()}
    assert got == PINNED_ROUTES


def test_pinned_routes_are_valid_circuits(pinned_routes):
    for routed in pinned_routes.values():
        routed.circuit.validate()


def assert_emitted_numbers(routed, mc, topo, mode):
    """The op count, depth and ICCS the router emitted are those its routed
    circuit has by their reference definitions."""
    assert routed.operations == routed.circuit.count_ops()
    assert routed.depth == depth(routed.circuit)
    assert routed.iccs == accumulate_iccs(routed, mc, topo, mode)


def test_pinned_routes_emit_reference_numbers(pinned_routes):
    for (_, k, *_), routed in pinned_routes.items():
        m = routed.initial_mapping.m
        assert_emitted_numbers(routed, contiguous_assignment(m, k), star_topology(k), "pair")


def test_routed_circuit_built_on_first_read():
    """run_pipeline reports from what the router emitted, so the routed
    circuit is first built when read; it is then the pinned circuit, kept."""
    cell = ("line8", 2, "random", 8, 10, "class", 0)
    name, k, fam, n, blocks, mode, seed = cell
    dev = PIN_DEVICES[name]()
    c = generate(fam, n, n_blocks=blocks, seed=0)
    mc, topo = contiguous_assignment(dev.m, k), star_topology(k)
    routed, report = run_pipeline(c, mc, topo, dev, mode=mode, seed=seed)
    assert "circuit" not in vars(routed)
    assert routing_digest(routed) == PINNED_ROUTES[cell]
    assert vars(routed)["circuit"] is routed.circuit
    assert (report.operations, report.depth, report.iccs) == (
        routed.circuit.count_ops(), depth(routed.circuit), accumulate_iccs(routed, mc, topo))


@st.composite
def dynamic_circuits(draw, max_qubits):
    """Circuits of gates, measures, resets and barriers, with conditions on
    one or more written clbits and clbits measured again."""
    n = draw(st.integers(2, max_qubits))
    n_clbits = draw(st.integers(1, 3))
    qubit = st.integers(0, n - 1)
    written: list[int] = []
    ops = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["1q", "2q", "2q", "measure", "reset", "barrier"]))
        if kind == "measure":
            bit = draw(st.integers(0, n_clbits - 1))
            ops.append(Operation("measure", (draw(qubit),), (), bit))
            if bit not in written:
                written.append(bit)
            continue
        if kind == "barrier":
            ops.append(Operation("barrier", tuple(draw(st.sets(qubit, min_size=1)))))
            continue
        condition = None
        if written and draw(st.booleans()):
            bits = draw(st.lists(st.sampled_from(written), min_size=1, unique=True))
            condition = frozenset((bit, draw(st.integers(0, 1))) for bit in bits)
        if kind == "1q":
            name = draw(st.sampled_from(["h", "x", "z", "u1"]))
            params = (0.5,) if name == "u1" else ()
            ops.append(Operation(name, (draw(qubit),), params, None, condition))
        elif kind == "reset":
            ops.append(Operation("reset", (draw(qubit),), (), None, condition))
        else:
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            ops.append(Operation(draw(st.sampled_from(["cx", "cz", "swap"])), (a, b), (), None, condition))
    return Circuit(n, n_clbits, tuple(ops))


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(PROPERTY_DEVICES)),
    st.data(),
    st.integers(0, 10**6),
    st.sampled_from(["iccs", "random"]),
    st.sampled_from(["pair", "per_target"]),
)
def test_emitted_numbers_match_reference(device_name, data, seed, tie_break, mode):
    dev = PROPERTY_DEVICES[device_name]
    c = data.draw(dynamic_circuits(min(6, dev.m)))
    k = data.draw(st.integers(1, 3))
    mc, topo = contiguous_assignment(dev.m, k), star_topology(k)
    mq = random_layout(c.n_qubits, dev.m, seed=seed)
    routed = schedule(c, mq, mc, topo, dev, cost_mode=mode, seed=seed, tie_break=tie_break)
    assert_emitted_numbers(routed, mc, topo, mode)


class TestAccumulate:
    def test_swap_between_measure_and_conditional_charges_new_controller(self):
        # 3-op scenario: measure q0, swap q1 across the boundary, conditional x(q1)
        source = Circuit(
            2,
            1,
            (
                Operation("measure", (0,), (), 0, None),
                Operation("x", (1,), (), None, frozenset({(0, 1)})),
            ),
        )
        source.validate()
        ld = extract_cidq_sets(source)
        mc = contiguous_assignment(4, 2)
        topo = star_topology(2)
        init = explicit_mapping([0, 1], 4)  # both on controller 0
        routed = RoutedCircuit(
            source=source,
            initial_mapping=init,
            final_mapping=explicit_mapping([0, 2], 4),
            log=(("op", 0), ("swap", 1, 2), ("op", 1)),
            decisions=(),
            operations=3,
            depth=2,
            iccs=1,
        )
        assert routed.circuit.ops == (
            Operation("measure", (0,), (), 0, None),
            Operation("swap", (1, 2)),
            Operation("x", (2,), (), None, frozenset({(0, 1)})),
        )
        assert_emitted_numbers(routed, mc, topo, "pair")
        # statically zero, but the delivery happened across the boundary
        assert total_cost_L(ld, init, mc, topo, "pair") == 0
        assert accumulate_iccs(routed, mc, topo, "pair") == 1
        assert accumulate_iccs(routed, mc, topo, "per_target") == 1

    def test_source_controller_fixed_at_measure_time(self):
        # measure, then the *measured* qubit crosses, then the conditional:
        # source stays where the measure executed
        source = Circuit(
            2,
            1,
            (
                Operation("measure", (0,), (), 0, None),
                Operation("x", (1,), (), None, frozenset({(0, 1)})),
            ),
        )
        source.validate()
        ld = extract_cidq_sets(source)
        mc = contiguous_assignment(4, 2)
        topo = star_topology(2)
        init = explicit_mapping([0, 3], 4)  # q0 ctl0, q1 ctl1: one crossing
        routed = RoutedCircuit(
            source=source,
            initial_mapping=init,
            final_mapping=explicit_mapping([2, 3], 4),
            log=(("op", 0), ("swap", 0, 2), ("op", 1)),
            decisions=(),
            operations=3,
            depth=2,
            iccs=1,
        )
        assert routed.circuit.ops == (
            Operation("measure", (0,), (), 0, None),
            Operation("swap", (0, 2)),
            Operation("x", (3,), (), None, frozenset({(0, 1)})),
        )
        assert_emitted_numbers(routed, mc, topo, "pair")
        # after the swap q0 sits with q1 on controller 1, but the outcome was
        # produced on controller 0 and still has to travel
        assert accumulate_iccs(routed, mc, topo, "pair") == 1

    def test_second_read_on_another_controller_adds_delivery(self):
        # q1 reads the outcome of q0 twice, once under each foreign controller
        source = Circuit(
            2,
            1,
            (
                Operation("measure", (0,), (), 0, None),
                Operation("x", (1,), (), None, frozenset({(0, 1)})),
                Operation("x", (1,), (), None, frozenset({(0, 1)})),
            ),
        )
        source.validate()
        ld = extract_cidq_sets(source)
        mc = contiguous_assignment(6, 3)  # controllers {0,1}, {2,3}, {4,5}
        topo = star_topology(3)
        init = explicit_mapping([0, 2], 6)
        routed = RoutedCircuit(
            source=source,
            initial_mapping=init,
            final_mapping=explicit_mapping([0, 4], 6),
            log=(("op", 0), ("op", 1), ("swap", 2, 4), ("op", 2)),
            decisions=(),
            operations=4,
            depth=4,
            iccs=2,
        )
        assert routed.circuit.ops == (
            Operation("measure", (0,), (), 0, None),
            Operation("x", (2,), (), None, frozenset({(0, 1)})),
            Operation("swap", (2, 4)),
            Operation("x", (4,), (), None, frozenset({(0, 1)})),
        )
        assert_emitted_numbers(routed, mc, topo, "pair")
        assert total_cost_L(ld, init, mc, topo, "per_target") == 1
        assert accumulate_iccs(routed, mc, topo, "pair") == 2
        assert accumulate_iccs(routed, mc, topo, "per_target") == 2

    def test_k1_always_zero(self):
        dev = line_device(6)
        c, routed, ld, _, _, _ = route_benchmark("random", 6, seed=1, device=dev, k=1, blocks=8)
        mc = contiguous_assignment(6, 1)
        assert accumulate_iccs(routed, mc, star_topology(1), "pair") == 0


@pytest.mark.parametrize("mode", ["class", "baseline"])
def test_routing_memory_bounded_by_clbits_in_use(mode):
    # a register of 10**7 classical bits, of which the circuit uses one: the
    # router's per-clbit depth tables hold only the bits in use
    circuit = Circuit(3, 10**7, (
        Operation("h", (0,)),
        Operation("measure", (0,), clbit=0),
        Operation("x", (2,), condition=frozenset({(0, 1)})),
        Operation("measure", (2,), clbit=0),
    ))
    device = line_device(4)
    mc, topo = contiguous_assignment(4, 2), star_topology(2)
    tracemalloc.start()
    try:
        routed, report = run_pipeline(circuit, mc, topo, device, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.depth == depth(routed.circuit) == 4
    assert peak < 1_000_000, peak  # a list of 10**7 items alone takes 80 MB
