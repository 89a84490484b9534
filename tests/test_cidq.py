import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import (
    CircuitError,
    build_hypergraph,
    contiguous_assignment,
    extract_cidq_sets,
    generate,
    line_device,
    matrix_topology,
    run_pipeline,
    star_topology,
    total_cost_L,
)
from dynlayout.cidq import CidqList, CidqSet, controllers, set_costs
from dynlayout.circuit import Circuit, Operation
from helpers import explicit_mapping, random_cidq_list, uniform_setup


def dqft4_sets():
    return extract_cidq_sets(generate("dqft", 4))


class TestExtraction:
    @pytest.mark.parametrize("entry", ["extract_cidq_sets", "run_pipeline"])
    def test_unwritten_condition_bit_is_a_circuit_error(self, entry):
        # hand-built, so never validated: no measure writes the bit x reads
        circuit = Circuit(2, 1, (Operation("x", (1,), condition=frozenset({(0, 1)})),))
        with pytest.raises(CircuitError, match="before any measure writes it"):
            if entry == "extract_cidq_sets":
                extract_cidq_sets(circuit)
            else:
                run_pipeline(circuit, contiguous_assignment(2, 1), star_topology(1),
                             line_device(2))

    def test_dqft4_nested_sets(self):
        ld = dqft4_sets()
        assert len(ld) == 3
        assert [(sorted(d.measured), sorted(d.targets)) for d in ld] == [
            ([0], [1, 2, 3]),
            ([1], [2, 3]),
            ([2], [3]),
        ]

    def test_dqft4_degrees(self):
        hyper = build_hypergraph(dqft4_sets(), 4)
        assert [hyper.degree(q) for q in range(4)] == [1, 2, 3, 3]

    def test_static_circuit_empty(self):
        ld = extract_cidq_sets(generate("dqft", 1))
        assert len(ld) == 0

    def test_multi_bit_condition_joins_both_sets(self):
        from dynlayout.circuit import Circuit, Operation

        ops = (
            Operation("measure", (0,), (), 0, None),
            Operation("measure", (1,), (), 1, None),
            Operation("x", (2,), (), None, frozenset({(0, 1), (1, 0)})),
        )
        c = Circuit(3, 2, ops)
        c.validate()
        ld = extract_cidq_sets(c)
        assert len(ld) == 2
        assert all(2 in d.targets for d in ld)

    def test_clbit_rebind_splits_sets(self):
        from dynlayout.circuit import Circuit, Operation

        # c0 written twice; each conditional binds to the latest writer
        ops = (
            Operation("measure", (0,), (), 0, None),
            Operation("x", (2,), (), None, frozenset({(0, 1)})),
            Operation("measure", (1,), (), 0, None),
            Operation("z", (2,), (), None, frozenset({(0, 1)})),
        )
        c = Circuit(3, 1, ops)
        c.validate()
        ld = extract_cidq_sets(c)
        assert [(sorted(d.measured), sorted(d.targets)) for d in ld] == [
            ([0], [2]),
            ([1], [2]),
        ]


class TestFig4Costs:
    """dQFT-4, k=2, capacity 2, uniform hop 1, pair mode: the three balanced
    partitions cost 2, 3, 3."""

    def setup_method(self):
        self.ld = dqft4_sets()
        self.topo, self.mc = uniform_setup(4, 2, 2)

    def cost(self, slots):
        return total_cost_L(self.ld, explicit_mapping(slots, 4), self.mc, self.topo, "pair")

    def test_partition_costs(self):
        assert self.cost([0, 1, 2, 3]) == 2  # {q0,q1} | {q2,q3}
        assert self.cost([0, 2, 1, 3]) == 3  # {q0,q2} | {q1,q3}
        assert self.cost([0, 2, 3, 1]) == 3  # {q0,q3} | {q1,q2}

    def test_per_set_breakdown_best_partition(self):
        mq = explicit_mapping([0, 1, 2, 3], 4)
        costs = set_costs(self.ld, controllers(mq, self.mc), self.topo, "pair").tolist()
        assert costs == [1, 1, 0]


class TestCostModes:
    def test_single_controller_zero(self):
        ld = dqft4_sets()
        topo = star_topology(1)
        mc = contiguous_assignment(4, 1)
        mq = explicit_mapping([0, 1, 2, 3], 4)
        for mode in ("pair", "per_target"):
            assert total_cost_L(ld, mq, mc, topo, mode) == 0

    def test_pair_counts_controller_pairs_once(self):
        # one source, two targets in the same foreign controller
        ld = CidqList((CidqSet(0, frozenset({0}), frozenset({1, 2})),), 3)
        topo, mc = uniform_setup(3, 2, 2)
        mq = explicit_mapping([0, 2, 3], 4)
        assert set_costs(ld, controllers(mq, mc), topo, "pair").tolist() == [1]
        assert set_costs(ld, controllers(mq, mc), topo, "per_target").tolist() == [2]

    def test_hop_weights_scale_cost(self):
        ld = CidqList((CidqSet(0, frozenset({0}), frozenset({1})),), 2)
        topo = matrix_topology([[0, 3], [3, 0]])
        mc = contiguous_assignment(2, 2)
        mq = explicit_mapping([0, 1], 2)
        assert total_cost_L(ld, mq, mc, topo, "pair") == 3

    def test_unknown_mode_rejected(self):
        ld = dqft4_sets()
        topo, mc = uniform_setup(4, 2, 2)
        mq = explicit_mapping([0, 1, 2, 3], 4)
        with pytest.raises(ValueError):
            total_cost_L(ld, mq, mc, topo, "bogus")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_per_target_dominates_pair(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    ld = random_cidq_list(rng, n, rng.randint(1, 6))
    k = rng.randint(1, 3)
    topo = star_topology(k)
    mc = contiguous_assignment(max(n, k), k)
    mq = explicit_mapping(rng.sample(range(mc.m), n), mc.m)
    assert total_cost_L(ld, mq, mc, topo, "per_target") >= total_cost_L(
        ld, mq, mc, topo, "pair"
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_cost_invariant_under_controller_relabeling(seed):
    rng = random.Random(seed)
    n, k, cap = 6, 3, 3
    ld = random_cidq_list(rng, n, 5)
    topo, mc = uniform_setup(n, k, cap)
    mq = explicit_mapping(rng.sample(range(k * cap), n), k * cap)
    perm = list(range(k))
    rng.shuffle(perm)
    from dynlayout.control import QubitControllerMap

    mc2 = QubitControllerMap(k, tuple(perm[c] for c in mc.assignment))
    for mode in ("pair", "per_target"):
        assert total_cost_L(ld, mq, mc, topo, mode) == total_cost_L(ld, mq, mc2, topo, mode)
