import random

import pytest

from dynlayout import (
    InstanceTooLarge,
    brute_force_placement,
    contiguous_assignment,
    extract_cidq_sets,
    generate,
    star_topology,
    total_cost_L,
)
from dynlayout.cidq import CidqList, CidqSet
from dynlayout.control import QubitControllerMap
from helpers import random_cidq_list, uniform_setup


class TestGolden:
    def test_fig4_optimum_two(self):
        ld = extract_cidq_sets(generate("dqft", 4))
        topo, mc = uniform_setup(4, 2, 2)
        best, mq = brute_force_placement(ld, mc, topo, "pair")
        assert best == 2
        assert total_cost_L(ld, mq, mc, topo, "pair") == 2

    def test_single_controller_zero(self):
        ld = extract_cidq_sets(generate("dqft", 5))
        topo = star_topology(1)
        mc = contiguous_assignment(5, 1)
        best, _ = brute_force_placement(ld, mc, topo, "pair")
        assert best == 0


def test_result_is_reachable_minimum():
    # every enumerable assignment must cost at least the reported optimum
    rng = random.Random(0)
    for _ in range(10):
        n = rng.randint(2, 5)
        ld = random_cidq_list(rng, n, rng.randint(1, 4))
        topo, mc = uniform_setup(n, 2, n)
        best, mq = brute_force_placement(ld, mc, topo, "pair")
        assert total_cost_L(ld, mq, mc, topo, "pair") == best
        import itertools

        for combo in itertools.product(range(2), repeat=n):
            from helpers import explicit_mapping

            slots = {0: 0, 1: 0}
            assignment = []
            ok = True
            for q, c in enumerate(combo):
                p = c * n + slots[c]
                slots[c] += 1
                if slots[c] > n:
                    ok = False
                    break
                assignment.append(p)
            if ok:
                cost = total_cost_L(ld, explicit_mapping(assignment, 2 * n), mc, topo, "pair")
                assert cost >= best


def test_invariant_under_qubit_relabeling():
    rng = random.Random(7)
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        ld = random_cidq_list(rng, n, 4)
        topo, mc = uniform_setup(n, 2, n)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = CidqList(
            tuple(
                CidqSet(
                    d.id,
                    frozenset(perm[q] for q in d.measured),
                    frozenset(perm[q] for q in d.targets),
                )
                for d in ld
            ),
            n,
        )
        a, _ = brute_force_placement(ld, mc, topo, "pair")
        b, _ = brute_force_placement(relabeled, mc, topo, "pair")
        assert a == b


def test_symmetry_reduction_disabled_for_unequal_capacity():
    # 3 qubits, controllers of capacity 2 and 1: pinning q0 to controller 0
    # would be unsound, so the full space must be searched
    ld = CidqList(
        (
            CidqSet(0, frozenset({0}), frozenset({1})),
            CidqSet(1, frozenset({1}), frozenset({2})),
        ),
        3,
    )
    mc = QubitControllerMap(2, (0, 0, 1))
    topo = star_topology(2)
    best, mq = brute_force_placement(ld, mc, topo, "pair")
    assert best == 1


def test_oversized_instance_rejected():
    rng = random.Random(1)
    ld = random_cidq_list(rng, 30, 5)
    topo, mc = uniform_setup(30, 3, 30)
    with pytest.raises(InstanceTooLarge):
        brute_force_placement(ld, mc, topo, "pair")
