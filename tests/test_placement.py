import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import (
    CidqList,
    CidqSet,
    ConfigError,
    InvalidMovement,
    Movement,
    apply_movement,
    build_hypergraph,
    contiguous_assignment,
    controller_of,
    extract_cidq_sets,
    generate,
    heavy_hex_127_device,
    initial_placement,
    line_device,
    movement_gain,
    random_layout,
    stage1_greedy,
    stage2_iterate,
    star_topology,
    total_cost_L,
)
from dynlayout import placement
from dynlayout.placement import run_pass
from helpers import complete_random_mapping, random_cidq_list, uniform_setup


def fig5_instance():
    """Two controllers, one qubit whose relocation gains exactly 1+1-1 = 1.

    q0 conditions targets in both controllers; q0 sits with controller 0.
    Moving q0 to controller 1 heals two crossings and opens one.
    """
    sets = (
        CidqSet(0, frozenset({0}), frozenset({1})),  # crosses before, heals after... see gains
        CidqSet(1, frozenset({0}), frozenset({2})),
        CidqSet(2, frozenset({3}), frozenset({0})),
    )
    ld = CidqList(sets, 4)
    topo, mc = uniform_setup(4, 2, 3)
    # layout: q0,q3 on controller 0; q1,q2 on controller 1
    from helpers import explicit_mapping

    mq = explicit_mapping([0, 3, 4, 1], 6)
    return ld, topo, mc, mq


class TestMovementGain:
    def test_three_term_gain(self):
        ld, topo, mc, mq = fig5_instance()
        # before: D0 crosses (1), D1 crosses (1), D2 local (0) -> L = 2
        assert total_cost_L(ld, mq, mc, topo, "pair") == 2
        move = Movement("relocate", 0, 0, 1)
        # after: D0 heals (+1), D1 heals (+1), D2 now crosses (-1)
        assert movement_gain(move, mq, ld, mc, topo, "pair") == 1

    def test_gain_equals_global_delta(self):
        ld, topo, mc, mq = fig5_instance()
        move = Movement("relocate", 0, 0, 1)
        before = total_cost_L(ld, mq, mc, topo, "pair")
        after_map = apply_movement(mq, move, mc)
        after = total_cost_L(ld, after_map, mc, topo, "pair")
        assert movement_gain(move, mq, ld, mc, topo, "pair") == before - after


class TestApplyMovement:
    def test_relocate_lands_on_lowest_free_slot(self):
        ld, topo, mc, mq = fig5_instance()
        out = apply_movement(mq, Movement("relocate", 0, 0, 1), mc)
        assert out.physical(0) == 5  # controller 1 owns 3,4,5; 3 and 4 taken
        assert mq.physical(0) == 0  # input untouched

    def test_exchange_swaps_homes(self):
        ld, topo, mc, mq = fig5_instance()
        out = apply_movement(mq, Movement("exchange", 0, 0, 1, partner=2), mc)
        assert out.physical(0) == mq.physical(2)
        assert out.physical(2) == mq.physical(0)

    def test_wrong_source_controller_rejected(self):
        ld, topo, mc, mq = fig5_instance()
        with pytest.raises(InvalidMovement):
            apply_movement(mq, Movement("relocate", 2, 0, 1), mc)

    def test_full_controller_rejected(self):
        ld = CidqList((CidqSet(0, frozenset({0}), frozenset({1})),), 4)
        topo, mc = uniform_setup(4, 2, 2)
        from helpers import explicit_mapping

        mq = explicit_mapping([0, 1, 2, 3], 4)
        with pytest.raises(InvalidMovement):
            apply_movement(mq, Movement("relocate", 0, 0, 1), mc)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_movement_gain_matches_global_recomputation(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    k = rng.randint(2, 3)
    cap = rng.randint((n + k - 1) // k, n)
    ld = random_cidq_list(rng, n, rng.randint(1, 6))
    topo, mc = uniform_setup(n, k, cap)
    mq = complete_random_mapping(rng, n, mc)
    mode = rng.choice(("pair", "per_target"))
    q = rng.randrange(n)
    cq = controller_of(mq, mc, q)
    others = [c for c in range(k) if c != cq]
    dst = rng.choice(others)
    free = [p for p in mc.qubits_of(dst) if mq.logical_at(p) < 0]
    partners = [x for x in range(n) if controller_of(mq, mc, x) == dst]
    if free and (not partners or rng.random() < 0.5):
        move = Movement("relocate", q, cq, dst)
    elif partners:
        move = Movement("exchange", q, cq, dst, partner=rng.choice(partners))
    else:
        return
    before = total_cost_L(ld, mq, mc, topo, mode)
    after = total_cost_L(ld, apply_movement(mq, move, mc), mc, topo, mode)
    assert movement_gain(move, mq, ld, mc, topo, mode) == before - after


class TestQubitMovingPass:
    def test_applies_best_movement_first(self):
        ld, topo, mc, mq = fig5_instance()
        out, state = run_pass(mq, 0, (1,), ld, mc, topo, "pair")
        assert state.applied, "pool should not be empty"
        assert state.gains[0] == max(state.gains)
        assert total_cost_L(ld, out, mc, topo, "pair") <= total_cost_L(ld, mq, mc, topo, "pair")

    def test_no_positive_prefix_keeps_input(self):
        # single set split across controllers but every move is neutral or bad
        ld = CidqList((CidqSet(0, frozenset({0}), frozenset({1})),), 2)
        topo, mc = uniform_setup(2, 2, 2)
        from helpers import explicit_mapping

        mq = explicit_mapping([0, 1], 4)  # both on controller 0: L = 0 already
        out, state = run_pass(mq, 0, (1,), ld, mc, topo, "pair")
        assert out == mq
        assert state.prefix_gain == 0

    def test_each_qubit_moved_at_most_once(self):
        rng = random.Random(11)
        ld = random_cidq_list(rng, 8, 6)
        topo, mc = uniform_setup(8, 2, 5)
        mq = complete_random_mapping(rng, 8, mc)
        _, state = run_pass(mq, 0, (1,), ld, mc, topo, "pair")
        seen = []
        for move in state.applied:
            seen.extend(move.moved_qubits())
        assert len(seen) == len(set(seen))

    def test_incremental_costs_match_recomputation(self):
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.randint(3, 9)
            k = rng.randint(2, 3)
            ld = random_cidq_list(rng, n, rng.randint(1, 7))
            topo, mc = uniform_setup(n, k, rng.randint((n + k - 1) // k, n))
            mq = complete_random_mapping(rng, n, mc)
            mode = rng.choice(("pair", "per_target"))
            # validate=True asserts engine scores against full recomputation
            out, _ = run_pass(mq, rng.randrange(k), range(k), ld, mc, topo, mode, validate=True)
            assert total_cost_L(ld, out, mc, topo, mode) <= total_cost_L(ld, mq, mc, topo, mode)

    def test_pass_returns_copy(self):
        ld, topo, mc, mq = fig5_instance()
        out, _ = run_pass(mq, 0, (1,), ld, mc, topo, "pair")
        assert out is not mq


class TestStage1:
    def test_dqft4_visits_by_degree_and_clusters(self):
        ld = extract_cidq_sets(generate("dqft", 4))
        topo, mc = uniform_setup(4, 2, 2)
        hyper = build_hypergraph(ld, 4)
        mq = stage1_greedy(mc, ld, hyper, seed=0)
        # capacity 2 forces a 2|2 split; greedy keeps q2,q3 together
        assert controller_of(mq, mc, 2) == controller_of(mq, mc, 3)
        assert total_cost_L(ld, mq, mc, topo, "pair") in (2, 3)

    def test_hub_and_spokes_single_controller(self):
        sets = tuple(
            CidqSet(i, frozenset({0}), frozenset({i + 1})) for i in range(5)
        )
        ld = CidqList(sets, 6)
        topo, mc = uniform_setup(6, 2, 6)
        hyper = build_hypergraph(ld, 6)
        mq = stage1_greedy(mc, ld, hyper, seed=3)
        assert total_cost_L(ld, mq, mc, topo, "pair") == 0

    def test_seed_determinism(self):
        rng = random.Random(5)
        ld = random_cidq_list(rng, 8, 5)
        topo, mc = uniform_setup(8, 3, 3)
        hyper = build_hypergraph(ld, 8)
        assert stage1_greedy(mc, ld, hyper, seed=9) == stage1_greedy(mc, ld, hyper, seed=9)

    def test_infeasible_capacity_rejected(self):
        ld = CidqList((CidqSet(0, frozenset({0}), frozenset({1})),), 5)
        topo, mc = uniform_setup(5, 2, 2)  # 4 slots for 5 qubits
        hyper = build_hypergraph(ld, 5)
        with pytest.raises(ConfigError):
            stage1_greedy(mc, ld, hyper, seed=0)

    def test_absent_qubits_fill_compactly(self):
        # one feedforward pair plus four untouched qubits: everything should
        # land on a single controller when it fits
        ld = CidqList((CidqSet(0, frozenset({0}), frozenset({1})),), 6)
        topo, mc = uniform_setup(6, 3, 6)
        hyper = build_hypergraph(ld, 6)
        mq = stage1_greedy(mc, ld, hyper, seed=1)
        homes = {controller_of(mq, mc, q) for q in range(6)}
        assert len(homes) == 1


class TestStage2:
    def test_never_worse_than_stage1(self):
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(3, 9)
            k = rng.randint(2, 4)
            ld = random_cidq_list(rng, n, rng.randint(1, 7))
            topo, mc = uniform_setup(n, k, rng.randint((n + k - 1) // k, n))
            hyper = build_hypergraph(ld, n)
            seeded = stage1_greedy(mc, ld, hyper, seed=seed)
            refined = stage2_iterate(seeded, mc, ld, topo, "pair")
            assert total_cost_L(ld, refined, mc, topo, "pair") <= total_cost_L(
                ld, seeded, mc, topo, "pair"
            )

    def test_single_controller_noop(self):
        rng = random.Random(2)
        ld = random_cidq_list(rng, 5, 4)
        topo = star_topology(1)
        mc = contiguous_assignment(5, 1)
        mq = complete_random_mapping(rng, 5, mc)
        assert stage2_iterate(mq, mc, ld, topo, "pair") == mq


class TestInitialPlacement:
    def test_fig4_reaches_optimum(self):
        ld = extract_cidq_sets(generate("dqft", 4))
        topo, mc = uniform_setup(4, 2, 2)
        device = line_device(4)
        mq = initial_placement(mc, ld, topo, device, mode="pair", seed=0)
        assert total_cost_L(ld, mq, mc, topo, "pair") == 2

    def test_dqft20_heavy_hex_zero(self):
        ld = extract_cidq_sets(generate("dqft", 20))
        device = heavy_hex_127_device()
        topo = star_topology(4)
        mc = contiguous_assignment(127, 4)
        mq = initial_placement(mc, ld, topo, device, mode="pair", seed=0)
        assert total_cost_L(ld, mq, mc, topo, "pair") == 0

    def test_refinement_loss_raises(self, monkeypatch):
        ld = CidqList((CidqSet(0, frozenset({0}), frozenset({1})),), 2)
        topo, mc = uniform_setup(2, 2, 2)
        from helpers import explicit_mapping

        worse = explicit_mapping([0, 2], 4)  # splits the set: cost 1, the seed costs 0
        monkeypatch.setattr(placement, "stage2_iterate", lambda *args, **kwargs: worse)
        with pytest.raises(RuntimeError, match="refinement lost to its seed"):
            initial_placement(mc, ld, topo, line_device(4), mode="pair", seed=0)

    def test_device_size_mismatch_rejected(self):
        ld = extract_cidq_sets(generate("dqft", 4))
        topo, mc = uniform_setup(4, 2, 2)
        with pytest.raises(ConfigError):
            initial_placement(mc, ld, topo, line_device(9), mode="pair", seed=0)


class TestRandomLayout:
    def test_complete_and_seeded(self):
        a = random_layout(5, 9, seed=4)
        b = random_layout(5, 9, seed=4)
        c = random_layout(5, 9, seed=5)
        assert a.is_complete()
        assert a == b
        assert a != c

    def test_spans_device(self):
        seen = set()
        for seed in range(40):
            mq = random_layout(3, 12, seed=seed)
            seen.update(mq.physical(q) for q in range(3))
        assert seen == set(range(12))
