import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import (
    ConfigError,
    InvalidMovement,
    Movement,
    apply_movement,
    brute_force_placement,
    build_hypergraph,
    contiguous_assignment,
    controller_of,
    extract_cidq_sets,
    generate,
    heavy_hex_127_device,
    initial_placement,
    line_device,
    matrix_topology,
    movement_gain,
    stage1_greedy,
    stage2_iterate,
    star_topology,
    total_cost_L,
)
from dynlayout import placement
from dynlayout.cidq import CidqList, CidqSet, cost_lower_bound
from dynlayout.placement import random_layout, run_pass
from helpers import (
    complete_random_mapping,
    random_cidq_list,
    random_metric_hops,
    reference_stage1,
    uniform_setup,
)


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

    def test_relocation_onto_own_controller_rejected(self):
        # a free slot on its own controller is no relocation: qubit 0 sits on
        # physical 1 of controller 0, whose physical 0 is free
        topo, mc = uniform_setup(2, 2, 2)
        from helpers import explicit_mapping

        mq = explicit_mapping([1], 4)
        with pytest.raises(InvalidMovement, match="own controller"):
            apply_movement(mq, Movement("relocate", 0, 0, 0), mc)
        assert apply_movement(mq, Movement("relocate", 0, 0, 1), mc).physical(0) == 2

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



@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_pass_layout_is_its_prefix_replayed(seed):
    # the pass tracks controllers only and realizes its kept prefix once; the
    # layout must be the one apply_movement gives, move by move, from its input
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    k = rng.randint(2, 4)
    ld = random_cidq_list(rng, n, rng.randint(1, 7))
    topo, mc = uniform_setup(n, k, rng.randint((n + k - 1) // k, n + 1))
    if rng.random() < 0.5:
        topo = matrix_topology(random_metric_hops(rng, k))
    mq = complete_random_mapping(rng, n, mc)
    mode = rng.choice(("pair", "per_target"))
    out, state = run_pass(mq, controller_of(mq, mc, rng.randrange(n)), ld, mc, topo, mode)
    replayed = mq
    for move in state.applied[: state.prefix_length]:
        replayed = apply_movement(replayed, move, mc)
    assert out == replayed
    out.check_consistent()

class TestQubitMovingPass:
    def test_applies_best_movement_first(self):
        ld, topo, mc, mq = fig5_instance()
        out, state = run_pass(mq, 0, ld, mc, topo, "pair")
        assert state.applied, "pool should not be empty"
        gains = [move.gain for move in state.applied]
        assert gains[0] == max(gains)
        assert total_cost_L(ld, out, mc, topo, "pair") <= total_cost_L(ld, mq, mc, topo, "pair")

    def test_no_positive_prefix_keeps_input(self):
        # single set split across controllers but every move is neutral or bad
        ld = CidqList((CidqSet(0, frozenset({0}), frozenset({1})),), 2)
        topo, mc = uniform_setup(2, 2, 2)
        from helpers import explicit_mapping

        mq = explicit_mapping([0, 1], 4)  # both on controller 0: L = 0 already
        out, state = run_pass(mq, 0, ld, mc, topo, "pair")
        assert out == mq
        assert state.prefix_gain == 0

    def test_each_qubit_moved_at_most_once(self):
        rng = random.Random(11)
        ld = random_cidq_list(rng, 8, 6)
        topo, mc = uniform_setup(8, 2, 5)
        mq = complete_random_mapping(rng, 8, mc)
        _, state = run_pass(mq, 0, ld, mc, topo, "pair")
        seen = []
        for move in state.applied:
            seen.extend(move.moved_qubits())
        assert len(seen) == len(set(seen))

    def test_incremental_costs_match_recomputation(self):
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(3, 9)
            k = rng.randint(2, 3)
            ld = random_cidq_list(rng, n, rng.randint(1, 7))
            topo, mc = uniform_setup(n, k, rng.randint((n + k - 1) // k, n))
            mq = complete_random_mapping(rng, n, mc)
            mode = rng.choice(("pair", "per_target"))
            out, state = run_pass(mq, rng.randrange(k), ld, mc, topo, mode)
            # every recorded gain is the drop in the recomputed objective when
            # the pass's movements are replayed one by one
            work, cost = mq, total_cost_L(ld, mq, mc, topo, mode)
            for move in state.applied:
                work = apply_movement(work, move, mc)
                after = total_cost_L(ld, work, mc, topo, mode)
                assert move.gain == cost - after
                cost = after
            # so the pass's result costs exactly its input less the prefix
            # gain, and the prefix is the first maximum of the running gains
            assert total_cost_L(ld, out, mc, topo, mode) == (
                total_cost_L(ld, mq, mc, topo, mode) - state.prefix_gain)
            cumulative = list(itertools.accumulate(move.gain for move in state.applied))
            best = max(cumulative, default=0)
            assert state.prefix_length == (cumulative.index(best) + 1 if best > 0 else 0)

    def test_pass_returns_copy(self):
        ld, topo, mc, mq = fig5_instance()
        out, _ = run_pass(mq, 0, ld, mc, topo, "pair")
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

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 24),
        n_sets=st.integers(0, 30),
        k=st.integers(1, 6),
        spare=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    def test_matches_set_union_scoring(self, n, n_sets, k, spare, seed):
        # few and many placed neighbours per qubit, so both ways of counting
        # them per controller are taken; unequal capacities when k does not
        # divide the slot count
        ld = random_cidq_list(random.Random(seed), n, n_sets)
        mc = contiguous_assignment(max(n + spare, k), k)
        hyper = build_hypergraph(ld, n)
        assert stage1_greedy(mc, ld, hyper, seed=seed) == reference_stage1(mc, hyper, seed)

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

    @pytest.mark.parametrize("mode", ["pair", "per_target"])
    @pytest.mark.parametrize("topology", ["star", "matrix"])
    def test_pass_on_an_empty_controller_is_identity(self, topology, mode):
        # a pass moves qubits only out of its own controller, which is why
        # refinement skips controllers that hold no logical qubit
        from helpers import explicit_mapping

        for seed in range(20):
            rng = random.Random(seed)
            k, capacity = rng.randint(2, 5), rng.randint(2, 4)
            mc = contiguous_assignment(k * capacity, k)
            topo = star_topology(k) if topology == "star" else matrix_topology(
                random_metric_hops(rng, k))
            held = rng.sample(range(k), rng.randint(1, k - 1))
            slots = [p for c in held for p in mc.qubits_of(c)]
            n = rng.randint(2, len(slots))
            mq = explicit_mapping(rng.sample(slots, n), mc.m)
            ld = random_cidq_list(rng, n, rng.randint(1, 6))
            for ci in sorted(set(range(k)) - set(held)):
                out, state = run_pass(mq, ci, ld, mc, topo, mode)
                assert out == mq and state.applied == [] and state.prefix_length == 0


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

    def test_overstated_gain_raises(self, monkeypatch):
        # stage 2 carries each candidate's cost from its pass's prefix gain
        # and re-prices a refined result once, which catches a wrong gain
        ld, topo, mc, mq = fig5_instance()

        def overstated(*args, **kwargs):
            out, state = run_pass(*args, **kwargs)
            state.prefix_gain += 1
            return out, state

        monkeypatch.setattr(placement, "run_pass", overstated)
        with pytest.raises(RuntimeError, match="is not the carried cost"):
            stage2_iterate(mq, mc, ld, topo, "pair")

    @pytest.mark.parametrize("family, n, blocks, k, calls", [
        ("dqft", 100, None, 5, 1),  # the seed meets the bound: no pass runs
        ("random", 30, 30, 4, 2),  # refined: the seed and the result
    ])
    def test_prices_each_layout_once(self, family, n, blocks, k, calls, monkeypatch):
        priced = []

        def counted(*args, **kwargs):
            priced.append(args)
            return total_cost_L(*args, **kwargs)

        monkeypatch.setattr(placement, "total_cost_L", counted)
        ld = extract_cidq_sets(generate(family, n, blocks, seed=0))
        mc, topo = contiguous_assignment(127, k), star_topology(k)
        initial_placement(mc, ld, topo, heavy_hex_127_device(), mode="pair", seed=0)
        assert len(priced) == calls

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

    def test_oversized_circuit_refused_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="^device hosts 127 qubits, circuit needs 100000000$"):
                random_layout(10**8, 127)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak  # a list of 10**8 slots alone takes 800 MB


# Physical homes of logical qubits 0..n-1 from initial_placement (seed 0) on
# heavy_hex_127 with a star topology and contiguous controllers, keyed by
# (family, n, blocks, k, cost mode).
LAYOUT_PINS = {
    ("dqft", 20, None, 4, "pair"): [
        51, 50, 49, 48, 47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 32, 33,
    ],
    ("dqft", 20, None, 4, "per_target"): [
        51, 50, 49, 48, 47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 32, 33,
    ],
    ("dqft", 20, None, 5, "pair"): [
        45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 31, 30, 29, 28, 26, 27,
    ],
    ("dqft", 20, None, 5, "per_target"): [
        45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 31, 30, 29, 28, 26, 27,
    ],
    ("dqft", 40, None, 4, "pair"): [
        7, 6, 5, 4, 3, 2, 1, 0, 63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50,
        49, 48, 47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 32, 33,
    ],
    ("dqft", 40, None, 4, "per_target"): [
        7, 6, 5, 4, 3, 2, 1, 0, 63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50,
        49, 48, 47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 32, 33,
    ],
    ("dqft", 40, None, 5, "pair"): [
        13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 51, 50, 49, 48, 47, 46, 45, 44,
        43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 31, 30, 29, 28, 26, 27,
    ],
    ("dqft", 40, None, 5, "per_target"): [
        13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 51, 50, 49, 48, 47, 46, 45, 44,
        43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 31, 30, 29, 28, 26, 27,
    ],
    ("dqft", 60, None, 4, "pair"): [
        27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7,
        6, 5, 4, 3, 2, 1, 0, 63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49,
        48, 47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 32, 33,
    ],
    ("dqft", 60, None, 4, "per_target"): [
        27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7,
        6, 5, 4, 3, 2, 1, 0, 63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49,
        48, 47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 32, 33,
    ],
    ("dqft", 60, None, 5, "pair"): [
        59, 58, 57, 56, 55, 54, 53, 52, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14,
        13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 51, 50, 49, 48, 47, 46, 45, 44,
        43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 31, 30, 29, 28, 26, 27,
    ],
    ("dqft", 60, None, 5, "per_target"): [
        59, 58, 57, 56, 55, 54, 53, 52, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14,
        13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 51, 50, 49, 48, 47, 46, 45, 44,
        43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 31, 30, 29, 28, 26, 27,
    ],
    ("pe", 20, None, 4, "pair"): [
        32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51,
    ],
    ("random", 30, 30, 4, "pair"): [
        38, 45, 34, 0, 49, 40, 50, 41, 1, 46, 42, 47, 52, 97, 39, 96, 43, 53, 35, 2,
        36, 44, 98, 54, 37, 32, 51, 55, 33, 48,
    ],
    ("random", 48, 6, 4, "pair"): [
        32, 36, 37, 38, 39, 64, 0, 40, 33, 65, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50,
        51, 52, 96, 53, 54, 66, 1, 55, 56, 57, 58, 59, 60, 61, 62, 34, 63, 68, 69, 70,
        71, 72, 35, 73, 67, 74, 75, 97,
    ],
}


@pytest.mark.parametrize("key", list(LAYOUT_PINS), ids=lambda key: "-".join(map(str, key)))
def test_initial_placement_layouts_pinned(key):
    """Refactors of the placement engine must leave its layouts unchanged."""
    family, n, blocks, k, mode = key
    ld = extract_cidq_sets(generate(family, n, blocks))
    mc = contiguous_assignment(127, k)
    mq = initial_placement(mc, ld, star_topology(k), heavy_hex_127_device(), mode=mode, seed=0)
    assert [mq.physical(q) for q in range(n)] == LAYOUT_PINS[key]


# Physical homes of logical qubits 0..39 of random40x30 from initial_placement
# (pair mode, seed 0) on a line of 2k qubits with a k-controller star and
# contiguous controllers, keyed by k: cells where placement cost shows its
# growth with k.
SCALE_PINS = {
    20: [
        19, 25, 36, 1, 16, 39, 14, 2, 29, 4, 20, 11, 26, 0, 6, 7, 30, 37, 5, 13, 15, 21,
        8, 3, 18, 22, 10, 17, 27, 12, 31, 33, 34, 35, 24, 9, 23, 28, 32, 38,
    ],
    50: [
        5, 35, 98, 16, 18, 0, 54, 2, 99, 6, 78, 55, 20, 1, 8, 9, 15, 22, 7, 11, 13, 49,
        79, 3, 4, 80, 10, 17, 19, 12, 21, 23, 24, 25, 48, 14, 81, 26, 27, 34,
    ],
    100: [
        11, 69, 196, 16, 18, 0, 108, 2, 197, 4, 144, 109, 20, 1, 6, 7, 15, 22, 5, 9, 13,
        99, 145, 3, 10, 140, 8, 17, 19, 12, 21, 23, 24, 25, 98, 14, 141, 26, 27, 68,
    ],
}


@pytest.mark.parametrize("k", list(SCALE_PINS))
def test_placement_at_scale_layouts_pinned(k):
    ld = extract_cidq_sets(generate("random", 40, 30))
    mc = contiguous_assignment(2 * k, k)
    mq = initial_placement(mc, ld, star_topology(k), line_device(2 * k), mode="pair", seed=0)
    assert [mq.physical(q) for q in range(40)] == SCALE_PINS[k]


@pytest.mark.parametrize("key", [("random", 30, 30, seed) for seed in range(3)] + [
    ("random", 40, 40, 0)], ids=lambda key: "-".join(map(str, key)))
def test_refinement_ends_at_a_fixpoint(key):
    """From the layout placement returns, no pass on any controller finds a
    cheaper one: refinement runs sweeps until none pays off."""
    family, n, blocks, seed = key
    ld = extract_cidq_sets(generate(family, n, blocks, seed=seed))
    mc, topo = contiguous_assignment(127, 4), star_topology(4)
    mq = initial_placement(mc, ld, topo, heavy_hex_127_device(), mode="pair", seed=seed)
    cost = total_cost_L(ld, mq, mc, topo, "pair")
    for ci in range(mc.k):
        candidate, _ = run_pass(mq, ci, ld, mc, topo, "pair")
        assert total_cost_L(ld, candidate, mc, topo, "pair") >= cost


def random_sets(rng: random.Random, n_qubits: int) -> CidqList:
    """One to four dependency sets of one to three measured qubits each, whose
    targets may include measured qubits."""
    sets = []
    for i in range(rng.randint(1, 4)):
        measured = frozenset(rng.sample(range(n_qubits), rng.randint(1, min(3, n_qubits))))
        targets = frozenset(rng.sample(range(n_qubits), rng.randint(1, n_qubits)))
        sets.append(CidqSet(i, measured, targets))
    ld = CidqList(tuple(sets), n_qubits)
    ld.validate()
    return ld


class TestLowerBound:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_never_above_the_optimum(self, seed):
        rng = random.Random(seed)
        m = rng.randint(3, 7)
        k = rng.randint(2, min(4, m))
        n = rng.randint(2, min(m, 6))
        topo = matrix_topology(random_metric_hops(rng, k))
        mc = contiguous_assignment(m, k)
        ld = random_sets(rng, n)
        for mode in ("pair", "per_target"):
            optimum, _ = brute_force_placement(ld, mc, topo, mode)
            assert cost_lower_bound(ld, mc, topo, mode) <= optimum

    def test_hand_counts(self):
        # capacities 3, 3, 2 and h_min 2: a 5-qubit set needs two controllers,
        # a 7-qubit set three; per_target pays for the qubits beyond 3
        topo = matrix_topology([[0, 2, 3], [2, 0, 2], [3, 2, 0]])
        mc = contiguous_assignment(8, 3)
        ld = CidqList((
            CidqSet(0, frozenset({0}), frozenset({1, 2})),
            CidqSet(1, frozenset({0, 1}), frozenset({1, 2, 3, 4})),
            CidqSet(2, frozenset({6}), frozenset(range(7))),
        ), 8)
        assert cost_lower_bound(ld, mc, topo, "pair") == 2 * (0 + 1 + 2)
        assert cost_lower_bound(ld, mc, topo, "per_target") == 2 * (0 + 2 + 4)
        one = star_topology(1)
        assert cost_lower_bound(ld, contiguous_assignment(8, 1), one, "pair") == 0

    def test_h_min_is_the_smallest_off_diagonal_hop(self):
        # the bound is h_min times the count that hop 1 everywhere gives;
        # here h_min comes from a scan of all k**2 off-diagonal pairs
        def scanned_bound(ld, mc, topo, mode):
            k = topo.k
            h_min = min((topo.hop[a][b] for a in range(k) for b in range(k) if a != b), default=0)
            return h_min * cost_lower_bound(ld, mc, star_topology(k), mode)

        rng = random.Random(2024)
        cases = [(star_topology(1), contiguous_assignment(6, 1))]
        for _ in range(40):
            k = rng.randint(2, 6)
            cases.append((matrix_topology(random_metric_hops(rng, k)), contiguous_assignment(3 * k, k)))
        for topo, mc in cases:
            ld = random_cidq_list(rng, mc.m, 5)
            for mode in ("pair", "per_target"):
                assert cost_lower_bound(ld, mc, topo, mode) == scanned_bound(ld, mc, topo, mode)

    def test_unknown_mode_rejected(self):
        topo, mc = uniform_setup(4, 2, 2)
        with pytest.raises(ValueError):
            cost_lower_bound(random_cidq_list(random.Random(0), 4, 2), mc, topo, "total")

    def test_dqft_stage1_meets_the_bound(self):
        # pair mode on heavy_hex_127 with 5 controllers: the benchmark's inputs
        mc, topo = contiguous_assignment(127, 5), star_topology(5)
        for n, expect in zip(range(20, 101, 10), (0, 4, 14, 24, 42, 62, 85, 115, 145)):
            ld = extract_cidq_sets(generate("dqft", n))
            seeded = stage1_greedy(mc, ld, build_hypergraph(ld, n))
            assert cost_lower_bound(ld, mc, topo, "pair") == expect
            assert total_cost_L(ld, seeded, mc, topo, "pair") == expect

    def test_refinement_at_the_bound_runs_no_pass(self, monkeypatch):
        ld = extract_cidq_sets(generate("dqft", 100))
        mc, topo = contiguous_assignment(127, 5), star_topology(5)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return run_pass(*args, **kwargs)

        monkeypatch.setattr(placement, "run_pass", counted)
        mq = initial_placement(mc, ld, topo, heavy_hex_127_device(), mode="pair")
        assert calls == []
        assert total_cost_L(ld, mq, mc, topo, "pair") == cost_lower_bound(ld, mc, topo, "pair")

    def test_cost_below_the_bound_raises(self, monkeypatch):
        ld = extract_cidq_sets(generate("dqft", 20))
        mc, topo = contiguous_assignment(127, 4), star_topology(4)
        monkeypatch.setattr(placement, "cost_lower_bound", lambda *args: 10**6)
        with pytest.raises(RuntimeError, match="lower bound"):
            initial_placement(mc, ld, topo, heavy_hex_127_device())


BOUND_STOP_INPUTS = [("dqft", n, None, 0, k) for n in range(20, 101, 10) for k in (4, 5)] + [
    (family, n, blocks, seed, 4)
    for family, n, blocks in (("pe", 20, None), ("cc", 26, None), ("random", 30, 30))
    for seed in (0, 1)
]


@pytest.mark.parametrize("key", BOUND_STOP_INPUTS, ids=lambda key: "-".join(map(str, key)))
def test_bound_stop_changes_no_layout(key, monkeypatch):
    """Stopping refinement at the lower bound is exact: with a bound that is
    never met, every pass runs and the layouts are the same."""
    family, n, blocks, seed, k = key
    ld = extract_cidq_sets(generate(family, n, blocks, seed=seed))
    setup = (contiguous_assignment(127, k), ld, star_topology(k), heavy_hex_127_device())
    for mode in ("pair", "per_target"):
        stopped = initial_placement(*setup, mode=mode, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(placement, "cost_lower_bound", lambda *args: -1)
            full = initial_placement(*setup, mode=mode, seed=seed)
        assert stopped.forward == full.forward
