"""Property tests pinning the cost kernels to each other and to the paper.

The placement engine scores movements from per-set type tables; these tests
check every score it hands to the apply loop against the brute-force
`movement_gain`, and check every way the code evaluates a mapping's ICCS
against the paper's definition written out in `helpers.reference_set_cost`:
the per-set vector `set_costs`, `total_cost_L`, the engine's count tables
and the routing-time replay `accumulate_iccs` of a circuit routed without
SWAPs.  All of them go through the one kernel `cidq.population_cost`.
"""
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import (
    COST_MODES,
    Movement,
    apply_movement,
    build_hypergraph,
    contiguous_assignment,
    controller_of,
    extract_cidq_sets,
    line_device,
    matrix_topology,
    movement_gain,
    run_pipeline,
    stage1_greedy,
    star_topology,
    total_cost_L,
)
from dynlayout.cidq import controllers, set_costs
from dynlayout.circuit import Circuit, Operation
from dynlayout.pipeline import MODES
from dynlayout.placement import _NEG, _GainEngine, run_pass
from dynlayout.scheduler import accumulate_iccs, schedule
from helpers import (
    complete_random_mapping,
    random_cidq_list,
    random_metric_hops,
    reference_set_cost,
)


def metric_setup(rng: random.Random, n: int, k: int):
    """Random metric controller topology plus a contiguous split of k*cap
    slots, cap drawn so the n qubits always fit."""
    topo = matrix_topology(random_metric_hops(rng, k))
    mc = contiguous_assignment(k * rng.randint((n + k - 1) // k, n), k)
    return topo, mc


@pytest.mark.parametrize("mode", COST_MODES)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_pass_scores_equal_brute_force_gains(mode, seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    k = rng.randint(2, 4)
    ld = random_cidq_list(rng, n, rng.randint(1, 6))
    topo, mc = metric_setup(rng, n, k)
    mq = complete_random_mapping(rng, n, mc)
    ci = rng.randrange(k)

    calls = []
    with pytest.MonkeyPatch.context() as mp:
        scores = _GainEngine.scores

        def record(self, *args):
            calls.append(scores(self, *args))
            return calls[-1]

        mp.setattr(_GainEngine, "scores", record)
        _, state = run_pass(mq, ci, ld, mc, topo, mode)

    # one scoring per applied movement, plus the one that finds the pool empty
    assert len(calls) == len(state.applied) + 1
    current, locked = mq, set()
    for step, (rel, ex) in enumerate(calls):
        ctl = [controller_of(current, mc, q) for q in range(n)]
        movable = [q for q in range(n) if ctl[q] == ci and q not in locked]
        for q in range(n):
            for b in range(k):
                free = any(current.logical_at(p) < 0 for p in mc.qubits_of(b))
                if q in movable and b != ci and free:
                    move = Movement("relocate", q, ci, b)
                    assert rel[q, b] == movement_gain(move, current, ld, mc, topo, mode)
                else:
                    assert rel[q, b] == _NEG
            for qb in range(n):
                if q in movable and ctl[qb] != ci and qb not in locked:
                    move = Movement("exchange", q, ci, ctl[qb], partner=qb)
                    assert ex[q, qb] == movement_gain(move, current, ld, mc, topo, mode)
                else:
                    assert ex[q, qb] == _NEG
        if step < len(state.applied):
            move = state.applied[step]
            current = apply_movement(current, move, mc)
            locked.update(move.moved_qubits())


def test_engine_build_not_cubic_in_k():
    # scoring reads one k x k slice per pass controller; a k x k x k table of
    # them, built with the engine, took 216 MB at k = 300
    rng = random.Random(0)
    ld = random_cidq_list(rng, 40, 30)
    hop = star_topology(300).hop
    tracemalloc.start()
    try:
        _GainEngine(ld, 300, hop, "pair")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000, peak


def test_pass_at_k_300_peaks_under_50_mb():
    # one pass on the instance above, from the greedy seed on two slots per
    # controller: scoring prices only the (set, pin type) keys its qubits
    # hold, where tables over every set, pin type pair and k x k controller
    # pair peaked at 458 MB
    rng = random.Random(0)
    ld = random_cidq_list(rng, 40, 30)
    topo, mc = star_topology(300), contiguous_assignment(600, 300)
    mq = stage1_greedy(mc, ld, build_hypergraph(ld, 40))
    tracemalloc.start()
    try:
        _, state = run_pass(mq, mc.assignment[mq.physical(0)], ld, mc, topo, "pair")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.applied, "the pass scores at least one movement"
    assert peak < 50_000_000, peak


def random_dynamic_circuit(rng: random.Random, n: int) -> Circuit:
    """Measures and conditioned single-qubit gates only, so routing needs no
    SWAP.  Clbits get re-measured, conditions may read two bits, and a gate
    may target the qubit whose outcome steers it."""
    n_clbits = rng.randint(1, 3)
    written: list[int] = []
    ops = []
    for _ in range(rng.randint(2, 12)):
        if not written or rng.random() < 0.35:
            clbit = rng.randrange(n_clbits)
            ops.append(Operation("measure", (rng.randrange(n),), (), clbit, None))
            written.append(clbit)
            continue
        bits = rng.sample(sorted(set(written)), min(len(set(written)), rng.randint(1, 2)))
        condition = frozenset((b, rng.randint(0, 1)) for b in bits)
        ops.append(Operation(rng.choice("hxz"), (rng.randrange(n),), (), None, condition))
    circuit = Circuit(n, n_clbits, tuple(ops))
    circuit.validate()
    return circuit


@pytest.mark.parametrize("mode", COST_MODES)
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_cost_forms_agree(mode, seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    k = rng.randint(2, 4)
    circuit = random_dynamic_circuit(rng, n)
    ld = extract_cidq_sets(circuit)
    topo, mc = metric_setup(rng, n, k)
    mq = complete_random_mapping(rng, n, mc)

    ctl_of = [controller_of(mq, mc, q) for q in range(n)]
    per_set = [reference_set_cost(d, ctl_of, topo.hop, mode) for d in ld]
    assert set_costs(ld, controllers(mq, mc), topo, mode).tolist() == per_set
    summed = sum(per_set)
    assert total_cost_L(ld, mq, mc, topo, mode) == summed

    ctl = np.array(ctl_of, dtype=np.int64)
    assert _GainEngine(ld, k, topo.hop, mode).tables(ctl)[2].tolist() == per_set

    device = line_device(mc.m)
    routed = schedule(circuit, mq, mc, topo, device, cost_mode=mode)
    assert routed.swaps_inserted == 0
    assert accumulate_iccs(routed, mc, topo, mode) == summed


@pytest.mark.parametrize("mode", MODES)
def test_pipeline_rejects_unknown_cost_mode(mode):
    circuit = random_dynamic_circuit(random.Random(3), 4)
    mc = contiguous_assignment(4, 2)
    topo = matrix_topology([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="cost mode"):
        run_pipeline(circuit, mc, topo, line_device(4), mode=mode, cost_mode="bogus")
