"""Property tests pinning the cost kernels to each other.

The placement engine scores movements from per-set type tables; these tests
check every score it hands to the apply loop against the brute-force
`movement_gain`, and check that the four ways the code computes a mapping's
ICCS agree: per-set `cidq_cost_S`, `total_cost_L`, the engine's count tables
and the routing-time replay `accumulate_iccs` of a circuit routed without
SWAPs.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import (
    COST_MODES,
    Circuit,
    Movement,
    Operation,
    accumulate_iccs,
    apply_movement,
    build_dag,
    cidq_cost_S,
    contiguous_assignment,
    controller_of,
    extract_cidq_sets,
    line_device,
    matrix_topology,
    movement_gain,
    schedule,
    total_cost_L,
)
from dynlayout.placement import _NEG, _GainEngine, run_pass
from helpers import complete_random_mapping, random_cidq_list, random_metric_hops


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
    others = rng.sample(range(k), rng.randint(1, k))

    calls = []
    with pytest.MonkeyPatch.context() as mp:
        scores = _GainEngine.scores

        def record(self, *args):
            calls.append(scores(self, *args))
            return calls[-1]

        mp.setattr(_GainEngine, "scores", record)
        _, state = run_pass(mq, ci, others, ld, mc, topo, mode)

    # one scoring per applied movement, plus the one that finds the pool empty
    assert len(calls) == (len(state.applied) + 1 if state.others else 0)
    current, locked = mq, set()
    for step, (rel, ex) in enumerate(calls):
        ctl = [controller_of(current, mc, q) for q in range(n)]
        movable = [q for q in range(n) if ctl[q] == ci and q not in locked]
        for q in range(n):
            for b in range(k):
                free = any(current.logical_at(p) < 0 for p in mc.qubits_of(b))
                if q in movable and b in state.others and free:
                    move = Movement("relocate", q, ci, b)
                    assert rel[q, b] == movement_gain(move, current, ld, mc, topo, mode)
                else:
                    assert rel[q, b] == _NEG
            for qb in range(n):
                if q in movable and ctl[qb] in state.others and qb not in locked:
                    move = Movement("exchange", q, ci, ctl[qb], partner=qb)
                    assert ex[q, qb] == movement_gain(move, current, ld, mc, topo, mode)
                else:
                    assert ex[q, qb] == _NEG
        if step < len(state.applied):
            move = state.applied[step]
            current = apply_movement(current, move, mc)
            locked.update(move.moved_qubits())


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

    summed = sum(cidq_cost_S(d, mq, mc, topo, mode) for d in ld)
    assert total_cost_L(ld, mq, mc, topo, mode) == summed

    ctl = np.array([controller_of(mq, mc, q) for q in range(n)], dtype=np.int64)
    assert int(_GainEngine(ld, k, topo.hop, mode).tables(ctl)[2].sum()) == summed

    device = line_device(mc.m)
    routed = schedule(circuit, build_dag(circuit), mq, mc, topo, device, ld, cost_mode=mode)
    assert routed.swaps_inserted == 0
    assert accumulate_iccs(routed, ld, mc, topo, mode) == summed

