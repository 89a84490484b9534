"""End-to-end acceptance gate.

One test per criterion; each prints a single `[acceptance] criterion NN
PASS|FAIL` line with the measured values (visible under `pytest -s`, and
echoed in the failure message otherwise). Criteria cover the golden
walkthrough, the Type-I zero/split targets, oracle agreement, gain locality,
routing validity, tie-break soundness, the paired class-vs-baseline study,
placement scalability, and non-uniform-latency adaptability.
"""
from __future__ import annotations

import math
import random
import statistics
import time

import pytest

from dynlayout import (
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
    apply_movement,
    Movement,
    run_pipeline,
    stage1_greedy,
    stage2_iterate,
    star_topology,
    total_cost_L,
)
from helpers import (
    complete_random_mapping,
    explicit_mapping,
    random_cidq_list,
    random_metric_hops,
    uniform_setup,
)


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def heavy_hex_setup(k: int):
    return heavy_hex_127_device(), star_topology(k), contiguous_assignment(127, k)


def test_criterion_01_golden_walkthrough():
    t0 = time.perf_counter()
    circuit = generate("dqft", 4)
    ld = extract_cidq_sets(circuit)
    topo, mc = star_topology(2), contiguous_assignment(4, 2)

    optimum, _ = brute_force_placement(ld, mc, topo, "pair")
    partitions = {
        "q0q1|q2q3": explicit_mapping([0, 1, 2, 3], 4),
        "q0q2|q1q3": explicit_mapping([0, 2, 1, 3], 4),
        "q0q3|q1q2": explicit_mapping([0, 2, 3, 1], 4),
    }
    costs = {name: total_cost_L(ld, mq, mc, topo) for name, mq in partitions.items()}
    placed = initial_placement(mc, ld, topo, line_device(4))
    heuristic = total_cost_L(ld, placed, mc, topo)
    dt = time.perf_counter() - t0

    ok = (
        optimum == 2
        and costs["q0q1|q2q3"] == 2
        and costs["q0q2|q1q3"] == 3
        and costs["q0q3|q1q2"] == 3
        and heuristic == 2
        and dt < 1.0
    )
    verdict(1, ok, f"optimum={optimum} partition costs={costs} placement L={heuristic} ({dt:.3f}s)")


def test_criterion_02_type_one_zeros():
    dev, topo, mc = heavy_hex_setup(4)
    results = {}
    ok = True
    for n in (20, 30):
        for cost_mode in ("pair", "per_target"):
            circuit = generate("dqft", n)
            t0 = time.perf_counter()
            _, report = run_pipeline(circuit, mc, topo, dev, mode="class", cost_mode=cost_mode)
            dt = time.perf_counter() - t0
            results[f"dqft{n}/{cost_mode}"] = (report.iccs, round(dt, 2))
            ok = ok and report.iccs == 0 and dt < 5.0
    verdict(2, ok, f"pipeline iccs (want 0) and seconds per run: {results}")


def test_criterion_03_type_one_splits():
    dev, topo, mc = heavy_hex_setup(4)
    actual = {}
    ok = True
    for n, bound in ((40, 256), (50, 576)):
        ld = extract_cidq_sets(generate("dqft", n))
        mq = initial_placement(mc, ld, topo, dev, mode="per_target")
        cost = total_cost_L(ld, mq, mc, topo, "per_target")
        actual[f"dqft{n}"] = cost
        ok = ok and cost <= bound
    verdict(3, ok, f"per_target placement cost: {actual} (bounds 256/576, equality expected)")


def test_criterion_04_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(11)
    never_below, exact, improved_only, gaps = True, 0, True, []
    for trial in range(50):
        n = rng.randint(4, 8)
        ld = random_cidq_list(rng, n, rng.randint(2, 6))
        topo, mc = uniform_setup(n, 2, (n + 1) // 2)
        optimum, _ = brute_force_placement(ld, mc, topo, "pair")
        stage1 = stage1_greedy(mc, ld, build_hypergraph(ld, n), seed=trial)
        l_stage1 = total_cost_L(ld, stage1, mc, topo)
        stage2 = stage2_iterate(stage1, mc, ld, topo)
        l_stage2 = total_cost_L(ld, stage2, mc, topo)
        never_below = never_below and l_stage2 >= optimum
        improved_only = improved_only and l_stage2 <= l_stage1
        exact += l_stage2 == optimum
        gaps.append(l_stage2 - optimum)
    dt = time.perf_counter() - t0
    ok = never_below and improved_only and exact >= 35 and dt < 60.0
    dist = {g: gaps.count(g) for g in sorted(set(gaps))}
    verdict(4, ok, f"heuristic>=oracle {never_below}, exact {exact}/50 (need >=35), "
                   f"stage2<=stage1 {improved_only}, gap distribution {dist} ({dt:.1f}s)")


def test_criterion_05_gain_locality():
    t0 = time.perf_counter()
    rng = random.Random(23)
    checked, mismatches = 0, 0
    while checked < 1000:
        n = rng.randint(2, 9)
        k = rng.randint(2, 4)
        ld = random_cidq_list(rng, n, rng.randint(1, 6))
        topo, mc = uniform_setup(n, k, rng.randint((n + k - 1) // k, n))
        mq = complete_random_mapping(rng, n, mc)
        mode = rng.choice(("pair", "per_target"))
        q = rng.randrange(n)
        cq = controller_of(mq, mc, q)
        dst = rng.choice([c for c in range(k) if c != cq])
        free = [p for p in mc.qubits_of(dst) if mq.logical_at(p) < 0]
        partners = [x for x in range(n) if controller_of(mq, mc, x) == dst]
        if free and (not partners or rng.random() < 0.5):
            move = Movement("relocate", q, cq, dst)
        elif partners:
            move = Movement("exchange", q, cq, dst, partner=rng.choice(partners))
        else:
            continue
        before = total_cost_L(ld, mq, mc, topo, mode)
        after = total_cost_L(ld, apply_movement(mq, move, mc), mc, topo, mode)
        mismatches += movement_gain(move, mq, ld, mc, topo, mode) != before - after
        checked += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 30.0
    verdict(5, ok, f"{checked} samples, {mismatches} gain/deltaL mismatches ({dt:.1f}s)")


TYPE_II_SUITE = (("cc", 12, None), ("pe", 20, None), ("random", 20, 20))


@pytest.fixture(scope="module")
def type_ii_runs():
    dev, topo, mc = heavy_hex_setup(4)
    runs = []
    for fam, n, blocks in TYPE_II_SUITE:
        for seed in range(5):
            if blocks is None:
                circuit = generate(fam, n)
            else:
                circuit = generate(fam, n, n_blocks=blocks, seed=seed)
            routed, _ = run_pipeline(circuit, mc, topo, dev, mode="class", seed=seed)
            runs.append((f"{fam}-{n} seed {seed}", circuit, routed, dev))
    return runs


def replay_is_faithful(circuit, routed, dev) -> bool:
    """Walk the routing log: every op adjacent where required, every source op
    emitted exactly once under the tracked SWAP permutation."""
    perm = list(routed.initial_mapping.forward)
    emitted = []
    out_ops = iter(routed.circuit.ops)
    for entry in routed.log:
        op = next(out_ops)
        if entry[0] == "swap":
            pa, pb = entry[1], entry[2]
            if op.name != "swap" or set(op.qubits) != {pa, pb} or not dev.is_edge(pa, pb):
                return False
            for q in range(len(perm)):
                if perm[q] == pa:
                    perm[q] = pb
                elif perm[q] == pb:
                    perm[q] = pa
        else:
            src = circuit.ops[entry[1]]
            if (op.name, op.params, op.clbit, op.condition) != (
                src.name, src.params, src.clbit, src.condition
            ):
                return False
            if op.qubits != tuple(perm[q] for q in src.qubits):
                return False
            if src.is_two_qubit and not dev.is_edge(*op.qubits):
                return False
            emitted.append(entry[1])
    return sorted(emitted) == list(range(len(circuit.ops))) and perm == list(
        routed.final_mapping.forward
    )


def test_criterion_06_routing_validity(type_ii_runs):
    failures = [name for name, c, routed, dev in type_ii_runs
                if not replay_is_faithful(c, routed, dev)]
    ok = not failures
    verdict(6, ok, f"{len(type_ii_runs)} routed benchmarks replayed faithfully"
                   + (f", failures: {failures}" if failures else ""))


def test_criterion_07_tiebreak_soundness(type_ii_runs):
    checked, violations, forced = 0, 0, 0
    for _, _, routed, _ in type_ii_runs:
        for decision in routed.decisions:
            if decision.forced:
                forced += 1
                continue
            checked += 1
            violations += decision.chosen not in decision.depth_argmin
    ok = violations == 0 and forced == 0
    verdict(7, ok, f"{checked} swap decisions, {violations} outside the depth-cost argmin, "
                   f"{forced} forced escapes")


def test_criterion_08_directional_improvement():
    dev, topo, mc = heavy_hex_setup(4)
    class_iccs, base_iccs, class_ops, base_ops = [], [], [], []
    for fam, n, blocks in (("pe", 20, None), ("random", 20, 20), ("cc", 12, None)):
        for seed in range(10):
            if blocks is None:
                circuit = generate(fam, n)
            else:
                circuit = generate(fam, n, n_blocks=blocks, seed=seed)
            _, rep_class = run_pipeline(circuit, mc, topo, dev, mode="class", seed=seed)
            _, rep_base = run_pipeline(circuit, mc, topo, dev, mode="baseline", seed=seed)
            class_iccs.append(rep_class.iccs)
            base_iccs.append(rep_base.iccs)
            class_ops.append(rep_class.operations)
            base_ops.append(rep_base.operations)
    mc_mean = statistics.mean(class_iccs)
    mb_mean = statistics.mean(base_iccs)
    reduction = 100.0 * (mb_mean - mc_mean) / mb_mean if mb_mean else 0.0
    # overhead of the post-routing op count relative to the baseline's output
    overhead = 100.0 * (statistics.mean(class_ops) / statistics.mean(base_ops) - 1.0)
    ok = mc_mean <= mb_mean and reduction >= 20.0 and overhead <= 10.0
    verdict(8, ok, f"mean iccs class={mc_mean:.2f} baseline={mb_mean:.2f} "
                   f"reduction={reduction:.1f}% (need >=20%), "
                   f"op overhead vs baseline={overhead:.2f}% (need <=10%)")


def test_criterion_09_placement_scalability():
    dev, topo, mc = heavy_hex_setup(5)
    initial_placement(mc, extract_cidq_sets(generate("dqft", 20)), topo, dev)  # warm-up
    sizes, times = [], []
    ok = True
    for n in (20, 40, 60, 80, 100):
        ld = extract_cidq_sets(generate("dqft", n))
        t0 = time.perf_counter()
        initial_placement(mc, ld, topo, dev)
        dt = time.perf_counter() - t0
        sizes.append(n)
        times.append(max(dt, 1e-4))
        ok = ok and dt < 7.0
    # least-squares slope of log t vs log n: bounded slope = polynomial growth
    lx = [math.log(n) for n in sizes]
    ly = [math.log(t) for t in times]
    mean_x, mean_y = statistics.mean(lx), statistics.mean(ly)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly)) / sum(
        (x - mean_x) ** 2 for x in lx
    )
    ok = ok and slope <= 5.0
    stamps = {n: round(t, 3) for n, t in zip(sizes, times)}
    verdict(9, ok, f"seconds per size {stamps} (each < 7s), log-log slope {slope:.2f} (<= 5)")


def test_criterion_10_arbitrary_topologies():
    rng = random.Random(31)
    dev = line_device(12)
    mc = contiguous_assignment(12, 4)
    circuit = generate("dqft", 12)
    wins, pairs = 0, []
    for seed in range(20):
        topo = matrix_topology(random_metric_hops(rng, 4))
        _, rep_class = run_pipeline(circuit, mc, topo, dev, mode="class", seed=seed)
        _, rep_base = run_pipeline(circuit, mc, topo, dev, mode="baseline", seed=seed)
        pairs.append((rep_class.iccs, rep_base.iccs))
        wins += rep_class.iccs <= rep_base.iccs
    mean_class = statistics.mean(p[0] for p in pairs)
    mean_base = statistics.mean(p[1] for p in pairs)
    ok = wins >= 18 and mean_class < mean_base
    verdict(10, ok, f"class<=baseline in {wins}/20 cells (need >=18), "
                    f"mean iccs class={mean_class:.2f} vs baseline={mean_base:.2f}")
