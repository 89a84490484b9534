"""dynlayout benchmark: whole compiles, QASM text in, routed circuit and report out.

    python3 perfbench/run.py --workload dqft-place --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; dynlayout is imported from ./src.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See README.md in this directory for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import csv
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import Hardware, Output, check_output, combine, digest, self_test, star_hardware
from spans import LAYERS, WRAPPED, Tracer
from workloads import WORKLOADS, Source, Workload, circuit_label, generate_sources, op_tuple, write_inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_ROUNDS = 3  # before every pass, so that set-up is sampled across the run
MIN_PASSES = 3  # untraced passes every end-to-end run makes, whatever --seconds says
TRACED_PASSES = 2  # at least this many traced and as many untraced passes
CONTROL_ROUNDS = 5
MODES = ("class", "baseline")
SELF_TEST = ("random", 12, 8, 3)  # family, n, blocks, generator seed

END_TO_END = {
    "compile_s": "s",
    "circuit_ms.p50": "ms",
    "circuit_ms.tail": "ms",
    "iccs": "steps",
    "ops": "count",
    "depth": "layers",
    "iccs_reduction_pct": "%",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "qasm.parse_ms": "ms", "qasm.ops": "count", "qasm.self_ms": "ms",
    "cidq.extract_ms": "ms", "cidq.sets": "count", "cidq.pins": "count", "cidq.self_ms": "ms",
    "placement.stage1_ms": "ms", "placement.stage2_ms": "ms",
    "placement.cost_ms": "ms", "placement.cost.calls": "count",
    "placement.stage1_iccs": "steps", "placement.stage2_iccs": "steps",
    "placement.refine_yield": "ratio", "placement.self_ms": "ms",
    "circuit.dag_ms": "ms", "circuit.depth_ms": "ms", "circuit.routed_ops": "count",
    "circuit.self_ms": "ms",
    "scheduler.route_ms": "ms", "scheduler.decisions": "count",
    "scheduler.tied_decisions": "count", "scheduler.tie_frac": "ratio",
    "scheduler.forced": "count", "scheduler.swaps": "count", "scheduler.us_per_decision": "us",
    "scheduler.depth_cost.calls": "count", "scheduler.depth_cost.ms": "ms",
    "scheduler.extended_set.calls": "count", "scheduler.extended_set.ms": "ms",
    "scheduler.iccs_score.calls": "count", "scheduler.iccs_score.ms": "ms",
    "scheduler.active_sets.calls": "count", "scheduler.active_sets.ms": "ms",
    "scheduler.replay_ms": "ms", "scheduler.self_ms": "ms",
    "pipeline.self_ms": "ms", "cli.self_ms": "ms",
    "control.device_ms": "ms", "control.topology_ms": "ms", "control.self_ms": "ms",
    "trace.overhead_pct": "%",
}


class SetupError(Exception):
    pass


@dataclass
class Env:
    """What one set-up round yields: dynlayout's modules, the device set-up
    and the loaded inputs."""

    qasm: object
    pipeline: object
    cli: object
    device: object
    topo: object
    mc: object
    texts: list[str]


@dataclass
class Pass:
    wall: float  # without the time the checker took inside the pass
    times: list[float]  # per circuit: one compile, or one sweep cell (class + baseline)
    totals: dict[str, int]  # quality totals over the pass's good outputs (Verifier.finish)
    check_s: float  # checker time inside the pass, already taken out of wall


def import_dynlayout():
    if not (SRC / "dynlayout" / "__init__.py").is_file():
        raise SetupError(f"no dynlayout sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dynlayout

    if Path(dynlayout.__file__).resolve().parent != (SRC / "dynlayout").resolve():
        raise SetupError(f"dynlayout imported from {dynlayout.__file__}, not from {SRC}")


def load(wl: Workload, paths: list[Path]) -> Env:
    """One set-up: import dynlayout, build device, topology and controller
    assignment, read the inputs."""
    qasm, pipeline, cli, control = (
        importlib.import_module(f"dynlayout.{m}") for m in ("qasm", "pipeline", "cli", "control"))
    device = control.heavy_hex_127_device()
    topo = control.star_topology(wl.k)
    mc = control.contiguous_assignment(device.m, wl.k)
    return Env(qasm, pipeline, cli, device, topo, mc, [p.read_text() for p in paths])


def set_up(wl: Workload, paths: list[Path]) -> tuple[Env, list[float]]:
    """SETUP_ROUNDS set-ups, each from a cold dynlayout import (numpy stays
    imported).  Returns the last one's Env and every set-up's time."""
    times = []
    for _ in range(SETUP_ROUNDS):
        for name in [n for n in sys.modules if n == "dynlayout" or n.startswith("dynlayout.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        env = load(wl, paths)
        times.append(time.perf_counter() - t0)
    return env, times


def compile_one(env: Env, text: str, mode: str, seed: int):
    """(routed, report) of one compile, or (None, the error) when it raised."""
    try:
        circuit = env.qasm.parse_circuit(text)
        return env.pipeline.run_pipeline(
            circuit, env.mc, env.topo, env.device, mode=mode, seed=seed, cost_mode="pair")
    except Exception as exc:  # a failed compile is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def compile_pass(wl: Workload, env: Env, verifier: Verifier, mode: str,
                 tracer: Tracer | None = None) -> Pass:
    """Parse and compile every input once through run_pipeline.  Each output
    is checked as soon as it is made and then dropped, so the process holds
    one routed circuit at a time, as a real compile loop does."""
    times = []
    verifier.start()
    t0 = time.perf_counter()
    for i, text in enumerate(env.texts):
        if tracer:
            tracer.circuit = i
        c0 = time.perf_counter()
        routed, report = compile_one(env, text, mode, wl.mode_seeds[0])
        times.append(time.perf_counter() - c0)
        verifier.take(i, mode, routed, report)
        del routed, report  # before the next compile, so only one routed circuit is alive
    wall = time.perf_counter() - t0
    totals = verifier.finish(mode)
    return Pass(wall - verifier.busy, times, totals, verifier.busy)


def sweep_pass(wl: Workload, env: Env, verifier: Verifier, paths: list[Path], workdir: Path,
               tracer: Tracer | None = None) -> Pass:
    """One `dynlayout sweep` over the input files through cli.main.  A tap on
    the cli's run_pipeline checks each compile's output and times it; a
    cell's time is that of its class and baseline compiles together.  The
    sweep itself throws each routed circuit away, and so does the tap."""
    times = []
    inner = env.cli.run_pipeline
    n_seeds = len(wl.mode_seeds)

    def tap(circuit, *args, **kwargs):
        call = len(times)
        source, mode = call // 2 // n_seeds, kwargs.get("mode")
        if tracer:
            tracer.circuit = call // 2
        c0 = time.perf_counter()
        try:
            routed, report = inner(circuit, *args, **kwargs)
        except Exception as exc:
            times.append(time.perf_counter() - c0)
            verifier.take(source, mode, None, f"{type(exc).__name__}: {exc}")
            raise
        times.append(time.perf_counter() - c0)
        verifier.take(source, mode, routed, report)
        if tracer and mode == "baseline":
            tracer.circuit = call // 2 + 1
        return routed, report

    out_csv = workdir / "sweep.csv"
    argv = [
        "sweep", "--benchmarks", ",".join(str(p) for p in paths),
        "--k-values", str(wl.k), "--seeds", ",".join(str(s) for s in wl.mode_seeds),
        "--device", "heavy_hex_127", "--controllers", "star", "--cost-mode", "pair",
        "--jobs", "1", "--out", str(out_csv),
    ]
    verifier.start()
    env.cli.run_pipeline = tap
    if tracer:
        tracer.circuit = 0  # the first cell's parse and device build run before the tap
    t0 = time.perf_counter()
    try:
        env.cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        env.cli.run_pipeline = inner
    with out_csv.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    totals = verifier.finish("class", rows)
    cells = [times[i] + times[i + 1] for i in range(0, len(times) - 1, 2)]
    return Pass(wall - verifier.busy, cells, totals, verifier.busy)


def as_output(routed, report) -> Output:
    return Output(
        tuple(routed.initial_mapping.forward),
        tuple(routed.final_mapping.forward),
        tuple(op_tuple(op) for op in routed.circuit.ops),
        report.to_dict(),
    )


def expected_calls(wl: Workload, n_sources: int) -> list[tuple[int, str, int]]:
    """(source index, mode, mode seed) of every compile of one pass, in order."""
    if not wl.sweep:
        return []
    return [(i, mode, seed) for i in range(n_sources) for seed in wl.mode_seeds for mode in MODES]


class Verifier:
    """Checks every output of a run as it is made and keeps, per pass, only
    the reports, the digests and the problems found."""

    def __init__(self, wl: Workload, sources: list[Source], hw: Hardware):
        self.wl, self.sources, self.hw = wl, sources, hw
        self.attempted = 0
        self.failures: list[str] = []  # one per failed compile, or per failed pass
        self.digests: dict[str, list[str]] = {}  # pass kind -> one digest per pass
        self.start()

    def start(self) -> None:
        """Open a pass."""
        self.busy = 0.0  # seconds spent in take() during the pass
        self._calls: list[tuple[int, str]] = []
        self._reports: list[dict | None] = []
        self._digests: list[str | None] = []
        self._problems: list[list[str]] = []

    def take(self, i: int, mode: str, routed, report) -> None:
        """Check one compile of source i; routed is None when it raised, and
        report is then the error."""
        t0 = time.perf_counter()
        plan = expected_calls(self.wl, len(self.sources))
        n = len(self._calls)
        self._calls.append((i, mode))
        if routed is None:
            self._reports.append(None)
            self._digests.append(None)
            self._problems.append([f"raised {report}"])
        else:
            out = as_output(routed, report)
            found = check_output(self.sources[i], out, self.hw)
            if plan and n < len(plan) and (i, mode, out.report["seed"]) != plan[n]:
                found.append(f"report: compile {n} is {(i, mode, out.report['seed'])}, expected {plan[n]}")
            self._reports.append(out.report)
            self._digests.append(digest(out))
            self._problems.append(found)
        self.busy += time.perf_counter() - t0

    def finish(self, kind: str, rows: list[dict] | None = None) -> dict[str, int]:
        """Close the pass: check the sweep CSV, count failures, record the
        pass digest.  Returns the quality totals over the good outputs."""
        plan = expected_calls(self.wl, len(self.sources))
        if plan and len(self._calls) != len(plan):
            self.failures.append(f"{kind}: sweep ran {len(self._calls)} compiles, expected {len(plan)}")
        if rows is not None:
            self._check_rows(rows, self._reports, self._problems)
        self.attempted += len(self._calls)
        for (i, mode), found in zip(self._calls, self._problems):
            if found:
                self.failures.append(f"{kind} {self.sources[i].label} {mode}: {found[0]}")
        good = [r for r, found in zip(self._reports, self._problems) if not found]
        self.digests.setdefault(kind, []).append(
            combine([d for d, found in zip(self._digests, self._problems) if not found]))
        return {
            "iccs": sum(r["iccs"] for r in good),
            "ops": sum(r["operations"] for r in good),
            "depth": sum(r["depth"] for r in good),
            **{f"iccs.{mode}": sum(r["iccs"] for r in good if r["mode"] == mode) for mode in MODES},
        }

    @staticmethod
    def _check_rows(rows: list[dict], reports: list[dict | None], problems: list[list[str]]) -> None:
        """Each sweep CSV row must restate the reports of its class and
        baseline compiles."""
        if len(rows) * 2 != len(reports):
            for found in problems:
                found.append(f"report: sweep CSV has {len(rows)} rows for {len(reports)} compiles")
            return
        for r, row in enumerate(rows):
            pair = dict(zip(MODES, reports[2 * r : 2 * r + 2]))
            if row["error"] or None in pair.values():
                problems[2 * r].append(f"report: sweep row {r} failed: {row['error']}")
                continue
            for n, (mode, report) in enumerate(pair.items()):
                for col, key in (("iccs", "iccs"), ("operations", "operations"),
                                 ("depth", "depth"), ("swaps", "swaps_inserted")):
                    if int(row[f"{mode}_{col}"]) != report[key]:
                        problems[2 * r + n].append(f"report: sweep row {r} {mode}_{col} disagrees")
            b, c = pair["baseline"]["iccs"], pair["class"]["iccs"]
            want = round(100.0 * (b - c) / b, 2) if b else ""
            if (row["reduction_pct"] and float(row["reduction_pct"])) != want:
                problems[2 * r].append(f"report: sweep row {r} reduction_pct {row['reduction_pct']} != {want}")

    def stable(self) -> bool:
        """Every pass of the batch, traced or not, gave the same outputs."""
        batch = [d for kind, ds in self.digests.items() if kind != "baseline" for d in ds]
        return len(set(batch)) <= 1 and len(set(self.digests.get("baseline", []))) <= 1


def run_pass(wl, env, verifier, paths, workdir, mode="class", tracer=None) -> Pass:
    if wl.sweep:
        return sweep_pass(wl, env, verifier, paths, workdir, tracer)
    return compile_pass(wl, env, verifier, mode, tracer)


def tail_pct(n_min: int) -> float:
    """The highest percentile with at least 10 samples beyond it in a run
    of n_min samples, the fewest a run takes."""
    return 100.0 * (n_min - 10) / n_min


def percentile(samples: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(wl, env, paths, workdir, verifier, seconds, setup_times) -> tuple[dict, list[str]]:
    """End-to-end run: untraced passes until the deadline, at least
    MIN_PASSES of them; quality totals come from the first pass (every pass
    must give the same outputs)."""
    notes = [f"peak RSS before the first pass: "
             f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.2f} MB"]
    start = time.perf_counter()
    reference = None
    if not wl.sweep:
        # baseline-mode compiles of the batch, once, as the reference for iccs_reduction_pct
        reference = run_pass(wl, env, verifier, paths, workdir, "baseline").totals
    passes = []
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + max(p.wall + p.check_s for p in passes) <= seconds
    ):
        env, times = set_up(wl, paths)
        setup_times = setup_times + times
        passes.append(run_pass(wl, env, verifier, paths, workdir))

    samples = [t for p in passes for t in p.times]
    per_pass = len(passes[0].times)
    pct = tail_pct(per_pass * MIN_PASSES)
    totals = passes[0].totals
    b = totals["iccs.baseline"] + (reference["iccs.baseline"] if reference else 0)
    metrics = {
        "compile_s": statistics.median(p.wall for p in passes),
        "circuit_ms.p50": statistics.median(samples) * 1e3,
        "circuit_ms.tail": percentile(samples, pct) * 1e3,
        "iccs": totals["iccs"],
        "ops": totals["ops"],
        "depth": totals["depth"],
        "iccs_reduction_pct": 100.0 * (b - totals["iccs.class"]) / b if b else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
        "ok_frac": 1.0 - len(verifier.failures) / max(verifier.attempted, 1),
    }
    notes.append(f"passes: {len(passes)}, pass walls (s): " + " ".join(f"{p.wall:.3f}" for p in passes))
    notes.append(f"circuit_ms.tail is p{pct:.1f} of {len(samples)} per-circuit samples "
                 f"({len(passes)} passes x {per_pass} circuits; p{pct:.1f} leaves 10 samples "
                 f"beyond it in {MIN_PASSES} passes, the fewest a run makes)")
    notes.append(f"failed_frac: {len(verifier.failures)}/{verifier.attempted}")
    return metrics, notes


def _ms(agg, name, absent) -> float | None:
    if name in absent:
        return None
    return agg.get(name, (0, 0.0, 0.0))[1] * 1e3


def _calls(agg, name, absent) -> int | None:
    return None if name in absent else agg.get(name, (0, 0.0, 0.0))[0]


def layer_metrics(tracer: Tracer, span_range, kept_range, env: Env, check_s: float) -> dict:
    """Per-layer metrics of one traced pass; check_s is the time the checker
    took inside the sweep's tap, which the cli span would count as its own."""
    agg = tracer.summarize(*span_range)
    absent = set(tracer.absent)
    kept = tracer.kept[kept_range[0] : kept_range[1]]

    def results(name):
        return [(cid, r) for label, cid, r in kept if label == name] if name not in absent else None

    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, own) in agg.items():
        self_by_layer[WRAPPED[name][1]] += own * 1e3
    if "main" in agg:
        self_by_layer["cli"] -= check_s * 1e3
    m = {f"{layer}.self_ms": self_by_layer[layer] for layer in LAYERS}

    parsed, sets, s1, s2, routed = (results(n) for n in (
        "parse_circuit", "extract_cidq_sets", "stage1_greedy", "stage2_iterate", "schedule"))
    m["qasm.parse_ms"] = _ms(agg, "parse_circuit", absent)
    m["qasm.ops"] = None if parsed is None else sum(len(c.ops) for _, c in parsed)
    m["cidq.extract_ms"] = _ms(agg, "extract_cidq_sets", absent)
    m["cidq.sets"] = None if sets is None else sum(len(ld) for _, ld in sets)
    m["cidq.pins"] = None if sets is None else sum(
        len(d.measured) + len(d.targets) for _, ld in sets for d in ld)
    m["placement.stage1_ms"] = _ms(agg, "stage1_greedy", absent)
    m["placement.stage2_ms"] = _ms(agg, "stage2_iterate", absent)
    m["placement.cost_ms"] = _ms(agg, "total_cost_L", absent)
    m["placement.cost.calls"] = _calls(agg, "total_cost_L", absent)
    # stage 2's own objective, the unwrapped total_cost_L in pair mode, on
    # the layouts the two stages returned
    cost = tracer.originals.get("total_cost_L")
    ld_of = {} if sets is None else dict(sets)  # circuit id -> its dependency sets

    def stage_iccs(layouts):
        if layouts is None or sets is None or "total_cost_L" in absent:
            return None
        return sum(cost(ld_of[c], mq, env.mc, env.topo, "pair") for c, mq in layouts)

    i1, i2 = stage_iccs(s1), stage_iccs(s2)
    m["placement.stage1_iccs"], m["placement.stage2_iccs"] = i1, i2
    m["placement.refine_yield"] = (
        None if i1 is None or i2 is None else ((i1 - i2) / i1 if i1 else 0.0))
    m["circuit.dag_ms"] = _ms(agg, "build_dag", absent)
    m["circuit.depth_ms"] = _ms(agg, "depth", absent)
    decisions = None if routed is None else [d for _, r in routed for d in r.decisions]
    m["circuit.routed_ops"] = None if routed is None else sum(len(r.circuit.ops) for _, r in routed)
    m["scheduler.route_ms"] = _ms(agg, "schedule", absent)
    if decisions is None:
        for key in ("decisions", "tied_decisions", "tie_frac", "forced", "swaps", "us_per_decision"):
            m[f"scheduler.{key}"] = None
    else:
        tied = sum(1 for d in decisions if not d.forced and len(d.depth_argmin) > 1)
        m["scheduler.decisions"] = len(decisions)
        m["scheduler.tied_decisions"] = tied
        m["scheduler.tie_frac"] = tied / len(decisions) if decisions else 0.0
        m["scheduler.forced"] = sum(1 for d in decisions if d.forced)
        m["scheduler.swaps"] = sum(r.swaps_inserted for _, r in routed)
        m["scheduler.us_per_decision"] = (
            m["scheduler.route_ms"] * 1e3 / len(decisions) if decisions else 0.0)
    for key, name in (("depth_cost", "depth_cost"), ("extended_set", "extended_set"),
                      ("iccs_score", "iccs_score"), ("active_sets", "active_cidq_sets")):
        m[f"scheduler.{key}.calls"] = _calls(agg, name, absent)
        m[f"scheduler.{key}.ms"] = _ms(agg, name, absent)
    m["scheduler.replay_ms"] = _ms(agg, "accumulate_iccs", absent)
    return m


def control_metrics(tracer: Tracer, lo: int, hi: int) -> dict:
    """Median time of one device build and of one topology plus assignment
    build, from the spans of CONTROL_ROUNDS set-ups."""
    per_name: dict[str, list[float]] = {}
    for i in range(lo, hi):
        per_name.setdefault(tracer.names[tracer.name[i]], []).append(tracer.end[i] - tracer.start[i])

    def med(name):
        return statistics.median(per_name[name]) * 1e3 if name in per_name else None

    device, star, split = med("heavy_hex_127_device"), med("star_topology"), med("contiguous_assignment")
    return {
        "control.device_ms": device,
        "control.topology_ms": None if star is None or split is None else star + split,
    }


def measure_traced(wl, env, paths, workdir, verifier, seconds, spans_path):
    """Traced run: untraced and traced passes alternate until the deadline
    (at least TRACED_PASSES of each); per-layer metrics are medians over the
    traced passes."""
    tracer = Tracer()
    tracer.install()
    lo = tracer.mark()[0]
    for _ in range(CONTROL_ROUNDS):
        load(wl, [])
    control = control_metrics(tracer, lo, tracer.mark()[0])
    tracer.uninstall()

    start = time.perf_counter()
    walls = {False: [], True: []}
    per_pass: list[dict] = []
    while min(len(w) for w in walls.values()) < TRACED_PASSES or (
        time.perf_counter() - start + 2 * max(walls[True]) <= seconds
    ):
        for traced in (False, True):
            if traced:
                tracer.install()
            span_lo, kept_lo = tracer.mark()
            try:
                p = run_pass(wl, env, verifier, paths, workdir, tracer=tracer if traced else None)
            finally:
                tracer.uninstall()
            walls[traced].append(p.wall)
            if traced:
                per_pass.append(layer_metrics(
                    tracer, (span_lo, tracer.mark()[0]), (kept_lo, tracer.mark()[1]), env, p.check_s))
                tracer.kept.clear()

    metrics = {}
    for key in PER_LAYER:
        if key in control:
            metrics[key] = control[key]
        elif key == "trace.overhead_pct":
            metrics[key] = 100.0 * (statistics.median(walls[True]) / statistics.median(walls[False]) - 1)
        else:
            values = [m[key] for m in per_pass]
            if None in values:
                metrics[key] = None
            elif all(isinstance(v, int) for v in values):
                metrics[key] = statistics.median_low(values)  # counts repeat exactly
            else:
                metrics[key] = statistics.median(values)
    total = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS)
    notes = [
        f"traced passes: {len(walls[True])}, untraced: {len(walls[False])}; compile_s untraced "
        f"{statistics.median(walls[False]):.3f} s, traced {statistics.median(walls[True]):.3f} s, "
        f"tracing overhead {metrics['trace.overhead_pct']:.1f}% (untraced passes alone ranged "
        f"{min(walls[False]):.3f}..{max(walls[False]):.3f} s: host speed noise of that size "
        "hides an overhead smaller than it)",
        "self time share by layer (of the traced pass wall time): " + ", ".join(
            f"{layer} {100.0 * metrics[f'{layer}.self_ms'] / (1e3 * statistics.median(walls[True])):.1f}%"
            for layer in sorted(LAYERS, key=lambda x: -metrics[f"{x}.self_ms"])),
        f"spans outside any layer: {100.0 - 100.0 * total / (1e3 * statistics.median(walls[True])):.1f}% "
        "of the wall time (benchmark loop)",
    ]
    if tracer.absent:
        notes.append("absent (no longer defined, reported as null): " + ", ".join(tracer.absent))
    tracer.write(spans_path)
    notes.append(f"{len(tracer.start)} spans written to {spans_path.relative_to(HERE.parent)}")
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # single-threaded numpy, before it is imported

    try:
        import_dynlayout()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sources = generate_sources(wl.circuits)  # the inputs do not depend on --seed
        paths = write_inputs(sources, workdir)
        hw = star_hardware((SRC / "dynlayout" / "data" / "heavy_hex_127.txt").read_text(), wl.k)
        env, setup_times = set_up(wl, paths)

        # the checker must pass a good output and catch three planted defects
        probe = generate_sources([SELF_TEST])[0]
        routed, report = env.pipeline.run_pipeline(
            env.qasm.parse_circuit(probe.text), env.mc, env.topo, env.device, mode="class", seed=0)
        self_test_failures = self_test(probe, as_output(routed, report), hw)
        del routed, report

        verifier = Verifier(wl, sources, hw)
        if args.trace:
            spans_path = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
            metrics, notes = measure_traced(wl, env, paths, workdir, verifier, args.seconds, spans_path)
            units = PER_LAYER
        else:
            metrics, notes = measure(wl, env, paths, workdir, verifier, args.seconds, setup_times)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not verifier.failures and not self_test_failures and verifier.stable()
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: "
          f"{', '.join(circuit_label(f, n, b) for f, n, b, _ in wl.circuits)}; k={wl.k}, "
          f"mode seeds {list(wl.mode_seeds)}")
    for note in notes:
        print(note)
    for kind, ds in verifier.digests.items():
        print(f"digest {wl.name} {kind}: {ds[0]} ({len(ds)} passes, "
              f"{'identical' if len(set(ds)) == 1 else 'DIFFERENT: ' + ' '.join(ds)})")
    print("checker self-test: " + ("caught all 3 planted defects" if not self_test_failures
                                   else "; ".join(self_test_failures)))
    for failure in verifier.failures[:20]:
        print(f"FAILED {failure}")
    for key, unit in units.items():
        value = metrics[key]
        print(f"{key:32s} {'absent' if value is None else f'{value:.6g}':>14s} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(verifier.attempted, 1),
        "failed": len(verifier.failures),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
