"""Command-line surface: gen, place, route, transpile, sweep, oracle.

Circuits are passed either as files in the text grammar or as benchmark
tokens like ``dqft20``, ``pe20``, ``cc12``, ``random20`` (``random20x40``
pins the block count).  Topology comes from a JSON document (see
control.load_topology) or from the ``--k/--device/--controllers`` shortcuts,
which stand for such a document.
Every command is deterministic for a fixed argument vector; reports repeat
byte-for-byte except the runtime fields.
"""
from __future__ import annotations

import argparse
import collections
import csv
import io
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .benchgen import GENERATORS, generate
from .cidq import COST_MODES, cost_lower_bound, extract_cidq_sets, total_cost_L
from .control import LogicalPhysicalMap, load_topology
from .oracle import brute_force_placement
from .pipeline import MODES, run_pipeline
from .placement import initial_placement
from .qasm import parse_circuit, serialize_circuit

LAYOUT_SCHEMA_VERSION = 1
# sweep --jobs keeps this many cells per worker in flight: one running and
# one queued, so no worker waits for the parent to hand over its next cell
SWEEP_WINDOW_PER_JOB = 2

_BENCH_RE = re.compile(r"^(dqft|ipe|pe|cc|random)(\d+)(?:x(\d+))?$")
_DEVICE_RE = re.compile(r"^(?:heavy_hex_127|line:(?P<m>\d+)|grid:(?P<rows>\d+)x(?P<cols>\d+))$")


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one `error: ...` line (exit 2),
    like every other CLI error, instead of a usage block."""

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {' '.join(message.split())}\n")


def _load_circuit(token: str, seed: int = 0):
    m = _BENCH_RE.match(token)
    if m:
        family, n, blocks = m.group(1), int(m.group(2)), m.group(3)
        return generate(family, n, n_blocks=int(blocks) if blocks else None, seed=seed)
    path = Path(token)
    if not path.exists():
        raise CliError(f"{token!r} is neither a benchmark token nor an existing file")
    return parse_circuit(path.read_text())


def _setup_doc(device: str, controllers: str, k: int) -> dict:
    """The topology document that --device (heavy_hex_127, line:M or
    grid:RxC), --controllers and --k stand for: k controllers of that kind,
    each owning a contiguous block of the device."""
    m = _DEVICE_RE.match(device)
    if m is None:
        raise CliError(f"unknown device {device!r} (use heavy_hex_127, line:M, or grid:RxC)")
    if m.group("m"):
        dspec = {"kind": "line", "m": int(m.group("m"))}
    elif m.group("rows"):
        dspec = {"kind": "grid", "rows": int(m.group("rows")), "cols": int(m.group("cols"))}
    else:
        dspec = {"kind": "heavy_hex_127"}
    return {"controllers": {"kind": controllers, "k": k}, "device": dspec}


def _load_setup(args):
    """Resolve (topology, device, assignment) from --topology or shortcuts."""
    if args.topology:
        return load_topology(args.topology)
    if args.k is None:
        raise CliError("either --topology or --k is required")
    return load_topology(_setup_doc(args.device, args.controllers, args.k))


def _write_or_print(text: str, out: str | None) -> None:
    if out and out != "-":
        Path(out).write_text(text, newline="")
    else:
        sys.stdout.write(text)


def _layout_doc(mq: LogicalPhysicalMap, cost: int, lower_bound: int) -> str:
    """A layout with its cost and the certified lower bound on that cost; a
    cost equal to the bound proves the placement optimal."""
    doc = {
        "schema_version": LAYOUT_SCHEMA_VERSION,
        "n_qubits": mq.n,
        "m_physical": mq.m,
        "cost": cost,
        "lower_bound": lower_bound,
        "layout": list(mq.forward),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _read_layout(path: str, n_qubits: int, m_physical: int) -> LogicalPhysicalMap:
    """The document `place` writes: an object whose "layout" lists, for each
    logical qubit, a physical qubit in 0..m-1 (an integer, not a bool or float)."""
    try:
        doc = json.loads(Path(path).read_text())
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply") from None
    fwd = doc.get("layout") if isinstance(doc, dict) else None
    if not isinstance(fwd, list) or any(type(p) is not int for p in fwd):
        raise CliError(f"{path}: expected an object whose \"layout\" is a list of integers")
    if len(fwd) != n_qubits:
        raise CliError(f"layout covers {len(fwd)} logical qubits, circuit has {n_qubits}")
    mq = LogicalPhysicalMap(n_qubits, m_physical)
    for q, p in enumerate(fwd):
        if not 0 <= p < m_physical:
            raise CliError(f"layout places logical qubit {q} on {p}, outside 0..{m_physical - 1}")
        mq.assign(q, p)
    return mq


def cmd_gen(args) -> int:
    if args.family not in GENERATORS:
        raise CliError(f"unknown family {args.family!r} (choose from {sorted(GENERATORS)})")
    circuit = generate(args.family, args.n, n_blocks=args.blocks, seed=args.seed)
    _write_or_print(serialize_circuit(circuit), args.out)
    return 0


def cmd_place(args) -> int:
    circuit = _load_circuit(args.circuit, seed=args.seed)
    topo, device, mc = _load_setup(args)
    ld = extract_cidq_sets(circuit)
    mq = initial_placement(mc, ld, topo, device, mode=args.cost_mode, seed=args.seed)
    cost = total_cost_L(ld, mq, mc, topo, args.cost_mode)
    bound = cost_lower_bound(ld, mc, topo, args.cost_mode)
    _write_or_print(_layout_doc(mq, cost, bound), args.emit_layout)
    return 0


def cmd_route(args) -> int:
    circuit = _load_circuit(args.circuit, seed=args.seed)
    topo, device, mc = _load_setup(args)
    layout = None
    if args.layout != "auto":
        layout = _read_layout(args.layout, circuit.n_qubits, device.m)
    _, report = run_pipeline(
        circuit,
        mc,
        topo,
        device,
        mode=args.mode,
        seed=args.seed,
        cost_mode=args.cost_mode,
        layout=layout,
    )
    _write_or_print(report.to_json(), args.report)
    return 0


def cmd_oracle(args) -> int:
    circuit = _load_circuit(args.circuit, seed=args.seed)
    topo, device, mc = _load_setup(args)
    ld = extract_cidq_sets(circuit)
    optimum, mq = brute_force_placement(ld, mc, topo, args.cost_mode)
    bound = cost_lower_bound(ld, mc, topo, args.cost_mode)
    _write_or_print(_layout_doc(mq, optimum, bound), args.out)
    return 0


def _parse_int_list(text: str) -> list[int]:
    """"0,3,7" or "0..9" (inclusive)."""
    m = re.match(r"^(\d+)\.\.(\d+)$", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise CliError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise CliError(f"expected integers or a..b range, got {text!r}") from None


def _sweep_sources(cells: list[dict]):
    """The circuit of each cell's input, in cell order, or the error text
    loading it raised.  A file loads once per sweep and a generated token
    once per seed; only the inputs of the benchmark being swept are kept.
    An error goes as text, since not every exception survives pickling."""
    bench, loaded = None, {}  # seed (None for a file) -> circuit or error text
    for cell in cells:
        if cell["benchmark"] != bench:
            bench, loaded = cell["benchmark"], {}
        key = cell["seed"] if _BENCH_RE.match(bench) else None
        if key not in loaded:
            try:
                loaded[key] = _load_circuit(bench, seed=cell["seed"])
            except Exception as exc:  # recorded in every cell of this input
                loaded[key] = f"{type(exc).__name__}: {exc}"
        yield loaded[key]


def _sweep_cell(cell: dict, setup: tuple, source) -> dict:
    """One (benchmark, k, seed) cell: paired class and baseline runs of
    source, the cell's circuit or the error text loading it raised, on the
    resolved (topology, device, assignment) of its k."""
    out = dict(cell)
    if isinstance(source, str):
        out["error"] = source
        return out
    topo, device, mc = setup
    out["n"] = source.n_qubits
    try:
        for mode in MODES:
            _, report = run_pipeline(source, mc, topo, device, mode=mode, seed=cell["seed"],
                                     cost_mode=cell["cost_mode"])
            out[f"{mode}_iccs"] = report.iccs
            out[f"{mode}_operations"] = report.operations
            out[f"{mode}_depth"] = report.depth
            out[f"{mode}_swaps"] = report.swaps_inserted
            out[f"{mode}_runtime_ms"] = round(report.runtime_ms, 3)
        b, c = out["baseline_iccs"], out["class_iccs"]
        out["reduction_pct"] = round(100.0 * (b - c) / b, 2) if b else ""
        out["error"] = ""
    except Exception as exc:  # cell isolation: record and keep sweeping
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


_SWEEP_COLUMNS = [
    "benchmark",
    "n",
    "k",
    "seed",
    "cost_mode",
    "class_iccs",
    "baseline_iccs",
    "reduction_pct",
    "class_operations",
    "baseline_operations",
    "class_depth",
    "baseline_depth",
    "class_swaps",
    "baseline_swaps",
    "class_runtime_ms",
    "baseline_runtime_ms",
    "error",
]


def cmd_sweep(args) -> int:
    benchmarks = [b for b in args.benchmarks.split(",") if b]
    ks = _parse_int_list(args.k_values)
    seeds = _parse_int_list(args.seeds)
    for flag, values in (("--benchmarks", benchmarks), ("--k-values", ks), ("--seeds", seeds)):
        if not values:
            raise CliError(f"{flag} lists no values, so the sweep has no cells")
    setups = {k: load_topology(_setup_doc(args.device, args.controllers, k)) for k in ks}
    cells = [
        {"benchmark": bench, "k": k, "seed": seed, "cost_mode": args.cost_mode}
        for bench in benchmarks
        for k in ks
        for seed in seeds
    ]
    inputs = zip(cells, (setups[cell["k"]] for cell in cells), _sweep_sources(cells))
    if args.jobs > 1 and len(cells) > 1:
        # at most SWEEP_WINDOW_PER_JOB * jobs cells in flight: the parent
        # loads, and holds pickled, only their inputs, and a new cell is
        # handed over as soon as the oldest one's result is taken
        results, running = [], collections.deque()
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for cell_input in inputs:
                if len(running) == SWEEP_WINDOW_PER_JOB * args.jobs:
                    results.append(running.popleft().result())
                running.append(pool.submit(_sweep_cell, *cell_input))
            results.extend(future.result() for future in running)
    else:
        results = [_sweep_cell(*cell_input) for cell_input in inputs]

    rows = [{col: res.get(col, "") for col in _SWEEP_COLUMNS} for res in results]
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=_SWEEP_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    _write_or_print(text.getvalue(), args.out)

    good = [r for r in rows if not r["error"]]
    failed = len(rows) - len(good)
    if good:
        mean_c = sum(r["class_iccs"] for r in good) / len(good)
        mean_b = sum(r["baseline_iccs"] for r in good) / len(good)
        reduction = 100.0 * (mean_b - mean_c) / mean_b if mean_b else 0.0
        print(
            f"sweep: {len(good)} cells ok, {failed} failed; "
            f"mean iccs class={mean_c:.2f} baseline={mean_b:.2f} "
            f"reduction={reduction:.2f}%",
            file=sys.stderr,
        )
    else:
        print(f"sweep: all {len(rows)} cells failed", file=sys.stderr)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    # one parent per group of flags; each subcommand takes the groups it reads
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for every random choice")

    cost = argparse.ArgumentParser(add_help=False)
    cost.add_argument("--cost-mode", choices=COST_MODES, default="pair")

    device = argparse.ArgumentParser(add_help=False)
    device.add_argument(
        "--device", default="heavy_hex_127", help="heavy_hex_127 | line:M | grid:RxC"
    )
    device.add_argument(
        "--controllers", default="star", choices=("star", "star_via_router"),
        help="controller interconnect used with --k",
    )

    topology = argparse.ArgumentParser(add_help=False)
    topology.add_argument("--topology", help="topology JSON document")
    topology.add_argument("--k", type=int, help="controller count (shortcut for --topology)")

    setup = [seed, cost, device, topology]  # one circuit on one resolved setup

    # subparsers are built with the same class, so their errors are one line too
    parser = _Parser(prog="dynlayout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        # no abbreviations: sweep's --seeds and --k-values must not also
        # answer to the --seed and --k it does not read
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    p = add("gen", parents=[seed], help="emit a benchmark circuit")
    p.add_argument("family", help="dqft | ipe | pe | cc | random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--blocks", type=int, help="block count for the random family")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = add("place", parents=setup, help="feedforward-aware placement")
    p.add_argument("--circuit", required=True, help="circuit file or benchmark token")
    p.add_argument("--emit-layout", help="layout JSON output (default stdout)")
    p.set_defaults(func=cmd_place)

    p = add("route", parents=setup, help="SWAP-insert onto the device")
    p.add_argument("--circuit", required=True)
    p.add_argument("--layout", default="auto", help="layout JSON or 'auto'")
    p.add_argument("--mode", choices=MODES, default="class")
    p.add_argument("--report", help="metrics JSON output (default stdout)")
    p.set_defaults(func=cmd_route)

    p = add("transpile", parents=setup, help="place then route")
    p.add_argument("--circuit", required=True)
    p.add_argument("--mode", choices=MODES, default="class")
    p.add_argument("--report", help="metrics JSON output (default stdout)")
    p.set_defaults(func=cmd_route, layout="auto")

    p = add("sweep", parents=[cost, device], help="benchmark x k x seed grid")
    p.add_argument("--benchmarks", required=True, help="comma-separated tokens or files")
    p.add_argument("--k-values", required=True, help='"4,6,8" or "4..8"')
    p.add_argument("--seeds", default="0", help='"0,1,2" or "0..9"')
    p.add_argument("--out", help="CSV output (default stdout)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_sweep)

    p = add("oracle", parents=setup, help="exhaustive optimum placement")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out", help="layout JSON output (default stdout)")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # --jobs < 1 would otherwise run serially
        if getattr(args, "jobs", 1) < 1:
            raise CliError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:  # every library error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
