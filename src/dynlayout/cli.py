"""Command-line surface: gen, place, route, transpile, sweep, oracle.

Circuits are passed either as files in the text grammar or as benchmark
tokens like ``dqft20``, ``pe20``, ``cc12``, ``random20`` (``random20x40``
pins the block count).  Topology comes from a JSON document (see
control.load_topology) or from the ``--k/--device/--controllers`` shortcuts.
Every command is deterministic for a fixed argument vector; reports repeat
byte-for-byte except the runtime fields.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .benchgen import GENERATORS, generate
from .circuit import CircuitError, build_dag
from .cidq import COST_MODES, cost_lower_bound, extract_cidq_sets, total_cost_L
from .control import (
    ConfigError,
    LogicalPhysicalMap,
    contiguous_assignment,
    grid_device,
    heavy_hex_127_device,
    line_device,
    load_topology,
    star_topology,
    star_via_router_topology,
)
from .oracle import InstanceTooLarge, brute_force_placement
from .pipeline import MODES, run_pipeline
from .placement import initial_placement
from .qasm import ParseError, parse_circuit, serialize_circuit

LAYOUT_SCHEMA_VERSION = 1

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
        if blocks is not None and family != "random":
            raise CliError(f"block-count suffix only applies to random benchmarks: {token!r}")
        return generate(family, n, n_blocks=int(blocks) if blocks else None, seed=seed)
    path = Path(token)
    if not path.exists():
        raise CliError(f"{token!r} is neither a benchmark token nor an existing file")
    return parse_circuit(path.read_text())


def _parse_device(token: str):
    """heavy_hex_127, line:M or grid:RxC."""
    m = _DEVICE_RE.match(token)
    if m is None:
        raise CliError(f"unknown device {token!r} (use heavy_hex_127, line:M, or grid:RxC)")
    if m.group("m"):
        return line_device(int(m.group("m")))
    if m.group("rows"):
        return grid_device(int(m.group("rows")), int(m.group("cols")))
    return heavy_hex_127_device()


def _shortcut_setup(device, controllers: str, k: int):
    """(topology, device, assignment) for k controllers of the given kind,
    each owning a contiguous block of the device."""
    if controllers not in ("star", "star_via_router"):
        raise CliError(f"unknown controllers kind {controllers!r}")
    # checks 1 <= k <= m before a k x k hop matrix is built
    mc = contiguous_assignment(device.m, k)
    topo = star_topology(k) if controllers == "star" else star_via_router_topology(k)
    return topo, device, mc


def _load_setup(args):
    """Resolve (topology, device, assignment) from --topology or shortcuts."""
    if args.topology:
        return load_topology(args.topology)
    if args.k is None:
        raise CliError("either --topology or --k is required")
    return _shortcut_setup(_parse_device(args.device), args.controllers, args.k)


def _write_or_print(text: str, out: str | None) -> None:
    if out and out != "-":
        Path(out).write_text(text)
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
    doc = json.loads(Path(path).read_text())
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
    mq = initial_placement(
        mc, ld, topo, device, mode=args.cost_mode, seed=args.seed, sweeps=args.sweeps
    )
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
        sweeps=args.sweeps,
        layout=layout,
    )
    _write_or_print(report.to_json(), args.report)
    return 0


def cmd_transpile(args) -> int:
    args.layout = "auto"
    return cmd_route(args)


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


def _load_source(token: str, seed: int):
    """(circuit, its DAG) of one sweep input, or the exception loading it raised."""
    try:
        circuit = _load_circuit(token, seed=seed)
        return circuit, build_dag(circuit)
    except Exception as exc:  # recorded in every cell of this input
        return exc


def _sweep_cell(cell: dict, setup: tuple, source=None) -> dict:
    """One (benchmark, k, seed) cell: paired class and baseline runs on the
    resolved (topology, device, assignment) of its k.  source is what
    _load_source returned for the cell's input; None loads it here."""
    out = dict(cell)
    topo, device, mc = setup
    if source is None:
        source = _load_source(cell["benchmark"], cell["seed"])
    try:
        if isinstance(source, Exception):
            raise source
        circuit, dag = source
        ld = extract_cidq_sets(circuit)
        out["n"] = circuit.n_qubits
        for mode in MODES:
            _, report = run_pipeline(
                circuit,
                mc,
                topo,
                device,
                mode=mode,
                seed=cell["seed"],
                cost_mode=cell["cost_mode"],
                sweeps=cell["sweeps"],
                dag=dag,
                ld=ld,
            )
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
    device = _parse_device(args.device)
    setups = {k: _shortcut_setup(device, args.controllers, k) for k in ks}
    cells = [
        {
            "benchmark": bench,
            "k": k,
            "seed": seed,
            "cost_mode": args.cost_mode,
            "sweeps": args.sweeps,
        }
        for bench in benchmarks
        for k in ks
        for seed in seeds
    ]
    cell_setups = [setups[cell["k"]] for cell in cells]
    if args.jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_cell, cells, cell_setups))
    else:
        # each input is loaded and its DAG built once: a file once per
        # sweep, a generated token once per seed; only the inputs of the
        # benchmark being swept are kept
        results = []
        by_bench = itertools.groupby(zip(cells, cell_setups), key=lambda cs: cs[0]["benchmark"])
        for bench, group in by_bench:
            generated = _BENCH_RE.match(bench) is not None
            sources = {}  # seed (None for a file) -> what _load_source returned
            for cell, setup in group:
                key = cell["seed"] if generated else None
                if key not in sources:
                    sources[key] = _load_source(bench, cell["seed"])
                results.append(_sweep_cell(cell, setup, sources[key]))

    rows = []
    for res in results:
        rows.append({col: res.get(col, "") for col in _SWEEP_COLUMNS})
    target = args.out
    if target and target != "-":
        with open(target, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_SWEEP_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=_SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

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

    sweeps = argparse.ArgumentParser(add_help=False)
    sweeps.add_argument("--sweeps", type=int, default=1, help="refinement sweeps in placement")

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

    p = add("place", parents=[*setup, sweeps], help="feedforward-aware placement")
    p.add_argument("--circuit", required=True, help="circuit file or benchmark token")
    p.add_argument("--emit-layout", help="layout JSON output (default stdout)")
    p.set_defaults(func=cmd_place)

    p = add("route", parents=[*setup, sweeps], help="SWAP-insert onto the device")
    p.add_argument("--circuit", required=True)
    p.add_argument("--layout", default="auto", help="layout JSON or 'auto'")
    p.add_argument("--mode", choices=MODES, default="class")
    p.add_argument("--report", help="metrics JSON output (default stdout)")
    p.set_defaults(func=cmd_route)

    p = add("transpile", parents=[*setup, sweeps], help="place then route")
    p.add_argument("--circuit", required=True)
    p.add_argument("--mode", choices=MODES, default="class")
    p.add_argument("--report", help="metrics JSON output (default stdout)")
    p.set_defaults(func=cmd_transpile)

    p = add("sweep", parents=[cost, device, sweeps], help="benchmark x k x seed grid")
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
        # Baseline mode, a given --layout and sweep cells never reach the
        # placement that rejects it, so the flag is checked here.
        if getattr(args, "sweeps", 1) < 1:
            raise CliError(f"--sweeps must be at least 1, got {args.sweeps}")
        return args.func(args)
    except (CliError, ConfigError, CircuitError, ParseError, InstanceTooLarge, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
