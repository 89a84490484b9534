"""Independent checker for routed outputs, and the output digest.

Nothing here calls dynlayout.  The checker sees the source circuit as the
benchmark generated it, the compiler's output as plain tuples, the coupling
map read from the device's edge-list file and the contiguous controller
split, and checks that:

- the initial layout is complete and injective, and the replayed layout
  equals the reported final one;
- every two-qubit op of the output, inserted SWAPs included, sits on a
  coupling edge;
- replaying the inserted SWAPs from the initial layout maps every other
  output op back to its source op, each source op exactly once, in an order
  that keeps per-qubit order and per-clbit write/read order;
- the report's swaps, operations, depth and iccs equal the checker's own
  counts; iccs is replayed in `pair` convention: per measurement event, one
  step per hop between the measured qubit's controller at measure time and
  each distinct controller a dependent op ran on.

Each problem is a string whose first word names the check: layout, edge,
replay, report or iccs.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from workloads import Op, Source


@dataclass(frozen=True)
class Hardware:
    m: int
    edges: frozenset[tuple[int, int]]
    controller: tuple[int, ...]  # physical qubit -> controller
    hop: int  # star: one hop between any two controllers


def read_edge_list(text: str) -> frozenset[tuple[int, int]]:
    edges = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            a, b = int(line[0]), int(line[1])
            edges.add((min(a, b), max(a, b)))
    return frozenset(edges)


def star_hardware(edge_text: str, k: int) -> Hardware:
    """Coupling edges from an edge-list file, physical qubits split into k
    contiguous blocks (earlier controllers take the larger blocks)."""
    edges = read_edge_list(edge_text)
    m = 1 + max(b for _, b in edges)
    base, extra = divmod(m, k)
    controller = []
    for c in range(k):
        controller += [c] * (base + (1 if c < extra else 0))
    return Hardware(m, edges, tuple(controller), 1)


@dataclass(frozen=True)
class Output:
    """One compile result as plain data."""

    layout: tuple[int, ...]  # logical -> physical before routing
    final: tuple[int, ...]  # logical -> physical after routing
    ops: tuple[Op, ...]  # over physical qubits
    report: dict


def _clbit_plan(src: Source):
    """Per clbit: the op index of each write, and for every reading op the
    index (into those writes) of the write it reads."""
    writes: dict[int, list[int]] = {}
    reads_per_epoch: dict[tuple[int, int], int] = {}
    read_epoch: dict[tuple[int, int], int] = {}  # (op, bit) -> epoch
    for i, (name, _, _, clbit, cond) in enumerate(src.ops):
        for bit, _ in cond or ():
            epoch = len(writes.get(bit, ())) - 1
            read_epoch[(i, bit)] = epoch
            reads_per_epoch[(bit, epoch)] = reads_per_epoch.get((bit, epoch), 0) + 1
        if name == "measure":
            writes.setdefault(clbit, []).append(i)
    return writes, reads_per_epoch, read_epoch


def check_output(src: Source, out: Output, hw: Hardware) -> list[str]:
    n = src.n_qubits
    layout = out.layout
    if len(layout) != n or len(set(layout)) != n or not all(0 <= p < hw.m for p in layout):
        return [f"layout: initial layout {list(layout)} is not a complete injective map"]

    at = [-1] * hw.m  # physical -> logical, replayed
    for q, p in enumerate(layout):
        at[p] = q
    on_qubit: list[list[int]] = [[] for _ in range(n)]
    for i, (_, qubits, _, _, _) in enumerate(src.ops):
        for q in qubits:
            on_qubit[q].append(i)
    next_on = [0] * n
    writes, reads_per_epoch, read_epoch = _clbit_plan(src)
    writes_done: dict[int, int] = {}
    reads_done: dict[tuple[int, int], int] = {}

    event_of_write = {}  # measure op index -> source controller at measure time
    deliveries: dict[int, set[int]] = {}  # measure op index -> target controllers
    last_level: dict[int, int] = {}
    write_level: dict[int, int] = {}
    read_level: dict[int, int] = {}
    depth = swaps = 0
    problems: list[str] = []

    for j, (name, qubits, params, clbit, cond) in enumerate(out.ops):
        if not all(0 <= p < hw.m for p in qubits):
            return problems + [f"replay: output op {j} uses a qubit outside the device"]
        if len(qubits) == 2 and (min(qubits), max(qubits)) not in hw.edges:
            problems.append(f"edge: output op {j} {name} on {qubits}, not a coupling edge")

        level = max((last_level.get(p, 0) for p in qubits), default=0)
        for bit, _ in cond or ():
            level = max(level, write_level.get(bit, 0))
        if name == "measure":
            level = max(level, write_level.get(clbit, 0), read_level.get(clbit, 0))
        level += 0 if name == "barrier" else 1
        depth = max(depth, level)
        for p in qubits:
            last_level[p] = level
        for bit, _ in cond or ():
            read_level[bit] = max(read_level.get(bit, 0), level)
        if name == "measure":
            write_level[clbit] = level
            read_level[clbit] = 0

        if name == "swap":  # the workloads' sources hold no swap gates
            pa, pb = qubits
            at[pa], at[pb] = at[pb], at[pa]
            swaps += 1
            continue
        logical = tuple(at[p] for p in qubits)
        if min(logical) < 0 or next_on[logical[0]] >= len(on_qubit[logical[0]]):
            return problems + [f"replay: output op {j} {name} on {qubits} maps to no pending source op"]
        i = on_qubit[logical[0]][next_on[logical[0]]]
        if src.ops[i] != (name, logical, params, clbit, cond):
            return problems + [
                f"replay: output op {j} {(name, logical, params, clbit, cond)} "
                f"does not match source op {i} {src.ops[i]}"
            ]
        for q in logical:
            if next_on[q] >= len(on_qubit[q]) or on_qubit[q][next_on[q]] != i:
                return problems + [f"replay: source op {i} runs out of order on logical qubit {q}"]
            next_on[q] += 1
        for bit, _ in cond or ():
            epoch = read_epoch[(i, bit)]
            if writes_done.get(bit, 0) != epoch + 1:
                return problems + [f"replay: source op {i} reads clbit {bit} out of order"]
            reads_done[(bit, epoch)] = reads_done.get((bit, epoch), 0) + 1
            event = writes[bit][epoch]
            deliveries.setdefault(event, set()).update(hw.controller[p] for p in qubits)
        if name == "measure":
            done = writes_done.get(clbit, 0)
            prev = (clbit, done - 1)
            in_order = done < len(writes[clbit]) and writes[clbit][done] == i
            if not in_order or reads_done.get(prev, 0) != reads_per_epoch.get(prev, 0):
                return problems + [f"replay: source op {i} writes clbit {clbit} out of order"]
            writes_done[clbit] = done + 1
            event_of_write[i] = hw.controller[qubits[0]]

    missing = [q for q in range(n) if next_on[q] != len(on_qubit[q])]
    if missing:
        problems.append(f"replay: source ops on logical qubits {missing[:5]} never ran")
    final = [-1] * n
    for p, q in enumerate(at):
        if q >= 0:
            final[q] = p
    if tuple(final) != tuple(out.final):
        problems.append("layout: replayed final layout differs from the reported one")

    iccs = sum(
        hw.hop * len(targets - {event_of_write[event]}) for event, targets in deliveries.items()
    )
    report = out.report
    if report.get("iccs") != iccs:
        problems.append(f"iccs: reported {report.get('iccs')}, replay gives {iccs}")
    expect = {"swaps_inserted": swaps, "depth": depth, "operations": len(out.ops)}
    for key, value in expect.items():
        if report.get(key) != value:
            problems.append(f"report: {key} is {report.get(key)}, output gives {value}")
    return problems


def digest(out: Output) -> str:
    """Hash of the layout, the routed op list and the report without its
    timing fields (keys ending in _ms)."""
    h = hashlib.sha256()
    h.update(repr((out.layout, out.final, out.ops)).encode())
    report = {k: v for k, v in out.report.items() if not k.endswith("_ms")}
    h.update(json.dumps(report, sort_keys=True).encode())
    return h.hexdigest()


def combine(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


def self_test(src: Source, good: Output, hw: Hardware) -> list[str]:
    """Check that the checker passes a good output and catches three known
    defects in copies of it.  Returns the failures of the checker itself."""
    failures = []
    found = check_output(src, good, hw)
    if found:
        failures.append(f"good output rejected: {found[0]}")
    ops = list(good.ops)

    # a SWAP dropped: the first one whose qubits a later op touches
    drop = next(
        (
            j
            for j, op in enumerate(ops)
            if op[0] == "swap" and any(set(op[1]) & set(o[1]) for o in ops[j + 1 :])
        ),
        None,
    )
    # a two-qubit gate moved off the coupling map
    move = next((j for j, op in enumerate(ops) if op[0] != "swap" and len(op[1]) == 2), None)
    if drop is None or move is None:
        return failures + ["self-test circuit has no SWAP or no two-qubit gate to mutate"]
    a, b = ops[move][1]
    far = next(p for p in range(hw.m) if p not in (a, b) and (min(a, p), max(a, p)) not in hw.edges)
    moved = list(ops)
    moved[move] = (ops[move][0], (a, far), *ops[move][2:])
    cases = [
        ("swap dropped", tuple(ops[:drop] + ops[drop + 1 :]), good.report, ("replay", "edge")),
        ("gate off edge", tuple(moved), good.report, ("edge",)),
        ("iccs off by one", good.ops, {**good.report, "iccs": good.report["iccs"] + 1}, ("iccs",)),
    ]
    for label, bad_ops, bad_report, kinds in cases:
        found = check_output(src, Output(good.layout, good.final, bad_ops, bad_report), hw)
        if not any(p.split(":", 1)[0] in kinds for p in found):
            failures.append(f"{label} not caught (got {found})")
    return failures
