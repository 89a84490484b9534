"""Spans around dynlayout's public functions, recorded from outside.

The tracer replaces each wrapped name in every dynlayout module that binds
it (so `run_pipeline`, `initial_placement` and `cli` see the wrapper) and
puts the original back on uninstall.  A span is (name, start, end, parent,
circuit id); spans stay in memory in flat arrays and are written out once,
at the end of the run.  A name that no dynlayout module defines any more is
reported as absent.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from pathlib import Path

# wrapped public name -> (module that defines it today, layer)
WRAPPED = {
    "parse_circuit": ("dynlayout.qasm", "qasm"),
    "extract_cidq_sets": ("dynlayout.cidq", "cidq"),
    "initial_placement": ("dynlayout.placement", "placement"),
    "random_layout": ("dynlayout.placement", "placement"),
    "stage1_greedy": ("dynlayout.placement", "placement"),
    "stage2_iterate": ("dynlayout.placement", "placement"),
    "total_cost_L": ("dynlayout.cidq", "placement"),
    "build_dag": ("dynlayout.circuit", "circuit"),
    "depth": ("dynlayout.circuit", "circuit"),
    "schedule": ("dynlayout.scheduler", "scheduler"),
    "depth_cost": ("dynlayout.scheduler", "scheduler"),
    "extended_set": ("dynlayout.scheduler", "scheduler"),
    "active_cidq_sets": ("dynlayout.scheduler", "scheduler"),
    "iccs_score": ("dynlayout.scheduler", "scheduler"),
    "accumulate_iccs": ("dynlayout.scheduler", "scheduler"),
    "run_pipeline": ("dynlayout.pipeline", "pipeline"),
    "main": ("dynlayout.cli", "cli"),
    "heavy_hex_127_device": ("dynlayout.control", "control"),
    "star_topology": ("dynlayout.control", "control"),
    "contiguous_assignment": ("dynlayout.control", "control"),
}
LAYERS = ("qasm", "cidq", "placement", "circuit", "scheduler", "pipeline", "cli", "control")
# names whose return values the per-layer counts are read from
KEPT = frozenset({"parse_circuit", "extract_cidq_sets", "stage1_greedy", "stage2_iterate", "schedule"})


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("dynlayout") and m]


def _original(name: str, home: str):
    """The function a wrapped name denotes: from its home module, else from
    any dynlayout module that defines a function of that name."""
    fn = getattr(sys.modules.get(home), name, None)
    if callable(fn):
        return fn
    for m in _modules():
        fn = getattr(m, name, None)
        if callable(fn) and getattr(fn, "__module__", "").startswith("dynlayout"):
            return fn
    return None


class Tracer:
    def __init__(self):
        self.names = list(WRAPPED)
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}  # wrapped name -> the function it wraps
        self.circuit = -1  # id stamped on new spans; set by the workload runner
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.circuit_of = array("l")
        self.kept: list[tuple[str, int, object]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for idx, name in enumerate(self.names):
            fn = _original(name, WRAPPED[name][0])
            if fn is None:
                self.absent.append(name)
                continue
            self.originals[name] = fn
            wrapper = self._wrap(idx, fn, name in KEPT)
            for m in _modules():
                if getattr(m, name, None) is fn:
                    self._patches.append((m, name, fn))
                    setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for m, name, fn in reversed(self._patches):
            setattr(m, name, fn)
        self._patches = []

    def _wrap(self, idx: int, fn, keep: bool):
        names, starts, ends, parents, circuits = (
            self.name, self.start, self.end, self.parent, self.circuit_of)
        stack, kept, label = self._stack, self.kept, self.names[idx]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            circuits.append(self.circuit)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if keep:
                kept.append((label, circuits[i], result))
            return result

        return traced

    def mark(self) -> tuple[int, int]:
        return len(self.start), len(self.kept)

    def summarize(self, lo: int, hi: int) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over spans lo..hi-1.
        Self time is a span's duration minus that of its direct children."""
        child = {}
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] = child.get(p, 0.0) + self.end[i] - self.start[i]
        out = {}
        for i in range(lo, hi):
            dur = self.end[i] - self.start[i]
            calls, total, own = out.get(self.names[self.name[i]], (0, 0.0, 0.0))
            out[self.names[self.name[i]]] = (calls + 1, total + dur, own + dur - child.get(i, 0.0))
        return out

    def write(self, path: Path) -> None:
        """All spans as gzip-compressed JSON lines, times in microseconds
        from the first span."""
        t0 = self.start[0] if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([
                    self.names[self.name[i]],
                    round((self.start[i] - t0) * 1e6, 1),
                    round((self.end[i] - t0) * 1e6, 1),
                    self.parent[i],
                    self.circuit_of[i],
                ]) + "\n")
