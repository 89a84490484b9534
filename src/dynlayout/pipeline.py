"""End-to-end compile runs and their metric reports.

Two modes share one code path.  "class" seeds routing with the
communication-aware placement and breaks SWAP ties by feedforward cost;
"baseline" is the ablation: a seeded uniformly-random complete layout and
seeded-random tie-breaking.  Everything downstream of those two choices is
identical, so paired-seed comparisons isolate the contribution of the
placement and the tie-break.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .circuit import Circuit, OpDag, build_dag, depth
from .cidq import CidqList, extract_cidq_sets
from .control import (
    ControllerTopology,
    DeviceGraph,
    LogicalPhysicalMap,
    QubitControllerMap,
)
from .placement import initial_placement, random_layout
from .scheduler import RoutedCircuit, accumulate_iccs, schedule

SCHEMA_VERSION = 1
MODES = ("class", "baseline")


@dataclass
class MetricsReport:
    """Post-compilation metrics plus enough config echo to rerun the cell.

    Serialized form is stable: keys sorted, runtime_ms the only field that
    varies between identical reruns.
    """

    mode: str
    seed: int
    cost_mode: str
    operations: int
    depth: int
    iccs: int
    swaps_inserted: int
    runtime_ms: float
    config: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "mode": self.mode,
            "seed": self.seed,
            "cost_mode": self.cost_mode,
            "operations": self.operations,
            "depth": self.depth,
            "iccs": self.iccs,
            "swaps_inserted": self.swaps_inserted,
            "runtime_ms": self.runtime_ms,
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def build_layout(
    circuit: Circuit,
    ld: CidqList,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    device: DeviceGraph,
    mode: str,
    seed: int,
    cost_mode: str = "pair",
    sweeps: int = 1,
) -> LogicalPhysicalMap:
    """Initial layout for the given mode: communication-aware placement for
    "class", seeded uniform random for "baseline"."""
    if mode == "class":
        return initial_placement(mc, ld, topo, device, mode=cost_mode, seed=seed, sweeps=sweeps)
    if mode == "baseline":
        return random_layout(circuit.n_qubits, device.m, seed=seed)
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def run_pipeline(
    circuit: Circuit,
    mc: QubitControllerMap,
    topo: ControllerTopology,
    device: DeviceGraph,
    mode: str = "class",
    seed: int = 0,
    cost_mode: str = "pair",
    sweeps: int = 1,
    layout: LogicalPhysicalMap | None = None,
    dag: OpDag | None = None,
    ld: CidqList | None = None,
) -> tuple[RoutedCircuit, MetricsReport]:
    """Place (unless a layout is supplied), route, and measure one circuit.

    dag and ld, when given, must be the circuit's own DAG and dependency
    sets (build_dag and extract_cidq_sets of this very circuit): a caller
    compiling one circuit several times builds them once and passes them in.
    """
    t0 = time.perf_counter()
    if ld is None:
        ld = extract_cidq_sets(circuit)
    if layout is None:
        layout = build_layout(circuit, ld, mc, topo, device, mode, seed, cost_mode, sweeps)
    if dag is None:
        dag = build_dag(circuit)
    routed = schedule(
        circuit,
        dag,
        layout,
        mc,
        topo,
        device,
        ld=ld,
        cost_mode=cost_mode,
        seed=seed,
        tie_break="iccs" if mode == "class" else "random",
    )
    iccs = accumulate_iccs(routed, ld, mc, topo, cost_mode)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    report = MetricsReport(
        mode=mode,
        seed=seed,
        cost_mode=cost_mode,
        operations=routed.circuit.count_ops(),
        depth=depth(routed.circuit),
        iccs=iccs,
        swaps_inserted=routed.swaps_inserted,
        runtime_ms=runtime_ms,
        config={
            "n_qubits": circuit.n_qubits,
            "m_physical": device.m,
            "k_controllers": mc.k,
            "sweeps": sweeps,
        },
    )
    return routed, report
