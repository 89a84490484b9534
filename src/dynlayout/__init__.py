"""Layout synthesis for dynamic quantum circuits on distributed controllers.

Mid-circuit measurement outcomes that condition gates on qubits owned by a
different controller cost inter-controller communication steps (ICCS).  This
package models that cost, places logical qubits to minimize it, and routes
circuits with a SWAP scheduler that breaks ties by it.
"""
from .benchgen import GENERATORS, generate
from .circuit import (
    Circuit,
    CircuitError,
    OpDag,
    Operation,
    build_dag,
    depth,
)
from .cidq import (
    COST_MODES,
    CidqList,
    CidqSet,
    FeedforwardHypergraph,
    build_hypergraph,
    extract_cidq_sets,
    total_cost_L,
)
from .control import (
    ConfigError,
    ControllerTopology,
    DeviceGraph,
    LogicalPhysicalMap,
    QubitControllerMap,
    contiguous_assignment,
    controller_of,
    grid_device,
    heavy_hex_127_device,
    line_device,
    load_topology,
    matrix_topology,
    star_topology,
    star_via_router_topology,
)
from .oracle import InstanceTooLarge, brute_force_placement
from .pipeline import MetricsReport, run_pipeline
from .placement import (
    InvalidMovement,
    Movement,
    apply_movement,
    initial_placement,
    movement_gain,
    random_layout,
    stage1_greedy,
    stage2_iterate,
)
from .qasm import ParseError, parse_circuit, serialize_circuit
from .scheduler import (
    RoutedCircuit,
    accumulate_iccs,
    active_cidq_sets,
    depth_cost,
    iccs_score,
    obtain_swaps,
    schedule,
)

__version__ = "0.1.0"

__all__ = [
    "COST_MODES",
    "GENERATORS",
    "Circuit",
    "CircuitError",
    "CidqList",
    "CidqSet",
    "ConfigError",
    "ControllerTopology",
    "DeviceGraph",
    "FeedforwardHypergraph",
    "InstanceTooLarge",
    "InvalidMovement",
    "LogicalPhysicalMap",
    "MetricsReport",
    "Movement",
    "OpDag",
    "Operation",
    "ParseError",
    "QubitControllerMap",
    "RoutedCircuit",
    "accumulate_iccs",
    "active_cidq_sets",
    "apply_movement",
    "brute_force_placement",
    "build_dag",
    "build_hypergraph",
    "contiguous_assignment",
    "controller_of",
    "depth",
    "depth_cost",
    "extract_cidq_sets",
    "generate",
    "grid_device",
    "heavy_hex_127_device",
    "iccs_score",
    "initial_placement",
    "line_device",
    "load_topology",
    "matrix_topology",
    "movement_gain",
    "obtain_swaps",
    "parse_circuit",
    "random_layout",
    "run_pipeline",
    "schedule",
    "serialize_circuit",
    "stage1_greedy",
    "stage2_iterate",
    "star_topology",
    "star_via_router_topology",
    "total_cost_L",
]
