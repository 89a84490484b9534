"""Layout synthesis for dynamic quantum circuits on distributed controllers.

Mid-circuit measurement outcomes that condition gates on qubits owned by a
different controller cost inter-controller communication steps (ICCS).  This
package models that cost, places logical qubits to minimize it, and routes
circuits with a SWAP scheduler that breaks ties by it.
"""
from .benchgen import generate
from .circuit import CircuitError, build_dag
from .cidq import COST_MODES, build_hypergraph, extract_cidq_sets, total_cost_L
from .control import (
    ConfigError,
    LogicalPhysicalMap,
    contiguous_assignment,
    controller_of,
    heavy_hex_127_device,
    line_device,
    load_topology,
    matrix_topology,
    star_topology,
    star_via_router_topology,
)
from .oracle import InstanceTooLarge, brute_force_placement
from .pipeline import run_pipeline
from .placement import (
    InvalidMovement,
    Movement,
    apply_movement,
    initial_placement,
    movement_gain,
    stage1_greedy,
    stage2_iterate,
)
from .qasm import ParseError, parse_circuit, serialize_circuit

__version__ = "0.1.0"

# what the CLI, the demos, the README and the acceptance gate use, plus the
# error types; everything else is imported from its module
__all__ = [
    "COST_MODES",
    "CircuitError",
    "ConfigError",
    "InstanceTooLarge",
    "InvalidMovement",
    "LogicalPhysicalMap",
    "Movement",
    "ParseError",
    "apply_movement",
    "brute_force_placement",
    "build_dag",
    "build_hypergraph",
    "contiguous_assignment",
    "controller_of",
    "extract_cidq_sets",
    "generate",
    "heavy_hex_127_device",
    "initial_placement",
    "line_device",
    "load_topology",
    "matrix_topology",
    "movement_gain",
    "parse_circuit",
    "run_pipeline",
    "serialize_circuit",
    "stage1_greedy",
    "stage2_iterate",
    "star_topology",
    "star_via_router_topology",
    "total_cost_L",
]
