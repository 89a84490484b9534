"""Circuit IR for dynamic quantum circuits: gates, mid-circuit measurement,
classically conditioned operations, and the dependency DAG built from them."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

ONE_QUBIT_GATES = frozenset({"h", "x", "z", "u1"})
TWO_QUBIT_GATES = frozenset({"cx", "cz", "swap"})
GATE_PARAM_COUNT = {"h": 0, "x": 0, "z": 0, "u1": 1, "cx": 0, "cz": 0, "swap": 0}


class CircuitError(ValueError):
    """Raised when an operation or circuit violates the IR contract."""


class Operation(NamedTuple):
    """One circuit operation, a tuple record: it equals (and hashes as) the
    plain tuple (name, qubits, params, clbit, condition) of its fields.

    name: gate name, or one of 'measure', 'reset', 'barrier'.
    qubits: operand qubit indices (1 or 2 for gates, 1 for measure/reset,
        >= 1 for barrier).
    params: rotation angles in radians (u1 only).
    clbit: classical bit written by a measure, else None.
    condition: frozenset of (clbit, value) pairs; the op executes only when
        every listed bit holds its value (conjunction). None when unconditioned.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbit: int | None = None
    condition: frozenset[tuple[int, int]] | None = None

    @property
    def is_two_qubit(self) -> bool:
        return self.name in TWO_QUBIT_GATES

    @property
    def is_measure(self) -> bool:
        return self.name == "measure"

    @property
    def is_barrier(self) -> bool:
        return self.name == "barrier"

    def validate(self, n_qubits: int, n_clbits: int) -> None:
        name, qubits, params, clbit, condition = self
        for q in qubits:
            if not 0 <= q < n_qubits:
                raise CircuitError(f"qubit index {q} out of range for op {name}")
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate qubit operands in {name} {qubits}")
        if name in ONE_QUBIT_GATES:
            if len(qubits) != 1:
                raise CircuitError(f"{name} takes 1 qubit, got {qubits}")
        elif name in TWO_QUBIT_GATES:
            if len(qubits) != 2:
                raise CircuitError(f"{name} takes 2 qubits, got {qubits}")
        elif name == "measure":
            if len(qubits) != 1 or clbit is None:
                raise CircuitError("measure takes 1 qubit and a clbit target")
            if condition is not None:
                raise CircuitError("conditioned measure is not supported")
        elif name == "reset":
            if len(qubits) != 1:
                raise CircuitError("reset takes 1 qubit")
        elif name == "barrier":
            if not qubits:
                raise CircuitError("barrier needs at least one qubit")
            if condition is not None:
                raise CircuitError("conditioned barrier is not supported")
        else:
            raise CircuitError(f"unknown operation {name!r}")
        if name in GATE_PARAM_COUNT:
            want = GATE_PARAM_COUNT[name]
            if len(params) != want:
                raise CircuitError(f"{name} takes {want} params, got {len(params)}")
            for p in params:
                # the exact-type test spares the common float the ABC check
                if not (type(p) is float or isinstance(p, numbers.Real)) or not math.isfinite(p):
                    raise CircuitError(f"{name} angle must be a finite real, got {p!r}")
            if clbit is not None:
                raise CircuitError(f"{name} cannot write a clbit")
        elif params:
            raise CircuitError(f"{name} takes no params, got {params!r}")
        if clbit is not None and not 0 <= clbit < n_clbits:
            raise CircuitError(f"clbit index {clbit} out of range")
        if condition is not None:
            if not condition:
                raise CircuitError("empty condition")
            n_tests = len(condition)
            if n_tests > 1 and len({bit for bit, _ in condition}) != n_tests:
                raise CircuitError("repeated clbit in condition")
            for bit, val in condition:
                if not 0 <= bit < n_clbits:
                    raise CircuitError(f"condition clbit {bit} out of range")
                if val not in (0, 1):
                    raise CircuitError(f"condition value must be 0 or 1, got {val}")


@dataclass(frozen=True)
class Circuit:
    """An ordered operation list over n_qubits qubits and n_clbits classical bits.

    A circuit is immutable, so what is worked out from it alone is recorded on
    it (validate, derived); equality, hash and repr ignore the records."""

    n_qubits: int
    n_clbits: int
    ops: tuple[Operation, ...]

    def validate(self) -> None:
        """Check per-op well-formedness plus dataflow: every condition bit must
        have been written by an earlier measure.

        A pass is recorded, so later calls return at once; a failure records
        nothing and repeats on every call."""
        if "_valid" in self.__dict__:
            return
        if self.n_qubits <= 0:
            raise CircuitError("circuit needs at least one qubit")
        if self.n_clbits < 0:
            raise CircuitError("negative clbit count")
        written: set[int] = set()
        for i, op in enumerate(self.ops):
            op.validate(self.n_qubits, self.n_clbits)
            name, _, _, clbit, condition = op
            if condition is not None:
                for bit, _ in condition:
                    if bit not in written:
                        raise CircuitError(
                            f"op {i} ({name}) conditioned on clbit {bit} "
                            "before any measure writes it"
                        )
            if name == "measure":
                written.add(clbit)
        self.record_valid()

    def record_valid(self) -> None:
        """Record that the circuit passes validate, so validate returns at
        once; for code that made every check of validate itself while it
        built the circuit (the parser)."""
        object.__setattr__(self, "_valid", True)

    def derived(self, name: str, build, *args):
        """build(self, *args), run on the first call for name and recorded for
        later calls (the DAG, the dependency sets and the router's table of
        the sets each op reads for are recorded so)."""
        value = self.__dict__.get(name)
        if value is None:
            value = build(self, *args)
            object.__setattr__(self, name, value)
        return value

    def count_ops(self) -> int:
        """Number of operations, barriers excluded."""
        return len(self.ops) - [op.name for op in self.ops].count("barrier")

    def two_qubit_count(self) -> int:
        return sum(1 for op in self.ops if op.is_two_qubit)

    def is_dynamic(self) -> bool:
        """True when the circuit uses measurement feedforward."""
        return any(op.condition is not None for op in self.ops)


class OpDag:
    """Dependency DAG over circuit op indices.

    Edges order (a) ops sharing a qubit, (b) a measure and every conditional
    op reading the bit it wrote (read-after-write), and (c) clbit anti/output
    dependencies so re-measuring a bit never drifts past earlier readers.
    It is shared through its circuit, so its tables are tuples, and it keeps
    the circuit's ops, not the circuit, so the record makes no reference cycle.
    """

    def __init__(self, circuit: Circuit):
        ops = self.ops = circuit.ops
        preds: list[tuple[int, ...]] = []
        # visiting ops in order appends each successor list in ascending order
        succ: list[list[int]] = [[] for _ in ops]
        last_on_qubit: dict[int, int] = {}
        writer: dict[int, int] = {}
        readers: dict[int, list[int]] = {}
        for i, (name, qubits, _, clbit, condition) in enumerate(ops):
            if len(qubits) == 1:  # most ops: no comprehension
                q = qubits[0]
                pred = [last_on_qubit[q]] if q in last_on_qubit else []
            else:
                pred = [last_on_qubit[q] for q in qubits if q in last_on_qubit]
            for q in qubits:
                last_on_qubit[q] = i
            if condition is not None:
                for bit, _ in condition:
                    if bit not in writer:
                        raise CircuitError(f"op {i} conditioned on unwritten clbit {bit}")
                    pred.append(writer[bit])
                    readers[bit].append(i)
            if name == "measure":
                if clbit in writer:
                    pred.append(writer[clbit])
                    # a measure conditioned on its own bit reads it
                    pred.extend(j for j in readers[clbit] if j != i)
                writer[clbit] = i
                readers[clbit] = []
            # ascending and distinct: up to two predecessors (most ops)
            # skip the set and the sort
            if len(pred) == 2:
                a, b = pred
                pred = (a, b) if a < b else (b, a) if b < a else (a,)
            else:
                pred = tuple(sorted(set(pred)) if len(pred) > 2 else pred)
            for j in pred:
                succ[j].append(i)
            preds.append(pred)
        self.n_nodes = len(ops)
        self.succ: tuple[tuple[int, ...], ...] = tuple(map(tuple, succ))
        self.pred: tuple[tuple[int, ...], ...] = tuple(preds)
        # read by the router on every visit, so computed once here
        self.two_qubit: tuple[bool, ...] = tuple([op.name in TWO_QUBIT_GATES for op in ops])

    def front_layer(self) -> list[int]:
        """Op indices with no predecessors, ascending."""
        return [i for i in range(self.n_nodes) if not self.pred[i]]


def build_dag(circuit: Circuit) -> OpDag:
    """The circuit's DAG: built on the first call, recorded on the circuit."""
    return circuit.derived("_dag", OpDag)


def depth(circuit: Circuit) -> int:
    """Longest dependency-path length; barriers order ops but add no depth.

    One pass over the ops, following OpDag's edge rules: an op sits one level
    above the last op on each of its qubits, a conditioned op above the
    measure that wrote each of its bits, and a measure above the previous
    writer of its bit and every reader of that writer.
    """
    on_qubit = [0] * circuit.n_qubits  # qubit -> level of the last op on it
    writer: dict[int, int] = {}  # clbit -> level of the measure that wrote it
    touched: dict[int, int] = {}  # clbit -> highest level of that writer or its readers
    best = 0
    for i, op in enumerate(circuit.ops):
        level = 0
        for q in op.qubits:
            if on_qubit[q] > level:
                level = on_qubit[q]
        condition = op.condition
        if condition is not None:
            for bit, _ in condition:
                if bit not in writer:
                    raise CircuitError(f"op {i} conditioned on unwritten clbit {bit}")
                if writer[bit] > level:
                    level = writer[bit]
        measure = op.name == "measure"
        if measure and touched.get(op.clbit, 0) > level:
            level = touched[op.clbit]
        if op.name != "barrier":
            level += 1
        for q in op.qubits:
            on_qubit[q] = level
        if condition is not None:
            for bit, _ in condition:
                if touched[bit] < level:
                    touched[bit] = level
        if measure:
            writer[op.clbit] = touched[op.clbit] = level
        if level > best:
            best = level
    return best
