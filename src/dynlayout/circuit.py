"""Circuit IR for dynamic quantum circuits: gates, mid-circuit measurement,
classically conditioned operations, and the dependency DAG built from them."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

ONE_QUBIT_GATES = frozenset({"h", "x", "z", "u1"})
TWO_QUBIT_GATES = frozenset({"cx", "cz", "swap"})
GATE_PARAM_COUNT = {"h": 0, "x": 0, "z": 0, "u1": 1, "cx": 0, "cz": 0, "swap": 0}


class CircuitError(ValueError):
    """Raised when an operation or circuit violates the IR contract."""


@dataclass(frozen=True)
class Operation:
    """One circuit operation.

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
    def is_gate(self) -> bool:
        return self.name in ONE_QUBIT_GATES or self.name in TWO_QUBIT_GATES

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
        for q in self.qubits:
            if not 0 <= q < n_qubits:
                raise CircuitError(f"qubit index {q} out of range for op {self.name}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubit operands in {self.name} {self.qubits}")
        if self.name in ONE_QUBIT_GATES:
            if len(self.qubits) != 1:
                raise CircuitError(f"{self.name} takes 1 qubit, got {self.qubits}")
        elif self.name in TWO_QUBIT_GATES:
            if len(self.qubits) != 2:
                raise CircuitError(f"{self.name} takes 2 qubits, got {self.qubits}")
        elif self.name == "measure":
            if len(self.qubits) != 1 or self.clbit is None:
                raise CircuitError("measure takes 1 qubit and a clbit target")
            if self.condition is not None:
                raise CircuitError("conditioned measure is not supported")
        elif self.name == "reset":
            if len(self.qubits) != 1:
                raise CircuitError("reset takes 1 qubit")
        elif self.name == "barrier":
            if not self.qubits:
                raise CircuitError("barrier needs at least one qubit")
            if self.condition is not None:
                raise CircuitError("conditioned barrier is not supported")
        else:
            raise CircuitError(f"unknown operation {self.name!r}")
        if self.is_gate:
            want = GATE_PARAM_COUNT[self.name]
            if len(self.params) != want:
                raise CircuitError(f"{self.name} takes {want} params, got {len(self.params)}")
            for p in self.params:
                # the exact-type test spares the common float the ABC check
                if not (type(p) is float or isinstance(p, numbers.Real)) or not math.isfinite(p):
                    raise CircuitError(f"{self.name} angle must be a finite real, got {p!r}")
            if self.clbit is not None:
                raise CircuitError(f"{self.name} cannot write a clbit")
        elif self.params:
            raise CircuitError(f"{self.name} takes no params, got {self.params!r}")
        if self.clbit is not None and not 0 <= self.clbit < n_clbits:
            raise CircuitError(f"clbit index {self.clbit} out of range")
        if self.condition is not None:
            if not self.condition:
                raise CircuitError("empty condition")
            n_tests = len(self.condition)
            if n_tests > 1 and len({bit for bit, _ in self.condition}) != n_tests:
                raise CircuitError("repeated clbit in condition")
            for bit, val in self.condition:
                if not 0 <= bit < n_clbits:
                    raise CircuitError(f"condition clbit {bit} out of range")
                if val not in (0, 1):
                    raise CircuitError(f"condition value must be 0 or 1, got {val}")


@dataclass(frozen=True)
class Circuit:
    """An ordered operation list over n_qubits qubits and n_clbits classical bits."""

    n_qubits: int
    n_clbits: int
    ops: tuple[Operation, ...]

    def validate(self) -> None:
        """Check per-op well-formedness plus dataflow: every condition bit must
        have been written by an earlier measure.

        A circuit is immutable, so a pass is recorded on the instance and
        later calls return at once; a failure records nothing and repeats on
        every call.  The record is not a field: equality, hash and repr
        ignore it."""
        if "_valid" in self.__dict__:
            return
        if self.n_qubits <= 0:
            raise CircuitError("circuit needs at least one qubit")
        if self.n_clbits < 0:
            raise CircuitError("negative clbit count")
        written: set[int] = set()
        for i, op in enumerate(self.ops):
            op.validate(self.n_qubits, self.n_clbits)
            if op.condition is not None:
                for bit, _ in op.condition:
                    if bit not in written:
                        raise CircuitError(
                            f"op {i} ({op.name}) conditioned on clbit {bit} "
                            "before any measure writes it"
                        )
            if op.is_measure:
                written.add(op.clbit)
        object.__setattr__(self, "_valid", True)

    def count_ops(self) -> int:
        """Number of operations, barriers excluded."""
        return sum(1 for op in self.ops if not op.is_barrier)

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
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        ops = circuit.ops
        preds: list[tuple[int, ...]] = []
        last_on_qubit: dict[int, int] = {}
        writer: dict[int, int] = {}
        readers: dict[int, list[int]] = {}
        for i, op in enumerate(ops):
            pred = set()
            for q in op.qubits:
                if q in last_on_qubit:
                    pred.add(last_on_qubit[q])
            for q in op.qubits:
                last_on_qubit[q] = i
            if op.condition is not None:
                for bit, _ in op.condition:
                    if bit not in writer:
                        raise CircuitError(f"op {i} conditioned on unwritten clbit {bit}")
                    pred.add(writer[bit])
                    readers[bit].append(i)
            if op.name == "measure":
                bit = op.clbit
                if bit in writer:
                    pred.add(writer[bit])
                    pred.update(readers[bit])
                    pred.discard(i)  # a measure conditioned on its own bit reads it
                writer[bit] = i
                readers[bit] = []
            preds.append(tuple(sorted(pred)))

        # visiting ops in order appends each successor list in ascending order
        succ: list[list[int]] = [[] for _ in ops]
        for i, pred in enumerate(preds):
            for j in pred:
                succ[j].append(i)
        self.n_nodes = len(ops)
        self.succ: list[tuple[int, ...]] = [tuple(s) for s in succ]
        self.pred: list[tuple[int, ...]] = preds
        # read by the router on every visit, so computed once here
        self.two_qubit: list[bool] = [op.name in TWO_QUBIT_GATES for op in ops]

    def front_layer(self) -> list[int]:
        """Op indices with no predecessors, ascending."""
        return [i for i in range(self.n_nodes) if not self.pred[i]]


def build_dag(circuit: Circuit) -> OpDag:
    return OpDag(circuit)


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
