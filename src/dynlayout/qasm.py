"""Text format for dynamic circuits.

The accepted grammar is a small OPENQASM 2.0 subset:

    OPENQASM 2.0;              // optional, ignored
    include "qelib1.inc";      // optional, ignored
    qreg q[4]; creg c[4];
    h q[0];
    u1(pi/2^3) q[1];
    cx q[0], q[1];
    measure q[0] -> c[0];
    if (c[0]==1) x q[1];
    if (c[0]==1 && c[1]==0) u1(-pi/4) q[2];
    reset q[0];
    barrier q[0], q[2];

Gates: h, x, z, u1(theta), cx, cz, swap.  Conditions are conjunctions of
single-bit tests and may guard gates and resets only.  Angle expressions
support numbers, pi, + - * /, unary minus, ^ for powers, and parentheses;
an angle must evaluate to a finite real number.  // comments run to end of
line.
"""
from __future__ import annotations

import math
import re

from .circuit import (
    GATE_PARAM_COUNT,
    ONE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    Circuit,
    Operation,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"[^"]*")
  | (?P<sym>->|==|&&|[\[\](),;*/+\-^])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}
        self.n_qubits = 0
        self.n_clbits = 0
        self.ops: list[Operation] = []

    def error(self, message: str) -> ParseError:
        if self.pos < len(self.tokens):
            _, _, line, col = self.tokens[self.pos]
        elif self.tokens:
            _, v, line, col = self.tokens[-1]
            col += len(v)
        else:
            line, col = 1, 1
        return ParseError(message, line, col)

    def peek(self) -> tuple[str, str] | None:
        if self.pos < len(self.tokens):
            kind, value, _, _ = self.tokens[self.pos]
            return kind, value
        return None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, got = self.take()
        if got != value:
            self.pos -= 1
            raise self.error(f"expected {value!r}, got {got!r}")

    def expect_kind(self, kind: str) -> str:
        got_kind, value = self.take()
        if got_kind != kind:
            self.pos -= 1
            raise self.error(f"expected {kind}, got {value!r}")
        return value

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[1] == value

    def int_token(self) -> int:
        value = self.expect_kind("num")
        try:
            return int(value)
        except ValueError:
            self.pos -= 1
            raise self.error(f"expected integer, got {value!r}") from None

    def parse(self) -> Circuit:
        while self.peek() is not None:
            self.statement()
        circuit = Circuit(self.n_qubits, self.n_clbits, tuple(self.ops))
        circuit.validate()
        return circuit

    def statement(self) -> None:
        kind, value = self.take()
        if value == "OPENQASM":
            self.take()  # version token
            self.expect(";")
        elif value == "include":
            self.expect_kind("str")
            self.expect(";")
        elif value == "qreg":
            self.declare(self.qregs, "q")
        elif value == "creg":
            self.declare(self.cregs, "c")
        elif value == "measure":
            self.ops.append(self.measure_stmt())
            self.expect(";")
        elif value == "reset":
            q = self.qubit_arg()
            self.ops.append(Operation("reset", (q,)))
            self.expect(";")
        elif value == "barrier":
            qubits = [self.qubit_arg()]
            while self.at(","):
                self.take()
                qubits.append(self.qubit_arg())
            self.ops.append(Operation("barrier", tuple(qubits)))
            self.expect(";")
        elif value == "if":
            self.ops.append(self.if_stmt())
            self.expect(";")
        elif kind == "id":
            self.ops.append(self.gate_stmt(value))
            self.expect(";")
        else:
            self.pos -= 1
            raise self.error(f"unexpected token {value!r}")

    def declare(self, table: dict[str, tuple[int, int]], which: str) -> None:
        name = self.expect_kind("id")
        if name in self.qregs or name in self.cregs:
            raise self.error(f"register {name!r} already declared")
        self.expect("[")
        size = self.int_token()
        self.expect("]")
        self.expect(";")
        if size <= 0:
            raise self.error(f"register {name!r} must have positive size")
        if self.ops:
            raise self.error("register declarations must precede operations")
        if which == "q":
            table[name] = (self.n_qubits, size)
            self.n_qubits += size
        else:
            table[name] = (self.n_clbits, size)
            self.n_clbits += size

    def indexed(self, table: dict[str, tuple[int, int]], what: str) -> int:
        name = self.expect_kind("id")
        if name not in table:
            raise self.error(f"unknown {what} register {name!r}")
        offset, size = table[name]
        self.expect("[")
        idx = self.int_token()
        self.expect("]")
        if idx >= size:
            raise self.error(f"index {idx} out of range for {name}[{size}]")
        return offset + idx

    def qubit_arg(self) -> int:
        return self.indexed(self.qregs, "quantum")

    def clbit_arg(self) -> int:
        return self.indexed(self.cregs, "classical")

    def measure_stmt(self) -> Operation:
        q = self.qubit_arg()
        self.expect("->")
        c = self.clbit_arg()
        return Operation("measure", (q,), clbit=c)

    def gate_stmt(self, name: str) -> Operation:
        if name not in ONE_QUBIT_GATES and name not in TWO_QUBIT_GATES:
            self.pos -= 1
            raise self.error(f"unknown gate {name!r}")
        params: tuple[float, ...] = ()
        if GATE_PARAM_COUNT[name] == 1:
            self.expect("(")
            start = self.pos
            try:
                params = (self.expression(),)
            except ArithmeticError as exc:  # 2^10000 overflows, 0^-1 divides by zero
                self.pos = start
                raise self.error(f"angle cannot be evaluated: {exc}") from None
            self.expect(")")
        q0 = self.qubit_arg()
        if name in TWO_QUBIT_GATES:
            self.expect(",")
            q1 = self.qubit_arg()
            return Operation(name, (q0, q1), params)
        return Operation(name, (q0,), params)

    def if_stmt(self) -> Operation:
        self.expect("(")
        tests = [self.condition_test()]
        while self.at("&&"):
            self.take()
            tests.append(self.condition_test())
        self.expect(")")
        kind, value = self.take()
        if value == "reset":
            q = self.qubit_arg()
            body = Operation("reset", (q,))
        elif kind == "id":
            body = self.gate_stmt(value)
        else:
            self.pos -= 1
            raise self.error("only gates and reset may be conditioned")
        if len({bit for bit, _ in tests}) != len(tests):
            raise self.error("repeated clbit in condition")
        return Operation(body.name, body.qubits, body.params, condition=frozenset(tests))

    def condition_test(self) -> tuple[int, int]:
        c = self.clbit_arg()
        self.expect("==")
        val = self.int_token()
        if val not in (0, 1):
            raise self.error("condition value must be 0 or 1")
        return (c, val)

    # angle expressions: + - on top, then * /, then unary -, then ^, then atoms
    def expression(self) -> float:
        value = self.term()
        while self.at("+") or self.at("-"):
            _, sym = self.take()
            rhs = self.term()
            value = value + rhs if sym == "+" else value - rhs
        return value

    def term(self) -> float:
        value = self.unary()
        while self.at("*") or self.at("/"):
            _, sym = self.take()
            rhs = self.unary()
            if sym == "/":
                if rhs == 0:
                    raise self.error("division by zero in angle")
                value = value / rhs
            else:
                value = value * rhs
        return value

    def unary(self) -> float:
        if self.at("-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> float:
        base = self.atom()
        if self.at("^"):
            self.take()
            return base ** self.unary()
        return base

    def atom(self) -> float:
        kind, value = self.take()
        if kind == "num":
            return float(value)
        if value == "pi":
            return math.pi
        if value == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        self.pos -= 1
        raise self.error(f"bad angle token {value!r}")


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; raises ParseError with line/column on bad input."""
    return _Parser(text).parse()


def _format_angle(x: float) -> str:
    return repr(x)


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit back to canonical text (registers named q and c)."""
    lines = [f"qreg q[{circuit.n_qubits}];"]
    if circuit.n_clbits:
        lines.append(f"creg c[{circuit.n_clbits}];")
    for op in circuit.ops:
        if op.is_measure:
            stmt = f"measure q[{op.qubits[0]}] -> c[{op.clbit}]"
        elif op.is_barrier:
            stmt = "barrier " + ", ".join(f"q[{q}]" for q in op.qubits)
        elif op.name == "reset":
            stmt = f"reset q[{op.qubits[0]}]"
        else:
            args = ", ".join(f"q[{q}]" for q in op.qubits)
            if op.params:
                stmt = f"{op.name}({_format_angle(op.params[0])}) {args}"
            else:
                stmt = f"{op.name} {args}"
        if op.condition is not None:
            tests = " && ".join(f"c[{bit}]=={val}" for bit, val in sorted(op.condition))
            stmt = f"if ({tests}) {stmt}"
        lines.append(stmt + ";")
    return "\n".join(lines) + "\n"
