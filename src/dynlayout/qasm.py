"""Text format for dynamic circuits.

The accepted grammar is a small OPENQASM 2.0 subset:

    OPENQASM 2.0;              // optional; any version number, ignored
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
line, except inside a "string".

Parsing is statement-level: comments are dropped, the text is split at
each `;`, and every statement must match one of the forms above (one
compiled pattern, one alternative per form).  Register declarations come
before the first operation, so the registers are fixed before any operand
is resolved: each distinct operand text (argument list, condition tests,
angle) is checked and resolved once per parse, and the operations that
repeat it share the resulting qubit tuple, condition or params.  The
parser is the only check of the text: it makes every check of
`Circuit.validate`, and the circuit it returns records that it is valid.  A
ParseError's line and column point at the first character of the
offending statement.  serialize_circuit writes the
OPENQASM and include header lines, so its output loads in standard
OpenQASM 2 tools.
"""
from __future__ import annotations

import math
import re

from .circuit import GATE_PARAM_COUNT, TWO_QUBIT_GATES, Circuit, Operation


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_ID = r"[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_])"
_NUM = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
_ARG = rf"{_ID}\s*\[\s*\d+\s*\]"
_TEST = rf"{_ARG}\s*==\s*\d+"
# The gate form comes first, as most statements take it; no statement
# matches two forms once a declaration is kept out of the gate form.
_STATEMENT = re.compile(
    rf"""\s*(?:
        (?![qc]reg\s+{_ID}\s*\[\s*\d+\s*\]\s*\Z)
        (?:if\s*\(\s*(?P<cond>{_TEST}(?:\s*&&\s*{_TEST})*)\s*\)\s*)?
        (?P<op>{_ID})\s*(?:(?P<angle>\(.*\))\s*)?(?P<args>{_ARG}(?:\s*,\s*{_ARG})*)
      | measure\s+(?P<measure>{_ARG}\s*->\s*{_ARG})
      | (?P<reg>[qc])reg\s+(?P<name>{_ID})\s*\[\s*(?P<size>\d+)\s*\]
      | OPENQASM(?![A-Za-z0-9_])\s*{_NUM}
      | include\s*"[^"]*"
    )\s*""",
    re.VERBOSE | re.DOTALL,
)
# (register, index, tested value or "") of each argument or condition test
_PARTS = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\](?:\s*==\s*(\d+))?")
_LITERAL = re.compile(rf"\s*-?{_NUM}\s*")
_ANGLE_TOKEN = re.compile(rf"\s*({_NUM}|[A-Za-z_][A-Za-z0-9_]*|\S)")
# _new(Operation, fields) is Operation(*fields) without the Python-level
# argument handling of a NamedTuple's __new__; the parser has all five fields
_new = tuple.__new__


def _mask(text: str) -> str:
    """text with each // comment dropped and the `;`s of each "string"
    blanked, so that a string keeps its place.  Scans left to right: the
    first `"` with a closing `"` after it starts a string, the first `//`
    outside one a comment to the end of its line; each is located with
    str.find, not character by character."""
    out = []
    pos = 0  # text[:pos] is done
    quote, slash = text.find('"'), text.find("//")
    while quote >= 0 or slash >= 0:
        if quote >= 0 and (slash < 0 or quote < slash):
            close = text.find('"', quote + 1)
            if close < 0:  # a lone quote starts no string
                quote = -1
                continue
            out += (text[pos:quote], text[quote:close + 1].replace(";", " "))
            pos = close + 1
        else:
            out.append(text[pos:slash])
            pos = text.find("\n", slash)
            if pos < 0:
                pos = len(text)
        if 0 <= quote < pos:
            quote = text.find('"', pos)
        if 0 <= slash < pos:
            slash = text.find("//", pos)
    out.append(text[pos:])
    return "".join(out)


def _angle(text: str) -> float:
    """Evaluate one angle: + - below * / below unary - below a
    right-associative ^ below numbers, pi and parentheses."""
    if _LITERAL.fullmatch(text):
        return float(text)
    toks = _ANGLE_TOKEN.findall(text)[::-1]  # a stack: toks[-1] is next

    def expression() -> float:
        value = term()
        while toks and toks[-1] in ("+", "-"):
            sym, rhs = toks.pop(), term()
            value = value + rhs if sym == "+" else value - rhs
        return value

    def term() -> float:
        value = unary()
        while toks and toks[-1] in ("*", "/"):
            sym, rhs = toks.pop(), unary()
            if sym == "*":
                value = value * rhs
            elif rhs == 0:
                raise ValueError("division by zero in angle")
            else:
                value = value / rhs
        return value

    def unary() -> float:
        if toks and toks[-1] == "-":
            toks.pop()
            return -unary()
        base = atom()
        if toks and toks[-1] == "^":
            toks.pop()
            return base ** unary()
        return base

    def atom() -> float:
        if not toks:
            raise ValueError("angle ends early")
        tok = toks.pop()
        if tok == "pi":
            return math.pi
        if tok == "(":
            inner = expression()
            if not toks or toks.pop() != ")":
                raise ValueError("expected ')' in angle")
            return inner
        if _LITERAL.fullmatch(tok):  # a number: a token holds no sign
            return float(tok)
        raise ValueError(f"bad angle token {tok!r}")

    try:
        value = expression()
    except ArithmeticError as exc:  # 2^10000 overflows, 0^-1 divides by zero
        raise ValueError(f"angle cannot be evaluated: {exc}") from None
    except RecursionError:
        raise ValueError("angle nested too deeply") from None
    if toks:
        raise ValueError(f"bad angle token {toks[-1]!r}")
    return value


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; raises ParseError with the line and column of the
    offending statement.

    Every check of `Circuit.validate` is made here, each statement once:
    the statement checks as it is parsed, and the three that need the whole
    op list (repeated operands, a non-finite angle, a condition on a clbit
    no earlier measure wrote) noted as they are found.  A ParseError in any
    statement wins; after the last one, a circuit with a noted failure is
    handed to validate, which raises the first failing op's CircuitError,
    and a clean one is recorded as valid."""
    text = _mask(text)
    statements = text.split(";")
    regs: dict[str, tuple[str, int, int]] = {}  # name -> ("q" or "c", offset, size)
    ops: list[Operation] = []
    # operand text -> its checked value; an argument list or a test list
    # starts with a register name and only a test list holds "==", while an
    # angle keeps its "(", so no two kinds share a key
    memo: dict[str, object] = {}
    written: set[int] = set()  # clbits some earlier measure wrote
    clean = True  # no op so far fails a check of validate
    start = 0  # offset of the current statement
    try:
        for stmt in statements[:-1]:
            m = _STATEMENT.fullmatch(stmt)
            if m is None:
                raise ValueError(f"malformed statement {stmt.strip()[:40]!r}")
            cond, name, angle, args, measure, reg, reg_name, size = m.groups()
            if name is not None:
                clean = _gate(name, angle, cond, args, regs, ops, memo, written) and clean
            elif measure is not None:
                (q, qi, _), (c, ci, _) = _PARTS.findall(measure)
                qubit, clbit = _index(regs, q, qi, "q"), _index(regs, c, ci, "c")
                ops.append(_new(Operation, ("measure", (qubit,), (), clbit, None)))
                written.add(clbit)
            elif reg is not None:
                _declare(reg, reg_name, int(size), regs, ops)
            start += len(stmt) + 1
        if statements[-1].strip():
            raise ValueError("missing ';' at end of statement")
    except ValueError as exc:  # every check, and int() of an over-long index
        stmt = text[start:].split(";", 1)[0]
        at = start + len(stmt) - len(stmt.lstrip())
        line = text.count("\n", 0, at) + 1
        raise ParseError(str(exc), line, at - text.rfind("\n", 0, at)) from None
    n_qubits, n_clbits = (sum(s for k, _, s in regs.values() if k == kind) for kind in "qc")
    circuit = Circuit(n_qubits, n_clbits, tuple(ops))
    if clean and n_qubits > 0:
        circuit.record_valid()
    else:
        circuit.validate()  # raises the first failure
    return circuit


def _gate(
    name: str, angle: str | None, cond: str | None, args: str,
    regs: dict[str, tuple[str, int, int]], ops: list[Operation], memo: dict, written: set[int],
) -> bool:
    """Check a gate, reset or barrier statement, maybe conditioned, against
    the registers declared so far and append its operation.  Raises
    ValueError; returns False if the op fails a check of validate that
    parsing does not raise.  An operand whose text is in memo was checked
    before, against the same registers (none may follow an operation), so
    its value is reused; only values that pass the parse checks are stored,
    so a bad operand fails at its own statement, in the same check order.
    The validate checks of an operand are made when it is first stored: a
    later op that repeats it comes after the first failing one."""
    clean = True
    qubits = memo.get(args)
    if qubits is None:
        qubits = memo[args] = tuple(_index(regs, r, i, "q") for r, i, _ in _PARTS.findall(args))
        clean = len(qubits) == 1 or len(set(qubits)) == len(qubits)
    if name == "barrier" and angle is None and cond is None:
        ops.append(_new(Operation, ("barrier", qubits, (), None, None)))
        return clean
    if name not in GATE_PARAM_COUNT and name != "reset":
        raise ValueError(f"unknown gate {name!r}")
    arity = 2 if name in TWO_QUBIT_GATES else 1
    if len(qubits) != arity:
        raise ValueError(f"{name} takes {arity} qubit(s), got {len(qubits)}")
    want = GATE_PARAM_COUNT.get(name, 0)
    if want != (angle is not None):
        raise ValueError(f"{name} takes {want} angle(s)")
    condition = None
    if cond is not None:
        condition = memo.get(cond)
        if condition is None:
            tests = [(_index(regs, r, i, "c"), int(v)) for r, i, v in _PARTS.findall(cond)]
            if any(v not in (0, 1) for _, v in tests):
                raise ValueError("condition value must be 0 or 1")
            if len({bit for bit, _ in tests}) != len(tests):
                raise ValueError("repeated clbit in condition")
            condition = memo[cond] = frozenset(tests)
        for bit, _ in condition:
            if bit not in written:
                clean = False
    params = () if angle is None else memo.get(angle)
    if params is None:
        value = _angle(angle[1:-1])
        params = memo[angle] = (value,)
        if type(value) is not float or not math.isfinite(value):  # 1e400, (-8)^0.5
            clean = False
    ops.append(_new(Operation, (name, qubits, params, None, condition)))
    return clean


def _declare(
    kind: str, name: str, size: int, regs: dict[str, tuple[str, int, int]], ops: list[Operation]
) -> None:
    """Add a register of kind "q" or "c" after those of its kind; raises
    ValueError."""
    if name in regs:
        raise ValueError(f"register {name!r} already declared")
    if size <= 0:
        raise ValueError(f"register {name!r} must have positive size")
    if ops:
        raise ValueError("register declarations must precede operations")
    regs[name] = (kind, sum(s for k, _, s in regs.values() if k == kind), size)


def _index(regs: dict[str, tuple[str, int, int]], name: str, idx: str, kind: str) -> int:
    got, offset, size = regs.get(name, ("", 0, 0))
    if got != kind:
        raise ValueError(f"unknown {'quantum' if kind == 'q' else 'classical'} register {name!r}")
    if int(idx) >= size:
        raise ValueError(f"index {idx} out of range for {name}[{size}]")
    return offset + int(idx)


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit back to canonical text (registers named q and c)."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
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
                stmt = f"{op.name}({op.params[0]!r}) {args}"
            else:
                stmt = f"{op.name} {args}"
        if op.condition is not None:
            tests = " && ".join(f"c[{bit}]=={val}" for bit, val in sorted(op.condition))
            stmt = f"if ({tests}) {stmt}"
        lines.append(stmt + ";")
    return "\n".join(lines) + "\n"
