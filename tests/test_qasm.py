import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import CircuitError, ParseError, generate, parse_circuit, qasm, serialize_circuit
from dynlayout.circuit import Circuit, Operation
from helpers import REFERENCE_STATEMENT, reference_mask, reference_parse

GOLDEN = """\
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[2];
h q[0];
u1(pi/4) q[1];
cx q[0], q[1];
measure q[0] -> c[0];
if (c[0]==1) x q[1];
reset q[0];
barrier q[0], q[1], q[2];
measure q[1] -> c[1];
if (c[0]==1 && c[1]==0) u1(-pi/2) q[2];
"""


def test_golden_parse():
    c = parse_circuit(GOLDEN)
    assert (c.n_qubits, c.n_clbits) == (3, 2)
    names = [o.name for o in c.ops]
    assert names == ["h", "u1", "cx", "measure", "x", "reset", "barrier", "measure", "u1"]
    assert c.ops[1].params == (math.pi / 4,)
    assert c.ops[4].condition == frozenset({(0, 1)})
    assert c.ops[8].condition == frozenset({(0, 1), (1, 0)})
    assert c.ops[8].params == (-math.pi / 2,)


def test_headers_optional():
    c = parse_circuit("qreg q[1];\nh q[0];\n")
    assert c.n_qubits == 1
    # the header takes any version number
    assert parse_circuit("OPENQASM 3;\nqreg q[1];\nh q[0];\n") == c


def test_comments_ignored():
    c = parse_circuit("// leading\nqreg q[1]; // trailing\nh q[0];\n")
    assert len(c.ops) == 1


def test_angle_arithmetic():
    c = parse_circuit("qreg q[1];\nu1(3*pi/2 + 1 - 0.5) q[0];\nu1(2^3) q[0];\n")
    assert c.ops[0].params[0] == pytest.approx(3 * math.pi / 2 + 0.5)
    assert c.ops[1].params[0] == pytest.approx(8.0)


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_circuit("qreg q[1]\nh q[0];")

    def test_unknown_gate(self):
        with pytest.raises(ParseError):
            parse_circuit("qreg q[1];\nccx q[0];")

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            parse_circuit("qreg q[2];\nh q[5];")

    def test_condition_value_not_bit(self):
        with pytest.raises(ParseError):
            parse_circuit("qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nif (c[0]==2) x q[0];")

    @pytest.mark.parametrize("angle", ["2^10000", "0^-1"])
    def test_arithmetic_error_is_parse_error(self, angle):
        with pytest.raises(ParseError, match="angle cannot be evaluated"):
            parse_circuit(f"qreg q[1];\nu1({angle}) q[0];")

    @pytest.mark.parametrize("angle", ["(-8)^0.5", "1e400", "1e308*10-1e308*10"])
    def test_non_finite_or_complex_angle_rejected(self, angle):
        with pytest.raises(CircuitError, match="finite real"):
            parse_circuit(f"qreg q[1];\nu1({angle}) q[0];")

    @pytest.mark.parametrize(
        "angle", ["(" * 400 + "1" + ")" * 400, "-" * 2000 + "1"], ids=["parens", "minus-signs"]
    )
    def test_deeply_nested_angle_is_parse_error(self, angle):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_circuit(f"qreg q[1];\nu1({angle}) q[0];")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("qreg q[1];\nbogus q[0];", 2),
            ("qreg q[1];\nh q[0];\nx q[0]", 3),
            ("qreg q[1];\ncreg c[1];\nmeasure r[0] -> c[0];", 3),
            ("qreg q[2];\n\nh q[0];\ncx q[0], q[2];", 4),
            ("qreg q[1]; // one qubit\nu1(pi/0) q[0];", 2),
            ("OPENQASM foo;\nqreg q[1];", 1),
            ("OPENQASM ->;\nqreg q[1];", 1),
            ("OPENQASM ;;\nqreg q[1];", 1),
        ],
        ids=["unknown-gate", "missing-final-semicolon", "unknown-register",
             "index-out-of-range", "bad-angle", "version-name", "version-arrow",
             "version-semicolon"],
    )
    def test_error_carries_position(self, text, line):
        try:
            parse_circuit(text)
        except ParseError as exc:
            assert exc.line == line
        else:
            pytest.fail("expected ParseError")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\n"
                "if (c[0]==1) x q[1];\nif (c[0]==1) x q[1];\nif (c[0]==2) x q[1];\n",
                "line 7, col 1: condition value must be 0 or 1",
            ),
            (
                "OPENQASM 2.0;\nqreg q[2];\nh q[1];\nh q[1];\nh q[2];\n",
                "line 5, col 1: index 2 out of range for q[2]",
            ),
            (
                "qreg q[2];\nh q[1];\nh q[1];\nqreg r[1];\n",
                "line 4, col 1: register declarations must precede operations",
            ),
        ],
        ids=["condition-value", "index-out-of-range", "late-register"],
    )
    def test_error_after_repeated_operands_keeps_its_position(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_circuit(text)
        assert str(caught.value) == message


def test_each_distinct_operand_is_resolved_once(monkeypatch):
    text = serialize_circuit(generate("dqft", 100))
    evaluated = []
    evaluate = qasm._angle

    def counting_angle(angle):
        evaluated.append(angle)
        return evaluate(angle)

    monkeypatch.setattr(qasm, "_angle", counting_angle)
    c = parse_circuit(text)
    angles = set(re.findall(r"u1\((.*?)\) ", text))
    assert sorted(evaluated) == sorted(angles)
    # ops with the same operand text share one object
    for field in ("qubits", "params", "condition"):
        values = [getattr(op, field) for op in c.ops if op.name == "u1"]
        assert len({id(v) for v in values}) == len(set(values))


def test_serialized_text_starts_with_openqasm_header():
    lines = serialize_circuit(generate("dqft", 3)).splitlines()
    assert lines[:2] == ["OPENQASM 2.0;", 'include "qelib1.inc";']


def test_roundtrip_all_benchmark_families():
    for fam, n in (("dqft", 6), ("ipe", 5), ("cc", 5), ("random", 6)):
        c = generate(fam, n, seed=2)
        again = parse_circuit(serialize_circuit(c))
        assert again == c


@st.composite
def arbitrary_circuits(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = rng.randint(1, 6)
    n_cl = rng.randint(1, 4)
    ops = []
    written = set()
    for _ in range(rng.randint(0, 30)):
        roll = rng.random()
        condition = None
        if written and rng.random() < 0.3:
            bits = rng.sample(sorted(written), rng.randint(1, min(2, len(written))))
            condition = frozenset((b, rng.randint(0, 1)) for b in bits)
        if roll < 0.45:
            name = rng.choice(["h", "x", "z", "u1"])
            params = (rng.uniform(-math.pi, math.pi),) if name == "u1" else ()
            ops.append(Operation(name, (rng.randrange(n),), params, None, condition))
        elif roll < 0.65 and n >= 2:
            a, b = rng.sample(range(n), 2)
            ops.append(Operation(rng.choice(["cx", "cz", "swap"]), (a, b), (), None, condition))
        elif roll < 0.8:
            cl = rng.randrange(n_cl)
            ops.append(Operation("measure", (rng.randrange(n),), (), cl, None))
            written.add(cl)
        elif roll < 0.9:
            ops.append(Operation("reset", (rng.randrange(n),), (), None, condition))
        else:
            qs = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            ops.append(Operation("barrier", qs, (), None, None))
    c = Circuit(n, n_cl, tuple(ops))
    c.validate()
    return c


@settings(max_examples=80, deadline=None)
@given(arbitrary_circuits())
def test_serialize_parse_roundtrip(c):
    assert parse_circuit(serialize_circuit(c)) == c


_QASM_ALPHABET = "qcregmasuxzhib1[]()0;,->=&/+*^.pe \n\"/"


def _mutate(text: str, rng: random.Random) -> str:
    """Delete a short span, or insert random characters or a copy of a span."""
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.4:
            text = text[:at] + text[at + rng.randint(1, 6) :]
        elif roll < 0.7:
            text = text[:at] + "".join(rng.choices(_QASM_ALPHABET, k=rng.randint(1, 4))) + text[at:]
        else:
            src = rng.randrange(len(text) + 1)
            text = text[:at] + text[src : src + rng.randint(1, 12)] + text[at:]
    return text


def _parse_or_reject(text: str) -> None:
    """The parser's contract: a Circuit, or ParseError / CircuitError, for any text."""
    try:
        assert isinstance(parse_circuit(text), Circuit)
    except (ParseError, CircuitError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=80), st.text(_QASM_ALPHABET, max_size=80)))
def test_arbitrary_text_parses_or_is_rejected(text):
    _parse_or_reject(text)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["dqft", "ipe", "cc", "random"]),
    st.integers(4, 6),
    st.integers(0, 10**6),
)
def test_edited_benchmark_text_parses_or_is_rejected(family, n, seed):
    rng = random.Random(seed)
    text = serialize_circuit(generate(family, n, seed=seed % 7))
    _parse_or_reject(_mutate(text, rng))


_GOOD_ANGLES = ["pi/4", "-pi/2^3", "0.5"]
_BAD_ANGLES = ["1e400", "-1e400", "(-8)^0.5", "1e308*10", "2^10000", "1/0", "pi pi"]
_ODD_STATEMENTS = [
    "qreg q[2], r[1]", "creg c [1]", "qreg(1) q[2]", "qreg  r[1]  ", "if (c[0]==1) q[0]", "hq[0]",
    "measure q[0]->c[0]", "measure q[0]", "measure q[0], q[1]", "OPENQASM 2.0", "OPENQASM2",
    'include "a;b"', "barrier", "if (c[0]==1) barrier q[0]", "if (c[0]==1) measure q[0] -> c[0]",
    "u1 q[0]", "h(pi) q[0]", "reset q[0], q[1]", "x q[0] // c;", "", "  ", "y q[0]",
]


@st.composite
def statement_soups(draw):
    """Program text mixing good statements with ones that fail a check of
    the parser or of validate: repeated operands, non-finite or complex
    angles, conditions on clbits no measure wrote yet, registers after ops,
    measures without a target, and other near misses.  The failing kinds are
    drawn rarely, so that many texts parse and many fail on one of them."""
    n_q, n_c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    qubit = st.sampled_from([*range(n_q)] * 8 + [n_q])  # n_q is out of range
    clbit = st.sampled_from([*range(n_c)] * 8 + [n_c])
    lines = draw(st.lists(st.sampled_from(["OPENQASM 2.0", 'include "qelib1.inc"']), max_size=1))
    if draw(st.integers(0, 19)):
        lines.append(f"qreg q[{n_q}]")
    if draw(st.integers(0, 9)):
        lines.append(f"creg c[{n_c}]")
    kinds = ["one"] * 4 + ["u1"] * 3 + ["two"] * 3 + ["measure"] * 4 + ["barrier", "odd", "reg"]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "one":
            stmt = f"{draw(st.sampled_from(['h', 'x', 'z', 'reset']))} q[{draw(qubit)}]"
        elif kind == "u1":
            angles = _GOOD_ANGLES * 3 + _BAD_ANGLES
            stmt = f"u1({draw(st.sampled_from(angles))}) q[{draw(qubit)}]"
        elif kind == "two":  # operands drawn independently, so at times repeated
            stmt = f"{draw(st.sampled_from(['cx', 'cz', 'swap']))} q[{draw(qubit)}], q[{draw(qubit)}]"
        elif kind == "barrier":
            stmt = "barrier " + ", ".join(f"q[{q}]" for q in draw(st.lists(qubit, min_size=1, max_size=3)))
        elif kind == "measure":
            stmt = f"measure q[{draw(qubit)}] -> c[{draw(clbit)}]"
        elif kind == "odd":
            stmt = draw(st.sampled_from(_ODD_STATEMENTS))
        else:
            stmt = draw(st.sampled_from(["qreg r[1]", "creg d[1]", f"qreg q[{n_q}]"]))
        if kind in ("one", "u1", "two") and draw(st.booleans()):
            bits = draw(st.lists(clbit, min_size=1, max_size=2, unique=draw(st.integers(0, 9)) > 0))
            values = st.sampled_from([0, 1] * 8 + [2])
            stmt = "if (" + " && ".join(f"c[{b}]=={draw(values)}" for b in bits) + f") {stmt}"
        lines.append(stmt)
    text = "".join(f"{stmt};\n" for stmt in lines)
    return text if draw(st.integers(0, 39)) else text + "h q[0]"


def _outcome(parse, text):
    """The circuit, or (type, message, line, col) of the error raised."""
    try:
        return parse(text)
    except (ParseError, CircuitError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


@settings(max_examples=400, deadline=None)
@given(statement_soups())
def test_parse_equals_parse_then_validate(text):
    got = _outcome(parse_circuit, text)
    assert got == _outcome(reference_parse, text)
    if isinstance(got, Circuit):
        assert "_valid" in got.__dict__  # recorded, so validate returns at once


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["dqft", "ipe", "cc", "random"]),
    st.integers(4, 6),
    st.integers(0, 10**6),
)
def test_edited_benchmark_text_parses_as_reference(family, n, seed):
    rng = random.Random(seed)
    text = _mutate(serialize_circuit(generate(family, n, seed=seed % 7)), rng)
    assert _outcome(parse_circuit, text) == _outcome(reference_parse, text)


def _same_match(a, b) -> bool:
    return (a is None) == (b is None) and (a is None or a.groupdict() == b.groupdict())


@settings(max_examples=300, deadline=None)
@given(st.one_of(statement_soups(), st.text(_QASM_ALPHABET, max_size=60)))
def test_statement_pattern_matches_as_todays(text):
    for stmt in reference_mask(text).split(";"):
        want = REFERENCE_STATEMENT.fullmatch(stmt)
        assert _same_match(qasm._STATEMENT.fullmatch(stmt), want), stmt


@settings(max_examples=300, deadline=None)
@given(st.text('"/;\nab ', max_size=40))
def test_mask_drops_comments_and_blanks_strings_as_todays(text):
    assert qasm._mask(text) == reference_mask(text)
