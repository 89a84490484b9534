"""Shared instance builders for the test suite."""
from __future__ import annotations

import random
import re

from dynlayout import LogicalPhysicalMap, contiguous_assignment, star_topology, qasm
from dynlayout.cidq import CidqList, CidqSet
from dynlayout.circuit import GATE_PARAM_COUNT, TWO_QUBIT_GATES, Circuit, Operation
from dynlayout.control import MAX_HOP, ConfigError, QubitControllerMap, fill_slots


def random_cidq_list(rng: random.Random, n_qubits: int, n_sets: int) -> CidqList:
    """Synthetic dependency sets over n_qubits, each one measured qubit plus a
    nonempty target group (no backing circuit needed for placement tests)."""
    sets = []
    for i in range(n_sets):
        src = rng.randrange(n_qubits)
        pool = [q for q in range(n_qubits) if q != src]
        n_tgt = rng.randint(1, max(1, min(len(pool), n_qubits // 2)))
        targets = frozenset(rng.sample(pool, n_tgt))
        sets.append(CidqSet(i, frozenset({src}), targets))
    ld = CidqList(tuple(sets), n_qubits)
    ld.validate()
    return ld


def reference_stage1(mc: QubitControllerMap, hypergraph, seed: int) -> LogicalPhysicalMap:
    """Stage-1 greedy seeding as it was written before bitmask scoring: each
    qubit's placed neighbours gathered from a set union of its incident
    hyperedges and counted per controller in a dict."""
    rng = random.Random(seed)
    n, k = hypergraph.n_vertices, mc.k
    free = [0] * k
    for c in mc.assignment:
        free[int(c)] += 1
    placed_ctl: dict[int, int] = {}
    placed_count = [0] * k
    for q in sorted(range(n), key=lambda q: (-hypergraph.degree(q), q)):
        eligible = [c for c in range(k) if free[c] > 0]
        neighbours = set().union(*(hypergraph.hyperedges[e] for e in hypergraph.incidence[q])) - {q}
        score: dict[int, int] = {}
        for x in neighbours:
            if x in placed_ctl:
                score[placed_ctl[x]] = score.get(placed_ctl[x], 0) + 1
        if score:
            choice = max(eligible, key=lambda c: (score.get(c, 0), free[c], -c))
        elif hypergraph.degree(q) > 0:
            most_free = max(free[c] for c in eligible)
            choice = rng.choice([c for c in eligible if free[c] == most_free])
        else:
            choice = max(eligible, key=lambda c: (placed_count[c], free[c], -c))
        free[choice] -= 1
        placed_count[choice] += 1
        placed_ctl[q] = choice
    return fill_slots(LogicalPhysicalMap(n, mc.m), mc, placed_ctl.items())


def uniform_setup(n_qubits: int, k: int, capacity: int):
    """Star topology plus a contiguous controller split of k*capacity slots."""
    topo = star_topology(k)
    mc = contiguous_assignment(k * capacity, k)
    return topo, mc


def explicit_mapping(slots: list[int], m: int) -> LogicalPhysicalMap:
    mq = LogicalPhysicalMap(len(slots), m)
    for q, p in enumerate(slots):
        mq.assign(q, p)
    return mq


def complete_random_mapping(
    rng: random.Random, n_qubits: int, mc: QubitControllerMap
) -> LogicalPhysicalMap:
    mq = LogicalPhysicalMap(n_qubits, mc.m)
    for q, p in enumerate(rng.sample(range(mc.m), n_qubits)):
        mq.assign(q, p)
    return mq


def random_metric_hops(rng: random.Random, k: int) -> list[list[int]]:
    """Random symmetric hop matrix with entries in 1..4; metric closure keeps
    the triangle inequality that topology validation demands."""
    hop = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            hop[i][j] = hop[j][i] = rng.randint(1, 4)
    for via in range(k):
        for a in range(k):
            for b in range(k):
                if a != b:
                    hop[a][b] = min(hop[a][b], hop[a][via] + hop[via][b])
    return hop


def reference_set_cost(d: CidqSet, ctl_of: list[int], hop, mode: str) -> int:
    """The paper's cost of one dependency set, written out pair by pair.

    ctl_of[q] is the controller holding logical qubit q.  pair mode pays the
    hop of every distinct (source controller, target controller) pair once;
    per_target mode pays it for every (measured qubit, target qubit)
    combination.  A pair on one controller pays nothing.
    """
    src = [ctl_of[q] for q in d.measured]
    tgt = [ctl_of[q] for q in d.targets]
    if mode == "pair":
        return sum(hop[cs][ct] for cs in set(src) for ct in set(tgt) if cs != ct)
    return sum(hop[cs][ct] for cs in src for ct in tgt if cs != ct)


def reference_is_uniform(hop) -> bool:
    """True when all off-diagonal hops share one value."""
    k = len(hop)
    return len({hop[i][j] for i in range(k) for j in range(k) if i != j}) <= 1


def reference_validate_hops(hop) -> None:
    """matrix_topology's hop check written out entry by entry: the reference
    its numpy checks must match, error for error.  Scans row-major; each row
    checks its diagonal, then each entry's symmetry, lower bound and limit;
    then the triangle inequality against the Floyd-Warshall closure."""
    k = len(hop)
    if k < 1:
        raise ConfigError("need at least one controller")
    for row in hop:
        if len(row) != k:
            raise ConfigError("hop matrix must be square")
    for i in range(k):
        if hop[i][i] != 0:
            raise ConfigError(f"hop[{i}][{i}] must be 0")
        for j in range(k):
            if hop[i][j] != hop[j][i]:
                raise ConfigError(f"hop matrix asymmetric at ({i},{j})")
            if i != j and hop[i][j] < 1:
                raise ConfigError(f"hop[{i}][{j}] must be >= 1")
            if hop[i][j] > MAX_HOP:
                raise ConfigError(f"hop[{i}][{j}] = {hop[i][j]} exceeds the limit 2**31 - 1")
    if reference_is_uniform(hop):
        return
    closure = [list(row) for row in hop]
    for l in range(k):
        for i in range(k):
            for j in range(k):
                via = closure[i][l] + closure[l][j]
                if via < closure[i][j]:
                    closure[i][j] = via
    for i in range(k):
        for j in range(k):
            if closure[i][j] != hop[i][j]:
                raise ConfigError(
                    f"triangle inequality violated at ({i},{j}): "
                    f"hop {hop[i][j]} > relay {closure[i][j]}"
                )


# The parser's lexing and statement pattern as they were before the parser
# made validate's checks itself: a reference for the faster forms.
_ID = r"[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_])"
_NUM = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
_ARG = rf"{_ID}\s*\[\s*\d+\s*\]"
_TEST = rf"{_ARG}\s*==\s*\d+"
REFERENCE_LEXEME = re.compile(r'"[^"]*"|//[^\n]*')
REFERENCE_STATEMENT = re.compile(
    rf"""\s*(?:
        OPENQASM(?![A-Za-z0-9_])\s*{_NUM}
      | include\s*"[^"]*"
      | (?P<reg>[qc])reg\s+(?P<name>{_ID})\s*\[\s*(?P<size>\d+)\s*\]
      | measure\s+(?P<measure>{_ARG}\s*->\s*{_ARG})
      | (?:if\s*\(\s*(?P<cond>{_TEST}(?:\s*&&\s*{_TEST})*)\s*\)\s*)?
        (?P<op>{_ID})\s*(?:(?P<angle>\(.*\))\s*)?(?P<args>{_ARG}(?:\s*,\s*{_ARG})*)
    )\s*""",
    re.VERBOSE | re.DOTALL,
)


def reference_mask(text: str) -> str:
    """A "string" keeps its place (its `;`s blanked), a // comment is dropped."""
    return REFERENCE_LEXEME.sub(lambda m: m.group().replace(";", " ") if m.group()[0] == '"' else "", text)


def reference_parse(text: str) -> Circuit:
    """Parse statement by statement with the reference pattern, checking only
    what a statement alone shows, then validate a fresh circuit of the ops:
    the outcome parse_circuit must reproduce, circuit or error."""
    text = reference_mask(text)
    statements = text.split(";")
    regs: dict[str, tuple[str, int, int]] = {}
    ops: list[Operation] = []
    start = 0
    try:
        for stmt in statements[:-1]:
            m = REFERENCE_STATEMENT.fullmatch(stmt)
            if m is None:
                raise ValueError(f"malformed statement {stmt.strip()[:40]!r}")
            _reference_statement(m, regs, ops)
            start += len(stmt) + 1
        if statements[-1].strip():
            raise ValueError("missing ';' at end of statement")
    except ValueError as exc:
        stmt = text[start:].split(";", 1)[0]
        at = start + len(stmt) - len(stmt.lstrip())
        line = text.count("\n", 0, at) + 1
        raise qasm.ParseError(str(exc), line, at - text.rfind("\n", 0, at)) from None
    n_qubits, n_clbits = (sum(s for k, _, s in regs.values() if k == kind) for kind in "qc")
    circuit = Circuit(n_qubits, n_clbits, tuple(ops))
    circuit.validate()
    return circuit


def _reference_statement(m: re.Match, regs: dict, ops: list[Operation]) -> None:
    index = qasm._index
    name = m["op"]
    if name is not None:
        angle, cond, args = m["angle"], m["cond"], m["args"]
        qubits = tuple(index(regs, r, i, "q") for r, i, _ in qasm._PARTS.findall(args))
        if name == "barrier" and angle is None and cond is None:
            ops.append(Operation("barrier", qubits))
            return
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
            tests = [(index(regs, r, i, "c"), int(v)) for r, i, v in qasm._PARTS.findall(cond)]
            if any(v not in (0, 1) for _, v in tests):
                raise ValueError("condition value must be 0 or 1")
            if len({bit for bit, _ in tests}) != len(tests):
                raise ValueError("repeated clbit in condition")
            condition = frozenset(tests)
        params = () if angle is None else (qasm._angle(angle[1:-1]),)
        ops.append(Operation(name, qubits, params, condition=condition))
    elif m["measure"] is not None:
        (q, qi, _), (c, ci, _) = qasm._PARTS.findall(m["measure"])
        ops.append(Operation("measure", (index(regs, q, qi, "q"),), clbit=index(regs, c, ci, "c")))
    elif m["reg"] is not None:
        name, kind, size = m["name"], m["reg"], int(m["size"])
        if name in regs:
            raise ValueError(f"register {name!r} already declared")
        if size <= 0:
            raise ValueError(f"register {name!r} must have positive size")
        if ops:
            raise ValueError("register declarations must precede operations")
        regs[name] = (kind, sum(s for k, _, s in regs.values() if k == kind), size)
