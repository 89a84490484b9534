"""Dynamic-circuit benchmark families.

All generators are deterministic for a given argument tuple (the random family
additionally takes a seed) and return validated circuits.

gen_dqft(n)
    Dynamic quantum Fourier transform: for qubit i (0-based), first the
    conditional rotations `if (c[j]==1) u1(pi/2^(i-j))` for every j < i, then
    h, then measure into c[i].  Op count n(n-1)/2 + 2n; no two-qubit gates;
    the measure of qubit j < n-1 steers all later qubits, so its dependency
    set is {j} with targets {j+1, ..., n-1}.

gen_ipe(n)
    Iterative-phase-estimation style: one ancilla (qubit 0) runs n-1 rounds
    against system qubits 1..n-1.  Each round r: h on the ancilla, a
    controlled-phase ladder cx/u1(pi/2^(r+1))/cx from the ancilla onto every
    system qubit, conditional u1 corrections on the ancilla keyed on every
    earlier round's bit, measure into the round's own clbit, reset.

gen_counterfeit_coin(n)
    Counterfeit-coin search skeleton: query register 0..n-2 in superposition,
    cx fan-in onto the oracle qubit n-1, measure the oracle, conditionally
    re-prepare the whole register on outcome 1 (one conditional h per register
    qubit), fan in again, measure the oracle and finally the register.

gen_random_dqc(n, n_blocks, seed)
    n_blocks blocks of: one random 1q gate from {h, x, z} per qubit, a random
    set of disjoint cx pairs, one measure into the block's own clbit, and one
    conditional 1q gate on a different random qubit, so exactly one dependency
    set per block.
"""
from __future__ import annotations

import math
import random

from .circuit import Circuit, Operation


def _circuit(n_qubits: int, n_clbits: int, ops: list[Operation]) -> Circuit:
    circuit = Circuit(n_qubits, n_clbits, tuple(ops))
    circuit.validate()
    return circuit


def gen_dqft(n: int) -> Circuit:
    if n < 1:
        raise ValueError("dqft needs n >= 1")
    ops: list[Operation] = []
    for i in range(n):
        for j in range(i):
            ops.append(
                Operation("u1", (i,), (math.ldexp(math.pi, j - i),), condition=frozenset({(j, 1)}))
            )
        ops.append(Operation("h", (i,)))
        ops.append(Operation("measure", (i,), clbit=i))
    return _circuit(n, n, ops)


def gen_ipe(n: int) -> Circuit:
    if n < 2:
        raise ValueError("ipe needs n >= 2")
    anc = 0
    rounds = n - 1
    ops: list[Operation] = []
    for r in range(rounds):
        ops.append(Operation("h", (anc,)))
        theta = math.ldexp(math.pi, -(r + 1))
        for s in range(1, n):
            ops.append(Operation("cx", (anc, s)))
            ops.append(Operation("u1", (s,), (theta,)))
            ops.append(Operation("cx", (anc, s)))
        for j in range(r):
            ops.append(
                Operation(
                    "u1", (anc,), (-math.ldexp(math.pi, j - r - 1),), condition=frozenset({(j, 1)})
                )
            )
        ops.append(Operation("measure", (anc,), clbit=r))
        ops.append(Operation("reset", (anc,)))
    return _circuit(n, rounds, ops)


def gen_counterfeit_coin(n: int) -> Circuit:
    if n < 4:
        raise ValueError("counterfeit-coin needs n >= 4")
    oracle = n - 1
    register = range(n - 1)
    ops: list[Operation] = []
    for q in register:
        ops.append(Operation("h", (q,)))
    for q in register:
        ops.append(Operation("cx", (q, oracle)))
    ops.append(Operation("measure", (oracle,), clbit=0))
    for q in register:
        ops.append(Operation("h", (q,), condition=frozenset({(0, 1)})))
    for q in register:
        ops.append(Operation("cx", (q, oracle)))
    ops.append(Operation("measure", (oracle,), clbit=1))
    for q in register:
        ops.append(Operation("h", (q,)))
    for q in register:
        ops.append(Operation("measure", (q,), clbit=2 + q))
    return _circuit(n, n + 1, ops)


def gen_random_dqc(n: int, n_blocks: int, seed: int = 0) -> Circuit:
    if n < 2:
        raise ValueError("random dqc needs n >= 2")
    if n_blocks < 1:
        raise ValueError("need at least one block")
    rng = random.Random(seed)
    ops: list[Operation] = []
    for b in range(n_blocks):
        for q in range(n):
            ops.append(Operation(rng.choice(("h", "x", "z")), (q,)))
        perm = rng.sample(range(n), n)
        n_pairs = rng.randint(1, n // 2)
        for p in range(n_pairs):
            ops.append(Operation("cx", (perm[2 * p], perm[2 * p + 1])))
        measured = rng.randrange(n)
        target = rng.choice([q for q in range(n) if q != measured])
        ops.append(Operation("measure", (measured,), clbit=b))
        ops.append(
            Operation(rng.choice(("h", "x", "z")), (target,), condition=frozenset({(b, 1)}))
        )
    return _circuit(n, n_blocks, ops)


GENERATORS = {
    "dqft": gen_dqft,
    "ipe": gen_ipe,
    "pe": gen_ipe,
    "cc": gen_counterfeit_coin,
    "random": gen_random_dqc,
}


def generate(family: str, n: int, n_blocks: int | None = None, seed: int = 0) -> Circuit:
    """Dispatch by family name (dqft | ipe | cc | random); only the random
    family takes a block count."""
    if family not in GENERATORS:
        raise ValueError(f"unknown benchmark family {family!r}")
    if n_blocks is not None and family != "random":
        raise ValueError(
            f"a block count ({n_blocks}) only applies to the random family, not {family!r}"
        )
    if family == "random":
        return gen_random_dqc(n, n_blocks if n_blocks is not None else n, seed)
    return GENERATORS[family](n)
