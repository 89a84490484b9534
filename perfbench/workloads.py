"""Workload definitions and input generation.

A workload is a fixed batch of benchmark circuits, a controller count and a
set of mode seeds.  Each circuit is written as the canonical OpenQASM text
of `dynlayout.qasm.serialize_circuit`, the text `dynlayout gen` emits.  The
inputs do not depend on the run's seed, so runs differ only by host noise
(see README.md for why).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# (name, qubits, params, clbit, condition): condition is a sorted tuple of
# (clbit, value) pairs or None.  The checker works on this form only.
Op = tuple


@dataclass(frozen=True)
class Source:
    """A generated circuit in the benchmark's own representation."""

    label: str
    n_qubits: int
    n_clbits: int
    ops: tuple[Op, ...]
    text: str  # canonical OpenQASM, as `dynlayout gen` writes it


@dataclass(frozen=True)
class Workload:
    name: str
    k: int  # controllers in a star, over heavy-hex-127
    circuits: tuple[tuple[str, int, int | None, int], ...]  # (family, n, blocks, generator seed)
    mode_seeds: tuple[int, ...]
    sweep: bool  # True: drive `dynlayout sweep` (class + baseline per cell)


WORKLOADS = {
    w.name: w
    for w in (
        # placement stage 2 is almost all the work; dqft has no two-qubit
        # gates, so the router makes zero SWAP decisions.  Nine sizes, dense
        # around 40: the median and the tail fall inside one circuit's
        # samples, among neighbours of similar cost.
        Workload(
            name="dqft-place",
            k=5,
            circuits=tuple(("dqft", n, None, 0) for n in (20, 30, 36, 38, 40, 42, 44, 60, 100)),
            mode_seeds=(0,),
            sweep=False,
        ),
        # the paper's evaluation loop through the CLI, class and baseline per
        # cell: pe ladders where class routing hardly ties, a 48-qubit random
        # circuit where about half the class decisions reach the ICCS
        # tie-break, the random layout and the random tie-break; routing is
        # most of the work.  random48 has 6 blocks, not 48, so that one
        # compile takes about a second.  An odd number of files puts the
        # median cell time inside one circuit's samples, not on a gap.
        Workload(
            name="paired-sweep",
            k=4,
            circuits=(
                ("pe", 20, None, 0),
                ("pe", 30, None, 0),
                ("cc", 12, None, 0),
                ("cc", 26, None, 0),
                ("cc", 40, None, 0),
                ("random", 20, 20, 0),
                ("random", 48, 6, 0),
            ),
            mode_seeds=(0, 1),
            sweep=True,
        ),
    )
}


def circuit_label(family: str, n: int, blocks: int | None) -> str:
    return f"{family}{n}" + (f"x{blocks}" if blocks is not None else "")


def op_tuple(op) -> Op:
    """The benchmark's form of one dynlayout Operation."""
    cond = None if op.condition is None else tuple(sorted(op.condition))
    return (op.name, tuple(op.qubits), tuple(op.params), op.clbit, cond)


def generate_sources(circuits) -> list[Source]:
    """(family, n, blocks, generator seed) specs made into circuits by
    dynlayout.benchgen and serialized by dynlayout.qasm."""
    from dynlayout.benchgen import generate
    from dynlayout.qasm import serialize_circuit

    out = []
    for family, n, blocks, gen_seed in circuits:
        circuit = generate(family, n, n_blocks=blocks, seed=gen_seed)
        out.append(
            Source(
                circuit_label(family, n, blocks),
                circuit.n_qubits,
                circuit.n_clbits,
                tuple(op_tuple(op) for op in circuit.ops),
                serialize_circuit(circuit),
            )
        )
    return out


def write_inputs(sources: list[Source], workdir: Path) -> list[Path]:
    """Write one .qasm file per source, its canonical text."""
    paths = []
    for i, src in enumerate(sources):
        path = workdir / f"{i:02d}-{src.label}.qasm"
        path.write_text(src.text)
        paths.append(path)
    return paths
