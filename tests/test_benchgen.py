import math

import pytest

from dynlayout import build_dag, build_hypergraph, extract_cidq_sets, generate
from dynlayout.benchgen import GENERATORS


@pytest.mark.parametrize("fam", ["dqft", "ipe", "cc", "random"])
@pytest.mark.parametrize("n", [4, 7, 12])
def test_generated_circuits_validate(fam, n):
    c = generate(fam, n, seed=1)
    c.validate()
    build_dag(c)  # acyclic with well-formed dependencies


class TestDqft:
    def test_op_count_formula(self):
        for n in (1, 2, 5, 12, 30):
            c = generate("dqft", n)
            assert c.count_ops() == n * (n - 1) // 2 + 2 * n

    def test_n1_trivial(self):
        c = generate("dqft", 1)
        assert [op.name for op in c.ops] == ["h", "measure"]
        assert len(extract_cidq_sets(c)) == 0

    def test_set_count_and_degrees(self):
        for n in (2, 4, 9):
            ld = extract_cidq_sets(generate("dqft", n))
            assert len(ld) == n - 1
            hyper = build_hypergraph(ld, n)
            # nested membership: qubit i sits in sets 0..i-1 plus its own
            assert [hyper.degree(q) for q in range(n)] == [
                min(q + 1, n - 1) for q in range(n)
            ]

    def test_type_one(self):
        assert generate("dqft", 10).two_qubit_count() == 0


class TestIpe:
    def test_type_two_with_sets(self):
        c = generate("ipe", 20)
        assert c.two_qubit_count() > 0
        assert len(extract_cidq_sets(c)) >= 18

    def test_pe_alias(self):
        assert generate("pe", 6) == generate("ipe", 6)

    def test_smallest_instance(self):
        c = generate("ipe", 2)
        c.validate()
        assert len(extract_cidq_sets(c)) <= 1

    def test_conditionals_read_earlier_rounds_only(self):
        c = generate("ipe", 8)
        written = set()
        for op in c.ops:
            if op.condition is not None:
                assert {bit for bit, _ in op.condition} <= written
            if op.is_measure:
                written.add(op.clbit)


class TestCounterfeitCoin:
    def test_wide_feedforward_set(self):
        for n in (4, 12):
            ld = extract_cidq_sets(generate("cc", n))
            assert any(len(d.targets) >= n - 1 for d in ld)

    def test_type_two(self):
        assert generate("cc", 12).two_qubit_count() > 0

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            generate("cc", 3)


class TestRandomDqc:
    def test_one_set_per_block(self):
        for blocks in (1, 5, 17):
            ld = extract_cidq_sets(generate("random", 8, n_blocks=blocks, seed=3))
            assert len(ld) == blocks

    def test_seed_determinism(self):
        a = generate("random", 10, n_blocks=12, seed=9)
        b = generate("random", 10, n_blocks=12, seed=9)
        assert a == b
        assert a != generate("random", 10, n_blocks=12, seed=10)

    def test_blocks_default_to_n(self):
        c = generate("random", 6, seed=0)
        assert len(extract_cidq_sets(c)) == 6


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        generate("qaoa", 5)


@pytest.mark.parametrize("family", ["dqft", "ipe", "pe", "cc"])
def test_block_count_outside_random_rejected(family):
    with pytest.raises(ValueError, match=r"block count \(5\)"):
        generate(family, 6, n_blocks=5)


def test_generators_table_complete():
    assert set(GENERATORS) == {"dqft", "ipe", "pe", "cc", "random"}



def test_dqft_past_1024_qubits_gives_finite_angles():
    # dqft-n has angles pi / 2**d for d up to n - 1; at d = 1024, 2**d no
    # longer converts to a float, and the angle is a subnormal float
    c = generate("dqft", 1025)
    c.validate()
    angles = [p for op in c.ops for p in op.params]
    assert all(math.isfinite(p) for p in angles)
    assert min(angles) == math.ldexp(math.pi, -1024) > 0
    assert angles[:3] == [math.pi / 2, math.pi / 4, math.pi / 2]
