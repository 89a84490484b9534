import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import CircuitError, build_dag
from dynlayout.circuit import Circuit, Operation, depth


def op(name, *qubits, params=(), clbit=None, condition=None):
    return Operation(name, tuple(qubits), tuple(params), clbit, condition)


def circuit(n, c, *ops):
    circ = Circuit(n, c, tuple(ops))
    circ.validate()
    return circ


class TestOperationValidate:
    def test_arity_mismatch(self):
        with pytest.raises(CircuitError):
            op("cx", 0).validate(2, 0)

    def test_param_count(self):
        with pytest.raises(CircuitError):
            op("h", 0, params=(0.5,)).validate(1, 0)
        op("u1", 0, params=(0.5,)).validate(1, 0)

    @pytest.mark.parametrize("angle", [complex(0, 1), math.inf, -math.inf, math.nan])
    def test_angle_must_be_finite_real(self, angle):
        with pytest.raises(CircuitError, match="finite real"):
            op("u1", 0, params=(angle,)).validate(1, 0)

    @pytest.mark.parametrize("angle, ok", [
        (1, True), (True, True), (Fraction(1, 3), True), (np.float32(0.25), True),
        (np.float64(0.25), True), (0.25, True), (math.nan, False), (math.inf, False),
        ("1.0", False), (None, False),
    ], ids=repr)
    def test_angle_accept_reject_set(self, angle, ok):
        u1 = op("u1", 0, params=(angle,))
        if ok:
            u1.validate(1, 0)
        else:
            with pytest.raises(CircuitError, match="finite real"):
                u1.validate(1, 0)

    def test_duplicate_operands(self):
        with pytest.raises(CircuitError):
            op("cx", 1, 1).validate(2, 0)

    def test_qubit_range(self):
        with pytest.raises(CircuitError):
            op("x", 3).validate(3, 0)

    @pytest.mark.parametrize("bad", [
        op("reset", 0, params=(math.nan,)),
        op("measure", 0, params=(1.0,), clbit=0),
        op("barrier", 0, params=("x",)),
    ], ids=["reset", "measure", "barrier"])
    def test_non_gates_take_no_params(self, bad):
        # serialize_circuit writes no params for these, so they would be lost
        with pytest.raises(CircuitError, match="takes no params"):
            bad.validate(1, 1)

    def test_condition_repeating_a_clbit_rejected(self):
        # serialize_circuit would write `if (c[0]==0 && c[0]==1)`, which the
        # parser rejects
        bad = op("x", 0, condition=frozenset({(0, 0), (0, 1)}))
        with pytest.raises(CircuitError, match="repeated clbit"):
            bad.validate(1, 1)

    def test_conditioned_measure_rejected(self):
        bad = op("measure", 0, clbit=0, condition=frozenset({(0, 1)}))
        with pytest.raises(CircuitError):
            bad.validate(1, 1)

    def test_classification(self):
        assert op("cx", 0, 1).is_two_qubit
        assert not op("swap", 0, 1).is_measure
        assert op("measure", 0, clbit=0).is_measure
        assert op("barrier", 0, 1, 2).is_barrier


class TestCircuitValidate:
    def test_condition_needs_earlier_measure(self):
        with pytest.raises(CircuitError, match="before any measure"):
            circuit(2, 1, op("x", 1, condition=frozenset({(0, 1)})))

    def test_condition_after_measure_ok(self):
        c = circuit(
            2,
            1,
            op("measure", 0, clbit=0),
            op("x", 1, condition=frozenset({(0, 1)})),
        )
        assert c.is_dynamic()

    def test_clbit_range(self):
        with pytest.raises(CircuitError):
            circuit(1, 1, op("measure", 0, clbit=5))

    @pytest.mark.parametrize("ops", [
        (op("u1", 0, params=(math.nan,)),),
        (op("h", 0), op("x", 1, condition=frozenset({(0, 1)}))),
    ], ids=["bad-angle", "condition-before-measure"])
    def test_failure_repeats_on_every_call(self, ops):
        # a failed check records nothing, so the circuit never passes later
        c = Circuit(2, 1, ops)
        for _ in range(3):
            with pytest.raises(CircuitError):
                c.validate()

    def test_static_circuit_not_dynamic(self):
        c = circuit(2, 0, op("h", 0), op("cx", 0, 1))
        assert not c.is_dynamic()
        assert c.two_qubit_count() == 1


class TestDag:
    def test_linear_chain_on_one_qubit(self):
        c = circuit(1, 0, op("h", 0), op("x", 0), op("z", 0))
        dag = build_dag(c)
        assert dag.front_layer() == [0]
        assert dag.succ[0] == (1,)
        assert dag.succ[1] == (2,)

    def test_measure_feeds_conditional(self):
        c = circuit(
            2,
            1,
            op("measure", 0, clbit=0),
            op("x", 1, condition=frozenset({(0, 1)})),
        )
        dag = build_dag(c)
        assert 1 in dag.succ[0]

    def test_clbit_overwrite_binds_latest_writer(self):
        # second measure rewrites c0; the conditional must depend on it
        c = circuit(
            3,
            1,
            op("measure", 0, clbit=0),
            op("measure", 1, clbit=0),
            op("x", 2, condition=frozenset({(0, 1)})),
        )
        dag = build_dag(c)
        assert 2 in dag.succ[1]
        # write-after-read: a re-measure of the same clbit must not overtake
        # an earlier conditional read
        assert 1 in dag.succ[0]

    def test_independent_ops_parallel(self):
        c = circuit(4, 0, op("h", 0), op("h", 1), op("h", 2), op("h", 3))
        assert build_dag(c).front_layer() == [0, 1, 2, 3]
        assert depth(c) == 1


class TestMetrics:
    def test_depth_longest_path(self):
        c = circuit(2, 0, op("h", 0), op("h", 1), op("cx", 0, 1), op("x", 0))
        assert depth(c) == 3

    def test_barriers_not_counted(self):
        c = circuit(2, 0, op("h", 0), op("barrier", 0, 1), op("h", 1))
        assert c.count_ops() == 2

    def test_barrier_orders_but_adds_no_depth(self):
        sequential = circuit(2, 0, op("h", 0), op("barrier", 0, 1), op("h", 1))
        assert depth(sequential) == 2


@st.composite
def random_static_circuits(draw):
    n = draw(st.integers(2, 6))
    n_ops = draw(st.integers(0, 25))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["h", "x", "z", "cx"]))
        if kind == "cx":
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            if b >= a:
                b += 1
            ops.append(op("cx", a, b))
        else:
            ops.append(op(kind, draw(st.integers(0, n - 1))))
    return circuit(n, 0, *ops)


@settings(max_examples=60, deadline=None)
@given(random_static_circuits())
def test_depth_bounded_by_op_count(c):
    assert 0 <= depth(c) <= c.count_ops()


@st.composite
def random_dynamic_circuits(draw):
    """Gates, barriers, re-measured clbits and one- or two-bit conditions."""
    n = draw(st.integers(2, 5))
    n_clbits = draw(st.integers(1, 3))
    written: list[int] = []
    ops = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["h", "cx", "measure", "if", "barrier"]))
        if kind == "cx":
            a, b = draw(st.permutations(range(n)))[:2]
            ops.append(op("cx", a, b))
        elif kind == "measure":
            bit = draw(st.integers(0, n_clbits - 1))
            ops.append(op("measure", draw(st.integers(0, n - 1)), clbit=bit))
            written.append(bit)
        elif kind == "if" and written:
            bits = draw(st.sets(st.sampled_from(sorted(set(written))), min_size=1, max_size=2))
            condition = frozenset((b, draw(st.integers(0, 1))) for b in bits)
            ops.append(op(draw(st.sampled_from(["x", "reset"])), draw(st.integers(0, n - 1)),
                          condition=condition))
        elif kind == "barrier":
            qubits = draw(st.sets(st.integers(0, n - 1), min_size=1))
            ops.append(op("barrier", *sorted(qubits)))
        else:
            ops.append(op("h", draw(st.integers(0, n - 1))))
    return circuit(n, n_clbits, *ops)


@settings(max_examples=150, deadline=None)
@given(random_dynamic_circuits())
def test_depth_is_longest_dag_path(c):
    # every DAG edge runs from a lower op index to a higher one, so one pass
    # in index order sees each op's predecessors first
    dag = build_dag(c)
    level = []
    for i, o in enumerate(c.ops):
        below = max((level[p] for p in dag.pred[i]), default=0)
        level.append(below + (0 if o.is_barrier else 1))
    assert depth(c) == max(level, default=0)


@settings(max_examples=60, deadline=None)
@given(random_static_circuits())
def test_front_layer_has_no_predecessors(c):
    dag = build_dag(c)
    front = set(dag.front_layer())
    for node in front:
        assert not dag.pred[node]
    # and every other node has at least one predecessor
    for node in range(len(c.ops)):
        if node not in front:
            assert dag.pred[node]


def test_u1_angle_preserved():
    c = circuit(1, 0, op("u1", 0, params=(math.pi / 4,)))
    assert c.ops[0].params == (math.pi / 4,)
