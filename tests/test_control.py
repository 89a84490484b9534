import json
import pickle
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import (
    ConfigError,
    LogicalPhysicalMap,
    contiguous_assignment,
    controller_of,
    heavy_hex_127_device,
    line_device,
    load_topology,
    matrix_topology,
    star_topology,
    star_via_router_topology,
)
from dynlayout.control import (
    MAX_DEVICE_QUBITS,
    MAX_HOP,
    UNASSIGNED,
    DeviceGraph,
    QubitControllerMap,
    fill_slots,
    grid_device,
)
from helpers import random_metric_hops, reference_is_uniform, reference_validate_hops


class TestControllerTopology:
    def test_star_uniform_hop_one(self):
        topo = star_topology(4)
        assert topo.k == 4
        assert all(topo.hop[i][j] == (0 if i == j else 1) for i in range(4) for j in range(4))
        assert topo.is_uniform()

    def test_star_via_router_hop_two(self):
        topo = star_via_router_topology(3)
        assert topo.hop[0][1] == 2
        assert topo.is_uniform()

    def test_star_rows_as_built_entry_by_entry(self):
        for k in range(1, 41):
            for build, h in ((star_topology, 1), (star_via_router_topology, 2)):
                hop = build(k).hop
                assert hop.tolist() == [[0 if i == j else h for j in range(k)] for i in range(k)]
                assert matrix_topology(hop).hop.tolist() == hop.tolist()

    @pytest.mark.parametrize("build", [
        star_topology, star_via_router_topology,
        lambda k: matrix_topology(random_metric_hops(random.Random(k), k)),
    ], ids=["star", "star_via_router", "matrix"])
    def test_hop_is_a_read_only_int64_array(self, build):
        for topo in (build(5), pickle.loads(pickle.dumps(build(5)))):
            assert topo.hop.dtype == np.int64 and topo.hop.shape == (5, 5)
            with pytest.raises(ValueError, match="read-only"):
                topo.hop[0, 1] = 7

    def test_matrix_validation_rejects_asymmetry(self):
        with pytest.raises(ConfigError):
            matrix_topology([[0, 1], [2, 0]])

    def test_matrix_validation_rejects_triangle_violation(self):
        # 0->2 direct hop 5 exceeds 0->1->2 = 2
        with pytest.raises(ConfigError):
            matrix_topology([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_large_star_skips_the_closure(self):
        # a uniform hop passes the triangle inequality, so k = 600 needs no
        # O(k**3) closure (about 20 s when it ran)
        t0 = time.perf_counter()
        topo = star_topology(600)
        assert time.perf_counter() - t0 < 5.0
        assert topo.k == 600 and topo.is_uniform()

    def test_non_uniform_triangle_violation_still_rejected(self):
        # hop 2 everywhere but 0->4, whose 5 exceeds the relay 0->1->4 = 4
        hop = [[0 if i == j else 2 for j in range(5)] for i in range(5)]
        hop[0][4] = hop[4][0] = 5
        with pytest.raises(ConfigError, match="triangle inequality violated at \\(0,4\\)"):
            matrix_topology(hop)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ConfigError):
            matrix_topology([[1, 1], [1, 0]])


@st.composite
def damaged_hops(draw):
    """A valid hop matrix (metric or uniform) with up to four faults: an
    asymmetric entry, a non-zero diagonal, a hop below 1, a hop over the
    limit (two of the values do not fit int64) or a lengthened pair, which
    breaks the triangle inequality when a relay is shorter."""
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        hop = random_metric_hops(random.Random(draw(st.integers(0, 10**6))), k)
    else:
        h = draw(st.integers(1, 3))
        hop = [[0 if i == j else h for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, k - 1))
        j = (i + draw(st.integers(1, k - 1))) % k if k > 1 else i  # off the diagonal
        fault = draw(st.sampled_from(["asymmetry", "diagonal", "low", "limit", "triangle"]))
        if fault == "asymmetry":
            hop[i][j] += draw(st.integers(1, 3))
        elif fault == "diagonal":
            hop[i][i] = draw(st.integers(-2, 3))
        elif fault == "low":
            hop[i][j] = hop[j][i] = draw(st.sampled_from([0, -1, -(10**30)]))
        elif fault == "limit":
            hop[i][j] = draw(st.sampled_from([MAX_HOP, MAX_HOP + 1, 2**63, 10**30]))
            if draw(st.booleans()):
                hop[j][i] = hop[i][j]
        else:
            hop[i][j] = hop[j][i] = hop[i][j] + draw(st.integers(1, 6))
    return tuple(tuple(row) for row in hop)


def _error(check) -> str | None:
    try:
        check()
    except ConfigError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(damaged_hops())
def test_validate_matches_the_reference_loop(hop):
    error = _error(lambda: matrix_topology(hop))
    assert error == _error(lambda: reference_validate_hops(hop))
    if error is None:
        assert matrix_topology(hop).is_uniform() == reference_is_uniform(hop)


class TestDeviceGraph:
    def test_line_distances(self):
        dev = line_device(5)
        assert dev.dist[0][4] == 4
        assert dev.dist[2][2] == 0
        assert dev.adj[2] == (1, 3)

    def test_grid_row_major(self):
        dev = grid_device(2, 3)
        assert dev.is_edge(0, 1) and dev.is_edge(0, 3)
        assert not dev.is_edge(0, 4)
        assert dev.dist[0][5] == 3

    def test_disconnected_rejected(self):
        with pytest.raises(ConfigError):
            DeviceGraph(4, [(0, 1), (2, 3)])

    def test_shortest_path_endpoints_and_adjacency(self):
        dev = grid_device(3, 3)
        path = dev.shortest_path(0, 8)
        assert path[0] == 0 and path[-1] == 8
        assert len(path) == dev.dist[0][8] + 1
        assert all(dev.is_edge(a, b) for a, b in zip(path, path[1:]))

    def test_heavy_hex_shape(self):
        dev = heavy_hex_127_device()
        assert dev.m == 127
        n_edges = sum(len(dev.adj[p]) for p in range(dev.m)) // 2
        assert n_edges == 144
        assert max(len(dev.adj[p]) for p in range(dev.m)) == 3


class TestAssignment:
    def test_contiguous_127_by_4(self):
        mc = contiguous_assignment(127, 4)
        caps = [mc.capacity(c) for c in range(4)]
        assert caps == [32, 32, 32, 31]
        assert mc.assignment[0] == 0
        assert mc.assignment[126] == 3
        assert mc.qubits_of(1) == list(range(32, 64))

    def test_every_controller_nonempty(self):
        with pytest.raises(ConfigError):
            QubitControllerMap(3, (0, 0, 1, 1)).validate()


class TestLogicalPhysicalMap:
    def test_assign_and_lookup(self):
        mq = LogicalPhysicalMap(2, 4)
        mq.assign(0, 3)
        mq.assign(1, 1)
        assert mq.physical(0) == 3
        assert mq.logical_at(3) == 0
        assert mq.is_complete()

    @pytest.mark.parametrize("q, p", [(-1, 0), (2, 0), (0, -2), (0, 4)],
                             ids=["logical-negative", "logical-past-end",
                                  "physical-negative", "physical-past-end"])
    def test_index_off_the_map_rejected(self, q, p):
        # a negative index would otherwise alias an entry from the end
        mq = LogicalPhysicalMap(2, 4)
        with pytest.raises(ConfigError, match="outside"):
            mq.assign(q, p)
        assert mq.forward == [UNASSIGNED] * 2 and mq.inverse == [UNASSIGNED] * 4

    def test_double_booking_rejected(self):
        mq = LogicalPhysicalMap(2, 2)
        mq.assign(0, 1)
        with pytest.raises(ConfigError):
            mq.assign(1, 1)

    def test_swap_physical_moves_labels(self):
        mq = LogicalPhysicalMap(2, 3)
        mq.assign(0, 0)
        mq.assign(1, 1)
        mq.swap_physical(0, 2)  # slot 2 is empty: relocation
        assert mq.physical(0) == 2
        mq.swap_physical(1, 2)  # both occupied: exchange
        assert mq.physical(0) == 1 and mq.physical(1) == 2

    def test_controller_of(self):
        mc = contiguous_assignment(6, 2)
        mq = LogicalPhysicalMap(1, 6)
        mq.assign(0, 5)
        assert controller_of(mq, mc, 0) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_mapping_consistency_under_random_updates(seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 6), rng.randint(6, 10)
    mq = LogicalPhysicalMap(n, m)
    for q in range(n):
        free = [p for p in range(m) if mq.logical_at(p) == UNASSIGNED]
        mq.assign(q, rng.choice(free))
    for _ in range(40):
        roll = rng.random()
        if roll < 0.5:
            mq.swap_physical(rng.randrange(m), rng.randrange(m))
        elif roll < 0.8:
            q = rng.randrange(n)
            free = [p for p in range(m) if mq.logical_at(p) == UNASSIGNED]
            if free:
                mq.move(q, rng.choice(free))
        else:
            q = rng.randrange(n)
            p = mq.physical(q)
            mq.unassign(q)
            mq.assign(q, p)
    mq.check_consistent()
    assert sorted(mq.physical(q) for q in range(n)) == sorted(
        p for p in range(m) if mq.logical_at(p) != UNASSIGNED
    )



class TestFillSlots:
    """The slot rule: each (qubit, controller) pair, in order, takes that
    controller's lowest-index free physical qubit."""

    # controller 0 owns physical 0, 2, 4; controller 1 owns 1, 3, 5
    mc = QubitControllerMap(2, (0, 1, 0, 1, 0, 1))

    def test_arrival_order_lowest_index_first(self):
        mq = LogicalPhysicalMap(4, 6)
        fill_slots(mq, self.mc, [(2, 1), (0, 0), (3, 1), (1, 0)])
        assert mq.forward == [0, 2, 1, 3]
        mq.check_consistent()

    def test_occupied_slots_skipped(self):
        mq = LogicalPhysicalMap(3, 6)
        mq.assign(0, 2)
        mq.assign(1, 1)
        fill_slots(mq, self.mc, [(2, 0)])
        assert mq.forward == [2, 1, 0]
        mq.unassign(2)
        fill_slots(mq, self.mc, iter([(2, 1)]))  # any iterable of pairs
        assert mq.physical(2) == 3

    def test_full_controller_raises(self):
        mq = LogicalPhysicalMap(4, 6)
        with pytest.raises(ConfigError, match="controller 1 has no free slot"):
            fill_slots(mq, self.mc, [(0, 1), (1, 1), (2, 1), (3, 1)])
        assert mq.forward[:3] == [1, 3, 5]  # the pairs before the full one stay

    def test_unknown_controller_raises(self):
        with pytest.raises(ConfigError, match="controller 2 has no free slot"):
            fill_slots(LogicalPhysicalMap(1, 6), self.mc, [(0, 2)])

class TestLoadTopology:
    def test_round_trip_document(self, tmp_path):
        doc = {
            "controllers": {"kind": "star", "k": 3},
            "device": {"kind": "line", "m": 9},
            "assignment": "contiguous",
        }
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        topo, dev, mc = load_topology(path)
        assert (topo.k, dev.m, mc.k) == (3, 9, 3)

    def test_explicit_assignment(self):
        topo, dev, mc = load_topology(
            {
                "controllers": {"kind": "matrix", "hop": [[0, 2], [2, 0]]},
                "device": {"kind": "grid", "rows": 2, "cols": 2},
                "assignment": {"kind": "explicit", "map": [0, 0, 1, 1]},
            }
        )
        assert mc.assignment[2] == 1
        assert topo.hop[0][1] == 2

    def test_hop_past_int64_exceeds_the_limit(self):
        message = f"hop[0][1] = {10**30} exceeds the limit 2**31 - 1"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_topology({
                "controllers": {"kind": "matrix", "hop": [[0, 10**30], [10**30, 0]]},
                "device": {"kind": "line", "m": 4},
            })

    def test_edge_list_of_a_line_is_the_line(self, tmp_path):
        path = tmp_path / "line.txt"
        path.write_text("# a line of 6\n" + "".join(f"{i} {i + 1}\n" for i in range(5)))
        _, dev, _ = load_topology({
            "controllers": {"kind": "star", "k": 2},
            "device": {"kind": "edge_list", "path": str(path)},
        })
        line = line_device(6)
        assert (dev.m, dev.edges, dev.adj, dev.dist) == (line.m, line.edges, line.adj, line.dist)

    def test_edge_list_without_edges_names_the_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# no edges\n")
        doc = {"controllers": {"kind": "star", "k": 2},
               "device": {"kind": "edge_list", "path": str(path)}}
        with pytest.raises(ConfigError, match=re.escape(f"edge list {path} names no edges")):
            load_topology(doc)

    def test_disconnected_edge_list_names_the_file(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n")
        doc = {"controllers": {"kind": "star", "k": 2},
               "device": {"kind": "edge_list", "path": str(path)}}
        with pytest.raises(ConfigError, match=re.escape(f"{path}: device graph is not connected")):
            load_topology(doc)

    @pytest.mark.parametrize("device", [{"kind": "line", "m": MAX_DEVICE_QUBITS + 1},
                                        {"kind": "grid", "rows": 64, "cols": 65}])
    def test_one_qubit_over_the_device_limit_refused(self, device):
        with pytest.raises(ConfigError, match=f"more than the limit {MAX_DEVICE_QUBITS}"):
            load_topology({"controllers": {"kind": "star", "k": 2}, "device": device})

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError):
            load_topology({"device": {"kind": "line", "m": 4}})

    def test_wrong_assignment_length_rejected(self):
        with pytest.raises(ConfigError):
            load_topology(
                {
                    "controllers": {"kind": "star", "k": 2},
                    "device": {"kind": "line", "m": 4},
                    "assignment": {"kind": "explicit", "map": [0, 1]},
                }
            )
