import json
import random
import re

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
from dynlayout.control import UNASSIGNED, DeviceGraph, QubitControllerMap, grid_device


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

    def test_matrix_validation_rejects_asymmetry(self):
        with pytest.raises(ConfigError):
            matrix_topology([[0, 1], [2, 0]]).validate()

    def test_matrix_validation_rejects_triangle_violation(self):
        # 0->2 direct hop 5 exceeds 0->1->2 = 2
        with pytest.raises(ConfigError):
            matrix_topology([[0, 1, 5], [1, 0, 1], [5, 1, 0]]).validate()

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ConfigError):
            matrix_topology([[1, 1], [1, 0]]).validate()


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
