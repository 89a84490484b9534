"""Control-plane model: controller hop topology, physical device graph, the
static qubit-to-controller assignment, and the logical-to-physical mapping."""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

UNASSIGNED = -1
MAX_HOP = 2**31 - 1  # keeps every ICCS sum well inside int64


class ConfigError(ValueError):
    """Raised for malformed topology/device/assignment configuration."""


@dataclass(frozen=True)
class ControllerTopology:
    """k controllers with a symmetric hop-distance matrix between them.

    hop[i][j] is the number of communication steps needed to forward one
    measurement outcome from controller i to controller j.  The matrix must
    have a zero diagonal, be symmetric, have off-diagonal entries in
    1..MAX_HOP (2**31 - 1), and satisfy the triangle inequality (checked
    against its Floyd-Warshall closure, i.e. relaying through a third
    controller can never be cheaper).
    """

    hop: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.hop)

    def validate(self) -> None:
        k = self.k
        if k < 1:
            raise ConfigError("need at least one controller")
        for row in self.hop:
            if len(row) != k:
                raise ConfigError("hop matrix must be square")
        for i in range(k):
            if self.hop[i][i] != 0:
                raise ConfigError(f"hop[{i}][{i}] must be 0")
            for j in range(k):
                if self.hop[i][j] != self.hop[j][i]:
                    raise ConfigError(f"hop matrix asymmetric at ({i},{j})")
                if i != j and self.hop[i][j] < 1:
                    raise ConfigError(f"hop[{i}][{j}] must be >= 1")
                if self.hop[i][j] > MAX_HOP:
                    raise ConfigError(
                        f"hop[{i}][{j}] = {self.hop[i][j]} exceeds the limit 2**31 - 1"
                    )
        closure = [list(row) for row in self.hop]
        for l in range(k):
            for i in range(k):
                for j in range(k):
                    via = closure[i][l] + closure[l][j]
                    if via < closure[i][j]:
                        closure[i][j] = via
        for i in range(k):
            for j in range(k):
                if closure[i][j] != self.hop[i][j]:
                    raise ConfigError(
                        f"triangle inequality violated at ({i},{j}): "
                        f"hop {self.hop[i][j]} > relay {closure[i][j]}"
                    )

    def is_uniform(self) -> bool:
        """True when all off-diagonal hops share one value."""
        vals = {self.hop[i][j] for i in range(self.k) for j in range(self.k) if i != j}
        return len(vals) <= 1


def star_topology(k: int) -> ControllerTopology:
    """Controllers fully meshed through a shared link: hop 1 between any pair."""
    topo = ControllerTopology(tuple(tuple(0 if i == j else 1 for j in range(k)) for i in range(k)))
    topo.validate()
    return topo


def star_via_router_topology(k: int) -> ControllerTopology:
    """Controllers joined only through a central router: hop 2 between any pair."""
    topo = ControllerTopology(tuple(tuple(0 if i == j else 2 for j in range(k)) for i in range(k)))
    topo.validate()
    return topo


def matrix_topology(hop) -> ControllerTopology:
    topo = ControllerTopology(tuple(tuple(int(x) for x in row) for row in hop))
    topo.validate()
    return topo


class DeviceGraph:
    """Undirected connected coupling graph over m physical qubits, with
    precomputed all-pairs shortest-path distances (BFS per node)."""

    def __init__(self, m: int, edges):
        self.m = m
        norm = set()
        adj: list[set[int]] = [set() for _ in range(m)]
        for a, b in edges:
            a, b = int(a), int(b)
            if not (0 <= a < m and 0 <= b < m):
                raise ConfigError(f"edge ({a},{b}) out of range for m={m}")
            if a == b:
                raise ConfigError(f"self-loop on node {a}")
            lo, hi = min(a, b), max(a, b)
            norm.add((lo, hi))
            adj[a].add(b)
            adj[b].add(a)
        self.edges: frozenset[tuple[int, int]] = frozenset(norm)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)
        # incident[p]: the edges touching p as sorted (low, high) pairs
        self.incident: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((p, nb) if p < nb else (nb, p) for nb in nbs) for p, nbs in enumerate(self.adj)
        )
        self.dist: list[list[int]] = [self._bfs(s) for s in range(m)]
        for s in range(m):
            if any(d < 0 for d in self.dist[s]):
                raise ConfigError("device graph is not connected")

    def _bfs(self, source: int) -> list[int]:
        dist = [-1] * self.m
        dist[source] = 0
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y in self.adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def is_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def shortest_path(self, a: int, b: int) -> list[int]:
        """One BFS shortest path from a to b (lowest-index tie-break)."""
        prev = {a: a}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            if x == b:
                break
            for y in self.adj[x]:
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        path.reverse()
        return path


def line_device(m: int) -> DeviceGraph:
    return DeviceGraph(m, [(i, i + 1) for i in range(m - 1)])


def grid_device(rows: int, cols: int) -> DeviceGraph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            n = r * cols + c
            if c + 1 < cols:
                edges.append((n, n + 1))
            if r + 1 < rows:
                edges.append((n, n + cols))
    return DeviceGraph(rows * cols, edges)


def _read_edge_list(lines) -> list[tuple[int, int]]:
    edges = []
    for raw in lines:
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ConfigError(f"bad edge line {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return edges


def heavy_hex_127_device() -> DeviceGraph:
    """The 127-qubit heavy-hex lattice (degree <= 3) bundled as package data."""
    text = resources.files("dynlayout").joinpath("data/heavy_hex_127.txt").read_text()
    return DeviceGraph(127, _read_edge_list(text.splitlines()))


def edge_list_device(path) -> DeviceGraph:
    """The device whose edges a file lists, one "a b" pair per line; its
    qubits are 0 up to the largest index named."""
    edges = _read_edge_list(Path(path).read_text().splitlines())
    if not edges:
        raise ConfigError(f"edge list {path} names no edges")
    m = max(max(a, b) for a, b in edges) + 1
    return DeviceGraph(m, edges)


@dataclass(frozen=True)
class QubitControllerMap:
    """Static physical-qubit -> controller assignment (one entry per node)."""

    k: int
    assignment: tuple[int, ...]

    def validate(self) -> None:
        counts = [0] * self.k
        for p, c in enumerate(self.assignment):
            if not 0 <= c < self.k:
                raise ConfigError(f"physical qubit {p} assigned to bad controller {c}")
            counts[c] += 1
        for c, n in enumerate(counts):
            if n == 0:
                raise ConfigError(f"controller {c} manages no qubits")

    def capacity(self, c: int) -> int:
        return sum(1 for x in self.assignment if x == c)

    def qubits_of(self, c: int) -> list[int]:
        return [p for p, x in enumerate(self.assignment) if x == c]

    @property
    def m(self) -> int:
        return len(self.assignment)


def contiguous_assignment(m: int, k: int) -> QubitControllerMap:
    """Split physical indices 0..m-1 into k contiguous blocks whose sizes
    differ by at most one (earlier controllers take the larger blocks)."""
    if not 1 <= k <= m:
        raise ConfigError(f"cannot split {m} qubits across {k} controllers")
    base, extra = divmod(m, k)
    assignment = []
    for c in range(k):
        assignment.extend([c] * (base + (1 if c < extra else 0)))
    mc = QubitControllerMap(k, tuple(assignment))
    mc.validate()
    return mc


class LogicalPhysicalMap:
    """Mutable logical -> physical qubit map with a maintained inverse.

    forward[q] is the physical home of logical qubit q, or UNASSIGNED;
    inverse[p] is the logical tenant of physical qubit p, or UNASSIGNED.
    """

    __slots__ = ("forward", "inverse")

    def __init__(self, n_logical: int, m_physical: int):
        self.forward: list[int] = [UNASSIGNED] * n_logical
        self.inverse: list[int] = [UNASSIGNED] * m_physical

    @property
    def n(self) -> int:
        return len(self.forward)

    @property
    def m(self) -> int:
        return len(self.inverse)

    def assign(self, q: int, p: int) -> None:
        if not 0 <= q < len(self.forward):
            raise ConfigError(f"logical qubit {q} outside 0..{len(self.forward) - 1}")
        if not 0 <= p < len(self.inverse):
            raise ConfigError(f"physical qubit {p} outside 0..{len(self.inverse) - 1}")
        if self.forward[q] != UNASSIGNED:
            raise ConfigError(f"logical qubit {q} already placed")
        if self.inverse[p] != UNASSIGNED:
            raise ConfigError(f"physical qubit {p} already occupied")
        self.forward[q] = p
        self.inverse[p] = q

    def unassign(self, q: int) -> None:
        p = self.forward[q]
        if p == UNASSIGNED:
            raise ConfigError(f"logical qubit {q} is not placed")
        self.forward[q] = UNASSIGNED
        self.inverse[p] = UNASSIGNED

    def move(self, q: int, p_new: int) -> None:
        """Relocate q onto a free physical qubit."""
        self.unassign(q)
        self.assign(q, p_new)

    def swap_physical(self, p_a: int, p_b: int) -> None:
        """Exchange the tenants of two physical qubits (either may be empty)."""
        qa, qb = self.inverse[p_a], self.inverse[p_b]
        self.inverse[p_a], self.inverse[p_b] = qb, qa
        if qa != UNASSIGNED:
            self.forward[qa] = p_b
        if qb != UNASSIGNED:
            self.forward[qb] = p_a

    def physical(self, q: int) -> int:
        p = self.forward[q]
        if p == UNASSIGNED:
            raise ConfigError(f"logical qubit {q} is not placed")
        return p

    def logical_at(self, p: int) -> int:
        return self.inverse[p]

    def is_complete(self) -> bool:
        return all(p != UNASSIGNED for p in self.forward)

    def copy(self) -> "LogicalPhysicalMap":
        clone = LogicalPhysicalMap(0, 0)
        clone.forward = list(self.forward)
        clone.inverse = list(self.inverse)
        return clone

    def check_consistent(self) -> None:
        for q, p in enumerate(self.forward):
            if p != UNASSIGNED and self.inverse[p] != q:
                raise ConfigError(f"forward/inverse mismatch at logical {q}")
        for p, q in enumerate(self.inverse):
            if q != UNASSIGNED and self.forward[q] != p:
                raise ConfigError(f"forward/inverse mismatch at physical {p}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogicalPhysicalMap)
            and self.forward == other.forward
            and self.inverse == other.inverse
        )


def controller_of(mq: LogicalPhysicalMap, mc: QubitControllerMap, q: int) -> int:
    """Controller currently hosting logical qubit q."""
    return mc.assignment[mq.physical(q)]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(spec: dict, section: str, key: str) -> int:
    """spec[key], which must be present and a (non-bool) integer."""
    if key not in spec:
        raise ConfigError(f"topology section {section!r} missing key {key!r}")
    if not _is_int(spec[key]):
        raise ConfigError(f"topology {section}.{key} must be an integer, got {spec[key]!r}")
    return spec[key]


def _int_list(value, what: str) -> list:
    """value, which must be a list of (non-bool) integers."""
    if not (isinstance(value, list) and all(_is_int(x) for x in value)):
        raise ConfigError(f"topology {what} must be a list of integers, got {value!r}")
    return value


def load_topology(source) -> tuple[ControllerTopology, DeviceGraph, QubitControllerMap]:
    """Load a (controllers, device, assignment) triple from a JSON document.

    source may be a path or an already-parsed dict:

        {"controllers": {"kind": "star", "k": 4},
         "device": {"kind": "heavy_hex_127"},
         "assignment": "contiguous"}

    controllers.kind: star | star_via_router | matrix (with "hop").
    device.kind: line (m) | grid (rows, cols) | heavy_hex_127 | edge_list (path).
    assignment: "contiguous" or {"kind": "explicit", "map": [controller per node]}.
    Counts and sizes must be integers (not booleans), hop a list of integer
    rows and path a string; anything else raises ConfigError.
    """
    if isinstance(source, dict):
        doc = source
    else:
        doc = json.loads(Path(source).read_text())
    if not isinstance(doc, dict):
        raise ConfigError(f"topology document must be a JSON object, got {type(doc).__name__}")
    try:
        cspec = doc["controllers"]
        dspec = doc["device"]
    except KeyError as missing:
        raise ConfigError(f"topology document missing key {missing}") from None
    for key, spec in (("controllers", cspec), ("device", dspec)):
        if not isinstance(spec, dict):
            raise ConfigError(f"topology section {key!r} must be a JSON object")
    ckind = cspec.get("kind")
    if ckind in ("star", "star_via_router"):
        k = _int_field(cspec, "controllers", "k")
    elif ckind == "matrix":
        hop = cspec.get("hop")
        if not isinstance(hop, list):
            raise ConfigError(f"topology controllers.hop must be a list of rows, got {hop!r}")
        hop = [_int_list(row, "controllers.hop row") for row in hop]
        k = len(hop)
    else:
        raise ConfigError(f"unknown controllers kind {ckind!r}")
    dkind = dspec.get("kind")
    if dkind == "line":
        device = line_device(_int_field(dspec, "device", "m"))
    elif dkind == "grid":
        device = grid_device(
            _int_field(dspec, "device", "rows"), _int_field(dspec, "device", "cols")
        )
    elif dkind == "heavy_hex_127":
        device = heavy_hex_127_device()
    elif dkind == "edge_list":
        path = dspec.get("path")
        if not isinstance(path, str):
            raise ConfigError(f"topology device.path must be a string, got {path!r}")
        device = edge_list_device(path)
    else:
        raise ConfigError(f"unknown device kind {dkind!r}")
    # every controller needs a qubit: refuse before building a k x k hop matrix
    if k > device.m:
        raise ConfigError(f"cannot split {device.m} qubits across {k} controllers")
    if ckind == "star":
        topo = star_topology(k)
    elif ckind == "star_via_router":
        topo = star_via_router_topology(k)
    else:
        topo = matrix_topology(hop)
    aspec = doc.get("assignment", "contiguous")
    if aspec == "contiguous":
        mc = contiguous_assignment(device.m, topo.k)
    elif isinstance(aspec, dict) and aspec.get("kind") == "explicit":
        amap = _int_list(aspec.get("map"), "assignment.map")
        if len(amap) != device.m:
            raise ConfigError(
                f"explicit assignment covers {len(amap)} qubits, device has {device.m}"
            )
        mc = QubitControllerMap(topo.k, tuple(amap))
        mc.validate()
    else:
        raise ConfigError(f"unknown assignment {aspec!r}")
    return topo, device, mc
