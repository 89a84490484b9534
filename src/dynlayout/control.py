"""Control-plane model: controller hop topology, physical device graph, the
static qubit-to-controller assignment, the logical-to-physical mapping, and
`fill_slots`, the one rule that turns controllers into physical qubits."""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

UNASSIGNED = -1
MAX_HOP = 2**31 - 1  # keeps every ICCS sum well inside int64
# DeviceGraph keeps an m x m distance table of Python ints, which grows as m**2
MAX_DEVICE_QUBITS = 4096


class ConfigError(ValueError):
    """Raised for malformed topology/device/assignment configuration."""


@dataclass(frozen=True, eq=False)
class ControllerTopology:
    """k controllers with a symmetric hop-distance matrix between them.

    hop[i, j] is the number of communication steps needed to forward one
    measurement outcome from controller i to controller j: a read-only,
    symmetric (k, k) int64 array with a zero diagonal, off-diagonal entries
    in 1..MAX_HOP (2**31 - 1) and no relay through a third controller
    cheaper than a direct hop.  `matrix_topology` checks a caller's rows
    into one; the uniform builders are valid by construction.
    """

    hop: np.ndarray

    def __post_init__(self):
        self.hop.setflags(write=False)

    def __reduce__(self):  # a pickled array comes back writable
        return ControllerTopology, (self.hop,)

    @property
    def k(self) -> int:
        return len(self.hop)

    def is_uniform(self) -> bool:
        """True when all off-diagonal hops share one value."""
        return _is_uniform(self.hop)


def _is_uniform(hop: np.ndarray) -> bool:
    if len(hop) < 2:
        return True
    same = hop == hop[0, 1]
    np.fill_diagonal(same, True)
    return bool(same.all())


def star_topology(k: int) -> ControllerTopology:
    """Controllers fully meshed through a shared link: hop 1 between any pair."""
    return _uniform_topology(k, 1)


def star_via_router_topology(k: int) -> ControllerTopology:
    """Controllers joined only through a central router: hop 2 between any pair."""
    return _uniform_topology(k, 2)


def _uniform_topology(k: int, h: int) -> ControllerTopology:
    """Hop h between any two of k controllers: valid by construction, so it
    skips matrix_topology's check."""
    if k < 1:
        raise ConfigError("need at least one controller")
    hop = np.full((k, k), h, dtype=np.int64)
    np.fill_diagonal(hop, 0)
    return ControllerTopology(hop)


def matrix_topology(rows) -> ControllerTopology:
    """The checked topology of a caller's hop rows, or the first fault."""
    rows = [[int(x) for x in row] for row in rows]
    k = len(rows)
    if k < 1:
        raise ConfigError("need at least one controller")
    if any(len(row) != k for row in rows):
        raise ConfigError("hop matrix must be square")
    try:
        hop = np.array(rows, dtype=np.int64)
    except OverflowError:  # an entry past int64, which the scan below names by value
        hop = np.array(rows, dtype=object)
    diagonal = np.diagonal(hop) != 0
    asymmetric = hop != hop.T
    low = hop < 1
    np.fill_diagonal(low, False)
    high = hop > MAX_HOP
    bad = asymmetric | low | high
    faulty = diagonal | bad.any(axis=1)
    if faulty.any():
        # the first fault of a row-major scan: each row checks its diagonal
        # first, then each entry's symmetry, lower bound and limit
        i = int(faulty.argmax())
        j = int(bad[i].argmax())
        if diagonal[i]:
            raise ConfigError(f"hop[{i}][{i}] must be 0")
        if asymmetric[i, j]:
            raise ConfigError(f"hop matrix asymmetric at ({i},{j})")
        if low[i, j]:
            raise ConfigError(f"hop[{i}][{j}] must be >= 1")
        raise ConfigError(f"hop[{i}][{j}] = {rows[i][j]} exceeds the limit 2**31 - 1")
    if not _is_uniform(hop):
        # one off-diagonal hop h >= 1 for every pair would pass: a relay costs
        # 2h >= h, so the O(k**3) closure could find nothing
        closure = hop.copy()
        for l in range(k):  # Floyd-Warshall: row and column l stay fixed in step l
            np.minimum(closure, closure[:, l, None] + closure[l], out=closure)
        shorter = closure != hop
        if shorter.any():
            i, j = divmod(int(shorter.argmax()), k)
            raise ConfigError(
                f"triangle inequality violated at ({i},{j}): "
                f"hop {rows[i][j]} > relay {int(closure[i, j])}"
            )
    return ControllerTopology(hop)


class DeviceGraph:
    """Undirected connected coupling graph over m physical qubits, with
    precomputed all-pairs shortest-path distances (BFS per node).  m may be
    at most MAX_DEVICE_QUBITS; edges may be an iterator, read once."""

    def __init__(self, m: int, edges):
        if m > MAX_DEVICE_QUBITS:
            raise ConfigError(f"device has {m} qubits, more than the limit {MAX_DEVICE_QUBITS}")
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


# the builders pass their edges lazily, so DeviceGraph refuses an oversized
# device before any list of m items exists
def line_device(m: int) -> DeviceGraph:
    return DeviceGraph(m, ((i, i + 1) for i in range(m - 1)))


def _grid_edges(rows: int, cols: int):
    for r in range(rows):
        for c in range(cols):
            n = r * cols + c
            if c + 1 < cols:
                yield n, n + 1
            if r + 1 < rows:
                yield n, n + cols


def grid_device(rows: int, cols: int) -> DeviceGraph:
    return DeviceGraph(rows * cols, _grid_edges(rows, cols))


def _read_edge_list(text: str, name) -> list[tuple[int, int]]:
    """The (a, b) pairs of an edge-list text: one pair of distinct
    non-negative qubit indices per line, "#" starting a comment.  Errors
    name the file and line, as name:line."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ConfigError(f"{name}:{lineno}: expected two qubit indices 'a b', got {body!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:  # an index longer than int() converts
            raise ConfigError(f"{name}:{lineno}: {exc}") from None
        if a == b:
            raise ConfigError(f"{name}:{lineno}: self-loop on qubit {a}")
        edges.append((a, b))
    return edges


def heavy_hex_127_device() -> DeviceGraph:
    """The 127-qubit heavy-hex lattice (degree <= 3) bundled as package data."""
    text = resources.files("dynlayout").joinpath("data/heavy_hex_127.txt").read_text()
    return DeviceGraph(127, _read_edge_list(text, "heavy_hex_127.txt"))


def edge_list_device(path) -> DeviceGraph:
    """The device whose edges a file lists, one "a b" pair per line; its
    qubits are 0 up to the largest index named."""
    edges = _read_edge_list(Path(path).read_text(), path)
    if not edges:
        raise ConfigError(f"edge list {path} names no edges")
    m = max(max(a, b) for a, b in edges) + 1
    try:
        return DeviceGraph(m, edges)
    except ConfigError as exc:  # too many qubits, or not connected
        raise ConfigError(f"{path}: {exc}") from None


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


def fill_slots(mq: LogicalPhysicalMap, mc: QubitControllerMap, placements) -> LogicalPhysicalMap:
    """The slot rule: put each (logical qubit, controller) pair of placements,
    in order, on that controller's lowest-index free physical qubit (one scan
    lists them) of mq, which it returns; a full controller raises ConfigError."""
    free: dict[int, list[int]] = {}  # descending, so pop() takes the lowest
    for p in range(len(mq.inverse) - 1, -1, -1):
        if mq.inverse[p] == UNASSIGNED:
            free.setdefault(mc.assignment[p], []).append(p)
    for q, c in placements:
        slots = free.get(c)
        if not slots:
            raise ConfigError(f"controller {c} has no free slot")
        mq.assign(q, slots.pop())
    return mq


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


def _size_field(spec: dict, section: str, key: str) -> int:
    """spec[key], which must be a positive integer: a device dimension."""
    value = _int_field(spec, section, key)
    if value < 1:
        raise ConfigError(f"topology {section}.{key} must be a positive integer, got {value}")
    return value


def _int_list(value, what: str) -> list:
    """value, which must be a list of (non-bool) integers."""
    if not (isinstance(value, list) and all(_is_int(x) for x in value)):
        raise ConfigError(f"topology {what} must be a list of integers, got {value!r}")
    return value


def load_topology(source) -> tuple[ControllerTopology, DeviceGraph, QubitControllerMap]:
    """Load a (controllers, device, assignment) triple from a JSON document:
    the one place a setup is checked and built, the CLI's --k shortcuts
    included (they are a document too).

    source may be a path or an already-parsed dict:

        {"controllers": {"kind": "star", "k": 4},
         "device": {"kind": "heavy_hex_127"},
         "assignment": "contiguous"}

    controllers.kind: star | star_via_router | matrix (with "hop").
    device.kind: line (m) | grid (rows, cols) | heavy_hex_127 | edge_list (path).
    assignment: "contiguous" or {"kind": "explicit", "map": [controller per node]}.
    Counts and sizes must be integers (not booleans), device sizes at least
    1, hop a list of integer rows and path a string, and a device may have at
    most MAX_DEVICE_QUBITS qubits; anything else raises ConfigError.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(Path(source).read_text())
        except RecursionError:
            raise ConfigError(f"{source}: JSON nested too deeply") from None
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
        device = line_device(_size_field(dspec, "device", "m"))
    elif dkind == "grid":
        device = grid_device(
            _size_field(dspec, "device", "rows"), _size_field(dspec, "device", "cols")
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
