"""Labeled simple graphs, the Jahangir family J(2,m), and the two
ground-truth oracles everything else is checked against: an exact
fraction-free spanning-tree count and exhaustive simple-cycle
enumeration.

The edge order of J(2,m) is fixed once and for all, cycle by cycle with
the spoke first: index 3*(k-1) is the k-th spoke (hub to rim), followed
by the two rim edges of cycle k. Vertices are numbered hub = 0, rim
1..2m clockwise starting at the far end of the first spoke. Bitmask
encodings, emitted documents, and every golden value in the test suite
depend on this order staying put.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import CapacityError, GraphParseError, InvalidParameterError

# An edge set is an int bit mask, bit i standing for edge i: the one
# form of every cycle, spanning tree, facet, face and facet-ideal
# generator. edge_indices turns it into index tuples for output.
EdgeSet = int

HUB = 0

# Cycle-space enumeration walks 2^mu masks; mu above this is refused, so
# a scan stays under 1 s. A mask costs 1.2-4.0 us on one core of a
# shared 2-core AMD EPYC machine (least of 3): at rank 17 a chain of
# triangles takes 0.16 s, J(2,17) 0.17 s and the 2x18 ladder, the
# slowest shape, 0.52 s; each further rank doubles the time.
MAX_INDEPENDENT_CYCLES = 17

# The scan keeps adjacency lists and two entries per vertex, so a graph
# with more vertices is refused before any of them is built. On the same
# machine a 250,000-vertex path closed into one cycle is scanned by
# `graph ... cycles` in 0.7 s at 182 MB of peak RSS.
MAX_CYCLE_SCAN_VERTICES = 250_000


class _Checked:
    """Base of the records that check their fields. typing.NamedTuple
    forbids __new__ in its own class body, so such a record is a
    subclass of this and of a NamedTuple holding its fields; building it
    by position, by keyword, by _make or by _replace runs its _check."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# An error echoes at most this many characters of a document's value,
# so that a huge entry still makes one short line.
_ECHO_LIMIT = 64


def _echo(value: object) -> str:
    """repr(value), cut past _ECHO_LIMIT characters, naming where it was
    cut and its whole length."""
    text = repr(value)
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}... (first {_ECHO_LIMIT} of {len(text)} characters)"


class _EdgeLabelFields(NamedTuple):
    j: int
    i: int


class EdgeLabel(_Checked, _EdgeLabelFields):
    """Label e{j}{i}: j is the cycle index, i the position within the
    cycle (1 = spoke shared with the hub, 2 and 3 = rim edges)."""

    __slots__ = ()

    def _check(self) -> None:
        if self.j < 1:
            raise InvalidParameterError(f"cycle index must be >= 1, got {self.j}")
        if not 1 <= self.i <= 3:
            raise InvalidParameterError(f"position index must be in 1..3, got {self.i}")

    def __str__(self) -> str:
        return f"e{self.j}{self.i}"

    @classmethod
    def parse(cls, text: str) -> "EdgeLabel":
        # The position is always a single digit, so the final digit is i
        # and everything between "e" and it is j. Unambiguous for any m.
        # Only ASCII digits: str.isdigit also accepts superscripts and
        # other scripts' digits.
        digits = text[1:]
        if len(text) < 3 or text[0] != "e" or not (digits.isascii() and digits.isdigit()):
            raise InvalidParameterError(f"bad edge label {_echo(text)}")
        return cls(j=int(text[1:-1]), i=int(text[-1]))


def edge_indices(mask: EdgeSet) -> tuple[int, ...]:
    """The edge indices in an edge-set mask, ascending: the form for
    output, error messages and canonical sort keys."""
    if mask < 0:
        raise InvalidParameterError(f"edge-set mask must be nonnegative, got {mask}")
    return tuple([i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"])


def _normalize(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class _GraphFields(NamedTuple):
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[EdgeLabel, ...] | None = None


class Graph(_Checked, _GraphFields):
    """Simple undirected graph with an ordered edge list.

    Immutable after construction; all operations in this package are
    pure functions over it. Labels, when present, parallel the edge
    list one to one.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.vertex_count < 0:
            raise InvalidParameterError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        for pos, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise InvalidParameterError(
                    f"edges[{pos}]: endpoint out of range in ({u}, {v})")
            if u == v:
                raise InvalidParameterError(f"edges[{pos}]: loop at vertex {u}")
            key = _normalize(u, v)
            if key in seen:
                raise InvalidParameterError(f"edges[{pos}]: duplicate edge ({u}, {v})")
            seen.add(key)
        if self.labels is not None:
            if len(self.labels) != len(self.edges):
                raise InvalidParameterError(
                    f"label count {len(self.labels)} != edge count {len(self.edges)}")
            if len(set(self.labels)) != len(self.labels):
                raise InvalidParameterError("duplicate edge labels")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Adjacency lists of (neighbor, edge index) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for idx, (u, v) in enumerate(self.edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        return adj


# ---------------------------------------------------------------------------
# Jahangir construction and its fixed edge indexing


def spoke_index(j: int, m: int) -> int:
    """Edge index of the j-th spoke (j taken cyclically in 1..m)."""
    return 3 * ((j - 1) % m)


def rim_indices(j: int, m: int) -> tuple[int, int]:
    """Edge indices of the two rim edges belonging to cycle j."""
    base = 3 * ((j - 1) % m)
    return (base + 1, base + 2)


def base_cycle_indices(j: int, m: int) -> EdgeSet:
    """Edge set of the j-th base cycle: its spoke, its two rim edges,
    and the next spoke (wrapping after m). The first three are
    consecutive indices."""
    return 0b111 << spoke_index(j, m) | 1 << spoke_index(j + 1, m)


def cyclic_runs(indices: set[int], m: int) -> list[list[int]]:
    """Decompose a set of cycle indices into maximal cyclic runs of
    consecutive indices, each run listed in cyclic order."""
    if len(indices) == m:
        return [sorted(indices)]
    runs = []
    for j in sorted(indices):
        prev = j - 1 if j > 1 else m
        if prev in indices:
            continue  # not the head of a run
        run = [j]
        nxt = j % m + 1
        while nxt in indices:
            run.append(nxt)
            nxt = nxt % m + 1
        runs.append(run)
    return runs


def build_jahangir(m: int) -> Graph:
    """The graph J(2,m): a 2m-cycle plus a hub joined to every second
    rim vertex. 2m+1 vertices, 3m labeled edges."""
    if m < 3:
        raise InvalidParameterError(f"m must be >= 3, got {m}")
    edges: list[tuple[int, int]] = []
    labels: list[EdgeLabel] = []
    for k in range(1, m + 1):
        a = 2 * k - 1          # rim vertex hit by the k-th spoke
        b = 2 * k              # midpoint of the k-th rim arc
        c = 2 * k + 1 if k < m else 1
        edges.append((HUB, a))
        edges.append((a, b))
        edges.append((b, c))
        labels.extend(EdgeLabel(k, i) for i in (1, 2, 3))
    return Graph(2 * m + 1, tuple(edges), tuple(labels))


def jahangir_order(g: Graph) -> int | None:
    """Return m when g is structurally J(2,m) under the canonical vertex
    numbering (edge order may differ), else None."""
    if g.vertex_count < 7 or g.vertex_count % 2 == 0:
        return None
    m = (g.vertex_count - 1) // 2
    if g.edge_count != 3 * m:
        return None
    want = {_normalize(u, v) for u, v in build_jahangir(m).edges}
    have = {_normalize(u, v) for u, v in g.edges}
    return m if want == have else None


# ---------------------------------------------------------------------------
# Document format: {"vertices": N, "edges": [[u, v], ...], "labels": [...]}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of a document as a dict, refused if it repeats a
    key, whose earlier values json.loads would drop without a word."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise GraphParseError(f"duplicate key {json.dumps(key)}")
            seen.add(key)
    return obj


def parse_graph(text: str) -> Graph:
    """Parse the JSON graph document format.

    Malformed documents raise GraphParseError naming the offending
    entry; structural violations (loops, duplicates), a key repeated
    in any object, an integer past the interpreter's digit limit and
    nesting past its recursion limit are reported the same way.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"line {exc.lineno}: {exc.msg}") from None
    except GraphParseError:  # a repeated key; a ValueError too
        raise
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise GraphParseError(f"unreadable number: {str(exc).partition(';')[0]}") from None
    except RecursionError:
        raise GraphParseError("arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise GraphParseError("document root must be an object")
    unknown = set(doc) - {"vertices", "edges", "labels"}
    if unknown:
        raise GraphParseError(f"unknown keys: {_echo(sorted(unknown))}")
    if not isinstance(doc.get("vertices"), int) or isinstance(doc.get("vertices"), bool):
        raise GraphParseError('"vertices" must be an integer')
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise GraphParseError('"edges" must be a list of [u, v] pairs')
    edges: list[tuple[int, int]] = []
    for pos, item in enumerate(raw_edges):
        ok = (isinstance(item, list) and len(item) == 2
              and all(isinstance(x, int) and not isinstance(x, bool) for x in item))
        if not ok:
            raise GraphParseError(
                f"edges[{pos}]: expected a pair of integers, got {_echo(item)}")
        edges.append((item[0], item[1]))
    labels: tuple[EdgeLabel, ...] | None = None
    if "labels" in doc:
        raw_labels = doc["labels"]
        if not isinstance(raw_labels, list) or not all(isinstance(s, str) for s in raw_labels):
            raise GraphParseError('"labels" must be a list of strings')
        parsed = []
        for pos, s in enumerate(raw_labels):
            try:
                parsed.append(EdgeLabel.parse(s))
            except InvalidParameterError as exc:
                raise GraphParseError(f"labels[{pos}]: {exc}") from None
        labels = tuple(parsed)
    try:
        return Graph(doc["vertices"], tuple(edges), labels)
    except InvalidParameterError as exc:
        raise GraphParseError(str(exc)) from None


def emit_graph(g: Graph) -> str:
    """Serialize g in the document format; parse_graph round-trips it."""
    doc: dict = {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}
    if g.labels is not None:
        doc["labels"] = [str(lab) for lab in g.labels]
    return json.dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# Oracle 1: exact spanning-tree count


def is_connected(g: Graph) -> bool:
    # fewer than V - 1 edges cannot connect V vertices: no adjacency needed
    if g.vertex_count == 0 or g.edge_count < g.vertex_count - 1:
        return False
    adj = g.adjacency()
    seen = [False] * g.vertex_count
    stack = [0]
    seen[0] = True
    while stack:
        x = stack.pop()
        for y, _ in adj[x]:
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return all(seen)


def require_spanning_complex(g: Graph) -> None:
    """Refuse g unless it has a spanning complex: it needs a vertex and
    a single component."""
    if not is_connected(g):
        raise InvalidParameterError(
            "a graph with no vertex or more than one component has no "
            "spanning complex")


def matrix_tree_count(g: Graph) -> int:
    """Number of spanning trees, as a cofactor of the Laplacian computed
    by sparse fraction-free (Bareiss) elimination.

    The Laplacian keeps one dict of nonzero entries per vertex. Pivots
    are taken in minimum-degree order on the fill graph, which keeps the
    fill of a sparse graph small whatever its labels, and the vertex
    left last is the one deleted: the leading minor of order V - 1 is
    the count. A step rewrites only the entries between two neighbours
    of its pivot. Any other entry is scaled by D[k] / D[k-1] at step k,
    D[k] being the k-th leading minor, so one written at step s reads
    value * D[k] // D[s] at step k, exactly, as Bareiss entries are
    minors. The matrix is positive semidefinite, so a zero pivot means a
    zero count.

    Exact for any size; disconnected graphs give 0.
    """
    n = g.vertex_count
    if n == 0:
        raise InvalidParameterError("graph must have at least one vertex")
    # row u maps each column v to (value, step the value was written at)
    rows: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = (-1, 0)
    # vertices by row length, a stale entry skipped when popped: a sparse
    # fill graph has few distinct lengths, and no request imports heapq
    by_size: dict[int, set[int]] = {}
    for v, row in enumerate(rows):
        row[v] = (len(row), 0)
        by_size.setdefault(len(row), set()).add(v)
    minors = [1]
    while len(minors) < n:
        size = min(by_size)
        p = by_size[size].pop()
        if not by_size[size]:
            del by_size[size]
        if len(rows[p]) != size:
            continue
        prev, last = len(minors) - 1, minors[-1]
        value, s = rows[p].pop(p)
        pivot = value * last // minors[s]
        if pivot == 0:
            return 0
        pivot_row = [(c, v if s == prev else v * last // minors[s])
                     for c, (v, s) in rows[p].items()]
        rows[p] = {}  # a stale entry of p never matches length 0
        for i, (r, a_rp) in enumerate(pivot_row):
            row = rows[r]
            del row[p]
            for c, a_pc in pivot_row[i:]:
                v, s = row.get(c, (0, prev))
                if s != prev:
                    v = v * last // minors[s]
                row[c] = rows[c][r] = ((pivot * v - a_rp * a_pc) // last, prev + 1)
        for r, _ in pivot_row:
            by_size.setdefault(len(rows[r]), set()).add(r)
        minors.append(pivot)
    return minors[-1]


# ---------------------------------------------------------------------------
# Oracle 2: simple-cycle enumeration via the cycle space


def _is_simple_cycle_mask(mask: int, edges: tuple[tuple[int, int], ...]) -> bool:
    # A simple cycle is a connected 2-regular edge subset. Only the
    # mask's own edges are read, found in its binary string as
    # edge_indices finds them (linear, where peeling off the lowest bit
    # of a wide int is not), and a vertex's third edge ends the test.
    nbrs: dict[int, list[int]] = {}
    size = 0
    for i, bit in enumerate(bin(mask)[:1:-1]):
        if bit == "0":
            continue
        u, v = edges[i]
        size += 1
        a, b = nbrs.setdefault(u, []), nbrs.setdefault(v, [])
        if len(a) == 2 or len(b) == 2:
            return False
        a.append(v)
        b.append(u)
    # degrees sum to 2 * size and none exceeds 2, so all are 2 exactly
    # when size vertices are touched
    if not size or len(nbrs) != size:
        return False
    # 2-regular: connected when the walk around one cycle uses every edge
    prev, x, length = u, v, 1
    while x != u:
        a, b = nbrs[x]
        prev, x = x, b if a == prev else a
        length += 1
    return length == size


def enumerate_simple_cycles(g: Graph) -> list[EdgeSet]:
    """Every simple cycle of g as an edge set, each exactly once, sorted
    canonically (by ascending index tuple).

    Strategy: a DFS forest records each vertex's edge to its parent and
    its depth; the rank E - V + roots meets the cap before any mask is
    built. A non-tree edge's fundamental cycle is its bit plus the forest
    path between its ends. The fundamental cycles are independent: a
    Gray-code walk visits each nonzero combination once, one xor per
    step, and keeps the connected 2-regular ones.
    """
    n, edges = g.vertex_count, g.edges
    if n > MAX_CYCLE_SCAN_VERTICES:
        raise CapacityError(f"{n} vertices exceed {MAX_CYCLE_SCAN_VERTICES}; "
                            "exhaustive cycle enumeration refused")
    adj = g.adjacency()
    up, depth = [-1] * n, [-1] * n  # edge to the parent; depth -1: not reached
    for root in (r for r in range(n) if depth[r] < 0):
        depth[root], stack = 0, [root]
        while stack:
            x = stack.pop()
            for y, idx in adj[x]:
                if depth[y] < 0:
                    depth[y], up[y] = depth[x] + 1, idx
                    stack.append(y)
    rank = len(edges) - n + depth.count(0)  # one root per component
    if rank > MAX_INDEPENDENT_CYCLES:
        raise CapacityError(f"cycle space rank {rank} exceeds {MAX_INDEPENDENT_CYCLES}; "
                            "exhaustive cycle enumeration refused")
    tree, fundamental = set(up), []
    for chord in (idx for idx in range(len(edges)) if idx not in tree):
        (u, v), walk = edges[chord], [chord]
        while u != v:  # climb from the deeper end until the ends meet
            if depth[u] < depth[v]:
                u, v = v, u
            walk.append(up[u])
            a, b = edges[up[u]]
            u = b if a == u else a
        bits = bytearray(len(edges) // 8 + 1)  # linear, unlike big-int xors
        for idx in walk:
            bits[idx >> 3] |= 1 << (idx & 7)
        fundamental.append(int.from_bytes(bits, "little"))
    cycles, mask = [], 0
    for k in range(1, 1 << len(fundamental)):
        mask ^= fundamental[(k & -k).bit_length() - 1]
        if _is_simple_cycle_mask(mask, edges):
            cycles.append(mask)
    return sorted(cycles, key=edge_indices)
