"""The Graph and EdgeLabel records, the Jahangir family J(2,m) and its
words' edge sets, a graph's one spanning forest and the connectivity
test every spanning complex needs, and memo, the one cache of the inputs
a request shares: the lowest layer, and all that a forest sweep or the
closed form of J(2,m) runs besides complexes and formulas.

The edge order of J(2,m) is fixed once and for all, cycle by cycle with
the spoke first: index 3*(k-1) is the k-th spoke (hub to rim), followed
by the two rim edges of cycle k. Vertices are numbered hub = 0, rim
1..2m clockwise starting at the far end of the first spoke. Bitmask
encodings, emitted documents, and every golden value in the test suite
depend on this order staying put.
"""

from __future__ import annotations

from functools import partial, update_wrapper
from typing import NamedTuple

from .errors import CapacityError, InvalidParameterError

# An edge set is an int bit mask, bit i standing for edge i: the one
# form of every cycle, spanning tree, facet, face and facet-ideal
# generator. edge_indices turns it into index tuples for output.
EdgeSet = int

HUB = 0


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


def memo(compute):
    """compute with one slot: a call whose arguments equal the last
    call's, in type and value (==, never hashed), returns the last
    result, which callers must not change, or raises its CapacityError
    again as a fresh error of that type and message, so no traceback is
    kept. Keyword arguments take their parameters' positions, so f(m=3)
    shares f(3)'s slot; a call that does not name each remaining
    parameter once goes to compute, which takes its defaults or raises
    the interpreter's TypeError. The slot is one tuple, replaced whole
    and read once per call: each thread gets its own arguments' result.
    cache_clear() empties it."""
    last: list = [None]
    params = compute.__code__.co_varnames[:compute.__code__.co_argcount]

    def read(*args, **kwargs):
        if kwargs:
            rest = params[len(args):]
            if kwargs.keys() != set(rest):
                return compute(*args, **kwargs)
            args += tuple(kwargs[name] for name in rest)
        key = (tuple(map(type, args)), args)
        entry = last[0]
        if entry is None or entry[0] != key:
            try:
                entry = key, compute(*args), None
            except CapacityError as exc:
                last[0] = key, None, partial(type(exc), *exc.args)
                raise
            last[0] = entry
        if entry[2] is not None:
            raise entry[2]()
        return entry[1]

    read.cache_clear = lambda: last.__setitem__(0, None)
    return update_wrapper(read, compute)


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


def word_of(start: int, length: int, m: int) -> tuple[int, ...]:
    """The word of `length` consecutive cycle indices beginning at
    `start`, wrapping after m."""
    return tuple((start - 1 + t) % m + 1 for t in range(length))


def word_edge_set(word: tuple[int, ...], m: int) -> EdgeSet:
    """Union of the word's base cycles minus the interior spokes."""
    edges = 0
    for j in word:
        edges |= base_cycle_indices(j, m)
    for j in word[1:]:
        edges &= ~(1 << spoke_index(j, m))
    return edges


@memo
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


# ---------------------------------------------------------------------------
# The spanning forest, the one walk of a graph: connectivity, the tree
# guard's cactus bound and the simple-cycle scan read it


@memo
def spanning_forest(g: Graph) -> tuple[list[int], list[int]]:
    """A breadth-first spanning forest of g, one tree from each vertex
    not yet reached, in vertex order: per vertex, the index of its edge
    to its parent (-1 at a root) and its depth (0 at a root). Shared by
    every caller: a caller must not change the lists."""
    n = g.vertex_count
    adj = g.adjacency()
    up, depth = [-1] * n, [-1] * n  # depth -1: not reached
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root], level = 0, [root]
        while level:
            below = []
            for x in level:
                for y, idx in adj[x]:
                    if depth[y] < 0:
                        depth[y], up[y] = depth[x] + 1, idx
                        below.append(y)
            level = below
    return up, depth


def is_connected(g: Graph) -> bool:
    """Whether g has one vertex or more and a single component: its
    forest has one root."""
    # fewer than V - 1 edges cannot connect V vertices: no forest needed
    if g.vertex_count == 0 or g.edge_count < g.vertex_count - 1:
        return False
    return spanning_forest(g)[1].count(0) == 1


def require_spanning_complex(g: Graph) -> None:
    """Refuse g unless it has a spanning complex: it needs a vertex and
    a single component."""
    if not is_connected(g):
        raise InvalidParameterError(
            "a graph with no vertex or more than one component has no "
            "spanning complex")
