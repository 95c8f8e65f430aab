"""The direct combinatorics of the spanning simplicial complex.

The complex is given by its facets, the spanning trees, which
spanning.enumerate_spanning_trees_generic lists in canonical order.
Faces are never materialized: a face of the spanning complex of a
connected graph is exactly an acyclic edge subset (every forest extends
to a spanning tree), so the f-vector is the forest count by edge number
and the minimal non-faces are exactly the simple cycles, which
graphs.enumerate_simple_cycles lists.

The forests are counted by a frontier sweep over the edges (the
connectivity-state method of Sekine, Imai and Tani, "Computing the Tutte
polynomial of a graph of moderate size", ISAAC 1995; Knuth, TAOCP 4A
section 7.1.4), whose cost is polynomial in the edge count for graphs of
small pathwidth such as J(2,m), and is capped by the work it does.
Its frontier helpers, the steps of a sweep and the moves on a partition
of the frontier, also serve spanning's enumerator, which walks the same
states; they live here so that a sweep does not run that module.

The Hilbert series of the face ring is read off the f-vector, so it
lives beside the sweep: a direct-mode hilbert request runs this module
and records alone.
"""

from __future__ import annotations

from math import comb
from operator import sub
from typing import NamedTuple

from .errors import F_VECTOR_STEP_LIMIT, InvalidParameterError, capacity_error
from .records import Graph, _Checked, require_spanning_complex


def _canonical(labels: list[int]) -> tuple[int, ...]:
    """Block labels renumbered in order of first appearance, so equal
    partitions get equal keys."""
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def _entered(state: tuple[int, ...], fresh: int) -> tuple[int, ...]:
    """state with fresh new frontier vertices as blocks of their own."""
    top = max(state, default=-1) + 1
    return state + tuple(range(top, top + fresh))


def _merged(state: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """state with blocks a != b merged; the labels stay in order of
    first appearance."""
    lo, hi = min(a, b), max(a, b)
    return tuple(lo if x == hi else x - (x > hi) for x in state)


def _kept(state: tuple[int, ...], keep: list[int] | None) -> tuple[int, ...]:
    """state without the vertices that leave, keep naming the positions
    that stay (None: all of them), renumbered canonically."""
    return state if keep is None else _canonical([state[p] for p in keep])


def _frontier_steps(edges: tuple[tuple[int, int], ...]):
    """The frontier at each edge, for a sweep over the edges in order.

    Yields, per edge i = (u, v): the number of its ends new to the
    frontier, which enter at the end of it; the positions of u and v in
    it; the positions that stay after edge i, or None when none leaves;
    and the frontier itself, new ends included. A vertex leaves after
    its last edge.
    """
    last = {}
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    frontier: list[int] = []
    for i, (u, v) in enumerate(edges):
        fresh = 0
        for w in (u, v):
            if w not in frontier:
                frontier.append(w)
                fresh += 1
        keep = [p for p, w in enumerate(frontier) if last[w] != i]
        yield (fresh, frontier.index(u), frontier.index(v),
               keep if len(keep) < len(frontier) else None, frontier)
        frontier = [frontier[p] for p in keep]


def _plus(a: list[int], b: list[int]) -> list[int]:
    """Entrywise sum of two count lists of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def f_vector_direct(g: Graph) -> tuple[int, ...]:
    """f_i = number of (i+1)-edge acyclic subsets, by a frontier sweep
    over the edges in g's own order.

    The frontier holds the vertices already touched that still have
    edges to come. Each state is the partition of the frontier into
    the components of a partial forest, and maps to that forest count
    by edge number. An edge is skipped in every state, and taken where
    it joins two blocks, which merge and shift the counts by one. A
    vertex leaves after its last edge, and states that become equal are
    summed. Past F_VECTOR_STEP_LIMIT counts carried the sweep refuses.
    """
    require_spanning_complex(g)
    table: dict[tuple[int, ...], list[int]] = {(): [1]}
    steps = 0
    for fresh, pu, pv, keep, _ in _frontier_steps(g.edges):
        if steps > F_VECTOR_STEP_LIMIT:
            raise capacity_error("F_VECTOR_STEP_LIMIT", steps, f"on {g.edge_count} edges")
        if fresh:
            table = {_entered(s, fresh): c for s, c in table.items()}
        carried: dict[tuple[int, ...], list[int]] = {}
        for s, c in table.items():
            a, b = s[pu], s[pv]
            moves = [(s, c)]
            if a != b:
                moves.append((_merged(s, a, b), [0] + c))
            for key, counts in moves:
                steps += len(counts)
                key = _kept(key, keep)
                old = carried.get(key)
                carried[key] = counts if old is None else _plus(old, counts)
        table = carried
    # every vertex has left: one state, whose counts run from the empty
    # forest to the spanning trees
    (forests,) = table.values()
    return tuple(forests[1:])


# ---------------------------------------------------------------------------
# Hilbert series of the face ring


class _HilbertSeriesFields(NamedTuple):
    numerator: tuple[int, ...]
    denominator_power: int


class HilbertSeries(_Checked, _HilbertSeriesFields):
    """Exact rational function: integer numerator coefficients in
    ascending powers of t over (1 - t)**denominator_power."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.numerator:
            raise InvalidParameterError("numerator must be nonempty")
        if self.numerator[0] != 1:
            raise InvalidParameterError("series must evaluate to 1 at t=0")
        if self.denominator_power < 0:
            raise InvalidParameterError("denominator power must be nonnegative")

    def numerator_at(self, t: int) -> int:
        return sum(c * t ** k for k, c in enumerate(self.numerator))


def hilbert_series(f: tuple[int, ...]) -> HilbertSeries:
    """Hilbert series of the face ring of a complex with f-vector f:
    numerator sum_j f_{j-1} t^j (1-t)^(d+1-j) over (1-t)^(d+1), with
    f_{-1} = 1, in exact integer arithmetic. Its coefficients are
    h_k = sum_{j<=k} (-1)^(k-j) C(d+1-j, k-j) f_{j-1}. The complex
    {empty set}, with f = (), has series 1.

    The numerator is built by Horner's rule, Q <- Q (1-t) + f_{j-1} t^j
    for j = 1..d+1 from Q = 1: O(d^2) additions and no binomials."""
    num = [1]
    for j, fj in enumerate(f, 1):
        num = list(map(sub, num + [0], [0] + num))
        num[j] += fj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return HilbertSeries(numerator=tuple(num), denominator_power=len(f))


def hilbert_function(series: HilbertSeries, j: int) -> int:
    """Coefficient of t^j in the power-series expansion of series."""
    if j < 0:
        raise InvalidParameterError(f"degree must be nonnegative, got {j}")
    dpow = series.denominator_power
    if dpow == 0:
        return series.numerator[j] if j < len(series.numerator) else 0
    # 1/(1-t)^D expands to sum_k C(k+D-1, D-1) t^k
    total = 0
    for k, c in enumerate(series.numerator):
        if k > j:
            break
        total += c * comb(j - k + dpow - 1, dpow - 1)
    return total
