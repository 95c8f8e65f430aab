"""Spanning-tree enumeration, generic and structured.

The generic enumerator is the oracle: a frontier-based search over the
edge list (Sekine, Imai and Tani, ISAAC 1995; Kawahara, Inoue, Iwashita
and Minato, IEICE Trans. Fundamentals E100-A(9), 2017), the connectivity
states of the forest sweep in complexes.f_vector_direct, whose frontier
helpers it uses. A forward pass builds the graph of frontier states,
each distinct state with one include and one exclude move, and drops
every move after which the edges still to come cannot complete a
spanning tree; a backward pass lists each state's completions, include
before exclude, so edge sets come out in canonical order. A level
holds at most as many states as there are trees, and only a handful
where the frontier stays small.

The structured enumerator builds the same trees for J(2,m), as the
same edge-set masks, by the cutting-down rules: choose which spokes to
delete (never all m), then delete exactly one rim edge from every arc,
the base cycles between two cyclically consecutive kept spokes. A
tree's class (CJ1-CJ3c) is the shape of its deleted spoke set, so the
classes are counted per spoke set, as the product of twice its arc
lengths: no tree carries a label, and no single tree is classified.
verify_partition checks that the structured trees are distinct and
jointly exhaust the generic enumeration.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from operator import eq
from typing import NamedTuple

from .complexes import _entered, _frontier_steps, _kept, _merged
from .graphs import _edge_lister, matrix_tree_count
from .records import (
    EdgeSet,
    Graph,
    build_jahangir,
    edge_indices,
    is_connected,
    memo,
    rim_indices,
    spoke_index,
)


class TreeClass(str, Enum):
    """Shape of the deleted spoke set behind a spanning tree."""

    KEEP_ALL_SPOKES = "CJ1"      # no spoke deleted
    DROP_ONE_SPOKE = "CJ2"       # exactly one spoke deleted
    DROP_RUN = "CJ3a"            # >= 2 spokes deleted, one consecutive run
    DROP_SCATTERED = "CJ3b"      # >= 2 spokes deleted, pairwise non-consecutive
    DROP_MIXED = "CJ3c"          # >= 2 spokes deleted, some runs of each kind

    def __str__(self) -> str:
        return self.value


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _meet(state: tuple[int, ...], reach: tuple[int, ...], a: int, b: int) -> bool:
    """Whether blocks a and b of a partial forest meet through the edges
    still to come. state gives each frontier vertex its block, reach its
    component among the edges still to come, or -1 when it has none."""
    parent = list(range(max(state) + 1))
    first: dict[int, int] = {}
    for x, c in zip(state, reach):
        if c >= 0:
            y = first.setdefault(c, x)
            if y != x:
                parent[_find(parent, x)] = _find(parent, y)
    return _find(parent, a) == _find(parent, b)


def enumerate_spanning_trees_generic(g: Graph) -> list[EdgeSet]:
    """All spanning-tree edge sets of g, each once, canonical order.

    Frontier-based search in two passes over g's edge order. The
    forward pass builds the state graph: a state is the partition of
    the frontier into the blocks of a partial forest, and each distinct
    state gets one include and one exclude move, kept only when the
    edges still to come can complete the forest. So every state kept
    lies on some tree, and a level never holds more states than there
    are trees. The backward pass lists each state's completions,
    include before exclude, so the trees come out lexicographic by
    sorted edge tuple. Disconnected input yields an empty list.
    """
    return list(_generic_trees(g))


# A verify run asks for the same trees several times, and each call
# copies the memoized tuple into a fresh list.
@memo
def _generic_trees(g: Graph) -> tuple[EdgeSet, ...]:
    if not is_connected(g):
        return ()
    edges = g.edges
    steps = list(_frontier_steps(edges))
    # reach[i]: each frontier vertex's component among the edges after
    # i, numbered in order of first appearance, -1 when it leaves at i
    reach: list[tuple[int, ...]] = [()] * len(edges)
    later = list(range(g.vertex_count))
    for i in range(len(edges) - 1, -1, -1):
        _, _, _, keep, frontier = steps[i]
        stays = range(len(frontier)) if keep is None else set(keep)
        ids: dict[int, int] = {}
        reach[i] = tuple(ids.setdefault(_find(later, w), len(ids)) if p in stays else -1
                         for p, w in enumerate(frontier))
        u, v = edges[i]
        later[_find(later, u)] = _find(later, v)

    # forward: per edge, each state's (include, exclude) targets at the
    # next level, -1 for none
    moves: list[list[tuple[int, int]]] = []
    states: list[tuple[int, ...]] = [()]
    for (fresh, pu, pv, keep, _), comp in zip(steps, reach):
        index: dict[tuple[int, ...], int] = {}
        level = []
        for s in states:
            if fresh:
                s = _entered(s, fresh)
            a, b = s[pu], s[pv]
            inc = exc = -1
            # taking the edge leaves the forest plus the edges to come
            # as connected as before, so the include move always lives
            if a != b:
                inc = index.setdefault(_kept(_merged(s, a, b), keep), len(index))
            # skipping it loses the trees only where it is a bridge
            if a == b or _meet(s, comp, a, b):
                exc = index.setdefault(_kept(s, keep), len(index))
            level.append((inc, exc))
        moves.append(level)
        states = list(index)

    # backward: each state's completions, edge masks over the later
    # edges; a list whose last user is its include move takes the bit in
    # place, one whose last user is its exclude move is taken as it is
    done: list[list[EdgeSet] | None] = [[0]]
    for i in range(len(moves) - 1, -1, -1):
        level = moves.pop()
        bit = 1 << i
        users = [0] * len(done)
        for move in level:
            for j in move:
                if j >= 0:
                    users[j] += 1
        below, done = done, []
        for inc, exc in level:
            out = None
            if inc >= 0:
                users[inc] -= 1
                src = below[inc]
                if users[inc]:
                    out = [t | bit for t in src]
                else:
                    below[inc] = None
                    for k, t in enumerate(src):
                        src[k] = t | bit
                    out = src
            if exc >= 0:
                users[exc] -= 1
                src = below[exc]
                if not users[exc]:
                    below[exc] = None
                if out is not None:
                    out += src
                else:
                    out = src[:] if users[exc] else src
            done.append(out)
    return tuple(done[0])


# ---------------------------------------------------------------------------
# Structured enumeration for J(2,m)


def _tree_class(rho: int, runs: int) -> TreeClass:
    """Class of the trees that delete rho spokes in the given number of
    maximal cyclic runs."""
    if rho == 0:
        return TreeClass.KEEP_ALL_SPOKES
    if rho == 1:
        return TreeClass.DROP_ONE_SPOKE
    if runs == 1:
        return TreeClass.DROP_RUN
    if runs == rho:
        return TreeClass.DROP_SCATTERED
    return TreeClass.DROP_MIXED


def _spoke_sets(m: int):
    """Each spoke set the cutting-down rule may delete (never all m),
    by size and then lexicographic, with its tree class and its arcs.
    An arc (p, length) is the base cycles from kept spoke p up to the
    next kept spoke, cyclically, listed from the lowest kept spoke; the
    set's trees delete one of an arc's 2 * length rim edges from each.
    A run of r deleted spokes is one arc of r + 1 cycles."""
    for rho in range(m):
        for spokes in itertools.combinations(range(1, m + 1), rho):
            kept = [j for j in range(1, m + 1) if j not in spokes]
            arcs = [(p, q - p) for p, q in zip(kept, kept[1:] + [kept[0] + m])]
            runs = sum(length > 1 for _, length in arcs)
            yield spokes, _tree_class(rho, runs), arcs


def enumerate_spanning_trees_jahangir(m: int) -> list[EdgeSet]:
    """All spanning-tree edge sets of J(2,m) by the cutting-down rules,
    in a deterministic order: by the deleted spoke set (size, then
    lexicographic), then by the rim picks, arc by arc. No claim reads
    this order: verify_partition sorts."""
    build_jahangir(m)  # refuses m < 3
    return list(_structured_trees(m))


@memo
def _structured_trees(m: int) -> tuple[EdgeSet, ...]:
    every_edge = (1 << 3 * m) - 1
    trees: list[EdgeSet] = []
    for spokes, _, arcs in _spoke_sets(m):
        # one pick per arc, in the order of itertools.product; the
        # picked rim edges are distinct and kept so far, so their bits
        # subtract
        kept = [every_edge - sum(1 << spoke_index(j, m) for j in spokes)]
        for p, length in arcs:
            pool = [1 << i for c in range(p, p + length) for i in rim_indices(c, m)]
            kept = [t - b for t in kept for b in pool]
        trees += kept
    return tuple(trees)


def _class_counts(m: int) -> tuple[tuple[str, int], ...]:
    """(class name, tree count) for every class in TreeClass order,
    empty classes included: each spoke set adds the product of twice
    its arc lengths to its class, and no tree is listed."""
    counts = dict.fromkeys(TreeClass, 0)
    for _, cls, arcs in _spoke_sets(m):
        counts[cls] += math.prod(2 * length for _, length in arcs)
    return tuple((cls.value, n) for cls, n in counts.items())


class PartitionReport(NamedTuple):
    m: int
    class_counts: tuple[tuple[str, int], ...]
    total: int
    generic_total: int
    disjoint: bool
    union_matches: bool
    missing: tuple[EdgeSet, ...]   # generic trees the structured list lacks
    extra: tuple[EdgeSet, ...]     # structured trees outside the generic set

    @property
    def ok(self) -> bool:
        return self.disjoint and self.union_matches


def verify_partition(m: int) -> PartitionReport:
    """Check the structured classes against the generic oracle: classes
    pairwise disjoint, union equal to the generic enumeration. Failures
    land in the report, not in an exception. The class counts come from
    the cutting-down rule, one product per spoke set.

    Both sides are compared as sorted mask lists, so no tree is hashed:
    equal lists are the match, and an overlap shows as two equal
    neighbours among the structured trees."""
    trees = enumerate_spanning_trees_jahangir(m)
    generic = enumerate_spanning_trees_generic(build_jahangir(m))
    trees.sort()
    generic.sort()
    union_matches = trees == generic
    missing = extra = ()
    if not union_matches:
        # only a failed comparison names the trees on either side
        tree_set, generic_set = set(trees), set(generic)
        missing = tuple(sorted(generic_set - tree_set, key=edge_indices))
        extra = tuple(sorted(tree_set - generic_set, key=edge_indices))
    return PartitionReport(
        m=m,
        class_counts=_class_counts(m),
        total=len(trees),
        generic_total=len(generic),
        disjoint=not any(map(eq, trees, itertools.islice(trees, 1, None))),
        union_matches=union_matches,
        missing=missing,
        extra=extra)


# ---------------------------------------------------------------------------
# The CLI's facets and classes answers, here so that no other request
# compiles them


def _facet_payload(g: Graph, meta: dict) -> dict:
    facets = enumerate_spanning_trees_generic(g)
    return {**meta, "count": len(facets), "matrix_tree_count": matrix_tree_count(g),
            "facets": map(_edge_lister(g), facets)}


def _classes_payload(m: int, meta: dict) -> dict:
    counts = dict(_class_counts(m))
    return {**meta, "counts": counts, "total": sum(counts.values()),
            "matrix_tree_count": matrix_tree_count(build_jahangir(m))}
