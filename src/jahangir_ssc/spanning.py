"""Spanning-tree enumeration, generic and structured.

The generic enumerator is the oracle: backtracking over the edge list
that includes an edge before excluding it, so edge sets come out in
canonical order. An edge that closes a cycle is skipped; any other edge
may be excluded unless it is a bridge of the chosen edges plus those
still to come, which a probe decides by uniting the later edges into a
copy of the current union-find until the edge's two ends meet.

The structured enumerator builds the same trees for J(2,m) by the
cutting-down rules: choose which spokes to delete (never all m), then
delete exactly one rim edge from every merged cycle and from every
untouched cycle. Trees are classified by the shape of the deleted
spoke set, and verify_partition checks that the classes are disjoint
and jointly exhaust the generic enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .cycles import cyclic_runs
from .errors import ClassificationError, InvalidParameterError
from .graphs import (
    EdgeSet,
    Graph,
    build_jahangir,
    edge_indices,
    is_connected,
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


@dataclass(frozen=True, slots=True)
class SpanningTreeRecord:
    """A spanning tree of J(2,m) as the pair (kept, removed) plus its
    class. kept is the facet; removed is its m-edge complement."""

    kept: EdgeSet
    removed: EdgeSet
    tree_class: TreeClass


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def enumerate_spanning_trees_generic(g: Graph) -> list[EdgeSet]:
    """All spanning-tree edge sets of g, each once, canonical order.

    Backtracking over edge positions, including an edge before
    excluding it, so trees come out lexicographic by sorted edge tuple.
    The chosen edges plus the edges still to come always connect g; an
    edge may be excluded unless it is a bridge of that edge set, which
    a local probe from the current union-find decides. Disconnected
    input yields an empty list.
    """
    n, edges = g.vertex_count, g.edges
    if not is_connected(g):
        return []
    total = len(edges)
    out: list[EdgeSet] = []

    def bridge(pos: int, ru: int, rv: int, parent: list[int]) -> bool:
        # can the edges after pos join the roots ru and rv? union them
        # into a copy of the chosen edges' components until they meet,
        # following the two roots as their sets are linked
        probe = parent[:]
        for ei in range(pos + 1, total):
            a, b = _find(probe, edges[ei][0]), _find(probe, edges[ei][1])
            if a != b:
                probe[a] = b
                if a == ru:
                    ru = b
                elif a == rv:
                    rv = b
                if ru == rv:
                    return False
        return True

    def rec(pos: int, ncomp: int, parent: list[int], chosen: EdgeSet) -> None:
        if ncomp == 1:
            out.append(chosen)
            return
        while True:  # an edge that closes a cycle is excluded at no cost
            ru, rv = _find(parent, edges[pos][0]), _find(parent, edges[pos][1])
            if ru != rv:
                break
            pos += 1
        child = parent[:]
        child[ru] = rv
        rec(pos + 1, ncomp - 1, child, chosen | 1 << pos)
        if not bridge(pos, ru, rv, parent):
            rec(pos + 1, ncomp, parent, chosen)

    rec(0, n, list(range(n)), 0)
    return out


# ---------------------------------------------------------------------------
# Structured enumeration for J(2,m)


def _classify_spoke_set(deleted_spokes: set[int], m: int) -> TreeClass:
    rho = len(deleted_spokes)
    if rho == 0:
        return TreeClass.KEEP_ALL_SPOKES
    if rho == 1:
        return TreeClass.DROP_ONE_SPOKE
    runs = cyclic_runs(deleted_spokes, m)
    if len(runs) == 1:
        return TreeClass.DROP_RUN
    if len(runs) == rho:
        return TreeClass.DROP_SCATTERED
    return TreeClass.DROP_MIXED


def _rim_pools(deleted_spokes: set[int], m: int) -> list[list[EdgeSet]]:
    """One pool of candidate rim deletions, as one-edge sets, per
    constraint: each maximal run of deleted spokes merges the run's
    cycles with the one before it and demands exactly one rim deletion
    from the merged cycle; each untouched cycle demands one of its own
    two rim edges."""
    pools: list[list[EdgeSet]] = []
    covered: set[int] = set()
    for run in cyclic_runs(deleted_spokes, m):
        first = run[0] - 1 if run[0] > 1 else m
        merged = [first] + run
        covered.update(merged)
        pools.append([1 << i for j in merged for i in rim_indices(j, m)])
    pools.extend([1 << i for i in rim_indices(j, m)]
                 for j in range(1, m + 1) if j not in covered)
    return pools


def enumerate_spanning_trees_jahangir(m: int) -> list[SpanningTreeRecord]:
    """All spanning trees of J(2,m) by the cutting-down rules, in a
    deterministic order (deleted-spoke count, then lexicographic)."""
    if m < 3:
        raise InvalidParameterError(f"m must be >= 3, got {m}")
    every_edge = (1 << 3 * m) - 1
    records: list[SpanningTreeRecord] = []
    for rho in range(m):  # never all m spokes
        for spokes in itertools.combinations(range(1, m + 1), rho):
            deleted = set(spokes)
            cls = _classify_spoke_set(deleted, m)
            base = sum(1 << spoke_index(j, m) for j in deleted)
            for picks in itertools.product(*_rim_pools(deleted, m)):
                removed = base + sum(picks)  # the picked rim edges are distinct
                records.append(SpanningTreeRecord(
                    kept=every_edge ^ removed, removed=removed, tree_class=cls))
    return records


def classify_tree(removed: EdgeSet, m: int) -> TreeClass:
    """Class of the spanning tree whose removed edge set is given.

    Raises ClassificationError unless removed really is the complement
    of a spanning tree of J(2,m).
    """
    if m < 3:
        raise InvalidParameterError(f"m must be >= 3, got {m}")
    g = build_jahangir(m)
    if removed < 0 or removed >> 3 * m or removed.bit_count() != m:
        shown = list(edge_indices(removed)) if removed >= 0 else removed
        raise ClassificationError(f"not an m-edge cut set: {shown}")
    kept = [g.edges[i] for i in range(3 * m) if not removed >> i & 1]
    sub = Graph(g.vertex_count, tuple(kept))
    # 2m edges on 2m+1 vertices: connected implies spanning tree
    if not is_connected(sub):
        raise ClassificationError(
            f"complement of {list(edge_indices(removed))} is not a spanning tree")
    deleted_spokes = {j for j in range(1, m + 1) if removed >> spoke_index(j, m) & 1}
    return _classify_spoke_set(deleted_spokes, m)


@dataclass(frozen=True)
class PartitionReport:
    m: int
    class_counts: tuple[tuple[str, int], ...]
    total: int
    generic_total: int
    disjoint: bool
    union_matches: bool
    missing: tuple[EdgeSet, ...]   # generic trees no record produced
    extra: tuple[EdgeSet, ...]     # records outside the generic set

    @property
    def ok(self) -> bool:
        return self.disjoint and self.union_matches


def verify_partition(m: int) -> PartitionReport:
    """Check the structured classes against the generic oracle: classes
    pairwise disjoint, union equal to the generic enumeration. Failures
    land in the report, not in an exception."""
    records = enumerate_spanning_trees_jahangir(m)
    generic = enumerate_spanning_trees_generic(build_jahangir(m))
    counts = {cls: 0 for cls in TreeClass}
    seen: dict[EdgeSet, TreeClass] = {}
    disjoint = True
    for rec in records:
        counts[rec.tree_class] += 1
        if rec.kept in seen:
            disjoint = False
        seen[rec.kept] = rec.tree_class
    generic_set = set(generic)
    missing = tuple(sorted(generic_set.difference(seen), key=edge_indices))
    extra = tuple(sorted(seen.keys() - generic_set, key=edge_indices))
    return PartitionReport(
        m=m,
        class_counts=tuple((cls.value, counts[cls]) for cls in TreeClass),
        total=len(records),
        generic_total=len(generic),
        disjoint=disjoint,
        union_matches=not missing and not extra and len(records) == len(generic),
        missing=missing,
        extra=extra)
