"""The spanning simplicial complex and its direct combinatorics.

Faces are never materialized: a face of the spanning complex of a
connected graph is exactly an acyclic edge subset (every forest extends
to a spanning tree), so the f-vector is computed by counting forests
and the minimal non-faces are exactly the simple cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, InvalidParameterError
from .graphs import Graph, enumerate_simple_cycles, is_connected
from .spanning import _find, enumerate_spanning_trees_generic

# f-vectors are plain tuples of arbitrary-precision ints, f_0..f_d.
FVector = tuple

F_VECTOR_EDGE_LIMIT = 30


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facets over a ground set 0..ground_size-1.

    Facets must be pairwise incomparable; faces are implicitly the
    downward closure and are never stored.
    """

    ground_size: int
    facets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.ground_size < 0:
            raise InvalidParameterError("ground set size must be nonnegative")
        for f in self.facets:
            if any(not 0 <= x < self.ground_size for x in f):
                raise InvalidParameterError(f"facet {sorted(f)} leaves the ground set")
        if len(set(self.facets)) != len(self.facets):
            raise InvalidParameterError("duplicate facets")
        # equal-sized distinct facets are automatically incomparable;
        # only mixed sizes need the quadratic containment check
        by_size: dict[int, list[frozenset[int]]] = {}
        for f in self.facets:
            by_size.setdefault(len(f), []).append(f)
        if len(by_size) > 1:
            sizes = sorted(by_size)
            for i, small in enumerate(sizes):
                for big in sizes[i + 1:]:
                    for a in by_size[small]:
                        if any(a <= b for b in by_size[big]):
                            raise InvalidParameterError(
                                f"facet {sorted(a)} is contained in another facet")


def spanning_complex(g: Graph) -> SimplicialComplex:
    """Complex whose facets are the spanning-tree edge sets of g."""
    if not is_connected(g):
        raise InvalidParameterError(
            "spanning complex is undefined for disconnected graphs")
    facets = tuple(enumerate_spanning_trees_generic(g))
    return SimplicialComplex(ground_size=g.edge_count, facets=facets)


def dimension(c: SimplicialComplex) -> int:
    if not c.facets:
        raise InvalidParameterError("empty complex has no dimension")
    return max(len(f) for f in c.facets) - 1


def is_pure(c: SimplicialComplex) -> bool:
    if not c.facets:
        raise InvalidParameterError("empty complex has no purity")
    return len({len(f) for f in c.facets}) == 1


def f_vector_direct(g: Graph) -> FVector:
    """f_i = number of (i+1)-edge acyclic subsets, by exhaustive forest
    extension. The oracle every other f-vector engine answers to."""
    if not is_connected(g):
        raise InvalidParameterError("f-vector of the spanning complex needs a connected graph")
    if g.edge_count > F_VECTOR_EDGE_LIMIT:
        raise CapacityError(
            f"{g.edge_count} edges exceed the exhaustive bound "
            f"{F_VECTOR_EDGE_LIMIT}; use the closed-form or "
            "inclusion-exclusion engines instead")
    n, edges = g.vertex_count, g.edges
    counts = [0] * max(n - 1, 1)

    def rec(pos: int, size: int, parent: list[int]) -> None:
        for ei in range(pos, len(edges)):
            ru, rv = _find(parent, edges[ei][0]), _find(parent, edges[ei][1])
            if ru == rv:
                continue  # would close a cycle
            child = parent[:]
            child[ru] = rv
            counts[size] += 1
            rec(ei + 1, size + 1, child)

    rec(0, 0, list(range(n)))
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def minimal_nonfaces(g: Graph) -> list[frozenset[int]]:
    """Inclusion-minimal non-faces of the spanning complex: exactly the
    simple cycles of g (each is dependent, every proper subset is a
    forest)."""
    if not is_connected(g):
        raise InvalidParameterError("minimal non-faces need a connected graph")
    return enumerate_simple_cycles(g)
