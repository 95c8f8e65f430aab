"""The certificate pass, the block ordering of J(2,m), and the
Cohen-Macaulay verdict.

The facet ideal has one squarefree generator per facet, whose support
is the facet; generators are never built, since the facet's edge-set
mask is its support. The colon ideal of a prefix is never materialized
either: for squarefree monomials its minimal generator degrees are the
sizes of the support differences, min_j |supp(m_j) \\ supp(m_i)|. For
generators of one degree that minimum is 1 exactly when some swap of
one variable, supp(m_i) - x + y, is an earlier support. `certify` makes
one pass over the facets in order and answers both certificate checks:
for each facet it finds the elements x for which such a swap exists (a
set lookup per swap); the quotient test needs one such x at every
position, and the shelling test fails at F_i exactly when an earlier
facet contains all of them, which an AND of per-element bitsets of
facet positions answers. A verdict makes that pass once.

A verdict takes one of two orderings. The block ordering ("block")
lists the facet-ideal generators of J(2,m) by the length of the
leading run of deleted spokes (longest run first, lexicographic inside
each block); it is defined on J(2,m) in its canonical edge order only,
and the test suite, not this module, is the arbiter that it passes the
quotient test.

The search ordering ("search"), for any connected graph, is the
canonical facet order itself: spanning trees sorted as edge tuples. A
spanning complex is the independence complex of a graphic matroid, and
the lexicographic order of a matroid's bases is a shelling (Bjorner,
"The homology and shellability of matroids and geometric lattices",
1992; Provan-Billera, 1980). The verdict still runs both checks on it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InvalidParameterError, PurityError
from .graphs import matrix_tree_count
from .records import (
    EdgeSet,
    Graph,
    _normalize,
    build_jahangir,
    require_spanning_complex,
    spoke_index,
)
from .spanning import enumerate_spanning_trees_generic, enumerate_spanning_trees_jahangir

# Past this many facets the generic certificate is not checked. One
# certificate pass answers both checks, a few lookups per facet; on one
# core of a shared 2-core Intel Xeon machine (in-process, least of 5,
# block and canonical order) it takes 0.018 s at the cap (the Petersen
# graph's 2000 facets), 0.023 s on J(2,6)'s 2700, 0.14-0.17 s on
# J(2,7)'s 10,082 and 0.73-0.75 s on J(2,8)'s 37,632 (5.2-6.2 s on
# J(2,9)'s 140,450, single runs), so the cap could rise past its value.
CERTIFICATE_CHECK_LIMIT = 2000


def certify(facets: Sequence[EdgeSet]) -> tuple[int | None, bool]:
    """Both certificate checks of an ordered list of equal-sized facets,
    from one pass: (first_failure, shelling).

    An element x of F_i is usable when some swap F_i - x + y is an
    earlier facet. The quotient test fails at first_failure, the first
    position after 0 with no usable element (None if there is none).
    The classical shelling test (for all i and j < i some k < i has
    |F_i - F_k| = 1 and F_i cap F_j inside F_i cap F_k) fails at F_i
    exactly when an earlier facet holds every usable element of F_i.
    A quotient failure fails the shelling test too, so the pass stops
    there; the converse does not hold, as an order can have
    quasi-linear quotients and still not be a shelling."""
    if len({f.bit_count() for f in facets}) > 1:
        raise PurityError("shelling test requires equal-sized facets")
    universe = 0
    for mask in facets:
        universe |= mask
    if universe < 0:
        raise InvalidParameterError("edge-set masks must be nonnegative")
    elements = [1 << x for x in range(universe.bit_length()) if universe >> x & 1]
    holders = dict.fromkeys(elements, 0)   # element -> positions of facets with it
    seen: set[EdgeSet] = set()
    shelling = True
    for i, mask in enumerate(facets):
        inside = [x for x in elements if mask & x]
        outside = [y for y in elements if not mask & y]
        usable, earlier = 0, (1 << i) - 1
        for x in inside:
            base = mask ^ x
            for y in outside:
                if base | y in seen:
                    usable |= x
                    earlier &= holders[x]
                    break
        if i and not usable:
            return i, False
        # the shelling fails at F_i when an earlier facet holds every usable x
        shelling = shelling and not earlier
        if shelling:
            for x in inside:
                holders[x] |= 1 << i
        seen.add(mask)
    return None, shelling


# ---------------------------------------------------------------------------
# The block ordering for J(2,m)


def _leading_spoke_run(removed: EdgeSet, m: int) -> int:
    k = 0
    while k < m and removed >> spoke_index(k + 1, m) & 1:
        k += 1
    return k


def _lexicographic(masks: list[EdgeSet]) -> list[EdgeSet]:
    """Edge sets of one size in ascending order of their index tuples.
    For equal sizes that is the descending order of the binary strings
    read from bit 0 up, a key several times cheaper than the tuple."""
    return sorted(masks, key=lambda s: bin(s)[:1:-1], reverse=True)


def prefix_block_ordering(m: int) -> tuple[int, ...]:
    """Permutation of the canonical facet-ideal generators of J(2,m):
    blocks by the length of the leading run of deleted spokes, longest
    first, lexicographic on the deleted edge tuple within a block.

    Sorted by _lexicographic, each tree's rank is its canonical facet
    position. For sets of one size the lexicographic order of the
    deleted sets is the reverse of that of the trees, so the ordering
    is the stable sort of the positions by run length, reversed."""
    every_edge = (1 << 3 * m) - 1
    trees = _lexicographic(enumerate_spanning_trees_jahangir(m))
    runs = [_leading_spoke_run(every_edge ^ tree, m) for tree in trees]
    return tuple(reversed(sorted(range(len(runs)), key=runs.__getitem__)))


# ---------------------------------------------------------------------------
# Verdict


class CMVerdict(NamedTuple):
    """Cohen-Macaulay verdict for a spanning complex. The certificate is
    the block ordering of J(2,m) or, with ordering_source "search", the
    canonical facet order. cohen_macaulay is None when the canonical
    order went unchecked or failed the quotient test, which the matroid
    theorem rules out; it is False only when the block ordering fails."""

    cohen_macaulay: bool | None
    certificate: tuple[int, ...] | None
    ordering_source: str | None        # "block" or "search"
    block_first_failure: int | None    # position where the block order failed
    shelling_agrees: bool | None


def cohen_macaulay_verdict(g: Graph, ordering: str,
                           trees: int | None = None) -> CMVerdict:
    """Build the spanning complex of g, then certify Cohen-Macaulayness
    by an ordering of its facets with quasi-linear quotients: the
    block ordering ("block"), defined on J(2,m) in its canonical edge
    order only, or the canonical facet order ("search"). Every
    certificate is checked, never assumed. trees is g's spanning-tree
    count where the caller has it, and is computed when needed
    otherwise.
    """
    if ordering not in ("block", "search"):
        raise InvalidParameterError(f"unknown ordering strategy {ordering!r}")
    require_spanning_complex(g)
    if ordering == "block":
        # the block ordering permutes the facets of J(2,m) in its
        # canonical edge order, so g must list exactly those edges
        m = (g.vertex_count - 1) // 2
        if (g.vertex_count < 7 or g.vertex_count % 2 == 0
                or [_normalize(*e) for e in g.edges]
                != [_normalize(*e) for e in build_jahangir(m).edges]):
            raise InvalidParameterError(
                "block ordering is only defined for J(2,m) in its canonical edge order")
    elif CERTIFICATE_CHECK_LIMIT < (matrix_tree_count(g) if trees is None else trees):
        # the tree count is the facet count: the size is decided before
        # any tree is enumerated
        return CMVerdict(None, None, "search", None, None)
    facets = enumerate_spanning_trees_generic(g)
    if ordering == "block":
        perm = prefix_block_ordering(m)
        failure, shelling = certify([facets[k] for k in perm])
        if failure is not None:
            return CMVerdict(False, None, "block", failure, None)
        return CMVerdict(True, perm, "block", None, shelling)
    failure, shelling = certify(facets)
    if failure is not None:
        return CMVerdict(None, None, "search", None, None)
    return CMVerdict(True, tuple(range(len(facets))), "search", None, shelling)


def _cm_payload(g: Graph, ordering: str, trees: int, meta: dict) -> dict:
    """The CLI's cm answer."""
    verdict = cohen_macaulay_verdict(g, ordering=ordering, trees=trees)
    return {**meta,
            "cohen_macaulay": verdict.cohen_macaulay,
            "ordering_source": verdict.ordering_source,
            "certificate": list(verdict.certificate)
            if verdict.certificate is not None else None,
            "block_first_failure": verdict.block_first_failure,
            "shelling_agrees": verdict.shelling_agrees}
