"""The certificate pass, the block ordering of J(2,m), and the
Cohen-Macaulay verdict.

The facet ideal has one squarefree generator per facet, whose support
is the facet, so a facet's edge-set mask stands for its generator. The
colon ideal of a prefix is never built either: its minimal generator
degrees are the sizes min_j |supp(m_j) \\ supp(m_i)|, which for one
degree is 1 exactly when some swap of one variable, supp(m_i) - x + y,
is an earlier support. `certify` makes one pass over the facets in
order and finds, for each facet F_i, its usable elements U_i: the x for
which such a swap exists (a set lookup per swap). The quotient test
needs U_i nonempty at every position after 0. The order is a shelling
exactly when #{i : |U_i| = k} is h_k, the h-vector of the complex
(Bjorner 1992, sections 7.2-7.3): a face first met at F_i contains U_i,
so the sum of 2^(|F_i| - |U_i|) bounds the face count, degree by
degree, with equality exactly when no earlier facet contains any U_i,
the classical shelling condition. The verdict reads h off the forest
sweep's f-vector.

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

from collections import Counter
from typing import NamedTuple, Sequence

from .complexes import f_vector_direct, hilbert_series
from .errors import CapacityError, InvalidParameterError, PurityError
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

# Past this many facets a certificate is not checked: the search
# ordering's verdict refuses, and verify leaves its Cohen-Macaulay claim
# unchecked. The cap serves a budget of about 20 ms per check. On one
# core of a shared 2-core Intel Xeon machine (CPython 3.11.7,
# in-process, least of 5, block and canonical order) the one-pass
# certificate takes 3 ms on J(2,5)'s 722 facets, 14-15 ms on J(2,6)'s
# 2700, the largest certificate under the cap, and 65-71 ms on J(2,7)'s
# 10,082; J(2,8)'s 37,632 take about 0.38 s and J(2,9)'s 140,450 about
# 2.2 s. cm --ordering block is not capped here: the tree guard bounds
# it.
CERTIFICATE_CHECK_LIMIT = 3000


def _require_certifiable(facets: int) -> None:
    """Refuse a certificate of more than CERTIFICATE_CHECK_LIMIT facets,
    naming the facet count and the cap."""
    if facets > CERTIFICATE_CHECK_LIMIT:
        raise CapacityError(
            f"{facets} facets over the certificate check limit of {CERTIFICATE_CHECK_LIMIT}")


def certify(facets: Sequence[EdgeSet]) -> tuple[int | None, tuple[int, ...] | None]:
    """Both certificate checks of an ordered list of equal-sized facets,
    from one pass: (first_failure, histogram).

    first_failure is the first position after 0 whose facet has no
    usable element, where the pass stops with histogram None. Otherwise
    it is None, and histogram[k] counts the facets with k usable
    elements, up to the largest k: the order is a shelling exactly
    when that is the h-vector (Bjorner 1992, sections 7.2-7.3). An order
    can have quasi-linear quotients and still not be a shelling."""
    if len({f.bit_count() for f in facets}) > 1:
        raise PurityError("shelling test requires equal-sized facets")
    universe = 0
    for mask in facets:
        universe |= mask
    if universe < 0:
        raise InvalidParameterError("edge-set masks must be nonnegative")
    elements = [1 << x for x in range(universe.bit_length()) if universe >> x & 1]
    histogram: Counter[int] = Counter()
    seen: set[EdgeSet] = set()
    for i, mask in enumerate(facets):
        outside = [y for y in elements if not mask & y]
        usable = 0
        for x in elements:
            if mask & x:
                base = mask ^ x
                for y in outside:
                    if base | y in seen:
                        usable += 1
                        break
        if i and not usable:
            return i, None
        histogram[usable] += 1
        seen.add(mask)
    return None, tuple(histogram[k] for k in range(max(histogram, default=-1) + 1))


# ---------------------------------------------------------------------------
# The block ordering for J(2,m)


def _leading_spoke_run(removed: EdgeSet, m: int) -> int:
    k = 0
    while k < m and removed >> spoke_index(k + 1, m) & 1:
        k += 1
    return k


# Each byte with its 8 bits in reverse order.
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _lexicographic(masks: list[EdgeSet], width: int) -> list[EdgeSet]:
    """Edge sets of one size, below bit `width`, in ascending order of
    their index tuples. For equal sizes that is the descending order of
    the masks with their `width` bits reversed, bit 0 the highest: each
    byte reversed by a table, the bytes read back in reverse order, and
    the padding bits of the top byte shifted out, an int key no wider
    than the mask."""
    size = (width + 7) // 8
    pad = 8 * size - width
    return sorted(masks, key=lambda s, table=_REVERSED, read=int.from_bytes: read(
        s.to_bytes(size, "little").translate(table), "big") >> pad, reverse=True)


def prefix_block_ordering(m: int) -> tuple[int, ...]:
    """Permutation of the canonical facet-ideal generators of J(2,m):
    blocks by the length of the leading run of deleted spokes, longest
    first, lexicographic on the deleted edge tuple within a block.

    Sorted by _lexicographic, each tree's rank is its canonical facet
    position. For sets of one size the lexicographic order of the
    deleted sets is the reverse of that of the trees, so the ordering
    is the stable sort of the positions by run length, reversed."""
    every_edge = (1 << 3 * m) - 1
    trees = _lexicographic(enumerate_spanning_trees_jahangir(m), 3 * m)
    runs = [_leading_spoke_run(every_edge ^ tree, m) for tree in trees]
    return tuple(reversed(sorted(range(len(runs)), key=runs.__getitem__)))


# ---------------------------------------------------------------------------
# Verdict


class CMVerdict(NamedTuple):
    """Cohen-Macaulay verdict for a spanning complex. The certificate is
    the block ordering of J(2,m) or, with ordering_source "search", the
    canonical facet order. cohen_macaulay is None when the canonical
    order failed the quotient test, which the matroid theorem rules out;
    it is False only when the block ordering fails."""

    cohen_macaulay: bool | None
    certificate: tuple[int, ...] | None
    ordering_source: str | None        # "block" or "search"
    block_first_failure: int | None    # position where the block order failed
    shelling_agrees: bool | None


def cohen_macaulay_verdict(g: Graph, ordering: str, trees: int | None = None,
                           f_vector: tuple[int, ...] | None = None) -> CMVerdict:
    """Build the spanning complex of g, then certify Cohen-Macaulayness
    by an ordering of its facets with quasi-linear quotients: the
    block ordering ("block"), defined on J(2,m) in its canonical edge
    order only, or the canonical facet order ("search"). Every
    certificate is checked, never assumed: shelling_agrees is whether
    the pass's histogram is the Hilbert numerator of f_vector, which
    the forest sweep computes, once the quotient test passes, unless the
    caller has it; a refused sweep leaves shelling_agrees None.

    The search ordering is refused, by a CapacityError that names the
    facet count and the cap, past CERTIFICATE_CHECK_LIMIT facets. trees,
    g's spanning-tree count and so its facet count, decides that before
    any tree is enumerated, and is computed only when the caller has not
    got it.
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
    else:
        _require_certifiable(matrix_tree_count(g) if trees is None else trees)
    facets = enumerate_spanning_trees_generic(g)
    certificate = (prefix_block_ordering(m) if ordering == "block"
                   else tuple(range(len(facets))))
    failure, histogram = certify([facets[k] for k in certificate])
    if failure is not None:
        if ordering == "search":  # ruled out by the matroid theorem
            return CMVerdict(None, None, "search", None, None)
        return CMVerdict(False, None, "block", failure, None)
    if f_vector is None:
        try:
            f_vector = f_vector_direct(g)
        except CapacityError:  # no h-vector to compare with
            return CMVerdict(True, certificate, ordering, None, None)
    return CMVerdict(True, certificate, ordering, None,
                     histogram == hilbert_series(f_vector).numerator)


def _cm_payload(g: Graph, ordering: str, trees: int, meta: dict) -> dict:
    """The CLI's cm answer."""
    verdict = cohen_macaulay_verdict(g, ordering=ordering, trees=trees)
    return {**meta,
            "cohen_macaulay": verdict.cohen_macaulay,
            "ordering_source": verdict.ordering_source,
            "certificate": verdict.certificate,  # the writer takes tuples
            "block_first_failure": verdict.block_first_failure,
            "shelling_agrees": verdict.shelling_agrees}
