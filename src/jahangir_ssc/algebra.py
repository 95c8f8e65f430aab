"""The block ordering of J(2,m) and the search ordering of any connected
graph, each judged by exchange rules, and the Cohen-Macaulay verdict.

The facet ideal has one squarefree generator per facet, whose support
is the facet, so a facet's edge-set mask stands for its generator. The
colon ideal of a prefix is never built either: its minimal generator
degrees are the sizes min_j |supp(m_j) \\ supp(m_i)|, which for one
degree is 1 exactly when some swap of one variable, supp(m_i) - x + y,
is an earlier support. Such an x is a usable element of the facet F_i,
and U_i is the set of them. The quotient test needs U_i nonempty at
every position after 0. The order is a shelling exactly when
#{i : |U_i| = k} is h_k, the h-vector of the complex (Bjorner 1992,
sections 7.2-7.3): a face first met at F_i contains U_i, so the sum of
2^(|F_i| - |U_i|) bounds the face count, degree by degree, with
equality exactly when no earlier facet contains any U_i, the classical
shelling condition. The verdict reads h off the forest sweep's
f-vector. A tree F - x + y needs x on the fundamental cycle of y in F,
and each ordering says by a rule on x and y when that tree comes
earlier, so neither keeps a set of earlier facets.

A verdict takes one of two orderings. The block ordering ("block")
lists the facet-ideal generators of J(2,m) by the length of the
leading run of deleted spokes (longest run first, lexicographic inside
each block); it is defined on J(2,m) in its canonical edge order only.

`block_ordering_histogram` gives the block ordering's histogram of
|U_i| without listing a facet, from exchange rules. A tree deletes a
spoke set S (never all m spokes) and one rim edge, its pick, from each
arc: the base cycles between two cyclically consecutive kept spokes.
Spoke j is s_j, k is the length of S's leading run s_1..s_k, and inside
one block F - x + y comes earlier exactly when x < y as edge indices. A
pick's cycle is its arc's rim path and the two kept spokes at its ends; a
deleted spoke's cycle runs along the rim from its rim vertex, away from
the pick, to the kept spoke on that side. So x in F is usable in four
cases:
  (a) x is a rim edge of an arc, below that arc's pick;
  (b) x is a rim edge on the far side, from the pick, of a deleted spoke
      s_j (j > k) inside its arc, and x < s_j;
  (c) x is a kept spoke s_j between two arcs, and either j = k + 1 or
      s_j is below one of the two picks;
  (d) x is a kept spoke s_j, and a deleted spoke s_i inside those two
      arcs separates their picks, with i > k and s_j < s_i. With one
      arc (|S| = m - 1) no pick can replace s_{k+1}, the one kept spoke,
      and it is usable exactly when S holds a spoke past k.
A rim edge lies on the cycles of its own arc's pick and deleted spokes
only, so (a) and (b) read one pick. A kept spoke lies on the cycles of
both arcs beside it, so (c) and (d) read two. Hence |U| is a sum: per
arc, the usable rim edges, which its pick decides, and per kept spoke a
0 or 1, which the picks on either side decide, each by a test of its
own (the kept spoke is usable when either side's pick makes it so).
Each arc's picks are tallied once into four polynomials in z, z^|usable
rim edges| per pick, by the two tests its pick passes for the kept
spokes at its ends; a polynomial is one int, each coefficient in a
field of 3m bits, which no count of trees reaches. Since s_{k+1} is
usable whatever the picks, a spoke set's histogram is a transfer along
its arcs from s_{k+1} round to it, two polynomials wide (whether the
next kept spoke is already usable), with no tree listed and no set of
earlier facets. `cm` and `verify` both read the block verdict so.

The search ordering ("search"), for any connected graph, is the
canonical facet order itself: spanning trees sorted as edge tuples, the
lexicographic order of the graphic matroid's bases, which is a shelling
(Bjorner, "The homology and shellability of matroids and geometric
lattices", 1992; Provan-Billera, 1980). There F - x + y comes earlier
exactly when y < x, so x in F is usable when some edge y < x outside F
has x on its fundamental cycle. `search_ordering_histogram` checks that
each tree comes after the one before and counts U per tree from its
root-path masks: the fundamental cycle of y = uv is path[u] ^ path[v].
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .complexes import f_vector_direct, hilbert_series
from .errors import CapacityError, InvalidParameterError
from .graphs import _guard_tree_enumeration
from .records import (
    EdgeSet,
    Graph,
    _normalize,
    build_jahangir,
    rim_indices,
    spoke_index,
)
from .spanning import _generic_trees, _spoke_sets, enumerate_spanning_trees_generic


# ---------------------------------------------------------------------------
# The block ordering for J(2,m)


def prefix_block_ordering(m: int) -> tuple[int, ...]:
    """Permutation of the canonical facet-ideal generators of J(2,m):
    blocks by the length of the leading run of deleted spokes, longest
    first, lexicographic on the deleted edge tuple within a block.

    The generic enumerator lists the trees in canonical order, so a
    tree's position is its rank. For sets of one size the lexicographic
    order of the deleted sets is the reverse of that of the trees, so
    the ordering is the stable sort of the positions by run length,
    reversed. cm prints it as the certificate that the histogram of
    block_ordering_histogram judges; no pass runs over its facets. Past
    the tree guard it is refused, before any tree is listed."""
    g = build_jahangir(m)
    _guard_tree_enumeration(g)
    trees = enumerate_spanning_trees_generic(g)
    spokes = sum(1 << spoke_index(j, m) for j in range(1, m + 1))
    # the leading run ends below the lowest kept spoke, s_(k+1) at bit
    # 3k, the lowest bit of kept & -kept
    runs = [(kept & -kept).bit_length() // 3 for kept in [t & spokes for t in trees]]
    return tuple(reversed(sorted(range(len(runs)), key=runs.__getitem__)))


def _arc_polynomials(m: int, p: int, length: int, width: int) -> tuple[int, int, int, int]:
    """The picks of the arc from kept spoke s_p over `length` base
    cycles, tallied as four polynomials in z, packed `width` bits a
    coefficient: z^|usable rim edges| per pick (cases a and b), indexed
    2*start + end, where start and end say whether the pick makes s_p
    and the arc's end spoke usable (cases c and d)."""
    end = (p + length - 1) % m + 1
    # the arc that wraps past s_m ends at s_(k+1), and holds the run s_1..s_k
    k = max(0, p + length - m - 1)
    cycles = [(p + t - 1) % m + 1 for t in range(length)]
    rim = [i for c in cycles for i in rim_indices(c, m)]  # edge indices, in arc order
    # each deleted spoke inside the arc: its rim vertex's arc position
    # (the number of rim edges before it), its number, and the rim
    # edges below it between it and either end, as position bits
    inner = []
    for j in range(1, length):
        s, v = cycles[j], 2 * j
        below = sum(1 << t for t in range(2 * length) if cycles[t // 2] < s) if s > k else 0
        inner.append((v, s, below & ((1 << v) - 1), below >> v << v))
    polynomials = [0, 0, 0, 0]
    for pick, x in enumerate(rim):
        cycle = cycles[pick // 2]
        usable = sum(1 << t for t, y in enumerate(rim) if y < x)   # (a)
        start, stop = cycle >= p, cycle >= end                     # (c)
        for v, s, near, far in inner:
            if v <= pick:  # the spoke hangs from s_p
                usable |= near                                     # (b)
                start = start or s > p                             # (d)
            else:          # from the end spoke
                usable |= far                                      # (b)
                stop = stop or s > end                             # (d)
        polynomials[2 * start + stop] += 1 << width * usable.bit_count()
    return tuple(polynomials)


def _spoke_set_histograms(m: int):
    """Each spoke set the cutting-down rule may delete, in the order of
    spanning._spoke_sets, with its trees' histogram of usable-element
    counts in the block order, packed 3m bits a count."""
    width = 3 * m
    tallies: dict[tuple[int, int], tuple[int, int, int, int]] = {}

    def tally(p: int, length: int) -> tuple[int, int, int, int]:
        if (p, length) not in tallies:
            tallies[p, length] = _arc_polynomials(m, p, length, width)
        return tallies[p, length]

    for spokes, _, arcs in _spoke_sets(m):
        if len(arcs) == 1:
            p = arcs[0][0]  # the one kept spoke, s_(k+1)
            usable = 1 << width if p < m else 1  # (d), one arc
            histogram = sum(tally(p, m)) * usable
        else:
            # s_(k+1) is usable whatever the picks (c, j = k + 1), so
            # the cycle of arcs opens there. hit and miss tally the
            # picks so far by whether they make the next kept spoke
            # usable already; each arc's picks settle it
            hit, miss = 1, 0
            for p, length in arcs:
                p00, p01, p10, p11 = tally(p, length)
                usable = (hit + miss) << width  # the pick makes s_p usable
                unsure = (hit << width) + miss  # s_p usable if hit
                hit, miss = p01 * unsure + p11 * usable, p00 * unsure + p10 * usable
            histogram = hit + miss
        yield spokes, histogram


def _unpacked(packed: int, width: int) -> tuple[int, ...]:
    """The coefficients of a packed polynomial, up to its degree."""
    field = (1 << width) - 1
    return tuple((packed >> width * i) & field
                 for i in range((packed.bit_length() + width - 1) // width))


def block_ordering_histogram(m: int) -> tuple[int, ...]:
    """histogram[u] counts the facets of J(2,m) with u usable elements
    in the block order, the order of prefix_block_ordering's
    permutation, from the exchange rules (a)-(d) per spoke set: no
    facet is listed; block_ordering_verdict reads it. The cost is O(2^m)
    transfers of O(m) products."""
    build_jahangir(m)  # refuses m < 3
    return _unpacked(sum(h for _, h in _spoke_set_histograms(m)), 3 * m)


# ---------------------------------------------------------------------------
# The search ordering for any connected graph


def search_ordering_histogram(g: Graph, trees: Sequence[EdgeSet]
                              ) -> tuple[int | None, tuple[int, ...] | None]:
    """Both certificate checks of trees, an order of g's spanning trees,
    from one walk: (first_failure, histogram). first_failure is the
    first position after 0 whose tree does not come lexicographically
    after the one before or has no usable element, where the walk stops
    with histogram None; otherwise histogram[k] counts the trees with k
    usable elements, up to the largest k. An order of all of g's trees
    passes only when it is the canonical one."""
    adjacent = [[(w, 1 << y) for w, y in row] for row in g.adjacency()]
    # per edge y = uv, a chord unless in the tree: u, v and the bits of
    # the edges above y
    candidates = [(u, v, -(2 << y)) for y, (u, v) in enumerate(g.edges)]
    start = [0] + [-1] * (g.vertex_count - 1)  # vertex 0 is every tree's root
    counts = [0] * (g.vertex_count + 1)
    prev = 0
    for i, t in enumerate(trees):
        # the lowest edge in one tree only must be in the one before
        low = prev ^ t
        if i and not prev & low & -low:
            return i, None
        # path[w]: the tree's edges from the root to w
        path, reached = start[:], [0]
        for x in reached:
            to_x = path[x]
            for w, bit in adjacent[x]:
                if t & bit and path[w] < 0:
                    path[w] = to_x | bit
                    reached.append(w)
        # a tree edge y is its own cycle, which holds no edge above y
        usable = 0
        for u, v, above in candidates:
            usable |= (path[u] ^ path[v]) & above
        k = usable.bit_count()
        if i and not k:
            return i, None
        counts[k] += 1
        prev = t
    while counts and not counts[-1]:
        counts.pop()
    return None, tuple(counts)


# ---------------------------------------------------------------------------
# Verdict


class CMVerdict(NamedTuple):
    """Cohen-Macaulay verdict for a spanning complex. The certificate is
    the block ordering of J(2,m) or, with ordering_source "search", the
    canonical facet order. cohen_macaulay is None when the canonical
    order failed search_ordering_histogram's checks, which the matroid
    theorem rules out; it is False only when the block ordering's
    histogram fails the quotient test."""

    cohen_macaulay: bool | None
    certificate: tuple[int, ...] | None
    ordering_source: str | None        # "block" or "search"
    shelling_agrees: bool | None


def block_ordering_verdict(m: int, tree_counts: Iterable[int],
                           h_vector: tuple[int, ...] | None) -> tuple[bool, bool | None]:
    """(quotients, shelling) of the block ordering on J(2,m), from its
    histogram: quasi-linear quotients when only the first facet has no
    usable element and the histogram counts every tree, as each of
    tree_counts gives it; then a shelling exactly when the histogram is
    h_vector. shelling is None when either is missing."""
    histogram = block_ordering_histogram(m)
    quotients = histogram[0] == 1 and set(tree_counts) == {sum(histogram)}
    return quotients, (histogram == h_vector if quotients and h_vector else None)


def cohen_macaulay_verdict(g: Graph, ordering: str,
                           f_vector: tuple[int, ...] | None = None) -> CMVerdict:
    """Certify the Cohen-Macaulayness of g's spanning complex by an
    ordering of its facets with quasi-linear quotients, checked, never
    assumed: the block ordering of J(2,m) ("block") by
    block_ordering_verdict, or the canonical facet order ("search") by
    search_ordering_histogram, one walk over the listed trees.
    shelling_agrees compares the histogram with the Hilbert numerator of
    f_vector, which the forest sweep computes unless the caller has it;
    a refused sweep leaves it None. g passes the tree guard first."""
    if ordering not in ("block", "search"):
        raise InvalidParameterError(f"unknown ordering strategy {ordering!r}")
    _guard_tree_enumeration(g)
    if ordering == "block":
        # the block ordering permutes the facets of J(2,m) in its
        # canonical edge order, so g must list exactly those edges
        m = (g.vertex_count - 1) // 2
        if (g.vertex_count < 7 or g.vertex_count % 2 == 0
                or [_normalize(*e) for e in g.edges]
                != [_normalize(*e) for e in build_jahangir(m).edges]):
            raise InvalidParameterError(
                "block ordering is only defined for J(2,m) in its canonical edge order")
    try:
        h_vector = hilbert_series(f_vector or f_vector_direct(g)).numerator
    except CapacityError:  # no h-vector to compare with
        h_vector = None
    if ordering == "block":
        # the histogram must count the facets the certificate permutes
        certificate = prefix_block_ordering(m)
        quotients, shelling = block_ordering_verdict(m, (len(certificate),), h_vector)
        return CMVerdict(quotients, certificate if quotients else None, "block", shelling)
    # the enumerator's memoized list, read in place
    failure, histogram = search_ordering_histogram(g, _generic_trees(g))
    if failure is not None:  # ruled out by the matroid theorem
        return CMVerdict(None, None, "search", None)
    return CMVerdict(True, tuple(range(sum(histogram))), "search",
                     None if h_vector is None else histogram == h_vector)


def _cm_payload(g: Graph, ordering: str, meta: dict) -> dict:
    """The CLI's cm answer."""
    verdict = cohen_macaulay_verdict(g, ordering=ordering)
    return {**meta,
            "cohen_macaulay": verdict.cohen_macaulay,
            "ordering_source": verdict.ordering_source,
            "certificate": verdict.certificate,  # the writer takes tuples
            "block_first_failure": None,  # the histogram locates no failure
            "shelling_agrees": verdict.shelling_agrees}
