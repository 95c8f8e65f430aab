import functools
import itertools
import math
import random
import time
import tracemalloc

import pytest

from jahangir_ssc import (
    CapacityError,
    Graph,
    InvalidParameterError,
    build_jahangir,
    cohen_macaulay_verdict,
    enumerate_spanning_trees_generic,
    block_ordering_histogram,
    f_vector_direct,
    hilbert_series,
    prefix_block_ordering,
    search_ordering_histogram,
)

from oracles import (
    PurityError,
    as_mask,
    as_set,
    block_order_histograms,
    brute_face_counts,
    brute_spanning_trees,
    certify,
    leading_spoke_run,
    naive_colon_mindeg,
    naive_is_shelling,
    random_connected_graph,
    reisner_cohen_macaulay,
    termwise_hilbert_numerator,
)

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4, K5 = (Graph(n, tuple(itertools.combinations(range(n), 2))) for n in (4, 5))
PETERSEN = Graph(10, tuple(edge for i in range(5) for edge in
                           ((i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5))))


def mono(*vars_):
    """The squarefree monomial with these variables, as its support mask."""
    return as_mask(vars_)


def naive_shelling(facets):
    return naive_is_shelling([as_set(f) for f in facets])


@functools.cache
def _h_vector_of(facets: frozenset) -> tuple[int, ...]:
    return termwise_hilbert_numerator(brute_face_counts([as_set(f) for f in facets]))


def h_vector(facets):
    """The h-vector of the complex the facets generate, from its
    brute-force face count; the same for every order of the facets."""
    return _h_vector_of(frozenset(facets))


def checks(facets):
    """certify's two checks: the quotient test's first failure, and
    whether the order is a shelling, read as whether the pass's
    histogram is the h-vector."""
    failure, histogram = certify(facets)
    return failure, histogram == h_vector(facets)


def _naive_first_failure(facets):
    sets = [as_set(f) for f in facets]
    for i in range(1, len(sets)):
        if naive_colon_mindeg(sets[:i], sets[i]) != 1:
            return i
    return None


# ---------------------------------------------------------------------------
# facets as the facet-ideal generators


def test_facet_ideal_triangle():
    facets = enumerate_spanning_trees_generic(TRIANGLE)
    assert len(facets) == 3
    assert all(f.bit_count() == 2 for f in facets)
    assert certify(facets) == (None, (1, 1, 1))


@pytest.mark.parametrize("m, count", [(3, 50), (4, 192)])
def test_facet_ideal_family(m, count):
    facets = enumerate_spanning_trees_generic(build_jahangir(m))
    assert len(facets) == count
    assert all(f.bit_count() == 2 * m for f in facets)
    assert certify(facets) == (None, h_vector(facets))


def test_facet_ideal_generators_track_facets(j3):
    # a generator is its facet's mask: the pass over the facets answers
    # the colon degrees and the shelling of the facet sets themselves
    facets = enumerate_spanning_trees_generic(j3)
    assert checks(facets) == (_naive_first_failure(facets), naive_shelling(facets))


def test_facet_ideal_rejects_non_pure():
    with pytest.raises(PurityError):
        certify((mono(0, 1), mono(2)))


def test_monomial_ideal_minimality():
    # distinct generators of one degree never divide each other; a
    # generator dividing another has a smaller degree, which the
    # quotient theory refuses as impure
    with pytest.raises(PurityError):
        certify((mono(0), mono(0, 1)))  # one divides the other
    assert certify((mono(0, 1), mono(1, 2))) == (None, (1, 1))  # incomparable is fine


# ---------------------------------------------------------------------------
# quasi-linear quotients


@pytest.mark.parametrize("m", [3, 4, 5])
def test_block_ordering_gives_quasi_linear_quotients(m):
    facets = enumerate_spanning_trees_generic(build_jahangir(m))
    ordering = prefix_block_ordering(m)
    assert sorted(ordering) == list(range(len(facets)))
    first_failure, _ = certify([facets[i] for i in ordering])
    assert first_failure is None


def test_qlq_failure_reports_position():
    assert certify((mono(0, 1), mono(2, 3))) == (1, None)


def test_qlq_single_generator_is_vacuous():
    assert certify((mono(0, 1),)) == (None, (1,))


def test_qlq_triangle_every_ordering():
    facets = enumerate_spanning_trees_generic(TRIANGLE)
    for perm in itertools.permutations(range(3)):
        assert certify([facets[i] for i in perm])[0] is None


def test_qlq_rejects_mixed_degrees():
    # the swap pass needs generators of one degree, as the shelling test
    # needs facets of one size: mixed degrees are refused at once
    with pytest.raises(PurityError):
        certify((mono(0, 1), mono(2), mono(1, 3)))


def test_certificate_checks_reject_negative_masks():
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        certify((mono(0, 1), -3))
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        certify([-3, mono(0, 1)])


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_block_ordering_structure(m):
    # generators are grouped by the length of the leading run of
    # deleted spokes, longest run first, lex on the deletions within;
    # with the permutation check that fixes the ordering uniquely
    g = build_jahangir(m)
    facets = enumerate_spanning_trees_generic(g)
    every_edge = (1 << g.edge_count) - 1
    ordering = prefix_block_ordering(m)
    assert sorted(ordering) == list(range(len(facets)))
    runs = [leading_spoke_run(as_set(every_edge ^ facets[i]), m) for i in ordering]
    assert runs == sorted(runs, reverse=True)
    assert runs[0] == m - 1 and runs[-1] == 0
    for k in range(m):
        block = [sorted(as_set(every_edge ^ facets[i]))
                 for i, run in zip(ordering, runs) if run == k]
        assert block == sorted(block)


def test_block_ordering_builds_no_table_of_facets():
    # one stable sort of the canonical positions by run length peaks at
    # about 9.2 MB at m = 9 with the trees listed; a mask -> position
    # dict of every facet and per-run buckets would need about 21 MB
    enumerate_spanning_trees_generic(build_jahangir(9))
    tracemalloc.start()
    try:
        prefix_block_ordering(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000, f"tracemalloc peak {peak} bytes"


# ---------------------------------------------------------------------------
# shellings


def test_is_shelling_small():
    assert certify([]) == (None, ())
    assert checks([mono(0, 1)]) == (None, True)
    facets = enumerate_spanning_trees_generic(TRIANGLE)
    for perm in itertools.permutations(facets):
        assert checks(list(perm))[1] == naive_shelling(perm)
        assert checks(list(perm))[1]


def test_is_shelling_rejects_non_pure():
    with pytest.raises(PurityError):
        certify([mono(0, 1), mono(2)])


def test_is_shelling_block_order(j3):
    canonical = enumerate_spanning_trees_generic(j3)
    ordering = prefix_block_ordering(3)
    facets = [canonical[i] for i in ordering]
    assert checks(facets)[1]
    assert naive_shelling(facets)


def _random_families() -> list[list[int]]:
    """Random equal-size families, then random and one-swap orders of
    the J(2,3) and J(2,4) facets, whose canonical order passes both
    checks."""
    rng = random.Random(41)
    families = []
    for _ in range(60):
        n, k = 6, rng.randint(2, 4)
        count = rng.randint(2, 7)
        pool = list(itertools.combinations(range(n), k))
        rng.shuffle(pool)
        families.append([as_mask(c) for c in pool[:count]])
    for m, orders in ((3, 12), (4, 4)):
        facets = enumerate_spanning_trees_generic(build_jahangir(m))
        families.append(facets)
        for _ in range(orders):
            families.append(rng.sample(facets, len(facets)))
            swapped = facets[:]
            a, b = rng.randrange(len(facets)), rng.randrange(len(facets))
            swapped[a], swapped[b] = swapped[b], swapped[a]
            families.append(swapped)
    return families


def test_is_shelling_matches_naive_on_random_families():
    # both checks against the literal definitions
    for facets in _random_families():
        failure, shelling = checks(facets)
        assert failure == _naive_first_failure(facets)
        assert shelling == naive_shelling(facets)


def test_histogram_is_the_h_vector_exactly_for_shellings():
    # Bjorner's identity h_k = #{i : |R(F_i)| = k} holds for a shelling,
    # and for no other order: the histogram against the h-vector of a
    # brute-force face count, the order against the literal definition
    outcomes = set()
    for facets in _random_families() + [COUNTEREXAMPLE]:
        failure, histogram = certify(facets)
        identity = histogram == h_vector(facets)
        assert identity == naive_shelling(facets)
        outcomes.add((failure is None, identity))
    # shellings, orders with quasi-linear quotients that are none, and
    # quotient failures all occur
    assert outcomes == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, None], ids=[*map(str, range(3, 8)), "petersen"])
def test_histogram_is_the_sweeps_hilbert_numerator(m):
    # the canonical order and, on J(2,m), the block ordering are
    # shellings: each one's histogram is the Hilbert numerator of the sweep
    g = PETERSEN if m is None else build_jahangir(m)
    numerator = hilbert_series(f_vector_direct(g)).numerator
    canonical = enumerate_spanning_trees_generic(g)
    assert certify(canonical) == (None, numerator)
    if m is not None:
        assert certify([canonical[i] for i in prefix_block_ordering(m)]) == (None, numerator)


# ---------------------------------------------------------------------------
# the block ordering's histogram by the exchange rules


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_block_ordering_histogram_is_the_certificate_pass(m):
    # the exchange rules count, per facet, the usable elements that the
    # certificate pass finds on the printed permutation
    canonical = enumerate_spanning_trees_generic(build_jahangir(m))
    assert certify([canonical[i] for i in prefix_block_ordering(m)]) == (
        None, block_ordering_histogram(m))


@pytest.mark.parametrize("m", range(3, 11))
def test_block_ordering_histogram_is_the_h_vector(m):
    # at m = 9 and 10 no certificate pass runs: 140,450 and 524,172 facets
    histogram = block_ordering_histogram(m)
    assert histogram == hilbert_series(f_vector_direct(build_jahangir(m))).numerator
    assert histogram[0] == 1


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_block_ordering_histogram_per_spoke_set(m):
    # each spoke set's transfer against the facets that delete it, each
    # facet's usable elements found by block position from the definition
    from jahangir_ssc.algebra import _spoke_set_histograms, _unpacked

    g = build_jahangir(m)
    expected = block_order_histograms(brute_spanning_trees(g.vertex_count, list(g.edges)), m)
    got = {spokes: _unpacked(packed, 3 * m) for spokes, packed in _spoke_set_histograms(m)}
    assert got == expected
    assert len(got) == 2 ** m - 1


@pytest.mark.parametrize("m", range(3, 10))
def test_block_ordering_histograms_walk_the_enumerators_arcs(m):
    # the histograms and the structured enumerator read one list of
    # spoke sets and arcs: the same sets in the same order, and each
    # histogram counts the set's prod(2 * length) trees
    from jahangir_ssc.algebra import _spoke_set_histograms, _unpacked
    from jahangir_ssc.spanning import _spoke_sets

    histograms = list(_spoke_set_histograms(m))
    sets = list(_spoke_sets(m))
    assert [spokes for spokes, _ in histograms] == [spokes for spokes, _, _ in sets]
    for (_, packed), (_, _, arcs) in zip(histograms, sets):
        assert sum(_unpacked(packed, 3 * m)) == math.prod(2 * length for _, length in arcs)


def test_block_ordering_histogram_refuses_small_m():
    for m in (-1, 0, 2):
        with pytest.raises(InvalidParameterError, match=f"m must be >= 3, got {m}"):
            block_ordering_histogram(m)
    with pytest.raises(InvalidParameterError, match="m must be >= 3, got 2"):
        prefix_block_ordering(2)


# The quotient test and the shelling test are NOT equal ordering by
# ordering: a shelling always yields quasi-linear quotients, but the
# converse fails, and the family below is a minimal witness. Position 3
# has the codimension-1 neighbor {0,1,2} (so the colon test passes) yet
# the intersection {4} with {2,3,4} sits in no codimension-1 face of
# the intersection subcomplex (so the shelling test fails). The two
# notions do coincide on every certificate this package emits, which
# the verdict records as shelling_agrees.
COUNTEREXAMPLE = [mono(0, 1, 2), mono(1, 2, 3), mono(2, 3, 4), mono(0, 1, 4)]


def test_quotients_do_not_imply_shelling():
    assert checks(COUNTEREXAMPLE) == (None, False)
    assert _naive_first_failure(COUNTEREXAMPLE) is None
    assert not naive_shelling(COUNTEREXAMPLE)


def test_shelling_implies_quasi_linear_quotients(j3):
    # the sound direction, plus agreement of both on the block ordering;
    # sampled orderings also measure how often the gap actually opens
    rng = random.Random(53)
    canonical = enumerate_spanning_trees_generic(j3)
    r = len(canonical)
    orderings = [tuple(prefix_block_ordering(3))]
    for _ in range(25):
        perm = list(range(r))
        rng.shuffle(perm)
        orderings.append(tuple(perm))
    # nearly-good orderings: block order with one random swap
    for _ in range(10):
        perm = list(prefix_block_ordering(3))
        a, b = rng.randrange(r), rng.randrange(r)
        perm[a], perm[b] = perm[b], perm[a]
        orderings.append(tuple(perm))
    gaps = 0
    for ordering in orderings:
        facets = [canonical[i] for i in ordering]
        failure, shelling = checks(facets)
        qlq = failure is None
        if shelling:
            assert qlq, f"shelling without quotients at {ordering}"
            assert _naive_first_failure(facets) is None
        gaps += int(qlq and not shelling)
    block_facets = [canonical[i] for i in prefix_block_ordering(3)]
    assert checks(block_facets)[1]
    assert gaps == 5  # the one-way gap is real on this complex too


def test_shelling_implies_quotients_on_random_graphs():
    rng = random.Random(59)
    for _ in range(8):
        n, edges = random_connected_graph(rng, max_vertices=6, max_extra=3,
                                          max_edges=9)
        g = Graph(n, tuple(edges))
        canonical = enumerate_spanning_trees_generic(g)
        r = len(canonical)
        for _ in range(6):
            perm = list(range(r))
            rng.shuffle(perm)
            facets = [canonical[i] for i in perm]
            failure, shelling = checks(facets)
            if shelling:
                assert failure is None
                assert _naive_first_failure(facets) is None


# ---------------------------------------------------------------------------
# the verdict


@pytest.mark.parametrize("m", [3, 4, 5])
def test_verdict_family(m):
    verdict = cohen_macaulay_verdict(build_jahangir(m), "block")
    assert verdict.cohen_macaulay is True
    assert verdict.ordering_source == "block"
    assert verdict.certificate is not None
    assert verdict.shelling_agrees is True


def test_verdict_triangle():
    verdict = cohen_macaulay_verdict(TRIANGLE, "search")
    assert verdict.cohen_macaulay is True
    assert verdict.ordering_source == "search"
    assert verdict.shelling_agrees is True


def test_verdict_search_mode(j3):
    verdict = cohen_macaulay_verdict(j3, ordering="search")
    assert verdict.cohen_macaulay is True
    assert verdict.ordering_source == "search"


def test_verdict_search_reports_shelling_honestly(j4):
    # the canonical certificate is a shelling by theorem; the verdict
    # still checks both properties and reports them, never assumes them
    canonical = enumerate_spanning_trees_generic(j4)
    verdict = cohen_macaulay_verdict(j4, ordering="search")
    assert verdict.cohen_macaulay is True
    assert verdict.certificate == tuple(range(len(canonical)))
    facets = [canonical[i] for i in verdict.certificate]
    failure, shelling = checks(facets)
    assert failure is None
    assert verdict.shelling_agrees is True
    assert verdict.shelling_agrees == shelling


def test_verdict_search_certificate_is_lexicographic_shelling():
    # the lexicographic order of a graphic matroid's bases is a shelling,
    # so the generic certificate is the identity on every connected graph
    rng = random.Random(61)
    for _ in range(40):
        n, edges = random_connected_graph(rng, max_vertices=7, max_extra=4,
                                          max_edges=10)
        g = Graph(n, tuple(edges))
        canonical = enumerate_spanning_trees_generic(g)
        verdict = cohen_macaulay_verdict(g, ordering="search")
        assert verdict.cohen_macaulay is True
        assert verdict.ordering_source == "search"
        assert verdict.certificate == tuple(range(len(canonical)))
        assert verdict.shelling_agrees is True
        if len(canonical) <= 40:
            assert naive_shelling(canonical)


def test_verdict_search_answers_large_ideals():
    # the search verdict has no cap of its own: J(2,7)'s 10,082 facets
    # are judged like J(2,6)'s 2700, by one walk over the canonical list
    verdict = cohen_macaulay_verdict(build_jahangir(7), ordering="search")
    assert verdict == (True, tuple(range(10082)), "search", True)


def tampered_block_histograms(m):
    """J(2,m)'s block histogram with one count moved, and whether it
    still passes the quotient test: a count shifted by one element, a
    second facet with no usable element, and one tree too many."""
    h = block_ordering_histogram(m)
    return (((1, h[1] - 1, h[2] + 1, *h[3:]), True),
            ((2, h[1] - 1, *h[2:]), False),
            ((1, h[1] + 1, *h[2:]), False))


def test_verdict_reads_the_block_histogram(monkeypatch, j4):
    # the block verdict is its histogram's, with no fallback to the
    # canonical order: a quotient failure is False with no certificate,
    # and a shifted count passes the quotient test but is no shelling
    from jahangir_ssc import algebra

    for histogram, quotients in tampered_block_histograms(4):
        monkeypatch.setattr(algebra, "block_ordering_histogram", lambda m: histogram)
        verdict = cohen_macaulay_verdict(j4, ordering="block")
        assert verdict.cohen_macaulay is quotients
        assert verdict.ordering_source == "block"
        assert (verdict.certificate is None) is not quotients
        assert verdict.shelling_agrees is (False if quotients else None)


def test_block_verdict_reads_the_canonical_trees_only(monkeypatch):
    # the block ordering ranks the generic enumerator's list, the one
    # the verdict certifies: the structured enumerator never runs
    from jahangir_ssc import spanning

    expected = cohen_macaulay_verdict(build_jahangir(4), ordering="block")

    def refuse(m):
        raise AssertionError("the structured enumerator ran")

    monkeypatch.setattr(spanning, "_structured_trees", refuse)
    assert cohen_macaulay_verdict(build_jahangir(4), ordering="block") == expected


def _non_canonical_graphs():
    j3 = build_jahangir(3)
    yield TRIANGLE
    yield Graph(1, ())
    # five vertices would be J(2,2), which build_jahangir refuses itself
    yield Graph(5, tuple((i, (i + 1) % 5) for i in range(5)))
    yield Graph(8, j3.edges + ((0, 7),))
    yield Graph(7, j3.edges + ((2, 4),))
    yield Graph(7, j3.edges[:-1])
    for m in (4, 5):
        edges = list(build_jahangir(m).edges)
        random.Random(m).shuffle(edges)
        yield Graph(2 * m + 1, tuple(edges))


def test_verdict_block_requires_the_family():
    # the triangle, too few or an even count of vertices, J(2,3) with an
    # edge more or less, shuffled J(2,4) and J(2,5): one message for
    # every refusal, never build_jahangir's own
    for g in _non_canonical_graphs():
        with pytest.raises(InvalidParameterError) as info:
            cohen_macaulay_verdict(g, ordering="block")
        assert str(info.value) == (
            "block ordering is only defined for J(2,m) in its canonical edge order")


def test_verdict_takes_exactly_two_orderings(j3):
    # "block" or "search", with no default
    for ordering in ("auto", None, "paper"):
        with pytest.raises(InvalidParameterError, match="unknown ordering strategy"):
            cohen_macaulay_verdict(j3, ordering)
    with pytest.raises(TypeError):
        cohen_macaulay_verdict(j3)


@pytest.mark.parametrize("m", [4, 5])
def test_verdict_on_a_reordered_family(m):
    # the block ordering indexes the facets of J(2,m) in its canonical
    # edge order; a shuffled edge list is certified by the canonical
    # facet order instead, and an explicit block request is refused
    g = build_jahangir(m)
    edges = list(g.edges)
    random.Random(m).shuffle(edges)
    shuffled = Graph(g.vertex_count, tuple(edges))
    verdict = cohen_macaulay_verdict(shuffled, ordering="search")
    assert verdict.cohen_macaulay is True and verdict.shelling_agrees is True
    assert verdict.ordering_source == "search"
    with pytest.raises(InvalidParameterError, match="canonical edge order"):
        cohen_macaulay_verdict(shuffled, ordering="block")
    # either orientation of each edge keeps the canonical order
    flipped = Graph(g.vertex_count, tuple((v, u) for u, v in g.edges))
    verdict = cohen_macaulay_verdict(flipped, ordering="block")
    assert verdict.ordering_source == "block" and verdict.cohen_macaulay is True


def test_verdict_compares_the_histogram_with_the_sweep(monkeypatch, j3):
    # shelling_agrees is the pass's histogram against the Hilbert
    # numerator of the f-vector the caller passes or the sweep computes;
    # a refused sweep leaves it None, and the certificate stands
    from jahangir_ssc import algebra

    f = f_vector_direct(j3)
    assert cohen_macaulay_verdict(j3, "block", f_vector=f).shelling_agrees is True
    tampered = cohen_macaulay_verdict(j3, "block", f_vector=f[:-1] + (f[-1] + 1,))
    assert tampered.cohen_macaulay is True and tampered.shelling_agrees is False

    def refused(g):
        raise CapacityError("x")

    monkeypatch.setattr(algebra, "f_vector_direct", refused)
    for ordering in ("block", "search"):
        verdict = cohen_macaulay_verdict(j3, ordering)
        assert verdict.cohen_macaulay is True and verdict.shelling_agrees is None
        assert sorted(verdict.certificate) == list(range(50))


def test_reisner_criterion_agrees_with_the_verdict():
    # an independent judge of "Cohen-Macaulay": Reisner's criterion over
    # GF(2), from the homology of every face's link, accepts the spanning
    # complexes of K4, K5, J(2,3) and small random graphs, as cm does
    start = time.perf_counter()
    graphs = [(K4, "search"), (K5, "search")]
    graphs += [(build_jahangir(3), "block"), (build_jahangir(3), "search")]
    rng = random.Random(71)
    for _ in range(12):
        n, edges = random_connected_graph(rng, max_vertices=6, max_extra=3, max_edges=8)
        graphs.append((Graph(n, tuple(edges)), "search"))
    for g, ordering in graphs:
        facets = [as_set(f) for f in enumerate_spanning_trees_generic(g)]
        assert reisner_cohen_macaulay(facets) is True
        assert cohen_macaulay_verdict(g, ordering).cohen_macaulay is True
    assert time.perf_counter() - start < 2.0


def test_reisner_criterion_rejects_complexes_that_are_not_cohen_macaulay():
    # two triangles sharing a vertex: that vertex's link is two disjoint
    # edges. Two disjoint edges: every nonempty face's link passes, and
    # only the empty face's, the whole disconnected complex, fails
    assert reisner_cohen_macaulay([{0, 1, 2}, {2, 3, 4}]) is False
    assert reisner_cohen_macaulay([{0, 1}, {2, 3}]) is False
    assert reisner_cohen_macaulay([{0, 1}, {1, 2}, {0, 2}]) is True  # a circle


def test_verdict_certificate_is_checkable(j4):
    verdict = cohen_macaulay_verdict(j4, "block")
    facets = enumerate_spanning_trees_generic(j4)
    assert sorted(verdict.certificate) == list(range(len(facets)))
    assert certify([facets[i] for i in verdict.certificate])[0] is None


# ---------------------------------------------------------------------------
# the one certificate pass


def test_each_verdict_makes_one_certificate_pass(monkeypatch, j4):
    # the search ordering's quotient test and shelling cross-check come
    # from one walk over the canonical list, never two; the block
    # ordering's come from its histogram, with no walk at all
    from jahangir_ssc import algebra

    walks = []
    walk = algebra.search_ordering_histogram

    def counted(g, trees):
        walks.append(g)
        return walk(g, trees)

    monkeypatch.setattr(algebra, "search_ordering_histogram", counted)
    for g, ordering, graphs in ((j4, "block", []), (PETERSEN, "search", [PETERSEN])):
        walks.clear()
        verdict = cohen_macaulay_verdict(g, ordering=ordering)
        assert verdict.cohen_macaulay is True and verdict.shelling_agrees is True
        assert walks == graphs


def test_certificate_pass_matches_both_checks_and_the_definitions():
    # canonical and shuffled facet orders of random connected graphs: the
    # pass gives the quotient test's first failure and the shelling test's
    # answer, and both follow the literal definitions
    rng = random.Random(67)
    for _ in range(40):
        n, edges = random_connected_graph(rng, max_vertices=7, max_extra=4,
                                          max_edges=10)
        canonical = enumerate_spanning_trees_generic(Graph(n, tuple(edges)))
        shuffled = list(range(len(canonical)))
        rng.shuffle(shuffled)
        for ordering in (range(len(canonical)), shuffled):
            facets = [canonical[i] for i in ordering]
            failure, shelling = checks(facets)
            assert failure == _naive_first_failure(facets)
            if len(facets) <= 40:
                assert shelling == naive_shelling(facets)


# ---------------------------------------------------------------------------
# the search ordering's exchange rule


def _search_rule_graphs():
    yield from (build_jahangir(m) for m in range(3, 7))
    yield from (PETERSEN, K4, K5)
    rng = random.Random(73)
    for _ in range(40):
        n, edges = random_connected_graph(rng, max_vertices=7, max_extra=4, max_edges=10)
        yield Graph(n, tuple(edges))


def test_search_ordering_histogram_is_the_certificate_pass():
    # the lexicographic exchange rule counts, per tree, the usable
    # elements that the set-of-earlier-facets pass finds on the list
    for g in _search_rule_graphs():
        canonical = enumerate_spanning_trees_generic(g)
        assert search_ordering_histogram(g, canonical) == certify(canonical)


def test_search_ordering_histogram_stops_at_the_first_inversion():
    # a list out of lexicographic order fails where it first goes back:
    # the reversed list at position 1, a swapped adjacent pair at the
    # later of its two positions
    for g in (build_jahangir(3), PETERSEN, K5):
        canonical = enumerate_spanning_trees_generic(g)
        assert search_ordering_histogram(g, canonical[::-1]) == (1, None)
        for i in (1, len(canonical) // 2, len(canonical) - 1):
            swapped = canonical[:]
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            assert search_ordering_histogram(g, swapped) == (i, None)


def test_search_ordering_histogram_of_one_vertex():
    # one tree, the empty edge set, with no usable element
    assert search_ordering_histogram(Graph(1, ()), [0]) == (None, (1,))


def test_the_rule_judges_the_canonical_order_alone(j3):
    # a shuffle of J(2,3)'s canonical list is no shelling, though the
    # complex is Cohen-Macaulay by Reisner's criterion; the reversed list
    # is one, the lexicographic order of the reversed edge labels, and
    # the rule still rejects it: it judges the canonical order only
    canonical = enumerate_spanning_trees_generic(j3)
    h = hilbert_series(f_vector_direct(j3)).numerator
    shuffled = random.Random(79).sample(canonical, len(canonical))
    assert certify(shuffled) == (1, None)  # no quotient at position 1
    assert reisner_cohen_macaulay([as_set(f) for f in shuffled]) is True
    assert certify(canonical[::-1]) == (None, h)
    assert search_ordering_histogram(j3, canonical[::-1]) == (1, None)
    assert search_ordering_histogram(j3, canonical) == (None, h)
