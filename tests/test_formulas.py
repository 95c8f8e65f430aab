import itertools
import math
import random
import time

import pytest

from jahangir_ssc import (
    CapacityError,
    Graph,
    HilbertSeries,
    InvalidParameterError,
    build_jahangir,
    enumerate_simple_cycles,
    f_vector_direct,
    f_vector_exact_ie,
    f_vector_formula,
    hilbert_function,
    hilbert_series,
    word_cycle_catalog,
    word_edge_set,
    word_of,
)
from jahangir_ssc import formulas
from jahangir_ssc.formulas import f_vector_divergence

from oracles import (
    as_set,
    binomial,
    brute_simple_cycles,
    cycle_subset_f_vector,
    listed_closed_form,
    random_connected_graph,
    termwise_hilbert_numerator,
)

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))

J3_F = (9, 36, 84, 123, 111, 50)
J3_HILBERT_NUM = (1, 3, 6, 10, 12, 12, 6)

# a tree's complex is a simplex: every edge subset is a face
PATH_800 = Graph(800, tuple((i, i + 1) for i in range(799)))


# ---------------------------------------------------------------------------
# closed-form engine


def test_formula_j3_values():
    assert f_vector_formula(3).values == (9, 36, 84, 123, 111, 51)


def test_formula_matches_direct_except_last(j3):
    formula = f_vector_formula(3).values
    direct = f_vector_direct(j3)
    assert len(formula) == len(direct)
    mismatches = [i for i, (a, b) in enumerate(zip(formula, direct)) if a != b]
    assert mismatches == [5]
    assert formula[5] == 51 and direct[5] == 50
    assert f_vector_divergence(formula, direct) == [
        {"index": 5, "closed_form": "51", "direct": "50"}]
    # a length difference is one more entry, after the differing indices
    assert f_vector_divergence(formula, direct[:5]) == [
        {"index": "length", "closed_form": "6", "direct": "5"}]


def _contribution(term, m, i):
    """What one audit row adds to f_i: sign * multiplicity * C(3m - U, i+1 - U)."""
    u = term.union_estimate
    return term.sign * term.multiplicity * binomial(3 * m - u, i + 1 - u)


def test_formula_audit_reproduces_the_values():
    # the recorded rows plus the unrestricted count must rebuild every
    # entry exactly; nothing hidden, nothing double-counted
    for m in (3, 4, 5, 9, 30):
        ff = f_vector_formula(m)
        for i, value in enumerate(ff.values):
            total = binomial(3 * m, i + 1)
            total += sum(_contribution(t, m, i) for t in ff.terms)
            assert total == value


def test_formula_audit_terms_recompute_from_catalog():
    # hand recomputation of the audit trail, m=3: singles knock out
    # binomial(9 - beta, i+1 - beta) apiece; the 7-edge words and every
    # pair (unions of 7 edges or more) reach no index
    ff = f_vector_formula(3)
    betas = [e.beta for e in word_cycle_catalog(3).entries]
    assert sorted(betas) == [4, 4, 4, 6, 6, 6, 7, 7, 7]
    assert ff.terms == ((-1, 4, 3), (-1, 6, 3))
    # i = 0: no term reaches down that far
    assert ff.values[0] == binomial(9, 1) == 9
    assert all(_contribution(t, 3, 0) == 0 for t in ff.terms)
    # i = 3: the three 4-cycles contribute -1 each
    assert [_contribution(t, 3, 3) for t in ff.terms] == [-3, 0]
    assert ff.values[3] == binomial(9, 4) - 3 == 123


def test_formula_pair_estimates_recompute():
    # the pair rows count the listed pairs of distinct words by
    # beta_a + beta_b minus their edge-set intersection
    for m in (4, 5, 8):
        entries = word_cycle_catalog(m).entries
        unions = [a.beta + b.beta - (a.edges & b.edges).bit_count()
                  for a, b in itertools.combinations(entries, 2)]
        pairs = [t for t in f_vector_formula(m).terms if t.sign == 1]
        assert pairs == [(1, u, unions.count(u)) for u in sorted(set(unions)) if u <= 2 * m]
        assert sum(t.multiplicity for t in pairs) < math.comb(m * m, 2)


@pytest.mark.parametrize("m", range(3, 21))
def test_formula_equals_the_listed_pairs(m):
    values, rows = listed_closed_form(word_cycle_catalog(m).entries)
    ff = f_vector_formula(m)
    assert ff.values == values
    assert [tuple(t) for t in ff.terms] == rows


def test_overlap_rule_is_the_edge_set_intersection():
    # |a & b| of the word of length k1 from cycle 1 and the word of
    # length k2 d cycles on: twice the shared rim arc plus the shared
    # end spokes, at every length pair and offset
    for m in range(3, 16):
        words = formulas._representatives(m)
        for a in words:
            for b in words:
                edges_a = word_edge_set(word_of(1, a.length, m), m)
                for d in range(m):
                    edges_b = word_edge_set(word_of(1 + d, b.length, m), m)
                    overlap = (2 * formulas._arc_overlap(a.length, b.length, d, m)
                               + formulas._shared_ends(a, b, m).get(d, 0))
                    assert overlap == (edges_a & edges_b).bit_count()


def _formula_error(m: int) -> list[int]:
    """D_i(m): the closed form's f_i minus the sweep's, for each i."""
    formula = f_vector_formula(m).values
    direct = f_vector_direct(build_jahangir(m))
    assert len(formula) == len(direct) == 2 * m
    return [a - b for a, b in zip(formula, direct)]


@pytest.mark.parametrize("m", [*range(4, 61), 207])
def test_formula_first_departs_by_the_thetas(m):
    # Two adjacent base cycles make a 7-edge theta graph holding three
    # cycles (both base cycles and their length-2 word). Every pair's
    # union is the theta's 7 edges, so the pair truncation drops only
    # the triple term -1 at 7 edges, i = 6, once per theta: m of them.
    # Past it the error is a polynomial in m wherever the rim's extra 1
    # at i = 2m - 1 does not fall on the index
    error = _formula_error(m)
    assert error[:6] == [0] * 6
    assert error[6] == m
    if m >= 5:
        assert error[7] == 3 * m * m - 7 * m
        assert 2 * error[8] == 9 * m ** 3 - 45 * m * m + 60 * m


def test_formula_error_gains_one_at_the_top_index():
    # at i = 2m - 1 the rim's cycle adds 1 to the polynomial: D_5 = 0 + 1
    # at m = 3 (f_5 = 51 against 50) and D_7 = (3m^2 - 7m) + 1 = 21 at m = 4
    assert _formula_error(3) == [0, 0, 0, 0, 0, 1]
    assert _formula_error(4)[7] == 3 * 4 * 4 - 7 * 4 + 1 == 21


def test_formula_rejects_m_below_3():
    with pytest.raises(InvalidParameterError):
        f_vector_formula(2)


# ---------------------------------------------------------------------------
# inclusion-exclusion engine


def test_exact_ie_matches_direct(j3, j4):
    assert f_vector_exact_ie(j3) == f_vector_direct(j3)
    assert f_vector_exact_ie(j4) == f_vector_direct(j4)
    assert f_vector_exact_ie(TRIANGLE) == (3, 3)


def test_exact_ie_random_graphs():
    # the subset walk's cycles come from the powerset scan, not the library
    rng = random.Random(31)
    for _ in range(20):
        n, edges = random_connected_graph(rng)
        g = Graph(n, tuple(edges))
        cycles = sorted(brute_simple_cycles(n, edges), key=sorted)
        assert f_vector_exact_ie(g) == cycle_subset_f_vector(n, len(edges), cycles) \
            == f_vector_direct(g)


def test_exact_ie_capacity():
    # the cap counts work, not cycles: K5's 37 simple cycles and J(2,9)'s
    # 73 answer, while J(2,14)'s 183 and the 1172 of K7 plus 15 pendant
    # leaves, which prunes none of them, run past the step bound
    k5 = Graph(5, tuple((u, v) for u in range(5) for v in range(u + 1, 5)))
    assert f_vector_exact_ie(k5) == f_vector_direct(k5)
    j9 = build_jahangir(9)
    assert f_vector_exact_ie(j9) == f_vector_direct(j9)
    k7_leaves = Graph(22, tuple((u, v) for u in range(7) for v in range(u + 1, 7))
                      + tuple((i % 7, 7 + i) for i in range(15)))
    for g, steps, cycles in ((build_jahangir(14), 3006312, 183), (k7_leaves, 3011074, 1172)):
        with pytest.raises(CapacityError) as refused:
            f_vector_exact_ie(g)
        assert str(refused.value) == (f"exact inclusion-exclusion: {steps} steps (over "
                                      f"{cycles} simple cycles) exceed "
                                      "EXACT_IE_STEP_LIMIT = 3000000")


@pytest.mark.parametrize("m", range(3, 9))
def test_exact_ie_equals_the_subset_walk(m):
    g = build_jahangir(m)
    cycles = [as_set(c) for c in enumerate_simple_cycles(g)]
    assert f_vector_exact_ie(g) == cycle_subset_f_vector(g.vertex_count, g.edge_count,
                                                         cycles) == f_vector_direct(g)


@pytest.mark.parametrize("m", range(10, 13))
def test_exact_ie_equals_the_sweep_past_the_subset_walk(m):
    g = build_jahangir(m)
    assert f_vector_exact_ie(g) == f_vector_direct(g)


def test_exact_ie_wide_binomials():
    # a 600-vertex path with two disjoint 4-cycles: its rows of binomials
    # are hundreds of bits wide, and inclusion-exclusion over the cycles
    # {A}, {B}, {A, B} is checked against math.comb, term by term
    n = 600
    g = Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, 3), (300, 303)))
    e = g.edge_count
    expected = tuple(binomial(e, j) - 2 * binomial(e - 4, j - 4) + binomial(e - 8, j - 8)
                     for j in range(1, n))
    assert max(expected).bit_length() > 500
    assert f_vector_exact_ie(g) == expected


def test_exact_ie_rejects_disconnected():
    with pytest.raises(InvalidParameterError):
        f_vector_exact_ie(Graph(4, ((0, 1), (2, 3))))


# ---------------------------------------------------------------------------
# Hilbert series


def test_hilbert_triangle():
    s = hilbert_series((3, 3))
    assert s.numerator == (1, 1, 1)
    assert s.denominator_power == 2


def test_hilbert_j3():
    s = hilbert_series(J3_F)
    assert s.numerator == J3_HILBERT_NUM
    assert s.denominator_power == 6
    assert s.numerator_at(1) == 50


def test_hilbert_numerator_at_one_is_top_entry():
    rng = random.Random(3)
    for _ in range(20):
        f = tuple(rng.randint(1, 40) for _ in range(rng.randint(1, 6)))
        assert hilbert_series(f).numerator_at(1) == f[-1]


def test_hilbert_function_identity():
    # dimension counts in the face ring: sum over faces of the ways to
    # place degree j on them
    rng = random.Random(11)
    randoms = [tuple(rng.randint(0, 10 ** 6) for _ in range(rng.randint(1, 12)))
               for _ in range(20)]
    for f in (J3_F, (3, 3), (5,), *randoms):
        s = hilbert_series(f)
        assert hilbert_function(s, 0) == 1
        for j in range(1, 2 * len(f) + 1):
            want = sum(fi * math.comb(j - 1, i) for i, fi in enumerate(f))
            assert hilbert_function(s, j) == want


def test_hilbert_numerator_equals_the_termwise_sum():
    rng = random.Random(29)
    randoms = [tuple(rng.randint(0, 10 ** rng.randint(1, 40)) for _ in range(rng.randint(0, 30)))
               for _ in range(60)]
    jahangirs = [f_vector_direct(build_jahangir(m)) for m in range(3, 9)]
    for f in (*randoms, *jahangirs, f_vector_direct(PATH_800)):
        s = hilbert_series(f)
        assert s.numerator == termwise_hilbert_numerator(f)
        assert s.denominator_power == len(f)


# The 800-vertex path's f-vector has 799 entries of up to 795 bits. Its
# series takes about 0.03 s by Horner's rule, and took 2-3 s when each
# coefficient was a fresh sum of binomials.
def test_hilbert_series_of_a_long_path_within_budget():
    f = f_vector_direct(PATH_800)
    start = time.perf_counter()
    s = hilbert_series(f)
    assert time.perf_counter() - start < 0.25
    assert s == HilbertSeries((1,), 799)


def test_hilbert_validation():
    # the complex {empty set} has f-vector () and Hilbert series 1
    assert hilbert_series(()) == HilbertSeries((1,), 0)
    with pytest.raises(InvalidParameterError):
        HilbertSeries((2, 1), 3)
    with pytest.raises(InvalidParameterError):
        HilbertSeries((1, 1), -1)
    with pytest.raises(InvalidParameterError):
        hilbert_function(hilbert_series((3, 3)), -1)


def test_binomial_convention():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0
    assert binomial(-2, 1) == 0
