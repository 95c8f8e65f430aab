"""Acceptance suite: the nine headline checks, one test each.

Each test prints a single PASS/FAIL line (visible with -s, and in the
captured output on failure) and enforces the stated runtime budget.
Frozen values are pinned here verbatim; the suite exists to catch any
drift between the engines, the catalogs, and these numbers.
"""

import json
import math
import time
from contextlib import contextmanager

from jahangir_ssc import (
    Graph,
    build_jahangir,
    cohen_macaulay_verdict,
    enumerate_spanning_trees_generic,
    f_vector_direct,
    f_vector_exact_ie,
    f_vector_formula,
    hilbert_function,
    hilbert_series,
    intersection_survey,
    matrix_tree_count,
    predict_intersection,
    prefix_block_ordering,
    verify_partition,
    word_cycle_catalog,
    word_edge_set,
)
from jahangir_ssc.cycles import all_words
from jahangir_ssc.formulas import binomial

from oracles import brute_f_vector, certify, random_connected_graph

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))

# the fifty spanning trees of J(2,3) by edge label, recorded once and
# frozen; criterion 1 is that the tool reproduces this list exactly
EXPECTED_J23_FACETS = (
    ('e11', 'e12', 'e13', 'e22', 'e23', 'e32'),
    ('e11', 'e12', 'e13', 'e22', 'e23', 'e33'),
    ('e11', 'e12', 'e13', 'e22', 'e31', 'e32'),
    ('e11', 'e12', 'e13', 'e22', 'e31', 'e33'),
    ('e11', 'e12', 'e13', 'e22', 'e32', 'e33'),
    ('e11', 'e12', 'e13', 'e23', 'e31', 'e32'),
    ('e11', 'e12', 'e13', 'e23', 'e31', 'e33'),
    ('e11', 'e12', 'e13', 'e23', 'e32', 'e33'),
    ('e11', 'e12', 'e21', 'e22', 'e23', 'e32'),
    ('e11', 'e12', 'e21', 'e22', 'e23', 'e33'),
    ('e11', 'e12', 'e21', 'e22', 'e31', 'e32'),
    ('e11', 'e12', 'e21', 'e22', 'e31', 'e33'),
    ('e11', 'e12', 'e21', 'e22', 'e32', 'e33'),
    ('e11', 'e12', 'e21', 'e23', 'e31', 'e32'),
    ('e11', 'e12', 'e21', 'e23', 'e31', 'e33'),
    ('e11', 'e12', 'e21', 'e23', 'e32', 'e33'),
    ('e11', 'e12', 'e22', 'e23', 'e31', 'e32'),
    ('e11', 'e12', 'e22', 'e23', 'e31', 'e33'),
    ('e11', 'e12', 'e22', 'e23', 'e32', 'e33'),
    ('e11', 'e13', 'e21', 'e22', 'e23', 'e32'),
    ('e11', 'e13', 'e21', 'e22', 'e23', 'e33'),
    ('e11', 'e13', 'e21', 'e22', 'e31', 'e32'),
    ('e11', 'e13', 'e21', 'e22', 'e31', 'e33'),
    ('e11', 'e13', 'e21', 'e22', 'e32', 'e33'),
    ('e11', 'e13', 'e21', 'e23', 'e31', 'e32'),
    ('e11', 'e13', 'e21', 'e23', 'e31', 'e33'),
    ('e11', 'e13', 'e21', 'e23', 'e32', 'e33'),
    ('e11', 'e13', 'e22', 'e23', 'e31', 'e32'),
    ('e11', 'e13', 'e22', 'e23', 'e31', 'e33'),
    ('e11', 'e13', 'e22', 'e23', 'e32', 'e33'),
    ('e12', 'e13', 'e21', 'e22', 'e23', 'e32'),
    ('e12', 'e13', 'e21', 'e22', 'e23', 'e33'),
    ('e12', 'e13', 'e21', 'e22', 'e31', 'e32'),
    ('e12', 'e13', 'e21', 'e22', 'e31', 'e33'),
    ('e12', 'e13', 'e21', 'e22', 'e32', 'e33'),
    ('e12', 'e13', 'e21', 'e23', 'e31', 'e32'),
    ('e12', 'e13', 'e21', 'e23', 'e31', 'e33'),
    ('e12', 'e13', 'e21', 'e23', 'e32', 'e33'),
    ('e12', 'e13', 'e22', 'e23', 'e31', 'e32'),
    ('e12', 'e13', 'e22', 'e23', 'e31', 'e33'),
    ('e12', 'e13', 'e22', 'e31', 'e32', 'e33'),
    ('e12', 'e13', 'e23', 'e31', 'e32', 'e33'),
    ('e12', 'e21', 'e22', 'e23', 'e32', 'e33'),
    ('e12', 'e21', 'e22', 'e31', 'e32', 'e33'),
    ('e12', 'e21', 'e23', 'e31', 'e32', 'e33'),
    ('e12', 'e22', 'e23', 'e31', 'e32', 'e33'),
    ('e13', 'e21', 'e22', 'e23', 'e32', 'e33'),
    ('e13', 'e21', 'e22', 'e31', 'e32', 'e33'),
    ('e13', 'e21', 'e23', 'e31', 'e32', 'e33'),
    ('e13', 'e22', 'e23', 'e31', 'e32', 'e33'),
)

J3_F = (9, 36, 84, 123, 111, 50)


@contextmanager
def criterion(number: int, name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {number} ({name}): FAIL "
              f"({elapsed:.2f}s, budget {budget:g}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget:g}s budget: {elapsed:.2f}s")
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_facet_reproduction(run_cli):
    with criterion(1, "facet reproduction", 1.0):
        res = run_cli("jahangir", "--m", "3", "facets")
        assert res.code == 0
        doc = json.loads(res.stdout)
        got = {frozenset(f) for f in doc["facets"]}
        want = {frozenset(f) for f in EXPECTED_J23_FACETS}
        assert got == want
        assert len(doc["facets"]) == 50
        g = build_jahangir(3)
        assert matrix_tree_count(g) == 50
        assert len(enumerate_spanning_trees_generic(g)) == 50


def test_criterion_2_dimension_and_purity():
    with criterion(2, "dimension and purity", 5.0):
        for m in range(3, 9):
            facets = enumerate_spanning_trees_generic(build_jahangir(m))
            # pure of dimension 2m - 1: every facet has 2m edges
            assert set(map(int.bit_count, facets)) == {2 * m}


def test_criterion_3_direct_f_vector():
    with criterion(3, "direct f-vector", 1.0):
        g = build_jahangir(3)
        f = f_vector_direct(g)
        assert f == J3_F
        assert f == brute_f_vector(g.vertex_count, list(g.edges))
        assert f[5] == matrix_tree_count(g) == 50


def test_criterion_4_inclusion_exclusion_identity():
    with criterion(4, "inclusion-exclusion identity", 30.0):
        import random

        cases = [build_jahangir(3), build_jahangir(4), TRIANGLE]
        rng = random.Random(2026)
        for _ in range(20):
            n, edges = random_connected_graph(rng, max_edges=10)
            assert len(edges) <= 10
            cases.append(Graph(n, tuple(edges)))
        for g in cases:
            assert f_vector_exact_ie(g) == f_vector_direct(g)


def test_criterion_5_closed_form_audit(run_cli, triangle_file):
    with criterion(5, "closed-form audit"):
        ff = f_vector_formula(3)
        direct = f_vector_direct(build_jahangir(3))
        # agreement on the low indices
        assert ff.values[:4] == direct[:4]
        # a side-by-side record wherever the closed form diverges
        res = run_cli("jahangir", "--m", "3", "f-vector", "--mode", "formula")
        doc = json.loads(res.stdout)
        assert doc["mismatch_indices"] == [
            {"index": 5, "closed_form": "51", "direct": "50"}]
        # verify exits 3 exactly when a mismatch exists
        assert run_cli("jahangir", "--m", "3", "verify").code == 3
        assert run_cli("graph", "--input", triangle_file, "verify").code == 0
        # hand recomputation of the audit trail at i = 0 and i = 3:
        # every row here counts single words of one order beta, each
        # knocking out binomial(9 - beta, i + 1 - beta) subsets
        betas = [e.beta for e in word_cycle_catalog(3).entries]
        for i in (0, 3):
            by_hand = binomial(9, i + 1)
            for term in ff.terms:
                assert term.sign == -1
                assert term.multiplicity == betas.count(term.union_estimate)
                beta = term.union_estimate
                by_hand -= term.multiplicity * binomial(9 - beta, i + 1 - beta)
            assert by_hand == ff.values[i]
        assert ff.values[0] == 9 and ff.values[3] == 123


def test_criterion_6_intersection_predictions():
    with criterion(6, "intersection predictions", 10.0):
        for m in range(3, 7):
            survey = intersection_survey(m)
            flagged = {}
            for mm in survey.mismatches:
                assert mm.predicted is not None and mm.actual is not None
                flagged[(mm.word_a, mm.word_b)] = (mm.predicted, mm.actual)
                flagged[(mm.word_b, mm.word_a)] = (mm.predicted, mm.actual)
            import itertools

            for u, v in itertools.combinations(all_words(m), 2):
                predicted = predict_intersection(u, v, m)
                actual = (word_edge_set(u, m) & word_edge_set(v, m)).bit_count()
                if predicted == actual:
                    assert (u, v) not in flagged
                else:
                    assert flagged[(u, v)] == (predicted, actual)


def test_criterion_7_spanning_tree_partition():
    with criterion(7, "spanning-tree partition", 30.0):
        for m in range(3, 7):
            report = verify_partition(m)
            assert report.ok and report.disjoint and report.union_matches
        counts = tuple(c for _, c in verify_partition(3).class_counts)
        assert counts == (8, 24, 18, 0, 0)


def test_criterion_8_hilbert_series():
    with criterion(8, "Hilbert series", 1.0):
        series = hilbert_series(J3_F)
        assert series.numerator_at(1) == 50
        for j in range(1, 13):
            want = sum(fi * math.comb(j - 1, i) for i, fi in enumerate(J3_F))
            assert hilbert_function(series, j) == want
        tri = hilbert_series(f_vector_direct(TRIANGLE))
        assert tri.numerator == (1, 1, 1)
        assert tri.denominator_power == 2


def test_criterion_9_cohen_macaulay():
    with criterion(9, "Cohen-Macaulay certificates", 60.0):
        for m in (3, 4, 5):
            g = build_jahangir(m)
            canonical = enumerate_spanning_trees_generic(g)
            ordering = prefix_block_ordering(m)
            assert sorted(ordering) == list(range(len(canonical)))
            # a shelling: the pass's histogram is the h-vector
            first_failure, histogram = certify([canonical[i] for i in ordering])
            assert first_failure is None
            assert histogram == hilbert_series(f_vector_direct(g)).numerator
            verdict = cohen_macaulay_verdict(g, "block")
            assert verdict.cohen_macaulay is True
            assert verdict.certificate is not None
            assert verdict.shelling_agrees is True
