"""Cross-check engine behind the `verify` action.

Each claim pairs a stated value with an independently computed oracle
value and a verdict: match, mismatch, or unchecked (when a capacity
bound keeps the oracle from running). Known divergences are reported
as mismatches with both values side by side, never patched over.

A report is a table of rows, one per claim (name, claimed source,
oracle source, check), which _run_claims runs and times in order.
"""

from __future__ import annotations

import time
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .algebra import block_ordering_verdict, cohen_macaulay_verdict
from .complexes import f_vector_direct, hilbert_series
from .cycles import (
    claimed_order,
    intersection_survey,
    oracle_cycle_catalog,
    word_cycle_catalog,
)
from .errors import CapacityError
from .formulas import f_vector_divergence, f_vector_exact_ie, f_vector_formula
from .graphs import _guard_tree_enumeration, matrix_tree_count
from .records import EdgeSet, Graph, build_jahangir, memo
from .spanning import (
    enumerate_spanning_trees_generic,
    enumerate_spanning_trees_jahangir,
    verify_partition,
)

class ClaimResult(NamedTuple):
    name: str
    claimed: object
    claimed_source: str
    oracle: object
    oracle_source: str
    verdict: str                # "match" | "mismatch" | "unchecked"
    detail: object = None


class RunReport(NamedTuple):
    command: str
    parameters: dict
    claims: tuple[ClaimResult, ...]
    timings: dict               # claim name -> seconds, rounded to ms

    @property
    def mismatch_count(self) -> int:
        return sum(1 for c in self.claims if c.verdict == "mismatch")


def _fvec_strings(f) -> list[str]:
    return [str(x) for x in f]


def _unchecked(reason: str, oracle: object = None):
    """A check's result when its oracle cannot run: the known value and why."""
    return None, oracle, None, {"reason": reason}


def _run_claims(command: str, parameters: dict, rows) -> RunReport:
    """Run each row's check in order and time it. A check returns
    (claimed, oracle, ok, detail), ok None for unchecked; a CapacityError
    leaves the claim unchecked with the refusal as its reason. A claim's
    seconds include the shared inputs it is the first to read."""
    claims: list[ClaimResult] = []
    timings: dict = {}
    for name, claimed_source, oracle_source, check in rows:
        start = time.perf_counter()
        try:
            claimed, oracle, ok, detail = check()
        except CapacityError as exc:
            claimed, oracle, ok, detail = _unchecked(str(exc))
        timings[name] = round(time.perf_counter() - start, 3)
        verdict = "unchecked" if ok is None else "match" if ok else "mismatch"
        claims.append(ClaimResult(name, claimed, claimed_source, oracle,
                                  oracle_source, verdict, detail))
    return RunReport(command=command, parameters=parameters, claims=tuple(claims),
                     timings=timings)


def _check_exact_ie(g: Graph, f_direct: tuple[int, ...]):
    oracle = _fvec_strings(f_direct)
    try:
        ie = f_vector_exact_ie(g)
    except CapacityError as exc:
        return _unchecked(str(exc), oracle=oracle)
    return _fvec_strings(ie), oracle, ie == f_direct, None


def _check_dimension(g: Graph, facets: list[EdgeSet]):
    # a spanning tree has V - 1 edges; for J(2,m) that is dimension 2m - 1
    sizes = set(map(int.bit_count, facets))
    dim = max(sizes) - 1
    pure = len(sizes) == 1
    return ({"dimension": g.vertex_count - 2, "pure": True},
            {"dimension": dim, "pure": pure},
            dim == g.vertex_count - 2 and pure, None)


def _check_hilbert(f_direct: tuple[int, ...], facet_count: int):
    series = hilbert_series(f_direct)
    top_ok = series.numerator_at(1) == facet_count
    d = len(f_direct) - 1
    top = 2 * (d + 1)
    # the power series up to t^top: 1/(1-t) sums prefixes, so the
    # numerator's coefficients summed denominator_power times over
    expansion = [*series.numerator, *[0] * (top + 1 - len(series.numerator))]
    for _ in range(series.denominator_power):
        expansion = list(accumulate(expansion))
    # degree j counts the faces by sum_i f_i C(j-1, i): row holds
    # C(j-1, i) for i = 0..d, one Pascal step per degree
    row = [1] + [0] * d
    bad_degrees = []
    for j in range(1, top + 1):
        expanded = expansion[j]
        combinatorial = sum(map(mul, f_direct, row))
        if expanded != combinatorial:
            bad_degrees.append({"degree": j, "expansion": str(expanded),
                                "combinatorial": str(combinatorial)})
        row = [1] + [a + b for a, b in zip(row[1:], row)]
    return ({"numerator_at_1_equals_facet_count": True,
             "expansion_matches_face_counts": True},
            {"numerator_at_1_equals_facet_count": top_ok,
             "expansion_matches_face_counts": not bad_degrees},
            top_ok and not bad_degrees,
            {"numerator": _fvec_strings(series.numerator),
             "denominator_power": series.denominator_power,
             "diverging_degrees": bad_degrees})


def _complex_rows(g: Graph, sweep, facets) -> tuple:
    """The rows both reports end with, before their Cohen-Macaulay
    claim: the f-vector by exact inclusion-exclusion, dimension and
    purity, and the Hilbert series."""
    return (
        ("f_vector_exact_ie", "inclusion-exclusion over the true cycle catalog",
         "frontier forest sweep", lambda: _check_exact_ie(g, sweep())),
        ("dimension_and_purity", "spanning-tree size rule", "facet inspection",
         lambda: _check_dimension(g, facets())),
        ("hilbert_series", "series identities",
         "exact polynomial expansion vs binomial face counting",
         lambda: _check_hilbert(sweep(), len(facets()))),
    )


def build_jahangir_report(m: int) -> RunReport:
    """Structured claims about J(2,m) against the oracles, past the tree guard."""
    g = build_jahangir(m)
    _guard_tree_enumeration(g)
    partition = memo(lambda: verify_partition(m))
    sweep = memo(lambda: f_vector_direct(g))
    facets = memo(lambda: enumerate_spanning_trees_generic(g))

    def tree_count():
        # only the count is kept: the trees live on in the enumerator's memo
        structured = len(enumerate_spanning_trees_jahangir(m))
        generic = partition().generic_total
        mt = matrix_tree_count(g)
        return (structured, {"matrix_tree": mt, "generic_enumeration": generic},
                structured == mt == generic, None)

    def class_partition():
        p = partition()
        return ({"disjoint": True, "covers_all_trees": True},
                {"disjoint": p.disjoint, "covers_all_trees": p.union_matches},
                p.ok, {"class_counts": dict(p.class_counts)})

    def catalog_size():
        actual = oracle_cycle_catalog(g).entries
        non_simple = [list(e.word) for e in word_cycle_catalog(m).entries
                      if not e.is_simple_cycle]
        wordless = sum(1 for e in actual if e.word is None)
        return (m * m, len(actual), m * m == len(actual),
                {"non_simple_catalog_entries": non_simple,
                 "simple_cycles_without_word": wordless})

    def catalog_orders():
        diverging = []
        for e in word_cycle_catalog(m).entries:
            stated = claimed_order(len(e.word))
            if stated != e.beta:
                diverging.append({"word": list(e.word), "claimed": stated,
                                  "actual": e.beta})
        return ({"rule": "2*(k+1) edges for a length-k entry"},
                {"diverging_entries": diverging}, not diverging, None)

    def intersections():
        survey = intersection_survey(m)
        mism = [{"word_a": list(x.word_a), "word_b": list(x.word_b),
                 "relation": x.relation, "predicted": x.predicted,
                 "actual": x.actual} for x in survey.mismatches]
        return ({"all_pairs_predicted_exactly": True},
                {"pairs_checked": survey.pairs_checked, "mismatch_count": len(mism)},
                not mism, {"mismatches": mism})

    def closed_form():
        formula = f_vector_formula(m).values
        diverging = f_vector_divergence(formula, sweep())
        return (_fvec_strings(formula), _fvec_strings(sweep()), not diverging,
                {"diverging_indices": diverging})

    def cm():
        # cm's block verdict, against the trees of both enumerators; a
        # refused sweep leaves the claim unchecked, with its reason
        quotients, shelling = block_ordering_verdict(
            m, (len(enumerate_spanning_trees_generic(g)),
                len(enumerate_spanning_trees_jahangir(m))),
            hilbert_series(sweep()).numerator)
        return (True, quotients, bool(shelling),
                {"ordering_source": "block", "shelling_agrees": shelling})

    return _run_claims("jahangir", {"m": m}, (
        ("spanning_tree_count", "structured cutting-down enumeration",
         "fraction-free determinant and generic frontier enumeration", tree_count),
        ("class_partition", "tree classification rules",
         "set comparison against generic enumeration", class_partition),
        ("cycle_catalog_size", "word catalog counting rule",
         "exhaustive simple-cycle enumeration", catalog_size),
        ("cycle_catalog_orders", "catalog order rule", "edge-set cardinality",
         catalog_orders),
        ("cycle_intersections", "intersection prediction rules",
         "direct edge-set intersection", intersections),
        ("f_vector_closed_form", "closed-form engine over the word catalog",
         "frontier forest sweep", closed_form),
        *_complex_rows(g, sweep, facets),
        ("cohen_macaulay", "quotient ordering construction",
         "quasi-linear quotient check with shelling cross-check", cm),
    ))


def build_graph_report(g: Graph) -> RunReport:
    """Generic-engine cross-checks for a graph that passes the tree guard."""
    _guard_tree_enumeration(g)
    sweep = memo(lambda: f_vector_direct(g))
    facets = memo(lambda: enumerate_spanning_trees_generic(g))

    def tree_count():
        count, mt = len(facets()), matrix_tree_count(g)
        return count, mt, count == mt, None

    def cm():
        # a refused sweep leaves the claim unchecked, with its refusal
        # as reason; the search ordering's walk has no cap of its own
        verdict = cohen_macaulay_verdict(g, ordering="search", f_vector=sweep())
        return ({"quotient_ordering_shells": True},
                {"cohen_macaulay": verdict.cohen_macaulay,
                 "shelling_agrees": verdict.shelling_agrees},
                bool(verdict.shelling_agrees), None)

    return _run_claims(
        "graph", {"vertices": g.vertex_count, "edges": g.edge_count}, (
            ("spanning_tree_count", "generic frontier enumeration",
             "fraction-free determinant", tree_count),
            *_complex_rows(g, sweep, facets),
            ("cohen_macaulay_consistency", "lexicographic facet order",
             "shelling cross-check", cm),
        ))


def _report_payload(report: RunReport, seed: int, timings: bool, meta: dict) -> dict:
    """The CLI's verify answer. --seed changes no claim; it is only
    echoed, as the last parameter."""
    return {**meta, "parameters": {**report.parameters, "seed": seed},
            "claims": [c._asdict() for c in report.claims],
            "mismatches": report.mismatch_count,
            "timings": report.timings if timings else None}
