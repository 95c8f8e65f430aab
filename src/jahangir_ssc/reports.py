"""Cross-check engine behind the `verify` action.

Each claim pairs a stated value with an independently computed oracle
value and a verdict: match, mismatch, or unchecked (when a capacity
bound keeps the oracle from running). Known divergences are reported
as mismatches with both values side by side, never patched over.
"""

from __future__ import annotations

import time
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .algebra import CERTIFICATE_CHECK_LIMIT, cohen_macaulay_verdict
from .complexes import f_vector_direct
from .cycles import (
    claimed_order,
    intersection_survey,
    oracle_cycle_catalog,
    word_cycle_catalog,
)
from .errors import CapacityError, InvalidParameterError
from .formulas import (
    FORMULA_M_RANGE,
    f_vector_divergence,
    f_vector_exact_ie,
    f_vector_formula,
    hilbert_series,
)
from .graphs import EdgeSet, Graph, build_jahangir, is_connected, matrix_tree_count
from .spanning import (
    enumerate_spanning_trees_generic,
    enumerate_spanning_trees_jahangir,
    verify_partition,
)

# Budget for the exact inclusion-exclusion cross-check inside a verify
# run, whose cost grows with the cycle count: on one core of a shared
# 2-core AMD EPYC machine it takes 1.5 ms at J(2,6) (18 edges), 10 ms at
# J(2,7) and 0.24 s at J(2,8). Past it the claim is unchecked and carries
# the forest count as its oracle.
VERIFY_EXACT_IE_EDGE_LIMIT = 18


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
    timings: dict | None

    @property
    def mismatch_count(self) -> int:
        return sum(1 for c in self.claims if c.verdict == "mismatch")


def _fvec_strings(f) -> list[str]:
    return [str(x) for x in f]


def _unchecked(name: str, claimed_source: str, oracle_source: str, reason: str,
               claimed: object = None, oracle: object = None) -> ClaimResult:
    return ClaimResult(name=name, claimed=claimed, claimed_source=claimed_source,
                       oracle=oracle, oracle_source=oracle_source,
                       verdict="unchecked", detail={"reason": reason})


def _over_certificate_limit(facets: int) -> str:
    """The reason a cohen_macaulay claim past CERTIFICATE_CHECK_LIMIT is
    unchecked: the facet count and the cap."""
    return f"{facets} facets over the certificate check limit of {CERTIFICATE_CHECK_LIMIT}"


def _run_claims(command: str, parameters: dict, builders, timed: bool) -> RunReport:
    """Run each claim builder in order, timing each one when asked."""
    claims: list[ClaimResult] = []
    timings: dict | None = {} if timed else None
    for builder in builders:
        start = time.perf_counter()
        claim = builder()
        if timings is not None:
            timings[claim.name] = round(time.perf_counter() - start, 3)
        claims.append(claim)
    return RunReport(command=command, parameters=parameters, claims=tuple(claims),
                     timings=timings)


def _direct_f_vector(g: Graph) -> tuple[tuple[int, ...] | None, str | None]:
    """The forest-count oracle shared by a report's claims, and None with
    the reason when the forest sweep refuses at its step bound."""
    try:
        return f_vector_direct(g), None
    except CapacityError as exc:
        return None, str(exc)


def _claim_exact_ie(g: Graph, f_direct: tuple[int, ...] | None,
                    sweep_refusal: str | None) -> ClaimResult:
    claimed_source = "inclusion-exclusion over the true cycle catalog"
    oracle_source = "frontier forest sweep"
    if f_direct is None:
        return _unchecked("f_vector_exact_ie", claimed_source, oracle_source,
                          sweep_refusal)
    if g.edge_count > VERIFY_EXACT_IE_EDGE_LIMIT:
        return _unchecked("f_vector_exact_ie", claimed_source, oracle_source,
                          "inclusion-exclusion over verify budget",
                          oracle=_fvec_strings(f_direct))
    try:
        ie = f_vector_exact_ie(g)
    except CapacityError as exc:
        return _unchecked("f_vector_exact_ie", claimed_source, oracle_source,
                          str(exc), oracle=_fvec_strings(f_direct))
    return ClaimResult(
        name="f_vector_exact_ie",
        claimed=_fvec_strings(ie),
        claimed_source=claimed_source,
        oracle=_fvec_strings(f_direct),
        oracle_source=oracle_source,
        verdict="match" if ie == f_direct else "mismatch")


def _claim_dimension(g: Graph, facets: list[EdgeSet]) -> ClaimResult:
    # a spanning tree has V - 1 edges; for J(2,m) that is dimension 2m - 1
    sizes = set(map(int.bit_count, facets))
    dim = max(sizes) - 1
    pure = len(sizes) == 1
    ok = dim == g.vertex_count - 2 and pure
    return ClaimResult(
        name="dimension_and_purity",
        claimed={"dimension": g.vertex_count - 2, "pure": True},
        claimed_source="spanning-tree size rule",
        oracle={"dimension": dim, "pure": pure},
        oracle_source="facet inspection",
        verdict="match" if ok else "mismatch")


def _claim_hilbert(f_direct: tuple[int, ...] | None, sweep_refusal: str | None,
                   facet_count: int) -> ClaimResult:
    if f_direct is None:
        return _unchecked("hilbert_series", "series identities",
                          "exact polynomial expansion", sweep_refusal)
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
    ok = top_ok and not bad_degrees
    return ClaimResult(
        name="hilbert_series",
        claimed={"numerator_at_1_equals_facet_count": True,
                 "expansion_matches_face_counts": True},
        claimed_source="series identities",
        oracle={"numerator_at_1_equals_facet_count": top_ok,
                "expansion_matches_face_counts": not bad_degrees},
        oracle_source="exact polynomial expansion vs binomial face counting",
        verdict="match" if ok else "mismatch",
        detail={"numerator": _fvec_strings(series.numerator),
                "denominator_power": series.denominator_power,
                "diverging_degrees": bad_degrees})


def build_jahangir_report(m: int, timed: bool = False,
                          trees: int | None = None) -> RunReport:
    """Structured claims about J(2,m) against the oracles. trees is the
    determinant's spanning-tree count where the caller has it."""
    g = build_jahangir(m)
    # only the count is kept: the trees live on in the enumerator's memo
    structured_count = len(enumerate_spanning_trees_jahangir(m))
    partition = verify_partition(m)
    mt = matrix_tree_count(g) if trees is None else trees

    def claim_tree_count() -> ClaimResult:
        ok = structured_count == mt == partition.generic_total
        return ClaimResult(
            name="spanning_tree_count",
            claimed=structured_count,
            claimed_source="structured cutting-down enumeration",
            oracle={"matrix_tree": mt, "generic_enumeration": partition.generic_total},
            oracle_source="fraction-free determinant and generic frontier enumeration",
            verdict="match" if ok else "mismatch")

    def claim_partition() -> ClaimResult:
        return ClaimResult(
            name="class_partition",
            claimed={"disjoint": True, "covers_all_trees": True},
            claimed_source="tree classification rules",
            oracle={"disjoint": partition.disjoint,
                    "covers_all_trees": partition.union_matches},
            oracle_source="set comparison against generic enumeration",
            verdict="match" if partition.ok else "mismatch",
            detail={"class_counts": dict(partition.class_counts)})

    word_catalog = word_cycle_catalog(m)
    oracle_catalog = oracle_cycle_catalog(g)

    def claim_catalog_size() -> ClaimResult:
        claimed = m * m
        actual = len(oracle_catalog.entries)
        non_simple = [list(e.word) for e in word_catalog.entries
                      if not e.is_simple_cycle]
        wordless = sum(1 for e in oracle_catalog.entries if e.word is None)
        return ClaimResult(
            name="cycle_catalog_size",
            claimed=claimed,
            claimed_source="word catalog counting rule",
            oracle=actual,
            oracle_source="exhaustive simple-cycle enumeration",
            verdict="match" if claimed == actual else "mismatch",
            detail={"non_simple_catalog_entries": non_simple,
                    "simple_cycles_without_word": wordless})

    def claim_catalog_orders() -> ClaimResult:
        diverging = []
        for e in word_catalog.entries:
            stated = claimed_order(len(e.word))
            if stated != e.beta:
                diverging.append({"word": list(e.word), "claimed": stated,
                                  "actual": e.beta})
        return ClaimResult(
            name="cycle_catalog_orders",
            claimed={"rule": "2*(k+1) edges for a length-k entry"},
            claimed_source="catalog order rule",
            oracle={"diverging_entries": diverging},
            oracle_source="edge-set cardinality",
            verdict="match" if not diverging else "mismatch")

    def claim_intersections() -> ClaimResult:
        survey = intersection_survey(m)
        mism = [{"word_a": list(x.word_a), "word_b": list(x.word_b),
                 "relation": x.relation, "predicted": x.predicted,
                 "actual": x.actual} for x in survey.mismatches]
        return ClaimResult(
            name="cycle_intersections",
            claimed={"all_pairs_predicted_exactly": True},
            claimed_source="intersection prediction rules",
            oracle={"pairs_checked": survey.pairs_checked,
                    "mismatch_count": len(mism)},
            oracle_source="direct edge-set intersection",
            verdict="match" if not mism else "mismatch",
            detail={"mismatches": mism})

    f_direct, sweep_refusal = _direct_f_vector(g)

    def claim_formula() -> ClaimResult:
        lo, hi = FORMULA_M_RANGE
        if not (lo <= m <= hi and f_direct is not None):
            return _unchecked("f_vector_closed_form", "closed-form engine",
                              "frontier forest sweep",
                              f"closed form supports m in {lo}..{hi} only")
        formula = f_vector_formula(m)
        diverging = f_vector_divergence(formula.values, f_direct)
        return ClaimResult(
            name="f_vector_closed_form",
            claimed=_fvec_strings(formula.values),
            claimed_source="closed-form engine over the word catalog",
            oracle=_fvec_strings(f_direct),
            oracle_source="frontier forest sweep",
            verdict="match" if not diverging else "mismatch",
            detail={"diverging_indices": diverging})

    facets = enumerate_spanning_trees_generic(g)

    def claim_cm() -> ClaimResult:
        if len(facets) > CERTIFICATE_CHECK_LIMIT:
            return _unchecked("cohen_macaulay", "quotient ordering construction",
                              "quasi-linear quotient check",
                              _over_certificate_limit(len(facets)),
                              claimed=True)
        # the block ordering is always checked: its verdict is never None
        verdict = cohen_macaulay_verdict(g, ordering="block")
        ok = verdict.cohen_macaulay and verdict.shelling_agrees
        return ClaimResult(
            name="cohen_macaulay",
            claimed=True,
            claimed_source="quotient ordering construction",
            oracle=verdict.cohen_macaulay,
            oracle_source="quasi-linear quotient check with shelling cross-check",
            verdict="match" if ok else "mismatch",
            detail={"ordering_source": verdict.ordering_source,
                    "shelling_agrees": verdict.shelling_agrees})

    return _run_claims("jahangir", {"m": m}, (
        claim_tree_count, claim_partition, claim_catalog_size,
        claim_catalog_orders, claim_intersections, claim_formula,
        lambda: _claim_exact_ie(g, f_direct, sweep_refusal),
        lambda: _claim_dimension(g, facets),
        lambda: _claim_hilbert(f_direct, sweep_refusal, len(facets)),
        claim_cm), timed)


def build_graph_report(g: Graph, timed: bool = False,
                       trees: int | None = None) -> RunReport:
    """Generic-engine cross-checks for an arbitrary connected graph.
    trees is the determinant's spanning-tree count where the caller has
    it."""
    if not is_connected(g):
        raise InvalidParameterError(
            "spanning complex is undefined for disconnected graphs")
    facets = enumerate_spanning_trees_generic(g)
    mt = matrix_tree_count(g) if trees is None else trees

    def claim_tree_count() -> ClaimResult:
        return ClaimResult(
            name="spanning_tree_count",
            claimed=len(facets),
            claimed_source="generic frontier enumeration",
            oracle=mt,
            oracle_source="fraction-free determinant",
            verdict="match" if len(facets) == mt else "mismatch")

    f_direct, sweep_refusal = _direct_f_vector(g)

    def claim_cm() -> ClaimResult:
        verdict = cohen_macaulay_verdict(g, ordering="search", trees=mt)
        if verdict.cohen_macaulay is None:
            return _unchecked("cohen_macaulay_consistency", "lexicographic facet order",
                              "shelling cross-check",
                              _over_certificate_limit(mt))
        return ClaimResult(
            name="cohen_macaulay_consistency",
            claimed={"quotient_ordering_shells": True},
            claimed_source="lexicographic facet order",
            oracle={"cohen_macaulay": verdict.cohen_macaulay,
                    "shelling_agrees": verdict.shelling_agrees},
            oracle_source="shelling cross-check",
            verdict="match" if verdict.shelling_agrees else "mismatch")

    return _run_claims(
        "graph", {"vertices": g.vertex_count, "edges": g.edge_count}, (
            claim_tree_count,
            lambda: _claim_exact_ie(g, f_direct, sweep_refusal),
            lambda: _claim_dimension(g, facets),
            lambda: _claim_hilbert(f_direct, sweep_refusal, len(facets)),
            claim_cm), timed)
