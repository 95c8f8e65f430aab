"""Command-line surface.

Two commands: `jahangir` (builds J(2,m) and allows the structured
engines) and `graph` (reads a JSON document and allows the generic
engines only). Exit codes: 0 success, 1 usage or parse error,
2 capacity error, 3 verify found at least one mismatch.

Output is byte-deterministic for fixed inputs and flags; the
optional --timings field is the one deliberately nondeterministic
extra and is off by default.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator

from . import algebra, complexes, cycles, formulas, graphs, reports, spanning
from .errors import CapacityError, GraphParseError, InvalidParameterError, JssError

ACTIONS = ("facets", "classes", "cycles", "f-vector", "hilbert", "cm", "verify")

MISMATCH_EXIT = 3

# Enumerating every spanning tree of an arbitrary document is refused
# past this count; the determinant tells us the size in advance. One
# guard serves facets, classes, cm and verify, so it is sized by the
# costliest of them; classes lists no tree, but reports the guard's
# count. Raised past J(2,10)'s 524,172 trees (single runs in
# a child under a 1 GB address-space cap, one core of a shared 2-core
# Intel Xeon machine, wall time and peak RSS): build_jahangir_report(10)
# would take 0.93-1.2 s and 128 MB, and verify 1.1 s and 127 MB, but
# facets 5.7 s and 311 MB for 137 MB of JSON, and cm --ordering block
# 62 s and 198 MB. So the value stays until cm and facets have budgets
# of their own.
TREE_ENUMERATION_LIMIT = 500_000

# The largest m served: the forest sweep, the engine that reaches
# furthest, refuses J(2,208). Past it only the word catalog would go on,
# with m*m entries and about m^3 output lines, so a larger m is refused
# before J(2,m) is built. At m = 207 on one core of a shared 2-core AMD
# EPYC machine (wall time, peak RSS, least of 3): f-vector 0.15 s,
# 16 MB; hilbert 0.55 s, 16 MB; the oracle catalog, exact-ie and formula
# modes refused in 0.10-0.12 s, 16 MB; facets, classes, cm and verify
# refused by the tree-count guard in 0.12-0.13 s, 16 MB; the word
# catalog 26 s as JSON, 15 s as CSV and 12 s as text, 182 MB in each
# format.
JAHANGIR_M_LIMIT = 207

# The tree-count guard refuses a graph with more vertices than
# J(2,207)'s 415 before it counts. The count is a sparse elimination
# that is fast on sparse graphs: in-process on the machine above (least
# of 3), J(2,207) takes 3-6 ms, and 415- and 800-vertex cycles 1-2 ms.
# Dense graphs still cost O(V^3) steps on entries thousands of bits
# wide: single runs took 29 s and 99 s on random 415-vertex graphs with
# 4,296 and 42,932 edges. The cap bounds those, and an answer's output:
# up to 500,000 trees of at most 414 edges. Lifting it needs a budget
# on the output.
TREE_GUARD_VERTEX_LIMIT = 2 * JAHANGIR_M_LIMIT + 1

_MODE_ALIASES = {"paper": "formula"}
_CATALOG_ALIASES = {"paper": "word"}
_ORDERING_ALIASES = {"paper": "block"}


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="jssc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser) -> None:
        p.add_argument("action", choices=ACTIONS)
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--mode", choices=("direct", "formula", "paper", "exact-ie"),
                       default="direct",
                       help="f-vector engine (paper is an alias of formula)")
        p.add_argument("--catalog", choices=("word", "paper", "oracle"), default=None,
                       help="cycle catalog (paper is an alias of word)")
        p.add_argument("--ordering", choices=("block", "paper", "search"), default=None,
                       help="generator ordering for cm (paper is an alias of block)")
        p.add_argument("--seed", type=int, default=0,
                       help="accepted for compatibility and echoed by verify; "
                       "has no effect")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in verify output")

    pj = sub.add_parser("jahangir", help="work on J(2,m)")
    pj.add_argument("--m", type=int, required=True)
    pj.add_argument("--n", type=int, default=2,
                    help="ring width; must be 2 (reserved)")
    common(pj)

    pg = sub.add_parser("graph", help="work on a graph document")
    pg.add_argument("--input", required=True, help="path to a JSON graph document")
    common(pg)
    return parser


# ---------------------------------------------------------------------------
# Payload builders (plain dicts, deterministic key order)


def _edge_lister(g: graphs.Graph):
    """Edge sets as output lists: of labels where g has them, else of
    indices."""
    if g.labels is None:
        return lambda mask: list(graphs.edge_indices(mask))
    names = [str(label) for label in g.labels]
    return lambda mask: [names[i] for i in graphs.edge_indices(mask)]


def _facet_payload(g: graphs.Graph, trees: int, meta: dict) -> dict:
    facets = spanning.enumerate_spanning_trees_generic(g)
    listed = _edge_lister(g)
    return {**meta, "count": len(facets), "matrix_tree_count": trees,
            "facets": [listed(f) for f in facets]}


def _classes_payload(m: int, trees: int, meta: dict) -> dict:
    counts = dict(spanning._class_counts(m))
    return {**meta, "counts": counts, "total": sum(counts.values()),
            "matrix_tree_count": trees}


def _catalog_payload(catalog: cycles.CycleCatalog, g: graphs.Graph, meta: dict) -> dict:
    listed = _edge_lister(g)
    entries = [{"word": list(e.word) if e.word is not None else None,
                "edges": listed(e.edges), "beta": e.beta,
                "is_simple_cycle": e.is_simple_cycle} for e in catalog.entries]
    return {**meta, "count": len(entries), "entries": entries}


def _f_vector(g: graphs.Graph, mode: str, m: int | None) -> tuple[int, ...]:
    """The f-vector from the engine that --mode names; the closed form
    is reachable only from the jahangir command, which supplies m."""
    if mode == "formula":
        return formulas.f_vector_formula(m).values
    if mode == "exact-ie":
        return formulas.f_vector_exact_ie(g)
    return complexes.f_vector_direct(g)


def _fvector_payload(g: graphs.Graph, mode: str, m: int | None, meta: dict) -> dict:
    if mode != "formula":
        return {**meta, "f_vector": [str(x) for x in _f_vector(g, mode, m)]}
    formula = formulas.f_vector_formula(m)
    oracle = complexes.f_vector_direct(g)
    audit = [{"words": [list(w) for w in t.words], "sign": t.sign,
              "union_estimate": t.union_estimate} for t in formula.terms]
    return {**meta,
            "f_vector": [str(x) for x in formula.values],
            "oracle_f_vector": [str(x) for x in oracle],
            "mismatch_indices": formulas.f_vector_divergence(formula.values, oracle),
            "audit": audit}


def _hilbert_payload(g: graphs.Graph, mode: str, m: int | None, meta: dict) -> dict:
    values = _f_vector(g, mode, m)
    series = formulas.hilbert_series(values)
    return {**meta, "f_vector": [str(x) for x in values],
            "numerator": [str(c) for c in series.numerator],
            "denominator_power": series.denominator_power}


def _cm_payload(g: graphs.Graph, ordering: str, trees: int, meta: dict) -> dict:
    verdict = algebra.cohen_macaulay_verdict(g, ordering=ordering, trees=trees)
    return {**meta,
            "cohen_macaulay": verdict.cohen_macaulay,
            "ordering_source": verdict.ordering_source,
            "certificate": list(verdict.certificate)
            if verdict.certificate is not None else None,
            "block_first_failure": verdict.block_first_failure,
            "shelling_agrees": verdict.shelling_agrees}


def _report_payload(report: reports.RunReport, seed: int, meta: dict) -> dict:
    # --seed changes no claim; it is only echoed, as the last parameter
    return {**meta, "parameters": {**report.parameters, "seed": seed},
            "claims": [c._asdict() for c in report.claims],
            "mismatches": report.mismatch_count, "timings": report.timings}


def _guard_tree_enumeration(g: graphs.Graph) -> int:
    """The spanning-tree count of g, refused past the enumeration limit
    and, before the determinant runs, past its vertex bound."""
    if g.vertex_count > TREE_GUARD_VERTEX_LIMIT:
        raise CapacityError(
            f"{g.vertex_count} vertices exceed {TREE_GUARD_VERTEX_LIMIT}, the largest "
            "graph whose spanning trees are counted")
    count = graphs.matrix_tree_count(g)
    if count > TREE_ENUMERATION_LIMIT:
        raise CapacityError(
            f"{count} spanning trees exceed the enumeration limit "
            f"{TREE_ENUMERATION_LIMIT}")
    return count


def _execute(args: argparse.Namespace) -> tuple[dict, int]:
    mode = _MODE_ALIASES.get(args.mode, args.mode)
    catalog = _CATALOG_ALIASES.get(args.catalog, args.catalog)
    ordering = _ORDERING_ALIASES.get(args.ordering, args.ordering)
    action = args.action

    if args.command == "jahangir":
        if args.n != 2:
            raise InvalidParameterError("--n must be 2 (reserved for future use)")
        m = args.m
        if m > JAHANGIR_M_LIMIT:
            raise CapacityError(
                f"m = {m} exceeds {JAHANGIR_M_LIMIT}, the largest m any engine answers")
        g = graphs.build_jahangir(m)
        meta = {"command": "jahangir", "action": action, "m": m}
        catalog = catalog or "word"
        ordering = ordering or "block"
    else:
        # graph command: generic engines only
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise GraphParseError(f"cannot read {args.input}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise GraphParseError(
                f"cannot read {args.input}: not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
        m = None
        g = graphs.parse_graph(text)
        meta = {"command": "graph", "action": action, "input": args.input}
        for flag, value, structured in (("--mode", mode, "formula"),
                                        ("--catalog", catalog, "word"),
                                        ("--ordering", ordering, "block")):
            if value == structured:
                raise InvalidParameterError(
                    f"{flag} {value} requires the jahangir command")
        if action == "classes":
            raise InvalidParameterError(
                "tree classes are defined only for the jahangir command")
        if action != "cycles" and not graphs.is_connected(g):
            raise InvalidParameterError(
                "a graph with no vertex or more than one component has no "
                "spanning complex")
        catalog = "oracle"
        ordering = "search"

    # every action that enumerates spanning trees, and classes, which
    # reports their count, passes the one guard, whose determinant is
    # the request's only one
    trees = None
    if action in ("facets", "classes", "cm", "verify"):
        trees = _guard_tree_enumeration(g)
    if action == "facets":
        return _facet_payload(g, trees, meta), 0
    if action == "classes":
        return _classes_payload(m, trees, meta), 0
    if action == "cycles":
        cat = (cycles.word_cycle_catalog(m) if catalog == "word"
               else cycles.oracle_cycle_catalog(g))
        return _catalog_payload(cat, g, {**meta, "catalog": catalog}), 0
    if action == "f-vector":
        return _fvector_payload(g, mode, m, {**meta, "mode": mode}), 0
    if action == "hilbert":
        return _hilbert_payload(g, mode, m, {**meta, "mode": mode}), 0
    if action == "cm":
        return _cm_payload(g, ordering, trees, {**meta, "ordering": ordering}), 0
    if m is None:
        report = reports.build_graph_report(g, timed=args.timings, trees=trees)
    else:
        report = reports.build_jahangir_report(m, timed=args.timings, trees=trees)
    code = MISMATCH_EXIT if report.mismatch_count else 0
    return _report_payload(report, args.seed, meta), code


# ---------------------------------------------------------------------------
# Formatters


def _csv_rows(payload: dict) -> Iterator[list[object]]:
    """The CSV rows of a payload, yielded one at a time."""
    action = payload["action"]
    if action == "facets":
        yield ["index", "edges"]
        for i, f in enumerate(payload["facets"]):
            yield [i, " ".join(str(x) for x in f)]
    elif action == "classes":
        yield ["class", "count"]
        yield from ([k, v] for k, v in payload["counts"].items())
        yield ["total", payload["total"]]
    elif action == "cycles":
        yield ["word", "beta", "is_simple_cycle", "edges"]
        for e in payload["entries"]:
            word = " ".join(str(x) for x in e["word"]) if e["word"] else ""
            yield [word, e["beta"], e["is_simple_cycle"],
                   " ".join(str(x) for x in e["edges"])]
    elif action == "f-vector":
        yield ["i", "f_i"]
        yield from ([i, v] for i, v in enumerate(payload["f_vector"]))
        for item in payload.get("mismatch_indices", []):
            yield ["mismatch", f"i={item['index']} closed_form={item['closed_form']}"
                   f" direct={item['direct']}"]
    elif action == "hilbert":
        yield ["k", "numerator_coefficient"]
        yield from ([k, c] for k, c in enumerate(payload["numerator"]))
        yield ["denominator_power", payload["denominator_power"]]
    elif action == "cm":
        yield ["key", "value"]
        for k in ("cohen_macaulay", "ordering_source", "block_first_failure",
                  "shelling_agrees"):
            yield [k, payload[k]]
    else:
        yield ["claim", "verdict", "claimed", "oracle"]
        for c in payload["claims"]:
            yield [c["name"], c["verdict"], json.dumps(c["claimed"]), json.dumps(c["oracle"])]


def _text_lines(payload: dict) -> Iterator[str]:
    """The text rendering of a payload, yielded line by line."""
    action = payload["action"]
    if action == "facets":
        yield (f"{payload['count']} facets "
               f"(matrix-tree count {payload['matrix_tree_count']})")
        for f in payload["facets"]:
            yield " ".join(str(x) for x in f)
    elif action == "classes":
        yield from (f"{k}: {v}" for k, v in payload["counts"].items())
        yield (f"total: {payload['total']} "
               f"(matrix-tree count {payload['matrix_tree_count']})")
    elif action == "cycles":
        yield f"{payload['count']} catalog entries"
        for e in payload["entries"]:
            word = ",".join(str(x) for x in e["word"]) if e["word"] else "-"
            flag = "" if e["is_simple_cycle"] else "  [not a simple cycle]"
            yield (f"word {word}: beta {e['beta']}, edges "
                   + " ".join(str(x) for x in e["edges"]) + flag)
    elif action == "f-vector":
        yield "f = (" + ", ".join(payload["f_vector"]) + ")"
        for item in payload.get("mismatch_indices", []):
            yield (f"  diverges from the direct oracle at i={item['index']}: "
                   f"{item['closed_form']} vs {item['direct']}")
    elif action == "hilbert":
        terms = [f"{c}*t^{k}" if k else c
                 for k, c in enumerate(payload["numerator"]) if c != "0"]
        yield " + ".join(terms) + f" over (1-t)^{payload['denominator_power']}"
    elif action == "cm":
        for key in ("cohen_macaulay", "ordering_source", "shelling_agrees"):
            yield f"{key}: {payload[key]}"
    else:
        for c in payload["claims"]:
            yield (f"[{c['verdict']:>9}] {c['name']}: "
                   f"claimed {json.dumps(c['claimed'])} "
                   f"vs oracle {json.dumps(c['oracle'])}")
        yield f"mismatches: {payload['mismatches']}"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = _execute(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except JssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # every format is streamed: the document is never held as one string
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.format == "csv":
        import csv  # only this branch writes CSV
        csv.writer(sys.stdout, lineterminator="\n").writerows(_csv_rows(payload))
    else:
        for line in _text_lines(payload):
            sys.stdout.write(line + "\n")
    return code
