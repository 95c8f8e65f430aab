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

import json
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

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
# facets 3.5-3.9 s and 42 MB (stdout to /dev/null), and cm --ordering
# block 62 s and 198 MB. So the value stays until cm and facets have
# budgets of their own.
TREE_ENUMERATION_LIMIT = 500_000

# The largest m served: the forest sweep, the engine that reaches
# furthest, refuses J(2,208). Past it only the word catalog would go on,
# with m*m entries and about m^3 output lines, so a larger m is refused
# before J(2,m) is built. At m = 207 on one core of a shared 2-core AMD
# EPYC machine (wall time, peak RSS, least of 3): f-vector 0.15 s,
# 16 MB; hilbert 0.55 s, 16 MB; the oracle catalog, exact-ie and formula
# modes refused in 0.10-0.12 s, 16 MB; facets, classes, cm and verify
# refused by the tree-count guard in 0.12-0.13 s, 16 MB. The word
# catalog, on one core of a shared 2-core Intel Xeon machine with
# PYTHONUNBUFFERED=1 and stdout to /dev/null (CPython 3.11, least of
# 3): 15 s as JSON, 11.6 s as CSV and 9.3 s as text, 62 MB in each
# format, most of it the catalog itself, since its entries are
# formatted as they are written.
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


# The options of each command, in the order of their usage text: flag ->
# (the choices, int or str for a free value, or bool for a flag that
# takes none; the default, or _REQUIRED; the help text). The one table
# builds the argparse parser and drives _read_argv.
_REQUIRED = object()
_COMMON_OPTIONS = {
    "--format": (("json", "csv", "text"), "json", None),
    "--mode": (("direct", "formula", "paper", "exact-ie"), "direct",
               "f-vector engine (paper is an alias of formula)"),
    "--catalog": (("word", "paper", "oracle"), None,
                  "cycle catalog (paper is an alias of word)"),
    "--ordering": (("block", "paper", "search"), None,
                   "generator ordering for cm (paper is an alias of block)"),
    "--seed": (int, 0, "accepted for compatibility and echoed by verify; has no effect"),
    "--timings": (bool, False, "include wall-clock timings in verify output"),
}
# command -> (its help text, its own options, which come before the
# action and _COMMON_OPTIONS)
_COMMANDS = {
    "jahangir": ("work on J(2,m)",
                 {"--m": (int, _REQUIRED, None),
                  "--n": (int, 2, "ring width; must be 2 (reserved)")}),
    "graph": ("work on a graph document",
              {"--input": (str, _REQUIRED, "path to a JSON graph document")}),
}


def _build_parser():
    """The argparse parser of both commands, which writes every usage,
    error and help text. Built only for an argv that _read_argv
    declines, so that a well-formed request imports no argparse."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # usage errors must exit 1, not argparse's default 2
        def error(self, message: str) -> None:  # type: ignore[override]
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    def add(p: _Parser, options: dict) -> None:
        for flag, (kind, default, text) in options.items():
            if kind is bool:
                p.add_argument(flag, action="store_true", help=text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, default=default, help=text)
            elif default is _REQUIRED:
                p.add_argument(flag, type=kind, required=True, help=text)
            else:
                p.add_argument(flag, type=kind, default=default, help=text)

    parser = _Parser(prog="jssc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        add(p, options)
        p.add_argument("action", choices=ACTIONS)
        add(p, _COMMON_OPTIONS)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for argv, when argv is well-formed;
    None leaves argv to argparse, which writes any usage, error or help
    text.

    Accepted: a command, then in any order its action, once, and its
    options, each followed by one value: one of its choices, ASCII
    digits that int() reads for an int, a path that does not start with
    "-"; --timings takes none. A repeated option keeps its last value,
    as in argparse. Anything else is declined: help, "--", an
    abbreviation, "--flag=value", an unknown token, a second action, a
    missing value, a missing required option or action.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = {**_COMMANDS[argv[0]][1], **_COMMON_OPTIONS}
    values = {flag[2:]: default for flag, (_, default, _) in options.items()}
    values["command"], values["action"] = argv[0], None
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ACTIONS and values["action"] is None:
            values["action"] = token
            continue
        if token not in options:
            return None
        kind = options[token][0]
        if kind is bool:
            values[token[2:]] = True
            continue
        value = next(tokens, None)
        if value is None:
            return None
        if kind is int:
            # argparse's int() also reads signs, spaces, "_" and non-ASCII digits
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # past the interpreter's digit limit
                return None
        elif kind is str:
            if value.startswith("-"):
                return None
        elif value not in kind:
            return None
        values[token[2:]] = value
    if values["action"] is None or _REQUIRED in values.values():
        return None
    return SimpleNamespace(**values)


# ---------------------------------------------------------------------------
# Payload builders (plain dicts, deterministic key order)


def _edge_lister(g: graphs.Graph):
    """Edge sets as output sequences: lists of labels where g has them,
    else tuples of indices, which JSON writes as lists."""
    if g.labels is None:
        return graphs.edge_indices
    names = [str(label) for label in g.labels]
    return lambda mask: [names[i] for i in graphs.edge_indices(mask)]


def _facet_payload(g: graphs.Graph, trees: int, meta: dict) -> dict:
    facets = spanning.enumerate_spanning_trees_generic(g)
    listed = _edge_lister(g)
    return {**meta, "count": len(facets), "matrix_tree_count": trees,
            "facets": map(listed, facets)}


def _classes_payload(m: int, trees: int, meta: dict) -> dict:
    counts = dict(spanning._class_counts(m))
    return {**meta, "counts": counts, "total": sum(counts.values()),
            "matrix_tree_count": trees}


def _catalog_payload(catalog: cycles.CycleCatalog, g: graphs.Graph, meta: dict) -> dict:
    listed = _edge_lister(g)
    entries = ({"word": list(e.word) if e.word is not None else None,
                "edges": listed(e.edges), "beta": e.beta,
                "is_simple_cycle": e.is_simple_cycle} for e in catalog.entries)
    return {**meta, "count": len(catalog.entries), "entries": entries}


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


def _report_payload(report: reports.RunReport, args: SimpleNamespace,
                    meta: dict) -> dict:
    # --seed changes no claim; it is only echoed, as the last parameter
    return {**meta, "parameters": {**report.parameters, "seed": args.seed},
            "claims": [c._asdict() for c in report.claims],
            "mismatches": report.mismatch_count,
            "timings": report.timings if args.timings else None}


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


def _execute(args: SimpleNamespace) -> tuple[dict, int]:
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
        if action != "cycles":
            graphs.require_spanning_complex(g)
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
        report = reports.build_graph_report(g, trees=trees)
    else:
        report = reports.build_jahangir_report(m, trees=trees)
    code = MISMATCH_EXIT if report.mismatch_count else 0
    return _report_payload(report, args, meta), code


# ---------------------------------------------------------------------------
# Output

# Output leaves in pieces of at least this many characters: with
# PYTHONUNBUFFERED=1 each write to stdout is a system call.
_WRITE_SIZE = 1 << 16

# The scalar types written without json.dumps, as json's own encoder
# writes them.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__}

_NO_ITEM = object()


class _Batched:
    """Gathers written text and passes it on in pieces of at least
    _WRITE_SIZE characters; flush() passes on the rest."""

    def __init__(self, write) -> None:
        self._write = write
        self._parts: list[str] = []
        self._size = 0

    def write(self, text: str) -> None:
        self._parts.append(text)
        self._size += len(text)
        if self._size >= _WRITE_SIZE:
            self.flush()

    def flush(self) -> None:
        if self._parts:
            self._write("".join(self._parts))
            self._parts.clear()
            self._size = 0


def _write_json(obj: object, write) -> None:
    """Write obj by write() as json.dump writes it with indent=2, with
    iterators written as lists.

    A list or tuple of plain str or plain int items is encoded as one
    string, with json's own scalar encoders; every other scalar goes
    through json.dumps, which writes bool, None, floats and str or int
    subclasses as json.dump does.
    """

    def encode(obj: object, prefix: str, pad: str) -> None:
        # prefix: what precedes obj in the output, written with it
        inner = pad + "  "
        if isinstance(obj, (list, tuple)):
            kinds = set(map(type, obj))
            scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
            if scalar is not None:
                write(prefix + "[\n" + inner + (",\n" + inner).join(map(scalar, obj))
                      + "\n" + pad + "]")
                return
        elif isinstance(obj, dict):
            if not obj:
                write(prefix + "{}")
                return
            sep = prefix + "{\n" + inner
            for key, value in obj.items():
                key = key if isinstance(key, str) else json.dumps(key)
                encode(value, sep + encode_basestring_ascii(key) + ": ", inner)
                sep = ",\n" + inner
            write("\n" + pad + "}")
            return
        elif not isinstance(obj, Iterator):
            write(prefix + _SCALARS.get(type(obj), json.dumps)(obj))
            return
        # a list or tuple of mixed or container items, or an iterator
        items = iter(obj)
        first = next(items, _NO_ITEM)
        if first is _NO_ITEM:
            write(prefix + "[]")
            return
        encode(first, prefix + "[\n" + inner, inner)
        comma = ",\n" + inner
        for item in items:
            encode(item, comma, inner)
        write("\n" + pad + "]")

    encode(obj, "", "")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
    try:
        payload, code = _execute(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except JssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # the payload's facets and catalog entries are made as they are
    # written, and the document leaves in batches, never as one string
    out = _Batched(sys.stdout.write)
    if args.format == "json":
        _write_json(payload, out.write)
        out.write("\n")
    else:
        from . import formats  # only these branches write CSV or text
        if args.format == "csv":
            import csv
            csv.writer(out, lineterminator="\n").writerows(formats.csv_rows(payload))
        else:
            for line in formats.text_lines(payload):
                out.write(line + "\n")
    out.flush()
    return code
