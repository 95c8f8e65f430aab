"""Command-line surface.

Two commands: `jahangir` (builds J(2,m) and allows the structured
engines) and `graph` (reads a JSON document and allows the generic
engines only). Exit codes: 0 success, 1 usage or parse error,
2 capacity error, 3 verify found at least one mismatch.

Output is byte-deterministic for fixed inputs and flags; the
optional --timings field is the one deliberately nondeterministic
extra and is off by default.

Only what a direct-mode f-vector or hilbert request runs is here. The
rest lives beside what it serves, so such a request compiles none of
it: reading a document in graphs, the answers of the other actions and
modes in their engines' modules, the argparse parser in usage, and CSV
and text in formats. _execute checks only what the command line
decides: --n, JAHANGIR_M_LIMIT, the flags the graph command refuses and
classes on a document. Each engine checks its own graph: a spanning
complex and, where trees are listed or counted, the tree guard.
"""

from __future__ import annotations

import sys
from _json import encode_basestring_ascii  # json.encoder's own encoder
from collections.abc import Iterator
from types import SimpleNamespace

from . import algebra, complexes, cycles, formulas, graphs, records, reports, spanning
from .errors import (JAHANGIR_M_LIMIT, CapacityError, InvalidParameterError, JssError,
                     capacity_error)

ACTIONS = ("facets", "classes", "cycles", "f-vector", "hilbert", "cm", "verify")

MISMATCH_EXIT = 3

_MODE_ALIASES = {"paper": "formula"}
_CATALOG_ALIASES = {"paper": "word"}
_ORDERING_ALIASES = {"paper": "block"}


# The options of each command, in the order of their usage text: flag ->
# (the choices, int or str for a free value, or bool for a flag that
# takes none; the default, or _REQUIRED; the help text). The one table
# drives _read_argv and builds usage's argparse parser.
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


def _f_vector(g: records.Graph, mode: str, m: int | None) -> tuple[int, ...]:
    """The f-vector from the engine that --mode names; the closed form
    is reachable only from the jahangir command, which supplies m."""
    if mode == "formula":
        return formulas.f_vector_formula(m).values
    if mode == "exact-ie":
        return formulas.f_vector_exact_ie(g)
    return complexes.f_vector_direct(g)


def _fvector_payload(g: records.Graph, mode: str, m: int | None, meta: dict) -> dict:
    if mode == "formula":
        return formulas._formula_payload(g, m, meta)
    return {**meta, "f_vector": [str(x) for x in _f_vector(g, mode, m)]}


def _hilbert_payload(g: records.Graph, mode: str, m: int | None, meta: dict) -> dict:
    values = _f_vector(g, mode, m)
    series = complexes.hilbert_series(values)
    return {**meta, "f_vector": [str(x) for x in values],
            "numerator": [str(c) for c in series.numerator],
            "denominator_power": series.denominator_power}


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
            raise capacity_error("JAHANGIR_M_LIMIT", m)
        g = records.build_jahangir(m)
        meta = {"command": "jahangir", "action": action, "m": m}
        catalog = catalog or "word"
        ordering = ordering or "block"
    else:
        # graph command: generic engines only
        m = None
        g = graphs._read_document(args.input)
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
        catalog = "oracle"
        ordering = "search"

    if action == "facets":
        return spanning._facet_payload(g, meta), 0
    if action == "classes":
        return spanning._classes_payload(m, meta), 0
    if action == "cycles":
        cat = (cycles.word_cycle_catalog(m) if catalog == "word"
               else cycles.oracle_cycle_catalog(g))
        return cycles._catalog_payload(cat, g, {**meta, "catalog": catalog}), 0
    if action == "f-vector":
        return _fvector_payload(g, mode, m, {**meta, "mode": mode}), 0
    if action == "hilbert":
        return _hilbert_payload(g, mode, m, {**meta, "mode": mode}), 0
    if action == "cm":
        return algebra._cm_payload(g, ordering, {**meta, "ordering": ordering}), 0
    if m is None:
        report = reports.build_graph_report(g)
    else:
        report = reports.build_jahangir_report(m)
    code = MISMATCH_EXIT if report.mismatch_count else 0
    return reports._report_payload(report, args.seed, args.timings, meta), code


# ---------------------------------------------------------------------------
# Output

# Output leaves in pieces of at least this many characters: with
# PYTHONUNBUFFERED=1 each write to stdout is a system call.
_WRITE_SIZE = 1 << 16

# A list of one scalar type is encoded this many items at a time: joined
# whole, the 140,450 positions of cm --m 9's certificate peaked at 10.3 MB
# under tracemalloc, against 0.36 MB in slices.
_SLICE = 4096

# The scalar types written as json's own encoder writes them. Any other
# scalar, a float or a str or int subclass, goes through json.dumps:
# only such a scalar imports json, and no request on J(2,m) holds one
# but the timings of verify --timings.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {False: "false", True: "true"}.__getitem__,
            type(None): lambda _: "null"}


def _dumps(obj: object) -> str:
    import json

    return json.dumps(obj)

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

    A list or tuple of items of one _SCALARS type is encoded _SLICE
    items to a string; every other scalar goes through json.dumps, which
    writes floats and str or int subclasses as json.dump does.
    """

    def encode(obj: object, prefix: str, pad: str) -> None:
        # prefix: what precedes obj in the output, written with it
        inner = pad + "  "
        if isinstance(obj, (list, tuple)):
            kinds = set(map(type, obj))
            scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
            if scalar is not None:
                sep = ",\n" + inner
                head = prefix + "[\n" + inner
                last = (len(obj) - 1) // _SLICE * _SLICE
                for start in range(0, last, _SLICE):
                    write(head + sep.join(map(scalar, obj[start:start + _SLICE])))
                    head = sep
                write(head + sep.join(map(scalar, obj[last:])) + "\n" + pad + "]")
                return
        elif isinstance(obj, dict):
            if not obj:
                write(prefix + "{}")
                return
            sep = prefix + "{\n" + inner
            for key, value in obj.items():
                key = key if isinstance(key, str) else _SCALARS.get(type(key), _dumps)(key)
                encode(value, sep + encode_basestring_ascii(key) + ": ", inner)
                sep = ",\n" + inner
            write("\n" + pad + "}")
            return
        elif not isinstance(obj, Iterator):
            write(prefix + _SCALARS.get(type(obj), _dumps)(obj))
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
        from .usage import build_parser

        args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
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
        from .formats import write  # only CSV or text compiles formats

        write(payload, args.format, out)
    out.flush()
    return code
