"""Output checker: every answer against identities and independently
computed values, never against golden bytes.

A request ends in one of four ways. `answer`: exit 0 and the output
checks. `mismatch`: exit 3 from `verify`, every mismatched claim being a
documented divergence, and the output checks. `refused`: exit 2 with a
`capacity error:` message. `failed`: anything else, including a crash,
an unexpected exit code, or an output that does not check; the last is
also reported as wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import reference
from workloads import Request

J3_F_VECTOR = [9, 36, 84, 123, 111, 50]

JAHANGIR_CLAIMS = ("spanning_tree_count", "class_partition", "cycle_catalog_size",
                   "cycle_catalog_orders", "cycle_intersections", "f_vector_closed_form",
                   "f_vector_exact_ie", "dimension_and_purity", "hilbert_series",
                   "cohen_macaulay")
GRAPH_CLAIMS = ("spanning_tree_count", "f_vector_exact_ie", "dimension_and_purity",
                "hilbert_series", "cohen_macaulay_consistency")
# Claims documented as wrong: the catalog and intersection rules (README)
# for every m, and the pair-truncated closed form (formulas.py), which the
# checker recomputes, wherever it is defined.
JAHANGIR_DIVERGENCES = {"cycle_catalog_size", "cycle_catalog_orders", "cycle_intersections",
                        "f_vector_closed_form"}
ACTION_CHECKS = {"facets": "_facets", "cycles": "_cycles", "f-vector": "_fvector",
                 "hilbert": "_hilbert", "cm": "_cm", "verify": "_verify"}


@dataclass
class Outcome:
    kind: str                                   # answer | mismatch | refused | failed
    problems: list[str] = field(default_factory=list)
    claims: int = 0                             # verify claims in the output
    unchecked: int = 0                          # of those, verdict "unchecked"
    note: str = ""

    @property
    def wrong(self) -> bool:
        return bool(self.problems)


class Checker:
    """Checks one request at a time. The first f-vector seen for each
    document is kept, and every later one for that document must equal
    it, whichever engine or action produced it."""

    def __init__(self) -> None:
        self.f_vectors: dict[str, list[int]] = {}

    def check(self, req: Request, code: int, stdout: str, stderr: str) -> Outcome:
        if code == 2 and stderr.startswith("capacity error:"):
            return Outcome("refused", note=stderr.splitlines()[0])
        if code not in (0, 3):
            lines = stderr.strip().splitlines()
            return Outcome("failed", note=f"exit {code}: {lines[-1] if lines else ''}")
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            return Outcome("failed", [f"output is not JSON: {exc}"])
        problems: list[str] = []
        out = Outcome("answer", problems)
        try:
            if payload.get("action") != req.action:
                problems.append(f"action {payload.get('action')!r}")
            getattr(self, ACTION_CHECKS[req.action])(req, payload, out)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problems.append(f"malformed output: {exc!r}")
        if code == 3:
            if req.action != "verify":
                problems.append("exit 3 outside verify")
            out.kind = "mismatch"
        if problems:
            out.kind = "failed"
        return out

    # -- shared identities -------------------------------------------------

    def _check_f(self, req: Request, f: list[int], problems: list[str]) -> None:
        doc = req.doc
        if len(f) != doc.vertices - 1:
            problems.append(f"f has {len(f)} entries, expected {doc.vertices - 1}")
        if f[0] != len(doc.edges):
            problems.append(f"f_0 {f[0]} != edge count {len(doc.edges)}")
        if f[-1] != doc.trees:
            problems.append(f"f_top {f[-1]} != tree count {doc.trees}")
        if doc.m == 3 and f != J3_F_VECTOR:
            problems.append(f"f {f} != {J3_F_VECTOR}")
        seen = self.f_vectors.setdefault(doc.name, f)
        if f != seen:
            problems.append(f"f {f} differs from {seen} seen earlier")

    def _check_closed_form(self, req: Request, f: list[int], problems: list[str]) -> None:
        want = reference.closed_form_f(req.doc.m)
        if f != want:
            problems.append(f"closed-form f {f} != published formula {want}")

    def _check_numerator(self, req: Request, f: list[int] | None, numerator: list[int],
                         power: int, problems: list[str], top: int) -> None:
        if power != req.doc.vertices - 1:
            problems.append(f"denominator power {power} != V-1 = {req.doc.vertices - 1}")
        if sum(numerator) != top:
            problems.append(f"numerator sums to {sum(numerator)}, f_top is {top}")
        if f is not None and numerator != reference.h_vector(f):
            problems.append(f"numerator {numerator} != h-vector {reference.h_vector(f)}")

    # -- actions -----------------------------------------------------------

    def _facets(self, req: Request, p: dict, out: Outcome) -> None:
        doc = req.doc
        facets = p["facets"]
        if not p["count"] == len(facets) == int(p["matrix_tree_count"]) == doc.trees:
            out.problems.append(f"count {p['count']}, {len(facets)} facets, matrix-tree "
                                f"{p['matrix_tree_count']}, reference {doc.trees}")
        if len({frozenset(x) for x in facets}) != len(facets):
            out.problems.append("repeated facet")
        bad = [x for x in facets if not reference.is_spanning_tree(doc.vertices, x, doc.edges)]
        if bad:
            out.problems.append(f"{len(bad)} facets are not spanning trees, e.g. {bad[0]}")

    def _cycles(self, req: Request, p: dict, out: Outcome) -> None:
        doc = req.doc
        entries = p["entries"]
        if not p["count"] == len(entries) == doc.cycles:
            out.problems.append(f"{p['count']} cycles, reference {doc.cycles}")
        if len({frozenset(e["edges"]) for e in entries}) != len(entries):
            out.problems.append("repeated cycle")
        for e in entries:
            if not (e["is_simple_cycle"] and e["beta"] == len(e["edges"])
                    and reference.is_simple_cycle(e["edges"], doc.edges)):
                out.problems.append(f"bad cycle entry {e}")
                break

    def _fvector(self, req: Request, p: dict, out: Outcome) -> None:
        f = [int(x) for x in p["f_vector"]]
        if p["mode"] != req.mode:
            out.problems.append(f"mode {p['mode']!r}")
        if req.mode != "formula":
            self._check_f(req, f, out.problems)
            return
        oracle = [int(x) for x in p["oracle_f_vector"]]
        self._check_f(req, oracle, out.problems)
        self._check_closed_form(req, f, out.problems)
        diffs = [{"index": i, "closed_form": str(a), "direct": str(b)}
                 for i, (a, b) in enumerate(zip(f, oracle)) if a != b]
        if p["mismatch_indices"] != diffs:
            out.problems.append(f"mismatch_indices {p['mismatch_indices']} != {diffs}")

    def _hilbert(self, req: Request, p: dict, out: Outcome) -> None:
        f = [int(x) for x in p["f_vector"]]
        if req.mode == "formula":
            self._check_closed_form(req, f, out.problems)
        else:
            self._check_f(req, f, out.problems)
        self._check_numerator(req, f, [int(x) for x in p["numerator"]],
                              p["denominator_power"], out.problems, top=f[-1])

    def _cm(self, req: Request, p: dict, out: Outcome) -> None:
        source = "block" if req.ordering == "block" else "search"
        if p["ordering_source"] != source:
            out.problems.append(f"ordering_source {p['ordering_source']!r}")
        verdict = p["cohen_macaulay"]
        if verdict is None:
            if source != "search":
                out.problems.append("cohen_macaulay is null without a search")
            return
        if verdict is not True:
            out.problems.append(f"cohen_macaulay is {verdict!r}")
        if sorted(p["certificate"] or []) != list(range(req.doc.trees)):
            out.problems.append("certificate is not a permutation of the facets")
        if source == "block" and p["shelling_agrees"] is not True:
            out.problems.append("block certificate is not a shelling")

    def _verify(self, req: Request, p: dict, out: Outcome) -> None:
        doc, problems = req.doc, out.problems
        claims = {c["name"]: c for c in p["claims"]}
        expected = JAHANGIR_CLAIMS if doc.m is not None else GRAPH_CLAIMS
        if not set(expected) <= set(claims):
            problems.append(f"claims {sorted(set(expected) - set(claims))} missing")
            return
        out.claims = len(claims)
        out.unchecked = sum(c["verdict"] == "unchecked" for c in claims.values())
        allowed = set(JAHANGIR_DIVERGENCES) if doc.m is not None else set()
        cmc = claims.get("cohen_macaulay_consistency")
        if cmc and cmc["oracle"] == {"cohen_macaulay": True, "shelling_agrees": False}:
            allowed.add("cohen_macaulay_consistency")   # a seed-dependent search order
        mismatched = [n for n, c in claims.items() if c["verdict"] == "mismatch"]
        if not set(mismatched) <= allowed:
            problems.append(f"undocumented mismatch in {sorted(set(mismatched) - allowed)}")
        if p["mismatches"] != len(mismatched):
            problems.append(f"mismatches {p['mismatches']} != {len(mismatched)}")
        if any(c["verdict"] not in ("match", "mismatch", "unchecked") for c in claims.values()):
            problems.append("unknown verdict")

        count = claims["spanning_tree_count"]
        oracle = count["oracle"]
        oracle = oracle["matrix_tree"] if isinstance(oracle, dict) else oracle
        if not count["claimed"] == oracle == doc.trees:
            problems.append(f"tree count {count['claimed']} / {oracle}, reference {doc.trees}")
        dim = claims["dimension_and_purity"]["oracle"]
        if dim != {"dimension": doc.vertices - 2, "pure": True}:
            problems.append(f"dimension_and_purity oracle {dim}")
        if doc.m is not None:
            parts = claims["class_partition"]["detail"]["class_counts"]
            if sum(parts.values()) != doc.trees:
                problems.append(f"class counts {parts} do not sum to {doc.trees}")
            size = claims["cycle_catalog_size"]
            if (size["claimed"], size["oracle"]) != (doc.m * doc.m, doc.cycles):
                problems.append(f"catalog size {size['claimed']} vs {size['oracle']}")
            closed = claims["f_vector_closed_form"]
            if closed["verdict"] != "unchecked":
                self._check_f(req, [int(x) for x in closed["oracle"]], problems)
                self._check_closed_form(req, [int(x) for x in closed["claimed"]], problems)
            cm = claims["cohen_macaulay"]
            if cm["verdict"] != "unchecked" and cm["oracle"] is not True:
                problems.append(f"cohen_macaulay oracle {cm['oracle']!r}")
        elif cmc["verdict"] == "match" and cmc["oracle"] != {"cohen_macaulay": True,
                                                              "shelling_agrees": True}:
            problems.append(f"cohen_macaulay_consistency oracle {cmc['oracle']}")
        ie = claims["f_vector_exact_ie"]
        if ie["verdict"] != "unchecked":
            for side in ("claimed", "oracle"):
                self._check_f(req, [int(x) for x in ie[side]], problems)
        hil = claims["hilbert_series"]
        if hil["verdict"] != "unchecked":
            self._check_numerator(req, self.f_vectors.get(doc.name),
                                  [int(x) for x in hil["detail"]["numerator"]],
                                  hil["detail"]["denominator_power"], problems, top=doc.trees)
