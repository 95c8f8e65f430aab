import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jahangir_ssc import (
    Graph,
    build_graph_report,
    build_jahangir,
    build_jahangir_report,
    f_vector_direct,
    hilbert_function,
    hilbert_series,
    reports,
    spanning,
)
from jahangir_ssc.algebra import CERTIFICATE_CHECK_LIMIT
from jahangir_ssc.cli import TREE_GUARD_VERTEX_LIMIT
from jahangir_ssc.graphs import MAX_CYCLE_SCAN_VERTICES, MAX_INDEPENDENT_CYCLES

EXPECTED_MISMATCH_CLAIMS = {
    "cycle_catalog_size",
    "cycle_catalog_orders",
    "cycle_intersections",
    "f_vector_closed_form",
}


# ---------------------------------------------------------------------------
# report engine


@pytest.mark.parametrize("m", [3, 4])
def test_jahangir_report_claims(m):
    report = build_jahangir_report(m, seed=0, timed=False)
    verdicts = {c.name: c.verdict for c in report.claims}
    assert len(report.claims) == 10
    assert {n for n, v in verdicts.items() if v == "mismatch"} == \
        EXPECTED_MISMATCH_CLAIMS
    assert report.mismatch_count == 4
    assert report.timings is None
    for claim in report.claims:
        if claim.verdict == "mismatch":
            assert claim.claimed is not None and claim.oracle is not None


def test_jahangir_report_timed():
    report = build_jahangir_report(3, seed=0, timed=True)
    assert report.timings is not None
    assert set(report.timings) == {c.name for c in report.claims}


def test_graph_report_triangle(triangle_file):
    from jahangir_ssc import parse_graph

    g = parse_graph(open(triangle_file).read())
    report = build_graph_report(g, seed=0, timed=False)
    assert report.mismatch_count == 0
    assert [c.verdict for c in report.claims] == ["match"] * 5


def test_graph_report_checks_hilbert_past_the_exact_ie_budget():
    # a 20-cycle: past the 18-edge budget of inclusion-exclusion only
    from jahangir_ssc import Graph

    g = Graph(20, tuple((i, (i + 1) % 20) for i in range(20)))
    claims = {c.name: c for c in build_graph_report(g).claims}
    assert claims["hilbert_series"].verdict == "match"
    ie = claims["f_vector_exact_ie"]
    assert ie.verdict == "unchecked"
    assert ie.detail == {"reason": "inclusion-exclusion over verify budget"}
    assert ie.oracle[-1] == "20"


def test_graph_report_leaves_large_certificates_unchecked():
    # J(2,6) has 2700 facets, past the certificate check limit
    cm = build_graph_report(build_jahangir(6)).claims[-1]
    assert cm.name == "cohen_macaulay_consistency" and cm.verdict == "unchecked"
    assert cm.claimed_source == "lexicographic facet order"
    assert cm.detail == {
        "reason": f"2700 facets over the certificate check limit of {CERTIFICATE_CHECK_LIMIT}"}


def test_jahangir_verify_names_the_facet_count_and_the_certificate_cap(run_cli):
    # J(2,6)'s 2700 facets are past CERTIFICATE_CHECK_LIMIT
    res = run_cli("jahangir", "--m", "6", "verify")
    assert res.code == 3
    cm = next(c for c in res.json()["claims"] if c["name"] == "cohen_macaulay")
    assert cm["verdict"] == "unchecked" and cm["claimed"] is True
    assert cm["detail"] == {
        "reason": f"2700 facets over the certificate check limit of {CERTIFICATE_CHECK_LIMIT}"}


def _termwise_diverging_degrees(series, f):
    """The Hilbert identities degree by degree: one hilbert_function
    call and a fresh binomial per term."""
    out = []
    for j in range(1, 2 * len(f) + 1):
        expanded = hilbert_function(series, j)
        combinatorial = sum(fi * math.comb(j - 1, i) for i, fi in enumerate(f))
        if expanded != combinatorial:
            out.append({"degree": j, "expansion": str(expanded),
                        "combinatorial": str(combinatorial)})
    return out


@pytest.mark.parametrize("shift", [0, 1, -3])
def test_hilbert_claim_matches_the_termwise_identities(monkeypatch, shift):
    # shifting the series' top coefficient makes degrees diverge, which
    # the claim must list exactly as the termwise loop does
    def tampered(f):
        series = hilbert_series(f)
        return series._replace(numerator=series.numerator[:-1] +
                               (series.numerator[-1] + shift,))

    monkeypatch.setattr(reports, "hilbert_series", tampered)
    graphs = [build_jahangir(m) for m in (3, 4, 5)] + [
        Graph(3, ((0, 1), (1, 2), (0, 2))),
        Graph(60, tuple((i, (i + 1) % 60) for i in range(60)))]
    for g in graphs:
        f = f_vector_direct(g)
        claim = reports._claim_hilbert(f, None, f[-1])
        want = _termwise_diverging_degrees(tampered(f), f)
        assert claim.detail["diverging_degrees"] == want
        assert bool(want) == bool(shift)
        assert claim.verdict == ("mismatch" if shift else "match")


@pytest.mark.parametrize("tamper, oracle", [
    # one facet of J(2,3) swapped for a 5-edge mask: mixed sizes
    (lambda facets: [0b11111] + facets[1:], {"dimension": 5, "pure": False}),
    # every facet one edge short
    (lambda facets: [f & (f - 1) for f in facets], {"dimension": 4, "pure": True}),
], ids=["non-pure", "short"])
def test_dimension_claim_can_mismatch(monkeypatch, tamper, oracle):
    listed = reports.enumerate_spanning_trees_generic
    monkeypatch.setattr(reports, "enumerate_spanning_trees_generic",
                        lambda g: tamper(listed(g)))
    claim = next(c for c in build_jahangir_report(3).claims
                 if c.name == "dimension_and_purity")
    assert claim.claimed == {"dimension": 5, "pure": True}
    assert claim.oracle == oracle
    assert claim.verdict == "mismatch"


def test_one_determinant_per_request(run_cli, triangle_file):
    # the tree-count guard's determinant serves the whole request: the
    # reports and the cm verdict take its count instead of their own
    from jahangir_ssc import graphs

    determinant = graphs.matrix_tree_count.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is determinant:
            calls += 1

    for argv in (("jahangir", "--m", "3", "verify"),
                 ("jahangir", "--m", "3", "cm"),
                 ("jahangir", "--m", "3", "cm", "--ordering", "search"),
                 ("jahangir", "--m", "3", "facets"),
                 ("graph", "--input", triangle_file, "verify"),
                 ("graph", "--input", triangle_file, "cm")):
        calls = 0
        sys.setprofile(count)
        try:
            res = run_cli(*argv)
        finally:
            sys.setprofile(None)
        assert res.code in (0, 3), argv
        assert calls == 1, argv


# ---------------------------------------------------------------------------
# happy paths


def test_facets_json(run_cli):
    res = run_cli("jahangir", "--m", "3", "facets")
    assert res.code == 0
    doc = res.json()
    assert doc["command"] == "jahangir" and doc["m"] == 3
    assert doc["count"] == 50 and doc["matrix_tree_count"] == 50
    assert len(doc["facets"]) == 50
    assert all(len(f) == 6 for f in doc["facets"])
    assert doc["facets"][0][0].startswith("e")


def test_classes_json(run_cli):
    doc = run_cli("jahangir", "--m", "4", "classes").json()
    assert doc["counts"] == {"CJ1": 16, "CJ2": 64, "CJ3a": 80,
                             "CJ3b": 32, "CJ3c": 0}
    assert doc["total"] == doc["matrix_tree_count"] == 192


def test_classes_lists_no_tree(run_cli):
    # the counts come one product per spoke set, so the structured
    # enumerator never runs
    spanning._structured_trees.cache_clear()
    doc = run_cli("jahangir", "--m", "9", "classes").json()
    assert doc["total"] == doc["matrix_tree_count"] == 140450
    assert spanning._structured_trees.cache_info().misses == 0


def test_cycles_catalogs_differ(run_cli):
    word = run_cli("jahangir", "--m", "3", "cycles").json()
    oracle = run_cli("jahangir", "--m", "3", "cycles", "--catalog", "oracle").json()
    assert word["count"] == 9 and oracle["count"] == 7
    assert word["catalog"] == "word" and oracle["catalog"] == "oracle"
    flags = [e["is_simple_cycle"] for e in word["entries"]]
    assert flags.count(False) == 3  # the full-length words


def test_fvector_modes(run_cli):
    direct = run_cli("jahangir", "--m", "3", "f-vector").json()
    assert direct["f_vector"] == ["9", "36", "84", "123", "111", "50"]
    exact = run_cli("jahangir", "--m", "3", "f-vector", "--mode", "exact-ie").json()
    assert exact["f_vector"] == direct["f_vector"]

    formula = run_cli("jahangir", "--m", "3", "f-vector", "--mode", "formula").json()
    assert formula["f_vector"][-1] == "51"
    assert formula["oracle_f_vector"] == direct["f_vector"]
    assert formula["mismatch_indices"] == [
        {"index": 5, "closed_form": "51", "direct": "50"}]
    assert formula["audit"]  # the term trail is part of the contract


def test_mode_paper_is_an_alias(run_cli):
    via_alias = run_cli("jahangir", "--m", "3", "f-vector", "--mode", "paper")
    direct = run_cli("jahangir", "--m", "3", "f-vector", "--mode", "formula")
    assert via_alias.code == direct.code == 0
    assert via_alias.stdout == direct.stdout
    assert via_alias.json()["mode"] == "formula"  # echoed normalized


def test_fvector_large_m(run_cli):
    # 30 edges: the frontier sweep answers at once
    res = run_cli("jahangir", "--m", "10", "f-vector")
    assert res.code == 0
    f = res.json()["f_vector"]
    assert len(f) == 20 and f[0] == "30" and f[-1] == "524172"


def test_hilbert_json(run_cli):
    doc = run_cli("jahangir", "--m", "3", "hilbert").json()
    assert doc["numerator"] == ["1", "3", "6", "10", "12", "12", "6"]
    assert doc["denominator_power"] == 6


def test_cm_json(run_cli):
    doc = run_cli("jahangir", "--m", "3", "cm").json()
    assert doc["cohen_macaulay"] is True
    assert doc["ordering"] == "block" and doc["ordering_source"] == "block"
    assert doc["shelling_agrees"] is True
    assert len(doc["certificate"]) == 50

    alias = run_cli("jahangir", "--m", "3", "cm", "--ordering", "paper").json()
    assert alias == doc

    searched = run_cli("jahangir", "--m", "3", "cm", "--ordering", "search").json()
    assert searched["cohen_macaulay"] is True
    assert searched["ordering_source"] == "search"


def test_csv_and_text_formats(run_cli):
    csv_out = run_cli("jahangir", "--m", "3", "classes", "--format", "csv")
    lines = csv_out.stdout.strip().splitlines()
    assert lines[0] == "class,count"
    assert "CJ1,8" in lines and "total,50" in lines

    text_out = run_cli("jahangir", "--m", "3", "f-vector", "--format", "text",
                       "--mode", "formula")
    assert "f = (9, 36, 84, 123, 111, 51)" in text_out.stdout
    assert "i=5" in text_out.stdout and "50" in text_out.stdout

    hil = run_cli("jahangir", "--m", "3", "hilbert", "--format", "text")
    assert hil.stdout.strip().endswith("over (1-t)^6")


def test_verify_exit_code_reflects_mismatches(run_cli, triangle_file):
    res = run_cli("jahangir", "--m", "3", "verify")
    assert res.code == 3
    doc = json.loads(res.stdout)
    assert doc["mismatches"] == 4
    names = {c["name"] for c in doc["claims"] if c["verdict"] == "mismatch"}
    assert names == EXPECTED_MISMATCH_CLAIMS

    clean = run_cli("graph", "--input", triangle_file, "verify")
    assert clean.code == 0
    assert json.loads(clean.stdout)["mismatches"] == 0


def test_verify_text_format(run_cli):
    res = run_cli("jahangir", "--m", "3", "verify", "--format", "text")
    assert res.code == 3
    assert "mismatches: 4" in res.stdout
    assert "[ mismatch]" in res.stdout


def test_verify_timings_flag(run_cli):
    plain = run_cli("jahangir", "--m", "3", "verify").json()
    timed = run_cli("jahangir", "--m", "3", "verify", "--timings").json()
    assert plain["timings"] is None
    assert timed["timings"] is not None and len(timed["timings"]) == 10


def test_output_is_byte_deterministic(run_cli):
    for argv in (
        ("jahangir", "--m", "4", "verify"),
        ("jahangir", "--m", "3", "cm", "--ordering", "search", "--seed", "7"),
        ("jahangir", "--m", "4", "f-vector", "--mode", "formula"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.stdout == second.stdout
        assert first.code == second.code


# ---------------------------------------------------------------------------
# graph command


def test_graph_round_trip(tmp_path, run_cli):
    from jahangir_ssc import emit_graph

    path = tmp_path / "j3.json"
    path.write_text(emit_graph(build_jahangir(3)))
    doc = run_cli("graph", "--input", str(path), "facets").json()
    native = run_cli("jahangir", "--m", "3", "facets").json()
    assert doc["count"] == 50
    assert sorted(map(sorted, doc["facets"])) == sorted(map(sorted, native["facets"]))


def test_graph_fvector_and_cm(triangle_file, run_cli):
    fv = run_cli("graph", "--input", triangle_file, "f-vector").json()
    assert fv["f_vector"] == ["3", "3"]
    cm = run_cli("graph", "--input", triangle_file, "cm").json()
    assert cm["cohen_macaulay"] is True and cm["ordering_source"] == "search"


@pytest.fixture(scope="module")
def petersen_file(tmp_path_factory):
    from jahangir_ssc import Graph, emit_graph

    edges = []
    for i in range(5):
        edges += [(i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5)]
    path = tmp_path_factory.mktemp("docs") / "petersen.json"
    path.write_text(emit_graph(Graph(10, tuple(edges))))
    return str(path)


def test_graph_one_vertex(tmp_path, run_cli):
    # the complex {empty set}: f-vector (), Hilbert series 1
    path = tmp_path / "one.json"
    path.write_text('{"vertices": 1, "edges": []}')
    runs = {action: run_cli("graph", "--input", str(path), action)
            for action in ("facets", "cycles", "f-vector", "hilbert", "cm", "verify")}
    assert {a: r.code for a, r in runs.items()} == dict.fromkeys(runs, 0)
    assert runs["facets"].json()["facets"] == [[]]
    assert runs["f-vector"].json()["f_vector"] == []
    hilbert = runs["hilbert"].json()
    assert hilbert["numerator"] == ["1"] and hilbert["denominator_power"] == 0
    assert runs["cm"].json()["cohen_macaulay"] is True
    claims = runs["verify"].json()["claims"]
    assert [c["verdict"] for c in claims] == ["match"] * 5


def test_graph_without_spanning_complex(tmp_path, run_cli):
    # no vertex, or two components: only cycles answers, with one message
    message = ("error: a graph with no vertex or more than one component "
               "has no spanning complex\n")
    for name, doc, cycles_code in (("empty", '{"vertices": 0, "edges": []}', 1),
                                   ("split", '{"vertices": 4, "edges": [[0, 1], [2, 3]]}', 0)):
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        for action in ("facets", "cycles", "f-vector", "hilbert", "cm", "verify"):
            res = run_cli("graph", "--input", str(path), action)
            if action == "cycles":
                assert res.code == cycles_code
            else:
                assert (res.code, res.stdout, res.stderr) == (1, "", message)


def test_graph_cm_petersen(petersen_file, run_cli):
    # 2000 facets: the canonical order is the certificate, and a shelling
    res = run_cli("graph", "--input", petersen_file, "cm")
    assert res.code == 0
    cm = res.json()
    assert cm["cohen_macaulay"] is True and cm["ordering_source"] == "search"
    assert cm["certificate"] == list(range(2000))
    assert cm["shelling_agrees"] is True


def test_graph_verify_petersen(petersen_file, run_cli):
    # 57 simple cycles: exact inclusion-exclusion answers within its step cap
    res = run_cli("graph", "--input", petersen_file, "verify")
    assert res.code == 0
    claims = res.json()["claims"]
    assert len(claims) == 5
    assert [c["verdict"] for c in claims] == ["match"] * 5


def test_graph_verify_names_the_refusing_sweep(tmp_path, run_cli):
    # a 150-vertex path with its four chords listed last: every chord end
    # stays in the sweep's frontier, so the sweep refuses, and the claims
    # it would check give its own refusal as their reason
    from jahangir_ssc import Graph, emit_graph

    edges = [(i, i + 1) for i in range(149)] + [(a, a + 3) for a in (16, 48, 80, 112)]
    path = tmp_path / "long.json"
    path.write_text(emit_graph(Graph(150, tuple(edges))))
    res = run_cli("graph", "--input", str(path), "verify")
    assert res.code == 0
    claims = {c["name"]: c for c in res.json()["claims"]}
    reason = {"reason": "forest sweep over 153 edges exceeds the step bound 1200000"}
    ie, hilbert = claims["f_vector_exact_ie"], claims["hilbert_series"]
    assert ie["verdict"] == hilbert["verdict"] == "unchecked"
    assert ie["oracle_source"] == "frontier forest sweep"
    assert ie["detail"] == hilbert["detail"] == reason
    assert claims["spanning_tree_count"]["oracle"] == 256


# ---------------------------------------------------------------------------
# failure paths and exit codes


def test_usage_errors_exit_1(run_cli, triangle_file):
    assert run_cli("jahangir", "--m", "3", "nonsense").code == 1
    assert run_cli("jahangir", "facets").code == 1          # --m missing
    assert run_cli("jahangir", "--m", "3").code == 1        # action missing
    assert run_cli().code == 1                              # command missing
    assert run_cli("jahangir", "--m", "3", "facets", "--mode", "bogus").code == 1
    assert run_cli("jahangir", "--m", "3", "--n", "4", "facets").code == 1
    assert run_cli("jahangir", "--m", "2", "facets").code == 1
    # generic command refuses the structured engines
    assert run_cli("graph", "--input", triangle_file, "classes").code == 1
    assert run_cli("graph", "--input", triangle_file,
                   "f-vector", "--mode", "formula").code == 1
    assert run_cli("graph", "--input", triangle_file,
                   "cycles", "--catalog", "word").code == 1
    assert run_cli("graph", "--input", triangle_file,
                   "cm", "--ordering", "block").code == 1


def test_parse_errors_exit_1(tmp_path, run_cli):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": 3, "edges": [[0, 1], [0]]}')
    res = run_cli("graph", "--input", str(bad), "facets")
    assert res.code == 1
    assert "edges[1]" in res.stderr

    missing = run_cli("graph", "--input", str(tmp_path / "absent.json"), "facets")
    assert missing.code == 1 and "cannot read" in missing.stderr


def test_capacity_errors_exit_2(tmp_path, run_cli):
    from jahangir_ssc import Graph, emit_graph

    res = run_cli("jahangir", "--m", "6", "f-vector", "--mode", "formula")
    assert res.code == 2
    assert "capacity" in res.stderr
    # 524172 spanning trees: the determinant precheck refuses to enumerate
    for action in ("facets", "verify"):
        res = run_cli("jahangir", "--m", "10", action)
        assert res.code == 2
        assert res.stderr.startswith("capacity error:")
    # K12: the frontier sweep is past its step bound
    k12 = tmp_path / "k12.json"
    k12.write_text(emit_graph(Graph(12, tuple(
        (u, v) for u in range(12) for v in range(u + 1, 12)))))
    res = run_cli("graph", "--input", str(k12), "f-vector")
    assert res.code == 2
    assert res.stderr.startswith("capacity error:") and "step bound" in res.stderr
    # K7 plus 15 pendant leaves: 1172 cycles, none pruned, past the step cap
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    edges += [(i % 7, 7 + i) for i in range(15)]
    path = tmp_path / "k7_leaves.json"
    path.write_text(emit_graph(Graph(22, tuple(edges))))
    for action in ("f-vector", "hilbert"):
        res = run_cli("graph", "--input", str(path), action, "--mode", "exact-ie")
        assert res.code == 2
        assert "step bound" in res.stderr
    # a chain of triangles one past the cycle-space rank cap: refused
    # before the 2^rank scan starts
    k = MAX_INDEPENDENT_CYCLES + 1
    edges = []
    for i in range(k):
        edges += [(2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2), (2 * i, 2 * i + 2)]
    path = tmp_path / "triangles.json"
    path.write_text(emit_graph(Graph(2 * k + 1, tuple(edges))))
    start = time.perf_counter()
    res = run_cli("graph", "--input", str(path), "cycles")
    assert time.perf_counter() - start < 1.0
    assert res.code == 2
    assert res.stderr.startswith("capacity error:") and "cycle space rank" in res.stderr


def test_exact_ie_refuses_large_sparse_documents_within_budget(tmp_path, run_cli):
    # two 4-cycles on a long path: three subsets of cycles, but every
    # binomial is thousands of bits wide and the answer grows as V^2 bits,
    # so the step bound must charge the words, not count the terms
    from jahangir_ssc import Graph, emit_graph

    for n in (4000, 20000):
        edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, 3), (n // 2, n // 2 + 3))
        path = tmp_path / f"path{n}.json"
        path.write_text(emit_graph(Graph(n, edges)))
        start = time.perf_counter()
        res = run_cli("graph", "--input", str(path), "f-vector", "--mode", "exact-ie")
        assert time.perf_counter() - start < 2.0
        assert res.code == 2
        assert res.stderr == ("capacity error: inclusion-exclusion over 2 simple cycles "
                              "exceeds the step bound 3000000\n")


# Run in a child capped at 1 GB of address space, so that a regression
# fails here instead of exhausting the machine: each request must be
# refused before anything of size m^2 is built.
CAPPED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from jahangir_ssc import CapacityError, build_jahangir, oracle_cycle_catalog
from jahangir_ssc.cli import main
try:
    oracle_cycle_catalog(build_jahangir(300))
    sys.exit("the oracle catalog of J(2,300) answered")
except CapacityError:
    pass
for argv in (["jahangir", "--m", "1000", "cycles", "--catalog", "oracle"],
             ["jahangir", "--m", "1000000", "cycles"],
             ["jahangir", "--m", "1000000", "f-vector"],
             ["jahangir", "--m", "208", "f-vector"]):
    if main(argv) != 2:
        sys.exit(f"{argv} was not refused")
"""


def _child_env() -> dict[str, str]:
    """The environment of a child that imports the package from this
    checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _run_child(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=_child_env(), timeout=60)


def test_large_m_is_refused_within_a_memory_cap():
    proc = _run_child(CAPPED_CHILD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        f"capacity error: m = {m} exceeds 207, the largest m any engine answers"
        for m in (1000, 1000000, 1000000, 208)]


# The tracer of perfbench indexes the eight layer modules right after
# `import jahangir_ssc.cli`, and a request must not pay for dataclasses
# and the inspect, ast and dis modules it pulls in. A child, because the
# test session has imported them already. The package registers its
# layers lazily: a layer has run once its type is the plain module type,
# and type() reads no attribute, so the check runs none.
STARTUP_CHILD = """
import sys, types
import jahangir_ssc.cli
print(*sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
print(*sorted(m for m in sys.modules if m.startswith("jahangir_ssc.")))
print(*sorted(m for m in sys.modules if m.startswith("jahangir_ssc.")
              and type(sys.modules[m]) is types.ModuleType))
"""

# The layers one request runs, after the answer.
EXECUTED_CHILD = """
import contextlib, io, sys, types
from jahangir_ssc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m[len("jahangir_ssc."):] for m in sys.modules
                    if m.startswith("jahangir_ssc.")
                    and type(sys.modules[m]) is types.ModuleType))
"""

# Beside errors and cli, which every request runs.
EXECUTED_LAYERS = {
    ("f-vector",): "complexes graphs spanning",
    ("hilbert", "--mode", "exact-ie"): "formulas graphs",
    ("facets",): "graphs spanning",
    ("cm",): "algebra cycles graphs spanning",
    ("verify",): "algebra complexes cycles formulas graphs reports spanning",
}


def test_startup_imports_every_layer_and_no_dataclass_machinery():
    proc = _run_child(STARTUP_CHILD)
    assert proc.returncode == 0, proc.stderr
    unwanted, modules, executed = proc.stdout.split("\n")[:3]
    assert unwanted == ""
    layers = ("graphs", "cycles", "spanning", "complexes", "formulas", "algebra",
              "reports", "cli")
    assert {f"jahangir_ssc.{layer}" for layer in layers} <= set(modules.split())
    assert executed.split() == ["jahangir_ssc.cli", "jahangir_ssc.errors"]
    for action, ran in EXECUTED_LAYERS.items():
        proc = _run_child(EXECUTED_CHILD, "jahangir", "--m", "3", *action)
        assert proc.returncode == 0, proc.stderr
        code, *names = proc.stdout.split()
        assert int(code) == (3 if action == ("verify",) else 0)
        assert names == sorted(["cli", "errors", *ran.split()]), action


# Four threads make the first reads of two layers at once, switching
# every microsecond: none may see a layer whose body has not finished.
THREADS_CHILD = """
import sys, threading
sys.setswitchinterval(1e-6)
import jahangir_ssc
barrier = threading.Barrier(4)
failures = []
def first_use():
    barrier.wait()
    try:
        jahangir_ssc.reports.build_jahangir_report
        jahangir_ssc.graphs.parse_graph('{"vertices": 1, "edges": []}')
    except Exception as exc:
        failures.append(repr(exc))
threads = [threading.Thread(target=first_use) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
print(failures, sum(t.is_alive() for t in threads))
"""


def test_first_use_of_a_layer_is_safe_across_threads():
    for _ in range(3):
        proc = _run_child(THREADS_CHILD)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[] 0\n"


# graphs' body fails on its import from errors: every read raises that
# error, not an AttributeError of the half-run module, until the import
# can succeed; the module then runs whole, still the one in sys.modules.
RAISING_CHILD = """
import sys, types
import jahangir_ssc
from jahangir_ssc import errors
saved = errors.CapacityError
del errors.CapacityError
for _ in range(2):
    try:
        jahangir_ssc.graphs.Graph
    except ImportError as exc:
        print(type(exc).__name__, "CapacityError" in str(exc))
errors.CapacityError = saved
print(jahangir_ssc.graphs.build_jahangir(3).vertex_count,
      type(jahangir_ssc.graphs) is types.ModuleType,
      sys.modules["jahangir_ssc.graphs"] is jahangir_ssc.graphs)
"""


def test_a_layer_whose_body_raises_raises_again_at_next_use():
    proc = _run_child(RAISING_CHILD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ImportError True", "ImportError True",
                                        "7 True True"]


# verify --m 9 in a child that reads its own high-water mark; the
# ru_maxrss of a spawned child reports at least its spawner's.
VERIFY_RSS_CHILD = """
import contextlib, io
from jahangir_ssc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["jahangir", "--m", "9", "verify"])
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, hwm_kb)
"""


# Comparing the trees as sorted lists instead of sets takes verify
# --m 9 from 55 MB to 45.5 MB of peak RSS on CPython 3.11, and keeping
# the structured trees as bare masks instead of a record per tree takes
# it to 29-30 MB. This bound leaves 5.5 MB of margin and fails when a
# hash table of every tree, or a record per tree, comes back.
VERIFY_SORTED_RSS_MB = 35.5


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_verify_hashes_no_tree():
    proc = _run_child(VERIFY_RSS_CHILD)
    assert proc.returncode == 0, proc.stderr
    code, hwm_kb = map(int, proc.stdout.split())
    assert code == 3
    assert hwm_kb < VERIFY_SORTED_RSS_MB * 1024


# A path of 200,000 vertices is a forest as deep as it is long: a mask
# kept per vertex for its root path would need V^2/2 bits, 2.5 GB here.
# Under the same 1 GB cap, a tree, three short cycles far apart in the
# edge order, the whole path closed into one cycle, and a rank-18
# refusal must each come back.
DEEP_PATH_CHILD = """
import contextlib, io, json, os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from jahangir_ssc import Graph, emit_graph
from jahangir_ssc.cli import main
n = 200000
path = tuple((i, i + 1) for i in range(n - 1))
for k, chords in enumerate(([], [(0, 3), (1, 4), (n - 5, n - 1)], [(0, n - 1)],
                            [(i, i + 2) for i in range(0, 72, 4)])):
    doc = os.path.join(sys.argv[1], f"path{k}.json")
    with open(doc, "w") as fh:
        fh.write(emit_graph(Graph(n, path + tuple(chords))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["graph", "--input", doc, "cycles"])
    print(code, json.loads(out.getvalue())["count"] if code == 0 else None)
"""


def test_deep_forest_is_scanned_within_a_memory_cap(tmp_path):
    proc = _run_child(DEEP_PATH_CHILD, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 0", "0 4", "0 1", "2 None"]
    assert proc.stderr.splitlines() == [
        f"capacity error: cycle space rank 18 exceeds {MAX_INDEPENDENT_CYCLES}; "
        "exhaustive cycle enumeration refused"]


# Forty bytes name 10^8 vertices. Nothing may be built per vertex: the
# spanning-complex actions see at once that no edge connects them, the
# cycle scan refuses by its vertex bound, and every action ends in one
# line on stderr under the 1 GB cap.
HUGE_EMPTY_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from jahangir_ssc.cli import ACTIONS, main
for action in ACTIONS:
    print(action, main(["graph", "--input", sys.argv[1], action]))
"""


def test_a_huge_empty_document_is_refused_within_a_memory_cap(tmp_path):
    doc = tmp_path / "empty.json"
    doc.write_text('{"vertices": 100000000, "edges": []}')
    proc = _run_child(HUGE_EMPTY_CHILD, str(doc))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "facets 1", "classes 1", "cycles 2", "f-vector 1", "hilbert 1", "cm 1", "verify 1"]
    disconnected = ("error: a graph with no vertex or more than one component has "
                    "no spanning complex")
    assert proc.stderr.splitlines() == [
        disconnected,
        "error: tree classes are defined only for the jahangir command",
        f"capacity error: 100000000 vertices exceed {MAX_CYCLE_SCAN_VERTICES}; "
        "exhaustive cycle enumeration refused",
        disconnected, disconnected, disconnected, disconnected]


def test_tree_count_guard_refuses_before_the_determinant(run_cli, tmp_path):
    # the vertex bound refuses an 800-cycle before its tree count runs
    from jahangir_ssc import Graph, emit_graph

    n = 800
    path = tmp_path / "cycle.json"
    path.write_text(emit_graph(Graph(n, tuple((i, (i + 1) % n) for i in range(n)))))
    start = time.perf_counter()
    res = run_cli("graph", "--input", str(path), "facets")
    assert time.perf_counter() - start < 1.0
    assert res.code == 2 and res.stdout == ""
    assert res.stderr == (f"capacity error: {n} vertices exceed {TREE_GUARD_VERTEX_LIMIT}, "
                          "the largest graph whose spanning trees are counted\n")
    assert TREE_GUARD_VERTEX_LIMIT >= build_jahangir(207).vertex_count


def test_tree_counts_at_the_guard_cap_answer_within_budget(run_cli, tmp_path):
    # the guard counts the trees of its largest graphs in milliseconds,
    # so J(2,207)'s refusal and a 415-cycle's answer come quickly
    trees = ("24725343818967091450444086481126047509107706246989474567211283"
             "198039568775920544226439307706965763312507243644734938050")
    start = time.perf_counter()
    res = run_cli("jahangir", "--m", "207", "verify")
    assert time.perf_counter() - start < 1.0
    assert res.code == 2 and res.stdout == ""
    assert res.stderr == (f"capacity error: {trees} spanning trees exceed the "
                          "enumeration limit 500000\n")

    from jahangir_ssc import Graph, emit_graph

    n = TREE_GUARD_VERTEX_LIMIT
    path = tmp_path / "cycle.json"
    path.write_text(emit_graph(Graph(n, tuple((i, (i + 1) % n) for i in range(n)))))
    start = time.perf_counter()
    res = run_cli("graph", "--input", str(path), "cm")
    assert time.perf_counter() - start < 2.0
    assert res.code == 0 and res.stderr == ""
    doc = res.json()
    assert doc["cohen_macaulay"] is True and len(doc["certificate"]) == n

    # its Hilbert identities run to degree 828 over binomials of up to
    # 800 bits: 0.7 s here, and 11 s when each term took its own
    # math.comb
    start = time.perf_counter()
    res = run_cli("graph", "--input", str(path), "verify")
    assert time.perf_counter() - start < 5.0
    assert res.code == 0 and res.stderr == ""
    assert {c["name"]: c["verdict"] for c in res.json()["claims"]}["hilbert_series"] == "match"


def test_jahangir_207_is_answered(run_cli):
    res = run_cli("jahangir", "--m", "207", "f-vector")
    assert res.code == 0 and len(res.json()["f_vector"]) == 414


def test_stdout_stays_clean_on_errors(run_cli):
    res = run_cli("jahangir", "--m", "6", "f-vector", "--mode", "formula")
    assert res.stdout == ""
    assert res.stderr != ""


# ---------------------------------------------------------------------------
# the process entry: `python -m jahangir_ssc`, as `jssc` runs it


# golden requests for exit codes 0 to 3, every format, a usage error and
# --help (argparse's SystemExit), then an answer larger than a pipe
# buffer, which comes through whole only if the entry flushes it before
# os._exit
ENTRY_SAMPLE = (
    ("jahangir", "--m", "3", "hilbert", "--format", "json"),
    ("jahangir", "--m", "4", "classes", "--format", "csv"),
    ("jahangir", "--m", "3", "f-vector", "--mode", "formula", "--format", "text"),
    ("jahangir", "--m", "3", "verify", "--format", "text"),
    ("graph", "--input", "petersen.json", "cm", "--format", "csv"),
    ("graph", "--input", "bad.json", "facets"),
    ("graph", "--input", "absent.json", "facets"),
    ("jahangir", "--m", "10", "facets"),
    ("jahangir", "--m", "3", "nonsense"),
    ("jahangir", "facets"),
    ("jahangir", "--m", "3", "cm", "--help"),
    ("jahangir", "--m", "7", "facets"),
)


def test_module_entry_point(run_cli, tmp_path, monkeypatch):
    from test_golden_cli import _documents, requests

    assert set(ENTRY_SAMPLE[:-2]) <= set(requests())
    for name, text in _documents().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width
    # block-buffered, so the tail of each answer is still in the buffer
    # when main returns
    env = {key: value for key, value in _child_env().items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONIOENCODING"] = "utf-8"
    codes = set()
    for argv in ENTRY_SAMPLE:
        proc = subprocess.run([sys.executable, "-m", "jahangir_ssc", *argv],
                              capture_output=True, env=env, timeout=60)
        want = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            want.code, want.stdout.encode(), want.stderr.encode()), argv
        codes.add(want.code)
    assert codes == {0, 1, 2, 3}
    # the last answer, 10,082 facets in 1.9 MB
    assert len(proc.stdout) > 1 << 20 and len(json.loads(proc.stdout)["facets"]) == 10082


# the entry before os._exit: the interpreter's ordinary exit
EXIT_CHILD = """
import sys
from jahangir_ssc.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("m, action", [("3", "hilbert"), ("7", "facets")])
def test_a_closed_stdout_ends_as_the_ordinary_exit(m, action, unbuffered):
    # buffered, the small answer fails at the last flush: exit 120 and
    # "Exception ignored in: <stdout>"; the others fail inside main
    env = {key: value for key, value in _child_env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    ends = []
    for entry in (["-m", "jahangir_ssc"], ["-c", EXIT_CHILD]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, *entry, "jahangir", "--m", m, action],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
        finally:
            os.close(write_end)
        lines = proc.stderr.splitlines()
        ends.append((proc.returncode, lines[0], lines[-1]))
    assert ends[0] == ends[1]
    assert ends[0][0] != 0 and ends[0][2] == "BrokenPipeError: [Errno 32] Broken pipe"


# run() ends the process by os._exit, which skips every atexit hook, so
# the package must register none
ATEXIT_CHILD = """
import atexit, contextlib, io
before = atexit._ncallbacks()
import jahangir_ssc.__main__
from jahangir_ssc.cli import ACTIONS, main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["jahangir", "--m", "3", action]) for action in ACTIONS]
print(before, atexit._ncallbacks(), *codes)
"""


def test_every_exported_name_resolves():
    # a star import fails on a name that __all__ lists and the package lacks
    import jahangir_ssc

    namespace: dict = {}
    exec("from jahangir_ssc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(jahangir_ssc.__all__)
    # each name is the object its home layer defines, read from there
    for name in jahangir_ssc.__all__:
        home = f"jahangir_ssc.{jahangir_ssc._HOMES[name]}"
        obj = getattr(jahangir_ssc, name)
        assert obj is getattr(sys.modules[home], name)
        assert getattr(obj, "__module__", home) in (home, "builtins"), name
    with pytest.raises(AttributeError, match="no_such_name"):
        jahangir_ssc.no_such_name
    assert not hasattr(jahangir_ssc, "no_such_name")
    assert set(jahangir_ssc.__all__) <= set(dir(jahangir_ssc))


def test_the_package_registers_no_exit_hook():
    proc = _run_child(ATEXIT_CHILD)
    assert proc.returncode == 0, proc.stderr
    before, after, *codes = map(int, proc.stdout.split())
    assert after == before
    assert codes == [0, 0, 0, 0, 0, 0, 3]
