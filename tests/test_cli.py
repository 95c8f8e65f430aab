import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jahangir_ssc import (
    CapacityError,
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
from jahangir_ssc.errors import (
    CAPS,
    JAHANGIR_M_LIMIT,
    JssError,
    MAX_CYCLE_SCAN_VERTICES,
    MAX_INDEPENDENT_CYCLES,
    TREE_GUARD_VERTEX_LIMIT,
)

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
    report = build_jahangir_report(m)
    verdicts = {c.name: c.verdict for c in report.claims}
    assert len(report.claims) == 10
    assert {n for n, v in verdicts.items() if v == "mismatch"} == \
        EXPECTED_MISMATCH_CLAIMS
    assert report.mismatch_count == 4
    for claim in report.claims:
        if claim.verdict == "mismatch":
            assert claim.claimed is not None and claim.oracle is not None


def test_jahangir_report_timed():
    report = build_jahangir_report(3)
    assert list(report.timings) == [c.name for c in report.claims]


def test_a_claim_is_timed_with_the_shared_inputs_it_reads_first(monkeypatch):
    # the partition is first read by spanning_tree_count, whose seconds
    # then include it
    partition = reports.verify_partition

    def slow(m):
        time.sleep(0.2)
        return partition(m)

    monkeypatch.setattr(reports, "verify_partition", slow)
    assert build_jahangir_report(3).timings["spanning_tree_count"] >= 0.2


def test_a_refused_shared_input_leaves_its_claims_unchecked(monkeypatch):
    def refused(g):
        raise CapacityError("x")

    kept = {c.name: c for c in build_jahangir_report(3).claims}
    monkeypatch.setattr(reports, "f_vector_direct", refused)
    for claim in build_jahangir_report(3).claims:
        if claim.name in ("f_vector_exact_ie", "f_vector_closed_form", "hilbert_series",
                          "cohen_macaulay"):
            assert claim.verdict == "unchecked"
            assert claim.detail == {"reason": "x"}
            assert (claim.claimed_source, claim.oracle_source) == \
                (kept[claim.name].claimed_source, kept[claim.name].oracle_source)
        else:
            assert claim == kept[claim.name]


def _sources(report):
    return [(c.name, c.claimed_source, c.oracle_source) for c in report.claims]


def test_a_claim_has_its_sources_whether_checked_or_not(triangle_file):
    from jahangir_ssc import parse_graph

    # J(2,7) leaves no claim unchecked; the long document, whose sweep
    # is refused, the exact-ie, Hilbert and Cohen-Macaulay claims
    small, large = build_jahangir_report(3), build_jahangir_report(7)
    assert {c.name for c in large.claims if c.verdict == "unchecked"} == set()
    assert _sources(small) == _sources(large)
    # the closed form answers at every m: at m = 7 it first departs at
    # i = 6, by the 7 theta subgraphs its pair truncation misses
    closed_form = next(c for c in large.claims if c.name == "f_vector_closed_form")
    assert closed_form.verdict == "mismatch"
    first = closed_form.detail["diverging_indices"][0]
    assert first["index"] == 6 and int(first["closed_form"]) - int(first["direct"]) == 7

    long = Graph(150, tuple((i, i + 1) for i in range(149))
                 + tuple((a, a + 3) for a in (16, 48, 80, 112)))
    refused = build_graph_report(long)
    assert {c.name for c in refused.claims if c.verdict == "unchecked"} == {
        "f_vector_exact_ie", "hilbert_series", "cohen_macaulay_consistency"}
    assert _sources(build_graph_report(parse_graph(Path(triangle_file).read_text()))) == \
        _sources(refused)


def test_graph_report_triangle(triangle_file):
    from jahangir_ssc import parse_graph

    g = parse_graph(Path(triangle_file).read_text())
    report = build_graph_report(g)
    assert report.mismatch_count == 0
    assert [c.verdict for c in report.claims] == ["match"] * 5


def test_graph_report_checks_hilbert_past_the_exact_ie_budget():
    # K7 plus 15 pendant leaves: past the step bound of inclusion-exclusion
    # only, which gives its own refusal as the reason
    from jahangir_ssc import Graph

    g = Graph(22, tuple((u, v) for u in range(7) for v in range(u + 1, 7))
              + tuple((i % 7, 7 + i) for i in range(15)))
    claims = {c.name: c for c in build_graph_report(g).claims}
    assert claims["hilbert_series"].verdict == "match"
    ie = claims["f_vector_exact_ie"]
    assert ie.verdict == "unchecked"
    assert ie.detail == {"reason": "exact inclusion-exclusion: 3011074 steps (over 1172 "
                                   "simple cycles) exceed EXACT_IE_STEP_LIMIT = 3000000"}
    assert ie.oracle[-1] == str(7 ** 5)


def test_graph_report_certifies_large_complexes():
    # J(2,7) has 10,082 facets, which the search ordering's exchange rule
    # judges in one walk, as it judges Petersen's 2000
    cm = build_graph_report(build_jahangir(7)).claims[-1]
    assert cm.name == "cohen_macaulay_consistency" and cm.verdict == "match"
    assert cm.claimed_source == "lexicographic facet order"
    assert cm.oracle == {"cohen_macaulay": True, "shelling_agrees": True}


def test_jahangir_verify_and_its_document_certify_the_same_complex(run_cli, tmp_path):
    # the jahangir claim checks the block ordering by its exchange rules:
    # J(2,7)'s 10,082 and J(2,8)'s 37,632 facets are certified like
    # J(2,6)'s 2700. The same graph as a document is certified by the
    # search ordering's exchange rule
    for m in (6, 7, 8):
        res = run_cli("jahangir", "--m", str(m), "verify")
        assert res.code == 3
        cm = next(c for c in res.json()["claims"] if c["name"] == "cohen_macaulay")
        assert cm["verdict"] == "match" and (cm["claimed"], cm["oracle"]) == (True, True)
        assert cm["detail"] == {"ordering_source": "block", "shelling_agrees": True}
    from jahangir_ssc import emit_graph

    doc = tmp_path / "j7.json"
    doc.write_text(emit_graph(build_jahangir(7)))
    res = run_cli("graph", "--input", str(doc), "verify")
    assert (res.code, res.stderr) == (0, "")
    cm = next(c for c in res.json()["claims"] if c["name"] == "cohen_macaulay_consistency")
    assert cm["verdict"] == "match" and cm["detail"] is None
    assert cm["oracle"] == {"cohen_macaulay": True, "shelling_agrees": True}


def _cm_claim(monkeypatch, m, **patches):
    for name, value in patches.items():
        monkeypatch.setattr(reports, name, value)
    return build_jahangir_report(m).claims[-1]


def test_a_tampered_h_vector_or_histogram_is_a_mismatch(monkeypatch, run_cli):
    # the claim is a match only when the histogram passes the quotient
    # test, counts every tree and equals the sweep's h-vector; cm reads
    # the same verdict, and a quotient failure prints no certificate
    from jahangir_ssc import algebra
    from test_algebra import tampered_block_histograms

    series = reports.hilbert_series

    def tampered(f):
        s = series(f)
        return s._replace(numerator=(*s.numerator[:-1], s.numerator[-1] + 1))

    assert _cm_claim(monkeypatch, 7).verdict == "match"
    claim = _cm_claim(monkeypatch, 7, hilbert_series=tampered)
    assert (claim.verdict, claim.oracle) == ("mismatch", True)
    assert claim.detail == {"ordering_source": "block", "shelling_agrees": False}
    monkeypatch.undo()
    for changed, quotients in tampered_block_histograms(4):
        monkeypatch.setattr(algebra, "block_ordering_histogram", lambda m: changed)
        claim = _cm_claim(monkeypatch, 4)
        assert (claim.verdict, claim.oracle) == ("mismatch", quotients)
        assert claim.detail["shelling_agrees"] is (False if quotients else None)
        res = run_cli("jahangir", "--m", "4", "cm")
        assert (res.code, res.stderr) == (0, "")
        doc = res.json()
        assert doc["cohen_macaulay"] is quotients and doc["block_first_failure"] is None
        assert (doc["certificate"] is None) is not quotients
        assert doc["shelling_agrees"] is (False if quotients else None)


def test_block_cm_runs_no_certificate_pass(monkeypatch, run_cli):
    # cm reads the block verdict from the exchange rules: at m = 9 it
    # lists the 140,450 trees once, for the printed permutation, and
    # walks no facet list, which alone would take about 1 s
    from jahangir_ssc import algebra

    def refuse(g, trees):
        raise AssertionError("a facet walk ran")

    monkeypatch.setattr(algebra, "search_ordering_histogram", refuse)
    start = time.perf_counter()
    res = run_cli("jahangir", "--m", "9", "cm", "--ordering", "block")
    assert time.perf_counter() - start < 0.5
    assert (res.code, res.stderr) == (0, "")
    doc = res.json()
    assert doc["cohen_macaulay"] is True and doc["shelling_agrees"] is True
    assert sorted(doc["certificate"]) == list(range(140450))


def test_cm_search_answers_past_3000_facets(run_cli):
    # the search ordering has no cap of its own: J(2,7)'s 10,082 facets
    # are certified like J(2,6)'s 2700, in their canonical order
    for m, count in ((6, 2700), (7, 10082)):
        res = run_cli("jahangir", "--m", str(m), "cm", "--ordering", "search")
        assert (res.code, res.stderr) == (0, "")
        doc = res.json()
        assert doc["cohen_macaulay"] is True and doc["shelling_agrees"] is True
        assert doc["ordering_source"] == "search"
        assert doc["certificate"] == list(range(count))
    assert run_cli("jahangir", "--m", "7", "cm", "--ordering", "block").code == 0


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
        _, _, ok, detail = reports._check_hilbert(f, f[-1])
        want = _termwise_diverging_degrees(tampered(f), f)
        assert detail["diverging_degrees"] == want
        assert bool(want) == bool(shift)
        assert ok == (not shift)


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


def test_one_determinant_per_request(run_cli, triangle_file, body_runs):
    # the tree-count guard's determinant serves the whole request: the
    # reports and the cm verdict read its memoized count
    from jahangir_ssc import graphs

    for argv in (("jahangir", "--m", "3", "verify"),
                 ("jahangir", "--m", "3", "cm"),
                 ("jahangir", "--m", "3", "cm", "--ordering", "search"),
                 ("jahangir", "--m", "3", "facets"),
                 ("jahangir", "--m", "3", "classes"),
                 ("graph", "--input", triangle_file, "verify"),
                 ("graph", "--input", triangle_file, "cm")):
        res, runs = body_runs(lambda: run_cli(*argv), graphs.matrix_tree_count)
        assert res.code in (0, 3), argv
        assert runs == [1], argv


@pytest.mark.parametrize("argv, expected", [
    # J(2,5) built, spanning forest walked, simple cycles scanned, word
    # edge sets formed (25 for the catalog, 5 for the closed form),
    # determinant run
    (("jahangir", "--m", "5", "verify"), [1, 1, 1, 30, 1]),
    (("jahangir", "--m", "5", "cm"), [1, 1, 0, 0, 1]),
    (("graph", "--input", "petersen", "verify"), [0, 1, 1, 0, 1]),
], ids=["jahangir-verify", "jahangir-cm", "petersen-verify"])
def test_each_shared_input_is_computed_once_per_request(
        argv, expected, run_cli, petersen_file, body_runs):
    from jahangir_ssc import graphs, records

    argv = [petersen_file if a == "petersen" else a for a in argv]
    res, runs = body_runs(lambda: run_cli(*argv), records.build_jahangir,
                          records.spanning_forest, graphs._simple_cycles,
                          records.word_edge_set, graphs.matrix_tree_count)
    assert res.code in (0, 3), res.stderr
    assert runs == expected


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


def test_classes_lists_no_tree(run_cli, body_runs):
    # the counts come one product per spoke set, so the structured
    # enumerator never runs
    res, runs = body_runs(lambda: run_cli("jahangir", "--m", "9", "classes"),
                          spanning._structured_trees)
    doc = res.json()
    assert doc["total"] == doc["matrix_tree_count"] == 140450
    assert runs == [0]


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
    # the term trail is part of the contract: one row per sign and union
    assert formula["audit"] == [{"sign": -1, "union_estimate": 4, "multiplicity": 3},
                                {"sign": -1, "union_estimate": 6, "multiplicity": 3}]


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


def test_verify_timings_in_csv_and_text(run_cli, triangle_file):
    for argv in (("jahangir", "--m", "3", "verify"),
                 ("graph", "--input", triangle_file, "verify")):
        names = [c["name"] for c in run_cli(*argv).json()["claims"]]
        rows = list(csv.reader(io.StringIO(
            run_cli(*argv, "--format", "csv", "--timings").stdout)))
        assert rows[0] == ["claim", "verdict", "claimed", "oracle", "seconds"]
        assert [row[0] for row in rows[1:]] == names
        assert all(float(row[4]) >= 0 for row in rows[1:])
        lines = run_cli(*argv, "--format", "text", "--timings").stdout.splitlines()
        assert len(lines) == len(names) + 1
        for name, line in zip(names, lines):
            head, _, seconds = line.rpartition(" (")
            assert f"] {name}: claimed " in head and seconds.endswith(" s)")
            assert float(seconds[:-len(" s)")]) >= 0
        # without the flag no claim carries a time
        plain = run_cli(*argv, "--format", "text").stdout.splitlines()
        assert [line.rpartition(" (")[0] for line in lines[:-1]] == plain[:-1]


def test_verify_echoes_the_seed_as_the_last_parameter(run_cli, triangle_file):
    jahangir = run_cli("jahangir", "--m", "3", "verify", "--seed", "7").json()
    assert list(jahangir["parameters"].items()) == [("m", 3), ("seed", 7)]
    graph = run_cli("graph", "--input", triangle_file, "verify", "--seed", "7").json()
    assert list(graph["parameters"].items()) == [
        ("vertices", 3), ("edges", 3), ("seed", 7)]


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
    reason = {"reason": "forest sweep: 1262651 steps (on 153 edges) exceed "
                        "F_VECTOR_STEP_LIMIT = 1200000"}
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


@pytest.mark.parametrize("content, message", [
    (b'\xff\xfe{"vertices": 1}', "not UTF-8 (invalid start byte at byte 0)"),
    (b'{"vertices": ' + b"9" * 5000 + b', "edges": []}', "5000 digits"),
    (b"[" * 100_000, "nested too deeply"),
], ids=["not-utf-8", "long-integer", "deep-array"])
def test_unreadable_documents_exit_1(tmp_path, run_cli, content, message):
    # read errors, not tracebacks: a bad encoding, an integer past the
    # interpreter's digit limit, nesting past its recursion limit
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    res = run_cli("graph", "--input", str(bad), "f-vector")
    assert res.code == 1 and res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert message in res.stderr


def test_capacity_errors_exit_2(tmp_path, run_cli):
    from jahangir_ssc import Graph, emit_graph

    # past the largest m any engine answers
    res = run_cli("jahangir", "--m", "208", "f-vector", "--mode", "formula")
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
    assert (res.code, res.stderr) == (2, "capacity error: forest sweep: 1237333 steps (on 66 "
                                         "edges) exceed F_VECTOR_STEP_LIMIT = 1200000\n")
    # K7 plus 15 pendant leaves: 1172 cycles, none pruned, past the step cap
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    edges += [(i % 7, 7 + i) for i in range(15)]
    path = tmp_path / "k7_leaves.json"
    path.write_text(emit_graph(Graph(22, tuple(edges))))
    for action in ("f-vector", "hilbert"):
        res = run_cli("graph", "--input", str(path), action, "--mode", "exact-ie")
        assert res.code == 2
        assert res.stderr == ("capacity error: exact inclusion-exclusion: 3011074 steps (over "
                              "1172 simple cycles) exceed EXACT_IE_STEP_LIMIT = 3000000\n")
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
    assert res.stderr == ("capacity error: simple-cycle scan: 18 independent cycles exceed "
                          f"MAX_INDEPENDENT_CYCLES = {MAX_INDEPENDENT_CYCLES}\n")


# Each cap of the budget table driven one step past its limit: (cap,
# argv, and the verify claim the refusal leaves unchecked, or None when
# the request exits 2). The documents are written by _cap_documents.
CAP_CASES = [
    ("JAHANGIR_M_LIMIT", ("jahangir", "--m", str(JAHANGIR_M_LIMIT + 1), "facets"), None),
    ("TREE_GUARD_VERTEX_LIMIT", ("graph", "--input", "cycle.json", "facets"), None),
    ("TREE_ENUMERATION_LIMIT", ("jahangir", "--m", "10", "facets"), None),
    ("F_VECTOR_STEP_LIMIT", ("graph", "--input", "long.json", "f-vector"), None),
    ("F_VECTOR_STEP_LIMIT", ("graph", "--input", "long.json", "verify"), "hilbert_series"),
    ("EXACT_IE_STEP_LIMIT", ("graph", "--input", "k7_leaves.json", "f-vector", "--mode",
                             "exact-ie"), None),
    ("EXACT_IE_STEP_LIMIT", ("graph", "--input", "k7_leaves.json", "verify"),
     "f_vector_exact_ie"),
    ("MAX_INDEPENDENT_CYCLES", ("graph", "--input", "triangles.json", "cycles"), None),
    ("MAX_CYCLE_SCAN_VERTICES", ("graph", "--input", "empty.json", "cycles"), None),
]


def _cap_documents(directory: Path) -> None:
    """The graph documents of CAP_CASES, written to directory."""
    from jahangir_ssc import emit_graph

    k, n = MAX_INDEPENDENT_CYCLES + 1, TREE_GUARD_VERTEX_LIMIT + 1
    graphs = {
        # the chords come last, so the forest sweep refuses
        "long.json": Graph(150, tuple((i, i + 1) for i in range(149))
                           + tuple((a, a + 3) for a in (16, 48, 80, 112))),
        "k7_leaves.json": Graph(22, tuple((u, v) for u in range(7) for v in range(u + 1, 7))
                                + tuple((i % 7, 7 + i) for i in range(15))),
        "triangles.json": Graph(2 * k + 1, tuple(
            e for i in range(k)
            for e in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2), (2 * i, 2 * i + 2)))),
        "cycle.json": Graph(n, tuple((i, (i + 1) % n) for i in range(n))),
    }
    for name, g in graphs.items():
        (directory / name).write_text(emit_graph(g))
    (directory / "empty.json").write_text(
        json.dumps({"vertices": MAX_CYCLE_SCAN_VERTICES + 1, "edges": []}))


@pytest.mark.parametrize("cap, argv, claim", [
    pytest.param(*case, id=f"{case[0]}-{case[1][3]}") for case in CAP_CASES])
def test_every_cap_refuses_one_step_past_its_limit(cap, argv, claim, tmp_path, monkeypatch,
                                                   run_cli):
    # every cap has a case, so a cap added to the table without one fails
    assert {case[0] for case in CAP_CASES} == CAPS.keys()
    _cap_documents(tmp_path)
    monkeypatch.chdir(tmp_path)
    res = run_cli(*argv)
    if claim is None:
        assert (res.code, res.stdout) == (2, "")
        assert res.stderr.startswith("capacity error: ") and res.stderr.count("\n") == 1
        refusal = res.stderr[len("capacity error: "):-1]
    else:
        assert res.code == 0 and res.stderr == ""
        verdict = {c["name"]: c for c in res.json()["claims"]}[claim]
        assert verdict["verdict"] == "unchecked"
        refusal = verdict["detail"]["reason"]
    # the engine, the measured size in the cap's unit, the cap and its limit
    limit, engine, unit = CAPS[cap]
    shape = (rf"{re.escape(engine)}: (?:at least )?(\d+) {re.escape(unit)}(?: \(.+\))? "
             rf"exceed {cap} = {limit}")
    measured = re.fullmatch(shape, refusal)
    assert measured and int(measured[1]) > limit, refusal


def test_exact_ie_refuses_large_sparse_documents_within_budget(tmp_path, run_cli):
    # two 4-cycles on a long path: three subsets of cycles, but every
    # binomial is thousands of bits wide and the answer grows as V^2 bits,
    # so the step bound must charge the words, not count the terms
    from jahangir_ssc import Graph, emit_graph

    for n, steps in ((4000, 9617276), (20000, 3000057)):
        edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, 3), (n // 2, n // 2 + 3))
        path = tmp_path / f"path{n}.json"
        path.write_text(emit_graph(Graph(n, edges)))
        start = time.perf_counter()
        res = run_cli("graph", "--input", str(path), "f-vector", "--mode", "exact-ie")
        assert time.perf_counter() - start < 2.0
        assert res.code == 2
        assert res.stderr == (f"capacity error: exact inclusion-exclusion: {steps} steps "
                              "(over 2 simple cycles) exceed EXACT_IE_STEP_LIMIT = 3000000\n")


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
        f"capacity error: jahangir command: {m} spokes exceed JAHANGIR_M_LIMIT = 207"
        for m in (1000, 1000000, 1000000, 208)]


# Exact inclusion-exclusion keeps a table of unions, which a cycle at
# most doubles; each pass is charged the words of its keys before it
# runs, so the table never holds more than 4/3 of the step bound in key
# words: 4,000,000 one-word keys with their sums take under 0.4 GB, and
# wider keys are fewer, inside the cap. In a child capped at 1 GB, K7
# plus 15 pendant leaves is refused and J(2,12) answers, each within 2 s.
EXACT_IE_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from jahangir_ssc import (CapacityError, Graph, build_jahangir, f_vector_direct,
                          f_vector_exact_ie)
k7_leaves = Graph(22, tuple((u, v) for u in range(7) for v in range(u + 1, 7))
                  + tuple((i % 7, 7 + i) for i in range(15)))
start = time.perf_counter()
try:
    f_vector_exact_ie(k7_leaves)
    sys.exit("K7 with leaves answered")
except CapacityError as exc:
    print(exc)
print(time.perf_counter() - start)
start = time.perf_counter()
f = f_vector_exact_ie(build_jahangir(12))
print(time.perf_counter() - start)
if f != f_vector_direct(build_jahangir(12)):
    sys.exit("J(2,12) differs from the sweep")
"""


def test_exact_ie_answers_and_refuses_within_a_memory_cap():
    proc = _run_child(EXACT_IE_CHILD)
    assert proc.returncode == 0, proc.stderr
    refusal, refused_s, answered_s = proc.stdout.splitlines()
    assert refusal == ("exact inclusion-exclusion: 3011074 steps (over 1172 simple "
                       "cycles) exceed EXACT_IE_STEP_LIMIT = 3000000")
    assert float(refused_s) < 2.0 and float(answered_s) < 2.0


# The tracer of perfbench indexes its eight layer modules right after
# `import jahangir_ssc.cli`, and a request must not pay for dataclasses
# and the inspect, ast and dis modules it pulls in, nor for argparse and
# the gettext and locale modules its messages import: cli reads a
# well-formed argv itself. Nor for json: cli writes JSON itself, and only
# reading or writing a graph document imports it. A child, because the
# test session has imported them already. The package registers its layers lazily: a
# layer has run once its type is the plain module type, and type() reads
# no attribute, so the check runs none.
STARTUP_CHILD = """
import sys, types
import jahangir_ssc.cli
print(*sorted(m for m in ("argparse", "dataclasses", "gettext", "inspect", "json",
                          "locale") if m in sys.modules))
print(*sorted(m for m in sys.modules if m.startswith("jahangir_ssc.")))
print(*sorted(m for m in sys.modules if m.startswith("jahangir_ssc.")
              and type(sys.modules[m]) is types.ModuleType))
"""

# The argument and json modules one request imported, then its exit code
# and the package modules it ran.
EXECUTED_CHILD = """
import contextlib, io, sys, types
from jahangir_ssc.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
print(*sorted(m for m in ("argparse", "gettext", "json", "locale") if m in sys.modules))
print(code, *sorted(m[len("jahangir_ssc."):] for m in sys.modules
                    if m.startswith("jahangir_ssc.")
                    and type(sys.modules[m]) is types.ModuleType))
"""

# Beside errors and cli, which every request runs. A direct-mode sweep
# runs complexes and records alone: no graphs and no formulas. The
# closed form adds formulas, which reads the word edge sets from records:
# no cycles and no graphs.
EXECUTED_LAYERS = {
    ("f-vector",): "complexes records",
    ("f-vector", "--mode", "formula"): "complexes formulas records",
    ("hilbert",): "complexes records",
    ("hilbert", "--mode", "exact-ie"): "complexes formulas graphs records",
    ("facets",): "complexes graphs records spanning",
    ("classes",): "complexes graphs records spanning",
    ("cm",): "algebra complexes graphs records spanning",
    ("verify",): "algebra complexes cycles formulas graphs records reports spanning",
}


def test_startup_imports_every_layer_and_no_dataclass_machinery():
    proc = _run_child(STARTUP_CHILD)
    assert proc.returncode == 0, proc.stderr
    unwanted, modules, executed = proc.stdout.split("\n")[:3]
    assert unwanted == ""
    layers = ("records", "graphs", "cycles", "complexes", "spanning", "formulas",
              "algebra", "reports", "cli")
    assert {f"jahangir_ssc.{layer}" for layer in layers} <= set(modules.split())
    assert executed.split() == ["jahangir_ssc.cli", "jahangir_ssc.errors"]
    for action, ran in EXECUTED_LAYERS.items():
        proc = _run_child(EXECUTED_CHILD, "jahangir", "--m", "3", *action)
        assert proc.returncode == 0, proc.stderr
        imported, executed = proc.stdout.split("\n")[:2]
        assert imported == "", action
        code, *names = executed.split()
        assert int(code) == (3 if action == ("verify",) else 0)
        assert names == sorted(["cli", "errors", *ran.split()]), action
    # a usage error leaves argv to usage's argparse parser, which writes
    # the message
    proc = _run_child(EXECUTED_CHILD, "jahangir", "--m", "3", "nonsense")
    assert proc.returncode == 0, proc.stderr
    imported, executed = proc.stdout.split("\n")[:2]
    assert imported.split() == ["argparse", "gettext", "locale"]
    assert executed.split() == ["1", "cli", "errors", "usage"]


# The layers a re-export read runs: its home and the layers before it.
REEXPORT_CHILD = """
import importlib, sys, types
getattr(importlib.import_module("jahangir_ssc"), sys.argv[1])
print(*sorted(m[len("jahangir_ssc."):] for m in sys.modules
              if m.startswith("jahangir_ssc.")
              and type(sys.modules[m]) is types.ModuleType))
"""


@pytest.mark.parametrize("name, ran", [
    ("CapacityError", "errors"),
    ("Graph", "errors records"),
    ("parse_graph", "errors graphs records"),
    ("word_of", "errors records"),
    # the search reads complexes' frontier helpers, and no cycles
    ("enumerate_spanning_trees_generic", "complexes errors graphs records spanning"),
    ("block_ordering_histogram", "algebra complexes errors graphs records spanning"),
])
def test_a_re_export_runs_its_home_and_the_layers_before_it(name, ran):
    proc = _run_child(REEXPORT_CHILD, name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ran.split()


# find_spec and the other import metadata of an unrun layer leave it
# unrun; vars() and any other attribute still run its body.
METADATA_CHILD = """
import importlib.util, sys, types
import jahangir_ssc
def ran():
    return sorted(m[len("jahangir_ssc."):] for m in sys.modules
                  if m.startswith("jahangir_ssc.")
                  and type(sys.modules[m]) is types.ModuleType)
for layer in reversed(jahangir_ssc._LAYERS):
    name = "jahangir_ssc." + layer
    module = sys.modules[name]
    assert importlib.util.find_spec(name) is module.__spec__
    assert module.__name__ == name and module.__package__ == "jahangir_ssc"
    assert module.__file__ and module.__cached__ and module.__loader__
print(*ran())
vars(jahangir_ssc.graphs)
print(*ran())
jahangir_ssc.cycles.__doc__
print(*ran())
"""


def test_import_metadata_of_an_unrun_layer_leaves_it_unrun():
    proc = _run_child(METADATA_CHILD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["errors", "errors graphs records",
                                           "cycles errors graphs records"]


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
print(len(jahangir_ssc.graphs.enumerate_simple_cycles(jahangir_ssc.records.build_jahangir(3))),
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


FACETS_RSS_CHILD = """
import contextlib
from jahangir_ssc.cli import main
with open("/dev/null", "w") as sink, contextlib.redirect_stdout(sink):
    code = main(["jahangir", "--m", "9", "facets"])
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, hwm_kb)
"""

# facets --m 9 writes 140,450 facets as they are listed, from the one
# list of tree masks: 22-23 MB of peak RSS on CPython 3.11, against
# 57-58 MB when the payload held every facet's list of labels. The bound
# fails if that list, or the whole document as one string, comes back.
FACETS_STREAMED_RSS_MB = 32


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_facets_are_written_as_they_are_listed():
    proc = _run_child(FACETS_RSS_CHILD)
    assert proc.returncode == 0, proc.stderr
    code, hwm_kb = map(int, proc.stdout.split())
    assert code == 0
    assert hwm_kb < FACETS_STREAMED_RSS_MB * 1024


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
        "capacity error: simple-cycle scan: 18 independent cycles exceed "
        f"MAX_INDEPENDENT_CYCLES = {MAX_INDEPENDENT_CYCLES}"]


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
        "capacity error: simple-cycle scan: 100000000 vertices exceed "
        f"MAX_CYCLE_SCAN_VERTICES = {MAX_CYCLE_SCAN_VERTICES}",
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
    assert res.stderr == (f"capacity error: spanning-tree count: {n} vertices exceed "
                          f"TREE_GUARD_VERTEX_LIMIT = {TREE_GUARD_VERTEX_LIMIT}\n")
    # the largest graph the jahangir command builds is counted
    assert TREE_GUARD_VERTEX_LIMIT == build_jahangir(JAHANGIR_M_LIMIT).vertex_count


def _random_document(path, n: int, edges: int, seed: int):
    """A connected random simple graph on n vertices with the given number
    of edges, written as a document."""
    import itertools

    from jahangir_ssc import Graph, emit_graph, is_connected

    pairs = random.Random(seed).sample(list(itertools.combinations(range(n), 2)), edges)
    g = Graph(n, tuple(pairs))
    assert is_connected(g)
    path.write_text(emit_graph(g))
    return str(path)


def test_dense_documents_are_refused_before_the_determinant(run_cli, tmp_path):
    # a cactus subgraph already has more trees than the limit, so facets,
    # cm and verify exit 2 without the determinant, which took 29 s and
    # 99 s on such graphs
    for edges, seed, bound in ((4296, 1, 2025000), (42932, 2, 1259712)):
        doc = _random_document(tmp_path / f"dense{edges}.json", 415, edges, seed)
        for action in ("facets", "cm", "verify"):
            start = time.perf_counter()
            res = run_cli("graph", "--input", doc, action)
            assert time.perf_counter() - start < 1.0, (edges, action)
            assert (res.code, res.stdout) == (2, "")
            assert res.stderr == (f"capacity error: tree enumeration: at least {bound} "
                                  "spanning trees (a cactus subgraph's count) exceed "
                                  "TREE_ENUMERATION_LIMIT = 500000\n")
    # K9's cactus has 3^4 = 81 trees, which decides nothing: the
    # determinant's exact count is the reason, as before
    from jahangir_ssc import Graph, emit_graph

    k9 = tmp_path / "k9.json"
    k9.write_text(emit_graph(Graph(9, tuple((u, v) for u in range(9)
                                             for v in range(u + 1, 9)))))
    res = run_cli("graph", "--input", str(k9), "facets")
    assert res.stderr == ("capacity error: tree enumeration: 4782969 spanning trees "
                          "exceed TREE_ENUMERATION_LIMIT = 500000\n")


def _refusal(call):
    """The error call() raises on purpose; an answer fails the test."""
    try:
        call()
    except JssError as exc:
        return exc
    raise AssertionError(f"{call} answered")


def test_library_entry_points_are_refused_as_the_cli_is(run_cli, tmp_path, body_runs):
    # the verdict, both report builders, prefix_block_ordering and
    # verify_partition check the spanning complex and the tree budget
    # themselves, so a library caller is refused with the CLI's own line,
    # quickly and with no tree listed
    from jahangir_ssc import (cohen_macaulay_verdict, emit_graph, parse_graph,
                              prefix_block_ordering, verify_partition)

    dense = Path(_random_document(tmp_path / "dense.json", 415, 4296, 1))
    n = TREE_GUARD_VERTEX_LIMIT + 1
    graphs = {
        "j10": build_jahangir(10),  # 524,172 trees
        "k9": Graph(9, tuple((u, v) for u in range(9) for v in range(u + 1, 9))),
        "dense": parse_graph(dense.read_text()),  # a cactus bound of 2,025,000
        "cycle": Graph(n, tuple((i, (i + 1) % n) for i in range(n))),
        "split": Graph(4, ((0, 1), (2, 3))),
    }
    lines = {}
    for name, g in graphs.items():
        doc = tmp_path / f"{name}.json"
        doc.write_text(emit_graph(g))
        line = lines[name] = run_cli("graph", "--input", str(doc), "verify").stderr
        calls = [lambda: cohen_macaulay_verdict(g, "search"), lambda: build_graph_report(g)]
        if name == "j10":
            calls += [lambda: cohen_macaulay_verdict(g, "block"),
                      lambda: build_jahangir_report(10),
                      lambda: prefix_block_ordering(10), lambda: verify_partition(10)]
        for call in calls:
            start = time.perf_counter()
            exc, runs = body_runs(lambda: _refusal(call), spanning._generic_trees,
                                  spanning._structured_trees)
            assert time.perf_counter() - start < 1.0, name
            prefix = "capacity error: " if isinstance(exc, CapacityError) else "error: "
            assert line == f"{prefix}{exc}\n", name
            assert runs == [0, 0], name
    assert lines["j10"] == run_cli("jahangir", "--m", "10", "verify").stderr
    assert "524172 spanning trees" in lines["j10"]
    assert "4782969 spanning trees" in lines["k9"]
    assert "at least 2025000" in lines["dense"]
    assert "TREE_GUARD_VERTEX_LIMIT" in lines["cycle"]
    assert "no spanning complex" in lines["split"]


def test_tree_counts_at_the_guard_cap_answer_within_budget(run_cli, tmp_path):
    # the guard decides its largest graphs in milliseconds, so J(2,207)'s
    # refusal, by a cactus subgraph's 4^10 trees, and a 415-cycle's
    # answer come quickly
    start = time.perf_counter()
    res = run_cli("jahangir", "--m", "207", "verify")
    assert time.perf_counter() - start < 1.0
    assert res.code == 2 and res.stdout == ""
    assert res.stderr == ("capacity error: tree enumeration: at least 1048576 spanning "
                          "trees (a cactus subgraph's count) exceed "
                          "TREE_ENUMERATION_LIMIT = 500000\n")

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


def test_jahangir_207_closed_form_is_answered(run_cli):
    # the closed form counts its pairs by class, so its audit has O(m)
    # rows, not the m^4/2 pairs
    res = run_cli("jahangir", "--m", "207", "f-vector", "--mode", "formula")
    assert res.code == 0
    doc = res.json()
    assert len(doc["f_vector"]) == len(doc["oracle_f_vector"]) == 414
    assert doc["mismatch_indices"][0]["index"] == 6
    assert len(doc["audit"]) <= 4 * 207
    res = run_cli("jahangir", "--m", "207", "hilbert", "--mode", "formula")
    assert res.code == 0 and res.json()["f_vector"] == doc["f_vector"]


def test_stdout_stays_clean_on_errors(run_cli):
    res = run_cli("jahangir", "--m", "208", "f-vector", "--mode", "formula")
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


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("m, action", [("3", "hilbert"), ("7", "facets")])
def test_a_closed_stdout_ends_quietly(m, action, unbuffered):
    # stdout is closed before the request starts; buffered, the small
    # answer fails at the last flush, the others inside main: each ends
    # with exit status 1 and nothing on stderr
    env = {key: value for key, value in _child_env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "jahangir_ssc", "jahangir", "--m", m,
                               action], stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_a_reader_that_closes_early_ends_the_request_quietly():
    # jssc jahangir --m 7 facets | head -c 10: 1.9 MB of facets, more than
    # the pipe holds, so the request is still writing when its reader goes
    proc = subprocess.Popen([sys.executable, "-m", "jahangir_ssc", "jahangir", "--m", "7",
                             "facets"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    head = proc.stdout.read(10)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert head == b'{\n  "comma'
    assert (proc.wait(timeout=60), stderr) == (1, b"")


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
    # each name is the object its defining module holds
    for name in jahangir_ssc.__all__:
        obj = getattr(jahangir_ssc, name)
        home = obj.__module__
        if home == "builtins":  # EdgeSet, records' alias of int
            assert obj is int, name
            home = "jahangir_ssc.records"
        assert obj is getattr(sys.modules[home], name), name
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
