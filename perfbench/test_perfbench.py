"""Tests of the benchmark itself: the outside-in tracer, the per-layer
sums, the checker and the reference values it relies on."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import checker
import layers
import reference
import workloads

HERE = Path(__file__).resolve().parent
ENV = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}


def _jssc(*argv: str, trace_to: Path | None = None) -> subprocess.CompletedProcess:
    head = (["-X", "importtime", str(HERE / "spantrace.py"), str(trace_to)]
            if trace_to else ["-m", "jahangir_ssc"])
    return subprocess.run([sys.executable, *head, *argv], env=ENV, capture_output=True,
                          text=True, timeout=120)


def test_tracer_reaches_nested_module_global_calls(tmp_path):
    spans_file = tmp_path / "spans.json"
    proc = _jssc("jahangir", "--m", "3", "verify", trace_to=spans_file)
    assert proc.returncode == 3
    trace = json.loads(spans_file.read_text())
    names = [trace["functions"][s[0]] for s in trace["spans"]]
    # records, verify_partition and prefix_block_ordering each enumerate
    # the structured trees; verify_partition, spanning_complex and the cm
    # verdict's spanning_complex each enumerate the generic ones
    assert names.count("spanning.enumerate_spanning_trees_jahangir") == 3
    assert names.count("spanning.enumerate_spanning_trees_generic") == 3

    imports, rest = layers.split_importtime(proc.stderr)
    assert rest == "" and all(v >= 0 for v in imports.values()) and imports["cli"] > 0
    fig = layers.request_figures(trace, imports, wall_s=5.0)
    self_total = sum(fig[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert abs(self_total + fig["trace.unattributed_s"] - 5.0) < 1e-9
    assert fig["spanning.trees"] == 6 * 50
    assert fig["complexes.forests"] == sum(checker.J3_F_VECTOR) + 1
    assert fig["enumerations"] == 3


def test_checker_judges_outputs_by_identities():
    doc = workloads.jahangir(3)
    req = workloads.Request(doc, "hilbert", mode="direct")
    proc = _jssc(*req.argv())
    ok = checker.Checker().check(req, proc.returncode, proc.stdout, proc.stderr)
    assert ok.kind == "answer" and not ok.wrong

    tampered = proc.stdout.replace('"50"', '"49"')
    bad = checker.Checker().check(req, 0, tampered, "")
    assert bad.kind == "failed" and bad.wrong

    refused = checker.Checker().check(req, 2, "", "capacity error: too big\n")
    assert refused.kind == "refused"
    crashed = checker.Checker().check(req, 1, "", "Traceback\nRecursionError: deep\n")
    assert crashed.kind == "failed" and not crashed.wrong


def test_reference_values():
    petersen = workloads._petersen()
    assert reference.tree_count(10, petersen) == 2000
    assert reference.simple_cycle_count(10, petersen) == 57
    for m in range(3, 7):
        edges = reference.jahangir_edges(m)
        assert reference.simple_cycle_count(2 * m + 1, edges) == m * m - m + 1
    assert reference.closed_form_f(3) == [9, 36, 84, 123, 111, 51]
    assert reference.h_vector(checker.J3_F_VECTOR) == [1, 3, 6, 10, 12, 12, 6]


def test_workloads_are_a_function_of_the_seed(tmp_path):
    def labels(seed: int, sub: str) -> list[tuple[str, list]]:
        work = tmp_path / sub
        work.mkdir()
        reqs = workloads.build("graph-docs", seed, work)
        return [(r.label, r.doc.edges) for r in reqs]

    first = labels(7, "a")
    assert first == labels(7, "b")
    assert first != labels(8, "c")
