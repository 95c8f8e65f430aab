"""Golden command-line outputs: every request below maps to the sha256 of
its exit code, stdout and stderr, kept in golden_cli.json. A change that
alters any byte of any of them fails here.

The requests run in-process through cli.main, from a directory holding
the graph documents below, so the echoed input paths are the same on
every run. When an output change is intended, regenerate the file with

    PYTHONPATH=src python3 tests/test_golden_cli.py

and say in the change log which outputs changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")

FORMATS = ("json", "csv", "text")


def _petersen() -> list[list[int]]:
    edges = []
    for i in range(5):
        edges += [[i, (i + 1) % 5], [i, i + 5], [i + 5, (i + 2) % 5 + 5]]
    return edges


def _doc(vertices: int, edges: list[list[int]]) -> str:
    return json.dumps({"vertices": vertices, "edges": edges}) + "\n"


def _documents() -> dict[str, str]:
    chain = []  # a chain of triangles one past the cycle-space rank cap
    for i in range(18):
        chain += [[2 * i, 2 * i + 1], [2 * i + 1, 2 * i + 2], [2 * i, 2 * i + 2]]
    k7_leaves = [[u, v] for u in range(7) for v in range(u + 1, 7)]
    k7_leaves += [[i % 7, 7 + i] for i in range(15)]
    return {
        "triangle.json": _doc(3, [[0, 1], [1, 2], [0, 2]]),
        "petersen.json": _doc(10, _petersen()),
        # the four chords come last, so the forest sweep refuses
        "long.json": _doc(150, [[i, i + 1] for i in range(149)]
                          + [[a, a + 3] for a in (16, 48, 80, 112)]),
        "one.json": '{"vertices": 1, "edges": []}',
        "split.json": '{"vertices": 4, "edges": [[0, 1], [2, 3]]}',
        "empty.json": '{"vertices": 0, "edges": []}',
        "j3_shuffled.json": _doc(7, [[1, 2], [4, 5], [0, 5], [0, 1], [6, 1], [3, 4],
                                     [5, 6], [2, 3], [0, 3]]),
        "bad.json": '{"vertices": 3, "edges": [[0, 1], [0]]}',
        "k12.json": _doc(12, [[u, v] for u in range(12) for v in range(u + 1, 12)]),
        "k7_leaves.json": _doc(22, k7_leaves),
        "triangles.json": _doc(37, chain),
    }


def _options(action: str, structured: bool) -> list[tuple[str, ...]]:
    """The flag variants that matter to an action, the default included."""
    if action in ("f-vector", "hilbert"):
        modes = ("direct", "formula", "paper", "exact-ie") if structured \
            else ("direct", "exact-ie")
        return [()] + [("--mode", mode) for mode in modes]
    if action == "cycles":
        catalogs = ("word", "paper", "oracle") if structured else ("oracle",)
        return [()] + [("--catalog", c) for c in catalogs]
    if action == "cm":
        orderings = ("block", "paper", "search") if structured else ("search",)
        return [()] + [("--ordering", o) for o in orderings]
    return [()]


ACTIONS = ("facets", "classes", "cycles", "f-vector", "hilbert", "cm", "verify")


def requests() -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for m in ("3", "4"):
        for action in ACTIONS:
            for opts in _options(action, structured=True):
                for fmt in FORMATS:
                    out.append(("jahangir", "--m", m, action, *opts, "--format", fmt))
    out += [("jahangir", "--m", "5", "verify", "--format", fmt) for fmt in FORMATS]
    # the block verdict and its printed permutation up to the tree guard
    out += [("jahangir", "--m", str(m), "cm", "--format", fmt)
            for m in range(5, 10) for fmt in ("json", "csv")]
    out.append(("jahangir", "--m", "3", "verify", "--seed", "7"))
    for name in ("triangle.json", "petersen.json", "long.json", "one.json",
                 "split.json", "j3_shuffled.json"):
        for action in ACTIONS:
            out += [("graph", "--input", name, action, "--format", fmt) for fmt in FORMATS]
            out += [("graph", "--input", name, action, *opts)
                    for opts in _options(action, structured=False)[1:]]
    # the usage, parse and capacity failures of test_cli.py
    out += [
        ("jahangir", "--m", "3", "nonsense"),
        ("jahangir", "facets"),
        ("jahangir", "--m", "3"),
        (),
        ("jahangir", "--m", "3", "facets", "--mode", "bogus"),
        ("jahangir", "--m", "3", "--n", "4", "facets"),
        ("jahangir", "--m", "2", "facets"),
        ("graph", "--input", "triangle.json", "f-vector", "--mode", "formula"),
        ("graph", "--input", "triangle.json", "cycles", "--catalog", "word"),
        ("graph", "--input", "triangle.json", "cm", "--ordering", "block"),
        ("graph", "--input", "bad.json", "facets"),
        ("graph", "--input", "absent.json", "facets"),
        ("graph", "--input", "empty.json", "cycles"),
        ("graph", "--input", "empty.json", "facets"),
        ("jahangir", "--m", "208", "f-vector", "--mode", "formula"),
        ("jahangir", "--m", "10", "facets"),
        ("jahangir", "--m", "10", "verify"),
        ("graph", "--input", "k12.json", "f-vector"),
        ("graph", "--input", "k7_leaves.json", "f-vector", "--mode", "exact-ie"),
        ("graph", "--input", "k7_leaves.json", "hilbert", "--mode", "exact-ie"),
        ("graph", "--input", "triangles.json", "cycles"),
    ]
    return out


def _run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    from jahangir_ssc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage failures
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def digests(workdir: Path) -> dict[str, str]:
    """sha256 of [code, stdout, stderr] per request, run from workdir."""
    for name, text in _documents().items():
        (workdir / name).write_text(text, encoding="utf-8")
    here = os.getcwd()
    os.chdir(workdir)
    try:
        result = {}
        for argv in requests():
            blob = json.dumps(list(_run(argv))).encode("utf-8")
            result[" ".join(argv)] = hashlib.sha256(blob).hexdigest()
        return result
    finally:
        os.chdir(here)


def test_cli_outputs_match_the_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    have = digests(tmp_path)
    assert sorted(have) == sorted(want)
    changed = [key for key in want if have[key] != want[key]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} requests written to {GOLDEN}", file=sys.stderr)
