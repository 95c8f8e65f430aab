from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from jahangir_ssc import build_jahangir, emit_graph
from jahangir_ssc.cli import main as cli_main


@dataclasses.dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str

    def json(self) -> dict:
        return json.loads(self.stdout)


def package_memos():
    """Every memo of the package's run layers: a module's memoized
    functions. An unrun layer holds none and is left unrun."""
    for name, module in list(sys.modules.items()):
        if name.startswith("jahangir_ssc.") and type(module) is types.ModuleType:
            for obj in list(vars(module).values()):
                if isinstance(obj, types.FunctionType) and hasattr(obj, "cache_clear"):
                    yield obj


@pytest.fixture(autouse=True)
def clear_memos():
    """Each test starts with every memo empty, so a test that patches an
    engine or a cap never reads a result an earlier test left."""
    for read in package_memos():
        read.cache_clear()


@pytest.fixture
def body_runs():
    """body_runs(call, *functions): call()'s value, and the list of how
    many times the body of each function ran meanwhile. Every memo is
    emptied first, as in a fresh process. A memo's body is the function
    it wraps, so a memoized read that computes nothing does not count."""

    def run(call, *functions) -> tuple[object, list[int]]:
        for read in package_memos():
            read.cache_clear()
        codes = [getattr(f, "__wrapped__", f).__code__ for f in functions]
        runs = dict.fromkeys(codes, 0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in runs:
                runs[frame.f_code] += 1

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            value = call()
        finally:
            sys.setprofile(outer)
        return value, [runs[code] for code in codes]

    return run


@pytest.fixture(scope="session")
def j3():
    return build_jahangir(3)


@pytest.fixture(scope="session")
def j4():
    return build_jahangir(4)


@pytest.fixture(scope="session")
def j5():
    return build_jahangir(5)


@pytest.fixture
def run_cli():
    """In-process CLI runner; returns exit code plus captured streams."""

    def run(*argv: str) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(list(argv))
            except SystemExit as exc:  # argparse usage failures
                code = exc.code if isinstance(exc.code, int) else 1
        return CliResult(code, out.getvalue(), err.getvalue())

    return run


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    from jahangir_ssc import Graph

    path.write_text(emit_graph(Graph(3, ((0, 1), (1, 2), (0, 2)))))
    return str(path)
