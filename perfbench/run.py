"""Benchmark of the jssc command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every request is a fresh
`python -m jahangir_ssc ...` child process against the checkout's own
src/ (through PYTHONPATH), run one after another by a single client in a
closed loop: one pass in the seed's order, then further samples (see
Runner.run) until the next one would end past S seconds. Every output is
checked (checker.py). A request's time is the mean of its samples,
scaled by the run's speed factor (Runner.speed), and `wall_s` sums those
over the workload's requests, so it is the time of one pass.

--trace 0 reports the `end_to_end` metrics of BENCHMARK.json. --trace 1
runs each request once plain and once under spantrace.py, back to back,
and reports the `per_layer` metrics of the traced runs (layers.py).
`--workload all` runs every workload both ways. Lines before the last
describe the run and each request's check result; the last line is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layers
import workloads
from checker import Checker, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "jahangir_ssc" / "__init__.py"
REQUEST_TIMEOUT_S = 120
PROBE_EVERY_S = 2.0
MIN_SETUPS = 5

# A fixed job of the benchmark's own, which no change to the program can
# alter: set, dict and list work like the engines' inner loops, run after
# every request and every set-up. Its mean time over a run measures how
# fast the shared machine ran during the run's requests.
REFERENCE_JOB = """
seen = {}
parent = list(range(64))
for i in range(25000):
    s = frozenset((i % 61, i % 37, i % 23, i % 11))
    seen[s] = seen.get(s, 0) + 1
    p = parent[:]
    p[i % 64] = (i + 1) % 64
"""
# The job runs in a helper interpreter of its own, started once per run
# and timed inside, so neither process start-up nor what the benchmark
# process allocates (parsed outputs, the checker's state) changes it.
REFERENCE_HELPER = """
import sys, time
job = compile(sys.argv[1], "<reference job>", "exec")
for _ in sys.stdin:
    start = time.perf_counter()
    exec(job, {})
    print(time.perf_counter() - start, flush=True)
"""
# About the job's time on a 2-CPU x86-64 VM with Python 3.11, where it
# ranged from 35 ms to 60 ms. Reported times are scaled by
# REFERENCE_NOMINAL_S over the job's mean time in the run.
REFERENCE_NOMINAL_S = 0.05

SPEC = ROOT / "BENCHMARK.json"


def spawn(args: list[str], env: dict, stdout: Path, stderr: Path) -> tuple[int, float, float]:
    """Run the interpreter with args; return exit code, wall seconds and
    peak RSS in MB. A child still running after REQUEST_TIMEOUT_S is killed."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    lock, exited = threading.Lock(), [False]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)

    def kill() -> None:
        with lock:
            if not exited[0]:
                os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(REQUEST_TIMEOUT_S, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)   # exited, not yet reaped
        wall = time.perf_counter() - start
        with lock:
            exited[0] = True
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


class Runner:
    """Runs one workload's requests and keeps every sample."""

    def __init__(self, requests: list[workloads.Request], work: Path, traced: bool) -> None:
        self.requests, self.work, self.traced = requests, work, traced
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.checker = Checker()
        self.samples: list[list[tuple[float, float]]] = [[] for _ in requests]
        self.traces: list[list[dict]] = [[] for _ in requests]
        self.outcomes: list[list[Outcome]] = [[] for _ in requests]
        self.setups: list[float] = []
        self.references: list[float] = []
        self.helper: subprocess.Popen | None = None

    def reference(self) -> None:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        self.references.append(float(self.helper.stdout.readline()))

    def probe(self) -> None:
        """One set-up: a fresh interpreter importing the CLI module."""
        out, err = self.work / "probe.out", self.work / "probe.err"
        args = ["-c", "import jahangir_ssc.cli"]
        code, wall, _ = spawn(args, self.env, out, err)
        if code != 0:
            raise SystemExit(f"{args} failed:\n" + err.read_text(encoding="utf-8"))
        self.setups.append(wall)

    def _record(self, k: int, code: int, stdout: Path, stderr: str) -> None:
        outcome = self.checker.check(self.requests[k], code,
                                     stdout.read_text(encoding="utf-8"), stderr)
        self.outcomes[k].append(outcome)

    def run_once(self, k: int) -> float:
        """Run request k (and its traced twin); return the time it took."""
        argv = self.requests[k].argv()
        out, err = self.work / "req.out", self.work / "req.err"
        code, wall, rss = spawn(["-m", "jahangir_ssc", *argv], self.env, out, err)
        self.samples[k].append((wall, rss))
        if not self.traced:
            self.reference()
        self._record(k, code, out, err.read_text(encoding="utf-8"))
        spent = wall
        if self.traced:
            spans = self.work / "spans.json"
            spans.unlink(missing_ok=True)
            code, twall, _ = spawn(["-X", "importtime", str(Path(__file__).with_name("spantrace.py")),
                                    str(spans), *argv], self.env, out, err)
            imports, rest = layers.split_importtime(err.read_text(encoding="utf-8"))
            self._record(k, code, out, rest)
            if spans.exists():
                trace = json.loads(spans.read_text(encoding="utf-8"))
                self.traces[k].append(layers.request_figures(trace, imports, twall))
            spent += twall
        return spent

    def _loop(self, seconds: float) -> None:
        """One full pass, then more samples while one still fits in the
        time left at its last duration. The next sample goes to the
        request with the largest duration / samples, so a request's share
        of the samples grows with its duration: the errors of the many
        short requests average out in `wall_s`, while `slowest_request_s`
        rests on the longest requests alone.
        Untraced runs set up once untimed, to leave the bytecode cache
        warm, then again whenever PROBE_EVERY_S has passed since the
        last set-up, and run the reference job after each request and
        each set-up."""
        start = probed = time.perf_counter()
        if not self.traced:
            self.probe()
            self.setups.clear()
        last: list[float] = []
        while True:
            now = time.perf_counter()
            if not self.traced and now - probed >= PROBE_EVERY_S:
                probed = now
                self.probe()
                self.reference()
                continue
            elapsed = now - start
            if len(last) < len(self.requests):
                last.append(self.run_once(len(last)))
                continue
            fits = [k for k, spent in enumerate(last) if spent <= seconds - elapsed]
            if not fits:
                break
            k = max(fits, key=lambda k: last[k] / len(self.samples[k]))
            last[k] = self.run_once(k)
        while not self.traced and len(self.setups) < MIN_SETUPS:
            self.probe()
            self.reference()

    def run(self, seconds: float) -> None:
        if self.traced:
            self._loop(seconds)
            return
        # leaving the block closes the helper's input, which ends it, and
        # waits for it
        with subprocess.Popen([sys.executable, "-c", REFERENCE_HELPER, REFERENCE_JOB],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True) as self.helper:
            self._loop(seconds)

    # -- results -------------------------------------------------------------

    def attempted(self) -> int:
        return len(self.requests)

    def failed(self) -> int:
        """Requests with at least one failed sample."""
        return sum(any(o.kind == "failed" for o in runs) for runs in self.outcomes)

    def correct(self) -> bool:
        return not any(o.wrong for runs in self.outcomes for o in runs)

    def speed(self) -> float:
        """REFERENCE_NOMINAL_S over the reference job's mean time in
        this run: below 1 while the shared machine runs slow."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.references)

    def end_to_end(self) -> dict[str, float]:
        # The machine switches between faster and slower spells within
        # seconds, and the share of slow time differs from run to run.
        # A request's mean time and the reference job's mean time, both
        # sampled all through the run, see the same mix of spells, so
        # their ratio cancels it; a least time or a median would instead
        # jump with the mix.
        speed = self.speed()
        walls = [statistics.fmean(w for w, _ in s) * speed for s in self.samples]
        rss = [statistics.median(r for _, r in s) for s in self.samples]
        n = len(self.requests)
        refused = sum(runs[0].kind == "refused" for runs in self.outcomes)
        claims = sum(runs[0].claims for runs in self.outcomes)
        unchecked = sum(runs[0].unchecked for runs in self.outcomes)
        return {
            "wall_s": sum(walls),
            "slowest_request_s": max(walls),
            # the median, as one slow start-up among the run's set-ups
            # should not move it
            "setup_s": statistics.median(self.setups) * speed,
            "peak_rss_mb": max(rss),
            # complements of failed_frac, refused_frac and unchecked_frac,
            # which are 0 on some workloads
            "ok_frac": 1 - self.failed() / n,
            "answered_frac": 1 - refused / n,
            "checked_frac": 1 - unchecked / claims if claims else 1.0,
        }

    def per_layer(self) -> dict[str, float]:
        chosen = []
        for figs in self.traces:
            if figs:    # the sample with the median traced wall time
                chosen.append(sorted(figs, key=lambda f: f["trace.wall_s"])[(len(figs) - 1) // 2])
        untraced = sum(statistics.median(w for w, _ in s)
                       for s, figs in zip(self.samples, self.traces) if figs)
        return layers.workload_figures(chosen, untraced)

    def report(self) -> list[str]:
        lines = []
        for req, runs, samples in zip(self.requests, self.outcomes, self.samples):
            first = runs[0]
            kinds = sorted({o.kind for o in runs})
            mean = statistics.fmean(w for w, _ in samples)
            detail = "; ".join(sorted({p for o in runs for p in o.problems})) or first.note
            lines.append(f"  {'/'.join(kinds):9s} {mean:8.4f} s  n={len(samples):<3d} "
                         f"{req.label}" + (f"  [{detail}]" if detail else ""))
        return lines


def environment() -> str:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=30).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return (f"commit={commit} src_sha256={digest.hexdigest()[:16]} "
            f"python={platform.python_version()} nproc={os.cpu_count()}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[Runner, dict]:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        runner = Runner(workloads.build(name, seed, work), work, traced)
        runner.run(seconds)
    metrics = runner.per_layer() if traced else runner.end_to_end()
    print(f"# workload={name} seed={seed} seconds={seconds} trace={int(traced)} "
          f"requests={len(runner.requests)} attempted={runner.attempted()}")
    print("\n".join(runner.report()))
    if not traced:
        print(f"  failed_frac={1 - metrics['ok_frac']} "
              f"refused_frac={1 - metrics['answered_frac']} "
              f"unchecked_frac={1 - metrics['checked_frac']}")
        print(f"  speed={runner.speed()} (times below are scaled by it; raw mean times above)")
    for key, value in metrics.items():
        print(f"  {key:36s} {value}")
    return runner, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not PACKAGE_INIT.is_file():
        print(f"error: {PACKAGE_INIT} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    os.chdir(ROOT)
    print(f"# jssc benchmark: {environment()}")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (False, True) if args.workload == "all" else (bool(args.trace),)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for traced in traces:
            runner, metrics = run_workload(name, args.seed, args.seconds, traced)
            result["correct"] &= runner.correct()
            result["attempted"] += runner.attempted()
            result["failed"] += runner.failed()
            for metric in spec["per_layer" if traced else "end_to_end"]:
                label = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
                result["metrics"][label] = {"value": metrics[metric["name"]],
                                            "unit": metric["unit"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
