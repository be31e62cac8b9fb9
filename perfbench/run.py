"""Closed-loop benchmark of the cremlat command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload twist-tables --seed 1 --seconds 30 --trace 0

One job is one `python -m cremlat SUBCOMMAND ...` in a fresh interpreter; one
client runs one child at a time.  A run generates the workload's seeded deck
of jobs (perfbench/workloads.py), warms up, then runs whole passes over the
deck until --seconds have elapsed, checking every job's exit code, stderr and
stdout.  With --trace 0 it prints the end-to-end metrics; with --trace 1 it
runs the deck untraced for half the time and then under perfbench/launch.py
for the other half, and prints per-layer metrics.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.

`failed` counts jobs that exited with the wrong code, printed a traceback, or
failed an output check; `correct` is false only when a job printed wrong
output or ended with the wrong exit code, so a known crash on a malformed
input (exit 1 with a traceback) is a failure but not a wrong answer.

`--freeze` writes perfbench/digests.json from one pass at the given seed;
later runs compare stdout byte for byte against it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUPS = 5  # set-up repeats per run; setup_s is their median
JOB_TIMEOUT_S = 60.0
OVERRUN_S = 40.0  # a pass in progress at the deadline may finish within this
TRACEBACK = b"Traceback (most recent call last)"
WRONG = ("exit_code", "output")  # failure reasons that mean a wrong answer
# imports every layer and writes the bytecode caches; its output is not judged
WARM_UP = workloads.Job("warm-up", ("halphen-table", "--nmax", "1"), 0, "warm-up")


@dataclass
class Result:
    wall_ms: float
    cpu_ms: float
    rss_kb: int
    reason: Optional[str]  # None, traceback, exit_code, output, timeout
    trace: Optional[dict] = None


class Runner:
    """Spawns jobs one at a time and judges their output."""

    def __init__(self, digests: Dict[str, str]) -> None:
        self.digests = digests
        self.seen: Dict[str, str] = {}  # key -> digest of the first run this session
        # the interpreter as a user starts it: bytecode caches on, buffered stdout
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, job: workloads.Job, traced: bool = False) -> Result:
        out_path, err_path, trace_path = WORK / "stdout", WORK / "stderr", WORK / "trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "launch.py"), str(trace_path), *job.argv]
        else:
            argv = [sys.executable, "-m", "cremlat", *job.argv]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        killer = threading.Timer(JOB_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        _, status, usage = os.wait4(pid, 0)
        wall_ms = (time.perf_counter() - start) * 1e3
        killer.cancel()
        code = os.waitstatus_to_exitcode(status)
        out, err = out_path.read_bytes(), err_path.read_bytes()
        reason = "timeout" if code == -signal.SIGKILL else self.judge(job, code, out, err)
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        cpu_ms = (usage.ru_utime + usage.ru_stime) * 1e3
        return Result(wall_ms, cpu_ms, usage.ru_maxrss, reason, trace)

    def judge(self, job: workloads.Job, code: int, out: bytes, err: bytes) -> Optional[str]:
        if code != job.expect_exit:
            return "exit_code"
        if TRACEBACK in err:
            return "traceback"
        if code == 1:
            return "output" if out else None
        try:
            problem = job.check(out.decode("utf-8", errors="replace")) if job.check else None
        except (ValueError, IndexError) as exc:  # output too mangled to parse
            problem = repr(exc)
        if problem:
            print(f"# check failed: {' '.join(job.argv)}: {problem}", file=sys.stderr)
            return "output"
        digest = f"{code}:{hashlib.sha256(out).hexdigest()}"
        if self.digests.get(job.key, digest) != digest or self.seen.setdefault(job.key, digest) != digest:
            print(f"# stdout differs from its digest: {' '.join(job.argv)}", file=sys.stderr)
            return "output"
        return None


def setup(name: str, seed: int, runner: Runner):
    """Generate the deck and warm up with one trivial job; median of SETUPS tries."""
    times = []
    for attempt in range(SETUPS):
        start = time.perf_counter()
        folder = WORK / f"inputs{attempt}"
        shutil.rmtree(folder, ignore_errors=True)
        deck = workloads.WORKLOADS[name](seed, folder)
        runner.run(WARM_UP)
        times.append(time.perf_counter() - start)
    return deck, statistics.median(times)


def loop(deck, seconds: float, runner: Runner, traced: bool = False):
    """Whole passes over the deck until `seconds` have elapsed.

    Results come in whole passes, so every run holds the same mix of jobs;
    a pass still running OVERRUN_S after the deadline is cut short.
    """
    results: List[Result] = []
    start = time.perf_counter()
    passes = 0
    while time.perf_counter() - start < seconds:
        for job in deck:
            results.append(runner.run(job, traced))
            if time.perf_counter() - start > seconds + OVERRUN_S:
                return results, time.perf_counter() - start, passes
        passes += 1
    return results, time.perf_counter() - start, passes


def nearest_rank_tail(values: List[float]):
    """Highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    percentile = 100 * (n - 10) // n
    rank = math.ceil(percentile * n / 100)
    return ordered[rank - 1], percentile, n - rank


def failures(results: List[Result]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for r in results:
        if r.reason:
            counts[r.reason] = counts.get(r.reason, 0) + 1
    return counts


def environment(seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy
    from cremlat.hypgraph import delta_backend

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "delta_backend": delta_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def kernel_disagreements(deck) -> Optional[List[str]]:
    """Inputs on which the compiled and pure kernels differ; None when not built."""
    import importlib.util

    if importlib.util.find_spec("cremlat._delta_cy") is None:
        return None
    import numpy as np
    from cremlat import _delta_cy, _delta_py
    from cremlat.hypgraph import _scaled_int_matrix
    from cremlat.serialize import metric_from_csv

    bad = []
    for job in deck:
        ints, _ = _scaled_int_matrix(metric_from_csv(job.argv[1]).matrix)
        if int(_delta_cy.max_defect(np.array(ints, dtype=np.int64))) != _delta_py.max_defect(ints):
            bad.append(job.argv[1])
    return bad


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: List[Result], wall_s: float, setup_s: float) -> Dict[str, dict]:
    walls = [r.wall_ms for r in results]
    tail, _, _ = nearest_rank_tail(walls)
    return {
        "jobs_per_s": metric(sum(r.reason is None for r in results) / wall_s, "1/s"),
        "job_p50_ms": metric(statistics.median(walls), "ms"),
        "job_tail_ms": metric(tail, "ms"),
        "job_cpu_p50_ms": metric(statistics.median(r.cpu_ms for r in results), "ms"),
        "peak_rss_mb": metric(max(r.rss_kb for r in results) / 1024, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


# span name -> metric name; every span time is self time (span minus child spans)
SPAN_MS = {
    "cli.main": "cli.main_self_ms",
    "serialize.load_json": "serialize.load_json_ms",
    "serialize.records": "serialize.records_ms",
    "serialize.metric_from_csv": "serialize.metric_from_csv_ms",
    "serialize.csv_text": "serialize.csv_text_ms",
    "hypgraph.FiniteMetric": "hypgraph.FiniteMetric_ms",
    "hypgraph.four_point_delta": "hypgraph.four_point_delta_self_ms",
    "kernel.max_defect": "kernel.max_defect_ms",
    "halphen.twist_characteristic": "halphen.twist_characteristic_ms",
    "halphen.twist_degree": "halphen.twist_degree_ms",
    "length.greedy_length": "length.greedy_length_self_ms",
    "length.greedy_predecessor": "length.greedy_predecessor_ms",
    "cremona.jonquieres_characteristic": "cremona.jonquieres_ms",
    "cremona.require_valid": "cremona.require_valid_ms",
    "hypgraph.flat_growth": "hypgraph.flat_growth_self_ms",
    "hypgraph.flat_certificate": "hypgraph.flat_certificate_ms",
    "lattice.in_E": "lattice.in_E_ms",
    "voronoi.classify_germ": "voronoi.classify_germ_ms",
    "bubble.Configuration": "bubble.Configuration_ms",
}
# span name -> metric name for call counts
SPAN_CALLS = {
    "halphen.twist_characteristic": "halphen.twist_characteristic_calls",
    "halphen.twist_degree": "halphen.twist_degree_calls",
    "length.greedy_length": "length.greedy_length_calls",
    "length.greedy_predecessor": "length.greedy_steps",
    "cremona.jonquieres_characteristic": "cremona.jonquieres_calls",
    "cremona.require_valid": "cremona.require_valid_calls",
    "lattice.in_E": "lattice.in_E_calls",
    "voronoi.classify_germ": "voronoi.classify_germ_calls",
}
COUNTERS = ("serialize.bytes_in", "kernel.quadruples", "kernel.compiled_calls", "kernel.pure_fallbacks")


def per_layer(plain: List[Result], traced: List[Result], passes: int) -> Dict[str, dict]:
    """Times are means per traced job; counts are per pass over the deck."""
    jobs = len(traced)
    self_ms: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    import_ms = 0.0
    for r in traced:
        trace = r.trace or {"import_ms": 0.0, "self_ms": {}, "calls": {}, "counts": {}}
        import_ms += trace["import_ms"]
        for table, into in ((trace["self_ms"], self_ms), (trace["calls"], calls), (trace["counts"], counts)):
            for name, value in table.items():
                into[name] = into.get(name, 0) + value
    out = {"cli.import_ms": metric(import_ms / jobs, "ms")}
    for span, name in SPAN_MS.items():
        out[name] = metric(self_ms.get(span, 0.0) / jobs, "ms")
    for span, name in SPAN_CALLS.items():
        out[name] = metric(calls.get(span, 0) / passes, "count")
    for name in COUNTERS:
        out[name] = metric(counts.get(name, 0) / passes, "bytes" if name.endswith("bytes_in") else "count")
    kernel_us = self_ms.get("kernel.max_defect", 0.0) * 1e3
    rate = counts.get("kernel.quadruples", 0) / kernel_us if kernel_us else 0.0
    out["kernel.quadruples_per_us"] = metric(rate, "1/us")
    covered = import_ms + sum(self_ms.values())
    wall = sum(r.wall_ms for r in traced)
    out["trace.overhead_ms"] = metric(
        statistics.median(r.wall_ms for r in traced) - statistics.median(r.wall_ms for r in plain), "ms"
    )
    out["trace.uncovered_share"] = metric(1 - covered / wall, "ratio")
    reasons = failures(traced)
    out["cli.failed_share"] = metric(sum(reasons.values()) / jobs, "ratio")
    for reason in ("traceback", "exit_code", "output"):
        out[f"cli.failed_{reason}"] = metric(reasons.get(reason, 0) / passes, "count")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true", help="write digests.json from one pass at this seed")
    args = parser.parse_args()

    if not (SRC / "cremlat" / "cli.py").is_file():
        print(f"perfbench: no cremlat sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    env = environment(args.seed)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() and not args.freeze else {}
    runner = Runner(digests.get(args.workload, {}))
    deck, setup_s = setup(args.workload, args.seed, runner)

    if args.freeze:
        return freeze(args.workload, deck, runner)

    report = {"workload": args.workload, "env": env, "deck_jobs": len(deck)}
    if args.trace:
        plain, _, _ = loop(deck, args.seconds / 2, runner)
        results, wall_s, passes = loop(deck, args.seconds / 2, runner, traced=True)
        metrics = per_layer(plain, results, max(passes, 1))
    else:
        results, wall_s, passes = loop(deck, args.seconds, runner)
        metrics = end_to_end(results, wall_s, setup_s)
        _, percentile, beyond = nearest_rank_tail([r.wall_ms for r in results])
        report["job_tail"] = {"percentile": percentile, "samples": len(results), "beyond": beyond}
    reasons = failures(results)
    report.update(passes=passes, wall_s=wall_s, failures=reasons)
    report["failed_share"] = sum(reasons.values()) / len(results)
    correct = not any(reasons.get(reason) for reason in WRONG)
    if args.workload == "metric-delta":
        bad = kernel_disagreements(deck)
        if bad is None:
            report["kernel_agreement"] = "skipped: compiled kernel not importable"
        else:
            report["kernel_agreement"] = {"checked": len(deck), "disagree": bad}
        correct = correct and not bad

    print("# " + json.dumps(report, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:14} {name:36} {m['value']:.6g} {m['unit']}")
    failed = sum(reasons.values())
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


def freeze(name: str, deck, runner: Runner) -> int:
    """Record exit code and stdout digest of every job in one pass."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    frozen = {}
    for job in deck:
        result = runner.run(job)
        if result.reason not in (None, "traceback"):
            print(f"perfbench: not freezing, {' '.join(job.argv)} failed: {result.reason}", file=sys.stderr)
            return 1
        out = (WORK / "stdout").read_bytes()
        frozen[job.key] = f"{job.expect_exit}:{hashlib.sha256(out).hexdigest()}"
    table[name] = frozen
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"froze {len(frozen)} digests for {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
