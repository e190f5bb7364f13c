"""ddvar benchmark: time to an analysis, set-up time and memory.

    python3 bench/run.py --workload mps_4k --seed 0 --seconds 30 --trace 0

runs the workload again and again, each run a fresh process started
from worker.py, until --seconds have passed (and at least MIN_RUNS runs
are done), then reports the median of every metric over the runs whose
outputs passed the oracle check.

--trace 0 reports the end-to-end metrics (run_s, setup_s, solve_s,
peak_rss_mb).  --trace 1 alternates untraced and traced runs and reports
the per-layer metrics of tracer.py from the traced ones; trace.overhead_s
is the traced run_s minus the untraced run_s, both medians.  --heldout
shifts the workload seed by HELDOUT_OFFSET, so a claim can be checked on
a seed not used while it was written.

Every output line names the workload, and every metric line the metric
and its unit.  The last line is one JSON object with the keys correct,
attempted, failed and metrics.  A run fails if it raises, does not
converge, gives a non-finite output or fails a check; failed runs count
in `failed` and their timings are left out of the medians.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import LAYER_UNITS  # noqa: E402
from workloads import HELDOUT_OFFSET, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}
CHECK_UNITS = {
    "check.ref_linf": "1",
    "check.truth_ratio": "ratio",
    "check.cost_excess": "ratio",
    "check.cost_rel_err": "ratio",
}
# Untraced runs per --trace 0 invocation, and runs of each kind per
# --trace 1 invocation, even when --seconds is shorter.
MIN_RUNS = 3
MIN_TRACE_RUNS = 2
# No run starts that could end after this many seconds; the benchmark
# must exit within 180.
DEADLINE_S = 170.0
# BLAS and the subdomain solves run on one thread each in every
# workload; README.md says why.
BLAS_THREADS = 1
SUBDOMAIN_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed: int, heldout: bool) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = blas.get("name", "unknown")
        blas_version = blas.get("version", "unknown")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "subdomain_threads": SUBDOMAIN_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "heldout": int(heldout),
    }


def run_worker(workload, seed: int, traced: bool, workdir: str,
               timeout: float) -> dict:
    """Start one worker process, wait for it and return its record.

    A worker that raises, times out or prints no record gives a record
    whose failures say why.
    """
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload.name, "--seed", str(seed),
           "--trace", str(int(traced)), "--dir", workdir]
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env["DDVAR_THREADS"] = str(SUBDOMAIN_THREADS)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"traced": traced,
                "failures": [f"exit {proc.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


def enough_runs(records, trace: bool) -> bool:
    if not trace:
        return len(records) >= MIN_RUNS
    traced = sum(1 for r in records if r["traced"])
    return min(traced, len(records) - traced) >= MIN_TRACE_RUNS


def run_workload(workload, seed: int, seconds: float, trace: bool, emit):
    """Run the workload for `seconds`; return every run's record."""
    records = []
    start = time.monotonic()
    longest = 0.0
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / ".work") as workdir:
        while True:
            elapsed = time.monotonic() - start
            if elapsed >= seconds and enough_runs(records, trace):
                break
            if elapsed + longest > DEADLINE_S:
                break
            traced = trace and len(records) % 2 == 1
            began = time.monotonic()
            record = run_worker(workload, seed, traced, workdir,
                                DEADLINE_S - elapsed)
            longest = max(longest, time.monotonic() - began)
            records.append(record)
            emit_run(emit, len(records), record)
    return records


def emit_run(emit, index: int, record: dict) -> None:
    head = f"run={index} traced={int(record['traced'])}"
    for failure in record["failures"]:
        emit(f"{head} metric=failure unit=- value={json.dumps(failure)}")
    if "run_s" not in record:
        return
    for name, unit in END_TO_END_UNITS.items():
        emit(f"{head} metric={name} unit={unit} value={record[name]!r}")
    for name, value in record["checks"].items():
        emit(f"{head} metric={name} unit={CHECK_UNITS[name]} value={value!r}")


def summarize(records, trace: bool):
    """Samples of each reported metric from the runs that passed.

    Returns ({metric: (unit, samples)}, None), or (None, reason) when a
    kind of run the metrics need never passed.  The one sample of
    trace.overhead_s is the difference of the two run_s medians.
    """
    passed = [r for r in records if not r["failures"]]
    untraced = [r for r in passed if not r["traced"]]
    traced = [r for r in passed if r["traced"]]
    if not untraced or (trace and not traced):
        return None, "no run passed its checks"
    if not trace:
        return {name: (unit, [r[name] for r in untraced])
                for name, unit in END_TO_END_UNITS.items()}, None
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_s":
            samples = [statistics.median(r["run_s"] for r in traced)
                       - statistics.median(r["run_s"] for r in untraced)]
        else:
            samples = [r["layers"][name] for r in traced]
        metrics[name] = (unit, samples)
    return metrics, None


def spread(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" q1={q1!r} q3={q3!r} min={min(values)!r} max={max(values)!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ddvar benchmark: time to analysis, set-up and memory."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true",
                        help=f"use workload seed + {HELDOUT_OFFSET}")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ddvar" / "__init__.py").is_file():
        print(f"error: no ddvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seed = args.seed + (HELDOUT_OFFSET if args.heldout else 0)
    trace = bool(args.trace)

    def emit(text: str) -> None:
        print(f"workload={workload.name} {text}", flush=True)

    env = environment(workload, seed, args.heldout)
    emit(" ".join(f"env.{k}={v}" for k, v in env.items()))
    records = run_workload(workload, seed, args.seconds, trace, emit)
    metrics, reason = summarize(records, trace)
    if metrics is None:
        print(f"error: {workload.name}: {reason}", file=sys.stderr)
        return 1

    medians = {}
    for name, (unit, samples) in metrics.items():
        medians[name] = statistics.median(samples)
        emit(f"metric={name} unit={unit} median={medians[name]!r} "
             f"n={len(samples)}" + spread(samples))
    failed = sum(1 for r in records if r["failures"])
    emit(f"metric=fail_frac unit=ratio value={failed / len(records)!r} "
         f"failed={failed} attempted={len(records)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": medians[name], "unit": unit}
                    for name, (unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
