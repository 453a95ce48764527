"""csumlab benchmark: time to a checked answer, end to end and per layer.

    python3 perfbench/run.py --workload cold-1e8 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each iteration is a fresh process
(worker.py) that imports csumlab from src/, sets up its tables, solves the
workload and checks every result.  Iterations repeat while the next one is
expected to end within --seconds (at least one runs); the end-to-end metrics
are medians over them.  With --trace 1 the run makes one untraced and one
traced iteration and reports per-layer metrics from the traced one, with the
tracing overhead as the difference of their total_s.

Every metric is printed as `name value unit`; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count checks, so error_rate = failed / attempted.
Scratch files live under .perfbench_work/ in the checkout and are removed
on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Every run must end within this many seconds.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

SERIES_KINDS = (
    "mu-baseline",
    "alladi",
    "ramanujan-alladi",
    "mu-mn",
    "mertens-restricted",
    "mu-over-n-restricted",
    "lpf-density",
    "weighted-lhs",
)
SIEVE_CALLS = ("build", "save", "load", "mu_table", "lpf_table")


def _spawn(mode, workload, seed, scale, trace, work_dir, deadline) -> dict:
    """Run worker.py to completion and return its JSON result."""
    out = os.path.join(work_dir, f"result-{mode}-{time.monotonic_ns()}.json")
    spawn_ts = time.monotonic()
    argv = [sys.executable, str(WORKER), mode, workload, str(seed), scale, str(trace),
            repr(spawn_ts), work_dir, out]
    timeout = max(5.0, deadline - time.monotonic())
    proc = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{mode} of {workload} exited {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def per_layer(traced: dict, untraced: dict) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, how) from one traced iteration.

    A layer the workload never calls reads 0.  `how` is "computed" for
    counts the benchmark derives from its inputs rather than measures.
    """
    spans, counts = traced["spans"], traced["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    m: dict[str, tuple[float, str, str]] = {}
    for call in SIEVE_CALLS:
        m[f"sieve.{call}_s"] = (total(f"sieve.{call}"), "s", "measured")
        rss = spans.get(f"sieve.{call}", {}).get("rss_delta_mb", 0.0)
        m[f"sieve.{call}.rss_delta_mb"] = (rss, "MB", "measured")
    for table in ("spf", "mu", "lpf"):
        m[f"sieve.{table}_bytes"] = (counts.get(f"sieve.{table}_bytes", 0), "B", "computed")
    for way in ("written", "read"):
        m[f"sieve.cache_bytes_{way}"] = (counts.get(f"sieve.cache_bytes_{way}", 0), "B", "computed")
    terms = secs = 0.0
    for kind in SERIES_KINDS:
        s = total(f"series.{kind}")
        n = counts.get(f"series.{kind}.terms", 0)
        m[f"series.{kind}.s"] = (s, "s", "measured")
        m[f"series.{kind}.terms"] = (n, "count", "computed")
        m[f"series.{kind}.chunks"] = (counts.get(f"series.{kind}.chunks", 0), "count", "computed")
        terms, secs = terms + n, secs + s
    m["series.terms_per_s"] = (terms / secs if secs else 0.0, "1/s", "measured")
    for part in ("difference_float", "difference_exact"):
        m[f"series.{part}.s"] = (total(f"series.{part}"), "s", "measured")
        m[f"series.{part}.terms"] = (counts.get(f"series.{part}.terms", 0), "count", "computed")
    m["series.difference_float.chunks"] = (
        counts.get("series.difference_float.chunks", 0), "count", "computed")
    w1, w2 = traced.get("w1_s", 0.0), traced.get("w2_s", 0.0)
    m["series.w1_s"] = (w1, "s", "measured")
    m["series.w2_s"] = (w2, "s", "measured")
    m["series.speedup_w2"] = (w1 / w2 if w2 else 0.0, "ratio", "measured")
    m["ramanujan.sum_s"] = (total("ramanujan.sum"), "s", "measured")
    m["ramanujan.direct_s"] = (total("ramanujan.direct"), "s", "measured")
    m["ramanujan.pairs"] = (counts.get("ramanujan.pairs", 0), "count", "computed")
    m["report.build_s"] = (total("report.build"), "s", "measured")
    m["report.emit_s"] = (total("report.emit"), "s", "measured")
    m["cli.verify_s"] = (total("cli.verify"), "s", "measured")
    m["cli.identity_s"] = (total("cli.identity"), "s", "measured")
    m["bench.import_s"] = (total("import"), "s", "measured")
    m["bench.check_s"] = (spans["solve"]["self_s"], "s", "measured")
    m["trace.total_s"] = (traced["total_s"], "s", "measured")
    m["trace.unattributed_s"] = (spans["process"]["self_s"], "s", "measured")
    m["trace.overhead_s"] = (traced["total_s"] - untraced["total_s"], "s", "measured")
    return m


def measure(wl, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Run the iterations of one benchmark run; return the result line."""
    workload = wl.name
    deadline = time.monotonic() + RUN_DEADLINE_S
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_work")
    try:
        if wl.prepare_cache:
            _spawn("prepare", workload, seed, scale, 0, work_dir, deadline)
        t_start = time.monotonic()
        runs: list[dict] = []
        while True:
            t0 = time.monotonic()
            runs.append(_spawn("iter", workload, seed, scale, 0, work_dir, deadline))
            took = time.monotonic() - t0
            if trace or time.monotonic() - t_start + took > seconds:
                break
        if trace:
            runs.append(_spawn("iter", workload, seed, scale, 1, work_dir, deadline))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = dict(runs[-1]["record"], workload=workload, seed=seed, scale=scale,
                  iterations=len(runs), unfingerprinted=runs[-1]["unfingerprinted"])
    print("run record " + json.dumps(record, sort_keys=True))
    if trace:
        spans = runs[-1]["spans"]
        self_sum = sum(s["self_s"] for s in spans.values())
        print(f"spans self_s sum {self_sum!r} s, traced total_s {runs[-1]['total_s']!r} s")
        print("spans " + json.dumps(spans, sort_keys=True))
    for r in runs:
        for what in r["failures"]:
            print(f"FAILED CHECK: {what}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if trace:
        metrics = per_layer(runs[-1], runs[0])
    else:
        samples = {
            "total_s": [r["total_s"] for r in runs],
            "setup_s": [s for r in runs for s in r["setup_samples"]],
            "solve_s": [s for r in runs for s in r["solve_samples"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        metrics = {
            name: (statistics.median(samples[name]), unit, f"median of {len(samples[name])}")
            for name, unit in END_TO_END_UNITS.items()
        }
    for name, (value, unit, how) in metrics.items():
        print(f"{name:34s} {value!r:>24} {unit:6s} {how}")
    print(f"{'error_rate':34s} {failed / attempted!r:>24} {'ratio':6s} failed/attempted checks")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke runs every workload at small x")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "csumlab" / "__init__.py").is_file():
        print(f"error: no csumlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
