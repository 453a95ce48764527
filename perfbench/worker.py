"""One fresh process running one iteration of a workload (run.py starts it).

    python3 perfbench/worker.py MODE WORKLOAD SEED SCALE TRACE SPAWN_TS WORK_DIR OUT

MODE is `iter` (set up, solve, check) or `prepare` (write the cache file a
warm workload loads, before any timing starts).  SPAWN_TS is the parent's
time.monotonic() just before it started this process, so total_s counts
interpreter start and imports.  The result is written as JSON to OUT.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_package():
    """Import csumlab from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "csumlab" / "__init__.py").is_file():
        raise SystemExit(f"no csumlab sources under {src}")
    sys.path.insert(0, str(src))
    import csumlab
    import csumlab.cli

    if Path(csumlab.__file__).resolve().parent != (src / "csumlab").resolve():
        raise SystemExit(f"imported csumlab from {csumlab.__file__}, not {src}")
    return csumlab, csumlab.cli


def _rational_backend() -> str:
    mod = sys.modules["csumlab.series"]
    rational = getattr(mod, "_rational", None)
    if rational is None:
        return "unknown"
    return f"{rational.__module__}.{rational.__qualname__}"


def run_record(cs) -> dict:
    import numpy

    auto = os.cpu_count() or 1
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "csumlab": getattr(cs, "__version__", "unknown"),
        "rational_backend": _rational_backend(),
        "nproc": auto,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": f"auto={auto}",
        "series.CHUNK": getattr(sys.modules["csumlab.series"], "CHUNK", None),
    }


def _replay(ctx, workers) -> tuple[float, bool]:
    """Re-run every series call that takes workers; time it, compare rows."""
    same = True
    t0 = time.monotonic()
    for fn, args, cps, rows in ctx.replay:
        s = fn(ctx.table, *args, cps, **ctx.workers(fn, workers))
        same &= s.rows == rows
    return time.monotonic() - t0, same


def main(argv: list[str]) -> None:
    mode, workload, seed, scale, trace, spawn_ts, work_dir, out = argv
    spawn_ts = float(spawn_ts)
    os.environ.pop("CSUMLAB_CACHE_DIR", None)  # keep every cache inside work_dir
    sys.path.insert(0, str(HERE))
    from checks import Checker, load_fingerprints
    from spans import Tracer, peak_rss_mb
    from workloads import LIMITS, WORKLOADS, Ctx

    wl = WORKLOADS[workload]
    limit = LIMITS[scale][workload]
    tracer = Tracer(trace == "1")
    result: dict = {}

    if mode == "prepare":
        cs, cli = import_package()
        ctx = Ctx(cs, cli, tracer, Checker({}), limit, work_dir)
        cs.save_spf_table(cs.build_spf_table(limit), ctx.cache_path())
        Path(out).write_text(json.dumps(result))
        return

    with tracer.span("process", start=spawn_ts):
        with tracer.span("import", start=spawn_ts):
            cs, cli = import_package()
        ctx = Ctx(cs, cli, tracer, Checker(load_fingerprints()), limit, work_dir)
        params = wl.params(int(seed))
        t_setup = time.monotonic()
        with tracer.span("setup"):
            ctx.table = wl.setup(ctx)
        t_solve = time.monotonic()
        with tracer.span("solve"):
            wl.solve(ctx, params)
        t_done = time.monotonic()

    result.update(
        total_s=t_done - spawn_ts,
        peak_rss_mb=peak_rss_mb(),
        unfingerprinted=ctx.check.unfingerprinted,
        record=run_record(cs),
    )
    setups, solves = [t_solve - t_setup], [t_done - t_solve]
    # Further solves and set-ups, after total_s and peak memory are taken,
    # give setup_s and solve_s medians within this process.
    for _ in range(0 if tracer.enabled else wl.solve_repeats - 1):
        t0 = time.monotonic()
        wl.solve(ctx, params)
        solves.append(time.monotonic() - t0)

    if tracer.enabled:
        result["spans"] = tracer.totals()
        result["counts"] = dict(tracer.counts)
        if wl.measure_speedup and ctx.replay and ctx.workers(ctx.replay[0][0]):
            result["w1_s"], same1 = _replay(ctx, 1)
            result["w2_s"], same2 = _replay(ctx, "auto")
            ctx.check.expect(same1 and same2, "series rows differ between workers=1 and auto")

    quiet = Ctx(cs, cli, Tracer(False), Checker({}), limit, work_dir)
    for _ in range(wl.setup_repeats - 1):
        ctx.table = quiet.table = None
        gc.collect()
        t0 = time.monotonic()
        quiet.table = wl.setup(quiet)
        setups.append(time.monotonic() - t0)
    result.update(
        setup_samples=setups,
        solve_samples=solves,
        attempted=ctx.check.attempted,
        failed=ctx.check.failed,
        failures=ctx.check.failures[:20],
    )
    Path(out).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
