"""Write fingerprints.json: the bits of every result any seed can produce.

    python3 perfbench/record.py

Evaluates every member of each parameter family in workloads.py at full
scale, runs the same paper-bound and oracle checks as the benchmark, and
stores the float.hex of every row and identity side (a digest for exact
rationals).  A key reached twice, e.g. the same row from two checkpoint
sets or two table sizes, must give the same bits.  Run it only on purpose:
the benchmark then fails any later commit whose results differ by one bit.
Needs about 1.3 GB of memory and a few minutes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from checks import FINGERPRINTS, Checker
from spans import Tracer
from worker import ROOT, import_package
from workloads import (
    DIFF_FLOAT_M,
    EXACT_M,
    GRID,
    LIMITS,
    OFFGRID,
    RA_M,
    TABLE_WEIGHTS,
    WARM_FIXED,
    WLHS_M,
    WORKLOADS,
    Y_FAMILY,
    Ctx,
    decades,
    difference_exact,
    difference_float,
    run_series,
    weight_label,
)


def record_cold(ctx) -> None:
    cps = WORKLOADS["cold-1e8"].checkpoints(ctx.limit, range(len(OFFGRID)))
    run_series(ctx, "mu-baseline", {}, cps)
    for m in RA_M:
        run_series(ctx, "ramanujan-alladi", {"m": m, "k": 4, "l": 1}, cps)
    run_series(ctx, "lpf-density", {"k": 4, "l": 3}, cps)
    for y in Y_FAMILY:
        run_series(ctx, "mertens-restricted", {"y": y}, cps)


def record_warm(ctx) -> None:
    cps = decades(ctx.limit)
    for m in RA_M:
        for k, l in GRID:
            run_series(ctx, "ramanujan-alladi", {"m": m, "k": k, "l": l}, cps)
    for kind, q in WARM_FIXED:
        run_series(ctx, kind, q, cps)
    for w in TABLE_WEIGHTS:
        run_series(ctx, "weighted-lhs", {"m": WLHS_M, "w": w}, cps)
    for m in DIFF_FLOAT_M:
        difference_float(ctx, m, ctx.limit)


def record_exact(ctx) -> None:
    weights = [("one", ctx.cs.PrimeWeight.constant_one())]
    weights += [(weight_label(w), ctx.cs.PrimeWeight.from_table(w)) for w in TABLE_WEIGHTS]
    for label, weight in weights:
        for m in EXACT_M:
            difference_exact(ctx, m, label, weight, ctx.limit)
    WORKLOADS["exact-oracle"]._pairs(ctx)


def main() -> int:
    cs, cli = import_package()
    db: dict[str, str] = {}
    checker = Checker({}, record=db)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="record-", dir=ROOT / ".perfbench_work")
    try:
        for name, fill in (("exact-oracle", record_exact), ("warm-sweep-1e7", record_warm),
                           ("cold-1e8", record_cold)):
            ctx = Ctx(cs, cli, Tracer(False), checker, LIMITS["full"][name], work_dir)
            ctx.table = cs.build_spf_table(ctx.limit)
            fill(ctx)
            ctx.table = None
            print(f"{name}: {len(db)} fingerprints, {checker.failed} failed checks", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for what in checker.failures:
        print(f"FAILED CHECK: {what}", file=sys.stderr)
    if checker.failed:
        return 1
    FINGERPRINTS.write_text(json.dumps(dict(sorted(db.items())), indent=0) + "\n")
    print(f"wrote {len(db)} fingerprints to {FINGERPRINTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
