"""Smoke run: every workload at small x, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run exits 0 with correct results and that the metric
names and units it emits are exactly those BENCHMARK.json declares
(end_to_end untraced, per_layer traced).  Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = 0
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(result)}")
                if not result["correct"]:
                    problems.append(f"{result['failed']} of {result['attempted']} checks failed")
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                if got != wanted[trace]:
                    missing = sorted(set(wanted[trace]) - set(got))
                    extra = sorted(set(got) - set(wanted[trace]))
                    units = sorted(n for n in got if n in wanted[trace] and got[n] != wanted[trace][n])
                    problems.append(f"missing {missing}, undeclared {extra}, unit differs {units}")
            print(f"{wl:16s} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
