"""The benchmark's workloads: seeded parameters, set-up, solve and checks.

Every call into csumlab goes through Ctx.span, so a traced run sees one span
per public call.  The seed picks parameters from the finite families below,
never the limit x; record.py evaluates each family in full, so every
parameter any seed can draw has a recorded bit fingerprint.

Why these workloads:
  cold-1e8        the table layer (sieve, save, mu, lpf) is most of the run
                  and sets peak memory; the series work on it is light.
  warm-sweep-1e7  the table is loaded from a cache written before timing;
                  term columns and chunk reduction dominate.
  exact-oracle    per-term Python and rational arithmetic with almost no
                  numpy: exact identity sides and the exponential-sum oracle.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import random
import sys
from fractions import Fraction
from math import fsum

from checks import (
    IDENTITY_TOL,
    decade_rows,
    ints_digest,
    mobius_naive,
    phi,
    rational_digest,
)

#: Table limit (the largest x) of each workload at each scale.  The smoke
#: scale runs the same code at small x to check names and plumbing.
LIMITS = {
    "full": {"cold-1e8": 10**8, "warm-sweep-1e7": 10**7, "exact-oracle": 10**5},
    "smoke": {"cold-1e8": 10**6, "warm-sweep-1e7": 10**5, "exact-oracle": 10**3},
}

#: Criterion 6's reduced residue classes and the m values a seed draws from.
#: p(n) = 2 falls in class 2 mod 3, so that class sums about twice as many
#: terms as the others; draws are stratified by class to keep the work, and
#: so the time, of every seed alike.
GRID = ((3, 1), (3, 2), (4, 1), (4, 3))
RA_M = (1, 2, 3, 6, 10, 30)
#: Thresholds of the cold run's restricted Mertens sum.
Y_FAMILY = (2, 3, 5, 7, 11, 13)
#: Table weights share the support {2, 3, 5, 7}, so exact-mode cost hardly
#: depends on the draw; dyadic values keep the rationals the same size.
TABLE_WEIGHTS = (
    {2: 0.5, 3: -0.25, 5: 0.75, 7: 1.0},
    {2: -0.5, 3: 0.25, 5: 1.0, 7: -0.75},
    {2: 1.0, 3: -1.0, 5: 0.5, 7: 0.25},
    {2: 0.25, 3: 0.5, 5: -0.5, 7: 1.5},
    {2: -1.0, 3: 0.75, 5: 0.25, 7: -0.5},
    {2: 0.75, 3: -0.5, 5: -1.0, 7: 0.5},
    {2: 1.5, 3: 0.25, 5: -0.25, 7: -1.0},
    {2: -0.25, 3: 1.0, 5: 0.5, 7: 0.75},
)
#: The warm sweep's unseeded series: criterion 8's mu(mn) pair, criterion
#: 9's thresholds and criterion 7's two classes.
WARM_FIXED = (
    ("alladi", {"k": 4, "l": 3}),
    ("mu-mn", {"m": 2, "k": 3, "l": 1}),
    ("mu-mn", {"m": 4, "k": 3, "l": 1}),
    ("mu-over-n-restricted", {"y": 2}),
    ("mu-over-n-restricted", {"y": 3}),
    ("mu-over-n-restricted", {"y": 5}),
    ("lpf-density", {"k": 4, "l": 1}),
    ("lpf-density", {"k": 4, "l": 3}),
)
WLHS_M = 6
EXACT_M = (2, 3, 4, 6, 12, 30)
DIFF_FLOAT_M = (12, 30)
#: Off-grid checkpoints of cold-1e8, as x at limit 1e8 (scaled with the limit).
OFFGRID = tuple(10**7 + 5_555_557 * i + 3 for i in range(1, 17))
#: x at which each series row is recomputed term by term from point functions.
ORACLE_X = 1000
#: n <= this is compared against the exponential-sum oracle for each m.
DIRECT_N = 200


def decades(limit: int) -> list[int]:
    return [10**e for e in range(1, 20) if 10**e <= limit]


def weight_label(values: dict) -> str:
    return "table:" + ",".join(f"{p}={v!r}" for p, v in sorted(values.items()))


class Ctx:
    """What a workload step needs: the package, tracer, checker, paths."""

    def __init__(self, cs, cli, tracer, checker, limit: int, work_dir: str):
        self.cs = cs
        self.cli = cli
        self.tracer = tracer
        self.check = checker
        self.limit = limit
        self.work_dir = work_dir
        self.table = None
        self.chunk = getattr(sys.modules["csumlab.series"], "CHUNK", 1 << 20)
        #: (fn, args, checkpoints, rows) of every call that takes workers
        self.replay: list = []

    def span(self, name: str):
        return self.tracer.span(name)

    def workers(self, fn, value="auto") -> dict:
        """workers=... for functions that still accept it."""
        return {"workers": value} if "workers" in inspect.signature(fn).parameters else {}

    def cache_path(self) -> str:
        return os.path.join(self.work_dir, f"spf_{self.limit}.bin")


# ---------------------------------------------------------------------------
# computed work counts
# ---------------------------------------------------------------------------


def series_chunks(start: int, checkpoints, chunk: int) -> int:
    """Units on the fixed chunk grid: whole cells up to the last checkpoint,
    plus one probe per checkpoint that does not end on a cell boundary."""
    cells = len(range((start // chunk + 1) * chunk, checkpoints[-1] + 2, chunk))
    probes = sum(1 for cp in checkpoints if max(start, (cp + 1) // chunk * chunk) < cp + 1)
    return cells + probes


def range_chunks(start: int, stop: int, chunk: int) -> int:
    """Chunks of the half-open range [start, stop) on the fixed grid."""
    if stop <= start:
        return 0
    return len(range((start // chunk + 1) * chunk, stop, chunk)) + 1


# ---------------------------------------------------------------------------
# series kinds: call, target, paper bound, term-by-term oracle
# ---------------------------------------------------------------------------


def _series_call(ctx, kind: str, p: dict):
    """(function, positional args, target the paper gives) for one kind."""
    cs = ctx.cs
    if kind == "mu-baseline":
        return cs.mu_baseline, (), 1.0
    if kind == "alladi":
        return cs.alladi_partial_sum, (p["k"], p["l"]), 1.0 / phi(p["k"])
    if kind == "ramanujan-alladi":
        return cs.ramanujan_alladi_partial_sum, (p["m"], p["k"], p["l"]), 1.0 / phi(p["k"])
    if kind == "mu-mn":
        args = (p["m"], p["k"], p["l"])
        return cs.mu_mn_partial_sum, args, mobius_naive(p["m"]) / phi(p["k"])
    if kind == "mertens-restricted":
        return cs.mertens_restricted, (p["y"],), None
    if kind == "mu-over-n-restricted":
        return cs.mu_over_n_restricted, (p["y"],), 0.0
    if kind == "lpf-density":
        w = cs.PrimeWeight.residue_class(p["k"], p["l"])
        return cs.lpf_density, (w,), 1.0 / phi(p["k"])
    if kind == "weighted-lhs":
        return cs.weighted_lhs, (p["m"], cs.PrimeWeight.from_table(p["w"])), None
    raise ValueError(kind)


def series_key(kind: str, p: dict) -> str:
    parts = [f"{k}={weight_label(v) if k == 'w' else v}" for k, v in sorted(p.items())]
    return f"{kind}|{','.join(parts)}"


def run_series(ctx, kind: str, p: dict, checkpoints) -> None:
    """One series call, its report, and every check that applies to it."""
    fn, args, target = _series_call(ctx, kind, p)
    key = series_key(kind, p)
    kw = ctx.workers(fn)
    with ctx.span(f"series.{kind}"):
        s = fn(ctx.table, *args, checkpoints, **kw)
    ctx.tracer.count(f"series.{kind}.terms", checkpoints[-1] - 1)
    ctx.tracer.count(f"series.{kind}.chunks", series_chunks(2, checkpoints, ctx.chunk))
    if kw:
        ctx.replay.append((fn, args, checkpoints, s.rows))
    ctx.check.series(key, s, checkpoints, target)
    with ctx.span("report.build"):
        report = ctx.cs.build_report(s)
    buf = io.StringIO()
    with ctx.span("report.emit"):
        ctx.cs.emit_csv(report, buf)
    ctx.check.report_csv(key, s, buf.getvalue())
    _paper_bounds(ctx, kind, p, key, s)
    if ORACLE_X in checkpoints:
        _oracle(ctx, kind, p, key, s)


def _paper_bounds(ctx, kind, p, key, s) -> None:
    """Acceptance criteria 5-9, applied at the x each one names."""
    rows = decade_rows(s)
    expect = ctx.check.expect
    if kind == "mu-baseline" and 10**4 in rows and 10**6 in rows:
        e4, e6 = rows[10**4].error, rows[10**6].error
        expect(e6 < 0.01 and e6 < e4, f"{key}: criterion 5 (err 1e6 {e6!r}, 1e4 {e4!r})")
    if kind in ("alladi", "ramanujan-alladi") and 10**5 in rows and 10**7 in rows:
        e5, e7 = rows[10**5].error, rows[10**7].error
        expect(e7 < 0.1 and e7 <= e5, f"{key}: criterion 6 (err 1e7 {e7!r}, 1e5 {e5!r})")
    if kind == "lpf-density":
        if 10**7 in rows:
            v = rows[10**7].value
            expect(abs(v - 0.5) < 0.02, f"{key}: criterion 7 ({v!r})")
        for r in s.rows:
            expect(r.value == r.count / r.x, f"{key}|x={r.x}: ratio != count / x")
    if kind == "mu-mn":
        if mobius_naive(p["m"]) == 0:
            expect(all(r.value == 0.0 for r in s.rows), f"{key}: criterion 8 zero rows")
        elif 10**7 in rows:
            e7 = rows[10**7].error
            expect(e7 < 0.1, f"{key}: criterion 8 (err 1e7 {e7!r})")
    if kind == "mertens-restricted":
        for r in s.rows:
            if r.x <= p["y"]:
                expect(r.value == 1.0, f"{key}|x={r.x}: criterion 9 sentinel {r.value!r}")
    if kind == "mu-over-n-restricted":
        vals = [abs(rows[x].value) for x in (10**4, 10**5, 10**6, 10**7) if x in rows]
        ok = all(b <= a + 1e-3 for a, b in zip(vals, vals[1:]))
        expect(ok, f"{key}: criterion 9 decade decay {vals!r}")


def _csums(ctx, m: int, ns) -> list[int]:
    """c_n(m) by the divisor identity, checked against the exponential sum."""
    cs, t = ctx.cs, ctx.table
    with ctx.span("ramanujan.sum"):
        vals = [cs.ramanujan_sum(t, n, m) for n in ns]
    head = [n for n in ns if n <= DIRECT_N]
    with ctx.span("ramanujan.direct"):
        direct = [cs.ramanujan_sum_direct(n, m) for n in head]
    ctx.check.expect(vals[: len(head)] == direct, f"c_n({m}) != exponential sum for n <= {DIRECT_N}")
    return vals


def _oracle(ctx, kind, p, key, s) -> None:
    """Recompute the row at ORACLE_X from per-n point functions."""
    cs, t, x = ctx.cs, ctx.table, ORACLE_X
    row = next(r for r in s.rows if r.x == x)
    ns = range(2, x + 1)
    spf = [cs.smallest_prime_factor(t, n) for n in ns]
    mu = [cs.moebius(t, n) for n in ns]
    what = f"{key}|x={x}"
    if kind == "mertens-restricted":
        want = 1 + sum(u for u, q in zip(mu, spf) if q > p["y"])
        ctx.check.expect(row.value == float(want), f"{what}: {row.value!r} vs oracle {want}")
        return
    if kind == "lpf-density":
        want = sum(1 for n in ns if cs.largest_prime_factor(t, n) % p["k"] == p["l"])
        ctx.check.expect(row.count == want, f"{what}: count {row.count} vs oracle {want}")
        return
    if kind == "mu-over-n-restricted":
        terms = [1.0] + [u / n for n, u, q in zip(ns, mu, spf) if q > p["y"]]
    elif kind == "mu-mn":
        terms = [-float(cs.moebius(t, p["m"] * n)) / n for n, q in zip(ns, spf) if q % p["k"] == p["l"]]
    else:
        m = p.get("m", 1)
        c = _csums(ctx, m, ns) if m > 1 else mu
        if kind == "weighted-lhs":
            terms = [-float(v) * p["w"].get(q, 0.0) / n for n, v, q in zip(ns, c, spf)]
        elif kind == "mu-baseline":
            terms = [-float(v) / n for n, v in zip(ns, c)]
        else:
            terms = [-float(v) / n for n, v, q in zip(ns, c, spf) if q % p["k"] == p["l"]]
    ctx.check.close(what, row.value, fsum(terms))


# ---------------------------------------------------------------------------
# identity and CLI calls
# ---------------------------------------------------------------------------


def difference_float(ctx, m: int, x: int) -> None:
    cs = ctx.cs
    with ctx.span("series.difference_float"):
        lhs, rhs = cs.difference_term(ctx.table, m, cs.PrimeWeight.constant_one(), x)
    divs = [d for d in range(2, m + 1) if m % d == 0]
    ctx.tracer.count("series.difference_float.terms", (x - 1) + sum(x // d for d in divs))
    chunks = range_chunks(2, x + 1, ctx.chunk) + sum(range_chunks(1, x // d + 1, ctx.chunk) for d in divs)
    ctx.tracer.count("series.difference_float.chunks", chunks)
    key = f"difference-float|m={m},w=one|x={x}"
    ctx.check.expect(abs(lhs - rhs) <= IDENTITY_TOL, f"{key}: |lhs - rhs| = {abs(lhs - rhs)!r}")
    ctx.check.fingerprint(key, f"{float.hex(lhs)},{float.hex(rhs)}")


def difference_exact(ctx, m: int, label: str, weight, x: int):
    with ctx.span("series.difference_exact"):
        lhs, rhs = ctx.cs.difference_term(ctx.table, m, weight, x, exact=True)
    divs = [d for d in range(2, m + 1) if m % d == 0]
    ctx.tracer.count("series.difference_exact.terms", (x - 1) + sum(x // d for d in divs))
    key = f"difference-exact|m={m},w={label}|x={x}"
    ctx.check.expect(lhs == rhs, f"{key}: exact sides differ")
    ctx.check.fingerprint(key, f"{rational_digest(lhs)},{rational_digest(rhs)}")
    return lhs


@contextlib.contextmanager
def int_digits_unlimited():
    """Lift Python's 4300-digit int<->str cap, as PYTHONINTMAXSTRDIGITS=0 does.

    `csumlab identity --exact` prints both sides in decimal; at x = 1e5 they
    have tens of thousands of digits, and under the default cap the CLI
    exits 2 ("Exceeds the limit ... for integer string conversion").
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no cap
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def cli_call(ctx, name: str, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with ctx.span(name), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = ctx.cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class ColdTables:
    """Empty cache dir: build the 1e8 table, save it, force mu and lpf."""

    name = "cold-1e8"
    setup_repeats = 1
    solve_repeats = 3
    prepare_cache = False
    measure_speedup = False

    def params(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {
            "ra": {"m": rng.choice(RA_M), "k": 4, "l": 1},
            "y": rng.choice(Y_FAMILY),
            "off": rng.randrange(len(OFFGRID)),
        }

    def checkpoints(self, limit: int, offs) -> list[int]:
        return sorted(set(decades(limit)) | {OFFGRID[i] * limit // 10**8 for i in offs})

    def setup(self, ctx):
        cs = ctx.cs
        with ctx.span("sieve.build"):
            t = cs.build_spf_table(ctx.limit)
        with ctx.span("sieve.save"):
            cs.save_spf_table(t, ctx.cache_path())
        ctx.tracer.count("sieve.cache_bytes_written", os.path.getsize(ctx.cache_path()))
        _force_companions(ctx, t)
        return t

    def solve(self, ctx, p: dict) -> None:
        cps = self.checkpoints(ctx.limit, [p["off"]])
        run_series(ctx, "mu-baseline", {}, cps)
        run_series(ctx, "ramanujan-alladi", p["ra"], cps)
        run_series(ctx, "lpf-density", {"k": 4, "l": 3}, cps)
        run_series(ctx, "mertens-restricted", {"y": p["y"]}, cps)


class WarmSweep:
    """A 1e7 cache written before timing is loaded; then the series sweep."""

    name = "warm-sweep-1e7"
    setup_repeats = 1
    solve_repeats = 1
    prepare_cache = True
    measure_speedup = True

    def params(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {
            "ra": [{"m": m, "k": k, "l": l} for k, l in GRID for m in rng.sample(RA_M, 3)],
            "w": rng.choice(TABLE_WEIGHTS),
            "cli": {"m": rng.choice(RA_M), "k": 4, "l": 1},
        }

    def setup(self, ctx):
        with ctx.span("sieve.load"):
            t = ctx.cs.load_spf_table(ctx.cache_path())
        ctx.tracer.count("sieve.cache_bytes_read", os.path.getsize(ctx.cache_path()))
        _force_companions(ctx, t)
        return t

    def solve(self, ctx, p: dict) -> None:
        cps = decades(ctx.limit)
        for ra in p["ra"]:
            run_series(ctx, "ramanujan-alladi", ra, cps)
        for kind, q in WARM_FIXED:
            run_series(ctx, kind, q, cps)
        run_series(ctx, "weighted-lhs", {"m": WLHS_M, "w": p["w"]}, cps)
        for m in DIFF_FLOAT_M:
            difference_float(ctx, m, ctx.limit)
        self._cli_verify(ctx, p["cli"], cps)

    def _cli_verify(self, ctx, p: dict, cps) -> None:
        out = os.path.join(ctx.work_dir, "verify.csv")
        argv = ["verify", "ramanujan-alladi", "--m", str(p["m"]), "--k", str(p["k"]),
                "--l", str(p["l"]), "--limit", str(ctx.limit), "--cache", ctx.cache_path(),
                "--assert-tol", "0.1", "--out", out]
        rc, _ = cli_call(ctx, "cli.verify", argv)
        with open(out, encoding="utf-8") as fh:
            lines = [ln.split(",") for ln in fh.read().splitlines()[1:] if not ln.startswith("#")]
        os.remove(out)
        key = series_key("ramanujan-alladi", p)
        rows = {int(f[0]): float(f[1]) for f in lines}
        last_err = abs(rows.get(ctx.limit, float("nan")) - 1.0 / phi(p["k"]))
        want_rc = 0 if last_err <= 0.1 else 4
        ctx.check.expect(rc == want_rc, f"cli verify exit {rc}, expected {want_rc}")
        ctx.check.expect(sorted(rows) == cps, f"cli verify rows {sorted(rows)} != {cps}")
        for x, v in rows.items():
            ctx.check.fingerprint(f"{key}|x={x}", float.hex(v))


class ExactOracle:
    """Exact identity sides, the 40000-pair oracle and `identity --exact`."""

    name = "exact-oracle"
    setup_repeats = 9
    solve_repeats = 1
    prepare_cache = False
    measure_speedup = False

    def params(self, seed: int) -> dict:
        return {"w": random.Random(seed).choice(TABLE_WEIGHTS)}

    def setup(self, ctx):
        with ctx.span("sieve.build"):
            t = ctx.cs.build_spf_table(ctx.limit)
        ctx.tracer.count("sieve.spf_bytes", 4 * (ctx.limit + 1))
        return t

    def solve(self, ctx, p: dict) -> None:
        cs, x = ctx.cs, ctx.limit
        lhs12 = None
        for label, weight in (("one", cs.PrimeWeight.constant_one()),
                              (weight_label(p["w"]), cs.PrimeWeight.from_table(p["w"]))):
            for m in EXACT_M:
                lhs = difference_exact(ctx, m, label, weight, x)
                if m == 12 and label == "one":
                    lhs12 = lhs
        self._pairs(ctx)
        self._cli_identity(ctx, x, lhs12)

    def _pairs(self, ctx) -> None:
        cs, t = ctx.cs, ctx.table
        pairs = [(n, m) for n in range(1, DIRECT_N + 1) for m in range(1, DIRECT_N + 1)]
        with ctx.span("ramanujan.sum"):
            fast = [cs.ramanujan_sum(t, n, m) for n, m in pairs]
        with ctx.span("ramanujan.direct"):
            slow = [cs.ramanujan_sum_direct(n, m) for n, m in pairs]
        ctx.tracer.count("ramanujan.pairs", len(pairs))
        bad = sum(a != b for a, b in zip(fast, slow))
        ctx.check.expect(bad == 0, f"{bad} of {len(pairs)} pairs differ from the exponential sum")
        ctx.check.fingerprint(f"ramanujan-pairs|n,m<={DIRECT_N}", ints_digest(fast))

    def _cli_identity(self, ctx, x: int, lhs12) -> None:
        with int_digits_unlimited():
            rc, out = cli_call(ctx, "cli.identity", ["identity", "--m", "12", "--x", str(x), "--exact"])
            fields = {k.strip(): v for k, v in (ln.split(" = ", 1) for ln in out.splitlines() if " = " in ln)}
            lhs = Fraction(fields["lhs"]) if "lhs" in fields else None
        ctx.check.expect(rc == 0, f"cli identity --exact exit {rc}, expected 0")
        ctx.check.expect(fields.get("diff") == "0", "cli identity --exact: diff != 0")
        ctx.check.expect(lhs == lhs12, "cli identity --exact: lhs differs from difference_term")


def _force_companions(ctx, t) -> None:
    """Force mu and lpf; spf, mu and lpf hold 4, 1 and 4 bytes per n."""
    n = ctx.limit + 1
    for name, width in (("spf", 4), ("mu", 1), ("lpf", 4)):
        ctx.tracer.count(f"sieve.{name}_bytes", width * n)
    with ctx.span("sieve.mu_table"):
        t.mu_table()
    with ctx.span("sieve.lpf_table"):
        t.lpf_table()


WORKLOADS = {w.name: w for w in (ColdTables(), WarmSweep(), ExactOracle())}
