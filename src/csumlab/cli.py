"""Command-line front door: sieve caches, Ramanujan sums, series runs, reports.

Subcommands and their exit codes (stable API):
    sieve      build an SPF table and write it to a cache file
    csum       print c_n(m) values as CSV, optionally cross-checked against
               the exponential-sum oracle
    verify     run one partial-sum series, emit its convergence report CSV,
               optionally assert a final-checkpoint tolerance
    identity   evaluate both sides of the finite-x rearrangement identity

    0  success
    1  a cache or output file cannot be read or written, or the run
       needs more memory than the process can get
    2  usage error (bad flags, invalid (k, l), limit < 2 or > 2**32 - 1, ...)
    3  oracle mismatch in csum --check-oracle
    4  verify --assert-tol breached at the last checkpoint
    5  identity sides differ beyond tolerance

Counts may be written as plain integers (underscores allowed), scientific
shorthand (1e7), or caret powers (10^7); all are parsed to exact integers,
and a count of more than 4300 digits is a usage error.  Every subcommand
runs its parallel steps on one thread per CPU.
The environment variable CSUMLAB_CACHE_DIR names a directory where sieve
tables are cached as spf_<limit>.bin and reused across runs; --cache PATH
takes its place.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from decimal import Decimal, InvalidOperation

from .ramanujan import DIRECT_EVAL_CAP, generalized_ramanujan_sum, ramanujan_sum_direct
from .report import build_report, emit_csv
from .series import (
    SERIES_KINDS,
    PrimeWeight,
    SeriesSpec,
    difference_term,
    run_series,
)
from .sieve import MAX_LIMIT, SpfTable, build_spf_table, load_spf_table, save_spf_table

CACHE_ENV = "CSUMLAB_CACHE_DIR"

#: Float-mode agreement threshold for the rearrangement identity.
IDENTITY_TOL = 1e-9

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_TOLERANCE = 4
EXIT_IDENTITY = 5

VERIFY_KINDS = tuple(SERIES_KINDS)

#: Digits a count may have: Python's default int <-> str conversion cap.
MAX_COUNT_DIGITS = 4300


class UsageError(Exception):
    """Invalid arguments detected after argparse; maps to exit 2."""


def parse_count(text: str) -> int:
    """Parse '1000000', '1_000_000', '1e6', or '10^6' to an exact int.

    A count past MAX_COUNT_DIGITS digits is refused before it is computed.
    """
    s = text.strip().replace("_", "")
    try:
        if "^" in s:
            base, _, exp = s.partition("^")
            b, e = int(base), int(exp)
            if e < 0:
                raise UsageError(f"negative exponent in count: {text!r}")
            # |b| >= 2 gives b**e at least e/4 digits
            if abs(b) > 1 and (e > 4 * MAX_COUNT_DIGITS
                               or e * math.log10(abs(b)) >= MAX_COUNT_DIGITS):
                raise UsageError(f"count has more than {MAX_COUNT_DIGITS} digits: {text!r}")
            return b**e
        if "e" in s or "E" in s:
            d = Decimal(s)
            if d and d.adjusted() >= MAX_COUNT_DIGITS:
                raise UsageError(f"count has more than {MAX_COUNT_DIGITS} digits: {text!r}")
            n = int(d)
            if d != n:
                raise UsageError(f"count is not an integer: {text!r}")
            return n
        return int(s)
    except (ValueError, InvalidOperation):
        raise UsageError(f"cannot parse count: {text!r}") from None


def parse_range(text: str) -> tuple[int, int]:
    """'4' -> (4, 4); '1..200' -> (1, 200)."""
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = parse_count(lo_s), parse_count(hi_s)
    else:
        lo = hi = parse_count(text)
    if lo < 1 or hi < lo:
        raise UsageError(f"bad range: {text!r}")
    return lo, hi


def parse_weight(text: str) -> PrimeWeight:
    """'one' | 'residue:K,L' | 'table:P=V,P=V,...' ('table:' is the empty table)."""
    kind, sep, rest = text.partition(":")
    try:
        if kind == "one":
            if sep:
                raise UsageError("one takes no parameters")
            return PrimeWeight.constant_one()
        if kind == "residue":
            k_s, _, l_s = rest.partition(",")
            return PrimeWeight.residue_class(parse_count(k_s), int(l_s))
        if kind == "table":
            items = [item.partition("=") for item in rest.split(",")] if rest else []
            keys = [parse_count(p_s) for p_s, _, _ in items]
            if len(set(keys)) != len(keys):
                raise UsageError(f"repeated prime in {keys}")
            return PrimeWeight.from_table({p: float(v) for p, (_, _, v) in zip(keys, items)})
    except (ValueError, UsageError) as exc:
        raise UsageError(f"bad weight spec {text!r}: {exc}") from None
    raise UsageError(f"unknown weight kind {kind!r} (one, residue:K,L, table:P=V,...)")


def parse_checkpoints(text: str | None, limit: int) -> tuple[int, ...]:
    """Comma list, 'start:factor:count' geometric spec, or decades default."""
    if text is None:
        cps = []
        c = 10
        while c <= limit:
            cps.append(c)
            c *= 10
        if not cps or cps[-1] != limit:
            cps.append(limit)
        return tuple(cps)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"geometric spec must be start:factor:count, got {text!r}")
        start, factor, count = (parse_count(p) for p in parts)
        if start < 1 or factor < 2 or count < 1:
            raise UsageError(f"bad geometric spec: {text!r}")
        # factor >= 2 puts the last checkpoint at or above 2**(count - 1)
        if count > limit.bit_length():
            raise UsageError(f"geometric spec {text!r} passes limit {limit}")
        cps = tuple(start * factor**i for i in range(count))
    else:
        cps = tuple(parse_count(p) for p in text.split(","))
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise UsageError(f"checkpoints must be strictly ascending: {text!r}")
    if cps[-1] > limit:
        raise UsageError(f"checkpoint {cps[-1]} exceeds limit {limit}")
    return cps


def parse_tolerance(text: str) -> float:
    """A finite tolerance >= 0 (argparse type for --assert-tol)."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse tolerance: {text!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def _check_limit(limit: int) -> None:
    """Reject a table limit the sieve cannot hold, before anything is allocated."""
    if limit > MAX_LIMIT:
        raise UsageError(f"table limit must be at most {MAX_LIMIT}")


def _env_cache_path(limit: int) -> str | None:
    """CSUMLAB_CACHE_DIR/spf_<limit>.bin, or None when the variable is unset or empty."""
    cache_dir = os.environ.get(CACHE_ENV)
    return os.path.join(cache_dir, f"spf_{limit}.bin") if cache_dir else None


def obtain_table(limit: int, cache: str | None) -> SpfTable:
    """The table at the cache path if it covers `limit`, else a new one saved there.

    The path is --cache, or failing that CSUMLAB_CACHE_DIR/spf_<limit>.bin;
    no other file is read.  A file there that fails validation (damaged,
    truncated, another format) or covers less than `limit` draws a warning
    and is rebuilt and rewritten, so a cache file never blocks a run.
    """
    _check_limit(limit)
    path = cache or _env_cache_path(limit)
    if path and os.path.exists(path):
        try:
            t = load_spf_table(path)
        except ValueError as exc:
            print(f"warning: {exc}; rebuilding", file=sys.stderr)
        else:
            if t.limit >= limit:
                return t
            print(f"warning: {path} only covers {t.limit} < {limit}; rebuilding",
                  file=sys.stderr)
    t = build_spf_table(limit)
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        save_spf_table(t, path)
    return t


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_sieve(args) -> int:
    limit = parse_count(args.limit)
    _check_limit(limit)
    out = args.out
    if out is None:
        out = _env_cache_path(limit)
        if out is None:
            raise UsageError(f"--out is required when {CACHE_ENV} is not set")
        os.makedirs(os.path.dirname(out), exist_ok=True)
    t0 = time.perf_counter()
    table = build_spf_table(limit)
    build_s = time.perf_counter() - t0
    save_spf_table(table, out)
    print(f"limit {limit}: built in {build_s:.2f}s, wrote {out}")
    return EXIT_OK


def cmd_csum(args) -> int:
    n_lo, n_hi = parse_range(args.n)
    m_lo, m_hi = parse_range(args.m)
    if args.s is not None and args.check_oracle:
        raise UsageError("--check-oracle applies to classical sums only (drop --s)")
    if args.s is not None and args.s < 1:
        raise UsageError(f"--s must be >= 1, got {args.s}")
    t = obtain_table(max(n_hi, 2), args.cache)
    dest = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        dest.write("n,m,c\n")
        for n in range(n_lo, n_hi + 1):
            for m in range(m_lo, m_hi + 1):
                c = generalized_ramanujan_sum(t, n, m, args.s or 1)
                if args.check_oracle and n <= DIRECT_EVAL_CAP:
                    oracle = ramanujan_sum_direct(n, m)
                    if oracle != c:
                        print(
                            f"oracle mismatch at n={n}, m={m}: "
                            f"divisor form {c}, exponential form {oracle}",
                            file=sys.stderr,
                        )
                        return EXIT_ORACLE
                dest.write(f"{n},{m},{c}\n")
    finally:
        if dest is not sys.stdout:
            dest.close()
    return EXIT_OK


def _series_spec_from_args(args, checkpoints) -> SeriesSpec:
    """The spec the verify flags describe; SeriesSpec rejects a missing
    flag the kind requires and a flag it does not take."""
    weight = parse_weight(args.weight) if args.weight is not None else None
    try:
        return SeriesSpec(
            kind=args.kind,
            m=args.m,
            k=args.k,
            l=args.l,
            y=args.y,
            weight=weight,
            checkpoints=checkpoints,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_verify(args) -> int:
    limit = parse_count(args.limit)
    _check_limit(limit)
    spec = _series_spec_from_args(args, parse_checkpoints(args.checkpoints, limit))
    if args.assert_tol is not None and spec.target is None:
        raise UsageError(f"--assert-tol needs a targeted series; {spec.kind} has no target")
    t = obtain_table(limit, args.cache)
    series = run_series(t, spec)
    report = build_report(series)
    if args.out:
        emit_csv(report, args.out)
        print(f"wrote {args.out}")
    else:
        emit_csv(report, sys.stdout)
    if args.assert_tol is not None:
        last = series.rows[-1]
        if not last.error <= args.assert_tol:
            print(
                f"tolerance breach: |{last.value!r} - {series.spec.target!r}| "
                f"= {last.error!r} > {args.assert_tol!r} at x={last.x}",
                file=sys.stderr,
            )
            return EXIT_TOLERANCE
    return EXIT_OK


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift Python's int-to-str digit cap (3.10.7+) inside the block.

    The exact identity sides have tens of thousands of digits at x = 1e5,
    beyond the default 4300-digit cap.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def cmd_identity(args) -> int:
    m = args.m
    x = parse_count(args.x)
    if not 1 <= m <= MAX_LIMIT or x < 1:
        raise UsageError(f"need 1 <= m <= {MAX_LIMIT} and x >= 1, got m={m}, x={x}")
    weight = parse_weight(args.weight)
    # m is factored by trial division, so the table covers x alone
    t = obtain_table(max(x, 2), args.cache)
    lhs, rhs = difference_term(t, m, weight, x, exact=args.exact)
    if args.exact:
        # sides of tens of thousands of digits: subtract them only on a breach
        agree = lhs == rhs
        with _int_digits_unlimited():
            print(f"lhs  = {lhs}")
            print(f"rhs  = {rhs}")
            print(f"diff = {0 if agree else lhs - rhs}")
        if not agree:
            print("identity breach: sides differ in exact arithmetic", file=sys.stderr)
            return EXIT_IDENTITY
    else:
        diff = abs(lhs - rhs)
        print(f"lhs  = {lhs!r}")
        print(f"rhs  = {rhs!r}")
        print(f"diff = {diff!r}")
        if not diff <= IDENTITY_TOL:
            print(
                f"identity breach: |lhs - rhs| = {diff!r} > {IDENTITY_TOL!r}",
                file=sys.stderr,
            )
            return EXIT_IDENTITY
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csumlab",
        description="Ramanujan-sum series laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cache", default=None, help="path to an spf table cache file")

    p = sub.add_parser("sieve", help="build an SPF table and write a cache file")
    p.add_argument("--limit", required=True, help="sieve limit (1e7, 10^7, ...)")
    p.add_argument("--out", default=None, help="output path for the table")
    p.set_defaults(fn=cmd_sieve)

    p = sub.add_parser("csum", help="print Ramanujan sums c_n(m) as CSV")
    p.add_argument("--n", required=True, help="n or range n1..n2")
    p.add_argument("--m", required=True, help="m or range m1..m2")
    p.add_argument("--s", type=int, default=None,
                   help="power-weight degree for the generalized sum")
    p.add_argument("--check-oracle", action="store_true",
                   help="cross-check against the exponential-sum evaluation")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    common(p)
    p.set_defaults(fn=cmd_csum)

    p = sub.add_parser("verify", help="run a series and report convergence")
    p.add_argument("kind", choices=VERIFY_KINDS)
    p.add_argument("--limit", required=True, help="largest checkpoint / sieve limit")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="modulus")
    p.add_argument("--l", type=int, default=None, help="residue, coprime to k")
    p.add_argument("--y", type=int, default=None, help="smallest-prime threshold")
    p.add_argument("--weight", default=None,
                   help="one | residue:K,L | table:P=V,... (weighted kinds)")
    p.add_argument("--checkpoints", default=None,
                   help="comma list or start:factor:count (default: decades)")
    p.add_argument("--assert-tol", type=parse_tolerance, default=None,
                   help="fail with exit 4 if the final error exceeds this")
    p.add_argument("--out", default=None, help="write the report CSV here")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("identity", help="check the finite-x rearrangement identity")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x", required=True, help="upper limit (1e5, 10^5, ...)")
    p.add_argument("--weight", default="one",
                   help="one | residue:K,L | table:P=V,... (default: one)")
    p.add_argument("--exact", action="store_true",
                   help="rational arithmetic; sides must match exactly")
    common(p)
    p.set_defaults(fn=cmd_identity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("error: not enough memory for this run; try a smaller limit or x",
              file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
