"""Command-line surface: parsers, subcommands, exit codes, cache plumbing."""

import os
import re
import resource
import stat
import struct
import subprocess
import sys
import time
import warnings
import zlib
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import csumlab.cli as cli
import csumlab.sieve as sieve
from csumlab.cli import (
    EXIT_IDENTITY,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    VERIFY_KINDS,
    UsageError,
    main,
    parse_checkpoints,
    parse_count,
    parse_range,
    parse_weight,
)
from csumlab.ramanujan import ramanujan_sum_direct
from csumlab.series import SERIES_KINDS, OneWeight, PrimeWeight, ResidueWeight, TableWeight
from csumlab.sieve import build_spf_table, load_spf_table, save_spf_table

from conftest import csum_totient


# --- argument parsing --------------------------------------------------------


def test_parse_count_forms():
    assert parse_count("1000000") == 10**6
    assert parse_count("1_000_000") == 10**6
    assert parse_count("1e6") == 10**6
    assert parse_count("2.5e3") == 2500
    assert parse_count("10^7") == 10**7
    assert parse_count("2^10") == 1024
    assert parse_count(" 42 ") == 42
    # a leading sign applies to b^e, as in Python's -2**2
    assert parse_count("-2^2") == -4
    assert parse_count("-10^3") == -1000
    assert parse_count("+2^3") == 8
    assert parse_count("-0^0") == -1


def test_parse_count_rejects_non_integers():
    for bad in ("1.5", "1.23e1", "abc", "10^-2", "1e-3", ""):
        with pytest.raises(UsageError):
            parse_count(bad)


def test_parse_range():
    assert parse_range("7") == (7, 7)
    assert parse_range("1..200") == (1, 200)
    assert parse_range("10..1e2") == (10, 100)
    with pytest.raises(UsageError):
        parse_range("5..2")
    with pytest.raises(UsageError):
        parse_range("0..9")


def test_parse_weight():
    assert parse_weight("one") == OneWeight()
    assert parse_weight("residue:4,3") == ResidueWeight(4, 3)
    wt = parse_weight("table:2=0.5,3=-0.25")
    assert wt == TableWeight(((2, 0.5), (3, -0.25)))
    with pytest.raises(UsageError):
        parse_weight("residue:4,2")  # not coprime
    with pytest.raises(UsageError):
        parse_weight("gauss:1")
    for bad in ("one:whatever", "one:", "one:4,3"):  # one takes no parameters
        with pytest.raises(UsageError):
            parse_weight(bad)


def test_weight_describe_round_trips():
    # describe() is the report's "# series ... weight=" token, and
    # parse_weight reads every weight back from it
    assert [w.describe() for w in (OneWeight(), ResidueWeight(4, 3), ResidueWeight(7, -2),
                                   TableWeight(((2, 0.5), (3, -0.25))), TableWeight(()))] == [
        "one", "residue:4,3", "residue:7,-2", "table:2=0.5,3=-0.25", "table:"]
    near = [4294967291, 4294967279, 4294967231]  # the three largest primes below 2**32
    weights = [PrimeWeight.constant_one()]
    weights += [PrimeWeight.residue_class(k, l) for k in (1, 4, 2**32 - 1) for l in (1, -1, -7)]
    weights += [TableWeight(()), PrimeWeight.from_table({2: 5e-324}),
                PrimeWeight.from_table(dict(zip(near, (5e-324, -1e100, 0.1)))),
                PrimeWeight.from_table({3: 0.1, 2: -1e100, near[0]: 1.0})]
    assert weights[-2].describe() == (
        "table:4294967231=0.1,4294967279=-1e+100,4294967291=5e-324")
    for w in weights:
        assert parse_weight(w.describe()) == w, w


def test_empty_table_weight_runs_as_zero(capsys):
    # the weight a report prints as weight=table: is accepted back as a flag
    code = main(["verify", "weighted-lhs", "--m", "6", "--weight", "table:", "--limit", "1e4"])
    assert code == EXIT_OK
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]
            if not ln.startswith("#")]
    assert [r[0] for r in rows] == ["10", "100", "1000", "10000"]
    assert all(r[1] == "0" for r in rows), rows


def test_parse_checkpoints_list_geometric_default():
    assert parse_checkpoints("10,100,1000", 10**4) == (10, 100, 1000)
    assert parse_checkpoints("100:10:4", 10**6) == (100, 1000, 10**4, 10**5)
    assert parse_checkpoints(None, 10**4) == (10, 100, 1000, 10**4)
    assert parse_checkpoints(None, 5000) == (10, 100, 1000, 5000)
    assert parse_checkpoints(None, 7) == (7,)
    with pytest.raises(UsageError):
        parse_checkpoints("100,100", 10**4)
    with pytest.raises(UsageError):
        parse_checkpoints("10,1e5", 10**4)
    with pytest.raises(UsageError):
        parse_checkpoints("10:10:9", 10**4)


# --- sieve -------------------------------------------------------------------


def test_sieve_writes_cache_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a.bin"
    out2 = tmp_path / "b.bin"
    assert main(["sieve", "--limit", "10^4", "--out", str(out1)]) == EXIT_OK
    assert main(["sieve", "--limit", "1e4", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_sieve_reports_build_and_mu_seconds(tmp_path, capsys):
    out = tmp_path / "a.bin"
    assert main(["sieve", "--limit", "1e4", "--out", str(out)]) == EXIT_OK
    line = capsys.readouterr().out
    assert re.fullmatch(rf"limit 10000: built in \d+\.\d\ds, mu in \d+\.\d\ds, wrote {re.escape(str(out))}\n",
                        line), line


def test_cached_run_reads_mu_and_derives_none(tmp_path, monkeypatch, capsys):
    # the cache holds mu, so a run that loads it derives no table at all
    monkeypatch.delenv("CSUMLAB_CACHE_DIR", raising=False)
    argv = ["verify", "ramanujan-alladi", "--m", "30", "--k", "4", "--l", "1", "--limit", "1e5"]
    assert main(argv) == EXIT_OK
    fresh = capsys.readouterr().out
    cache = tmp_path / "spf.bin"
    assert main(["sieve", "--limit", "1e5", "--out", str(cache)]) == EXIT_OK
    derived, derive = [], sieve._derive
    monkeypatch.setattr(sieve, "_derive", lambda *args: derived.append(args[-1]) or derive(*args))
    capsys.readouterr()
    assert main(argv + ["--cache", str(cache)]) == EXIT_OK
    assert capsys.readouterr().out == fresh
    assert derived == []


def test_sieve_rejects_tiny_limit(tmp_path):
    assert main(["sieve", "--limit", "1", "--out", str(tmp_path / "x.bin")]) == EXIT_USAGE


def test_table_limit_above_max_is_usage_error(tmp_path):
    out = tmp_path / "x.bin"
    for argv in (
        ["sieve", "--limit", "5e9", "--out", str(out)],
        ["csum", "--n", "5e9", "--m", "1"],
        ["verify", "mu-baseline", "--limit", "5e9"],
        ["identity", "--m", "2", "--x", "5e9"],
    ):
        assert main(argv) == EXIT_USAGE, argv
    assert not out.exists()


def test_out_of_memory_is_one_line_exit_1():
    # RLIMIT_AS caps the child alone, so the 16 GB table cannot be allocated
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, 1500 * 2**20))

    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "csumlab", "verify", "mu-baseline", "--limit", "4e9"],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: not enough memory"), lines


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


# --- csum --------------------------------------------------------------------


def test_csum_single_value(capsys):
    assert main(["csum", "--n", "4", "--m", "2"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,m,c"
    assert out[1] == "4,2,-2"


def test_csum_range_matches_oracle(capsys):
    assert main(["csum", "--n", "1..30", "--m", "1..5", "--check-oracle"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 + 30 * 5
    for line in out[1:]:
        n, m, c = (int(v) for v in line.split(","))
        assert c == csum_totient(n, m)
    # q * m passes 2**63 at these m, past what int64 holds
    for m in ("10^18", "10^19"):
        assert main(["csum", "--n", "90..100", "--m", m, "--check-oracle"]) == EXIT_OK, m
        for line in capsys.readouterr().out.splitlines()[1:]:
            n, m_, c = (int(v) for v in line.split(","))
            assert c == csum_totient(n, m_)


def test_csum_oracle_mismatch_exits_3(monkeypatch, tmp_path, capsys):
    # an oracle wrong at one pair stops the run there: exit 3, one stderr
    # line naming the pair, and no row for it or for any pair after it
    def wrong_at_7_3(n, m):
        return ramanujan_sum_direct(n, m) + ((n, m) == (7, 3))

    monkeypatch.setattr(cli, "ramanujan_sum_direct", wrong_at_7_3)
    out = tmp_path / "c.csv"
    code = main(["csum", "--n", "1..10", "--m", "1..5", "--check-oracle", "--out", str(out)])
    assert code == EXIT_ORACLE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "n=7, m=3" in err[0], err
    rows = out.read_text().splitlines()
    assert rows[0] == "n,m,c"
    pairs = [(n, m) for n in range(1, 11) for m in range(1, 6)]
    written = [tuple(int(v) for v in r.split(",")[:2]) for r in rows[1:]]
    assert written == pairs[: pairs.index((7, 3))]


def test_csum_check_oracle_leaves_output_unchanged(tmp_path):
    plain, checked = tmp_path / "plain.csv", tmp_path / "checked.csv"
    assert main(["csum", "--n", "1..60", "--m", "1..60", "--out", str(plain)]) == EXIT_OK
    assert main(["csum", "--n", "1..60", "--m", "1..60", "--check-oracle",
                 "--out", str(checked)]) == EXIT_OK
    assert checked.read_bytes() == plain.read_bytes()


def test_csum_check_oracle_refused_past_cap(monkeypatch, tmp_path, capsys):
    # every row the oracle cannot check is refused from the flags alone:
    # exit 2 with no table, no CSV on stdout and no --out file
    cap = cli.DIRECT_EVAL_CAP
    real = cli.obtain_table

    def no_table(*args):
        raise AssertionError("table requested")

    monkeypatch.setattr(cli, "obtain_table", no_table)
    out = tmp_path / "c.csv"
    for dest in ([], ["--out", str(out)]):
        code = main(["csum", "--n", f"{cap}..{cap + 2}", "--m", "1", "--check-oracle", *dest])
        assert code == EXIT_USAGE, dest
        captured = capsys.readouterr()
        assert captured.out == "" and str(cap) in captured.err, dest
        assert not out.exists(), dest
    monkeypatch.setattr(cli, "obtain_table", real)
    assert main(["csum", "--n", f"{cap - 1}..{cap}", "--m", "1", "--check-oracle"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == [f"{n},1,{csum_totient(n, 1)}" for n in (cap - 1, cap)]
    assert main(["csum", "--help"]) == EXIT_OK
    assert str(cap) in capsys.readouterr().out


def test_csum_generalized_power_weight(capsys):
    assert main(["csum", "--n", "2", "--m", "4", "--s", "2"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == "2,4,3"
    assert main(["csum", "--n", "2", "--m", "4", "--s", "0"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""  # refused before the CSV header


def test_csum_oracle_flag_incompatible_with_generalized():
    code = main(["csum", "--n", "2", "--m", "4", "--s", "2", "--check-oracle"])
    assert code == EXIT_USAGE


def test_csum_writes_file(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["csum", "--n", "1..10", "--m", "1", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "n,m,c"
    assert len(lines) == 11


# --- verify ------------------------------------------------------------------


def test_verify_baseline_within_tolerance(capsys):
    code = main(
        ["verify", "mu-baseline", "--limit", "1e5", "--assert-tol", "0.01"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("x,value,target,abs_error,decay_ratio")


def test_verify_rejects_bad_residue_pair():
    code = main(
        ["verify", "ramanujan-alladi", "--m", "1", "--k", "4", "--l", "2",
         "--limit", "1000"]
    )
    assert code == EXIT_USAGE


#: a valid value for each flag a series kind can require
FLAG_VALUES = {"m": "2", "k": "4", "l": "3", "y": "3", "weight": "residue:4,3"}


def test_verify_missing_parameter_is_usage_error(capsys):
    for kind in VERIFY_KINDS:
        params = SERIES_KINDS[kind].params
        flags = {name: ["--" + name, FLAG_VALUES[name]] for name in params}
        base = ["verify", kind, "--limit", "1000"]
        assert main(base + sum(flags.values(), [])) == EXIT_OK, kind
        for name in params:
            rest = sum((f for other, f in flags.items() if other != name), [])
            assert main(base + rest) == EXIT_USAGE, (kind, name)
    # a flag the kind does not take
    assert main(["verify", "mu-baseline", "--limit", "1000", "--m", "5"]) == EXIT_USAGE


@pytest.mark.parametrize("kind", ["mertens-restricted", "mu-over-n-restricted"])
def test_verify_threshold_beyond_uint32(capsys, kind):
    # every p(n) is below y, so each row is the n = 1 sentinel value 1
    code = main(["verify", kind, "--y", "5000000000", "--limit", "1e4"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()[1:]
    values = [float(ln.split(",")[1]) for ln in lines if not ln.startswith("#")]
    assert values == [1.0] * 4


def verify_rows(capsys, argv):
    assert main(argv) == EXIT_OK, argv
    return [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]


def test_integer_flags_parse_as_counts(capsys):
    # --m, --k, --l and --y of verify and identity read 1e3 and 10^3 as
    # --x and --limit do; a negative --l is a residue like any other
    base = ["--limit", "1e4", "--checkpoints", "10,1000,10000"]
    for kind, plain, counts in (
        ("ramanujan-alladi", ["--m", "1000", "--k", "1000", "--l", "3"],
         ["--m", "1e3", "--k", "10^3", "--l", "3"]),
        ("mertens-restricted", ["--y", "1000"], ["--y", "1e3"]),
        ("mu-over-n-restricted", ["--y", "1000"], ["--y", "10^3"]),
        ("alladi", ["--k", "4", "--l", "3"], ["--k", "4", "--l", "-1"]),
    ):
        want = verify_rows(capsys, ["verify", kind, *plain, *base])
        assert verify_rows(capsys, ["verify", kind, *counts, *base]) == want, kind
    sides = []
    for m in ("1000", "1e3", "10^3"):
        assert main(["identity", "--m", m, "--x", "1e4"]) == EXIT_OK, m
        sides.append(capsys.readouterr().out)
    assert sides[1] == sides[0] and sides[2] == sides[0]
    assert main(["csum", "--n", "2", "--m", "4", "--s", "2e0"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == "2,4,3"


def test_integer_flags_refuse_garbage(capsys):
    # a value that is no count is a usage error: exit 2, one stderr line
    for argv in (
        ["identity", "--m", "six", "--x", "1000"],
        ["identity", "--m", "2.5", "--x", "1000"],
        ["verify", "alladi", "--k", "4", "--l", "x3", "--limit", "1e3"],
        ["verify", "alladi", "--k", "4e0.5", "--l", "1", "--limit", "1e3"],
        ["verify", "ramanujan-alladi", "--m", "", "--k", "4", "--l", "1", "--limit", "1e3"],
        ["verify", "mertens-restricted", "--y", "1e-3", "--limit", "1e3"],
        ["csum", "--n", "2", "--m", "4", "--s", "two"],
    ):
        assert main(argv) == EXIT_USAGE, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, argv


def test_verify_tolerance_breach_exits_4(capsys):
    code = main(
        ["verify", "mu-baseline", "--limit", "1e4", "--assert-tol", "1e-12"]
    )
    assert code == EXIT_TOLERANCE
    assert "tolerance breach" in capsys.readouterr().err


def test_assert_tol_must_be_finite_and_non_negative(capsys):
    for tol in ("nan", "inf", "-1", "-0.5"):
        code = main(["verify", "mu-baseline", "--limit", "1e4", "--assert-tol", tol])
        assert code == EXIT_USAGE, tol
    assert main(["verify", "mu-baseline", "--limit", "1e4", "--assert-tol", "0"]) == EXIT_TOLERANCE


def test_nan_error_is_a_tolerance_breach(monkeypatch, capsys):
    real = cli.run_series

    def nan_series(t, spec):
        series = real(t, spec)
        last = replace(series.rows[-1], value=float("nan"), error=float("nan"))
        return replace(series, rows=series.rows[:-1] + (last,))

    monkeypatch.setattr(cli, "run_series", nan_series)
    code = main(["verify", "mu-baseline", "--limit", "1e4", "--assert-tol", "0.5"])
    assert code == EXIT_TOLERANCE


def test_nan_identity_sides_are_a_breach(monkeypatch, capsys):
    nan = float("nan")
    monkeypatch.setattr(cli, "difference_term", lambda *a, **k: (nan, nan))
    assert main(["identity", "--m", "6", "--x", "1e3"]) == EXIT_IDENTITY


def test_float_identity_breach_report(monkeypatch, capsys):
    monkeypatch.setattr(cli, "difference_term", lambda *a, **k: (0.0, 1.0))
    assert main(["identity", "--m", "6", "--x", "1e3"]) == EXIT_IDENTITY
    out, err = capsys.readouterr()
    assert out.splitlines() == ["lhs  = 0.0", "rhs  = 1.0", "diff = 1.0"]
    assert err.splitlines() == ["identity breach: |lhs - rhs| = 1.0 > 1e-09"]


@pytest.mark.parametrize("argv", [
    ["identity", "--m=-2^2", "--x", "100"],
    ["verify", "mertens-restricted", "--y=-10^2", "--limit", "1e3"],
])
def test_signed_caret_count_is_negative(argv, capsys):
    # -2^2 is -4 and -10^2 is -100, not (-2)^2 and (-10)^2: both out of range
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("kind,flags", [
    ("alladi", ["--k", "20011", "--l", "1"]),
    ("ramanujan-alladi", ["--m", "6", "--k", "20011", "--l", "1"]),
    ("lpf-density", ["--weight", "residue:20011,1"]),
])
def test_target_for_modulus_past_table(kind, flags, capsys):
    # phi(20011) = 20010 although 20011 lies outside the 1e4 table
    assert main(["verify", kind, *flags, "--limit", "1e4"]) == EXIT_OK
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]
            if not ln.startswith("#")]
    assert rows and all(float(r[2]) == 1 / 20010 for r in rows)


def test_verify_tol_on_targetless_series_is_usage_error(monkeypatch, capsys, tmp_path):
    # refused from the flags alone: no table, no report on stdout or in --out
    def no_table(*args):
        raise AssertionError("table requested")

    monkeypatch.setattr(cli, "obtain_table", no_table)
    out = tmp_path / "rep.csv"
    for flags in (["mertens-restricted", "--y", "3"],
                  ["weighted-lhs", "--m", "2", "--weight", "table:2=1.0"],
                  ["lpf-density", "--weight", "table:2=1.0"]):
        for dest in ([], ["--out", str(out)]):
            code = main(["verify", *flags, "--limit", "1e4", "--assert-tol", "0.5", *dest])
            assert code == EXIT_USAGE, flags
            assert capsys.readouterr().out == "", flags
            assert not out.exists(), flags


def test_verify_writes_report_file(tmp_path):
    out = tmp_path / "rep.csv"
    code = main(
        ["verify", "alladi", "--k", "3", "--l", "2", "--limit", "1e4",
         "--checkpoints", "100:10:3", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value,target,abs_error,decay_ratio"
    assert lines[1].startswith("100,")
    assert any(ln.startswith("# series kind=alladi") for ln in lines)


def test_verify_geometric_checkpoints_respect_limit():
    code = main(
        ["verify", "mu-baseline", "--limit", "1e3",
         "--checkpoints", "100:10:5"]
    )
    assert code == EXIT_USAGE


def test_huge_counts_are_usage_errors_without_allocating():
    # refused before any huge int or checkpoint list is built
    t0 = time.monotonic()
    for flags in (["--limit", "1e200000"], ["--limit", "10^30000000"],
                  ["--limit", "1e3000000"],
                  ["--limit", "1e4", "--checkpoints", "1:2:100000000"],
                  ["--limit", "10^4299", "--checkpoints", "1:10^4299:14000"]):
        assert main(["verify", "mu-baseline", *flags]) == EXIT_USAGE, flags
    assert time.monotonic() - t0 < 5
    assert main(["verify", "mu-baseline", "--limit", "1e4",
                 "--checkpoints", "1:2:14"]) == EXIT_OK  # 2**13 <= 1e4


# --- identity ----------------------------------------------------------------


def test_identity_trivial_and_float_modes(capsys):
    assert main(["identity", "--m", "1", "--x", "1000"]) == EXIT_OK
    assert main(["identity", "--m", "12", "--x", "1e4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lhs" in out and "rhs" in out and "diff" in out


def test_identity_exact_mode(capsys):
    assert main(["identity", "--m", "6", "--x", "1e4", "--exact"]) == EXIT_OK
    assert "diff = 0" in capsys.readouterr().out


def test_identity_exact_breach(monkeypatch, capsys):
    monkeypatch.setattr(cli, "difference_term", lambda *a, **k: (Fraction(1, 3), Fraction(1, 4)))
    assert main(["identity", "--m", "6", "--x", "1e3", "--exact"]) == EXIT_IDENTITY
    out, err = capsys.readouterr()
    assert out.splitlines() == ["lhs  = 1/3", "rhs  = 1/4", "diff = 1/12"]
    assert err == "identity breach: sides differ in exact arithmetic\n"


def test_identity_exact_mode_past_digit_cap(capsys):
    # the exact sides here have more than 4300 decimal digits
    assert main(["identity", "--m", "6", "--x", "3e4", "--exact"]) == EXIT_OK
    assert "diff = 0" in capsys.readouterr().out


def test_identity_table_is_sized_by_x(monkeypatch, capsys):
    # m is factored by trial division, so m = 999999937 asks for no 4 GB table
    limits = []
    real = cli.obtain_table

    def record(limit, cache):
        limits.append(limit)
        assert limit <= 10**4, f"table sized {limit}"
        return real(limit, cache)

    monkeypatch.setattr(cli, "obtain_table", record)
    for mode in ([], ["--exact"]):
        assert main(["identity", "--m", "999999937", "--x", "1000", *mode]) == EXIT_OK
    assert limits == [1000, 1000]
    assert main(["identity", "--m", "4294967296", "--x", "100"]) == EXIT_USAGE
    assert limits == [1000, 1000]  # refused before any table


def test_identity_weight_spec(capsys):
    code = main(
        ["identity", "--m", "30", "--x", "5000", "--weight", "residue:4,1"]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    # one takes no parameters, a residue class needs k and l, and the kind
    # must be known
    for spec in ("one:whatever", "residue:4", "gauss:1"):
        code = main(["identity", "--m", "6", "--x", "100", "--weight", spec])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE, spec
        assert out == "" and len(err.splitlines()) == 1, err


def test_non_finite_weight_is_usage_error(capsys):
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(UsageError):
            parse_weight(f"table:2={value}")
        code = main(["identity", "--m", "6", "--x", "1e4", "--weight", f"table:2={value}"])
        assert code == EXIT_USAGE, value
    capsys.readouterr()
    # a key that is no prime, or one that repeats, is refused the same way
    for spec in ("table:-3=1", "table:4=1", "table:99999999999=1", "table:2=0.5,2=0.7"):
        with pytest.raises(UsageError):
            parse_weight(spec)
        for argv in (
            ["verify", "weighted-lhs", "--m", "6", "--weight", spec, "--limit", "1e4"],
            ["verify", "lpf-density", "--weight", spec, "--limit", "1e4"],
        ):
            code = main(argv)
            out, err = capsys.readouterr()
            assert code == EXIT_USAGE, argv
            assert out == "" and len(err.splitlines()) == 1, (argv, err)


def test_huge_table_weight_is_usage_error(capsys):
    # refused up front; the sums of a 1e308 weight would overflow
    for argv in (
        ["verify", "weighted-lhs", "--m", "6", "--weight", "table:2=1e308", "--limit", "1e4"],
        ["identity", "--m", "6", "--x", "1000", "--weight", "table:2=1e308"],
        ["verify", "lpf-density", "--weight", "table:2=1e308,3=1e308", "--limit", "1e4"],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE, argv
        assert out == "" and len(err.splitlines()) == 1, (argv, err)


# --- cache directory ---------------------------------------------------------


def test_cache_dir_env_round_trip(tmp_path, monkeypatch):
    cache = tmp_path / "tables"
    monkeypatch.setenv("CSUMLAB_CACHE_DIR", str(cache))
    assert main(["csum", "--n", "1..50", "--m", "1"]) == EXIT_OK
    stored = list(cache.glob("spf_*.bin"))
    assert len(stored) == 1
    before = stored[0].read_bytes()
    # second run must reuse the cached table, not rewrite it
    mtime = stored[0].stat().st_mtime_ns
    assert main(["csum", "--n", "1..50", "--m", "1"]) == EXIT_OK
    assert stored[0].stat().st_mtime_ns == mtime
    assert stored[0].read_bytes() == before


def test_damaged_cache_is_rebuilt(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CSUMLAB_CACHE_DIR", raising=False)
    argv = ["verify", "alladi", "--k", "3", "--l", "2", "--limit", "1e4"]
    assert main(argv) == EXIT_OK
    fresh = capsys.readouterr().out
    cache = tmp_path / "spf.bin"
    assert main(["sieve", "--limit", "1e4", "--out", str(cache)]) == EXIT_OK
    good = cache.read_bytes()
    # a truncated cache is rewritten; a file without the cache magic is
    # not a cache, so it is left as it is
    for damaged, after in ((good[: len(good) // 2], good), (b"JUNK" + good[4:], None)):
        cache.write_bytes(damaged)
        capsys.readouterr()
        assert main(argv + ["--cache", str(cache)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == fresh
        assert "warning" in captured.err
        assert cache.read_bytes() == (after or damaged)


def test_cache_rewrites_only_its_own_format(tmp_path, monkeypatch, capsys):
    # files that start with the magic b"SPFT" or a shorter prefix of it
    # (the empty file too) are caches and get rewritten, every proper prefix
    # of a valid header with a warning that says "truncated"; any other file
    # is left byte for byte, while the run still uses a fresh table
    monkeypatch.delenv("CSUMLAB_CACHE_DIR", raising=False)
    argv = ["verify", "mu-baseline", "--limit", "1e3"]
    assert main(argv) == EXIT_OK
    fresh = capsys.readouterr().out
    cache = tmp_path / "spf.bin"
    assert main(["sieve", "--limit", "1e3", "--out", str(cache)]) == EXIT_OK
    good = cache.read_bytes()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_bytes()
    cases = [(good[:n], True, "truncated") for n in range(25)]  # the 25-byte header
    cases += [(b"SPFT" + readme, True, "version"), (readme, False, "not an spf cache"),
              (b"SPX", False, "not an spf cache"), (b"\0", False, "not an spf cache")]
    for before, rewritten, says in cases:
        cache.write_bytes(before)
        capsys.readouterr()
        assert main(argv + ["--cache", str(cache)]) == EXIT_OK, before[:8]
        captured = capsys.readouterr()
        assert captured.out == fresh, before[:8]
        assert captured.err.startswith("warning") and says in captured.err, captured.err
        assert cache.read_bytes() == (good if rewritten else before), before[:8]
    # sieve --out writes its named output over any regular file there
    cache.write_bytes(readme)
    assert main(["sieve", "--limit", "1e3", "--out", str(cache)]) == EXIT_OK
    assert cache.read_bytes() == good


def test_fifo_cache_never_blocks_a_run(tmp_path):
    # a FIFO given to --cache is not a cache: it is never opened, and the
    # run warns once and uses a fresh table.  In a child with a timeout, so
    # a blocked open() fails the test instead of stalling the suite
    fifo = tmp_path / "spf.bin"
    os.mkfifo(fifo)
    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "csumlab", "verify", "mu-baseline", "--limit", "1e3"]
    fresh = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    proc = subprocess.run(argv + ["--cache", str(fifo)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert fresh.returncode == 0 and proc.returncode == 0, proc.stderr
    assert proc.stdout == fresh.stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning:"), lines
    assert "not a regular file" in lines[0], lines
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_directory_cache_is_not_a_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CSUMLAB_CACHE_DIR", raising=False)
    argv = ["verify", "mu-baseline", "--limit", "1e3"]
    assert main(argv) == EXIT_OK
    fresh = capsys.readouterr().out
    assert main(argv + ["--cache", str(tmp_path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == fresh
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "not a regular file" in lines[0], lines
    assert list(tmp_path.iterdir()) == []


def test_sieve_out_fifo_is_one_line_exit_1(tmp_path, capsys, monkeypatch):
    # sieve refuses to replace what is not a regular file, before it builds
    def build(limit):
        raise AssertionError("built a table for a target it refuses")

    monkeypatch.setattr(cli, "build_spf_table", build)
    fifo, folder = tmp_path / "spf.bin", tmp_path / "dir.bin"
    os.mkfifo(fifo)
    folder.mkdir()
    for target in (fifo, folder):
        assert main(["sieve", "--limit", "1e3", "--out", str(target)]) == EXIT_IO
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: cannot write spf cache to {target}: not a regular file"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode) and folder.is_dir()
    assert not any(folder.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.bin", "spf.bin"]


def test_report_out_into_missing_directory_is_one_line_exit_1(tmp_path, capsys):
    # unlike a cache path, a report's --out does not create its directory
    out = tmp_path / "missing" / "rep.csv"
    assert main(["verify", "mu-baseline", "--limit", "1e3", "--out", str(out)]) == EXIT_IO
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "Traceback" not in lines[0] and str(out) in lines[0]
    assert not out.parent.exists()


def test_sieve_out_creates_its_directory(tmp_path):
    # like --cache, --out may name a file in a directory that does not exist yet
    out = tmp_path / "new" / "deeper" / "x.bin"
    assert main(["sieve", "--limit", "100", "--out", str(out)]) == EXIT_OK
    assert load_spf_table(str(out)).limit == 100
    cache = tmp_path / "new2" / "x.bin"
    assert main(["verify", "mu-baseline", "--limit", "100", "--cache", str(cache)]) == EXIT_OK
    assert out.read_bytes() == cache.read_bytes()


def test_cache_dir_naming_a_file_is_one_line_exit_1(tmp_path, monkeypatch, capsys):
    not_a_dir = tmp_path / "hostname"
    not_a_dir.write_text("a regular file\n")
    monkeypatch.setenv("CSUMLAB_CACHE_DIR", str(not_a_dir))
    for argv in (["verify", "mu-baseline", "--limit", "100"], ["sieve", "--limit", "100"]):
        capsys.readouterr()
        assert main(argv) == EXIT_IO, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        want = f"error: cannot write spf cache to {not_a_dir / 'spf_100.bin'}: "
        assert lines[0].startswith(want), lines
    assert not_a_dir.read_text() == "a regular file\n"


def test_checksum_or_version_mismatch_is_rebuilt(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CSUMLAB_CACHE_DIR", raising=False)
    argv = ["verify", "alladi", "--k", "3", "--l", "2", "--limit", "1e4"]
    assert main(argv) == EXIT_OK
    fresh = capsys.readouterr().out
    cache = tmp_path / "spf.bin"
    assert main(["sieve", "--limit", "1e4", "--out", str(cache)]) == EXIT_OK
    good = cache.read_bytes()
    payload = good[25 : 25 + (10**4 + 1) * 4]  # the spf section
    flipped, flipped_mu = bytearray(good), bytearray(good)
    flipped[400] ^= 0x01  # one spf bit; header and length stay valid
    flipped_mu[-400] ^= 0x01  # one mu bit, in the last limit + 1 bytes
    v1 = b"SPFT" + struct.pack("<IQB", 1, 10**4, 4) + payload
    v2 = b"SPFT" + struct.pack("<IQBI", 2, 10**4, 4, zlib.crc32(payload)) + payload
    for damaged, says in ((bytes(flipped), "checksum"), (bytes(flipped_mu), "checksum"),
                          (v1, "unsupported cache version 1"), (v2, "unsupported cache version 2")):
        cache.write_bytes(damaged)
        capsys.readouterr()
        assert main(argv + ["--cache", str(cache)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == fresh
        assert captured.err.startswith("warning") and says in captured.err, captured.err
        assert cache.read_bytes() == good


def test_explicit_cache_file_reused(tmp_path):
    cache = tmp_path / "spf.bin"
    assert main(["sieve", "--limit", "1e4", "--out", str(cache)]) == EXIT_OK
    code = main(
        ["verify", "mu-baseline", "--limit", "1e4", "--cache", str(cache)]
    )
    assert code == EXIT_OK


def test_short_env_cache_is_rebuilt(tmp_path, monkeypatch, capsys):
    # spf_1000.bin holding a valid limit-500 table must not block a run
    monkeypatch.setenv("CSUMLAB_CACHE_DIR", str(tmp_path))
    cache = tmp_path / "spf_1000.bin"
    for argv in (
        ["verify", "mu-baseline", "--limit", "1000"],
        ["identity", "--m", "6", "--x", "1000"],
    ):
        save_spf_table(build_spf_table(500), str(cache))
        capsys.readouterr()
        assert main(argv) == EXIT_OK, argv
        assert "warning" in capsys.readouterr().err, argv
        assert load_spf_table(str(cache)).limit == 1000, argv


def test_explicit_cache_shadows_env_dir(tmp_path, monkeypatch, capsys):
    # with --cache set, the CSUMLAB_CACHE_DIR file is neither read nor written
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    monkeypatch.setenv("CSUMLAB_CACHE_DIR", str(env_dir))
    env_file = env_dir / "spf_1000.bin"
    save_spf_table(build_spf_table(1000), str(env_file))
    env_bytes = env_file.read_bytes()
    cache = tmp_path / "explicit.bin"
    read, written = [], []
    monkeypatch.setattr(cli, "load_spf_table", lambda p: read.append(p) or load_spf_table(p))
    monkeypatch.setattr(cli, "save_spf_table",
                        lambda t, p: written.append(p) or save_spf_table(t, p))
    argv = ["verify", "mu-baseline", "--limit", "1000", "--cache", str(cache)]
    assert main(argv) == EXIT_OK
    assert (read, written) == ([], [str(cache)])  # nothing to read yet: built, saved
    assert main(argv) == EXIT_OK
    assert (read, written) == ([str(cache)], [str(cache)])  # reused
    assert load_spf_table(str(cache)).limit == 1000
    assert env_file.read_bytes() == env_bytes
    assert "warning" not in capsys.readouterr().err
