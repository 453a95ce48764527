"""Partial-sum series against exact rational brute-force enumerations.

Every evaluator is checked from scratch here: terms are rebuilt with trial
division and Fraction arithmetic, summed naively, and compared with the
chunked float engine at tolerance 1e-12 (the float engine itself carries
sub-ulp error per chunk, the slack covers term rounding).
"""

import math
import os
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

import csumlab.series as series
import csumlab.sieve as sieve
from csumlab import (
    PrimeWeight,
    SeriesSpec,
    alladi_partial_sum,
    difference_term,
    lpf_density,
    mertens_restricted,
    mu_baseline,
    mu_mn_partial_sum,
    mu_over_n_restricted,
    ramanujan_alladi_partial_sum,
    run_series,
    weighted_lhs,
)
from csumlab.series import SERIES_KINDS

from conftest import csum_totient, lpf_naive, mu_naive, spf_naive

EPS = 1e-12


def frac_rows(series):
    return [(r.x, r.value) for r in series.rows]


# --- brute-force term builders ----------------------------------------------


def brute_sum(x, term):
    total = Fraction(0)
    for n in range(2, x + 1):
        total += term(n)
    return total


def weight_naive(w: PrimeWeight, p: int) -> Fraction:
    if w.kind == "one":
        return Fraction(1)
    if w.kind == "residue":
        return Fraction(1) if p % w.k == w.l % w.k else Fraction(0)
    for q, v in w.table:
        if q == p:
            return Fraction(v)
    return Fraction(0)


# --- mu-baseline ------------------------------------------------------------


def test_mu_baseline_hand_values(table_small):
    s = mu_baseline(table_small, [2, 4])
    assert s.rows[0].value == 0.5
    assert abs(s.rows[1].value - (0.5 + Fraction(1, 3))) < EPS
    assert s.spec.target == 1.0


def test_mu_baseline_bruteforce(table_small):
    s = mu_baseline(table_small, [317])
    expected = brute_sum(317, lambda n: Fraction(-mu_naive(n), n))
    assert abs(s.rows[0].value - expected) < EPS


# --- alladi -----------------------------------------------------------------

ALLADI_CASES = [(3, 1), (3, 2), (4, 1), (4, 3), (5, 2)]


@pytest.mark.parametrize("k,l", ALLADI_CASES)
def test_alladi_bruteforce(table_small, k, l):
    s = alladi_partial_sum(table_small, k, l, [251])

    def term(n):
        if spf_naive(n) % k != l % k:
            return Fraction(0)
        return Fraction(-mu_naive(n), n)

    assert abs(s.rows[0].value - brute_sum(251, term)) < EPS
    assert s.rows[0].error == abs(s.rows[0].value - s.spec.target)


def test_alladi_frozen_small_case(table_small):
    # k=4, l=1, x=10: only n=5 contributes (p=5, mu=-1), value 1/5
    s = alladi_partial_sum(table_small, 4, 1, [10])
    assert s.rows[0].value == 0.2


def test_alladi_modulus_one_equals_baseline(table_small):
    cps = [100, 1000, 9973]
    assert frac_rows(alladi_partial_sum(table_small, 1, 1, cps)) == frac_rows(
        mu_baseline(table_small, cps)
    )


def test_alladi_rejects_bad_residue(table_small):
    with pytest.raises(ValueError):
        alladi_partial_sum(table_small, 4, 2, [100])


# --- ramanujan-alladi -------------------------------------------------------


def test_ramanujan_alladi_frozen_small_case(table_small):
    # m=2, k=3, l=2 at x=20, enumerated exactly over qualifying n
    s = ramanujan_alladi_partial_sum(table_small, 2, 3, 2, [20])
    expected = brute_sum(
        20,
        lambda n: Fraction(-csum_totient(n, 2), n)
        if spf_naive(n) % 3 == 2
        else Fraction(0),
    )
    assert abs(s.rows[0].value - expected) < EPS


@pytest.mark.parametrize("m", [1, 2, 6, 12])
@pytest.mark.parametrize("k,l", [(3, 1), (4, 3)])
def test_ramanujan_alladi_bruteforce(table_small, m, k, l):
    s = ramanujan_alladi_partial_sum(table_small, m, k, l, [300])

    def term(n):
        if spf_naive(n) % k != l % k:
            return Fraction(0)
        return Fraction(-csum_totient(n, m), n)

    assert abs(s.rows[0].value - brute_sum(300, term)) < EPS


def test_specialization_chain_bit_identical(table_mid):
    cps = [10**3, 10**4, 10**5]
    a = alladi_partial_sum(table_mid, 4, 1, cps)
    ra = ramanujan_alladi_partial_sum(table_mid, 1, 4, 1, cps)
    wl = weighted_lhs(table_mid, 1, PrimeWeight.residue_class(4, 1), cps)
    assert frac_rows(a) == frac_rows(ra) == frac_rows(wl)


def test_weighted_constant_one_is_baseline(table_small):
    cps = [50, 500, 5000]
    assert frac_rows(weighted_lhs(table_small, 1, PrimeWeight.constant_one(), cps)) == (
        frac_rows(mu_baseline(table_small, cps))
    )


# --- mu(mn) variant ---------------------------------------------------------


def mu_product_naive(m, n):
    return mu_naive(m * n)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 10])
def test_mu_mn_bruteforce(table_small, m):
    k, l = 3, 1
    s = mu_mn_partial_sum(table_small, m, k, l, [200])

    def term(n):
        if spf_naive(n) % k != l % k:
            return Fraction(0)
        return Fraction(-mu_product_naive(m, n), n)

    assert abs(s.rows[0].value - brute_sum(200, term)) < EPS
    assert s.spec.target == mu_naive(m) / (k - 1)


def test_mu_mn_squarefull_m_identically_zero(table_small):
    s = mu_mn_partial_sum(table_small, 4, 3, 1, [10, 100, 1000, 10**4])
    assert all(r.value == 0.0 for r in s.rows)
    assert s.spec.target == 0.0


def test_mu_mn_prime_m_past_table(table_small):
    # gcd(10007, n) = 1 for every n <= 10^4, so mu(10007 n) = -mu(n) and the
    # rows are the exact negation of the Alladi rows
    cps = [10, 999, 10**4]
    mn = mu_mn_partial_sum(table_small, 10007, 3, 1, cps)
    alladi = alladi_partial_sum(table_small, 3, 1, cps)
    assert [float.hex(r.value) for r in mn.rows] == [float.hex(-r.value) for r in alladi.rows]


def test_mu_mn_m_one_equals_alladi(table_small):
    cps = [100, 5000]
    assert frac_rows(mu_mn_partial_sum(table_small, 1, 4, 3, cps)) == frac_rows(
        alladi_partial_sum(table_small, 4, 3, cps)
    )


# --- restricted sums --------------------------------------------------------


def test_mertens_restricted_hand_case(table_small):
    # x=10, y=2: qualifying n are 1,3,5,7,9 with mu 1,-1,-1,-1,0
    s = mertens_restricted(table_small, 2, [10])
    assert s.rows[0].value == -2.0


def test_mertens_restricted_bruteforce(table_small):
    for y in (1, 2, 3, 7):
        s = mertens_restricted(table_small, y, [500])
        expected = 1 + sum(
            mu_naive(n) for n in range(2, 501) if spf_naive(n) > y
        )
        assert s.rows[0].value == float(expected), y


def test_mertens_sentinel_when_threshold_covers_range(table_small):
    for x in (1, 10, 1000):
        s = mertens_restricted(table_small, max(x, 5000), [x])
        assert s.rows[0].value == 1.0, x


def test_mu_over_n_restricted_hand_case(table_small):
    # x=10, y=2: 1 - 1/3 - 1/5 - 1/7 = 34/105
    s = mu_over_n_restricted(table_small, 2, [10])
    assert abs(s.rows[0].value - Fraction(34, 105)) < EPS


def test_mu_over_n_restricted_bruteforce(table_small):
    for y in (2, 5):
        s = mu_over_n_restricted(table_small, y, [400])
        expected = Fraction(1) + brute_sum(
            400,
            lambda n: Fraction(mu_naive(n), n) if spf_naive(n) > y else Fraction(0),
        )
        assert abs(s.rows[0].value - expected) < EPS, y


def test_mu_over_n_restricted_trivial_endpoint(table_small):
    s = mu_over_n_restricted(table_small, 3, [1])
    assert s.rows[0].value == 1.0
    assert s.spec.target == 0.0


def test_restricted_threshold_beyond_uint32(table_small):
    # p(n) <= limit < y, so only the n = 1 sentinel term is left
    cps = [1, 10, 10**4]
    for fn in (mertens_restricted, mu_over_n_restricted):
        rows = frac_rows(fn(table_small, 5 * 10**9, cps))
        assert rows == [(x, 1.0) for x in cps], fn.__name__
        assert rows == frac_rows(fn(table_small, 4 * 10**9, cps)), fn.__name__


def test_restricted_threshold_validation(table_small):
    with pytest.raises(ValueError):
        mertens_restricted(table_small, 0, [10])
    with pytest.raises(ValueError):
        mu_over_n_restricted(table_small, -1, [10])


# --- weighted lhs with explicit table ---------------------------------------


def test_weighted_lhs_table_weight_bruteforce(table_small):
    w = PrimeWeight.from_table({2: 0.5, 3: -0.25})
    s = weighted_lhs(table_small, 2, w, [30])

    def term(n):
        f = weight_naive(w, spf_naive(n))
        if f == 0:
            return Fraction(0)
        return -Fraction(csum_totient(n, 2)) * f / n

    assert abs(s.rows[0].value - brute_sum(30, term)) < EPS
    assert s.rows[0].error is None


def test_weighted_lhs_accepts_explicit_target(table_small):
    s = weighted_lhs(
        table_small, 1, PrimeWeight.residue_class(3, 2), [100], target=0.5
    )
    assert s.rows[0].error == abs(s.rows[0].value - 0.5)


# --- largest-prime-factor density -------------------------------------------


def test_lpf_density_bruteforce_count(table_small):
    s = lpf_density(table_small, PrimeWeight.residue_class(4, 3), [100])
    expected = sum(1 for n in range(2, 101) if lpf_naive(n) % 4 == 3)
    assert s.rows[0].count == expected
    assert s.rows[0].value == expected / 100


def test_lpf_density_constant_one_ratio(table_small):
    s = lpf_density(table_small, PrimeWeight.constant_one(), [10, 1000])
    assert s.rows[0].value == 9 / 10
    assert s.rows[1].value == 999 / 1000
    assert s.rows[0].count == 9


def test_lpf_density_table_weight(table_small):
    w = PrimeWeight.from_table({3: 2.0, 7: -1.0})
    s = lpf_density(table_small, w, [50])
    expected = sum(
        weight_naive(w, lpf_naive(n)) for n in range(2, 51)
    ) / Fraction(50)
    assert abs(s.rows[0].value - expected) < EPS
    assert s.rows[0].count is None


# --- rearrangement identity -------------------------------------------------

IDENTITY_WEIGHTS = [
    PrimeWeight.constant_one(),
    PrimeWeight.residue_class(3, 1),
    PrimeWeight.from_table({2: 0.5, 3: -0.25, 7: 1.0}),
]


def test_difference_term_trivial_m_one(table_small):
    lhs, rhs = difference_term(table_small, 1, PrimeWeight.constant_one(), 1000)
    assert lhs == 0.0 and rhs == 0.0


def test_difference_term_hand_case(table_small):
    # m=2, f=1, x=10: both sides equal sum of mu(n)/n for n <= 5 = -1/30
    lhs, rhs = difference_term(table_small, 2, PrimeWeight.constant_one(), 10)
    assert abs(lhs - Fraction(-1, 30)) < EPS
    assert abs(rhs - Fraction(-1, 30)) < EPS
    lhs_e, rhs_e = difference_term(
        table_small, 2, PrimeWeight.constant_one(), 10, exact=True
    )
    assert lhs_e == rhs_e == Fraction(-1, 30)


def test_difference_term_lhs_matches_definition(table_small):
    w = PrimeWeight.from_table({2: 0.5, 3: -0.25, 7: 1.0})
    for m in (2, 6):
        lhs, _ = difference_term(table_small, m, w, 200)
        lhs_e, _ = difference_term(table_small, m, w, 200, exact=True)
        expected = brute_sum(
            200,
            lambda n: (Fraction(csum_totient(n, m) - mu_naive(n), n))
            * weight_naive(w, spf_naive(n)),
        )
        assert abs(lhs - expected) < EPS, m
        assert lhs_e == expected, m


def test_difference_term_rhs_matches_definition(table_small):
    w = PrimeWeight.residue_class(3, 1)
    m = 12
    _, rhs = difference_term(table_small, m, w, 150)
    _, rhs_e = difference_term(table_small, m, w, 150, exact=True)
    expected = Fraction(0)
    for d in range(2, m + 1):
        if m % d:
            continue
        for n in range(1, 150 // d + 1):
            expected += Fraction(mu_naive(n), n) * weight_naive(w, spf_naive(d * n))
    assert abs(rhs - expected) < EPS
    assert rhs_e == expected


@pytest.mark.parametrize("m", [2, 3, 4, 6, 12, 30])
@pytest.mark.parametrize("weight", IDENTITY_WEIGHTS)
def test_difference_identity_float_and_exact(table_small, m, weight):
    for x in (100, 1000):
        lhs, rhs = difference_term(table_small, m, weight, x)
        assert abs(lhs - rhs) < 1e-9, (m, x)
        lhs_e, rhs_e = difference_term(table_small, m, weight, x, exact=True)
        assert lhs_e == rhs_e, (m, x)
        # the float route lands on the exact value too
        assert abs(lhs - lhs_e) < EPS


def test_difference_exact_across_chunks_and_threads(table_small, monkeypatch):
    # 1000-term chunks split each side into several units; the exact
    # combine must give the same Fractions for any thread count
    x = 5000
    whole = {
        (m, i): difference_term(table_small, m, w, x, exact=True)
        for m in (6, 30)
        for i, w in enumerate(IDENTITY_WEIGHTS)
    }
    monkeypatch.setattr(series, "CHUNK", 1000)
    for threads in (1, 3):
        monkeypatch.setattr(sieve, "_THREADS", threads)
        for (m, i), sides in whole.items():
            assert difference_term(table_small, m, IDENTITY_WEIGHTS[i], x, exact=True) == sides


def test_difference_term_m_past_table(table_small):
    # m is factored by trial division: a prime m far above the table has
    # the single divisor d = m > x, so both sides are empty sums
    for exact in (False, True):
        assert difference_term(table_small, 999_999_937, PrimeWeight.constant_one(), 1000,
                               exact=exact) == (0, 0)
    # m = 2 * 10007 shares the d = 2 slices with m = 2 at x = 10^4
    w = PrimeWeight.residue_class(3, 1)
    for exact in (False, True):
        assert (difference_term(table_small, 2 * 10007, w, 10**4, exact=exact)
                == difference_term(table_small, 2, w, 10**4, exact=exact))
    for m in (0, 2**32):
        with pytest.raises(ValueError):
            difference_term(table_small, m, w, 1000)


def test_weighted_sum_tracks_lpf_density(table_big):
    # the negated c_n(m) f(p(n))/n sum and the f(P(n)) density head for the
    # same limit; at 10^7 the two routes sit within 0.1 of each other
    x_max = 10**7
    for k, l in ((3, 1), (3, 2), (4, 1), (4, 3)):
        w = PrimeWeight.residue_class(k, l)
        density = lpf_density(table_big, w, [x_max]).rows[0].value
        for m in (1, 2, 6):
            lhs = weighted_lhs(table_big, m, w, [x_max]).rows[0].value
            assert abs(lhs - density) < 0.1, (k, l, m)


# --- engine determinism and plumbing ----------------------------------------


def test_worker_count_never_changes_rows(table_mid, monkeypatch):
    cps = [999, 12345, 10**5]
    monkeypatch.setattr(sieve, "_THREADS", 1)
    base = ramanujan_alladi_partial_sum(table_mid, 2, 4, 1, cps)
    for threads in (2, 3, 8, os.cpu_count() or 1):
        monkeypatch.setattr(sieve, "_THREADS", threads)
        multi = ramanujan_alladi_partial_sum(table_mid, 2, 4, 1, cps)
        assert frac_rows(base) == frac_rows(multi), threads


def test_checkpoint_prefix_consistency(table_small):
    # evaluating at [a, b, c] must agree with three standalone runs
    joint = mu_baseline(table_small, [37, 503, 9001])
    for row in joint.rows:
        alone = mu_baseline(table_small, [row.x])
        assert alone.rows[0].value == row.value, row.x


TABLE_W = PrimeWeight.from_table({2: 0.5, 3: -0.25, 7: 1.0})

#: spec parameters and the direct call of every checkpoint-driven kind
DISPATCH = {
    "mu-baseline": ({}, lambda t, cps: mu_baseline(t, cps)),
    "alladi": ({"k": 4, "l": 3}, lambda t, cps: alladi_partial_sum(t, 4, 3, cps)),
    "ramanujan-alladi": (
        {"m": 6, "k": 3, "l": 2},
        lambda t, cps: ramanujan_alladi_partial_sum(t, 6, 3, 2, cps),
    ),
    "mu-mn": ({"m": 2, "k": 3, "l": 1}, lambda t, cps: mu_mn_partial_sum(t, 2, 3, 1, cps)),
    "mertens-restricted": ({"y": 3}, lambda t, cps: mertens_restricted(t, 3, cps)),
    "mu-over-n-restricted": ({"y": 5}, lambda t, cps: mu_over_n_restricted(t, 5, cps)),
    "weighted-lhs": ({"m": 2, "weight": TABLE_W}, lambda t, cps: weighted_lhs(t, 2, TABLE_W, cps)),
    "lpf-density": (
        {"weight": PrimeWeight.residue_class(4, 3)},
        lambda t, cps: lpf_density(t, PrimeWeight.residue_class(4, 3), cps),
    ),
}


def test_run_series_dispatch_matches_direct_calls(table_small):
    assert sorted(SERIES_KINDS) == sorted(DISPATCH)
    cps = (1, 100, 1000, 9999)
    for kind in SERIES_KINDS:
        params, direct = DISPATCH[kind]
        via = run_series(table_small, SeriesSpec(kind=kind, checkpoints=cps, **params))
        want = direct(table_small, list(cps))
        hexed = [[(r.x, float.hex(r.value), r.count) for r in s.rows] for s in (via, want)]
        assert hexed[0] == hexed[1], kind
        assert via.spec == want.spec, kind


def test_spec_validation():
    with pytest.raises(ValueError):
        SeriesSpec(kind="nope", checkpoints=(10,))
    with pytest.raises(ValueError):
        SeriesSpec(kind="alladi", k=4, l=2, checkpoints=(10,))
    with pytest.raises(ValueError):
        SeriesSpec(kind="mu-baseline", checkpoints=(10, 10))
    with pytest.raises(ValueError):
        SeriesSpec(kind="mu-baseline", checkpoints=(100, 10))
    with pytest.raises(ValueError):
        SeriesSpec(kind="alladi", checkpoints=(10,))  # requires k and l
    with pytest.raises(ValueError):
        SeriesSpec(kind="mu-baseline", m=5, checkpoints=(10,))  # takes no m
    with pytest.raises(ValueError):
        SeriesSpec(kind="alladi", k=2**32, l=1, checkpoints=(10,))  # primes are uint32
    with pytest.raises(ValueError):
        SeriesSpec(kind="mu-mn", m=2**32, k=3, l=1, checkpoints=(10,))  # m past uint32


def test_checkpoint_beyond_limit_rejected(table_small):
    with pytest.raises(ValueError):
        mu_baseline(table_small, [10**4 + 1])


def test_table_weight_values_are_bounded():
    for bad in (float("nan"), float("inf"), -float("inf"), 1e101, -1e101):
        with pytest.raises(ValueError):
            PrimeWeight.from_table({2: 1.0, 3: bad})
    for good in (1e100, -1e100, 5e-324):
        assert PrimeWeight.from_table({2: good}).table == ((2, good),)


def test_prime_weight_validation():
    with pytest.raises(ValueError):
        PrimeWeight(kind="???")
    with pytest.raises(ValueError):
        PrimeWeight.residue_class(4, 2)
    with pytest.raises(ValueError):
        PrimeWeight.residue_class(2**32, 1)
    w = PrimeWeight.residue_class(4, 1)
    assert w.mask(np.array([5, 7], dtype=np.uint32)).tolist() == [True, False]
    wt = PrimeWeight.from_table({2: -3.5})
    assert wt.values(np.array([2, 11], dtype=np.uint32)).tolist() == [-3.5, 0.0]


# --- the exact chunk sum -----------------------------------------------------


def fsum_reference(a):
    return math.fsum(a.tolist())


def exact_sum_cases():
    rng = np.random.default_rng(2008)
    n = np.arange(1, 2**20 + 2, dtype=np.float64)
    a = rng.choice([-1.0, 0.0, 1.0], size=n.size) / n
    big = rng.standard_normal(1000) * 2.0 ** rng.integers(-400, 400, size=1000)
    spread = rng.standard_normal(4000) * 2.0 ** rng.integers(-1074, 900, size=4000)
    yield "empty", np.zeros(0)
    yield "negative zeros", np.full(7, -0.0)
    for v in (0.1, -5e-324, 2.0**900, -3.0):
        yield f"single {v!r}", np.array([v])
    yield "2**20 + 1 terms a/n", a
    yield "cancelling pairs", np.concatenate([big, -big[::-1], [1e-300]])
    yield "cancelling pairs, no remainder", np.concatenate([big, -big])
    yield "subnormal to 2**900", spread
    yield "subnormals only", rng.integers(-2**20, 2**20, size=5000) * 5e-324
    yield "tie", np.array([2.0**53, 1.0, 1.0 - 2.0**-53])
    yield "tie, reversed", np.array([1.0 - 2.0**-53, 1.0, 2.0**53])
    yield "tie to even", np.array([1.0, 2.0**-53, 2.0**-106])
    for seed in range(20):
        r = np.random.default_rng(seed)
        size = int(r.integers(1, 5000))
        lo = int(r.integers(2, 10**8))
        num = r.integers(-400, 401, size=size).astype(np.float64)
        num *= r.choice([1.0, 0.5, -0.25, 1e100, 5e-324], size=size)
        yield f"a/n seed {seed}", num / np.arange(lo, lo + size, dtype=np.float64)


def test_exact_sum_matches_fsum():
    for name, a in exact_sum_cases():
        before = a.copy()
        got = series._exact_sum(a)
        assert float.hex(got) == float.hex(fsum_reference(a)), name
        assert np.array_equal(a, before), name  # the input is left alone
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            series._exact_sum(np.array([1.0, bad]))


def test_exact_sum_rows_match_fsum_reference(table_big, monkeypatch):
    # chunk-edge checkpoints on a table past one CHUNK, every kind and both
    # float difference_term sides, with and without the fsum reference
    edge = (2**20 - 1, 2**20, 2**20 + 1)

    def evaluate():
        rows = {}
        for kind in SERIES_KINDS:
            params = dict(DISPATCH[kind][0])
            if "weight" in params:
                params["weight"] = TABLE_W
            spec = SeriesSpec(kind=kind, checkpoints=edge, **params)
            rows[kind] = [float.hex(r.value) for r in run_series(table_big, spec).rows]
        for m in (6, 30):
            rows[f"difference m={m}"] = [
                float.hex(side) for x in edge for side in difference_term(table_big, m, TABLE_W, x)
            ]
        return rows

    fast = evaluate()
    monkeypatch.setattr(series, "_exact_sum", fsum_reference)
    assert fast == evaluate()
