"""Partial-sum series against exact rational brute-force enumerations.

Every evaluator is checked from scratch here: terms are rebuilt with trial
division and Fraction arithmetic, summed naively, and compared with the
chunked float engine at tolerance 1e-12 (the float engine itself carries
sub-ulp error per chunk, the slack covers term rounding).
"""

import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import csumlab.series as series
import csumlab.sieve as sieve
from csumlab import (
    PrimeWeight,
    SeriesSpec,
    alladi_partial_sum,
    build_spf_table,
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
from csumlab.series import SERIES_KINDS, OneWeight, ResidueWeight, TableWeight

from conftest import (
    csum_totient,
    difference_sides_reference,
    factorize_naive,
    lpf_naive,
    mu_naive,
    mu_reference,
    phi_naive,
    spf_naive,
)

EPS = 1e-12


def frac_rows(series):
    return [(r.x, r.value) for r in series.rows]


# --- brute-force term builders ----------------------------------------------


def brute_sum(x, term):
    total = Fraction(0)
    for n in range(2, x + 1):
        total += term(n)
    return total


def weight_id(w: PrimeWeight) -> str:
    """'one', 'residue' or 'table': the kind token of w.describe()."""
    return w.describe().partition(":")[0]


def weight_naive(w: PrimeWeight, p: int) -> Fraction:
    if isinstance(w, OneWeight):
        return Fraction(1)
    if isinstance(w, ResidueWeight):
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
def test_mu_mn_bruteforce(table_small, monkeypatch, m):
    k, l = 3, 1
    s = mu_mn_partial_sum(table_small, m, k, l, [200])

    def term(n):
        if spf_naive(n) % k != l % k:
            return Fraction(0)
        return Fraction(-mu_product_naive(m, n), n)

    assert abs(s.rows[0].value - brute_sum(200, term)) < EPS
    assert s.spec.target == mu_naive(m) / (k - 1)
    # 97-term chunks start off the multiples of 2, 3 and 5, so a coprime
    # mask laid at the wrong offset inside a chunk changes the rows
    monkeypatch.setattr(sieve, "CHUNK", 97)
    for r in mu_mn_partial_sum(table_small, m, k, l, [97, 500, 1001, 2000]).rows:
        assert abs(r.value - brute_sum(r.x, term)) < EPS, r.x


def test_mu_mn_squarefull_m_identically_zero(table_small, monkeypatch):
    # mu(m) = 0 gives an all-zero column in every unit; the rows must be
    # +0.0, never -0.0, on the real grid and on 97-term chunks
    cps = [1, 2, 10, 97, 100, 1000, 10**4]
    for chunk in (sieve.CHUNK, 97):
        monkeypatch.setattr(sieve, "CHUNK", chunk)
        for m in (4, 12, 72):
            for k, l in ((3, 1), (4, 3), (1, 0)):
                s = mu_mn_partial_sum(table_small, m, k, l, cps)
                assert [float.hex(r.value) for r in s.rows] == ["0x0.0p+0"] * len(cps), (m, k, l)
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


def test_mertens_restricted_bruteforce(table_small, monkeypatch):
    def expected(x, y):
        return 1 + sum(mu_naive(n) for n in range(2, x + 1) if spf_naive(n) > y)

    for y in (1, 2, 3, 7):
        s = mertens_restricted(table_small, y, [500])
        assert s.rows[0].value == float(expected(500, y)), y
    # chunk edges off the 2**20 grid must leave the integer rows unchanged
    monkeypatch.setattr(sieve, "CHUNK", 97)
    for y in (1, 2, 7):
        for r in mertens_restricted(table_small, y, [97, 400, 1001]).rows:
            assert r.value == float(expected(r.x, y)), (y, r.x)


def test_mertens_sentinel_when_threshold_covers_range(table_small):
    for x in (1, 10, 1000):
        s = mertens_restricted(table_small, max(x, 5000), [x])
        assert s.rows[0].value == 1.0, x


def test_mertens_rows_are_the_float_of_the_integer_sum(table_big, monkeypatch):
    # each row is float(1 + sum of mu(n) over 2 <= n <= x with p(n) > y),
    # bit for bit, across the chunk edges of the real grid and of 97-term
    # chunks, and 1.0 where y >= x leaves only the n = 1 term
    top = 2**21 + 5
    mu, n = mu_reference(top).astype(np.int64), np.arange(top + 1)

    def expected(y, cps):
        kept = np.where(n >= 2, mu, 0)
        for p in (q for q in range(2, y + 1) if spf_naive(q) == q):
            kept[n % p == 0] = 0
        totals = np.cumsum(kept)
        return [float.hex(float(1 + int(totals[x]))) for x in cps]

    def rows(y, cps):
        return [float.hex(r.value) for r in mertens_restricted(table_big, y, cps).rows]

    cps = [1, 2, 1000, 2**20 - 1, 2**20, 2**20 + 1, top]
    for y in (1, 2, 7, 100):
        assert rows(y, cps) == expected(y, cps), y
    for x in cps:
        for y in (x, x + 1, 10**8):
            assert rows(y, [x]) == ["0x1.0000000000000p+0"], (x, y)
    monkeypatch.setattr(sieve, "CHUNK", 97)
    cps = [1, 96, 97, 98, 1000]
    for y in (2, 7):
        assert rows(y, cps) == expected(y, cps), y


def test_mu_over_n_restricted_hand_case(table_small):
    # x=10, y=2: 1 - 1/3 - 1/5 - 1/7 = 34/105
    s = mu_over_n_restricted(table_small, 2, [10])
    assert abs(s.rows[0].value - Fraction(34, 105)) < EPS


def test_mu_over_n_restricted_bruteforce(table_small, monkeypatch):
    def expected(x, y):
        return Fraction(1) + brute_sum(
            x, lambda n: Fraction(mu_naive(n), n) if spf_naive(n) > y else Fraction(0)
        )

    for y in (2, 5):
        s = mu_over_n_restricted(table_small, y, [400])
        assert abs(s.rows[0].value - expected(400, y)) < EPS, y
    # the p(n) > y support is applied to each chunk's column, so chunk
    # edges off the 2**20 grid must leave the rows unchanged
    monkeypatch.setattr(sieve, "CHUNK", 97)
    for y in (2, 5):
        for r in mu_over_n_restricted(table_small, y, [97, 400, 1001]).rows:
            assert abs(r.value - expected(r.x, y)) < EPS, (y, r.x)


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


def test_spec_target_is_read_only():
    # the target comes from the kind; a spec cannot carry its own value
    with pytest.raises(TypeError):
        SeriesSpec(kind="weighted-lhs", m=1, weight=PrimeWeight.residue_class(3, 2),
                   checkpoints=(100,), target=0.5)
    spec = SeriesSpec(kind="alladi", k=4, l=3, checkpoints=(100,))
    with pytest.raises(AttributeError):
        spec.target = 0.5


def test_spec_prime_weight_is_built_once():
    spec = SeriesSpec(kind="alladi", k=4, l=3, checkpoints=(100,))
    assert spec.prime_weight is spec.prime_weight
    assert spec.prime_weight == ResidueWeight(4, 3)
    w = PrimeWeight.from_table({2: 0.5})
    assert SeriesSpec(kind="lpf-density", weight=w, checkpoints=(10,)).prime_weight is w
    assert SeriesSpec(kind="mu-baseline", checkpoints=(10,)).prime_weight == OneWeight()


def target_cases():
    """(spec, expected target) covering every kind, k = 2**32 - 5 and m with
    mu(m) in {-1, 0, 1}."""
    big = 2**32 - 5
    weights = (PrimeWeight.constant_one(), PrimeWeight.residue_class(big, 7),
               PrimeWeight.from_table({2: 0.5, 3: -1.0}))
    densities = (1.0, 1.0 / phi_naive(big), None)
    yield SeriesSpec(kind="mu-baseline"), 1.0
    for k, l in ((1, 1), (4, 3), (big, 1), (big, big - 1)):
        yield SeriesSpec(kind="alladi", k=k, l=l), 1.0 / phi_naive(k)
        for m in (1, 12, 30, big):  # mu(m) = 1, 0, -1, -1
            yield SeriesSpec(kind="ramanujan-alladi", m=m, k=k, l=l), 1.0 / phi_naive(k)
            yield SeriesSpec(kind="mu-mn", m=m, k=k, l=l), mu_naive(m) / phi_naive(k)
    yield SeriesSpec(kind="mertens-restricted", y=3), None
    yield SeriesSpec(kind="mu-over-n-restricted", y=3), 0.0
    for w, density in zip(weights, densities):
        yield SeriesSpec(kind="weighted-lhs", m=6, weight=w), None
        yield SeriesSpec(kind="lpf-density", weight=w), density


def test_spec_target_is_the_rows_target(table_small):
    def hexed(v):
        return None if v is None else float.hex(v)

    kinds = set()
    for spec, want in target_cases():
        spec = replace(spec, checkpoints=(1, 2, 997, 10**4))
        before = spec.target
        assert hexed(before) == hexed(want), spec.describe()
        s = run_series(table_small, spec)
        assert hexed(s.spec.target) == hexed(before), spec.describe()
        for r in s.rows:
            want_error = None if before is None else abs(r.value - before)
            assert hexed(r.error) == hexed(want_error), (spec.describe(), r.x)
        kinds.add(spec.kind)
    assert kinds == set(SERIES_KINDS)


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
    # 1000-term chunks split each side into several units, and 7- or 97-term
    # pieces split each unit; the exact combine must give the same Fractions
    # as 2^12-term pieces of whole chunks, for any thread count
    x = 5000
    whole = {
        (m, i): difference_term(table_small, m, w, x, exact=True)
        for m in (6, 30)
        for i, w in enumerate(IDENTITY_WEIGHTS)
    }
    monkeypatch.setattr(sieve, "CHUNK", 1000)
    for threads, piece in ((1, 7), (3, 97), (1, 1 << 12), (3, 1 << 12)):
        monkeypatch.setattr(sieve, "_THREADS", threads)
        monkeypatch.setattr(series, "_EXACT_PIECE", piece)
        for (m, i), sides in whole.items():
            got = difference_term(table_small, m, IDENTITY_WEIGHTS[i], x, exact=True)
            assert got == sides, (threads, piece)


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


# --- the exact reducer: prime-power partial fractions ----------------------


def fraction_sum(a, n) -> Fraction:
    return sum((Fraction(int(i), int(j)) for i, j in zip(a, n)), Fraction(0))


def exact_reducer_batches(spf):
    """(name, a, n) batches of terms a/n with 1 <= n < spf.size."""
    limit = spf.size - 1
    rng = np.random.default_rng(1729)
    tail = np.arange(limit - 2000, limit + 1)
    top_primes = tail[spf[tail] == tail]
    piece = series._EXACT_PIECE
    yield "empty", np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int64)
    yield "n = 1", np.array([3, -1], dtype=np.int8), np.array([1, 1])
    yield "n = 1 alone, then others", np.array([1, 2, 2], dtype=np.int8), np.array([1, 2, 6])
    yield "one n repeated", np.full(3000, 5, dtype=np.int8), np.full(3000, 720)
    yield "repeats that cancel", np.tile(np.int8([1, -1]), 500), np.repeat([30030, 510510], 500)
    powers = np.array([2**16, 3**10, 2**15, 3**9, 3 * 2**16])
    yield "2^16 and 3^10", np.int8([1, -7, 3, 1, 5]), powers
    yield "primes near the limit", rng.integers(-9, 10, top_primes.size, dtype=np.int16), top_primes
    yield "zero numerators", np.zeros(100, dtype=np.int8), rng.integers(1, limit + 1, 100)
    yield "negative a", -rng.integers(1, 2**30, 500), rng.integers(1, limit + 1, 500)
    yield "numerators near 2^34", rng.choice([-(2**34), 2**34 - 1], 64), rng.integers(1, limit, 64)
    for size in (piece - 1, piece, piece + 1, 3 * piece + 5):
        a = rng.integers(-127, 128, size).astype(np.int8)
        yield f"random, {size} terms", a, rng.integers(1, limit + 1, size)


def pieces(a, n):
    """(a, n) cut into pieces of _EXACT_PIECE terms, as the exact reducer cuts
    a unit, each with the one multiplier c = 1."""
    step = series._EXACT_PIECE
    return [([1], np.zeros(min(step, n.size - i), dtype=np.intp), a[i : i + step], n[i : i + step])
            for i in range(0, n.size, step)]


@pytest.fixture(scope="module")
def lanes_mid(table_mid):
    return series._Lanes(table_mid.spf, table_mid.limit)


@pytest.fixture
def lane_rule(monkeypatch):
    """Checks every sum that _partial_fractions, _add and _times return, also
    inside other calls: an int z and one int64 r per modulus, 0 <= r < q,
    for the moduli q that _add and _times take or the lanes' q."""

    def checked(op):
        def run(lanes, *args):
            z, r = out = op(lanes, *args)
            q = getattr(lanes, "q", lanes)
            assert type(z) is int and r.dtype == np.int64 and r.shape == q.shape
            assert np.all((r >= 0) & (r < q)), op.__name__
            return out

        return run

    for name in ("_partial_fractions", "_add", "_times"):
        monkeypatch.setattr(series, name, checked(getattr(series, name)))


def test_exact_reducer_matches_fraction_bruteforce(table_mid, lanes_mid, lane_rule):
    spf = table_mid.spf
    for name, a, n in exact_reducer_batches(spf):
        got = series._exact_value(lanes_mid, series._partial_fractions(lanes_mid, pieces(a, n)), 1)
        want = fraction_sum(a, n)
        # equal as normalized pairs, not only as values
        assert type(got) is Fraction, name
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator), name
        assert gcd(got.numerator, got.denominator) == 1, name


def test_exact_reducer_scales_groups_by_any_float(table_mid, lanes_mid, lane_rule):
    # every f is an integer over a power of two; huge and subnormal f make
    # that integer thousands of bits long
    spf, rng = table_mid.spf, np.random.default_rng(7)
    fs = [1.0, -0.75, 0.1, 1e100, -1e100, 5e-324, -2.5e-300, 2.0**31, -(2.0**62) - 2.0**10]
    keys = [2, 3, 5, 7]  # 7 stays off the table: f = 0
    for trial in range(18):
        # past the first 12 trials, f whose scale * f stay small, some of
        # them subnormal, with a scale of 2**1074
        small = (fs[:2] + fs[7:8] + [0.5], [5e-324, -1e-323, 1.5e-323])[trial % 2]
        values = rng.choice(fs if trial < 12 else small, size=3, replace=False).tolist()
        weight = PrimeWeight.from_table(dict(zip(keys, values)))
        size = int(rng.integers(0, 900))
        lo = int(rng.integers(1, spf.size - size))
        wide = rng.integers(-200, 201, size)
        primes = rng.choice(keys, size).astype(np.uint32)
        n = np.arange(lo, lo + size)
        f = [Fraction(dict(weight.table).get(int(p), 0.0)) for p in primes]
        # the least scale that makes every f an integer, and a larger one
        least = max(Fraction(v).denominator for v in values)
        # an int64 column and an int8 one
        for col in (wide, np.clip(wide, -127, 127).astype(np.int8)):
            want = sum((Fraction(int(a), int(d)) * v for a, d, v in zip(col, n, f)), Fraction(0))
            # the prefix of the first half of the terms, then the whole
            half = sum((Fraction(int(a), int(d)) * v
                        for a, d, v in zip(col[: size // 2], n, f)), Fraction(0))
            for scale in (least, least << 40):
                sums = series._reduce_exact(lanes_mid, scale, col, primes, weight, lo, [size // 2, size])
                got = [series._exact_value(lanes_mid, s, scale) for s in sums]
                assert [(g.numerator, g.denominator) for g in got] == [
                    (v.numerator, v.denominator) for v in (half, want)], trial
    assert series._exact_value(lanes_mid, series._add(lanes_mid.q, []), 2**1074) == 0


def same_lanes(s, t) -> bool:
    return s[0] == t[0] and np.array_equal(s[1], t[1])


def test_equal_values_have_equal_lanes(table_small, lane_rule, monkeypatch):
    # every sum of a call has one lane per prime <= x, so two sums of one
    # value agree lane by lane, with no r = 0 lane left over from a merge
    spf = table_small.spf
    lanes = series._Lanes(spf, table_small.limit)
    rng = np.random.default_rng(11)
    a, n = rng.integers(-99, 100, 3000), rng.integers(1, spf.size, 3000)
    o = rng.permutation(n.size)
    split = [series._partial_fractions(lanes, pieces(a[o[i:j]], n[o[i:j]]))
             for i, j in ((0, 7), (7, 1200), (1200, 3000))]
    pairs = {
        "1/2 + 1/2 and 1/1": (series._partial_fractions(lanes, pieces(np.int8([1, 1]), np.array([2, 2]))),
                              series._partial_fractions(lanes, pieces(np.int8([1]), np.array([1])))),
        "a batch and its permuted split": (series._partial_fractions(lanes, pieces(a, n)),
                                           series._add(lanes.q, split)),
    }
    # the raw sides of difference_term, before they become Fractions
    monkeypatch.setattr(series, "_exact_value", lambda lanes, sums, scale: sums)
    for m, w in ((6, IDENTITY_WEIGHTS[0]), (30, IDENTITY_WEIGHTS[2])):
        pairs[f"identity sides, m = {m}"] = difference_term(table_small, m, w, 5000, exact=True)
    for name, (s, t) in pairs.items():
        assert same_lanes(s, t), name
        i = np.flatnonzero(s[1])[0] if s[1].any() else 0
        r = s[1].copy()
        r[i] += -1 if r[i] else 1  # stays in [0, q)
        assert not same_lanes((s[0], r), t), name
        assert not same_lanes((s[0] + 1, s[1]), t), name


def test_inverse_matches_pow_up_to_2_32():
    rng = np.random.default_rng(31)
    us, qs = [], []
    for q in (4294967291, 2**31, 3**20, 65521**2, 2, 3, 2**32 - 5):
        near = [1, 2, q - 1, q - 2, q - 3, q - 4, q // 2, q // 2 + 1]
        near += rng.integers(1, q, 200).tolist()
        near = [u for u in near if 0 < u < q and gcd(u, q) == 1]
        us += near
        qs += [q] * len(near)
    # every unit of moduli just past the table, w = 1 among them: one swap
    # level where w <= 500, two where w > 500
    for q in (501, 503, 512, 625, 997, 1000):
        near = [u for u in range(1, q) if gcd(u, q) == 1]
        us += near
        qs += [q] * len(near)
    got = series._inverse(np.array(us, dtype=np.int64), np.array(qs, dtype=np.int64))
    assert got.tolist() == [pow(u, -1, q) for u, q in zip(us, qs)]


def test_inverse_takes_the_longest_euclid_below_2_32():
    # consecutive Fibonacci numbers take the most Euclid steps for their
    # size, so the most swap levels, and F(47) is the largest below 2**32
    fib = [0, 1]
    while fib[-1] < 2**32:
        fib.append(fib[-1] + fib[-2])
    u, q = fib[46], fib[47]
    got = series._inverse(np.array([u, 2], dtype=np.int64), np.array([q, q], dtype=np.int64))
    assert got.tolist() == [pow(u, -1, q), pow(2, -1, q)]


def test_inverse_refuses_a_non_unit():
    # gcd(3, 9) = 3 and gcd(6, 10) = 2: no inverse exists, and the call
    # raises instead of returning a coefficient that is none, even beside
    # a unit lane; gcd(2018, 3027) = 1009 lies past the table
    for u, q in (([3], [9]), ([6], [10]), ([1, 3], [7, 9]), ([2 * 1009], [3 * 1009])):
        with pytest.raises(ValueError):
            series._inverse(np.array(u, dtype=np.int64), np.array(q, dtype=np.int64))
    # u = 0 has no inverse; a child process bounds a regression to a
    # failure instead of a hang
    code = ("import numpy as np; from csumlab.series import _inverse\n"
            "try:\n    _inverse(np.array([0, 3]), np.array([7, 10]))\n"
            "except ValueError:\n    print('refused')\n")
    env = {**os.environ, "PYTHONPATH": str(Path(series.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "refused\n", proc.stderr


def test_inverse_table_matches_pow():
    start, table = series._inverse_table()
    assert table.dtype == np.uint16 and table.nbytes + start.nbytes <= 256 * 1024
    assert not (start.flags.writeable or table.flags.writeable)
    bound = series._INVERSE_BOUND
    assert table.size == sum(range(1, bound + 1))
    for u in range(1, bound + 1):
        got = table[start[u] : start[u] + u].tolist()
        assert got == [pow(s, -1, u) if gcd(s, u) == 1 else 0 for s in range(u)], u


def test_piece_fractions_equal_past_the_inverse_table(table_mid, lanes_mid, monkeypatch):
    # every lane of these pieces stops at one of three depths: q <= B reads
    # the table at q; q > B with w = u mod q <= B takes one swap step from
    # the table at w; q and w both past B (so n > B**2) take more.  The
    # primes 1031 and 1021 and 1024 = 2^10 lie past B, 499, 256 = 2^8 and
    # 243 = 3^5 below it, and cofactors run to 969.  With the bound at 1,
    # every lane takes swap steps down to the row of modulus 1.
    series._inverse_table()  # built at the real bound
    bound = series._INVERSE_BOUND
    spf, rng = table_mid.spf, np.random.default_rng(2048)
    steps, real_swap = [], series._swap

    def swap(s, u, inv):
        steps.append(u.size)
        return real_swap(s, u, inv)

    def depths(n, b):
        # the lanes, one per prime power q || n, stopped at the table,
        # after one swap level, and deeper
        count = [0, 0, 0]
        for k in n.tolist():
            rest = k
            while rest > 1:
                p, q = int(spf[rest]), 1
                while rest % p == 0:
                    rest //= p
                    q *= p
                count[0 if q <= b else 1 if k // q % q <= b else 2] += 1
        return count

    monkeypatch.setattr(series, "_swap", swap)
    for trial in range(6):
        q = rng.choice([243, 256, 499, 1024, 1031, 1021, 2, 3, 1], 3000)
        n = q * rng.integers(1, (spf.size - 1) // 1031, q.size)
        a = rng.integers(-(2**30), 2**30, n.size)
        got = []
        for b in (bound, 1):
            monkeypatch.setattr(series, "_INVERSE_BOUND", b)
            steps.clear()
            z, _, lane, r = series._piece_fractions(lanes_mid, a, n)
            acc = np.zeros(lanes_mid.q.size, dtype=np.int64)
            np.add.at(acc, lane, r)
            got.append((int(z.sum()), acc))
            # one _swap call a level, deepest first: the last covers every
            # lane past the table, the one before it those with w past it too
            table, one, deeper = depths(n, b)
            assert (steps[::-1] + [0, 0])[:2] == [one + deeper, deeper], trial
            if b > 1:
                assert table > 0 and one > 0 and deeper > 0, trial
            else:
                assert table == 0 and one > 0 and deeper > 0, trial
        assert got[0][0] == got[1][0] and np.array_equal(got[0][1], got[1][1]), trial


def test_agreeing_sides_are_converted_once(table_small, monkeypatch):
    # the sides are compared lane by lane: one Fraction when they agree, and
    # two, unequal, after one rhs lane or z moves by 1
    x, lanes = 5000, series._Lanes(table_small.spf, 5000)
    values, real_value, real_add = [], series._exact_value, series._add

    def value(lanes, sums, scale):
        values.append(scale)
        return real_value(lanes, sums, scale)

    added, nudge = [], {}

    def add(lanes, sums):
        out = real_add(lanes, sums)
        added.append(out)
        if len(added) == nudge.get("at"):  # the rhs: the last sum added
            z, r = out
            return nudge["change"](z, r.copy())
        return out

    monkeypatch.setattr(series, "_exact_value", value)
    monkeypatch.setattr(series, "_add", add)
    for w in (IDENTITY_WEIGHTS[0], IDENTITY_WEIGHTS[2]):
        for log in (values, added, nudge):
            log.clear()
        lhs, rhs = difference_term(table_small, 30, w, x, exact=True)
        assert lhs is rhs and len(values) == 1
        i = int(np.flatnonzero(added[-1][1])[0])

        def lane(z, r):
            r[i] -= 1  # r[i] > 0, so it stays in [0, q)
            return z, r

        for change, moved in ((lane, -Fraction(1, int(lanes.q[i]))),
                              (lambda z, r: (z + 1, r), Fraction(1))):
            nudge.update(at=len(added), change=change)
            values.clear()
            added.clear()
            got = difference_term(table_small, 30, w, x, exact=True)
            assert len(values) == 2 and got[0] != got[1]
            assert got == (lhs, lhs + moved / w.scale)


def test_exact_side_folds_each_cell_as_it_finishes(table_small, monkeypatch):
    # one thread runs each cell when the side asks for it, so a side holds
    # its running total and at most two cells' lanes, not one per cell
    monkeypatch.setattr(sieve, "CHUNK", 500)
    monkeypatch.setattr(sieve, "_THREADS", 1)
    held, most, real_reduce = [], [], series._reduce_exact

    def reduce(*args):
        out = real_reduce(*args)
        held.extend(weakref.ref(lanes) for _, lanes in out)
        most.append(sum(ref() is not None for ref in held))
        return out

    monkeypatch.setattr(series, "_reduce_exact", reduce)
    lhs, rhs = difference_term(table_small, 6, IDENTITY_WEIGHTS[0], 5000, exact=True)
    assert lhs == rhs and len(held) > 10 and max(most) <= 2


@pytest.mark.parametrize("x", [2**15 + 1, 2**17 + 3])
@pytest.mark.parametrize("weight", IDENTITY_WEIGHTS[::2], ids=weight_id)
def test_difference_exact_matches_lcm_reference(table_mid, x, weight):
    want = difference_sides_reference(table_mid.spf, 6, lambda p: weight_naive(weight, p), x)
    assert difference_term(table_mid, 6, weight, x, exact=True) == want


@pytest.fixture(scope="module")
def table_2_20():
    return build_spf_table(2**20 + 7)


def test_difference_exact_far_past_1e5(table_2_20):
    # about 20 s with one gcd per merge of the unreduced pairs
    start = time.perf_counter()
    lhs, rhs = difference_term(table_2_20, 6, PrimeWeight.constant_one(), 2**20 + 7, exact=True)
    assert lhs == rhs
    assert time.perf_counter() - start < 10


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


def walk_cells(start, tops, chunk):
    """(lo, *ends) of each grid cell of [start, max(tops) + 1), cut at the
    multiples of chunk: the ends x + 1 of the tops inside the cell, then its
    own end; none when the range is empty."""
    top = max(tops) + 1
    cuts = [start, *(c for c in range(chunk, top, chunk) if c > start), top]
    return [(lo, *sorted({x + 1 for x in tops if lo < x + 1 < hi}), hi)
            for lo, hi in zip(cuts, cuts[1:])] if top > start else []


def spy_maps(monkeypatch):
    """The (lo, *ends) calls of every thread map, one list per map."""
    mapped, real_map = [], sieve._thread_map

    def spy(calls):
        mapped.append([tuple(call[1:]) for call in calls])
        return real_map(calls)

    monkeypatch.setattr(sieve, "_thread_map", spy)
    return mapped


def test_checkpoint_prefix_consistency(table_small, monkeypatch):
    # evaluating at [a, b, c] must agree with three standalone runs
    joint = mu_baseline(table_small, [37, 503, 9001])
    for row in joint.rows:
        alone = mu_baseline(table_small, [row.x])
        assert alone.rows[0].value == row.value, row.x

    # the same across chunk edges: checkpoints below start, on, beside and
    # between the edges of 97-term cells, and a run walks each grid cell of
    # [2, 9001] once, with every checkpoint that ends inside it as a cut
    chunk, cps = 97, (1, 96, 97, 98, 194, 195, 500, 9001)
    monkeypatch.setattr(sieve, "CHUNK", chunk)
    table_small.lpf_table()  # built first: the spy counts the series' walks only
    mapped = spy_maps(monkeypatch)
    for kind, params in (
        ("mu-baseline", {}),
        ("mertens-restricted", {"y": 3}),
        ("lpf-density", {"weight": PrimeWeight.residue_class(4, 3)}),
        ("lpf-density", {"weight": TABLE_W}),
    ):
        mapped.clear()
        joint = run_series(table_small, SeriesSpec(kind=kind, checkpoints=cps, **params))
        assert mapped == [walk_cells(2, cps, chunk)], kind
        assert sum(cell[-1] - cell[0] for cell in mapped[0]) == cps[-1] - 1, kind
        for row in joint.rows:
            spec = SeriesSpec(kind=kind, checkpoints=(row.x,), **params)
            alone = run_series(table_small, spec).rows[0]
            assert (alone.value.hex(), alone.count) == (row.value.hex(), row.count), (kind, row.x)


def test_every_threaded_walk_maps_its_grid_cells(monkeypatch):
    # one driver on one grid: the sieve's segments, each doubling block of
    # the mu and lpf tables, a series' checkpoints, the exact layout's
    # prime scan and the identity hand the thread map each grid cell of
    # their walks once, with its ends; one identity makes one map, its lhs
    # walk then one rhs walk per least prime of the divisors of m
    chunk, limit, x = 1000, 5000, 4321
    monkeypatch.setattr(sieve, "CHUNK", chunk)
    mapped = spy_maps(monkeypatch)

    def maps(call):
        mapped.clear()
        call()
        return mapped[:]

    t = build_spf_table(limit)
    assert mapped == [walk_cells(0, (limit,), chunk)]
    blocks = [(2**k, min(2 ** (k + 1), limit + 1)) for k in range(1, limit.bit_length())]
    derived = [walk_cells(lo, (hi - 1,), chunk) for lo, hi in blocks]
    assert maps(t.mu_table) == derived
    assert maps(t.lpf_table) == derived
    cps = (1, 999, 1000, 2500, x)
    spec = SeriesSpec(kind="ramanujan-alladi", m=6, k=4, l=3, checkpoints=cps)
    assert maps(lambda: run_series(t, spec)) == [walk_cells(2, cps, chunk)]
    # 12: d = 2, 4, 6, 12 share p = 2 and d = 3 walks alone
    identity = [*walk_cells(2, (x,), chunk), *walk_cells(1, (x // 12, x // 6, x // 4, x // 2), chunk),
                *walk_cells(1, (x // 3,), chunk)]
    one = PrimeWeight.constant_one()
    assert maps(lambda: difference_term(t, 12, one, x)) == [identity]
    assert maps(lambda: difference_term(t, 12, one, x, exact=True)) == [
        walk_cells(2, (x,), chunk), identity]


def rhs_per_divisor(t, m, weight, x, chunk):
    """The float and exact rhs of the identity, one walk per divisor d > 1
    of m as the identity once took them: each cell of [1, x // d] on the
    grid summed by fsum, each d's cells by fsum, then the divisors by fsum;
    and the Fraction sum of the same terms."""
    factors = factorize_naive(m)
    divs = [1]
    for p, e in factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    mu, spf = t.mu_table(), t.spf
    sides, exact = [], Fraction(0)
    for d in sorted(divs)[1:]:
        cells = []
        for lo, hi in (cell[::len(cell) - 1] for cell in walk_cells(1, (x // d,), chunk)):
            terms = [(int(mu[n]) * weight_naive(weight, int(spf[d * n])), n) for n in range(lo, hi)]
            cells.append(math.fsum(float(a) / n for a, n in terms if a))
            exact += sum((a / n for a, n in terms), Fraction(0))
        sides.append(math.fsum(cells))
    return math.fsum(sides), exact


@pytest.mark.parametrize("m", [2**10, 360, 30030, 2**32 - 1])
def test_grouped_rhs_matches_one_walk_per_divisor(table_small, monkeypatch, m):
    # x // d on, beside and between the edges of 100-term cells, and past
    # every d > x (2**32 - 1 = 3 * 5 * 17 * 257 * 65537)
    chunk = 100
    monkeypatch.setattr(sieve, "CHUNK", chunk)
    for x in (1, 1598, 1599, 1600, 4001):
        for weight in IDENTITY_WEIGHTS:
            want_float, want_exact = rhs_per_divisor(table_small, m, weight, x, chunk)
            assert difference_term(table_small, m, weight, x)[1].hex() == want_float.hex(), (x, weight)
            assert difference_term(table_small, m, weight, x, exact=True)[1] == want_exact, (x, weight)


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
        PrimeWeight.residue_class(4, 2)
    with pytest.raises(ValueError):
        PrimeWeight.residue_class(2**32, 1)
    # one frozen class per kind, each holding only its own fields; the
    # constructors build them, and PrimeWeight itself has no fields
    assert type(PrimeWeight.constant_one()) is OneWeight
    assert PrimeWeight.residue_class(4, 3) == ResidueWeight(4, 3)
    assert PrimeWeight.from_table({3: 1.0, 2: 0.5}) == TableWeight(((2, 0.5), (3, 1.0)))
    assert [[f.name for f in fields(c)] for c in (OneWeight, ResidueWeight, TableWeight)] == [
        [], ["k", "l"], ["table"]]
    assert not is_dataclass(PrimeWeight)
    with pytest.raises(FrozenInstanceError):
        PrimeWeight.residue_class(4, 3).k = 5
    # a field a kind does not hold is a TypeError, and a residue class
    # needs both k and l
    table = ((2, 1.0),)
    for make in (lambda: ResidueWeight(4), lambda: ResidueWeight(l=3), lambda: ResidueWeight(),
                 lambda: ResidueWeight(4, 3, table=table), lambda: TableWeight(table=table, k=4),
                 lambda: TableWeight(table, l=1), lambda: TableWeight(),
                 lambda: OneWeight(k=5, l=1), lambda: OneWeight(table=table),
                 lambda: PrimeWeight(kind="one")):
        with pytest.raises(TypeError):
            make()
    # at(primes) gives (support, f): f is None for the 0/1 weights and
    # support None where f is 1 everywhere
    primes = np.array([2, 5, 7, 11], dtype=np.uint32)
    assert PrimeWeight.constant_one().at(primes) == (None, None)
    support, f = PrimeWeight.residue_class(4, 1).at(primes)
    assert support.tolist() == [False, True, False, False] and f is None
    support, f = PrimeWeight.from_table({2: -3.5, 7: 0.0, 11: 5e-324}).at(primes)
    assert support.tolist() == [True, False, False, True]  # f(7) = 0 is off the support
    assert f.tolist() == [-3.5, 0.0, 0.0, 5e-324]
    # f is read only at primes, and a key may not repeat
    for key in (-3, 0, 1, 4, 2**32 - 1, 2**32, 99999999999):
        with pytest.raises(ValueError):
            PrimeWeight.from_table({key: 1.0})
    with pytest.raises(ValueError):
        TableWeight(((2, 0.5), (2, 0.7)))
    assert PrimeWeight.from_table({2**32 - 5: 1.0}).table == ((2**32 - 5, 1.0),)
    # the class mask is p = l (mod k) over the whole uint32 range, for any
    # k and for l negative or at least k
    a = np.array([0, 1, 2, 2**31, 2**32 - 1], dtype=np.uint32)
    for k in (1, 2, 3, 4, 6, 65537, 2**31 - 1, 2**32 - 1):
        for l in (-1, -k - 1, k + 1, 3 * k - 1):
            support, f = PrimeWeight.residue_class(k, l).at(a)
            assert support.tolist() == [v % k == l % k for v in a.tolist()], (k, l)
            assert f is None
    # composite keys near 2**32: 65521**2 and 65519 * 65521 have no factor
    # below 65519, and 2**32 - 3 = 9241 * 464773
    for key in (65521**2, 65519 * 65521, 2**32 - 3):
        with pytest.raises(ValueError):
            PrimeWeight.from_table({key: 1.0})
    # validation stays cheap for many large keys
    big = []
    n = 2**32 - 1
    while len(big) < 1000:
        n -= 2
        if is_prime_mr(n):
            big.append(n)
    t0 = time.perf_counter()
    assert len(PrimeWeight.from_table(dict.fromkeys(big, 1.0)).table) == 1000
    assert time.perf_counter() - t0 < 1.0


def test_table_weight_lookup_paths_agree():
    # the dense table below 2**16 and the binary search above it agree
    # with the dict: with 0 to 203 keys, given out of order or sorted, some
    # only past 2**16 (65537, the largest key 2**32 - 5), some on both
    # sides (65521 too), over a slice holding 0, 2**16 - 1, primes off the
    # table, the keys next to 2**16, 2**32 - 5 and 2**32 - 1
    rng = np.random.default_rng(33)
    primes = np.array(sieve._base_primes(2**16), dtype=np.uint32)
    keys = rng.choice(primes[primes < 65521], 200, replace=False).tolist() + [65521, 65537, 2**32 - 5]
    values = rng.choice([0.5, -1.0, 0.0, 5e-324, -1e100], len(keys)).tolist()
    edges = [0, 2**16 - 1, 65521, 65537, 2**32 - 5, 2**32 - 1]
    slice_ = np.concatenate([edges, rng.choice(primes, 5000)]).astype(np.uint32)
    for size in (0, 1, 2, 3, 4, 32, 33, 203):
        table = tuple(zip(keys, values))[len(keys) - size :]  # unsorted on purpose
        expected = np.array([dict(table).get(int(p), 0.0) for p in slice_])
        for weight in (TableWeight(table), PrimeWeight.from_table(dict(table))):
            support, f = weight.at(slice_)
            assert [float.hex(v) for v in f] == [float.hex(v) for v in expected], size
            assert support.dtype == bool and np.array_equal(support, expected != 0), size


def test_trial_factors_match_naive():
    # the small-prime factorizer against plain trial division, including
    # a prime square past 2**31 and the largest k
    rng = np.random.default_rng(16)
    ns = [*range(1, 3001), *rng.integers(1, 2**32, 300).tolist(), 65521**2, 2**32 - 1,
          2**32 - 5]
    for n in ns:
        got = series._trial_factors(n)
        assert got == factorize_naive(n), n
        assert all(type(p) is int and type(e) is int for p, e in got), n


def is_prime_mr(n: int) -> bool:
    """Miller-Rabin with bases 2, 7 and 61, deterministic for n < 4759123141."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 7, 61):
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(r - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


# --- the term column ---------------------------------------------------------


def test_c_column_dtype_edges():
    # divisor sums at the edges of int8, int16 and int32, and the divisors
    # of the prime 2**32 - 5, as the terms (d, +-d); each column must equal
    # an int64 column built divisor by divisor, in the narrowest dtype that
    # holds +-sum(divisors)
    cases = {
        (1, 126): np.int8,
        (1, 127): np.int16,
        (1, 32766): np.int16,
        (1, 32767): np.int32,
        (1, 2**31 - 1): np.int64,
        (1, 2**32 - 5): np.int64,
    }
    chunk = series.CHUNK
    rng = np.random.default_rng(11)
    mus = [
        np.ones(chunk + 70_000, dtype=np.int8),
        -np.ones(chunk + 70_000, dtype=np.int8),
        rng.integers(-1, 2, size=chunk + 70_000).astype(np.int8),
    ]
    for divisors, dtype in cases.items():
        for mu in mus:
            for lo in (chunk, chunk + 37):
                hi = lo + 60_000
                n = np.arange(lo, hi)
                for sign in (1, -1):
                    ref = np.zeros(hi - lo, dtype=np.int64)
                    for d in divisors:
                        hit = n % d == 0
                        ref[hit] += sign * d * mu[n[hit] // d].astype(np.int64)
                    col = series._column(mu, [(d, sign * d) for d in divisors], lo, hi)
                    assert col.dtype == dtype, (divisors, col.dtype)
                    assert np.array_equal(col, ref), (divisors, lo, sign)
    # entries reach -sum(divisors) where every divisor divides n
    for divisors in ((1, 126), (1, 127), (1, 32766), (1, 32767)):
        col = series._column(mus[0], [(d, -d) for d in divisors], chunk, chunk + 60_000)
        assert col.min() == -sum(divisors), divisors


def column_naive(mu, terms, lo, hi):
    return [sum(c * int(mu[n // d]) for d, c in terms if n % d == 0) for n in range(lo, hi)]


def test_column_matches_naive_terms():
    # random strides, repeated ones included, with coefficients of both
    # signs, over a range across the chunk edge; each list also runs with a
    # stride-1 pair first, which starts the column instead of a zeroed one
    chunk = series.CHUNK
    rng = np.random.default_rng(17)
    mu = rng.integers(-1, 2, size=chunk + 2000).astype(np.int8)
    lo, hi = chunk - 700, chunk + 700
    for _ in range(20):
        size = int(rng.integers(1, 8))
        strides = rng.integers(2, 60, size=size).tolist()
        coeffs = rng.integers(-300, 301, size=size).tolist()
        for terms in (list(zip(strides, coeffs)), [(1, coeffs[0]), *zip(strides, coeffs)]):
            col = series._column(mu, terms, lo, hi)
            assert col.dtype == np.min_scalar_type(-sum(abs(c) for _, c in terms) - 1), terms
            assert col.tolist() == column_naive(mu, terms, lo, hi), terms
    assert series._column(mu, [], lo, hi).tolist() == [0] * (hi - lo)


@pytest.mark.parametrize("terms,dtype", [
    ([(1, 127)], np.int8),
    ([(1, -100), (3, 27)], np.int8),
    ([(1, 128)], np.int16),
    ([(1, 100), (2, -28)], np.int16),
    ([(1, -32767)], np.int16),
    ([(1, 32000), (5, -767)], np.int16),
    ([(1, 32768)], np.int32),
    ([(1, -32000), (7, 768)], np.int32),
])
def test_column_dtype_holds_the_coefficient_sum(terms, dtype):
    # the dtype is the narrowest that holds +-sum |c|; with the coefficients
    # made one-signed, the entries where every stride divides n reach
    # +sum |c| (mu = 1) and -sum |c| (mu = -1) without overflow
    lo, hi = 2**20 - 50, 2**20 + 50
    for mu in (np.ones(hi, dtype=np.int8), -np.ones(hi, dtype=np.int8)):
        for ts in (terms, [(d, abs(c)) for d, c in terms]):
            col = series._column(mu, ts, lo, hi)
            assert col.dtype == dtype, ts
            assert col.tolist() == column_naive(mu, ts, lo, hi), ts
        reach = col.max() if mu[0] > 0 else -col.min()
        assert reach == sum(c for _, c in ts), terms


def test_every_mu_based_sum_builds_its_column_in_one_kernel(table_small, monkeypatch):
    def refuse(*args):
        raise RuntimeError("column built")

    monkeypatch.setattr(series, "_column", refuse)
    for kind in SERIES_KINDS:
        params = dict(DISPATCH[kind][0])
        spec = SeriesSpec(kind=kind, checkpoints=(100, 1000), **params)
        if kind == "lpf-density":
            assert len(run_series(table_small, spec).rows) == 2
        else:
            with pytest.raises(RuntimeError, match="column built"):
                run_series(table_small, spec)
    for exact in (False, True):
        with pytest.raises(RuntimeError, match="column built"):
            difference_term(table_small, 6, OneWeight(), 1000, exact=exact)


# --- the exact chunk sum -----------------------------------------------------


def fsum_reference(a):
    return math.fsum(a.tolist())


def data_bound(a):
    """(e, f) with 2**e > every |a| and 2**f <= every nonzero |a|, read
    from a; (0, 0) when a has no nonzero entry."""
    mags = np.abs(a[a != 0])
    if not mags.size:
        return 0, 0
    return math.frexp(mags.max())[1], math.frexp(mags.min())[1] - 1


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
    # past three pieces: huge, subnormal and ordinary terms, with exactly
    # cancelling pairs that straddle each piece boundary
    piece = series._PIECE
    mixed = rng.choice([1e100, -1e100, 5e-324, -5e-324, 1.0, -0.1], size=3 * piece + 5000)
    mixed *= rng.integers(1, 1000, size=mixed.size)
    for edge in (piece, 2 * piece, 3 * piece):
        pairs = rng.standard_normal(64) * 1e100
        mixed[edge - 64 : edge] = pairs
        mixed[edge : edge + 64] = -pairs[::-1]
    yield "mixed terms, pairs across pieces", mixed
    huge = rng.standard_normal(50_000) * 2.0 ** rng.integers(300, 333, size=50_000)
    tiny = rng.integers(-50, 51, size=50_000) * 5e-324
    yield "huge terms cancelling across pieces, subnormals left", np.concatenate(
        [huge, tiny, -rng.permutation(huge)]
    )
    for seed in range(20):
        r = np.random.default_rng(seed)
        size = int(r.integers(1, 5000))
        lo = int(r.integers(2, 10**8))
        num = r.integers(-400, 401, size=size).astype(np.float64)
        num *= r.choice([1.0, 0.5, -0.25, 1e100, 5e-324], size=size)
        yield f"a/n seed {seed}", num / np.arange(lo, lo + size, dtype=np.float64)


def test_exact_sum_matches_fsum():
    # each case through _block_sum twice: pieces read straight from the
    # array, and pieces that keep only their nonzero terms, copied into
    # the scratch buffer, so that many pieces come back short or empty
    def nonzero_terms(a):
        def block(lo, hi, out):
            piece = a[lo:hi][a[lo:hi] != 0]
            np.copyto(out[: piece.size], piece)
            return out[: piece.size]

        return block

    for name, a in exact_sum_cases():
        before = a.copy()
        # prefixes that end inside a piece, on its edge and at the end
        lens = sorted({k for k in (1, a.size // 3, series._PIECE) if k < a.size} | {a.size})
        want = [float.hex(fsum_reference(a[:k])) for k in lens]
        bound = data_bound(a)  # every piece takes the whole case's bound
        for block in (lambda lo, hi, out: a[lo:hi], nonzero_terms(a)):
            got = series._block_sum(lens, block, lambda lo, hi: bound)
            assert [float.hex(v) for v in got] == want, name
        assert np.array_equal(a, before), name  # the input is left alone


def test_empty_pieces_add_no_limb():
    limbs = []
    series._block_limbs(np.zeros(0), np.zeros(0), np.zeros(0), limbs, (0, -1022))
    assert limbs == []
    piece, terms = series._PIECE, np.array([0.1, -2.0**-60, 3.0])
    bound = lambda lo, hi: (2, -61)  # 2**-61 <= every nonzero |term| <= 2**2
    got = series._block_sum([5 * piece], lambda lo, hi, out: terms if lo == 2 * piece else terms[:0], bound)
    assert [float.hex(v) for v in got] == [float.hex(math.fsum(terms.tolist()))]
    assert series._block_sum([piece, 5 * piece], lambda lo, hi, out: terms[:0], bound) == [0.0, 0.0]


def reduce_reference(col, primes, weight, lo, lens):
    """_reduce as one whole-chunk float64 array, each prefix summed by math.fsum."""
    sel, num, fv = series._select(col, primes, weight)
    num = num.astype(np.float64)
    if fv is not None:
        num *= fv
    num /= sel + lo
    return [fsum_reference(num[sel < k]) for k in lens]


REDUCE_WEIGHTS = (
    PrimeWeight.constant_one(),
    PrimeWeight.residue_class(4, 3),
    PrimeWeight.from_table({3: 0.75, 7: -1e100, 11: 5e-324}),
)


@pytest.mark.parametrize("weight", REDUCE_WEIGHTS, ids=weight_id)
def test_reduce_matches_fsum_of_its_terms(weight):
    # kept counts from none to a whole chunk over columns that run a few
    # entries past a piece edge; every unkept entry is zero in the column
    # or off the weight's support
    piece, lo = series._PIECE, 5 * series.CHUNK + 17
    rng = np.random.default_rng(2024)
    f_at = {p: float(weight_naive(weight, p)) for p in (3, 5, 7, 11)}  # f(5) = 0 but for "one"
    for kept in (0, 1, piece, piece + 1, series.CHUNK):
        size = max(kept, 3 * piece + 5)
        col = rng.choice(np.array([-3, -1, 1, 2, 126], dtype=np.int8), size)
        primes = rng.choice(np.array([3, 7, 11], dtype=np.uint32), size)
        off = rng.permutation(size)[kept:]
        col[off[: off.size // 2]] = 0
        if isinstance(weight, OneWeight):
            col[off] = 0
        else:
            primes[off[off.size // 2 :]] = 5
        f = np.array([f_at[p] for p in primes.tolist()])
        n = np.arange(lo, lo + size, dtype=np.float64)
        keep = (col != 0) & (f != 0)
        terms = col[keep].astype(np.float64) * f[keep] / n[keep]
        assert terms.size == kept
        # each prefix: one term, a piece edge and a term past it, the whole column
        lens = [1, piece, piece + 1, size]
        want = [math.fsum(terms[: np.count_nonzero(keep[:k])].tolist()) for k in lens]
        got = series._reduce(col, primes, weight, lo, lens)
        assert list(map(float.hex, got)) == list(map(float.hex, want)), (weight_id(weight), kept)


def watch_limbs(monkeypatch) -> list[list[int]]:
    """Patch _block_limbs to record [limbs appended, max|p| reads] per call,
    check that the stated bound holds for the piece's terms, and check
    that the limbs sum exactly to the piece: math.fsum of them and the
    negated terms is 0.0 just when their exact sum is 0.  _block_limbs
    reads only its bound, so the read count stays 0."""
    seen, limbs_of = [], series._block_limbs

    class Watched(np.ndarray):
        def max(self, *args, **kwargs):
            self.record[1] += 1
            return np.ndarray.max(self, *args, **kwargs)

    def spy(p, q, r, limbs, bound):  # the walks run it on many threads at once
        mags = np.abs(p[p != 0])
        if mags.size:  # the stated bound holds
            assert math.ldexp(1.0, bound[1]) <= mags.min() <= mags.max() <= math.ldexp(1.0, bound[0])
        record, views = [len(limbs), 0], [a.view(Watched) for a in (p, q, r)]
        for v in views:
            v.record = record
        limbs_of(*views, limbs, bound)
        assert math.fsum([*limbs[record[0]:], *np.negative(p).tolist()]) == 0.0, bound
        record[0] = len(limbs) - record[0]
        seen.append(record)

    monkeypatch.setattr(series, "_block_limbs", spy)
    return seen


def bound_cases(mu):
    """(name, col, lo, weight): columns at their dtype's bound or from the
    real mu table, and table weights whose bound fits one extraction, fits
    two, spans past 53 bits, has a subnormal floor or holds subnormals
    only."""
    piece = series._PIECE
    size, lo = 3 * piece + 5, 5 * series.CHUNK + 17
    rng = np.random.default_rng(30)
    small = rng.choice(np.array([-3, -1, 1, 2, 126], dtype=np.int8), size)
    m96 = [(d, -d) for d in series._divisors(series._trial_factors(96))]  # sigma(96) = 252
    col96 = series._column(mu, m96, lo, lo + size)
    assert col96.dtype == np.int16
    yield "int8 at its bound", rng.choice(np.array([-127, -126, 126, 127], dtype=np.int8), size), \
        lo, OneWeight()
    yield "int16 from m = 96", col96, lo, ResidueWeight(4, 3)
    yield "first cell, from n = 2", series._column(mu, [(1, -1)], 2, 2 + size), 2, OneWeight()
    for values in ({3: 0.75, 7: -1.5, 11: 0.3}, {3: 2.0**20, 7: -1e-3, 11: 0.1},
                   {3: 1e30, 7: -1e-30, 11: 0.5}, {3: 0.75, 7: -1e100, 11: 5e-324}):
        yield f"table {values}", small, lo, PrimeWeight.from_table(values)
    # from n = 2, so that c * f(3) / n stays nonzero for the smallest n
    yield "subnormal table from n = 2", small, 2, PrimeWeight.from_table({2: 5e-324, 3: -1e-323})


def test_every_piece_sums_from_its_bound(table_big, monkeypatch):
    # each case against the whole-chunk fsum of its terms, bit for bit, at
    # one term, a piece edge, a term past it and the whole column; no case
    # reads max|p|
    piece, mu = series._PIECE, table_big.mu_table()
    primes = np.random.default_rng(7).choice(np.array([3, 7, 11], dtype=np.uint32), 3 * piece + 5)
    seen = watch_limbs(monkeypatch)
    for name, col, lo, weight in bound_cases(mu):
        lens = [1, piece, piece + 1, col.size]
        want = reduce_reference(col, primes, weight, lo, lens)
        seen.clear()
        got = series._reduce(col, primes, weight, lo, lens)
        assert list(map(float.hex, got)) == list(map(float.hex, want)), name
        assert seen and all(r == 0 for _, r in seen), (name, seen)


def test_past_the_first_cell_pieces_take_one_extraction(table_big, monkeypatch):
    # a mu-baseline and a ramanujan-alladi walk from the second cell, one
    # cell cut: every piece appends one extracted limb and one plain sum
    # and never reads max|p|, so a bound that silently stops holding fails
    # here and not only in the benchmark
    chunk, seen = series.CHUNK, watch_limbs(monkeypatch)
    for kind, params in (("mu-baseline", {}), ("ramanujan-alladi", {"m": 30, "k": 4, "l": 1})):
        spec = SeriesSpec(kind=kind, checkpoints=(3 * chunk,), **params)
        unit, _ = SERIES_KINDS[kind].units(table_big, spec)
        seen.clear()
        list(sieve._drive([(unit, (2 * chunk + 12345, 4 * chunk - 1), chunk)]))
        assert len(seen) > 3 * chunk // series._PIECE, kind
        assert all(s == [2, 0] for s in seen), (kind, seen)


@pytest.mark.parametrize("kind, params", [
    ("ramanujan-alladi", {"m": 2**31 - 1, "k": 4, "l": 1}),
    ("weighted-lhs", {"m": 2**32 - 1, "weight": PrimeWeight.from_table({2: 1e100, 3: -1e100})}),
], ids=["ramanujan-alladi", "weighted-lhs"])
def test_int64_columns_sum_from_their_bound(table_big, monkeypatch, kind, params):
    # m = 2**31 - 1 (sum |c| = 2**31) and m = 2**32 - 1 (sigma(m) ~ 7.3e9,
    # with the largest |f| a table takes) make int64 columns, whose bound
    # spans more than 53 bits: every piece still sums from its bound alone,
    # and the rows, one of them cut inside a cell, match the whole-chunk
    # fsum of their terms
    terms = [(d, -d) for d in series._divisors(series._trial_factors(params["m"]))]
    assert series._column(table_big.mu_table(), terms, 2, 3).dtype == np.int64
    spec = SeriesSpec(kind=kind, checkpoints=(2 * series.CHUNK + 12345, 3 * series.CHUNK + 5), **params)
    seen = watch_limbs(monkeypatch)
    got = [float.hex(r.value) for r in run_series(table_big, spec).rows]
    assert seen and all(r == 0 for _, r in seen), seen
    monkeypatch.setattr(series, "_reduce", reduce_reference)
    assert [float.hex(r.value) for r in run_series(table_big, spec).rows] == got


def test_bounded_limbs_at_the_edge_of_exactness():
    # every remainder of one extraction sits just below its bound
    # 2**(e + k - 53), e = 0, and one term is odd on the grid 2**(f - 52):
    # at e - f = 54 - 2k, the widest span one extraction serves, the plain
    # sum of the remainders is exact, and one bit wider takes a second
    # extraction
    size = 2**17 - 2
    k = (size + 1).bit_length()
    for f, want in ((2 * k - 54, 2), (2 * k - 55, 3)):
        p = np.full(size, 0.5 + 2.0 ** (k - 53) - 2.0**-53)
        p[0] = -1.0  # |p| reaches 2**e
        p[-1] = 2.0**f * (1 + 2.0**-52)
        limbs = []
        series._block_limbs(p, np.empty(size), np.empty(size), limbs, (0, f))
        assert len(limbs) == want, f
        assert math.fsum([*limbs, *np.negative(p).tolist()]) == 0.0, f
    # terms on the 2**-1074 grid with a floor below 2**-1022, which counts
    # as 2**-1022: at e + k = -1021 one plain sum is exact, and one bit
    # higher, where the partial sums pass 2**-1021 and their odd multiple
    # of 2**-1074 no longer fits, the sum takes an extraction first
    size = 2**18 - 2
    k = (size + 1).bit_length()
    for e, want in ((-1021 - k, 1), (-1020 - k, 2)):
        p = np.full(size, math.ldexp(1.0, e) - 1e-323)
        p[-1] = 5e-324
        limbs = []
        series._block_limbs(p, np.empty(size), np.empty(size), limbs, (e, -1074))
        assert len(limbs) == want, e
        assert math.fsum([*limbs, *np.negative(p).tolist()]) == 0.0, e


def test_term_bound_holds_at_its_corners():
    # every column dtype, weight magnitudes from the largest a table takes
    # to the least subnormal, and n from 1 to the largest a series sums:
    # each nonzero term fl(fl(c f) / n), rounded in _reduce's order, lies
    # within the bound stated for every n range [lo, hi] that holds its n
    mags, ns = (1e100, 1.0, 1e-300, 5e-324), (1, 2, 2**20, 2**32 - 2)
    for bits, (top, least) in product((7, 15, 31, 63), combinations_with_replacement(mags, 2)):
        weight = PrimeWeight.from_table({2: top, 3: -least})
        for lo, hi in combinations_with_replacement(ns, 2):
            e, f = series._term_bound(weight, bits, lo, hi)
            for c, v, n in product((1, 2**bits), (top, least), [n for n in ns if lo <= n <= hi]):
                term = Fraction(abs(float(c) * v / n))
                assert not term or Fraction(2) ** f <= term <= Fraction(2) ** e, (bits, top, least, lo, hi, c, v, n)


def test_reduce_builds_no_chunk_sized_float_array(table_big):
    # one mu-baseline chunk, 61% of its terms kept: a whole-chunk selection
    # would hold about 5 MB of indices, whole-chunk float64 terms 10 MB
    # more and a table weight's f values 8 MB, while each piece of the
    # index range selects only its own terms
    lo = 2 * series.CHUNK
    col = series._column(table_big.mu_table(), [(1, -1)], lo, lo + series.CHUNK)
    primes = table_big.spf[lo : lo + series.CHUNK]
    for weight in REDUCE_WEIGHTS:
        tracemalloc.start()
        try:
            value = series._reduce(col, primes, weight, lo, [series.CHUNK])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == reduce_reference(col, primes, weight, lo, [series.CHUNK])
        assert peak < 6 * 2**20, (weight_id(weight), peak)


def float_rows(table, cps):
    """float.hex and count of every row at cps: each kind once, twice
    where it takes a weight (its DISPATCH weight and a table) or a
    threshold (y = 5, and y = 10^5, whose pieces mostly keep no term),
    and both float difference_term sides for m = 6 at each checkpoint."""
    rows = {}
    for kind in SERIES_KINDS:
        params = dict(DISPATCH[kind][0])
        variants = [params]
        if "weight" in params:
            variants = [params, {**params, "weight": TABLE_W}]
        if "y" in params:
            variants = [{**params, "y": y} for y in (5, 10**5)]
        for i, p in enumerate(variants):
            spec = SeriesSpec(kind=kind, checkpoints=cps, **p)
            rows[kind, i] = [(float.hex(r.value), r.count) for r in run_series(table, spec).rows]
    sides = [side for x in cps for side in difference_term(table, 6, TABLE_W, x)]
    rows["difference"] = [float.hex(side) for side in sides]
    return rows


def test_float_sums_select_one_piece_at_a_time(table_big, monkeypatch):
    # every float kind and both float difference_term sides over four
    # chunks: no selection or table lookup may read more than one piece
    seen = {"_select": [], "TableWeight.at": []}
    select, table_at = series._select, TableWeight.at

    def select_spy(col, primes, weight):
        seen["_select"].append(col.size)
        return select(col, primes, weight)

    def table_at_spy(self, primes):
        seen["TableWeight.at"].append(primes.size)
        return table_at(self, primes)

    monkeypatch.setattr(series, "_select", select_spy)
    monkeypatch.setattr(TableWeight, "at", table_at_spy)
    float_rows(table_big, (3 * 2**20 + 5,))
    for name, sizes in seen.items():
        assert sizes and max(sizes) <= series._PIECE, (name, max(sizes, default=None))


def test_piece_width_never_changes_a_float_row(table_big, table_small, monkeypatch):
    # the rows and identity sides at chunk edges stay those of the chosen
    # width when pieces are cut at 2^15 indices on the real grid, and at
    # 97 or 2^9 indices on a 2^12 grid, whose cells the chosen width
    # covers in one piece
    chosen = series._PIECE
    cps = (2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 5)
    want = float_rows(table_big, cps)
    monkeypatch.setattr(series, "_PIECE", 2**15)
    assert float_rows(table_big, cps) == want, 2**15
    monkeypatch.setattr(sieve, "CHUNK", 2**12)
    monkeypatch.setattr(series, "_PIECE", chosen)
    cps = (2**12 - 1, 2**12, 2**12 + 1, 2 * 2**12 + 5)
    want = float_rows(table_small, cps)
    for width in (97, 2**9):
        monkeypatch.setattr(series, "_PIECE", width)
        assert float_rows(table_small, cps) == want, width


def block_sum_reference(lens, block, bound):
    """_block_sum as math.fsum of the terms of one piece spanning [0, k), for
    each k in lens; the stated bound is not read."""
    return [fsum_reference(block(0, k, np.empty(k))) for k in lens]


def test_exact_sum_rows_match_fsum_reference(table_big, monkeypatch):
    # chunk-edge checkpoints on a table past one CHUNK, every kind and both
    # float difference_term sides, with and without the whole-chunk fsum
    # references for the exact sum and the reducer
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
    monkeypatch.setattr(series, "_block_sum", block_sum_reference)
    assert fast == evaluate()
    monkeypatch.setattr(series, "_reduce", reduce_reference)
    assert fast == evaluate()
