"""Acceptance gate: the numbered guarantees this package ships under.

Each test prints one [PASS]/[FAIL] line (visible with -s, or on failure)
and asserts the matching guarantee:

     1. dual-route oracle equivalence for Ramanujan sums, n,m <= 200, < 10 s
     2. c_n(1) recovers the Mobius function for n <= 10^6, exact, < 5 s
     3. multiplicativity in n on 10^4 random coprime pairs, exact
     4. rearrangement identity, 6 moduli x 4 limits x 3 weights,
        float within 1e-9 and rational exactly 0, < 60 s
     5. baseline series within 0.01 of 1 at 10^6, error shrinking from 10^4
     6. progression series within 0.1 of 1/phi(k) at 10^7 for 12 parameter
        combinations, error no worse than at 10^5, < 10 min
     7. largest-prime-factor density within 0.02 of 1/2 at 10^7 for both
        reduced classes mod 4
     8. mu(mn) variant: within 0.1 of -1/2 for (m=2,k=3,l=1) at 10^7;
        identically zero for squarefull m
     9. restricted sums: sentinel value 1 when y >= x; decade decay for
        mu/n sums with y in {2,3,5} up to 10^7
    10. generalized sums: s=1 power weight reproduces classical values for
        n,m <= 500; the squared-weight spot value c_2(4; s=2) = 3
    11. bit-identical series under any thread count; byte-identical
        sieve cache on rebuild
"""

import os
import time
from math import gcd

import numpy as np

import csumlab.sieve as sieve
from csumlab import (
    PrimeWeight,
    build_spf_table,
    difference_term,
    generalized_ramanujan_sum,
    lpf_density,
    mertens_restricted,
    mu_baseline,
    mu_mn_partial_sum,
    mu_over_n_restricted,
    ramanujan_alladi_partial_sum,
    ramanujan_sum,
    ramanujan_sum_direct,
    save_spf_table,
)

from conftest import csum_totient, phi_naive


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_oracle_equivalence(table_small):
    t0 = time.perf_counter()
    bad = [
        (n, m)
        for n in range(1, 201)
        for m in range(1, 201)
        if ramanujan_sum(table_small, n, m) != ramanujan_sum_direct(n, m)
    ]
    elapsed = time.perf_counter() - t0
    report(
        1,
        not bad and elapsed < 10.0,
        f"divisor form == exponential form on 40000 pairs in {elapsed:.2f}s "
        f"(mismatches: {len(bad)})",
    )


def test_criterion_02_reduces_to_moebius_at_scale(table_mid, mu_ref_mid):
    t0 = time.perf_counter()
    values = np.fromiter(
        (ramanujan_sum(table_mid, n, 1) for n in range(1, 10**6 + 1)),
        dtype=np.int8,
        count=10**6,
    )
    elapsed = time.perf_counter() - t0
    equal = bool(np.array_equal(values, mu_ref_mid[1:]))
    report(
        2,
        equal and elapsed < 5.0,
        f"c_n(1) == mu(n) for n <= 10^6 in {elapsed:.2f}s",
    )


def test_criterion_03_multiplicativity(table_mid):
    rng = np.random.default_rng(31415926)
    checked = 0
    bad = 0
    while checked < 10**4:
        n1 = int(rng.integers(2, 10**3))
        n2 = int(rng.integers(2, 10**3))
        if gcd(n1, n2) != 1:
            continue
        m = int(rng.integers(1, 10**5))
        prod = ramanujan_sum(table_mid, n1 * n2, m)
        split = ramanujan_sum(table_mid, n1, m) * ramanujan_sum(table_mid, n2, m)
        bad += prod != split
        checked += 1
    report(3, bad == 0, f"c_(n1 n2)(m) == c_n1(m) c_n2(m) on {checked} coprime pairs")


def test_criterion_04_rearrangement_identity(table_mid):
    weights = [
        PrimeWeight.constant_one(),
        PrimeWeight.residue_class(3, 1),
        PrimeWeight.from_table({2: 0.5, 3: -0.25, 7: 1.0}),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    exact_fail = 0
    for m in (2, 3, 4, 6, 12, 30):
        for x in (10**2, 10**3, 10**4, 10**5):
            for w in weights:
                lhs, rhs = difference_term(table_mid, m, w, x)
                worst = max(worst, abs(lhs - rhs))
                lhs_e, rhs_e = difference_term(table_mid, m, w, x, exact=True)
                exact_fail += lhs_e != rhs_e
    elapsed = time.perf_counter() - t0
    report(
        4,
        worst < 1e-9 and exact_fail == 0 and elapsed < 60.0,
        f"72 float runs within {worst:.2e}, 72 rational runs exact, "
        f"{elapsed:.1f}s total",
    )


def test_criterion_05_baseline_convergence(table_mid):
    s = mu_baseline(table_mid, [10**4, 10**5, 10**6])
    final, first = s.rows[-1], s.rows[0]
    report(
        5,
        final.error < 0.01 and final.error < first.error,
        f"|value(10^6) - 1| = {final.error:.2e}, error(10^4) = {first.error:.2e}",
    )


def test_criterion_06_progression_convergence(table_big):
    t0 = time.perf_counter()
    worst_final = 0.0
    monotone_ok = True
    for k, l in ((3, 1), (3, 2), (4, 1), (4, 3)):
        for m in (1, 2, 6):
            s = ramanujan_alladi_partial_sum(table_big, m, k, l, [10**5, 10**7])
            err5, err7 = s.rows[0].error, s.rows[1].error
            worst_final = max(worst_final, err7)
            monotone_ok &= err7 <= err5
    elapsed = time.perf_counter() - t0
    report(
        6,
        worst_final < 0.1 and monotone_ok and elapsed < 600.0,
        f"12 series: worst |error| at 10^7 is {worst_final:.3e}, "
        f"all <= error at 10^5, {elapsed:.1f}s",
    )


def test_criterion_07_lpf_density(table_big):
    worst = 0.0
    for l in (1, 3):
        s = lpf_density(table_big, PrimeWeight.residue_class(4, l), [10**7])
        worst = max(worst, abs(s.rows[0].value - 0.5))
    report(7, worst < 0.02, f"|ratio(10^7) - 1/2| <= {worst:.4f} for both classes mod 4")


def test_criterion_08_mu_mn_variant(table_big):
    s = mu_mn_partial_sum(table_big, 2, 3, 1, [10**7])
    err = abs(s.rows[0].value - (-0.5))
    z = mu_mn_partial_sum(table_big, 4, 3, 1, [10, 10**3, 10**5, 10**7])
    all_zero = all(r.value == 0.0 for r in z.rows)
    report(
        8,
        err < 0.1 and all_zero,
        f"(m=2,k=3,l=1) lands {err:.3e} from -1/2; m=4 rows identically 0",
    )


def test_criterion_09_restricted_sums(table_big):
    sentinel_ok = True
    for x in (1, 10, 10**3):
        s = mertens_restricted(table_big, max(x, 10**3), [x])
        sentinel_ok &= s.rows[0].value == 1.0
    decay_ok = True
    for y in (2, 3, 5):
        s = mu_over_n_restricted(table_big, y, [10**4, 10**5, 10**6, 10**7])
        vals = [abs(r.value) for r in s.rows]
        decay_ok &= all(b <= a + 1e-3 for a, b in zip(vals, vals[1:]))
    report(
        9,
        sentinel_ok and decay_ok,
        "M(x, y>=x) = 1 exactly; |mu/n sums| decade-decreasing for y in {2,3,5}",
    )


def test_criterion_10_generalized_sums(table_small):
    bad = sum(
        generalized_ramanujan_sum(table_small, n, m, 1) != csum_totient(n, m)
        for n in range(1, 501)
        for m in range(1, 501)
    )
    cohen = generalized_ramanujan_sum(table_small, 2, 4, 2)
    report(
        10,
        bad == 0 and cohen == 3,
        f"s=1 classical on 250000 pairs ({bad} mismatches); c_2(4; s=2) = {cohen}",
    )


def test_criterion_11_determinism(table_mid, tmp_path, monkeypatch):
    def rows(fn, *args, threads):
        monkeypatch.setattr(sieve, "_THREADS", threads)
        return [r.value for r in fn(table_mid, *args, cps).rows]

    cps = [10**3, 10**5 + 7, 10**6]
    runs = [rows(ramanujan_alladi_partial_sum, 6, 4, 3, threads=w)
            for w in (1, os.cpu_count() or 1, 5)]
    series_ok = runs[0] == runs[1] == runs[2]
    m1 = rows(mertens_restricted, 3, threads=1)
    m2 = rows(mertens_restricted, 3, threads=4)
    series_ok &= m1 == m2
    caches = []
    for segment, threads in ((1 << 13, 1), (1 << 14, 6)):
        monkeypatch.setattr(sieve, "_SEGMENT", segment)
        monkeypatch.setattr(sieve, "_THREADS", threads)
        caches.append(tmp_path / f"{segment}.bin")
        save_spf_table(build_spf_table(10**5), str(caches[-1]))
    cache_ok = caches[0].read_bytes() == caches[1].read_bytes()
    report(
        11,
        series_ok and cache_ok,
        "rows bit-identical across thread counts; cache bytes identical "
        "across segment lengths and thread counts",
    )


def test_progression_targets_are_reciprocal_totients(table_big):
    # the convergence targets the criteria above assert against are 1/phi(k)
    for k, l in ((3, 1), (4, 3)):
        s = ramanujan_alladi_partial_sum(table_big, 2, k, l, [10])
        assert s.spec.target == 1.0 / phi_naive(k)
