"""Ramanujan sums: divisor form, exponential-sum form, generalization."""

import os
import resource
import subprocess
import sys
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import csumlab
from csumlab import (
    generalized_ramanujan_sum,
    ramanujan_sum,
    ramanujan_sum_direct,
)
from csumlab.ramanujan import DIRECT_EVAL_CAP, _unit_circle

from conftest import (
    csum_divisor_naive,
    csum_totient,
    mu_naive,
    phi_naive,
    ramanujan_sum_direct_reference,
)


def test_totient_oracle_matches_divisor_definition():
    # anchor the fast oracle to the definitional one before using it
    for n in range(1, 80):
        for m in range(1, 80):
            assert csum_totient(n, m) == csum_divisor_naive(n, m), (n, m)


def test_against_totient_oracle_exhaustive(table_small):
    for n in range(1, 120):
        for m in range(1, 120):
            assert ramanujan_sum(table_small, n, m) == csum_totient(n, m), (n, m)


def test_against_totient_oracle_random(table_mid):
    rng = np.random.default_rng(20260822)
    for _ in range(300):
        n = int(rng.integers(1, 10**5))
        m = int(rng.integers(1, 10**5))
        assert ramanujan_sum(table_mid, n, m) == csum_totient(n, m), (n, m)


def test_exponential_form_matches_totient_oracle(table_small):
    for n in range(1, 50):
        for m in range(1, 50):
            assert ramanujan_sum_direct(n, m) == csum_totient(n, m), (n, m)
    # q * m passes 2**63 at these m; the oracle must reduce m mod n first
    for m in (10**17, 2**63 - 1, 2**63, 10**30):
        for n in range(1, 201):
            assert ramanujan_sum_direct(n, m) == ramanujan_sum(table_small, n, m), (n, m)


def test_exponential_form_matches_uncached_reference():
    # the one-modulus table must not change an answer, whichever order the
    # calls come in: n-major reuses the entry, m-major replaces it each call
    grid = [(n, m) for n in range(1, 301) for m in range(1, 2 * n + 1)]
    expected = {nm: ramanujan_sum_direct_reference(*nm) for nm in grid}
    for n, m in grid:
        assert ramanujan_sum_direct(n, m) == expected[n, m], (n, m)
    for n, m in sorted(grid, key=lambda nm: (nm[1], nm[0])):
        assert ramanujan_sum_direct(n, m) == expected[n, m], (n, m)
    for m in (10**17, 2**63 - 1, 2**63, 10**30):
        for n in range(1, 301):
            assert ramanujan_sum_direct(n, m) == ramanujan_sum_direct_reference(n, m), (n, m)
    assert _unit_circle.cache_info().currsize <= 1


def test_exponential_form_refuses_before_touching_the_table():
    ramanujan_sum_direct(12, 5)
    before = _unit_circle.cache_info()
    for n, m in ((0, 1), (DIRECT_EVAL_CAP + 1, 1), (7, 0)):
        with pytest.raises(ValueError):
            ramanujan_sum_direct(n, m)
    assert _unit_circle.cache_info() == before


def test_unit_circle_table_is_read_only():
    ramanujan_sum_direct(12, 5)
    units, cosines = _unit_circle(12)
    assert units.tolist() == [1, 5, 7, 11] and cosines.size == 12
    for arr in (units, cosines):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_exponential_form_needs_no_divisor_form(monkeypatch):
    # the oracle checks the divisor form, so it must answer without it
    def refuse(*args, **kwargs):
        raise AssertionError("the exponential-sum oracle used the divisor form")

    for target in ("csumlab.ramanujan.generalized_ramanujan_sum", "csumlab.ramanujan.moebius",
                   "csumlab.ramanujan.factorize", "csumlab.sieve.moebius",
                   "csumlab.sieve.factorize"):
        monkeypatch.setattr(target, refuse)
    _unit_circle.cache_clear()
    for n in range(1, 201):
        for m in range(1, 201):
            assert ramanujan_sum_direct(n, m) == csum_totient(n, m), (n, m)


def test_reduces_to_moebius_at_m_equal_one(table_small):
    for n in range(1, 2000):
        assert ramanujan_sum(table_small, n, 1) == mu_naive(n), n


def test_multiple_modulus_gives_totient(table_small):
    # n | m forces every exponential term to 1, so the sum is phi(n)
    for n in range(1, 501):
        phi_n = phi_naive(n)
        for mult in (1, 2, 5):
            assert ramanujan_sum(table_small, n, mult * n) == phi_n, (n, mult)


def test_coprime_modulus_gives_moebius(table_small):
    for n in range(1, 501):
        mu_n = mu_naive(n)
        for m in range(1, 501):
            if gcd(n, m) == 1:
                assert ramanujan_sum(table_small, n, m) == mu_n, (n, m)


def test_bounded_by_totient(table_small):
    rng = np.random.default_rng(23)
    for _ in range(500):
        n = int(rng.integers(1, 10**4))
        m = int(rng.integers(1, 10**4))
        assert abs(ramanujan_sum(table_small, n, m)) <= phi_naive(n)


def test_periodic_in_m(table_small):
    for n in range(1, 301):
        for m in range(1, 301):
            assert ramanujan_sum(table_small, n, m) == ramanujan_sum(
                table_small, n, m + n
            ), (n, m)


def test_rows_sum_to_zero_over_a_full_period(table_small):
    # sum of c_n(m) for m = 1..n vanishes for n > 1
    for n in range(2, 120):
        assert sum(ramanujan_sum(table_small, n, m) for m in range(1, n + 1)) == 0


def test_multiplicative_in_n(table_mid):
    rng = np.random.default_rng(101)
    done = 0
    while done < 500:
        n1 = int(rng.integers(2, 900))
        n2 = int(rng.integers(2, 900))
        if gcd(n1, n2) != 1:
            continue
        m = int(rng.integers(1, 10**4))
        lhs = ramanujan_sum(table_mid, n1 * n2, m)
        rhs = ramanujan_sum(table_mid, n1, m) * ramanujan_sum(table_mid, n2, m)
        assert lhs == rhs, (n1, n2, m)
        done += 1


def test_argument_validation(table_small):
    with pytest.raises(ValueError):
        ramanujan_sum(table_small, 0, 1)
    with pytest.raises(ValueError):
        ramanujan_sum(table_small, 1, 0)
    with pytest.raises(ValueError):
        ramanujan_sum(table_small, 10**4 + 1, 1)
    with pytest.raises(ValueError):
        ramanujan_sum_direct(0, 1)


# --- generalized sums -------------------------------------------------------


def gen_naive(n: int, m: int, s: int) -> int:
    """Divisor enumeration straight from the definition."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0 and m % (d**s) == 0:
            total += d**s * mu_naive(n // d)
    return total


def test_identity_weight_is_classical(table_small):
    for n in range(1, 60):
        for m in range(1, 60):
            assert generalized_ramanujan_sum(table_small, n, m) == csum_totient(
                n, m
            ), (n, m)


def test_power_weight_against_enumeration(table_small):
    for s in (1, 2, 3):
        for n in range(1, 40):
            # m far above n as well: only d | gcd(n, m) can have d**s | m
            for m in [*range(1, 40), 2**40, 3**25, 720720]:
                expected = gen_naive(n, m, s)
                assert generalized_ramanujan_sum(table_small, n, m, s) == expected, (n, m, s)


def test_power_weight_squared_spot_value(table_small):
    # d^2 | 4 admits d in {1, 2}: 1*mu(2) + 4*mu(1) = 3
    assert generalized_ramanujan_sum(table_small, 2, 4, 2) == 3


def test_weight_validation(table_small):
    for s in (0, -1):
        with pytest.raises(ValueError):
            generalized_ramanujan_sum(table_small, 6, 6, s)
    assert generalized_ramanujan_sum(table_small, 1, 7, 3) == 1
    # the walk stops at the first d with d**s > m, so a huge s stays cheap
    assert generalized_ramanujan_sum(table_small, 30, 30, 10**7) == mu_naive(30)

    # s >= m.bit_length() returns mu(n) before any d**s is built: 2**(10**10)
    # alone would need over 1 GB, so the child runs under a 1.5 GB cap
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, 1500 * 2**20))

    env = {k: v for k, v in os.environ.items() if k != "CSUMLAB_CACHE_DIR"}
    env["PYTHONPATH"] = str(Path(csumlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "csumlab", "csum", "--n", "6", "--m", "6", "--s", "10000000000"],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "6,6,1"
