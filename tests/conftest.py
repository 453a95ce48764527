"""Shared fixtures and independent reference implementations.

The references here deliberately avoid the package's own code paths:
factorization is plain trial division, the large Mobius and largest-prime-
factor tables come from per-prime passes over a Boolean Eratosthenes sieve,
and Ramanujan sums are evaluated through the
totient-quotient formula c_n(m) = mu(n/g) phi(n) / phi(n/g) with
g = gcd(n, m).  Small-range agreement between these routes is itself
asserted in test_sieve, so the faster references are anchored to the
definitional ones before they are used as oracles.
"""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from csumlab import build_spf_table


# --- trial-division references --------------------------------------------


def factorize_naive(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def spf_naive(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def lpf_naive(n: int) -> int:
    return factorize_naive(n)[-1][0]


def mu_naive(n: int) -> int:
    if n == 1:
        return 1
    fac = factorize_naive(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def phi_naive(n: int) -> int:
    result = n
    for p, _ in factorize_naive(n):
        result = result // p * (p - 1)
    return result


def divisors_naive(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def csum_totient(n: int, m: int) -> int:
    """c_n(m) through the totient-quotient formula (von Sterneck form)."""
    g = gcd(n, m)
    q = n // g
    mu_q = mu_naive(q)
    if mu_q == 0:
        return 0
    return mu_q * phi_naive(n) // phi_naive(q)


def csum_divisor_naive(n: int, m: int) -> int:
    """c_n(m) straight from the divisor form, all parts trial division."""
    return sum(d * mu_naive(n // d) for d in divisors_naive(gcd(n, m)))


def primes_reference(limit: int) -> list[int]:
    """Primes <= limit from a Boolean Eratosthenes sieve."""
    composite = np.zeros(limit + 1, dtype=bool)
    for p in range(2, int(limit**0.5) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return (np.flatnonzero(~composite[2:]) + 2).tolist()


def mu_reference(limit: int) -> np.ndarray:
    """Mobius table from one pass per prime (no SPF machinery)."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_reference(limit):
        mu[p::p] *= -1
        if p * p <= limit:
            mu[p * p :: p * p] = 0
    return mu


def lpf_reference(limit: int) -> np.ndarray:
    """Largest prime factor table from one pass per prime; 0 below 2."""
    lpf = np.zeros(limit + 1, dtype=np.uint32)
    # ascending primes: the last prime to mark n is its largest factor
    for p in primes_reference(limit):
        lpf[p::p] = p
    return lpf


# --- exact series enumerations (Fraction arithmetic) -----------------------


def series_bruteforce(x: int, term) -> Fraction:
    """Sum term(n) over 2 <= n <= x; term returns a Fraction or 0."""
    total = Fraction(0)
    for n in range(2, x + 1):
        total += term(n)
    return total


# --- shared tables ----------------------------------------------------------


@pytest.fixture(scope="session")
def table_small():
    return build_spf_table(10**4)


@pytest.fixture(scope="session")
def table_mid():
    return build_spf_table(10**6)


@pytest.fixture(scope="session")
def table_big():
    return build_spf_table(10**7)


@pytest.fixture(scope="session")
def mu_ref_mid():
    return mu_reference(10**6)
