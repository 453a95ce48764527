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
from math import fsum, gcd, pi

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


def ramanujan_sum_direct_reference(n: int, m: int) -> int:
    """c_n(m) from the exponential sum, rebuilding every array per call.

    The oracle's body before it kept one modulus's units and cosines
    between calls: the same cosine arguments, term order and fsum, so
    the cached oracle must return the same integer for every (n, m).
    """
    if n == 1:
        return 1
    q = np.arange(1, n + 1, dtype=np.int64)
    coprime = np.gcd(q, n) == 1
    angles = (q[coprime] * (m % n)) % n
    total = fsum((np.cos(angles * (2.0 * pi / n))).tolist())
    assert abs(total - round(total)) <= 1e-6 * np.count_nonzero(coprime), (n, m)
    return round(total)


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


def lcm_sum(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """(N, D) with N/D the sum of the fractions n/d given as (n, d) pairs.

    Pairs are merged by recursive halving; each merge puts two fractions
    over the lcm of their denominators (one gcd), and no fraction is
    reduced on the way, so D is the lcm of every d.
    """
    if not pairs:
        return 0, 1
    while len(pairs) > 1:
        merged = []
        for (n1, d1), (n2, d2) in zip(pairs[::2], pairs[1::2]):
            g = gcd(d1, d2)
            merged.append((n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2))
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    return pairs[0]


def difference_sides_reference(spf: np.ndarray, m: int, f, x: int) -> tuple[Fraction, Fraction]:
    """Both exact sides of the finite-x identity, term by term.

    lhs sums (c_n(m) - mu(n)) f(p(n)) / n over 2 <= n <= x, with the
    numerators from the divisor form over mu_reference; rhs sums
    mu(n) f(p(d n)) / n over the divisors d > 1 of m and 1 <= n <= x/d.
    f maps a prime to a Fraction.  Each term is one integer pair and the
    pairs of a side are merged by lcm_sum.
    """
    mu = mu_reference(x)
    divs = [d for d in divisors_naive(m) if d > 1]
    col = np.zeros(x + 1, dtype=np.int64)
    for d in divs:
        col[d::d] += d * mu[1 : x // d + 1]

    def side(terms) -> Fraction:
        pairs = []
        for a, n, p in terms:
            w = f(p) * a
            if w:
                pairs.append((w.numerator, n * w.denominator))
        return Fraction(*lcm_sum(pairs))

    lhs = side((int(col[n]), n, int(spf[n])) for n in range(2, x + 1))
    rhs = side((int(mu[n]), n, int(spf[d * n])) for d in divs for n in range(1, x // d + 1))
    return lhs, rhs


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
