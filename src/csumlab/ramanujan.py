"""Ramanujan sums c_n(m) and their Cohen generalization c_n(m; s).

One evaluator, generalized_ramanujan_sum, sums d**s * mu(n/d) over the
divisors d of gcd(n, m) with d**s dividing m; ramanujan_sum is its s = 1
case (E. Cohen, "An extension of Ramanujan's sum", Duke Math. J. 1949).
The defining exponential sum (cosines over residues coprime to n) is kept
as a slow independent oracle.

The oracle's data for a modulus n does not depend on m, and two paths
share it.  The first call on a modulus sums directly: it keeps the units
q of Z/nZ in ascending order (what is left of [0, n) after striking the
multiples of each prime of n, found by trial division) and the cosines
cos(j * 2*pi/n) for j in [0, n) (_unit_circle, a one-entry cache),
gathers cosines[q * m mod n] and adds them with fsum.  A call on the
same modulus as the call just before it builds that modulus's row once
(_residue_row, a one-entry cache): the rounded sum for every residue j
in [0, n), from one FFT of the 0/1 unit indicator, which is the same
exponential sum taken as a DFT.  It and every later call on n read
row[m mod n].  So a walk over m for one n (csum --check-oracle, the
acceptance sweep, the benchmark's pairs) pays one O(n log n) transform
per modulus, while a walk that takes a new modulus each call (one m over
many n) builds no row: an FFT of prime length n runs through Bluestein's
algorithm and costs about twice the direct sum.  Both entries are
read-only and together hold at most 24 bytes per residue, about 24 MB at
DIRECT_EVAL_CAP.
"""

from __future__ import annotations

from functools import lru_cache
from math import fsum, gcd, pi

import numpy as np

from .sieve import SpfTable, _divisors, factorize, moebius

#: Largest modulus accepted by the direct exponential-sum oracle.  The
#: cosine sum needs O(n) work and stays comfortably exact in double
#: precision well beyond this size.
DIRECT_EVAL_CAP = 1_000_000

#: Rounding-residue tolerance of the direct oracle, scaled by phi(n).
_RESIDUE_TOL = 1e-6


def ramanujan_sum(t: SpfTable, n: int, m: int) -> int:
    """c_n(m) = sum_{d | gcd(n,m)} mu(n/d) * d, the s = 1 case of
    generalized_ramanujan_sum.

    Exact integer; equals mu(n) when gcd(n, m) = 1 and phi(n) when n | m.
    """
    return generalized_ramanujan_sum(t, n, m)


def ramanujan_sum_direct(n: int, m: int) -> int:
    """c_n(m) from the defining exponential sum, as an independent oracle.

    Sums cos(2*pi*q*m/n) over 1 <= q <= n coprime to n (imaginary parts
    cancel exactly) and rounds to the nearest integer.  The first call on
    n sums directly; a call on the n of the call just before it reads the
    row of every residue's sum, built once by FFT.  Usable for
    n <= DIRECT_EVAL_CAP; a rounding residue above 1e-6 * max(1, phi(n)),
    at m or, when the row is built, at any residue, means double
    precision can no longer be trusted and raises.
    """
    global _last_modulus
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > DIRECT_EVAL_CAP:
        raise ValueError(f"n={n} exceeds direct-evaluation cap {DIRECT_EVAL_CAP}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n == 1:
        return 1  # single q=1 term, e^0
    if n == _last_modulus:
        return int(_residue_row(n)[m % n])
    _last_modulus = n
    units, cosines = _unit_circle(n)
    # q * (m mod n) < n**2 fits int64 for any m, and its residue j mod n
    # picks cos(2*pi*q*m/n) = cosines[j], whose argument stays below 2*pi
    total = fsum(cosines[units * (m % n) % n].tolist())
    nearest = round(total)
    if abs(total - nearest) > _RESIDUE_TOL * max(1, units.size):
        raise ArithmeticError(
            f"direct Ramanujan sum unreliable at n={n}, m={m}: "
            f"rounding residue {abs(total - nearest):.3e}"
        )
    return int(nearest)


#: Modulus of the last call that summed directly; the next call on it
#: reads _residue_row instead.  A racing thread can only pick the other
#: path, which gives the same integer.
_last_modulus = 0


@lru_cache(maxsize=1)
def _unit_circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(units, cosines) of a modulus n >= 2, both read-only: the j in
    [0, n) coprime to n, ascending (the q in [1, n] coprime to n, since
    neither 0 nor n is), and cos(j * (2*pi/n)) for every j in [0, n).

    The units are what is left after striking the multiples of each prime
    dividing n."""
    j = np.arange(n, dtype=np.int64)
    coprime = np.ones(n, dtype=bool)
    for p in _prime_divisors(n):
        coprime[::p] = False
    units = j[coprime]
    cosines = np.cos(j * (2.0 * pi / n))
    units.flags.writeable = False
    cosines.flags.writeable = False
    return units, cosines


def _prime_divisors(n: int) -> list[int]:
    """The primes dividing n >= 2, ascending, by trial division: the oracle
    keeps off the sieve tables that the divisor form reads."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=1)
def _residue_row(n: int) -> np.ndarray:
    """c_n(j) for every j in [0, n) of a modulus n >= 2, read-only int64.

    Term j of the DFT of the 0/1 indicator of the units is the sum of
    exp(-2*pi*i*q*j/n) over the units q; its real part is the direct
    path's cosine sum at m = j.  Each is rounded under the same residue
    tolerance, checked over the whole row before any is returned.
    """
    units = _unit_circle(n)[0]
    unit = np.zeros(n)
    unit[units] = 1.0
    sums = np.fft.fft(unit).real
    row = np.rint(sums)
    residue = np.abs(sums - row)
    j = int(residue.argmax())
    if residue[j] > _RESIDUE_TOL * max(1, units.size):
        raise ArithmeticError(
            f"direct Ramanujan sum unreliable at n={n}, m={j} (mod n): "
            f"rounding residue {residue[j]:.3e}"
        )
    row = row.astype(np.int64)
    row.flags.writeable = False
    return row


def generalized_ramanujan_sum(t: SpfTable, n: int, m: int, s: int = 1) -> int:
    """c_n(m; s) = sum of d**s * mu(n/d) over divisors d of n with d**s | m.

    d**s | m implies d | m, so d runs over the divisors of g = gcd(n, m)
    and the sum is mu(n) when g = 1, or when s >= m.bit_length() (then
    every d >= 2 has d**s > m).  s = 1 gives the classical c_n(m),
    s >= 2 the Cohen-Ramanujan sum.  Exact integer: accumulation is in
    Python ints.
    """
    if not 1 <= n <= t.limit:
        raise ValueError(f"n={n} outside table range [1, {t.limit}]")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if s < 1:
        raise ValueError(f"exponent s must be >= 1, got {s}")
    g = gcd(n, m)
    # 2**s > m once s >= m.bit_length(), so then only d = 1 has d**s | m
    if g == 1 or s >= m.bit_length():
        return moebius(t, n)  # the single d = 1 term
    total = 0
    for d in _divisors(factorize(t, g)):
        ds = d**s
        if ds > m:
            break  # divisors ascend, so every later d**s > m too
        if m % ds == 0:
            total += ds * moebius(t, n // d)
    return total
