"""Ramanujan sums c_n(m) and their Cohen generalization c_n(m; s).

One evaluator, generalized_ramanujan_sum, sums d**s * mu(n/d) over the
divisors d of gcd(n, m) with d**s dividing m; ramanujan_sum is its s = 1
case (E. Cohen, "An extension of Ramanujan's sum", Duke Math. J. 1949).
The defining exponential sum (cosines over residues coprime to n) is kept
as a slow independent oracle.
"""

from __future__ import annotations

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
    cancel exactly) and rounds to the nearest integer.  Usable for
    n <= DIRECT_EVAL_CAP; a rounding residue above 1e-6 * max(1, phi(n))
    means double precision can no longer be trusted and raises.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > DIRECT_EVAL_CAP:
        raise ValueError(f"n={n} exceeds direct-evaluation cap {DIRECT_EVAL_CAP}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n == 1:
        return 1  # single q=1 term, e^0
    q = np.arange(1, n + 1, dtype=np.int64)
    coprime = np.gcd(q, n) == 1
    phi_n = int(np.count_nonzero(coprime))
    # q * (m mod n) < n**2 fits int64 for any m, and the angle keeps its
    # residue mod n, so the cosine argument stays small
    angles = (q[coprime] * (m % n)) % n
    total = fsum((np.cos(angles * (2.0 * pi / n))).tolist())
    nearest = round(total)
    if abs(total - nearest) > _RESIDUE_TOL * max(1, phi_n):
        raise ArithmeticError(
            f"direct Ramanujan sum unreliable at n={n}, m={m}: "
            f"rounding residue {abs(total - nearest):.3e}"
        )
    return int(nearest)


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
