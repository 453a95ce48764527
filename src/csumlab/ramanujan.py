"""Ramanujan sums c_n(m) and their Cohen generalization c_n(m; s).

One evaluator, generalized_ramanujan_sum, sums d**s * mu(n/d) over the
divisors d of gcd(n, m) with d**s dividing m; ramanujan_sum is its s = 1
case (E. Cohen, "An extension of Ramanujan's sum", Duke Math. J. 1949).
The defining exponential sum (cosines over residues coprime to n) is kept
as a slow independent oracle.

The oracle keeps one piece of state, _last = (n, units, row), for the
last modulus it saw; what it holds does not depend on m.  A call on a new
modulus strikes the multiples of each prime of n (sieve._trial_factors,
off the table) from [0, n) to get the units q of Z/nZ in ascending order,
takes cos((q * m mod n) * 2*pi/n) over those phi(n) angles alone, adds
them with fsum and stores (n, units, None).  A call on the same modulus
as the call just before it builds that modulus's row once from the units
it holds: the rounded sum for every residue j in [0, n), from one FFT of
the 0/1 unit indicator, which is the same exponential sum taken as a
DFT.  It stores (n, units, row), and it and every later call on n read
row[m mod n].  So a walk over m for one n (csum --check-oracle, the
acceptance sweep, the benchmark's pairs) pays one O(n log n) transform
per modulus, while a walk that takes a new modulus each call (one m over
many n) builds no row: an FFT of prime length n runs through Bluestein's
algorithm and costs about twice the direct sum, and each new length pays
for its plan.  Units and row are read-only and together hold at most 16
bytes per residue, about 16 MB at DIRECT_EVAL_CAP.  A racing thread can
only re-sum or rebuild, which gives the same integer, and the one tuple
swap keeps n, units and row consistent.
"""

from __future__ import annotations

from math import fsum, gcd, pi

import numpy as np

from .sieve import SpfTable, _divisors, _trial_factors, factorize, moebius

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
    cancel exactly) and rounds to the nearest integer.  A call on a new
    n sums directly; a call on the n of the call just before it reads the
    row of every residue's sum, built once by FFT.  Usable for
    n <= DIRECT_EVAL_CAP; a rounding residue above 1e-6 * max(1, phi(n)),
    at m or, when the row is built, at any residue, means double
    precision can no longer be trusted and raises.
    """
    global _last
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > DIRECT_EVAL_CAP:
        raise ValueError(f"n={n} exceeds direct-evaluation cap {DIRECT_EVAL_CAP}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n == 1:
        return 1  # single q=1 term, e^0
    last_n, units, row = _last
    if n != last_n:
        units = _units(n)
        _last = (n, units, None)
        # q * (m mod n) < n**2 fits int64 for any m, and its residue mod n
        # keeps the cosine's argument below 2*pi
        total = fsum(np.cos((units * (m % n) % n) * (2.0 * pi / n)).tolist())
        nearest = round(total)
        _check_residue(abs(total - nearest), n, units.size, m)
        return int(nearest)
    if row is None:
        unit = np.zeros(n)
        unit[units] = 1.0
        # term j of the DFT of the unit indicator is the sum of
        # exp(-2*pi*i*q*j/n) over the units q: its real part is c_n(j)
        sums = np.fft.fft(unit).real
        row = np.rint(sums)
        residue = np.abs(sums - row)
        j = int(residue.argmax())
        _check_residue(residue[j], n, units.size, f"{j} (mod n)")
        row = row.astype(np.int64)
        row.flags.writeable = False
        _last = (n, units, row)
    return int(row[m % n])


#: (n, units, row) of the last modulus: the units of n, ascending int64,
#: and c_n(j) for every j in [0, n) once a second call on n builds it (None
#: until then), both read-only.  Swapped as one tuple, so a racing thread
#: sees n, units and row of one modulus.
_last: tuple[int, np.ndarray | None, np.ndarray | None] = (0, None, None)


def _units(n: int) -> np.ndarray:
    """The j in [0, n) coprime to a modulus n >= 2, ascending read-only
    int64 (the q in [1, n] coprime to n, since neither 0 nor n is): what
    is left after striking the multiples of each prime dividing n."""
    coprime = np.ones(n, dtype=bool)
    for p, _ in _trial_factors(n):
        coprime[::p] = False
    units = np.flatnonzero(coprime).astype(np.int64, copy=False)
    units.flags.writeable = False
    return units


def _check_residue(residue: float, n: int, phi: int, m: int | str) -> None:
    """ArithmeticError naming n and m (for a row, the worst residue j mod n)
    when a rounding residue is above the tolerance, 1e-6 * max(1, phi(n))."""
    if residue > _RESIDUE_TOL * max(1, phi):
        raise ArithmeticError(
            f"direct Ramanujan sum unreliable at n={n}, m={m}: "
            f"rounding residue {residue:.3e}"
        )


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
