"""Partial sums and densities over smallest/largest-prime-factor classes.

Every series here is conditionally convergent (or a counting ratio), so the
summation order is part of its definition: terms are always accumulated in
ascending n.  Evaluation is chunked; each chunk's float terms are summed
exactly and rounded once, which is the value math.fsum gives, and chunk
results are combined in ascending index order.  The exact sum walks a
chunk in pieces of _PIECE indices and splits each piece's terms into limbs
on power-of-two grids by float operations (Rump, Ogita & Oishi, "Accurate
floating-point summation, part I", 2008); the limbs of any cut sum exactly,
so it builds no Python objects per term, releases the GIL and gives the
same value for any piece width.

One cell schedule serves every run: a checkpoint x reads [start, x] cut on
the fixed CHUNK grid, whole grid cells and then one last cell ending at x.
The checkpoint driver maps each distinct cell once over the sieve's threads
and hands back each checkpoint's unit results in cell order.  A row is thus
a function of its checkpoint alone, never of the other checkpoints or the
thread count, so rows are bit-identical for any schedule and parallelism.

The kinds live in one registry, SERIES_KINDS: each maps to its required
parameters, its target and a unit factory.  run_series drives the kind's
unit and applies its combine step to each checkpoint's results.  A spec's
target is a read-only property that asks its kind; every class target
reads the density of the spec's prime weight.  Each weight kind is one
frozen subclass of PrimeWeight that states its support, values, density
and exact scale once.  Every kind but lpf-density sums one integer
column: c * mu(n/d) summed over (stride d, coefficient c) pairs with
d | n, in the narrowest integer dtype that holds it; the Ramanujan kinds
pass (d, -d) over d | m, mu-mn (1, -mu(m)), the restricted kinds (1, 1).
One unit builder zeroes the column off the kind's support, reads f with
one call and reduces it, so the paper's sum -sum c_n(m) f(p(n))/n and
its special cases (Alladi's and Dawsey's m = 1 series) share a single
code path.  The float reducer selects, converts, weights and divides the
kept terms of one piece at a time, as lpf-density reads a table weight,
so neither builds a chunk-sized selection or float array.

The finite-x rearrangement identity (difference_term) builds its two sides
with the same unit builder, from the pairs (d, d) over d | m, d > 1, and
one (1, 1) column per such d read at p(d*n), and runs them through the
same driver.  Its float and exact modes differ only in the reducer and
the combine step: both reducers read one term selection.  The exact one
writes the sum of its terms a/n, every n <= x, as prime-power partial
fractions z + sum_p r_p / p^e_p, with p^e_p the largest power of p among
the denominators: it factors n through the table, takes each residue with
a vectorized modular inverse and keeps every product inside int64 or
uint64.  Each unit returns one such sum, times the power of two that
makes every f value an integer.  Units merge residue by residue, and each
side becomes one Fraction at the end, from a product tree over the
pairwise coprime prime powers, in lowest terms without a big-int gcd.  m
is factored by trial division by the primes below 2**16, never through
the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from math import frexp, fsum, gcd, isfinite, isqrt, ldexp
from typing import Callable

import numpy as np

from .sieve import MAX_LIMIT, SpfTable, _base_primes, _divisors, _thread_map

#: Terms per summation chunk.  Fixed so that chunk boundaries (and hence
#: the exact floating-point result) never depend on thread scheduling.
CHUNK = 1 << 20

#: Indices per piece of a float sum, which selects and sums each piece in
#: turn through three float64 buffers of this length.  warm-sweep-1e7
#: solve_s medians (5 seeds, 2 CPUs): 2.07 s at 2^16, 1.54 s at 2^17 and
#: 1.52 s at 2^18, whose larger buffers raised peak RSS 189 -> 200 MB.
_PIECE = CHUNK // 8

#: Largest |f(p)| of a table weight.  A term is at most sigma(m) < 2**35
#: times |f(p)|, and a series sums at most 2**32 terms, so no term, chunk
#: sum or row can overflow.
MAX_TABLE_WEIGHT = 1e100

#: The primes below 2**16: every composite below 2**32 has one as a factor.
_SMALL_PRIMES = np.array(_base_primes(2**16 - 1), dtype=np.int64)


class PrimeWeight:
    """A bounded weight f on primes, read at p(n) or P(n).

    Each kind is one frozen subclass that holds and validates only its own
    fields.  at(primes) gives (support, f) over an array of primes (an spf
    or lpf slice): support is the mask f != 0, None when f is 1
    everywhere, and f the float64 values, None for the 0/1 weights.
    density is f's density over the primes or None, scale the power of
    two that makes every f value an integer, and describe() the one-token
    description in report metadata that cli.parse_weight reads back.
    """

    @staticmethod
    def constant_one() -> "OneWeight":
        return OneWeight()

    @staticmethod
    def residue_class(k: int, l: int) -> "ResidueWeight":
        return ResidueWeight(k, l)

    @staticmethod
    def from_table(values: dict[int, float]) -> "TableWeight":
        return TableWeight(tuple(sorted(values.items())))


@dataclass(frozen=True)
class OneWeight(PrimeWeight):
    """f(p) = 1 everywhere."""

    density = 1.0
    scale = 1

    def at(self, primes: np.ndarray) -> tuple[None, None]:
        return None, None

    def describe(self) -> str:
        return "one"


@dataclass(frozen=True)
class ResidueWeight(PrimeWeight):
    """f(p) = 1 if p = l (mod k) else 0, with gcd(l, k) = 1 and k in
    [1, MAX_LIMIT]: the primes are uint32, so the mask works modulo k."""

    k: int
    l: int
    scale = 1

    def __post_init__(self):
        if not 1 <= self.k <= MAX_LIMIT:
            raise ValueError(f"modulus k must be in [1, {MAX_LIMIT}], got {self.k}")
        if gcd(self.l, self.k) != 1:
            raise ValueError(f"residue l={self.l} is not coprime to k={self.k}")

    @property
    def density(self) -> float:
        return 1.0 / _totient(self.k)

    def at(self, primes: np.ndarray) -> tuple[np.ndarray, None]:
        """The class test reads p - (p // k) * k: numpy divides a uint32
        array by one uint32 scalar about twice as fast as it takes p % k."""
        k = np.uint32(self.k)
        r = primes // k
        r *= k  # at most p, so p - r never wraps
        return np.subtract(primes, r, out=r) == np.uint32(self.l % self.k), None

    def describe(self) -> str:
        return f"residue:{self.k},{self.l}"


@dataclass(frozen=True)
class TableWeight(PrimeWeight):
    """f(p) = v for each (p, v) in table, 0 off it: each key is a distinct
    prime in [2, MAX_LIMIT] and each |v| <= MAX_TABLE_WEIGHT."""

    table: tuple[tuple[int, float], ...]
    density = None

    def __post_init__(self):
        keys = [p for p, _ in self.table]
        if len(set(keys)) != len(keys):
            raise ValueError(f"weight table repeats a prime: {keys}")
        for p, v in self.table:
            if not (2 <= p <= MAX_LIMIT and _trial_factors(p) == [(p, 1)]):
                raise ValueError(f"weight key {p} is not a prime in [2, {MAX_LIMIT}]")
            if not abs(v) <= MAX_TABLE_WEIGHT:  # also false for nan
                raise ValueError(
                    f"weight value f({p}) = {v!r} must be finite with |f| <= {MAX_TABLE_WEIGHT:g}"
                )

    @property
    def scale(self) -> int:
        return max((Fraction(v).denominator for _, v in self.table), default=1)

    def at(self, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One binary search per entry over the sorted keys and a key 0 of
        value 0.0, which every entry off the table also reads."""
        keys, vals = zip((0, 0.0), *sorted(self.table))
        keys = np.array(keys, dtype=np.uint32)
        i = np.searchsorted(keys, primes)
        np.minimum(i, keys.size - 1, out=i)
        i[keys[i] != primes] = 0
        f = np.array(vals)[i]
        return f != 0.0, f

    def describe(self) -> str:
        return "table:" + ",".join(f"{p}={v!r}" for p, v in self.table)


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of one partial-sum experiment.

    The kind's SERIES_KINDS entry names which of m, k, l, y and weight it
    requires; it takes no others.  The target is read-only: the kind
    computes it from the spec.
    """

    kind: str
    m: int | None = None
    k: int | None = None
    l: int | None = None
    y: int | None = None
    weight: PrimeWeight | None = None
    checkpoints: tuple[int, ...] = ()

    def __post_init__(self):
        kind = SERIES_KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown series kind {self.kind!r}")
        for name in ("m", "k", "l", "y", "weight"):
            given = getattr(self, name) is not None
            if given and name not in kind.params:
                raise ValueError(f"{self.kind} does not take {name}")
            if not given and name in kind.params:
                raise ValueError(f"{self.kind} requires {name}")
        self.prime_weight  # builds the (k, l) class, which validates it
        if self.m is not None and not 1 <= self.m <= MAX_LIMIT:
            raise ValueError(f"m must be in [1, {MAX_LIMIT}], got {self.m}")
        if self.y is not None and self.y < 1:
            raise ValueError(f"threshold y must be >= 1, got {self.y}")
        cps = self.checkpoints
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError(f"checkpoints must be strictly ascending: {cps}")
        if cps and cps[0] < 1:
            raise ValueError(f"checkpoints must be >= 1: {cps}")

    @cached_property
    def prime_weight(self) -> PrimeWeight:
        """f read at the prime factor: the (k, l) class indicator, else
        the explicit weight, else 1; cached, as a weight validates."""
        if self.k is not None:
            return ResidueWeight(self.k, self.l)
        return self.weight or OneWeight()

    @cached_property
    def target(self) -> float | None:
        """The kind's limit for this spec, or None; cached, as it factors k and m."""
        return SERIES_KINDS[self.kind].target(self)

    def describe(self) -> str:
        parts = [f"kind={self.kind}"]
        for name in ("m", "k", "l", "y"):
            val = getattr(self, name)
            if val is not None:
                parts.append(f"{name}={val}")
        if self.weight is not None:
            parts.append(f"weight={self.weight.describe()}")
        if self.target is not None:
            parts.append(f"target={self.target!r}")
        parts.append("checkpoints=" + ",".join(str(c) for c in self.checkpoints))
        return " ".join(parts)


@dataclass(frozen=True)
class SeriesRow:
    """One checkpoint: x, accumulated value, |value - target| if targeted.

    ``count`` carries the unnormalized integer count for density series
    with indicator weights; None elsewhere.
    """

    x: int
    value: float
    error: float | None = None
    count: int | None = None


@dataclass(frozen=True)
class PartialSumSeries:
    spec: SeriesSpec
    rows: tuple[SeriesRow, ...]


# ---------------------------------------------------------------------------
# evaluation engine: one reducer, one column builder, one checkpoint driver
# ---------------------------------------------------------------------------


def _cells(start: int, top: int) -> list[tuple[int, int]]:
    """[start, top) cut on the fixed CHUNK grid: whole grid cells, then a
    last cell ending at top (empty when top <= start).

    Every cell but the last is a grid cell, so the cells of one checkpoint
    are a function of that checkpoint alone and shared by any schedule.
    """
    if top <= start:
        return []
    bounds = [start, *range((start // CHUNK + 1) * CHUNK, top, CHUNK), top]
    return list(zip(bounds, bounds[1:]))


def _drive(unit, checkpoints: tuple[int, ...], start: int = 2) -> list[list]:
    """The unit results of each checkpoint x, in ascending cell order.

    unit(lo, hi) reduces the half-open range [lo, hi); x reads the cells of
    [start, x + 1).  Each distinct cell is mapped once over the sieve's
    threads, however many checkpoints share it.
    """
    plans = [_cells(start, x + 1) for x in checkpoints]
    cells = sorted({cell for plan in plans for cell in plan})
    results = dict(zip(cells, _thread_map(unit, cells)))
    return [[results[cell] for cell in plan] for plan in plans]


def _select(col: np.ndarray, primes: np.ndarray, weight: PrimeWeight):
    """The kept terms of a column: (indices, numerators, f values).

    col is an integer column in its stored dtype, zero off the kind's
    support and already carrying the kind's coefficients.  An index is
    kept where col != 0 and f(primes) != 0; the f values are None for the
    0/1 weights, whose kept terms all have f = 1.
    """
    support, fv = weight.at(primes)
    keep = col != 0
    if support is not None:
        keep &= support
    sel = np.flatnonzero(keep)
    return sel, col[sel], None if fv is None else fv[sel]


def _block_sum(n: int, block: Callable[[int, int, np.ndarray], np.ndarray]) -> float:
    """The exact sum of the float64 terms block(a, b, out) over the pieces
    [a, b) of [0, n), rounded once, as math.fsum of all the terms gives it.

    block returns its piece's terms, at most b - a and possibly none, in
    the scratch array out or elsewhere; pieces span _PIECE indices and
    share three buffers allocated once per call.  Every term must be
    finite with |term| < 2**(1023 - k), k as in _block_limbs.  fsum of
    every piece's limbs, each an exact float, is the correctly rounded
    value of the whole sum.
    """
    out, q, r = np.empty((3, min(n, _PIECE)))
    limbs = []
    for a in range(0, n, _PIECE):
        p = block(a, min(n, a + _PIECE), out[: n - a])
        _block_limbs(p, q[: p.size], r[: p.size], limbs)
    return fsum(limbs)


def _block_limbs(p: np.ndarray, q: np.ndarray, r: np.ndarray, limbs: list[float]) -> None:
    """Append to limbs floats whose exact sum is the exact sum of p.

    Each pass adds and subtracts sigma = 2**(e + k), where max|p| < 2**e
    and 2**k > p.size + 1 (ExtractVector of Rump, Ogita & Oishi, 2008).
    That rounds p to multiples q of 2**(e + k - 53) with |q| <= 2**e, so
    every partial sum of q is such a multiple below 2**(e + k) and np.sum(q)
    is exact in any order.  The remainder p - q is exact and lowers e by at
    least 52 - k.  p must be finite with max|p| < 2**(1023 - k).  q and r
    are scratch arrays of p's size; the remainders go to r, so p is left
    alone.
    """
    k = (p.size + 1).bit_length()
    while p.size:  # an empty piece appends no limb
        top = max(p.max(), -p.min())
        if top == 0:
            return
        if not isfinite(top):
            raise ValueError(f"cannot sum a non-finite term ({top})")
        sigma = ldexp(1.0, frexp(top)[1] + k)
        np.add(p, sigma, out=q)
        q -= sigma
        limbs.append(float(q.sum()))
        p = np.subtract(p, q, out=r)


def _reduce(col: np.ndarray, primes: np.ndarray, weight: PrimeWeight, lo: int) -> float:
    """fsum of col[i] * f(primes[i]) / (lo + i) over the kept terms.

    Each piece of the index range selects its kept terms and converts,
    weights and divides them straight into the exact sum's buffer.  A
    sign carried in the integer column rounds as negating each term does.
    """

    def terms(a: int, b: int, out: np.ndarray) -> np.ndarray:
        sel, num, fv = _select(col[a:b], primes[a:b], weight)
        out = out[: sel.size]
        np.copyto(out, num)
        if fv is not None:
            out *= fv
        sel += lo + a  # the kept n
        out /= sel
        return out

    return _block_sum(col.size, terms)


# --- the exact reducer: sums as prime-power partial fractions ---------------
#
# A partial-fraction sum (z, p, q, r) stands for z + sum r[i] / q[i]: z is a
# Python int, q[i] is a power of the prime p[i] below 2**32 and
# 0 <= r[i] < q[i], all int64.  Once _add has merged it, p is ascending
# with no repeats.  The reducer sums a unit's terms in this form, scaled
# to integer weights, and the combine step merges units by their primes, so
# the one Fraction of a side is built once, by _exact_value, with no big-int
# gcd.

_EMPTY = np.zeros(0, dtype=np.int64)

#: Kept terms per piece of the exact reducer, which selects a whole chunk
#: once; each term spreads over a dozen int64 or float64 work arrays.  Over
#: the twelve 1e5-term identity calls of the exact-oracle benchmark (2 CPUs),
#: 2^12-term pieces peaked at 36.6 MB RSS and 2^15-term pieces at 48.9 MB,
#: in the same time within noise.
_EXACT_PIECE = 1 << 12


def _inverse(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """u**-1 mod q for int64 arrays with gcd(u, q) = 1 and 0 < u < q < 2**32.

    Extended Euclid in float64, on every lane until each has ended.
    Remainders, quotients, their products with a remainder or a Bezout
    coefficient, and the coefficients themselves are integers of
    magnitude at most q, so float64 holds each exactly.  The quotient
    floor(r0 / r1) is exact too: when r0 / r1 is not an integer it lies
    at least 1 / r1 from one, and rounding moves it by less than
    2**-21 / r1.  A lane ends when its remainder r1 reaches 0; its next
    step divides by that 0, so from then on it holds inf or nan and is
    never read again.
    """
    r0, r1 = q.astype(np.float64), u.astype(np.float64)
    s0, s1 = np.zeros(q.size), np.ones(q.size)
    out, t, ended = np.empty(q.size), np.empty(q.size), np.empty(q.size, dtype=bool)
    left = q.size
    with np.errstate(divide="ignore", invalid="ignore"):
        while left:
            np.floor(np.divide(r0, r1, out=t), out=t)
            r0 -= t * r1
            s0 -= t * s1
            r0, r1, s0, s1 = r1, r0, s1, s0
            np.equal(r1, 0, out=ended)  # r0 is the gcd 1, and s0 * u = 1 (mod q)
            np.copyto(out, s0, where=ended)
            left -= np.count_nonzero(ended)
    return out.astype(np.int64) % q


def _piece_fractions(spf: np.ndarray, a: np.ndarray, n: np.ndarray):
    """(z, p, q, r) with sum a/n = z + sum r/q, one triple per p**k || n.

    Each n >= 1 is factored through spf.  For n = q * u with q = p**k and
    p not dividing u, r = a * u**-1 mod q; then a/n - sum r/q over the
    prime powers of n is the integer (a - sum r * u) / n, and r * u < n.
    The product a * u**-1 is taken in uint64, which holds it for q < 2**32.
    """
    a = a.astype(np.int64)
    at = np.flatnonzero(n > 1)  # spf[1] is not a prime
    rem, idx, ps, qs = n[at], [_EMPTY], [_EMPTY], [_EMPTY]
    while at.size:
        p = spf[rem].astype(np.int64)
        q = p.copy()
        rem //= p
        more = np.flatnonzero(rem % p == 0)
        while more.size:
            q[more] *= p[more]
            rem[more] //= p[more]
            more = more[rem[more] % p[more] == 0]
        idx.append(at)
        ps.append(p)
        qs.append(q)
        go = rem > 1
        at, rem = at[go], rem[go]
    at, p, q = np.concatenate(idx), np.concatenate(ps), np.concatenate(qs)
    u = n[at] // q
    u64 = np.uint64
    r = (a[at] % q).astype(u64) * _inverse(u % q, q).astype(u64) % q.astype(u64)
    r = r.astype(np.int64)
    s = np.zeros_like(a)
    np.add.at(s, at, r * u)
    return int(((a - s) // n).sum()), p, q, r


def _add(sums: list) -> tuple:
    """The merged partial-fraction sum of the partial-fraction sums in sums.

    The triples of one prime are lifted to its largest modulus Q, as
    r * (Q / q) < Q, and summed; the sum's quotient by Q moves into z and
    its remainder is the residue.  A prime has fewer than 2**31 triples,
    so no sum leaves int64.
    """
    z = sum(s[0] for s in sums)
    p, q, r = (np.concatenate([_EMPTY, *(s[i] for s in sums)]) for i in (1, 2, 3))
    o = np.argsort(p)
    p, q, r = p[o], q[o], r[o]
    head = np.flatnonzero(np.diff(p, prepend=0))
    top = np.maximum.reduceat(q, head)
    total = np.add.reduceat(r * (np.repeat(top, np.diff(head, append=p.size)) // q), head)
    return z + int((total // top).sum()), p[head], top, total % top


def _times(c: int, sums: tuple) -> tuple:
    """c * sums for a Python int c of any size, by Horner's rule on the
    31-bit digits of |c|: every step scales residues below 2**32 by at
    most 2**31, so no product leaves int64, and moves the quotients into z."""

    def scaled(d: int, z, p, q, r):
        dr = r * d
        return d * z + int((dr // q).sum()), p, q, dr % q

    sign, mag = (1, c) if c >= 0 else (-1, -c)
    digits = [mag >> s & (1 << 31) - 1 for s in range(0, mag.bit_length(), 31)] or [0]
    acc = scaled(sign * digits[-1], *sums)
    for d in reversed(digits[:-1]):
        acc = _add([scaled(1 << 31, *acc), scaled(sign * d, *sums)])
    return acc


def _partial_fractions(spf: np.ndarray, a: np.ndarray, n: np.ndarray) -> tuple:
    """The merged partial-fraction sum of a/n over integer arrays a and n,
    n >= 1 in the table, folded in one _EXACT_PIECE piece at a time so
    that the temporaries stay bounded."""
    acc = _add([])
    for i in range(0, n.size, _EXACT_PIECE):
        acc = _add([acc, _piece_fractions(spf, a[i : i + _EXACT_PIECE], n[i : i + _EXACT_PIECE])])
    return acc


def _reduce_exact(spf: np.ndarray, scale: int, col: np.ndarray, primes: np.ndarray,
                  weight: PrimeWeight, lo: int) -> tuple:
    """scale times the exact value of the sum _reduce rounds, from the same
    selection, as one partial-fraction sum with n factored through spf.

    scale is a power of two that makes every f value an integer.  Terms
    are grouped by their f value (the 0/1 weights form one group with
    f = 1, and take scale 1); each group's partial-fraction sum is
    multiplied by the integer scale * f and the groups are merged.
    """
    sel, a, fv = _select(col, primes, weight)
    n = sel + lo
    if fv is None:
        return _partial_fractions(spf, a, n)
    groups = []
    for v in np.unique(fv):
        f = Fraction(v)
        groups.append(_times(f.numerator * (scale // f.denominator),
                             _partial_fractions(spf, a[fv == v], n[fv == v])))
    return _add(groups)


def _coprime_sum(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """(N, D) with N/D the sum of the fractions n/d given as (n, d) pairs
    whose d are pairwise coprime, so that D is the product of every d.

    Pairs are merged by recursive halving, which keeps the big-int
    products balanced; no gcd is taken.
    """
    if not pairs:
        return 0, 1
    while len(pairs) > 1:
        merged = [(n1 * d2 + n2 * d1, d1 * d2)
                  for (n1, d1), (n2, d2) in zip(pairs[::2], pairs[1::2])]
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    return pairs[0]


def _lowest_terms(num: int, den: int) -> Fraction:
    """The Fraction num/den for coprime num and den > 0, built without the
    gcd that Fraction(num, den) takes, which is quadratic in the digits."""
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 and later
        return Fraction._from_coprime_ints(num, den)
    return Fraction(num, den, _normalize=False)


def _exact_value(sums: tuple, scale: int) -> Fraction:
    """(z + sum r/q) / scale for a merged partial-fraction sum and a power
    of two scale, as one Fraction in lowest terms.

    Stripping the factors of p from each r leaves every r/q in lowest
    terms with pairwise coprime q, so with N/D = sum r/q from a product
    tree, (N + z D) / D is in lowest terms too, and dividing it by scale
    cancels only powers of two.  No big-int gcd or division is taken.
    """
    z, p, q, r = sums
    keep = r != 0
    p, q, r = p[keep], q[keep], r[keep]
    hit = np.flatnonzero(r % p == 0)
    while hit.size:
        r[hit] //= p[hit]
        q[hit] //= p[hit]
        hit = hit[r[hit] % p[hit] == 0]
    num, den = _coprime_sum(list(zip(r.tolist(), q.tolist())))
    num += z * den
    s = scale.bit_length() - 1
    cut = min(s, (num & -num).bit_length() - 1) if num else s
    return _lowest_terms(num >> cut, den << (s - cut))


def _column(mu: np.ndarray, terms, lo: int, hi: int) -> np.ndarray:
    """The sum of c * mu(n / d) over the (d, c) in terms with d | n, for n in [lo, hi).

    Each pair adds one contiguous mu slice at stride d (n = d*j walks
    j0..j1) times c: (d, -d) over the divisors d of m gives -c_n(m), and
    (1, 1) gives mu(n).  The column has the narrowest signed dtype that
    holds +-sum |c|, a bound on every entry, so no entry overflows (int8
    for sum |c| <= 127).
    """
    dtype = np.min_scalar_type(-sum(abs(c) for _, c in terms) - 1)
    if terms and terms[0][0] == 1:  # one array per chunk, not a zeroed one + a temporary
        col, terms = np.multiply(mu[lo:hi], terms[0][1], dtype=dtype), terms[1:]
    else:
        col = np.zeros(hi - lo, dtype=dtype)
    for d, c in terms:
        j0 = (lo + d - 1) // d
        j1 = (hi - 1) // d
        if j1 >= j0:
            col[j0 * d - lo : j1 * d - lo + 1 : d] += np.multiply(mu[j0 : j1 + 1], c, dtype=dtype)
    return col


def _mu_units(t: SpfTable, weight: PrimeWeight, terms, support=None, head=(),
              reduce=None, stride: int = 1):
    """(unit, combine) of a sum over the column _column(mu, terms, lo, hi).

    unit(lo, hi) builds the column, lets support(col, lo, hi) zero its
    entries off the kind's support in place, and reduces it, _reduce when
    reduce is None, with f read at p(stride * n).  combine(x, results)
    is the fsum of the head terms and the unit results.
    """
    spf, mu, reduce = t.spf, t.mu_table(), reduce or _reduce

    def unit(lo: int, hi: int):
        col = _column(mu, terms, lo, hi)
        if support is not None:
            support(col, lo, hi)
        return reduce(col, spf[stride * lo : stride * (hi - 1) + 1 : stride], weight, lo)

    return unit, lambda x, sums: (fsum([*head, *sums]), None)


# --- unit factories: (table, spec) -> (unit for the driver, combine step) ---


def _weighted_units(t: SpfTable, spec: SeriesSpec):
    """-sum c_n(m) f(p(n)) / n; m defaults to 1, f to the spec's weight."""
    divs = _divisors(_trial_factors(spec.m or 1))
    return _mu_units(t, spec.prime_weight, [(d, -d) for d in divs])


def _mu_mn_units(t: SpfTable, spec: SeriesSpec):
    """-sum mu(m n) / n with f(p(n)) the (k, l) class indicator.

    mu(m*n) never factors m*n directly: it is mu(m)*mu(n) when
    gcd(m, n) = 1 and 0 otherwise (a shared prime makes m*n non-squarefree).
    m is factored by trial division, so it need not lie in the table.
    """
    m_primes = [p for p, _ in _trial_factors(spec.m)]

    def coprime_to_m(col: np.ndarray, lo: int, hi: int) -> None:
        for p in m_primes:
            col[(-lo) % p :: p] = 0  # the multiples of p in [lo, hi)

    return _mu_units(t, spec.prime_weight, [(1, -_mu_trial(spec.m))], coprime_to_m)


def _above(t: SpfTable, y: int):
    """Support p(n) > y, zeroing the column in place elsewhere; spf <= limit,
    so the bar min(y, limit) is the same test and keeps any y in uint32."""
    bar = np.uint32(min(y, t.limit))
    return lambda col, lo, hi: np.multiply(col, t.spf[lo:hi] > bar, out=col)


def _mertens_units(t: SpfTable, spec: SeriesSpec):
    # 1 is the n = 1 sentinel term; |M(x, y)| < 2**53, so fsum adds the ints exactly
    return _mu_units(t, spec.prime_weight, [(1, 1)], _above(t, spec.y), head=(1,),
                     reduce=lambda col, primes, weight, lo: int(col.sum(dtype=np.int64)))


def _mu_over_n_units(t: SpfTable, spec: SeriesSpec):
    # 1.0 is the n = 1 sentinel term
    return _mu_units(t, spec.prime_weight, [(1, 1)], _above(t, spec.y), head=(1.0,))


def _lpf_units(t: SpfTable, spec: SeriesSpec):
    """(1/x) sum f(P(n)); indicator weights also keep the integer count."""
    lpf, weight = t.lpf_table(), spec.weight
    indicator = weight.at(lpf[:0])[1] is None  # the 0/1 weights give no f values

    def unit(lo: int, hi: int):
        view = lpf[lo:hi]
        if not indicator:  # sum each piece's supported f values, fv[support]
            return _block_sum(view.size, lambda a, b, _: np.compress(*weight.at(view[a:b]))), None
        support = weight.at(view)[0]
        cnt = view.size if support is None else int(np.count_nonzero(support))
        return float(cnt), cnt

    def combine(x: int, parts):
        value = fsum(s for s, _ in parts) / x
        return value, (sum(c for _, c in parts) if indicator else None)

    return unit, combine


def _trial_factors(k: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of k in [1, MAX_LIMIT], ascending, so that
    no target needs the table.  What is left once the primes up to
    sqrt(k) < 2**16 that divide k are divided out is 1 or a prime."""
    out = []
    base = _SMALL_PRIMES[: np.searchsorted(_SMALL_PRIMES, isqrt(k), side="right")]
    for p in base[k % base == 0].tolist():
        e = 0
        while k % p == 0:
            k //= p
            e += 1
        out.append((p, e))
    if k > 1:
        out.append((k, 1))
    return out


def _totient(k: int) -> int:
    phi = k
    for p, _ in _trial_factors(k):
        phi -= phi // p
    return phi


def _mu_trial(m: int) -> int:
    """mu(m) from its trial-division factors."""
    factors = _trial_factors(m)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def _density(spec: SeriesSpec) -> float | None:
    return spec.prime_weight.density


@dataclass(frozen=True)
class SeriesKind:
    """One entry of the kind registry.

    params: the SeriesSpec fields among m, k, l, y, weight that the kind
        requires; it takes no others.
    target: spec -> the value the series tends to, or None; it reads no
        table, so a missing target is known before any table is built.
    units: (table, spec) -> (unit, combine): the driver maps unit over the
        cells, and combine(x, unit results) gives the row (value, count).
    """

    params: tuple[str, ...]
    target: Callable[[SeriesSpec], float | None]
    units: Callable


#: The series kinds.  p(n) is the smallest and P(n) the largest prime
#: factor; the restricted kinds include n = 1 through p(1) = infinity.
SERIES_KINDS: dict[str, SeriesKind] = {
    # -sum mu(n)/n over 2 <= n <= x -> 1
    "mu-baseline": SeriesKind((), _density, _weighted_units),
    # the same restricted to p(n) = l (mod k) -> 1/phi(k)
    "alladi": SeriesKind(("k", "l"), _density, _weighted_units),
    # -sum c_n(m)/n over p(n) = l (mod k) -> 1/phi(k)
    "ramanujan-alladi": SeriesKind(("m", "k", "l"), _density, _weighted_units),
    # -sum mu(m*n)/n over p(n) = l (mod k) -> mu(m)/phi(k); mu(m) is -1, 0
    # or 1, so the product is bit-identical to the quotient
    "mu-mn": SeriesKind(("m", "k", "l"), lambda s: _mu_trial(s.m) * _density(s), _mu_mn_units),
    # sum mu(n) over 1 <= n <= x with p(n) > y (integer values)
    "mertens-restricted": SeriesKind(("y",), lambda s: None, _mertens_units),
    # sum mu(n)/n over 1 <= n <= x with p(n) > y -> 0
    "mu-over-n-restricted": SeriesKind(("y",), lambda s: 0.0, _mu_over_n_units),
    # -sum c_n(m) f(p(n))/n (no target)
    "weighted-lhs": SeriesKind(("m", "weight"), lambda s: None, _weighted_units),
    # (1/x) sum f(P(n)) over 2 <= n <= x -> the density of f (none for a table)
    "lpf-density": SeriesKind(("weight",), _density, _lpf_units),
}


def run_series(t: SpfTable, spec: SeriesSpec) -> PartialSumSeries:
    """Evaluate a SeriesSpec at its checkpoints; each row's error is its
    distance from spec.target."""
    cps = spec.checkpoints
    if not cps:
        raise ValueError("at least one checkpoint is required")
    if cps[-1] > t.limit:
        raise ValueError(f"checkpoint {cps[-1]} exceeds sieve limit {t.limit}")
    unit, combine = SERIES_KINDS[spec.kind].units(t, spec)
    target = spec.target
    rows = []
    for x, parts in zip(cps, _drive(unit, cps)):
        value, count = combine(x, parts)
        error = None if target is None else abs(value - target)
        rows.append(SeriesRow(x, value, error, count))
    return PartialSumSeries(spec=spec, rows=tuple(rows))


# ---------------------------------------------------------------------------
# public series functions
# ---------------------------------------------------------------------------


def mu_baseline(t: SpfTable, checkpoints) -> PartialSumSeries:
    """-sum mu(n)/n for 2 <= n <= x at each checkpoint; target 1."""
    return run_series(t, SeriesSpec(kind="mu-baseline", checkpoints=tuple(checkpoints)))


def alladi_partial_sum(t: SpfTable, k: int, l: int, checkpoints) -> PartialSumSeries:
    """-sum mu(n)/n over n <= x with p(n) = l (mod k); target 1/phi(k)."""
    spec = SeriesSpec(kind="alladi", k=k, l=l, checkpoints=tuple(checkpoints))
    return run_series(t, spec)


def ramanujan_alladi_partial_sum(
    t: SpfTable, m: int, k: int, l: int, checkpoints
) -> PartialSumSeries:
    """-sum c_n(m)/n over n <= x with p(n) = l (mod k); target 1/phi(k).

    With m = 1 this is row-for-row bit-identical to alladi_partial_sum:
    both run the same weighted units and c_n(1) is assembled from the
    exact same mu table entries.
    """
    spec = SeriesSpec(kind="ramanujan-alladi", m=m, k=k, l=l, checkpoints=tuple(checkpoints))
    return run_series(t, spec)


def weighted_lhs(t: SpfTable, m: int, weight: PrimeWeight, checkpoints) -> PartialSumSeries:
    """-sum c_n(m) f(p(n)) / n for a bounded prime weight f; no target.

    For a general f the limit is the density of the dual largest-prime-
    factor count, which lpf_density measures.
    """
    spec = SeriesSpec(kind="weighted-lhs", m=m, weight=weight, checkpoints=tuple(checkpoints))
    return run_series(t, spec)


def mu_mn_partial_sum(t: SpfTable, m: int, k: int, l: int, checkpoints) -> PartialSumSeries:
    """-sum mu(m*n)/n over n <= x with p(n) = l (mod k); target mu(m)/phi(k).

    m is any integer in [1, 2**32 - 1]; neither m nor m*x needs to lie in
    the table.
    """
    spec = SeriesSpec(kind="mu-mn", m=m, k=k, l=l, checkpoints=tuple(checkpoints))
    return run_series(t, spec)


def mertens_restricted(t: SpfTable, y: int, checkpoints) -> PartialSumSeries:
    """M(x, y) = sum mu(n) over 1 <= n <= x with p(n) > y (integer values).

    n = 1 always qualifies via the sentinel p(1) = infinity, so
    M(x, y) = 1 exactly whenever y >= x.
    """
    spec = SeriesSpec(kind="mertens-restricted", y=y, checkpoints=tuple(checkpoints))
    return run_series(t, spec)


def mu_over_n_restricted(t: SpfTable, y: int, checkpoints) -> PartialSumSeries:
    """sum mu(n)/n over 1 <= n <= x with p(n) > y; target 0.

    Includes the n = 1 term (value 1) via the p(1) = infinity sentinel.
    """
    spec = SeriesSpec(kind="mu-over-n-restricted", y=y, checkpoints=tuple(checkpoints))
    return run_series(t, spec)


def lpf_density(t: SpfTable, weight: PrimeWeight, checkpoints) -> PartialSumSeries:
    """(1/x) sum f(P(n)) over 2 <= n <= x, P the largest prime factor.

    The target is the weight's density (1/phi(k) for a residue class, none
    for a table).  Indicator weights keep the exact integer count in each
    row alongside the ratio.
    """
    spec = SeriesSpec(kind="lpf-density", weight=weight, checkpoints=tuple(checkpoints))
    return run_series(t, spec)


# ---------------------------------------------------------------------------
# exact finite-x rearrangement identity
# ---------------------------------------------------------------------------


def difference_term(
    t: SpfTable, m: int, weight: PrimeWeight, x: int, exact: bool = False
):
    """Both sides of the exact finite-x identity for the c - mu difference.

    lhs = sum_{2 <= n <= x} (c_n(m) - mu(n)) f(p(n)) / n
    rhs = sum_{d | m, d > 1} sum_{1 <= n <= x/d} (mu(n)/n) f(p(d*n))

    The divisor swap behind rhs is an exact rearrangement, so the two
    sides agree at every finite x: to within ~1e-9 in float mode, and
    identically as Fractions when exact=True.  The sides stay independent
    groupings of the terms: lhs reduces the c_n(m) column without its
    d = 1 slice, rhs one mu slice per divisor d > 1 with f read at p(d*n).
    Both modes share the columns and the driver; only the reducer and the
    combine step depend on exact.  m is any integer in [1, 2**32 - 1];
    only x must lie in the table.
    """
    if not 1 <= m <= MAX_LIMIT:
        raise ValueError(f"m must be in [1, {MAX_LIMIT}], got {m}")
    if not 1 <= x <= t.limit:
        raise ValueError(f"x={x} outside table range [1, {t.limit}]")
    # the d = 1 term of c_n(m) is mu(n), so the lhs column leaves it out
    divs = _divisors(_trial_factors(m))[1:]
    if exact:
        reduce = partial(_reduce_exact, t.spf, weight.scale)
        add, value = _add, partial(_exact_value, scale=weight.scale)
    else:
        reduce, add, value = _reduce, fsum, float

    def side(terms, stride: int, top: int, start: int):
        unit, _ = _mu_units(t, weight, terms, reduce=reduce, stride=stride)
        return add(_drive(unit, (top,), start)[0])

    lhs = side([(d, d) for d in divs], 1, x, 2)
    # one mu slice per divisor d > 1: n walks [1, x // d] and f reads p(d*n)
    rhs = add([side([(1, 1)], d, x // d, 1) for d in divs if x // d >= 1])
    return value(lhs), value(rhs)
