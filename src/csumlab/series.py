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
the fixed CHUNK grid, whole cells and then one last cell ending at x.  The
sieve's driver maps each distinct cell once over its threads and folds
each checkpoint's unit results in cell order.  A row is thus a function of
its checkpoint alone, never of the other checkpoints or the thread count,
so rows are bit-identical for any schedule and parallelism.

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
one (1, 1) column per such d read at p(d*n), and drives each side's cells
over the same threads, adding the cells' results in cell order as the
threads finish them.  Its float and exact modes differ only in the
reducer and the combine step: both reducers read one term selection.
The exact one fixes one lane per prime p <= x, with denominator q_p the
largest power of p up to x, and writes the sum of its terms a/n as
z + sum r_p / q_p, 0 <= r_p < q_p: it factors n through the table and
takes each residue with a modular inverse, inside int64 or uint64.  The
inverse of w = u mod q comes from one read-only table of s**-1 mod u for
every modulus u <= 500 (254,516 B, built by the swap rule
s**-1 mod u = (1 + u t) / s with t = -u**-1 mod s read at the smaller
modulus s): directly when q <= 500, by the same rule at modulus w when
only w <= 500, and from a vectorized Euclid only when both pass 500,
which needs n > 250,000.  Each unit returns one such sum, times the power of two that makes every f
value an integer; sums add lane by lane.  The form is canonical,
so the two sides are equal exactly when their z and lanes are: then one
Fraction serves both, and otherwise each side becomes its own.  A
Fraction comes from a product tree over the pairwise coprime prime
powers, in lowest terms without a big-int gcd.  m is factored by trial
division by the primes below 2**16, never through the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from fractions import Fraction
from math import frexp, fsum, gcd, isfinite, isqrt, ldexp
from typing import Callable

import numpy as np

from .sieve import CHUNK, MAX_LIMIT, SpfTable, _base_primes, _divisors, _drive

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
# evaluation engine: one reducer, one column builder, the sieve's driver
# ---------------------------------------------------------------------------


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
# A partial-fraction sum (z, r) over the prime layout of one exact call,
# _Lanes, stands for z + sum r[i] / q[i], z a Python int and r one int64
# lane per prime with 0 <= r[i] < q[i], so equal values have equal lanes.

_EMPTY = np.zeros(0, dtype=np.int64)

#: Kept terms per piece of the exact reducer, which selects a whole chunk once;
#: each term spreads over a dozen int64 or float64 work arrays.  The twelve
#: 1e5-term identity calls of exact-oracle (2 CPUs, 3 runs) took 0.74-0.98 s
#: at 37.0 MB peak RSS with 2^12-term pieces, 0.86-1.12 s at 49.7 MB with 2^15.
_EXACT_PIECE = 1 << 12


class _Lanes:
    """The prime layout of one exact call over the table spf: the primes
    p <= x ascending, q the largest power of each that is <= x, and rank,
    an int32 array over [0, x] that maps a prime to its lane.  The primes
    are found cell by cell by the driver, so no temporary spans [0, x]."""

    def __init__(self, spf: np.ndarray, x: int):
        found = _drive(lambda lo, hi: lo + np.flatnonzero(
            spf[lo:hi] == np.arange(lo, hi, dtype=spf.dtype)), (x,))[0]
        self.spf, self.primes = spf, np.concatenate([_EMPTY, *found])
        self.q, more = self.primes.copy(), np.flatnonzero(self.primes <= x // self.primes)
        while more.size:
            self.q[more] *= self.primes[more]
            more = more[self.q[more] <= x // self.primes[more]]
        self.rank = np.zeros(x + 1, dtype=np.int32)
        self.rank[self.primes] = np.arange(self.primes.size, dtype=np.int32)


#: Most division steps Euclid takes on (q, u) with 0 < u < q < 2**32: by
#: Lame's theorem, n steps need q >= F(n + 2), and F(47) < 2**32 < F(48).
_EUCLID_STEPS = 45


def _inverse(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """u**-1 mod q for int64 arrays with gcd(u, q) = 1 and 0 < u < q < 2**32.

    Extended Euclid in float64, on every lane until each has ended, for at
    most _EUCLID_STEPS steps.  Remainders, quotients, their products with
    a remainder or a Bezout coefficient, and the coefficients themselves
    are integers of magnitude at most q, so float64 holds each exactly.
    The quotient floor(r0 / r1) is exact too: when r0 / r1 is not an
    integer it lies at least 1 / r1 from one, and rounding moves it by
    less than 2**-21 / r1.  A lane ends when its remainder r1 reaches 0,
    with r0 the gcd and s0 * u = r0 (mod q); its next step divides by that
    0, so from then on it holds inf or nan and is never read again.  A
    call runs as many steps as its slowest lane needs, so the exact
    reducer reads _inverse_table instead wherever q or u is at most
    _INVERSE_BOUND, and calls it only on the lanes past both.

    Raises:
        ValueError: a lane never ends (u = 0) or its s0 * u is not 1 mod q
            (a gcd above 1).
    """
    r0, r1 = q.astype(np.float64), u.astype(np.float64)
    s0, s1 = np.zeros(q.size), np.ones(q.size)
    out, t, ended = np.empty(q.size), np.empty(q.size), np.empty(q.size, dtype=bool)
    left = q.size
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_EUCLID_STEPS):
            if not left:
                break
            np.floor(np.divide(r0, r1, out=t), out=t)
            r0 -= t * r1
            s0 -= t * s1
            r0, r1, s0, s1 = r1, r0, s1, s0
            np.equal(r1, 0, out=ended)  # r0 is the gcd, and s0 * u = r0 (mod q)
            np.copyto(out, s0, where=ended)
            left -= np.count_nonzero(ended)
    if left:  # u = 0 ends no lane
        raise ValueError("cannot invert a non-unit modulo its q")
    inv = out.astype(np.int64) % q
    if np.any(inv.astype(np.uint64) * u.astype(np.uint64) % q.astype(np.uint64) != 1):  # gcd > 1
        raise ValueError("cannot invert a non-unit modulo its q")
    return inv


#: Every modulus u up to this bound has a row in _inverse_table.  A lane
#: with q <= B reads its row, and one with q > B and w = u mod q <= B
#: reads the row of w by the swap rule; only lanes with both past B, so
#: n > B**2, run _inverse.  At 500 (125,250 entries, 254,516 B with the
#: offsets, built in 7-13 ms) the twelve 1e5 identity calls of
#: exact-oracle run no Euclid, since a lane with q > 500 there has
#: w = u < 200; their inverse step took (2 CPUs, 2 runs each) 0.07-0.08 s,
#: against 0.11-0.14 s with the prime-power table up to 2**10 (87,760
#: entries, built by Euclid in 25-37 ms) and Euclid past it.
_INVERSE_BOUND = 500


def _swap_inverse(start: np.ndarray, table: np.ndarray, s, u):
    """s**-1 mod u for int64 s in [1, _INVERSE_BOUND] and u > s, read from
    the row of the modulus s of _inverse_table, 0 where gcd(s, u) > 1.

    t = (s - (u mod s)**-1 mod s) mod s gives u t = -1 (mod s), so s
    divides 1 + u t and (1 + u t) / s < u is s**-1 mod u; 1 + u t stays
    below 2**41 for u < 2**32.  On a non-unit s >= 2, u mod s is no unit
    of s either, its entry is 0, so t = 0 and (1 + 0) // s = 0.
    """
    t = (s - table[start[s] + u % s]) % s
    return (1 + u * t) // s


@cache
def _inverse_table() -> tuple[np.ndarray, np.ndarray]:
    """(start, table), both read-only: table[start[u] + s] is s**-1 mod u
    in uint16 for every modulus 1 <= u <= _INVERSE_BOUND and s in [0, u),
    0 where s is no unit of u; start[u] = u (u - 1) / 2.

    Built on the first exact call, once per process (a racy double build
    only builds it twice), one modulus at a time by _swap_inverse from the
    rows of the smaller moduli, with no Euclid.
    """
    start = np.zeros(_INVERSE_BOUND + 2, dtype=np.int64)
    np.cumsum(np.arange(_INVERSE_BOUND + 1), out=start[1:])
    table = np.zeros(start[-1], dtype=np.uint16)
    for u in range(2, _INVERSE_BOUND + 1):
        s = np.arange(1, u, dtype=np.int64)
        table[start[u] + s] = _swap_inverse(start, table, s, u)
    start.flags.writeable = table.flags.writeable = False
    return start, table


def _piece_fractions(lanes: _Lanes, a: np.ndarray, n: np.ndarray, acc: np.ndarray) -> int:
    """The int z with sum a/n = z + sum r/q, after adding each r/q, one per
    p**k || n, into p's lane of acc as r * (q_p / q) / q_p.

    Each n >= 1 is factored through spf.  For n = q * u with q = p**k and
    p not dividing u, r = a * u**-1 mod q; then a/n - sum r/q over the
    prime powers of n is the integer (a - sum r * u) / n, and r * u < n.
    The product a * u**-1 is taken in uint64, which holds it for q < 2**32.
    """
    a, spf = a.astype(np.int64), lanes.spf  # a copy: a - sum r * u goes into it
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
    w, u64 = u % q, np.uint64
    # one gather for every lane; the lanes past the table overwrite their
    # (clipped) entries by the swap rule at w, or by _inverse past both
    start, table = _inverse_table()
    inv = table.take(start[np.minimum(q, _INVERSE_BOUND)] + w, mode="clip").astype(u64)
    far = np.flatnonzero(q > _INVERSE_BOUND)
    by_w = w[far] <= _INVERSE_BOUND
    swap, far = far[by_w], far[~by_w]
    inv[swap] = _swap_inverse(start, table, w[swap], q[swap])
    if far.size:  # only past n = _INVERSE_BOUND**2
        inv[far] = _inverse(w[far], q[far])
    r = (a[at] % q).astype(u64) * inv % q.astype(u64)
    r = r.astype(np.int64)
    np.add.at(a, at, -r * u)
    lane = lanes.rank[p]
    np.add.at(acc, lane, r * (lanes.q[lane] // q))
    return int((a // n).sum())


def _add(lanes: _Lanes, sums) -> tuple:
    """The partial-fraction sum of the (z, r) pairs that the iterable sums
    yields: their lanes, any int64 values whose totals stay in int64, are
    added, and one carry moves each total's quotient by q into z."""
    z, acc = 0, np.zeros(lanes.q.size, dtype=np.int64)
    for s in sums:
        z += s[0]
        acc += s[1]
    return z + int((acc // lanes.q).sum()), acc % lanes.q


def _times(lanes: _Lanes, c: int, sums: tuple) -> tuple:
    """c * sums for a Python int c of any size, by Horner's rule on the
    30-bit digits of |c|: each step takes lanes below 2**32 into
    (-2**62, 2**63), so none leaves int64, and carries once."""
    z, r = sums
    acc, sign, mag = (0, np.zeros_like(r)), (1 if c >= 0 else -1), abs(c)
    for s in reversed(range(0, mag.bit_length(), 30)):
        d = sign * (mag >> s & (1 << 30) - 1)
        acc = _add(lanes, [((acc[0] << 30) + d * z, (acc[1] << 30) + d * r)])
    return acc


def _partial_fractions(lanes: _Lanes, a: np.ndarray, n: np.ndarray) -> tuple:
    """The partial-fraction sum of a/n over integer arrays a and n, n >= 1
    in the table, factored one _EXACT_PIECE piece at a time so that the
    temporaries stay bounded.  Each term adds less than 2**32 to a lane and
    a unit has fewer than 2**31 terms, so one carry at the end suffices."""
    acc = np.zeros(lanes.q.size, dtype=np.int64)
    z = sum(_piece_fractions(lanes, a[i : i + _EXACT_PIECE], n[i : i + _EXACT_PIECE], acc)
            for i in range(0, n.size, _EXACT_PIECE))
    return _add(lanes, [(z, acc)])


def _reduce_exact(lanes: _Lanes, scale: int, col: np.ndarray, primes: np.ndarray,
                  weight: PrimeWeight, lo: int) -> tuple:
    """scale times the exact value of the sum _reduce rounds, from the same
    selection, as one partial-fraction sum over lanes: the terms of each f
    value (for the 0/1 weights, all with f = 1 and scale 1) are summed and
    multiplied by the integer scale * f, scale being a power of two that
    makes every f value an integer."""
    sel, a, fv = _select(col, primes, weight)
    n = sel + lo
    if fv is None:
        return _partial_fractions(lanes, a, n)
    groups = ((Fraction(v), fv == v) for v in np.unique(fv))
    return _add(lanes, (_times(lanes, f.numerator * (scale // f.denominator),
                               _partial_fractions(lanes, a[k], n[k])) for f, k in groups))


def _coprime_sum(nums: list[int], dens: list[int]) -> tuple[int, int]:
    """(N, D) with N/D the sum of the fractions nums[i] / dens[i] whose
    dens are pairwise coprime, so that D is the product of every den.

    Neighbours are merged by recursive halving, which keeps the big-int
    products balanced; each level is two lists, with no tuple per
    fraction, and no gcd is taken.
    """
    if not dens:
        return 0, 1
    while len(dens) > 1:
        if len(dens) % 2:  # the odd fraction merges with 0/1 into itself
            nums, dens = nums + [0], dens + [1]
        nums, dens = ([n1 * d2 + n2 * d1
                       for n1, d1, n2, d2 in zip(nums[::2], dens[::2], nums[1::2], dens[1::2])],
                      [d1 * d2 for d1, d2 in zip(dens[::2], dens[1::2])])
    return nums[0], dens[0]


def _lowest_terms(num: int, den: int) -> Fraction:
    """The Fraction num/den for coprime num and den > 0, built without the
    gcd that Fraction(num, den) takes, which is quadratic in the digits."""
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 and later
        return Fraction._from_coprime_ints(num, den)
    return Fraction(num, den, _normalize=False)


def _exact_value(lanes: _Lanes, sums: tuple, scale: int) -> Fraction:
    """(z + sum r/q) / scale for a partial-fraction sum over lanes and a
    power of two scale, as one Fraction in lowest terms.

    Stripping the factors of p from each r leaves every r/q in lowest
    terms with pairwise coprime q, so with N/D = sum r/q from a product
    tree, (N + z D) / D is in lowest terms too, and dividing it by scale
    cancels only powers of two.  No big-int gcd or division is taken.
    """
    z, r = sums
    keep = np.flatnonzero(r)  # indexing copies, so the strip step leaves sums alone
    p, q, r = lanes.primes[keep], lanes.q[keep], r[keep]
    hit = np.flatnonzero(r % p == 0)
    while hit.size:
        r[hit] //= p[hit]
        q[hit] //= p[hit]
        hit = hit[r[hit] % p[hit] == 0]
    num, den = _coprime_sum(r.tolist(), q.tolist())
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
        lanes = _Lanes(t.spf, x)
        reduce, add = partial(_reduce_exact, lanes, weight.scale), partial(_add, lanes)
    else:
        reduce, add = _reduce, fsum

    def side(terms, stride: int, top: int, start: int):
        """The sum of one column over [start, top], each cell added as
        its thread finishes it; an empty range is the empty sum."""
        unit, _ = _mu_units(t, weight, terms, reduce=reduce, stride=stride)
        return _drive(unit, (top,), start, add)[0]

    lhs = side([(d, d) for d in divs], 1, x, 2)
    # one mu slice per divisor d > 1: n walks [1, x // d] and f reads p(d*n)
    rhs = add(side([(1, 1)], d, x // d, 1) for d in divs)
    if not exact:
        return lhs, rhs
    del lanes.rank  # the value step reads no rank, so free its 4 bytes per n first
    value = partial(_exact_value, lanes, scale=weight.scale)
    if lhs[0] == rhs[0] and np.array_equal(lhs[1], rhs[1]):
        both = value(lhs)  # sums are canonical, so equal lanes are one value: convert it once
        return both, both
    return value(lhs), value(rhs)
