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
same value for any piece width.  The unit that builds a piece states its
bound without reading the terms, 2**e >= every |term| and 2**f <= every
nonzero one: each extraction at sigma = 2**(e + k), 2**k > size + 1,
leaves remainders on the grid 2**(f - 52) at most 2**(e + k - 53), so
once e - f <= 54 - 2k held for the last extraction, every partial sum
of them fits 53 bits and one plain sum is the last limb.  A floor below
2**-1022 counts as 2**-1022, as every float64 is a multiple of 2**-1074.

One cell schedule serves every run: a run walks each cell of [start, x]
on the fixed CHUNK grid once, x its last checkpoint, and every other
checkpoint that ends inside a cell cuts it.  A unit returns one result
per end of its cell, each that of the prefix up to the end: the float
reducer rounds its running limbs there, the counts take prefix sums, and
the exact reducer snapshots its running lanes.  A checkpoint reads the
whole cells below it and the prefix that ends at it, in cell order, which
are the values its own run of whole cells and one last cell ending at x
would give, since the limbs of any cut sum exactly.  A row is thus a
function of its checkpoint alone, never of the other checkpoints or the
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
with the same unit builder: lhs from the pairs (d, d) over d | m, d > 1,
and rhs from one (1, 1) column per least prime p of those d, read at
p(p*n), which is p(d*n) for each d of least prime p.  That column is
walked once over [1, x // p] and cut at every x // d.  The lhs walk and
every rhs walk go over one thread map, and each is folded in cell order
as the threads finish.  Its float and exact modes differ only in the
reducer and the fold: both reducers read one term selection.
The exact one fixes one lane per prime p <= x, with denominator q_p the
largest power of p up to x, and writes the sum of its terms a/n as
z + sum r_p / q_p, 0 <= r_p < q_p: it factors n through the table and
takes each residue with a modular inverse, inside int64 or uint64.  One
rule gives every inverse: the swap rule s**-1 mod u = (1 + u t) / s with
t = -(u mod s)**-1 mod s, which asks for an inverse at the smaller
modulus s.  It builds one read-only table of s**-1 mod u for every modulus
u <= 500 (254,516 B); w = u mod q reads its entry at q when q <= 500, and
otherwise takes swap steps down to the table.  Each unit returns one such
sum per end, of its terms times scale, the power of two that makes every
f value an integer: each term's integer part and residues are multiplied
by its c = scale * f.  Sums add lane by lane.  The form is canonical,
so the two sides are equal exactly when their z and lanes are: then one
Fraction serves both, and otherwise each side becomes its own.  A
Fraction comes from a product tree over the pairwise coprime prime
powers, in lowest terms without a big-int gcd.  m is factored by trial
division by the primes below 2**16, never through the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import accumulate
from fractions import Fraction
from math import frexp, fsum, gcd, isqrt, ldexp
from typing import Callable

import numpy as np

from .sieve import CHUNK, MAX_LIMIT, SpfTable, _base_primes, _divisors, _drive

#: Indices per piece of a float sum, which selects and sums each piece in
#: turn through three float64 buffers of this length.  solve_s medians
#: over seeds 1-3 (2 CPUs) at 2^15, 2^16, 2^17 and 2^18: cold-1e8 0.88,
#: 0.66, 0.65 and 0.67 s; warm-sweep-1e7 1.10, 0.94, 0.89 and 0.93 s,
#: where 2^18's larger buffers raised peak RSS 183.9 -> 193.3 MB.
_PIECE = CHUNK // 8

#: Largest |f(p)| of a table weight.  A term is at most sigma(m) < 2**35
#: times |f(p)|, and a series sums at most 2**32 terms, so no term, chunk
#: sum or row can overflow.
MAX_TABLE_WEIGHT = 1e100

#: The primes below 2**16: every composite below 2**32 has one as a factor.
_SMALL_PRIMES = np.array(_base_primes(2**16 - 1), dtype=np.int64)

#: A table weight reads its keys below this bound from one dense array.
_DENSE = 2**16


class PrimeWeight:
    """A bounded weight f on primes, read at p(n) or P(n).

    Each kind is one frozen subclass that holds and validates only its own
    fields.  at(primes) gives (support, f) over an array of primes (an spf
    or lpf slice): support is the mask f != 0, None when f is 1
    everywhere, and f the float64 values, None for the 0/1 weights.
    density is f's density over the primes or None, scale the power of
    two that makes every f value an integer, magnitudes the largest and
    the smallest nonzero |f(p)|, and describe() the one-token description
    in report metadata that cli.parse_weight reads back.
    """

    @staticmethod
    def constant_one() -> "OneWeight":
        return OneWeight()

    @staticmethod
    def residue_class(k: int, l: int) -> "ResidueWeight":
        return ResidueWeight(k, l)

    @staticmethod
    def from_table(values) -> "TableWeight":
        """From a {p: v} dict or (p, v) pairs; TableWeight refuses a repeated p."""
        return TableWeight(tuple(sorted(values.items() if isinstance(values, dict) else values)))


@dataclass(frozen=True)
class OneWeight(PrimeWeight):
    """f(p) = 1 everywhere."""

    density = 1.0
    scale = 1
    magnitudes = (1.0, 1.0)

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
    magnitudes = (1.0, 1.0)

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

    @cached_property
    def magnitudes(self) -> tuple[float, float]:
        """Cached; (1.0, 1.0) when f is 0 everywhere, as then no term is kept."""
        mags = [abs(v) for _, v in self.table if v]
        return (max(mags), min(mags)) if mags else (1.0, 1.0)

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dense, keys, vals), built once per weight: dense[p] = f(p) for
        every p < 2**16, 0.0 off the table, and the keys >= 2**16 ascending
        with their values."""
        dense = np.zeros(_DENSE)
        small = [(p, v) for p, v in self.table if p < _DENSE]
        dense[[p for p, _ in small]] = [v for _, v in small]
        big = sorted((p, v) for p, v in self.table if p >= _DENSE)
        return dense, np.array([p for p, _ in big], dtype=np.uint32), np.array([v for _, v in big])

    def at(self, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One read of the dense table per entry; only the entries >= 2**16
        take a binary search over the large keys, and only if there are any.
        Those first read dense[2**16 - 1] = 0.0, as 2**16 - 1 is no prime."""
        dense, keys, vals = self._lookup
        f = dense.take(primes, mode="clip")
        if keys.size:
            at = np.flatnonzero(primes >= _DENSE)
            i = np.searchsorted(keys, primes[at])
            np.minimum(i, keys.size - 1, out=i)
            hit = keys[i] == primes[at]
            f[at[hit]] = vals[i[hit]]
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


def _block_sum(lens: list[int], block: Callable[[int, int, np.ndarray], np.ndarray],
               bound: Callable[[int, int], tuple[int, int]]) -> list[float]:
    """For each k in the ascending lens, the exact sum of the float64 terms
    block(a, b, out) over the pieces [a, b) of [0, k), rounded once, as
    math.fsum of all those terms gives it.

    block returns its piece's terms, at most b - a and possibly none, in
    the scratch array out or elsewhere; pieces span at most _PIECE indices,
    end at each k and share three buffers allocated once per call.
    bound(a, b) states the piece's bound as _block_limbs takes it.  The
    limbs of the pieces so far are exact floats, so their fsum at each k
    is the correctly rounded value of that prefix.
    """
    out, q, r = np.empty((3, min(lens[-1], _PIECE)))
    limbs, sums, start = [], [], 0
    for end in lens:
        for a in range(start, end, _PIECE):
            b = min(end, a + _PIECE)
            p = block(a, b, out)
            _block_limbs(p, q[: p.size], r[: p.size], limbs, bound(a, b))
        sums.append(fsum(limbs))
        start = end
    return sums


def _block_limbs(p: np.ndarray, q: np.ndarray, r: np.ndarray, limbs: list[float],
                 bound: tuple[int, int]) -> None:
    """Append to limbs floats whose exact sum is the exact sum of p, from
    bound = (e, f) alone, stated without reading p: 2**e >= every |p| and
    2**f <= every nonzero |p|, with e + k <= 1023.

    Each extraction adds and subtracts sigma = 2**(e + k), where
    2**k > p.size + 1 (ExtractVector of Rump, Ogita & Oishi, 2008).  That
    rounds p to multiples q of 2**(e + k - 53) with |q| <= 2**e, so every
    partial sum of q is such a multiple below 2**(e + k) and np.sum(q) is
    exact in any order.  The remainder p - q is exact, at most
    2**(e + k - 53) in magnitude, so e falls by 53 - k.

    With f raised to -1022 at least, every nonzero term is a multiple of
    2**(f - 52): a term of at least 2**f > 2**-1022 is normal, and every
    float64 is a multiple of 2**-1074 = 2**(-1022 - 52).  So is every
    remainder, while e + k - 53 >= f - 52.  Once e + k - f <= 1,
    every partial sum of p is such a multiple below 2**(e + k) <= 2**53 *
    2**(f - 52), so one plain np.sum(p) is the last, exact limb: that is
    e - f <= 54 - 2k for the e of the extraction before, and with the
    raised floor the sums stay below 2**-1021.  Each sigma is at least
    2**(f + 2), a normal float, and a wide span only takes more
    extractions.  q and r are scratch arrays of p's size that take the
    remainders in turn, so p is left alone.
    """
    k = (p.size + 1).bit_length()
    e, f = bound
    f = max(f, -1022)
    while p.size:  # an empty piece appends no limb
        if e + k - f <= 1:
            limbs.append(float(p.sum()))
            return
        sigma = ldexp(1.0, e + k)
        np.add(p, sigma, out=q)
        q -= sigma
        limbs.append(float(q.sum()))
        p = np.subtract(p, q, out=q)  # in place: 25 us a 2^17-index piece, 65 into a third array
        q, r = r, q
        e -= 53 - k


def _term_bound(weight: PrimeWeight, bits: int, lo: int, hi: int) -> tuple[int, int]:
    """(e, f) with 2**e >= |c f(p) / n| >= 2**f, both as float64 operations
    round them, for every |c| <= 2**bits, nonzero c and f(p), and n in
    [lo, hi]: rounding is monotone and keeps powers of two."""
    top, least = weight.magnitudes
    return bits + frexp(top)[1] - lo.bit_length() + 1, frexp(least)[1] - 1 - (hi - 1).bit_length()


def _reduce(col: np.ndarray, primes: np.ndarray, weight: PrimeWeight, lo: int,
            lens: list[int]) -> list[float]:
    """fsum of col[i] * f(primes[i]) / (lo + i) over the kept terms of each
    prefix col[:k], k in the ascending lens.

    Each piece of the index range selects its kept terms and converts,
    weights and divides them straight into the exact sum's buffer.  A
    sign carried in the integer column rounds as negating each term does.
    Each piece's bound comes from the column's dtype, |col| <= 2**bits,
    the weight's magnitudes and the piece's n range.
    """
    bits = np.iinfo(col.dtype).max.bit_length()

    def terms(a: int, b: int, out: np.ndarray) -> np.ndarray:
        sel, num, fv = _select(col[a:b], primes[a:b], weight)
        out = out[: sel.size]
        sel += lo + a  # the kept n
        if fv is not None:
            num = np.multiply(num, fv, out=out)
        return np.divide(num, sel, out=out)

    return _block_sum(lens, terms, lambda a, b: _term_bound(weight, bits, lo + a, lo + b - 1))


def _prefix_sums(total: Callable, values: np.ndarray, lens: list[int]) -> list[int]:
    """total(values[:k]) for each k in the ascending lens, as the running
    sum of one total of each stretch between them."""
    return list(accumulate(int(total(values[a:b])) for a, b in zip([0, *lens], lens)))


# --- the exact reducer: sums as prime-power partial fractions ---------------
#
# A partial-fraction sum (z, r) over moduli q stands for z + sum r[i] / q[i],
# z a Python int and r int64 with 0 <= r[i] < q[i].  Over the prime layout
# of one exact call, _Lanes, q is one lane per prime, so equal values have
# equal lanes; a piece's terms take q at the lanes of their prime powers.

_EMPTY = np.zeros(0, dtype=np.int64)

#: Indices per piece of the exact reducer, which selects and factors each
#: piece's kept terms in turn; each term spreads over a dozen int64 or
#: float64 work arrays.  The twelve 1e5 identity calls of exact-oracle,
#: whose walks share one thread map, took (2 CPUs, 3 runs) 0.31-0.34 s at
#: 38.0-38.8 MB peak RSS with 2^13-index pieces, 0.38-0.39 s at 36.5-37.1
#: MB with 2^12 and 0.31-0.32 s at 56-58 MB with whole cells; at x = 4e6
#: the m = 12 sides took 2.4-2.5 s of CPU with 2^13 and 3.6-3.7 s with 2^12.
_EXACT_PIECE = 1 << 13


class _Lanes:
    """The prime layout of one exact call over the table spf: the primes
    p <= x ascending, q the largest power of each that is <= x, and rank,
    an int32 array over [0, x] that maps a prime to its lane.  The primes
    are found cell by cell by the driver, so no temporary spans [0, x]."""

    def __init__(self, spf: np.ndarray, x: int):
        found = next(_drive([(lambda lo, hi: [lo + np.flatnonzero(
            spf[lo:hi] == np.arange(lo, hi, dtype=spf.dtype))], (x,), 2)]))
        self.spf, self.primes = spf, np.concatenate([_EMPTY, *found])
        self.q, more = self.primes.copy(), np.flatnonzero(self.primes <= x // self.primes)
        while more.size:
            self.q[more] *= self.primes[more]
            more = more[self.q[more] <= x // self.primes[more]]
        self.rank = np.zeros(x + 1, dtype=np.int32)
        self.rank[self.primes] = np.arange(self.primes.size, dtype=np.int32)


#: Every modulus u up to this bound has a row in _inverse_table, which
#: _inverse reads at q <= B; past it, each swap step moves a lane from
#: (w, q) to (q mod w, w), so only lanes with w past B too, n > B**2, take
#: more than one.  At 500 (125,250 entries, 254,516 B with the offsets,
#: built in 7-13 ms) the twelve 1e5 identity calls of exact-oracle take at
#: most one step, since a lane with q > 500 there has w = u < 200; their
#: inverse step took (2 CPUs, 2 runs each) 0.07-0.08 s, against 0.11-0.14 s
#: with a table of the prime-power moduli up to 2**10 (87,760 entries).
_INVERSE_BOUND = 500


def _swap(s, u, inv):
    """s**-1 mod u for 1 <= s < u, from inv = (u mod s)**-1 mod s; 0 where
    gcd(s, u) > 1, given inv = 0 there.

    t = (s - inv) mod s gives u t = -1 (mod s), so s divides 1 + u t and
    (1 + u t) / s < u is s**-1 mod u.  1 + u t <= u s, below 2**64 for
    u < 2**32 in uint64.  On a non-unit s >= 2, t = 0 and (1 + 0) // s = 0.
    """
    return (1 + u * ((s - inv) % s)) // s


def _inverse(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """w**-1 mod q in uint64 for int64 arrays with 0 <= w < q < 2**32,
    q >= 2 and gcd(w, q) = 1.

    Lanes with q <= _INVERSE_BOUND read row q of _inverse_table.  Every
    other lane takes one _swap step from (q mod w)**-1 mod w, found the
    same way on those lanes only, level by level until the table answers.
    Each level is one step of Euclid: the moduli fall and keep the gcd,
    and a chain may end at modulus 1, whose row reads 0.

    Raises:
        ValueError: gcd(w, q) > 1, seen as w = 0 past the table or as a
            0 from the table carried up to the answer.
    """
    start, table = _inverse_table()
    levels, s, u = [], w, q
    while True:
        inv = table.take(start[np.minimum(u, _INVERSE_BOUND)] + s, mode="clip").astype(np.uint64)
        far = np.flatnonzero(u > _INVERSE_BOUND)
        if not far.size:
            break
        s, u = s[far], u[far]
        if not s.all():
            raise ValueError("cannot invert a non-unit modulo its q")
        levels.append((inv, far, s, u))
        s, u = u % s, s
    for up, far, s, u in reversed(levels):
        up[far] = _swap(s.astype(np.uint64), u.astype(np.uint64), inv)
        inv = up
    if not inv.all():  # a unit's inverse modulo q >= 2 is never 0
        raise ValueError("cannot invert a non-unit modulo its q")
    return inv


@cache
def _inverse_table() -> tuple[np.ndarray, np.ndarray]:
    """(start, table), both read-only: table[start[u] + s] is s**-1 mod u
    in uint16 for every modulus 1 <= u <= _INVERSE_BOUND and s in [0, u),
    0 where s is no unit of u; start[u] = u (u - 1) / 2.

    Built on the first exact call, once per process (a racy double build
    only builds it twice), one modulus at a time by _swap from the rows of
    the smaller moduli.
    """
    start = np.zeros(_INVERSE_BOUND + 2, dtype=np.int64)
    np.cumsum(np.arange(_INVERSE_BOUND + 1), out=start[1:])
    table = np.zeros(start[-1], dtype=np.uint16)
    for u in range(2, _INVERSE_BOUND + 1):
        s = np.arange(1, u, dtype=np.int64)
        table[start[u] + s] = _swap(s, u, table[start[s] + u % s])
    start.flags.writeable = table.flags.writeable = False
    return start, table


def _piece_fractions(lanes: _Lanes, a: np.ndarray, n: np.ndarray) -> tuple:
    """(z, at, lane, r) with a[i]/n[i] = z[i] + the sum of r / lanes.q[lane]
    over the entries with at = i: one entry, 0 <= r < lanes.q[lane], for
    each p**k || n[i].

    Each n >= 1 is factored through spf.  For n = q * u with q = p**k and
    p not dividing u, s = a * u**-1 mod q; then a/n - sum s/q over the
    prime powers of n is the integer (a - sum s * u) / n, and s * u < n.
    The product a * u**-1 is taken in uint64, which holds it for q < 2**32.
    Each s/q enters p's lane as r = s * (q_p / q) over q_p = lanes.q[lane].
    """
    a, spf = a.astype(np.int64), lanes.spf  # a copy: a - sum s * u goes into it
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
    s = (a[at] % q).astype(np.uint64) * _inverse(u % q, q) % q.astype(np.uint64)
    s = s.astype(np.int64)
    np.add.at(a, at, -s * u)
    lane = lanes.rank[p]
    return a // n, at, lane, s * (lanes.q[lane] // q)


def _add(q: np.ndarray, sums) -> tuple:
    """The partial-fraction sum of the (z, r) pairs over the moduli q that
    the iterable sums yields: their r, any int64 arrays whose totals stay
    in int64, are added, and one carry moves each total's quotient by q
    into z."""
    z, acc = 0, np.zeros(q.size, dtype=np.int64)
    for s in sums:
        z += s[0]
        acc += s[1]
    return z + int((acc // q).sum()), acc % q


def _times(q: np.ndarray, c: list[int], k: np.ndarray, r: np.ndarray) -> tuple:
    """(z, s) with sum c[k] r / q = z + sum s / q and 0 <= s < q, for
    entries 0 <= r < q < 2**32, c a list of ints of any size and k an
    index into it per entry.  Horner's rule on the 30-bit digits of each
    |c| keeps every entry below 2**31 q in int64, and each step carries
    the quotients by q into z."""
    mag = [abs(v) for v in c]
    r = np.array([1 if v >= 0 else -1 for v in c], dtype=np.int64)[k] * r  # the sign of c, |r| < q
    z, s = 0, np.zeros_like(r)
    for b in reversed(range(0, max((v.bit_length() for v in mag), default=0), 30)):
        d = np.array([v >> b & (1 << 30) - 1 for v in mag], dtype=np.int64)
        s = (s << 30) + d[k] * r
        z = (z << 30) + int((s // q).sum())
        s %= q
    return z, s


def _partial_fractions(lanes: _Lanes, terms) -> tuple:
    """The partial-fraction sum of c[g] a/n over the (c, g, a, n) that
    terms yields: c a list of ints of any size, g an index into it per
    term, and a, n integer arrays with n >= 1 in the table.  Each piece is
    factored once and multiplied by its c on its own prime powers, so the
    temporaries stay those of one piece.  Each term adds less than 2**32
    to a lane and a unit has fewer than 2**31 terms, so one carry at the
    end suffices."""
    z, acc = 0, np.zeros(lanes.q.size, dtype=np.int64)
    for c, g, a, n in terms:
        y, at, lane, r = _piece_fractions(lanes, a, n)
        ys = np.zeros(len(c), dtype=np.int64)
        np.add.at(ys, g, y)
        dz, r = _times(lanes.q[lane], c, g[at], r)
        z += dz + sum(v * w for v, w in zip(c, ys.tolist()))
        np.add.at(acc, lane, r)
    return _add(lanes.q, [(z, acc)])


def _reduce_exact(lanes: _Lanes, scale: int, col: np.ndarray, primes: np.ndarray,
                  weight: PrimeWeight, lo: int, lens: list[int]) -> list[tuple]:
    """scale times the exact value of each sum _reduce rounds, from the same
    selection, as partial-fraction sums over lanes: a running sum of the
    kept terms a f / n, snapshot at each k in lens.  scale is a power of
    two that makes every c = scale * f an integer.

    The column is read in pieces of _EXACT_PIECE indices, each selected
    and factored once, so a unit holds one piece's terms.  Each kept term
    carries the c of its f value (c = scale for the 0/1 weights) into its
    integer part and prime-power residues, so a table weight of any
    values takes one pass.
    """

    def terms(start: int, end: int):
        for a in range(start, end, _EXACT_PIECE):
            b = min(end, a + _EXACT_PIECE)
            sel, num, fv = _select(col[a:b], primes[a:b], weight)
            sel += lo + a  # the kept n
            vals, g = np.unique(np.ones(num.size) if fv is None else fv, return_inverse=True)
            yield [int(Fraction(v) * scale) for v in vals], g, num, sel

    run, sums, start = (0, 0), [], 0
    for end in lens:
        run = _add(lanes.q, [run, _partial_fractions(lanes, terms(start, end))])
        sums.append(run)
        start = end
    return sums


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

    Every pair, d = 1 included, adds one contiguous mu slice at stride d
    (n = d*j walks j0..j1) times c to a zeroed column: (d, -d) over the
    divisors d of m gives -c_n(m), and (1, 1) gives mu(n).  The column
    has the narrowest signed dtype that holds +-sum |c|, a bound on every
    entry, so no entry overflows (int8 for sum |c| <= 127).
    """
    dtype = np.min_scalar_type(-sum(abs(c) for _, c in terms) - 1)
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

    unit(lo, *ends) builds the column of its cell [lo, hi), hi = ends[-1],
    lets support(col, lo, hi) zero its entries off the kind's support in
    place, and reduces it, _reduce when reduce is None, with f read at
    p(stride * n), to one result per prefix [lo, end).  combine(x, results)
    is the fsum of the head terms and the unit results.
    """
    spf, mu, reduce = t.spf, t.mu_table(), reduce or _reduce

    def unit(lo: int, *ends: int):
        hi = ends[-1]
        col = _column(mu, terms, lo, hi)
        if support is not None:
            support(col, lo, hi)
        primes = spf[stride * lo : stride * (hi - 1) + 1 : stride]
        return reduce(col, primes, weight, lo, [end - lo for end in ends])

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
                     reduce=lambda col, primes, weight, lo, lens: _prefix_sums(partial(np.sum, dtype=np.int64), col, lens))


def _mu_over_n_units(t: SpfTable, spec: SeriesSpec):
    # 1.0 is the n = 1 sentinel term
    return _mu_units(t, spec.prime_weight, [(1, 1)], _above(t, spec.y), head=(1.0,))


def _lpf_units(t: SpfTable, spec: SeriesSpec):
    """(1/x) sum f(P(n)); indicator weights also keep the integer count."""
    lpf, weight = t.lpf_table(), spec.weight
    indicator = weight.at(lpf[:0])[1] is None  # the 0/1 weights give no f values
    bound = _term_bound(weight, 0, 1, 1)  # of every piece, whose terms are f values

    def unit(lo: int, *ends: int):
        view, lens = lpf[lo : ends[-1]], [end - lo for end in ends]
        if not indicator:  # sum each piece's supported f values, fv[support]
            sums = _block_sum(lens, lambda a, b, _: np.compress(*weight.at(view[a:b])),
                              lambda a, b: bound)
            return [(s, None) for s in sums]
        support = weight.at(view)[0]
        counts = lens if support is None else _prefix_sums(np.count_nonzero, support, lens)
        return [(float(c), c) for c in counts]

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
    for x, parts in zip(cps, _drive([(unit, cps, 2)])):
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
    d = 1 slice, and rhs sums one mu prefix per divisor d > 1.  Since
    p(d*n) = min(p(d), p(n)) = p(p*n) for p = p(d), the divisors of one
    least prime p read one mu column with f at p(p*n), walked once over
    [1, x // p] and cut at each x // d.  Both modes share the columns and
    the one thread map of every walk; only the reducer and the fold depend
    on exact.  m is any integer in [1, 2**32 - 1]; only x must lie in the
    table.
    """
    if not 1 <= m <= MAX_LIMIT:
        raise ValueError(f"m must be in [1, {MAX_LIMIT}], got {m}")
    if not 1 <= x <= t.limit:
        raise ValueError(f"x={x} outside table range [1, {t.limit}]")
    factors = _trial_factors(m)
    # the d = 1 term of c_n(m) is mu(n), so the lhs column leaves it out
    divs = _divisors(factors)[1:]
    if exact:
        lanes = _Lanes(t.spf, x)
        reduce, total = partial(_reduce_exact, lanes, weight.scale), partial(_add, lanes.q)
        fold = {"add": lambda s, r: total([s, r]), "zero": (0, 0)}
    else:
        reduce, fold = _reduce, {}

        def total(tops):  # each top rounds alone, as the sum over its divisor's prefix
            return fsum(fsum(parts) for parts in tops)

    def walk(terms, stride: int, tops, start: int):
        return _mu_units(t, weight, terms, reduce=reduce, stride=stride)[0], tops, start

    cuts = {p: [] for p, _ in factors}  # x // d for each divisor d > 1 of least prime p
    for d in divs:
        cuts[next(p for p in cuts if d % p == 0)].append(x // d)
    tops = _drive([walk([(d, d) for d in divs], 1, (x,), 2),
                   *(walk([(1, 1)], p, sorted(c), 1) for p, c in cuts.items())], **fold)
    lhs = total([next(tops)])
    rhs = total(tops)
    if not exact:
        return lhs, rhs
    del lanes.rank  # the value step reads no rank, so free its 4 bytes per n first
    value = partial(_exact_value, lanes, scale=weight.scale)
    if lhs[0] == rhs[0] and np.array_equal(lhs[1], rhs[1]):
        both = value(lhs)  # sums are canonical, so equal lanes are one value: convert it once
        return both, both
    return value(lhs), value(rhs)
