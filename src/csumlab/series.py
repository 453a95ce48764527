"""Partial sums and densities over smallest/largest-prime-factor classes.

Every series here is conditionally convergent (or a counting ratio), so the
summation order is part of its definition: terms are always accumulated in
ascending n.  Evaluation is chunked; each chunk's float terms are summed
exactly and rounded once, which is the value math.fsum gives, and chunk
results are combined in ascending index order.  The exact sum splits the
terms into limbs on power-of-two grids by whole-array float operations
(Rump, Ogita & Oishi, "Accurate floating-point summation, part I", 2008),
so it builds no Python objects per term and releases the GIL.  Chunk
boundaries depend only on the checkpoint schedule, never on the thread
count, so rows are bit-identical for any parallelism.

The kinds live in one registry, SERIES_KINDS: each maps to its required
parameters, its target and a unit factory.  One checkpoint driver runs the
units over the chunk grid, and the float kinds reduce every chunk through
one term reducer, so the paper's sum -sum c_n(m) f(p(n))/n and its special
cases (Alladi's and Dawsey's m = 1 series) share a single code path.

The finite-x rearrangement identity (difference_term) builds its two sides
from the same integer columns and runs them through the same driver.  Its
float and exact modes differ only in the reducer: both reducers read one
term selection, and the exact one sums a/n as integer (numerator,
denominator) pairs over the lcm of the denominators, reduced once at the
end.  m is factored by trial division, never through the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import frexp, fsum, gcd, isfinite, ldexp
from typing import Callable

import numpy as np

from .sieve import MAX_LIMIT, SpfTable, _thread_map

#: Terms per summation chunk.  Fixed so that chunk boundaries (and hence
#: the exact floating-point result) never depend on thread scheduling.
CHUNK = 1 << 20

#: Largest |f(p)| of a table weight.  A term is at most sigma(m) < 2**35
#: times |f(p)|, and a series sums at most 2**32 terms, so no term, chunk
#: sum or row can overflow.
MAX_TABLE_WEIGHT = 1e100


def _check_class(k: int, l: int) -> None:
    """Reject a modulus outside [1, 2**32) or a residue not coprime to it.

    Primes are uint32, so the class mask works modulo a uint32 k.
    """
    if not 1 <= k <= MAX_LIMIT:
        raise ValueError(f"modulus k must be in [1, {MAX_LIMIT}], got {k}")
    if gcd(l, k) != 1:
        raise ValueError(f"residue l={l} is not coprime to k={k}")


@dataclass(frozen=True)
class PrimeWeight:
    """A bounded weight f on primes.

    Kinds:
        "residue": f(p) = 1 if p = l (mod k) else 0, with gcd(l, k) = 1.
        "one":     f(p) = 1 everywhere.
        "table":   explicit map prime -> value, |value| <= MAX_TABLE_WEIGHT;
                   0 off the table.
    """

    kind: str
    k: int = 0
    l: int = 0
    table: tuple[tuple[int, float], ...] = field(default=())

    def __post_init__(self):
        if self.kind not in ("residue", "one", "table"):
            raise ValueError(f"unknown prime-weight kind {self.kind!r}")
        if self.kind == "residue":
            _check_class(self.k, self.l)
        for p, v in self.table:
            if not abs(v) <= MAX_TABLE_WEIGHT:  # also false for nan
                raise ValueError(
                    f"weight value f({p}) = {v!r} must be finite with |f| <= {MAX_TABLE_WEIGHT:g}"
                )

    @classmethod
    def residue_class(cls, k: int, l: int) -> "PrimeWeight":
        return cls(kind="residue", k=k, l=l)

    @classmethod
    def constant_one(cls) -> "PrimeWeight":
        return cls(kind="one")

    @classmethod
    def from_table(cls, values: dict[int, float]) -> "PrimeWeight":
        return cls(kind="table", table=tuple(sorted(values.items())))

    # --- vectorized helpers over arrays of primes (spf/lpf slices) ---

    def mask(self, primes: np.ndarray) -> np.ndarray | None:
        """Boolean support mask for 0/1 kinds; None means "all ones"."""
        if self.kind == "one":
            return None
        if self.kind == "residue":
            return (primes % np.uint32(self.k)) == np.uint32(self.l % self.k)
        vals = self.values(primes)
        return vals != 0.0

    def values(self, primes: np.ndarray) -> np.ndarray:
        """f applied elementwise (float64); only needed for table weights."""
        out = np.zeros(primes.shape, dtype=np.float64)
        for p, v in self.table:
            out[primes == p] = v
        return out

    def describe(self) -> str:
        """Stable one-token description used in report metadata."""
        if self.kind == "one":
            return "one"
        if self.kind == "residue":
            return f"residue:{self.k},{self.l}"
        return "table:" + ",".join(f"{p}={v!r}" for p, v in self.table)


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of one partial-sum experiment.

    The kind's SERIES_KINDS entry names which of m, k, l, y and weight it
    requires; it takes no others.
    """

    kind: str
    m: int | None = None
    k: int | None = None
    l: int | None = None
    y: int | None = None
    weight: PrimeWeight | None = None
    checkpoints: tuple[int, ...] = ()
    target: float | None = None

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
        if self.k is not None:
            _check_class(self.k, self.l)
        if self.m is not None and not 1 <= self.m <= MAX_LIMIT:
            raise ValueError(f"m must be in [1, {MAX_LIMIT}], got {self.m}")
        if self.y is not None and self.y < 1:
            raise ValueError(f"threshold y must be >= 1, got {self.y}")
        cps = self.checkpoints
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError(f"checkpoints must be strictly ascending: {cps}")
        if cps and cps[0] < 1:
            raise ValueError(f"checkpoints must be >= 1: {cps}")

    @property
    def prime_weight(self) -> PrimeWeight:
        """f read at the prime factor: the explicit weight, else the
        (k, l) class indicator, else 1."""
        if self.weight is not None:
            return self.weight
        if self.k is not None:
            return PrimeWeight.residue_class(self.k, self.l)
        return PrimeWeight.constant_one()

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


def _plan_units(start: int, checkpoints: tuple[int, ...]):
    """Work units and per-checkpoint assembly plans.

    Full units live on the fixed CHUNK grid, so their sums are reusable
    across any checkpoint schedule; each checkpoint additionally gets a
    probe unit covering the partial chunk [grid floor, checkpoint].  The
    value at a checkpoint is therefore a function of the checkpoint alone,
    never of which other checkpoints share the run.

    Returns (units, plans): units is a list of half-open (lo, hi) ranges;
    plans[i] = (n_full, probe_index) says checkpoint i combines the first
    n_full grid sums plus units[probe_index] (None when the checkpoint
    lands on a grid boundary or below start).
    """
    stop = checkpoints[-1] + 1
    bounds = [start] + list(range((start // CHUNK + 1) * CHUNK, stop + 1, CHUNK))
    cells = list(zip(bounds, bounds[1:]))
    units = list(cells)
    plans = []
    for cp in checkpoints:
        top = cp + 1
        if top <= start:
            plans.append((0, None))
            continue
        g = max(start, (top // CHUNK) * CHUNK)
        n_full = sum(1 for _, hi in cells if hi <= g)
        if g < top:
            units.append((g, top))
            plans.append((n_full, len(units) - 1))
        else:
            plans.append((n_full, None))
    return units, plans


def _drive(unit, combine, checkpoints: tuple[int, ...], start: int = 2) -> list:
    """combine(x, unit results) for each checkpoint x.

    unit(lo, hi) reduces the half-open range [lo, hi); the ranges come from
    _plan_units, so the results handed to combine for x are those of the
    grid cells below x plus the probe cell ending at x.  Units are mapped
    over the sieve's threads.
    """
    if checkpoints[-1] >= start:
        units, plans = _plan_units(start, checkpoints)
    else:
        units, plans = [], [(0, None)] * len(checkpoints)
    results = _thread_map(unit, units)
    return [
        combine(x, results[:n_full] + ([] if probe is None else [results[probe]]))
        for x, (n_full, probe) in zip(checkpoints, plans)
    ]


def _float_total(head: tuple[float, ...] = ()):
    """Combine step of the float kinds: fsum of the head terms and unit sums."""
    return lambda x, sums: (fsum([*head, *sums]), None)


def _select(col: np.ndarray, keep, primes: np.ndarray, weight: PrimeWeight):
    """The kept terms of a column: (indices, numerators, f values).

    col is an integer column in its stored dtype and keep an optional
    boolean support mask.  An index is kept where col != 0, keep and
    f(primes) != 0; the f values are None for the 0/1 weights, whose kept
    terms all have f = 1.
    """
    if weight.kind == "table":
        fv = weight.values(primes)
        support = fv != 0.0
    else:
        fv, support = None, weight.mask(primes)
    if keep is not None:
        support = keep if support is None else support & keep
    nz = col != 0
    sel = np.flatnonzero(nz if support is None else support & nz)
    return sel, col[sel], None if fv is None else fv[sel]


def _exact_sum(p: np.ndarray) -> float:
    """The exact sum of the float64 array p, rounded once, as math.fsum gives it.

    Each pass adds and subtracts sigma = 2**(e + k), where max|p| < 2**e
    and 2**k > p.size + 1 (ExtractVector of Rump, Ogita & Oishi, 2008).
    That rounds p to multiples q of 2**(e + k - 53) with |q| <= 2**e, so
    every partial sum of q is such a multiple below 2**(e + k) and np.sum(q)
    is exact in any order.  The remainder p - q is exact and lowers e by at
    least 52 - k.  fsum of the few limb totals is then the correctly rounded
    value of the whole sum.  p must be finite with max|p| < 2**(1023 - k).
    """
    if not p.size:
        return 0.0
    k = (p.size + 1).bit_length()
    limbs = []
    q = np.empty_like(p)
    while True:
        top = max(p.max(), -p.min())
        if top == 0:
            return fsum(limbs)
        if not isfinite(top):
            raise ValueError(f"cannot sum a non-finite term ({top})")
        sigma = ldexp(1.0, frexp(top)[1] + k)
        np.add(p, sigma, out=q)
        q -= sigma
        limbs.append(float(q.sum()))
        if len(limbs) == 1:
            p = p - q  # leaves the caller's array alone
        else:
            p -= q


def _reduce(col: np.ndarray, keep, primes: np.ndarray, weight: PrimeWeight, lo: int,
            sign: int = 1) -> float:
    """fsum of sign * col[i] * f(primes[i]) / (lo + i) over the kept terms.

    Only the kept entries are converted to float64; the sign is applied
    there, which rounds the same as negating each term.
    """
    sel, num, fv = _select(col, keep, primes, weight)
    num = num.astype(np.float64)
    if sign < 0:
        np.negative(num, out=num)
    if fv is not None:
        num *= fv
    num /= sel + lo
    return _exact_sum(num)


def _lcm_sum(pairs: list[tuple[int, int]]) -> tuple[int, int]:
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


def _reduce_exact(col: np.ndarray, keep, primes: np.ndarray, weight: PrimeWeight, lo: int,
                  sign: int = 1) -> Fraction:
    """The exact value of the sum _reduce rounds, from the same selection.

    Terms are grouped by their f value (the 0/1 weights form one group
    with f = 1); each group sums a/n as an integer pair and is scaled by
    the exact rational value of its f, and the groups merge into one
    Fraction.
    """
    sel, a, fv = _select(col, keep, primes, weight)
    dens = sel + lo
    groups = [(1, a, dens)] if fv is None else [
        (Fraction(v), a[fv == v], dens[fv == v]) for v in np.unique(fv)
    ]
    parts = []
    for f, num, den in groups:
        n, d = _lcm_sum(list(zip(num.tolist(), den.tolist())))
        parts.append((sign * n * f.numerator, d * f.denominator))
    return Fraction(*_lcm_sum(parts))


def _c_column(mu: np.ndarray, divisors, lo: int, hi: int) -> np.ndarray:
    """sum of d * mu(n / d) over the given divisors d dividing n, n in [lo, hi).

    With every divisor of m this is c_n(m); leaving out d = 1 gives
    c_n(m) - mu(n) with no cancellation.  Each divisor adds one contiguous
    mu slice at stride d (n = d*j walks j0..j1).
    """
    col = np.zeros(hi - lo, dtype=np.int64)
    for d in divisors:
        j0 = (lo + d - 1) // d
        j1 = (hi - 1) // d
        if j1 >= j0:
            col[j0 * d - lo : j1 * d - lo + 1 : d] += d * mu[j0 : j1 + 1].astype(np.int64)
    return col


def _divisors(m: int) -> list[int]:
    """Divisors of m, ascending, from its trial-division factors."""
    divs = [1]
    for p, e in _trial_factors(m):
        divs += [d * p**i for i in range(1, e + 1) for d in divs]
    return sorted(divs)


# --- unit factories: (table, spec) -> (unit, combine) for the driver ---


def _weighted_units(t: SpfTable, spec: SeriesSpec):
    """-sum c_n(m) f(p(n)) / n; m defaults to 1, f to the spec's weight."""
    spf, mu, weight = t.spf, t.mu_table(), spec.prime_weight
    divs = _divisors(spec.m or 1)

    def unit(lo: int, hi: int) -> float:
        return _reduce(_c_column(mu, divs, lo, hi), None, spf[lo:hi], weight, lo, -1)

    return unit, _float_total()


def _mu_mn_units(t: SpfTable, spec: SeriesSpec):
    """-sum mu(m n) / n with f(p(n)) the (k, l) class indicator.

    mu(m*n) never factors m*n directly: it is mu(m)*mu(n) when
    gcd(m, n) = 1 and 0 otherwise (a shared prime makes m*n non-squarefree).
    m is factored by trial division, so it need not lie in the table.
    """
    mu_m = _mu_trial(spec.m)
    if mu_m == 0:
        return (lambda lo, hi: 0.0), _float_total()
    spf, mu, weight = t.spf, t.mu_table(), spec.prime_weight
    m_primes = [p for p, _ in _trial_factors(spec.m)]

    def unit(lo: int, hi: int) -> float:
        keep = None
        if m_primes:
            n = np.arange(lo, hi, dtype=np.int64)
            keep = np.logical_and.reduce([n % p != 0 for p in m_primes])
        return _reduce(mu[lo:hi], keep, spf[lo:hi], weight, lo, -mu_m)

    return unit, _float_total()


def _above(t: SpfTable, y: int):
    """Support mask p(n) > y.  spf <= limit, so comparing against
    min(y, limit) is the same test and keeps any y inside uint32."""
    bar = np.uint32(min(y, t.limit))
    return lambda lo, hi: t.spf[lo:hi] > bar


def _mertens_units(t: SpfTable, spec: SeriesSpec):
    above, mu = _above(t, spec.y), t.mu_table()

    def unit(lo: int, hi: int) -> int:
        return int(mu[lo:hi][above(lo, hi)].astype(np.int64).sum())

    # 1 is the n = 1 sentinel term
    return unit, lambda x, sums: (float(1 + sum(sums)), None)


def _mu_over_n_units(t: SpfTable, spec: SeriesSpec):
    above, mu, spf, weight = _above(t, spec.y), t.mu_table(), t.spf, spec.prime_weight

    def unit(lo: int, hi: int) -> float:
        return _reduce(mu[lo:hi], above(lo, hi), spf[lo:hi], weight, lo)

    return unit, _float_total(head=(1.0,))  # 1.0 is the n = 1 sentinel term


def _lpf_units(t: SpfTable, spec: SeriesSpec):
    """(1/x) sum f(P(n)); indicator weights also keep the integer count."""
    lpf, weight = t.lpf_table(), spec.weight
    indicator = weight.kind in ("residue", "one")

    def unit(lo: int, hi: int):
        if indicator:
            wmask = weight.mask(lpf[lo:hi])
            cnt = hi - lo if wmask is None else int(np.count_nonzero(wmask))
            return float(cnt), cnt
        vals = weight.values(lpf[lo:hi])
        return _exact_sum(vals[vals != 0.0]), None

    def combine(x: int, parts):
        value = fsum(s for s, _ in parts) / x
        return value, (sum(c for _, c in parts) if indicator else None)

    return unit, combine


def _trial_factors(k: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of k by trial division, so that no target
    needs the table (k and m are at most MAX_LIMIT)."""
    out, d = [], 2
    while d * d <= k:
        if k % d == 0:
            e = 0
            while k % d == 0:
                k //= d
                e += 1
            out.append((d, e))
        d += 1
    if k > 1:
        out.append((k, 1))
    return out


def _totient(k: int) -> int:
    phi = k
    for p, _ in _trial_factors(k):
        phi -= phi // p
    return phi


def _inverse_phi(spec: SeriesSpec) -> float:
    return 1.0 / _totient(spec.k)


def _mu_trial(m: int) -> int:
    """mu(m) from its trial-division factors."""
    factors = _trial_factors(m)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def _mu_mn_target(spec: SeriesSpec) -> float:
    return _mu_trial(spec.m) / _totient(spec.k)


def _lpf_target(spec: SeriesSpec) -> float | None:
    if spec.target is not None:
        return spec.target
    if spec.weight.kind == "residue":
        return 1.0 / _totient(spec.weight.k)
    return 1.0 if spec.weight.kind == "one" else None


@dataclass(frozen=True)
class SeriesKind:
    """One entry of the kind registry.

    params: the SeriesSpec fields among m, k, l, y, weight that the kind
        requires; it takes no others.
    target: spec -> the value the series tends to, or None; it reads no
        table, so a missing target is known before any table is built.
    units: (table, spec) -> (unit, combine) for the checkpoint driver.
    """

    params: tuple[str, ...]
    target: Callable[[SeriesSpec], float | None]
    units: Callable


#: The series kinds.  p(n) is the smallest and P(n) the largest prime
#: factor; the restricted kinds include n = 1 through p(1) = infinity.
SERIES_KINDS: dict[str, SeriesKind] = {
    # -sum mu(n)/n over 2 <= n <= x -> 1
    "mu-baseline": SeriesKind((), lambda s: 1.0, _weighted_units),
    # the same restricted to p(n) = l (mod k) -> 1/phi(k)
    "alladi": SeriesKind(("k", "l"), _inverse_phi, _weighted_units),
    # -sum c_n(m)/n over p(n) = l (mod k) -> 1/phi(k)
    "ramanujan-alladi": SeriesKind(("m", "k", "l"), _inverse_phi, _weighted_units),
    # -sum mu(m*n)/n over p(n) = l (mod k) -> mu(m)/phi(k)
    "mu-mn": SeriesKind(("m", "k", "l"), _mu_mn_target, _mu_mn_units),
    # sum mu(n) over 1 <= n <= x with p(n) > y (integer values)
    "mertens-restricted": SeriesKind(("y",), lambda s: None, _mertens_units),
    # sum mu(n)/n over 1 <= n <= x with p(n) > y -> 0
    "mu-over-n-restricted": SeriesKind(("y",), lambda s: 0.0, _mu_over_n_units),
    # -sum c_n(m) f(p(n))/n -> the caller's target, if any
    "weighted-lhs": SeriesKind(("m", "weight"), lambda s: s.target, _weighted_units),
    # (1/x) sum f(P(n)) over 2 <= n <= x -> 1/phi(k) for residue indicators
    "lpf-density": SeriesKind(("weight",), _lpf_target, _lpf_units),
}


def run_series(t: SpfTable, spec: SeriesSpec) -> PartialSumSeries:
    """Evaluate a SeriesSpec at its checkpoints.

    The returned series carries the spec with the kind's target filled in.
    """
    kind = SERIES_KINDS[spec.kind]
    cps = spec.checkpoints
    if not cps:
        raise ValueError("at least one checkpoint is required")
    if cps[-1] > t.limit:
        raise ValueError(f"checkpoint {cps[-1]} exceeds sieve limit {t.limit}")
    unit, combine = kind.units(t, spec)
    spec = replace(spec, target=kind.target(spec))
    rows = tuple(
        SeriesRow(x, value, None if spec.target is None else abs(value - spec.target), count)
        for x, (value, count) in zip(cps, _drive(unit, combine, cps))
    )
    return PartialSumSeries(spec=spec, rows=rows)


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


def weighted_lhs(
    t: SpfTable, m: int, weight: PrimeWeight, checkpoints, *, target=None
) -> PartialSumSeries:
    """-sum c_n(m) f(p(n)) / n for a bounded prime weight f.

    No target is recorded unless the caller supplies the density it
    expects the dual largest-prime-factor count to have.
    """
    spec = SeriesSpec(
        kind="weighted-lhs", m=m, weight=weight, checkpoints=tuple(checkpoints), target=target
    )
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


def lpf_density(t: SpfTable, weight: PrimeWeight, checkpoints, *, target=None) -> PartialSumSeries:
    """(1/x) sum f(P(n)) over 2 <= n <= x, P the largest prime factor.

    For residue-indicator weights the target defaults to 1/phi(k) and each
    row keeps the exact integer count alongside the ratio.
    """
    spec = SeriesSpec(
        kind="lpf-density", weight=weight, checkpoints=tuple(checkpoints), target=target
    )
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
    spf, mu = t.spf, t.mu_table()
    # the d = 1 term of c_n(m) is mu(n), so the lhs column leaves it out
    divs = _divisors(m)[1:]
    reduce = _reduce_exact if exact else _reduce
    add = (lambda parts: sum(parts, Fraction(0))) if exact else fsum

    def lhs_unit(lo: int, hi: int):
        return reduce(_c_column(mu, divs, lo, hi), None, spf[lo:hi], weight, lo)

    def rhs_unit(d: int):
        # n walks [lo, hi) and f reads p(d*n)
        return lambda lo, hi: reduce(mu[lo:hi], None, spf[d * lo : d * (hi - 1) + 1 : d],
                                     weight, lo)

    def total(unit, top: int, start: int):
        return _drive(unit, lambda _, parts: (add(parts), None), (top,), start=start)[0][0]

    lhs = total(lhs_unit, x, 2)
    rhs = add([total(rhs_unit(d), x // d, 1) for d in divs if x // d >= 1])
    return lhs, rhs
