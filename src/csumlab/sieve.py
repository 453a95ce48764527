"""Smallest-prime-factor sieve tables and the arithmetic functions they back.

Everything downstream (Ramanujan sums, series partial sums, densities) reads
from one immutable SpfTable: an array holding the smallest prime factor of
every n up to a configured limit.  From that array we derive, on demand,
mu(n), phi(n), the largest prime factor P(n), and full factorizations.

Memory budget: 4 bytes per entry for the spf array (uint32), so a limit of
10**8 costs ~400 MB resident.  Limits must stay below 2**32.  Optional
whole-range mu / largest-prime-factor tables cost 1 / 4 additional bytes
per entry and are built lazily for bulk workloads.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

#: Largest supported sieve limit (uint32 entries).
MAX_LIMIT = 2**32 - 1

#: Default segment length for sieve construction.
DEFAULT_SEGMENT = 1 << 22

_CACHE_MAGIC = b"SPFT"
_CACHE_VERSION = 1
_ENTRY_WIDTH = 4


@dataclass
class SpfTable:
    """Smallest prime factor of every integer in [2, limit].

    Attributes:
        limit: inclusive upper bound of the table.
        spf: uint32 array of length limit+1; spf[n] is the smallest prime
            dividing n for 2 <= n <= limit.  spf[0] and spf[1] are 0 and
            must never be read.  spf[n] == n exactly when n is prime.

    The array is frozen after construction and safe to share across
    threads.  The lazy mu/lpf tables are pure functions of spf, so a
    racy double build is harmless.
    """

    limit: int
    spf: np.ndarray
    _primes: np.ndarray | None = field(default=None, repr=False, compare=False)
    _mu: np.ndarray | None = field(default=None, repr=False, compare=False)
    _lpf: np.ndarray | None = field(default=None, repr=False, compare=False)

    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending (int64)."""
        if self._primes is None:
            idx = np.arange(self.limit + 1, dtype=np.uint32)
            mask = self.spf == idx
            mask[:2] = False
            self._primes = np.flatnonzero(mask)
        return self._primes

    def mu_table(self) -> np.ndarray:
        """Precomputed mu(n) for all n <= limit (int8); mu[0] = 0.

        Opt-in bulk companion to :func:`moebius`; costs one byte per entry.
        """
        if self._mu is None:
            mu = np.ones(self.limit + 1, dtype=np.int8)
            mu[0] = 0
            for p in self.primes().tolist():
                mu[p::p] *= -1
                sq = p * p
                if sq <= self.limit:
                    mu[sq::sq] = 0
            mu.setflags(write=False)
            self._mu = mu
        return self._mu

    def lpf_table(self) -> np.ndarray:
        """Largest prime factor of every n in [2, limit] (uint32); 0 below 2."""
        if self._lpf is None:
            lpf = np.zeros(self.limit + 1, dtype=np.uint32)
            # ascending primes: the last prime to mark n is its largest factor
            for p in self.primes().tolist():
                lpf[p::p] = p
            lpf.setflags(write=False)
            self._lpf = lpf
        return self._lpf


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes ascending."""

    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        """The factored integer (product of prime**exponent)."""
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def divisors(self) -> list[int]:
        """All positive divisors, ascending."""
        divs = [1]
        for p, e in self.factors:
            pk = 1
            step = []
            for _ in range(e):
                pk *= p
                step.extend(d * pk for d in divs)
            divs.extend(step)
        divs.sort()
        return divs


def _mark_segment(spf: np.ndarray, base: list[int], lo: int, hi: int) -> None:
    # Ascending base primes: the first prime to reach a composite is its
    # smallest factor.  Composites n with spf(n)=p satisfy n >= p*p, so
    # starting at p*p never skips one.
    for p in base:
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start >= hi:
            continue
        view = spf[start:hi:p]
        view[view == 0] = p
    # untouched entries >= 2 are primes
    rel = np.flatnonzero(spf[lo:hi] == 0) + lo
    rel = rel[rel >= 2]
    spf[rel] = rel.astype(np.uint32)


def build_spf_table(
    limit: int,
    segment_size: int = DEFAULT_SEGMENT,
    workers: int = 1,
) -> SpfTable:
    """Sieve the smallest prime factor of every n in [2, limit].

    Construction is segmented; segments may be sieved by several threads.
    The finished table is bit-identical for any segment_size/workers choice.

    Args:
        limit: inclusive upper bound, >= 2 and < 2**32.
        segment_size: entries per construction segment.
        workers: threads marking segments concurrently (>= 1).

    Raises:
        ValueError: limit < 2 or bad segment/worker counts.
        MemoryError: limit exceeds the uint32 entry budget.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_LIMIT:
        raise MemoryError(
            f"sieve limit {limit} exceeds the 4-byte-entry budget (max {MAX_LIMIT})"
        )
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    spf = np.zeros(limit + 1, dtype=np.uint32)
    base = _base_primes(isqrt(limit))
    bounds = [(lo, min(lo + segment_size, limit + 1)) for lo in range(0, limit + 1, segment_size)]
    if workers == 1 or len(bounds) == 1:
        for lo, hi in bounds:
            _mark_segment(spf, base, lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: _mark_segment(spf, base, *b), bounds))
    spf.setflags(write=False)
    return SpfTable(limit=limit, spf=spf)


def _base_primes(r: int) -> list[int]:
    """Primes <= r by direct in-place marking (r is at most sqrt(limit))."""
    if r < 2:
        return []
    small = np.zeros(r + 1, dtype=np.uint32)
    for p in range(2, isqrt(r) + 1):
        if small[p] == 0:
            view = small[p * p :: p]
            view[view == 0] = p
    rel = np.flatnonzero(small == 0)
    rel = rel[rel >= 2]
    small[rel] = rel.astype(np.uint32)
    idx = np.arange(r + 1, dtype=np.uint32)
    return np.flatnonzero((small == idx) & (idx >= 2)).tolist()


def _check_range(t: SpfTable, n: int, lowest: int) -> None:
    if not lowest <= n <= t.limit:
        raise ValueError(f"n={n} outside table range [{lowest}, {t.limit}]")


def smallest_prime_factor(t: SpfTable, n: int) -> int:
    """p(n), the smallest prime dividing n, for 2 <= n <= limit.

    n = 1 is rejected here; series code treats p(1) as an infinite
    sentinel and never asks the table for it.
    """
    _check_range(t, n, 2)
    return int(t.spf[n])


def largest_prime_factor(t: SpfTable, n: int) -> int:
    """P(n), the largest prime dividing n, for 2 <= n <= limit."""
    _check_range(t, n, 2)
    spf = t.spf
    p = 0
    while n > 1:
        p = int(spf[n])
        n //= p
    return p


def moebius(t: SpfTable, n: int) -> int:
    """mu(n): 1 at n=1, (-1)^k for squarefree n with k prime factors, else 0."""
    _check_range(t, n, 1)
    if n == 1:
        return 1
    spf = t.spf
    sign = 1
    prev = 0
    while n > 1:
        p = int(spf[n])
        if p == prev:
            return 0
        sign = -sign
        prev = p
        n //= p
    return sign


def euler_phi(t: SpfTable, n: int) -> int:
    """phi(n), the count of 1 <= q <= n coprime to n."""
    _check_range(t, n, 1)
    if n == 1:
        return 1
    spf = t.spf
    phi = 1
    while n > 1:
        p = int(spf[n])
        n //= p
        pe = p - 1
        while n % p == 0:
            n //= p
            pe *= p
        phi *= pe
    return phi


def factorize(t: SpfTable, n: int) -> Factorization:
    """Factor n by repeated smallest-prime division (O(log n) steps)."""
    _check_range(t, n, 2)
    spf = t.spf
    out: list[tuple[int, int]] = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return Factorization(factors=tuple(out))


def save_spf_table(t: SpfTable, path: str) -> None:
    """Write the spf array as a binary cache (little-endian, SPFT header)."""
    header = _CACHE_MAGIC + struct.pack("<IQB", _CACHE_VERSION, t.limit, _ENTRY_WIDTH)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(t.spf.astype("<u4", copy=False).tobytes())
    except OSError as exc:
        raise OSError(f"cannot write spf cache to {path}: {exc}") from exc


def load_spf_table(path: str) -> SpfTable:
    """Load a cache written by save_spf_table, validating the header."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read spf cache from {path}: {exc}") from exc
    head = len(_CACHE_MAGIC) + struct.calcsize("<IQB")
    if len(blob) < head or blob[:4] != _CACHE_MAGIC:
        raise ValueError(f"{path}: not an spf cache (bad magic)")
    version, limit, width = struct.unpack("<IQB", blob[4:head])
    if version != _CACHE_VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    if width != _ENTRY_WIDTH:
        raise ValueError(f"{path}: unsupported entry width {width}")
    expected = (limit + 1) * _ENTRY_WIDTH
    if len(blob) - head != expected:
        raise ValueError(
            f"{path}: truncated cache (expected {expected} entry bytes, "
            f"got {len(blob) - head})"
        )
    spf = np.frombuffer(blob, dtype="<u4", offset=head).astype(np.uint32)
    spf.setflags(write=False)
    return SpfTable(limit=int(limit), spf=spf)
