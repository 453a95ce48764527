"""Smallest-prime-factor sieve tables and the arithmetic functions they back.

Everything downstream (Ramanujan sums, series partial sums, densities) reads
from one immutable SpfTable: an array holding the smallest prime factor of
every n up to a configured limit.  From that array we derive, on demand,
mu(n), the largest prime factor P(n), and factorizations as plain
[(prime, exponent), ...] lists.  The module also owns _SMALL_PRIMES, the
primes below 2**16, sieved once at import: the sieve's base primes and
the trial divisors of _trial_factors, which factors any k < 2**32 off
the table (m, the oracle's moduli); _divisors lists either one's divisors.

The sieve splits every n by parity (the two-spoke wheel).  Every even
n >= 2 has spf 2, written by one stride-2 slice.  For the odd n it walks
the odd base primes p <= sqrt(limit) in descending order and stores p at
every odd multiple from p*p on, at stride 2p, so the smallest prime is
written last and wins; odd entries left at 0 are primes and get
themselves.  It marks the cells of [0, limit] on the CHUNK grid.

The bulk mu and largest-prime-factor tables come from spf alone, by the
cofactor recurrence of the linear sieve (Gries & Misra, CACM 1978).  With
s = spf(n) and q = n / s:

    mu(n)  = 0 if s | q else -mu(q),   mu(1) = 1
    lpf(n) = max(lpf(q), s),           lpf(1) = 0

Even n have closed forms that read only j = n / 2:

    mu(2j)  = -mu(j) for odd j, 0 for even j
    lpf(2j) = max(lpf(j), 2)

so a step fills them by strided slices, with no division, and runs the
recurrence on the odd n alone, at stride 2.  For those,
s | q is the same test as spf(q) = s, since no prime below s divides q,
and it reads no table: s divides q exactly when the float64 quotient q / s
is an integer.  That holds for every q < 2**32.  If s divides q, the
quotient is an integer and is represented exactly.  If not, q / s lies at
least 1/s from every integer, while rounding moves it by at most
q / s * 2**-53 < 2**-21 / s.  So mu reads only spf(n) and mu(q), never
the 4-byte spf(q).

The recurrence runs over doubling blocks [lo, hi) with hi <= 2*lo.  Every
cofactor of a block is below lo, so it is already filled, and the block is
one vectorised pass.  Its units, the block's cells on the CHUNK grid, are
mapped over threads, and each unit runs its odd n in pieces of
_CACHE_BLOCK entries, whose float64 temporaries (256 KiB buffers,
allocated once per unit) stay in cache.

One grid, one driver: every threaded walk (the sieve's segments, the
mu/lpf units, the series rows, the identity sides and the exact layout's
prime scan) cuts its range on the fixed CHUNK grid and goes through
_drive.  A walk reads each grid cell of its range once; a top that ends
inside a cell cuts it, and the cell's unit returns one result per end.
The driver maps the cells of all its walks over one thread per CPU
(_THREADS) and folds each top's results in cell order, so no result
depends on the thread count.

Memory per n: 4 bytes for spf (uint32), so a limit of 10**8 costs ~400 MB
resident.  Limits must stay below 2**32.  The mu and lpf tables, built
lazily for bulk workloads, cost 1 and 4 more bytes per n; a table loaded
from a cache holds its mu from the start.

Cache file (version 3, little-endian): the 25-byte header b"SPFT",
uint32 version, uint64 limit, uint8 spf entry width (4) and one uint32
zlib.crc32 per payload, then the two payloads: the limit+1 uint32 spf
entries and the limit+1 int8 mu entries, 5 bytes per n.  Every series
kind but lpf-density reads mu, so the save derives it (if the table has
not) and a load derives nothing; lpf stays out, as only lpf-density reads
it.  A save creates the target's directory and renames a temporary file
written beside the target into place, so an interrupted save leaves the
old file or none; a target that exists but is not a regular file (a FIFO,
a device, a directory) is refused, not replaced, by check_spf_target,
which a caller can also run before it builds the table.  The payload
writes (one job) and the two checksums run as three jobs on _thread_map,
all releasing the GIL, and the header goes in last; a load checks both
checksums as two jobs.  A load fails three ways: NotACacheError if the
path is not a regular file, which is never opened, or if its first bytes
are no prefix of b"SPFT", else ValueError for a truncated file (shorter
than the header, unlike any older cache) or a bad one (other version,
width or limit, wrong size or checksum).
"""

from __future__ import annotations

import os
import stat
import struct
import zlib
from bisect import bisect_left, bisect_right
from concurrent import futures
from dataclasses import dataclass, field
from functools import partial
from math import isqrt
from typing import Iterator

import numpy as np

#: Largest supported sieve limit (uint32 entries).
MAX_LIMIT = 2**32 - 1

#: Entries per cell of the one grid that every threaded walk is cut on;
#: fixed, so that no result depends on thread scheduling.
CHUNK = 1 << 20

#: Entries per cache-sized piece, 256 KiB of float64.  The mu/lpf steps
#: walk their units in pieces of this length, through buffers allocated
#: once per unit, so the temporaries stay in cache.
_CACHE_BLOCK = 1 << 15

#: Threads of every parallel step: one per CPU.
_THREADS = os.cpu_count() or 1

_CACHE_MAGIC = b"SPFT"
_CACHE_VERSION = 3
_ENTRY_WIDTH = 4
#: magic, version, limit, spf entry width, crc32 of the spf and of the mu payload
_HEADER = struct.Struct("<4sIQBII")


def _small_primes() -> np.ndarray:
    prime = np.ones(2**16, dtype=bool)
    prime[:2] = False
    for p in range(2, 2**8):
        if prime[p]:
            prime[p * p :: p] = False
    primes = np.flatnonzero(prime).astype(np.int64, copy=False)
    primes.setflags(write=False)
    return primes


#: The primes below 2**16, ascending read-only int64, by one plain sieve at
#: import: the sieve's base primes for any limit (sqrt(MAX_LIMIT) < 2**16),
#: and the trial divisors of _trial_factors, as every composite below 2**32
#: has one as a factor.
_SMALL_PRIMES = _small_primes()


def _thread_map(calls: list) -> Iterator:
    """f(*args) for each (f, *args) in calls, mapped over up to _THREADS
    threads and yielded in call order.  Nothing runs until the first result
    is asked for, so a caller must consume it; one that folds each result
    as it comes holds about one per thread.

    A single call, or a single thread, runs in the calling thread, one
    call per result asked for.
    """
    threads = min(_THREADS, len(calls))
    if threads <= 1:
        yield from map(_call, calls)
        return
    with futures.ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(_call, calls)


def _call(call: tuple):
    return call[0](*call[1:])


def _cells(start: int, top: int) -> list[tuple[int, int]]:
    """[start, top) cut on the fixed CHUNK grid: whole grid cells, then a
    last cell ending at top (empty when top <= start).

    Every cell but the last is a grid cell, so the cells of one range are
    a function of that range alone and shared by any schedule.
    """
    if top <= start:
        return []
    bounds = [start, *range((start // CHUNK + 1) * CHUNK, top, CHUNK), top]
    return list(zip(bounds, bounds[1:]))


def _concat(parts: tuple, result) -> tuple:
    return (*parts, result)


def _drive(walks, add=_concat, zero=()) -> Iterator:
    """For each walk (unit, tops, start) in turn and each of its ascending
    tops x, the fold from zero by add of x's unit results in cell order.

    A walk reads each cell of [start, max(tops) + 1) on the CHUNK grid
    once, and the cells of every walk go over one thread map.  A top that
    ends inside a cell cuts it: unit(lo, *ends) works on the cell
    [lo, ends[-1]) and gets the ascending ends x + 1 of the tops that cut
    it, then the cell's own end.  It returns one result per end, that of
    [lo, end), so a walk of one top calls unit(lo, hi).  x reads the
    result at the end of each cell below x + 1, then the one at x + 1; a
    top below start reads none.

    Each walk folds its cells as the threads yield them, and no cell's
    results outlive its turn of the loop, so a walk holds its running fold
    and the cells in flight.
    """
    plans = []
    for unit, tops, start in walks:
        cuts = [x + 1 for x in tops]
        cells = [(unit, lo, *dict.fromkeys(cuts[bisect_right(cuts, lo) : bisect_left(cuts, hi)]), hi)
                 for lo, hi in _cells(start, max(cuts, default=start))]
        plans.append((cuts, start, cells))
    results = _thread_map([cell for _, _, cells in plans for cell in cells])
    for cuts, start, cells in plans:
        i = bisect_right(cuts, start)
        yield from [zero] * i
        acc = zero
        for _, _, *ends in cells:
            for end, value in zip(ends, map(partial(add, acc), next(results))):
                while i < len(cuts) and cuts[i] == end:
                    yield value
                    i += 1
            acc = value


@dataclass(eq=False)
class SpfTable:
    """Smallest prime factor of every integer in [2, limit].

    Attributes:
        limit: inclusive upper bound of the table.
        spf: uint32 array of length limit+1; spf[n] is the smallest prime
            dividing n for 2 <= n <= limit.  spf[0] and spf[1] are 0 and
            must never be read.  spf[n] == n exactly when n is prime.

    The array is frozen after construction and safe to share across
    threads; a table equals only itself and hashes by identity.  The lazy
    mu/lpf tables are pure functions of spf, so a racy double build is
    harmless.  A table from load_spf_table comes with its mu table, read
    from the cache.
    """

    limit: int
    spf: np.ndarray
    _mu: np.ndarray | None = field(default=None, repr=False)
    _lpf: np.ndarray | None = field(default=None, repr=False)

    def mu_table(self) -> np.ndarray:
        """Precomputed mu(n) for all n <= limit (int8); mu[0] = 0.

        Opt-in bulk companion to :func:`moebius`; costs one byte per entry.
        A table from load_spf_table has it already; a save derives it.
        """
        if self._mu is None:
            self._mu = _derive(self.spf, np.int8, (0, 1), _mu_step)
        return self._mu

    def lpf_table(self) -> np.ndarray:
        """Largest prime factor of every n in [2, limit] (uint32); 0 below 2."""
        if self._lpf is None:
            self._lpf = _derive(self.spf, np.uint32, (0, 0), _lpf_step)
        return self._lpf


def _cofactor_pieces(spf: np.ndarray, lo: int, hi: int):
    """Yield (a, b, s, q, idx) for each piece of the odd n in [lo, hi),
    2 <= lo: the odd n in [a, b), a odd, with s = spf(n), q = n / s in
    float64 and idx = q as indices, so s, q and idx line up with the
    stride-2 slice [a:b:2].

    Pieces hold at most _CACHE_BLOCK odd n.  q and idx are views of
    buffers allocated once per call and refilled for every piece, so the
    caller may overwrite them.  The float64 quotient is exact: n < 2**32 <
    2**53 and s divides n.
    """
    first = lo | 1
    width = min(_CACHE_BLOCK, (hi - first + 1) // 2)
    if width <= 0:
        return
    n = np.arange(first, first + 2 * width, 2, dtype=np.float64)
    q = np.empty(width)
    idx = np.empty(width, dtype=np.intp)
    for a in range(first, hi, 2 * width):
        b = min(a + 2 * width, hi)
        s = spf[a:b:2]
        k = len(s)
        np.divide(n[:k], s, out=q[:k])
        idx[:k] = q[:k]
        yield a, b, s, q[:k], idx[:k]
        n += 2 * width


def _halves(lo: int, hi: int) -> tuple[slice, slice]:
    """(even, half): the even n in [lo, hi), 2 <= lo, as a stride-2 slice,
    and the n / 2 of those n, all below lo, as a contiguous one."""
    even = lo + (lo & 1)
    return slice(even, hi, 2), slice(even // 2, (hi + 1) // 2)


def _mu_step(spf: np.ndarray, mu: np.ndarray, lo: int, hi: int) -> None:
    """mu(n) for n in [lo, hi).  Even n = 2j take mu(2j) = -mu(j) for odd
    j and 0 for even j.  Odd n take -mu(q) * [s does not divide q],
    s = spf(n), q = n / s, written straight into mu as one int8 product
    per piece.

    spf(q) is never read: s | q comes from _indivisible.
    """
    even, half = _halves(lo, hi)
    np.negative(mu[half], out=mu[even])
    mu[(lo + 3) // 4 * 4 : hi : 4] = 0
    floor = np.empty(min(_CACHE_BLOCK, (hi - lo + 1) // 2))
    for a, b, s, q, idx in _cofactor_pieces(spf, lo, hi):
        np.multiply(-mu[idx], _indivisible(q, s, floor[: len(q)]), out=mu[a:b:2])


def _indivisible(q: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Whether s fails to divide q, for float64 q holding integers in
    [0, 2**32) and integers s >= 1.

    Tested as q / s != floor(q / s) in float64, which is exact (see the
    module doc).  q / s overwrites q, and its floor goes to the scratch
    array out.
    """
    q /= s
    return q != np.floor(q, out=out)


def _lpf_step(spf: np.ndarray, lpf: np.ndarray, lo: int, hi: int) -> None:
    """lpf(n) for n in [lo, hi): lpf(2j) = max(lpf(j), 2) for even n, and
    max(lpf(q), s) for odd n, one piece at a time."""
    even, half = _halves(lo, hi)
    np.maximum(lpf[half], 2, out=lpf[even])
    gathered = np.empty(min(_CACHE_BLOCK, (hi - lo + 1) // 2), dtype=lpf.dtype)
    for a, b, s, q, idx in _cofactor_pieces(spf, lo, hi):
        # the indices are in range, and mode="clip" lets take fill the buffer directly
        np.maximum(np.take(lpf, idx, out=gathered[: len(q)], mode="clip"), s, out=lpf[a:b:2])


def _derive(spf: np.ndarray, dtype, seed: tuple[int, int], step) -> np.ndarray:
    """A read-only table t with t[:2] = seed and t[2:] filled by step(spf, t, lo, hi).

    Doubling blocks [lo, hi), hi <= 2*lo, run in order: every cofactor
    n / spf(n) of a block is below lo and so already filled.  The cells of
    one block are independent units, driven over threads; step walks its
    unit in cache-sized pieces.
    """
    n = len(spf)
    out = np.empty(n, dtype=dtype)
    out[:2] = seed
    lo = 2
    while lo < n:
        hi = min(2 * lo, n)
        next(_drive([(lambda a, b: [step(spf, out, a, b)], (hi - 1,), lo)]))
        lo = hi
    out.setflags(write=False)
    return out


def _divisors(factors: list[tuple[int, int]]) -> list[int]:
    """All positive divisors of the number with these (prime, exponent) pairs, ascending."""
    divs = [1]
    for p, e in factors:
        divs += [d * p**i for i in range(1, e + 1) for d in divs]
    return sorted(divs)


def _trial_factors(k: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of k in [1, MAX_LIMIT], ascending, found
    without the table.  What is left once the primes up to sqrt(k) < 2**16 that
    divide k are divided out is 1 or a prime."""
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


def _mark_segment(spf: np.ndarray, odd: list[int], lo: int, hi: int) -> None:
    # The odd base primes, descending, with plain stores at their odd
    # multiples only: the last prime written to an odd composite is its
    # smallest factor.  Composites n with spf(n)=p satisfy n >= p*p, so
    # starting at p*p never skips one.
    for p in reversed(odd):
        start = (lo + p - 1) // p * p
        start = max(p * p, start if start & 1 else start + p)
        if start < hi:
            spf[start : hi : 2 * p] = p
    # every even n >= 2 has spf 2; n = 0 stays 0
    spf[max(2, lo + (lo & 1)) : hi : 2] = 2
    # untouched odd entries >= 3 are primes
    first = max(3, lo | 1)
    rel = np.flatnonzero(spf[first:hi:2] == 0) * 2 + first
    spf[rel] = rel.astype(np.uint32)


def build_spf_table(limit: int) -> SpfTable:
    """Sieve the smallest prime factor of every n in [2, limit].

    The cells of [0, limit] on the CHUNK grid are marked over the
    driver's threads; the finished table is bit-identical for any cell
    length or thread count.

    Args:
        limit: inclusive upper bound, >= 2 and < 2**32.

    Raises:
        ValueError: limit < 2.
        MemoryError: limit exceeds the uint32 entry budget.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_LIMIT:
        raise MemoryError(
            f"sieve limit {limit} exceeds the 4-byte-entry budget (max {MAX_LIMIT})"
        )

    spf = np.zeros(limit + 1, dtype=np.uint32)
    odd = _SMALL_PRIMES[1 : np.searchsorted(_SMALL_PRIMES, isqrt(limit), side="right")].tolist()
    next(_drive([(lambda lo, hi: [_mark_segment(spf, odd, lo, hi)], (limit,), 0)]))
    spf.setflags(write=False)
    return SpfTable(limit=limit, spf=spf)


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
    return factorize(t, n)[-1][0]


def moebius(t: SpfTable, n: int) -> int:
    """mu(n): (-1)^k for squarefree n with k prime factors, else 0.

    Its own walk, not factorize: it stops at the first repeated prime, for
    the per-n oracles' point queries.  n = 1 runs through the same walk.
    """
    _check_range(t, n, 1)
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


def factorize(t: SpfTable, n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n, primes ascending, by repeated
    smallest-prime division (O(log n) steps)."""
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
    return out


class NotACacheError(ValueError):
    """The path is not an spf cache: not a regular file, or one whose leading
    bytes are not a prefix of b"SPFT"."""


def check_spf_target(path: str) -> None:
    """OSError if path exists but is not a regular file, which a save
    refuses to replace: callers can ask before they build a table."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"cannot write spf cache to {path}: not a regular file")


def save_spf_table(t: SpfTable, path: str) -> None:
    """Write the spf and mu arrays as a version-3 binary cache (see the
    module doc), 5 bytes per n, creating the directory of path.  mu is
    derived first if the table has not yet.  The bytes go to a temporary
    file beside path, which then replaces it, so an interrupted save leaves
    the previous file or none.  check_spf_target runs first, before
    anything is written."""
    check_spf_target(path)
    payloads = (t.spf.astype("<u4", copy=False), t.mu_table())
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        try:
            with open(tmp, "xb") as fh:
                # the checksums and the payload writes overlap: all release the GIL
                fh.seek(_HEADER.size)
                _, *crcs = _thread_map([(fh.writelines, [a.data for a in payloads]),
                                        *((zlib.crc32, a) for a in payloads)])
                fh.seek(0)
                fh.write(_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, t.limit, _ENTRY_WIDTH, *crcs))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write spf cache to {path}: {exc}") from exc


def load_spf_table(path: str) -> SpfTable:
    """Load a cache written by save_spf_table, with its mu table set and
    read-only: NotACacheError for a file that is not a cache, ValueError for
    a truncated or bad one (see the module doc).  The path is checked
    before it is opened, so a FIFO never blocks."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise NotACacheError(f"{path}: not a regular file")
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            size = os.fstat(fh.fileno()).st_size
            if not _CACHE_MAGIC.startswith(head[: len(_CACHE_MAGIC)]):
                raise NotACacheError(f"{path}: not an spf cache (bad magic)")
            if len(head) < _HEADER.size:
                raise ValueError(f"{path}: truncated cache header")
            _, version, limit, width, *crcs = _HEADER.unpack(head)
            if version != _CACHE_VERSION:
                raise ValueError(f"{path}: unsupported cache version {version}")
            if width != _ENTRY_WIDTH:
                raise ValueError(f"{path}: unsupported entry width {width}")
            if not 2 <= limit <= MAX_LIMIT:
                raise ValueError(f"{path}: table limit {limit} out of range")
            expected = (limit + 1) * (_ENTRY_WIDTH + 1)
            if size - _HEADER.size != expected:
                raise ValueError(
                    f"{path}: truncated cache (expected {expected} entry bytes, "
                    f"got {size - _HEADER.size})"
                )
            spf = np.fromfile(fh, dtype="<u4", count=limit + 1)
            mu = np.fromfile(fh, dtype=np.int8, count=limit + 1)
    except OSError as exc:
        raise OSError(f"cannot read spf cache from {path}: {exc}") from exc
    whole = len(spf) == len(mu) == limit + 1
    if not whole or list(_thread_map([(zlib.crc32, a) for a in (spf, mu)])) != crcs:
        raise ValueError(f"{path}: damaged cache (payload checksum mismatch)")
    spf = spf.astype(np.uint32, copy=False)
    spf.setflags(write=False)
    mu.setflags(write=False)
    return SpfTable(limit=int(limit), spf=spf, _mu=mu)
