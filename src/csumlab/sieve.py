"""Smallest-prime-factor sieve tables and the arithmetic functions they back.

Everything downstream (Ramanujan sums, series partial sums, densities) reads
from one immutable SpfTable: an array holding the smallest prime factor of
every n up to a configured limit.  From that array we derive, on demand,
mu(n), the largest prime factor P(n), and factorizations as plain
[(prime, exponent), ...] lists; _divisors lists the divisors of such a
list, for the table's factorizations and for trial-division ones alike.

The sieve walks the base primes p <= sqrt(limit) in descending order and
stores p at every multiple from p*p on, so the smallest prime is written
last and wins; entries left at 0 are primes and get themselves.  It marks
segments of _BLOCK entries.

The bulk mu and largest-prime-factor tables come from spf alone, by the
cofactor recurrence of the linear sieve (Gries & Misra, CACM 1978).  With
s = spf(n) and q = n / s:

    mu(n)  = 0 if s | q else -mu(q),   mu(1) = 1
    lpf(n) = max(lpf(q), s),           lpf(1) = 0

s | q is the same test as spf(q) = s, since no prime below s divides q,
and it reads no table: s divides q exactly when the float64 quotient q / s
is an integer.  That holds for every q < 2**32.  If s divides q, the
quotient is an integer and is represented exactly.  If not, q / s lies at
least 1/s from every integer, while rounding moves it by at most
q / s * 2**-53 < 2**-21 / s.  So mu reads only spf(n) and mu(q), never
the 4-byte spf(q).

The recurrence runs over doubling blocks [lo, hi) with hi <= 2*lo.  Every
cofactor of a block is below lo, so it is already filled, and the block is
one vectorised pass.  Its units of at most _BLOCK entries are mapped over
threads, and each unit runs its step on pieces of _CACHE_BLOCK entries,
whose float64 temporaries (256 KiB buffers, allocated once per unit) stay
in cache.

Thread policy: every parallel step (the sieve's segments, the mu/lpf
units and the series driver's chunk units) goes through one helper,
_thread_map, which maps over one thread per CPU (_THREADS) and runs in
the calling thread when there is a single item.  Work is split on fixed
boundaries, so no result depends on the thread count.

Memory per n: 4 bytes for spf (uint32), so a limit of 10**8 costs ~400 MB
resident.  Limits must stay below 2**32.  The optional mu and lpf tables,
built lazily for bulk workloads, cost 1 and 4 more bytes per n.

Cache file (version 2, little-endian): the 21-byte header b"SPFT",
uint32 version, uint64 limit, uint8 entry width (4) and uint32 zlib.crc32
of the payload, then the limit+1 uint32 spf entries.  A save writes a
temporary file beside the target and renames it into place, so an
interrupted save leaves the old file or none.  A load rejects any other
version, a wrong size or a checksum mismatch with ValueError.
"""

from __future__ import annotations

import os
import struct
import zlib
from concurrent import futures
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable

import numpy as np

#: Largest supported sieve limit (uint32 entries).
MAX_LIMIT = 2**32 - 1

#: Entries per sieve segment and per threaded unit of the mu/lpf derivation.
_BLOCK = 1 << 20

#: Entries per cache-sized piece, 256 KiB of float64.  The mu/lpf steps
#: walk their units in pieces of this length, through buffers allocated
#: once per unit, so the temporaries stay in cache.
_CACHE_BLOCK = 1 << 15

#: Threads of every parallel step: one per CPU.
_THREADS = os.cpu_count() or 1

_CACHE_MAGIC = b"SPFT"
_CACHE_VERSION = 2
_ENTRY_WIDTH = 4
#: magic, version, limit, entry width, crc32 of the payload
_HEADER = struct.Struct("<4sIQBI")


def _thread_map(fn: Callable, items: list) -> list:
    """[fn(*item) for item in items], mapped over up to _THREADS threads.

    A single item, or a single thread, runs in the calling thread.
    """
    threads = min(_THREADS, len(items))
    if threads <= 1:
        return [fn(*item) for item in items]
    with futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda item: fn(*item), items))


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
    harmless.
    """

    limit: int
    spf: np.ndarray
    _mu: np.ndarray | None = field(default=None, repr=False)
    _lpf: np.ndarray | None = field(default=None, repr=False)

    def mu_table(self) -> np.ndarray:
        """Precomputed mu(n) for all n <= limit (int8); mu[0] = 0.

        Opt-in bulk companion to :func:`moebius`; costs one byte per entry.
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
    """Yield (a, b, s, q, idx) for each piece [a, b) of [lo, hi), 2 <= lo:
    s = spf(n), q = n / s in float64 and idx = q as indices, n in [a, b).

    Pieces hold at most _CACHE_BLOCK entries.  q and idx are views of
    buffers allocated once per call and refilled for every piece, so the
    caller may overwrite them.  The float64 quotient is exact: n < 2**32 <
    2**53 and s divides n.
    """
    width = min(_CACHE_BLOCK, hi - lo)
    n = np.arange(lo, lo + width, dtype=np.float64)
    q = np.empty(width)
    idx = np.empty(width, dtype=np.intp)
    for a in range(lo, hi, width):
        b = min(a + width, hi)
        s = spf[a:b]
        np.divide(n[: b - a], s, out=q[: b - a])
        idx[: b - a] = q[: b - a]
        yield a, b, s, q[: b - a], idx[: b - a]
        n += width


def _mu_step(spf: np.ndarray, mu: np.ndarray, lo: int, hi: int) -> None:
    """mu(n) = -mu(q) * [s does not divide q] for n in [lo, hi), s = spf(n),
    q = n / s, written straight into mu as one int8 product per piece.

    spf(q) is never read: s | q comes from _indivisible.
    """
    floor = np.empty(min(_CACHE_BLOCK, hi - lo))
    for a, b, s, q, idx in _cofactor_pieces(spf, lo, hi):
        np.multiply(-mu[idx], _indivisible(q, s, floor[: b - a]), out=mu[a:b])


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
    """lpf(n) = max(lpf(q), s) for n in [lo, hi), one piece at a time."""
    gathered = np.empty(min(_CACHE_BLOCK, hi - lo), dtype=lpf.dtype)
    for a, b, s, q, idx in _cofactor_pieces(spf, lo, hi):
        # the indices are in range, and mode="clip" lets take fill the buffer directly
        np.maximum(np.take(lpf, idx, out=gathered[: b - a], mode="clip"), s, out=lpf[a:b])


def _derive(spf: np.ndarray, dtype, seed: tuple[int, int], step) -> np.ndarray:
    """A read-only table t with t[:2] = seed and t[2:] filled by step(spf, t, lo, hi).

    Doubling blocks [lo, hi), hi <= 2*lo, run in order: every cofactor
    n / spf(n) of a block is below lo and so already filled.  The units of
    at most _BLOCK entries of one block are independent and are mapped
    over threads; step walks its unit in cache-sized pieces.
    """
    n = len(spf)
    out = np.empty(n, dtype=dtype)
    out[:2] = seed
    lo = 2
    while lo < n:
        hi = min(2 * lo, n)
        _thread_map(step, [(spf, out, a, min(a + _BLOCK, hi)) for a in range(lo, hi, _BLOCK)])
        lo = hi
    out.setflags(write=False)
    return out


def _divisors(factors: list[tuple[int, int]]) -> list[int]:
    """All positive divisors of the number with these (prime, exponent) pairs, ascending."""
    divs = [1]
    for p, e in factors:
        divs += [d * p**i for i in range(1, e + 1) for d in divs]
    return sorted(divs)


def _mark_segment(spf: np.ndarray, base: list[int], lo: int, hi: int) -> None:
    # Descending base primes with plain stores: the last prime written to a
    # composite is its smallest factor.  Composites n with spf(n)=p satisfy
    # n >= p*p, so starting at p*p never skips one.
    for p in reversed(base):
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            spf[start:hi:p] = p
    # untouched entries >= 2 are primes
    rel = np.flatnonzero(spf[lo:hi] == 0) + lo
    rel = rel[rel >= 2]
    spf[rel] = rel.astype(np.uint32)


def build_spf_table(limit: int) -> SpfTable:
    """Sieve the smallest prime factor of every n in [2, limit].

    Segments of _BLOCK entries are marked over _thread_map's threads;
    the finished table is bit-identical for any segment length or thread
    count.

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
    base = _base_primes(isqrt(limit))
    segments = [(spf, base, lo, min(lo + _BLOCK, limit + 1))
                for lo in range(0, limit + 1, _BLOCK)]
    _thread_map(_mark_segment, segments)
    spf.setflags(write=False)
    return SpfTable(limit=limit, spf=spf)


def _base_primes(r: int) -> list[int]:
    """Primes <= r, sieved with the primes <= sqrt(r) (r is at most sqrt(limit))."""
    if r < 2:
        return []
    small = np.zeros(r + 1, dtype=np.uint32)
    _mark_segment(small, _base_primes(isqrt(r)), 0, r + 1)
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
    return factorize(t, n)[-1][0]


def moebius(t: SpfTable, n: int) -> int:
    """mu(n): 1 at n=1, (-1)^k for squarefree n with k prime factors, else 0.

    Its own walk, not factorize: it stops at the first repeated prime, and
    point queries of mu are the hot path of the per-n oracles.
    """
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


def save_spf_table(t: SpfTable, path: str) -> None:
    """Write the spf array as a version-2 binary cache (see the module doc).

    The bytes go to a temporary file beside path, which then replaces path,
    so an interrupted save leaves the previous file or none.
    """
    payload = t.spf.astype("<u4", copy=False)
    header = _HEADER.pack(
        _CACHE_MAGIC, _CACHE_VERSION, t.limit, _ENTRY_WIDTH, zlib.crc32(payload)
    )
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        try:
            with open(tmp, "xb") as fh:
                fh.write(header)
                fh.write(payload.data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write spf cache to {path}: {exc}") from exc


def load_spf_table(path: str) -> SpfTable:
    """Load a cache written by save_spf_table, validating header, size and checksum."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            size = os.fstat(fh.fileno()).st_size
            if len(head) < 8 or head[:4] != _CACHE_MAGIC:
                raise ValueError(f"{path}: not an spf cache (bad magic)")
            (version,) = struct.unpack_from("<I", head, 4)
            if version != _CACHE_VERSION:
                raise ValueError(f"{path}: unsupported cache version {version}")
            if len(head) < _HEADER.size:
                raise ValueError(f"{path}: truncated cache header")
            _, _, limit, width, crc = _HEADER.unpack(head)
            if width != _ENTRY_WIDTH:
                raise ValueError(f"{path}: unsupported entry width {width}")
            if not 2 <= limit <= MAX_LIMIT:
                raise ValueError(f"{path}: table limit {limit} out of range")
            expected = (limit + 1) * _ENTRY_WIDTH
            if size - _HEADER.size != expected:
                raise ValueError(
                    f"{path}: truncated cache (expected {expected} entry bytes, "
                    f"got {size - _HEADER.size})"
                )
            spf = np.fromfile(fh, dtype="<u4", count=limit + 1)
    except OSError as exc:
        raise OSError(f"cannot read spf cache from {path}: {exc}") from exc
    if len(spf) != limit + 1 or zlib.crc32(spf) != crc:
        raise ValueError(f"{path}: damaged cache (payload checksum mismatch)")
    spf = spf.astype(np.uint32, copy=False)
    spf.setflags(write=False)
    return SpfTable(limit=int(limit), spf=spf)
