"""Smallest-prime-factor table and derived arithmetic functions."""

import hashlib
import math
import os
import stat
import struct
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

import csumlab.sieve as sieve
from csumlab.series import _totient
from csumlab.sieve import NotACacheError, _divisors
from csumlab import (
    build_spf_table,
    factorize,
    largest_prime_factor,
    load_spf_table,
    moebius,
    save_spf_table,
    smallest_prime_factor,
)

from conftest import (
    divisors_naive,
    factorize_naive,
    lpf_naive,
    lpf_reference,
    mu_naive,
    mu_reference,
    phi_naive,
    spf_naive,
)


def self_factored(t):
    """The n >= 2 with spf(n) = n, read straight off the spf array."""
    idx = np.arange(t.limit + 1, dtype=np.uint32)
    return np.flatnonzero(t.spf[2:] == idx[2:]) + 2


def test_spf_matches_trial_division_exhaustive(table_small):
    for n in range(2, 3000):
        assert smallest_prime_factor(table_small, n) == spf_naive(n), n


def test_spf_matches_trial_division_random(table_mid):
    rng = np.random.default_rng(20260822)
    for n in rng.integers(2, 10**6, size=400):
        n = int(n)
        assert smallest_prime_factor(table_mid, n) == spf_naive(n), n


def test_smallest_valid_table():
    t = build_spf_table(2)
    assert smallest_prime_factor(t, 2) == 2
    assert t.limit == 2


def test_tiny_table_values():
    t = build_spf_table(10)
    expected = {2: 2, 3: 3, 4: 2, 5: 5, 6: 2, 7: 7, 8: 2, 9: 3, 10: 2}
    assert {n: int(t.spf[n]) for n in range(2, 11)} == expected


def test_table_equals_only_itself_and_hashes():
    # equality by identity: comparing the spf arrays field by field would
    # ask numpy for the truth value of an elementwise comparison
    t, u = build_spf_table(100), build_spf_table(100)
    assert t == t
    assert not t == u
    assert t != u
    assert {t, u, t} == {t, u}
    assert hash(t) == hash(t)
    assert {t: 1}[t] == 1


def test_large_prime_and_composite_entries(table_mid):
    assert smallest_prime_factor(table_mid, 999983) == 999983  # prime
    assert largest_prime_factor(table_mid, 999966) == lpf_naive(999966)
    assert smallest_prime_factor(table_mid, 999966) == spf_naive(999966)


def test_spf_is_small_or_self(table_small):
    # every entry is either <= sqrt(n) or n itself (n prime)
    n = np.arange(2, 10**4 + 1, dtype=np.float64)
    spf = table_small.spf[2:].astype(np.float64)
    assert bool(np.all((spf * spf <= n) | (spf == n)))


def test_oversized_limit_is_a_resource_error():
    with pytest.raises(MemoryError) as exc:
        build_spf_table(2**32)
    assert str(2**32) in str(exc.value)


def test_prime_counts_match_literature(table_small, table_mid):
    # pi(10^4) = 1229 and pi(10^6) = 78498
    assert len(self_factored(table_small)) == 1229
    assert len(self_factored(table_mid)) == 78498


def test_primes_are_exactly_the_self_factored(table_small):
    expected = [n for n in range(2, 10**4 + 1) if spf_naive(n) == n]
    assert self_factored(table_small).tolist() == expected


def test_mu_table_against_trial_division(table_small):
    mu = table_small.mu_table()
    for n in range(1, 3000):
        assert mu[n] == mu_naive(n), n


def test_mu_reference_anchored_to_definition():
    # the Eratosthenes-based reference used as an oracle elsewhere must
    # itself agree with the definitional route on a verifiable range
    ref = mu_reference(3000)
    for n in range(1, 3001):
        assert ref[n] == mu_naive(n), n


def test_lpf_reference_anchored_to_definition():
    ref = lpf_reference(3000)
    assert ref[0] == ref[1] == 0
    for n in range(2, 3001):
        assert ref[n] == lpf_naive(n), n


#: limits at the ends of the derivation's doubling blocks, around its
#: CHUNK = 2**20-entry units and its _CACHE_BLOCK = 2**15-entry pieces.
#: 3 * 2**15 + 1 and 5 * 2**15 + 7 end their last doubling block a few
#: entries into a piece; 3 * 2**20 + 1 splits a block into two units.
EDGE_LIMITS = (
    [2, 3, 4, 5]
    + [2**k + d for k in (15, 19, 20, 21) for d in (-1, 0, 1)]
    + [3 * 2**15 + 1, 5 * 2**15 + 7, 3 * 2**20 + 1]
)


@pytest.fixture(scope="module")
def edge_references():
    top = max(EDGE_LIMITS)
    return mu_reference(top), lpf_reference(top)


def test_derived_tables_at_block_edges(edge_references):
    mu_ref, lpf_ref = edge_references
    corners = [2**j for j in range(1, 23)] + [k * 2**15 for k in (3, 5, 6, 7)] + [3 * 2**20]
    points = {n + d for n in corners for d in (-1, 0, 1)}
    for limit in EDGE_LIMITS:
        t = build_spf_table(limit)
        mu, lpf = t.mu_table(), t.lpf_table()
        assert (mu.dtype, lpf.dtype) == (np.int8, np.uint32)
        assert np.array_equal(mu, mu_ref[: limit + 1]), limit
        assert np.array_equal(lpf, lpf_ref[: limit + 1]), limit
        assert mu[0] == lpf[0] == lpf[1] == 0 and mu[1] == 1
        for n in sorted(p for p in points | {limit - 1, limit} if 2 <= p <= limit):
            assert mu[n] == mu_naive(n), (limit, n)
            assert lpf[n] == lpf_naive(n), (limit, n)


def test_derived_tables_do_not_depend_on_thread_count(monkeypatch, edge_references):
    # 3*2**20 + 1 puts two units in the last doubling block, and 5*2**15 + 7
    # ends its last block 8 entries into a piece
    mu_ref, lpf_ref = edge_references
    for limit in (5 * 2**15 + 7, 3 * 2**20 + 1):
        for threads in (1, 3):
            monkeypatch.setattr(sieve, "_THREADS", threads)
            t = build_spf_table(limit)
            assert np.array_equal(t.mu_table(), mu_ref[: limit + 1]), (limit, threads)
            assert np.array_equal(t.lpf_table(), lpf_ref[: limit + 1]), (limit, threads)
    # many small units per block, mapped over several threads, each cut
    # into pieces that do not divide it
    monkeypatch.setattr(sieve, "CHUNK", 1000)
    for piece in (1000, 96, 7):
        monkeypatch.setattr(sieve, "_CACHE_BLOCK", piece)
        t = build_spf_table(10**5)
        assert np.array_equal(t.mu_table(), mu_ref[: 10**5 + 1]), piece
        assert np.array_equal(t.lpf_table(), lpf_ref[: 10**5 + 1]), piece


def divisibility_cases(rng) -> tuple[np.ndarray, np.ndarray]:
    """Over 10**6 pairs (q, s) with 0 <= q < 2**32 and 1 <= s < 2**32:
    uniform pairs, q = k*s and k*s +- 1 for s at every scale up to 2**32 - 1,
    and the largest q below 2**32 against the smallest and largest s."""
    top = 2**32
    qs, ss = [rng.integers(0, top, 300_000)], [rng.integers(1, top, 300_000)]
    for lo, hi in ((1, 2**8), (2**8, 2**16), (2**16, 2**24), (2**24, top), (top - 2**12, top)):
        s = rng.integers(lo, hi, 60_000)
        k = rng.integers(0, (top - 2) // s + 1)
        for d in (-1, 0, 1):
            q = k * s + d
            ok = (q >= 0) & (q < top)
            qs.append(q[ok])
            ss.append(s[ok])
    s = np.concatenate([np.arange(1, 5000), np.arange(top - 5000, top)])
    for q in (top - 1, top - 2, top - 3):
        qs.append(np.full(s.size, q))
        ss.append(s)
    return np.concatenate(qs), np.concatenate(ss)


def test_float_divisibility_test_is_exact():
    q, s = divisibility_cases(np.random.default_rng(1978))
    assert q.size >= 10**6 and q.max() < 2**32 and s.max() == 2**32 - 1
    got = sieve._indivisible(q.astype(np.float64), s, np.empty(q.size))
    assert np.array_equal(got, q % s != 0)


def test_mertens_value_at_one_million(table_mid):
    # sum of mu(n) for n <= 10^6 is 212 (known value)
    assert int(table_mid.mu_table().astype(np.int64).sum()) == 212


def test_moebius_walk_matches_table(table_small):
    mu = table_small.mu_table()
    rng = np.random.default_rng(7)
    for n in rng.integers(1, 10**4, size=300):
        n = int(n)
        assert moebius(table_small, n) == mu[n]


def test_phi_table_and_walk():
    for n in range(1, 2000):
        assert _totient(n) == phi_naive(n), n


def test_phi_divisor_sum_property():
    # sum of phi(d) over d | n equals n
    rng = np.random.default_rng(11)
    for n in rng.integers(1, 10**4, size=50):
        n = int(n)
        assert sum(_totient(d) for d in divisors_naive(n)) == n


def test_lpf_table_against_trial_division(table_small):
    lpf = table_small.lpf_table()
    for n in range(2, 3000):
        assert lpf[n] == lpf_naive(n), n
    rng = np.random.default_rng(13)
    for n in rng.integers(2, 10**4, size=200):
        n = int(n)
        assert largest_prime_factor(table_small, n) == lpf_naive(n)


def test_factorize_round_trip(table_small):
    rng = np.random.default_rng(17)
    for n in rng.integers(2, 10**4, size=300):
        n = int(n)
        f = factorize(table_small, n)
        assert math.prod(p**e for p, e in f) == n
        assert f == factorize_naive(n)
        assert _divisors(f) == divisors_naive(n)
    # n = 1 is excluded from the table; callers own the empty product
    with pytest.raises(ValueError):
        factorize(table_small, 1)


def test_spf_bounded_by_lpf_with_equality_on_prime_powers(table_small):
    lpf = table_small.lpf_table()
    for n in range(2, 10**4 + 1):
        p = int(table_small.spf[n])
        assert p <= lpf[n]
        is_prime_power = True
        q = n
        while q > 1:
            if q % p:
                is_prime_power = False
                break
            q //= p
        assert (p == lpf[n]) == is_prime_power, n


def test_mu_divisor_sums_telescope(table_small):
    # sum of mu(d) over d | n is 1 at n=1 and 0 otherwise
    mu = table_small.mu_table()
    for n in range(2, 10**4 + 1):
        divs = _divisors(factorize(table_small, n))
        if n <= 2000:  # divisors_naive is O(n)
            assert divs == divisors_naive(n), n
        assert sum(int(mu[d]) for d in divs) == 0, n


def test_phi_divisor_sums_rebuild_n():
    # sum of phi(d) over d | n equals n, checked for every n at once
    phi = [0] + [_totient(d) for d in range(1, 10**4 + 1)]
    acc = np.zeros(10**4 + 1, dtype=np.int64)
    for d in range(1, 10**4 + 1):
        acc[d::d] += phi[d]
    assert np.array_equal(acc[1:], np.arange(1, 10**4 + 1))


def test_mu_and_phi_multiplicative_on_coprime_pairs(table_mid):
    from math import gcd

    mu = table_mid.mu_table()
    rng = np.random.default_rng(271828)
    checked = 0
    while checked < 10**4:
        a = int(rng.integers(2, 1000))
        b = int(rng.integers(2, 1000))
        if gcd(a, b) != 1:
            continue
        assert mu[a * b] == mu[a] * mu[b], (a, b)
        assert _totient(a * b) == _totient(a) * _totient(b), (a, b)
        checked += 1


def test_mu_table_matches_independent_sieve_at_scale(table_mid, mu_ref_mid):
    assert np.array_equal(table_mid.mu_table()[1:], mu_ref_mid[1:])


def test_lpf_table_matches_independent_sieve_at_scale(table_mid):
    assert np.array_equal(table_mid.lpf_table(), lpf_reference(10**6))


def test_segment_size_does_not_change_table(monkeypatch):
    base = build_spf_table(10**5)
    for seg in (1 << 10, 1 << 14, 10**5 + 1):
        monkeypatch.setattr(sieve, "CHUNK", seg)
        other = build_spf_table(10**5)
        assert np.array_equal(base.spf, other.spf), seg


def test_worker_count_does_not_change_table(monkeypatch):
    monkeypatch.setattr(sieve, "CHUNK", 1 << 12)
    tables = []
    for threads in (1, 8):
        monkeypatch.setattr(sieve, "_THREADS", threads)
        tables.append(build_spf_table(10**5))
    assert np.array_equal(tables[0].spf, tables[1].spf)


def test_spf_at_every_small_limit():
    # every parity of the last entry, and the limits where the base primes
    # (none, then 2, then 2 and 3, ...) change
    for limit in range(2, 65):
        t = build_spf_table(limit)
        assert t.spf[:2].tolist() == [0, 0], limit
        assert t.spf[2:].tolist() == [spf_naive(n) for n in range(2, limit + 1)], limit


def test_spf_with_cells_at_odd_lo(monkeypatch):
    # an odd CHUNK starts every other cell at an odd lo, so each cell's
    # odd-multiple stride and even slice start on either parity
    base = build_spf_table(10**5)
    monkeypatch.setattr(sieve, "CHUNK", 999)
    for threads in (1, 3):
        monkeypatch.setattr(sieve, "_THREADS", threads)
        assert np.array_equal(build_spf_table(10**5).spf, base.spf), threads
    assert len(self_factored(base)) == 9592  # pi(10^5)


def test_derived_tables_with_units_at_odd_lo(monkeypatch):
    # an odd CHUNK starts units at odd lo, so their even slices start one
    # entry in; odd piece widths end pieces mid-stride
    mu_ref, lpf_ref = mu_reference(10**5), lpf_reference(10**5)
    monkeypatch.setattr(sieve, "CHUNK", 999)
    for piece in (7, 97):
        monkeypatch.setattr(sieve, "_CACHE_BLOCK", piece)
        t = build_spf_table(10**5)
        assert np.array_equal(t.mu_table(), mu_ref), piece
        assert np.array_equal(t.lpf_table(), lpf_ref), piece


def test_save_load_round_trip(tmp_path, table_small):
    path = tmp_path / "spf.bin"
    save_spf_table(table_small, str(path))
    loaded = load_spf_table(str(path))
    assert loaded.limit == table_small.limit
    assert np.array_equal(loaded.spf, table_small.spf)


def test_save_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_spf_table(build_spf_table(5000), str(p1))
    save_spf_table(build_spf_table(5000), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


#: sha256 of the cache file of build_spf_table(10**6), pinned from the
#: layout written before the checksum and the payload write overlapped
CACHE_1E6_SHA256 = "96149ecb67b3bf1805f09696b5a3cb8122b89ca212986f42eb1cd72a741dd646"


def test_cache_bytes_are_pinned(tmp_path, table_mid):
    path = tmp_path / "spf.bin"
    save_spf_table(table_mid, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_1E6_SHA256


@pytest.mark.parametrize("threads", [1, 2])
def test_header_crc_is_the_payload_crc(tmp_path, monkeypatch, table_small, threads):
    monkeypatch.setattr(sieve, "_THREADS", threads)
    path = tmp_path / "spf.bin"
    save_spf_table(table_small, str(path))
    raw = path.read_bytes()
    *_, crc = struct.unpack("<4sIQBI", raw[:21])
    assert crc == zlib.crc32(raw[21:]) == zlib.crc32(table_small.spf.astype("<u4"))
    assert raw[21:] == table_small.spf.astype("<u4").tobytes()


def test_load_rejects_corrupt_header(tmp_path, table_small):
    path = tmp_path / "spf.bin"
    save_spf_table(table_small, str(path))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_spf_table(str(bad))


def test_load_rejects_truncated_payload(tmp_path, table_small):
    path = tmp_path / "spf.bin"
    save_spf_table(table_small, str(path))
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(raw[: len(raw) - 8])
    with pytest.raises(ValueError):
        load_spf_table(str(cut))


def test_load_rejects_flipped_payload_bit(tmp_path, table_small):
    path = tmp_path / "spf.bin"
    save_spf_table(table_small, str(path))
    raw = bytearray(path.read_bytes())
    raw[-4 * 1000] ^= 0x08  # header and length stay valid
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_spf_table(str(path))


def v1_cache_bytes(t) -> bytes:
    """A table in the version-1 layout: no checksum in the header."""
    return b"SPFT" + struct.pack("<IQB", 1, t.limit, 4) + t.spf.astype("<u4").tobytes()


def test_load_rejects_version_1(tmp_path, table_small):
    path = tmp_path / "spf.bin"
    path.write_bytes(v1_cache_bytes(table_small))
    with pytest.raises(ValueError, match="version 1"):
        load_spf_table(str(path))


@pytest.fixture(scope="module")
def cache_1000(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "spf_1000.bin"
    save_spf_table(build_spf_table(1000), str(path))
    return path.read_bytes()


@pytest.mark.parametrize("n", range(21))  # every proper prefix of the 21-byte header
def test_load_calls_a_cut_header_truncated(tmp_path, cache_1000, n):
    path = tmp_path / "spf.bin"
    path.write_bytes(cache_1000[:n])
    with pytest.raises(ValueError, match="truncated cache header") as info:
        load_spf_table(str(path))
    assert info.type is ValueError  # a cut cache, not a foreign file


README = (Path(__file__).resolve().parents[1] / "README.md").read_bytes()


@pytest.mark.parametrize("raw", [README, b"SPX", b"\0"], ids=["readme", "SPX", "nul"])
def test_load_calls_a_foreign_file_not_a_cache(tmp_path, raw):
    path = tmp_path / "spf.bin"
    path.write_bytes(raw)
    with pytest.raises(NotACacheError, match="not an spf cache"):
        load_spf_table(str(path))


def test_load_calls_a_fifo_or_directory_not_a_cache(tmp_path):
    # a FIFO is never opened: open() would wait for a writer.  The load runs
    # on a daemon thread, so a blocked open fails the test, not the suite
    fifo = tmp_path / "spf.bin"
    os.mkfifo(fifo)
    raised = []

    def load():
        try:
            load_spf_table(str(fifo))
        except Exception as exc:
            raised.append(exc)

    reader = threading.Thread(target=load, daemon=True)
    reader.start()
    reader.join(timeout=10)
    blocked = reader.is_alive()
    if blocked:  # hand the blocked open() a writer, so the thread can end
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert not blocked
    assert type(raised[0]) is NotACacheError and "not a regular file" in str(raised[0])
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    with pytest.raises(NotACacheError, match="not a regular file"):
        load_spf_table(str(tmp_path))


class _FailingWriter:
    """A file whose write number fail_at raises after a partial write: the
    payload is the first write, the header the second."""

    def __init__(self, fh, exc, fail_at=2):
        self.fh, self.exc, self.fail_at, self.writes = fh, exc, fail_at, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def seek(self, offset):
        return self.fh.seek(offset)

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            self.fh.write(bytes(memoryview(data).cast("B")[:100]))
            raise self.exc
        return self.fh.write(data)


@pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()])
def test_interrupted_save_keeps_previous_file(tmp_path, monkeypatch, table_small, exc):
    path = tmp_path / "spf.bin"
    save_spf_table(build_spf_table(5000), str(path))
    before = path.read_bytes()
    monkeypatch.setattr(
        sieve, "open", lambda *a, **k: _FailingWriter(open(*a, **k), exc), raising=False
    )
    with pytest.raises(type(exc)):
        save_spf_table(table_small, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["spf.bin"]


@pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()])
@pytest.mark.parametrize("threads", [1, 2])
def test_failed_payload_write_keeps_previous_file(tmp_path, monkeypatch, table_small, exc, threads):
    # with two threads the payload write is the job that runs beside the checksum
    monkeypatch.setattr(sieve, "_THREADS", threads)
    path = tmp_path / "spf.bin"
    save_spf_table(build_spf_table(5000), str(path))
    before = path.read_bytes()
    monkeypatch.setattr(
        sieve, "open", lambda *a, **k: _FailingWriter(open(*a, **k), exc, 1), raising=False
    )
    with pytest.raises(type(exc)):
        save_spf_table(table_small, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["spf.bin"]


def test_range_validation(table_small):
    with pytest.raises(ValueError):
        build_spf_table(1)
    with pytest.raises(ValueError):
        smallest_prime_factor(table_small, 1)
    with pytest.raises(ValueError):
        smallest_prime_factor(table_small, 10**4 + 1)
    with pytest.raises(ValueError):
        moebius(table_small, 0)


def test_tables_are_read_only(table_small):
    with pytest.raises(ValueError):
        table_small.spf[5] = 1
    with pytest.raises(ValueError):
        table_small.mu_table()[5] = 1
