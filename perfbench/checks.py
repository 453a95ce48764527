"""Correctness checks behind `attempted`, `failed` and error_rate.

Three kinds of check run on every result a workload produces:
  * fingerprints: the float.hex of every series row and identity side, or a
    digest of an exact rational, must equal the value recorded in
    fingerprints.json (written by record.py).  A key absent from the file
    (a parameter outside the recorded families, or a smoke-scale x) is
    counted as unfingerprinted and only the remaining checks apply;
  * paper bounds: the tolerances of acceptance criteria 5-9, exact
    lhs == rhs and float |lhs - rhs| <= 1e-9 for the identity, and
    definitional oracles at small x;
  * the CLI's documented exit codes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

#: Float-mode agreement bound for the two sides of the identity.
IDENTITY_TOL = 1e-9

#: Agreement bound between a series row and its per-term oracle: the
#: oracle sums the same float terms in one fsum, the series in chunks.
ORACLE_TOL = 1e-12


def load_fingerprints() -> dict[str, str]:
    if not FINGERPRINTS.is_file():
        return {}
    return json.loads(FINGERPRINTS.read_text())


def rational_digest(q) -> str:
    """Digest of an exact rational; hex avoids the int->str digit limit."""
    text = f"{int(q.numerator):x}/{int(q.denominator):x}"
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def ints_digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:20]


def row_print(row) -> str:
    """Bit-exact text of one series row: value bits plus any integer count."""
    text = float.hex(row.value)
    return text if row.count is None else f"{text};count={row.count}"


def phi(k: int) -> int:
    """Euler's totient by trial division (independent of the sieve)."""
    out, n, p = k, k, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    if n > 1:
        out -= out // n
    return out


def mobius_naive(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


class Checker:
    """Counts checks; with `record` set, fingerprints are stored, not compared."""

    def __init__(self, fingerprints: dict[str, str], record: dict[str, str] | None = None):
        self.fingerprints = fingerprints
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.unfingerprinted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fingerprint(self, key: str, got: str) -> None:
        if self.record is not None:
            want = self.record.setdefault(key, got)
            self.expect(got == want, f"{key} differs between calls: {got} != {want}")
            return
        want = self.fingerprints.get(key)
        if want is None:
            self.unfingerprinted += 1
            return
        self.expect(got == want, f"bits changed at {key}: {got} != {want}")

    def series(self, key: str, series, checkpoints, target) -> None:
        """Shape, target and bit fingerprint of every row of one series."""
        rows = series.rows
        self.expect(
            [r.x for r in rows] == list(checkpoints), f"{key}: rows do not match checkpoints"
        )
        self.expect(series.spec.target == target, f"{key}: target {series.spec.target!r} != {target!r}")
        for r in rows:
            if target is not None:
                self.expect(r.error == abs(r.value - target), f"{key}|x={r.x}: error field")
            self.fingerprint(f"{key}|x={r.x}", row_print(r))

    def report_csv(self, key: str, series, text: str) -> None:
        """emit_csv output parses back to the rows it was built from."""
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        data = [ln.split(",") for ln in lines[1:]]
        ok = lines[0].split(",")[:2] == ["x", "value"] and len(data) == len(series.rows)
        ok = ok and all(
            int(f[0]) == r.x and float(f[1]) == r.value for f, r in zip(data, series.rows)
        )
        self.expect(ok, f"{key}: report CSV does not round-trip the rows")

    def close(self, key: str, got: float, want: float, tol: float = ORACLE_TOL) -> None:
        self.expect(abs(got - want) <= tol, f"{key}: {got!r} vs oracle {want!r}")


DECADES = frozenset(10**e for e in range(1, 20))


def decade_rows(series) -> dict[int, object]:
    """Rows at exact powers of ten, keyed by x."""
    return {r.x: r for r in series.rows if r.x in DECADES}
