"""Convergence summaries and CSV emission for partial-sum series.

The error model behind the fit: remainders of these series are expected to
shrink like exp(-c (log x)^(1/3)) for some c > 0, so log |error| should be
roughly linear in (log x)^(1/3) with slope -c.  build_report fits that line
by least squares and reports fitted_c = -slope along with the RMS residual,
provided at least three checkpoints have errors above the noise floor.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .series import PartialSumSeries

#: Errors below this are float noise around the target; they are excluded
#: from the decay fit (log of a rounding artifact says nothing about c).
NOISE_FLOOR = 1e-14

#: Minimum usable checkpoints for a two-parameter line fit to mean anything.
MIN_FIT_POINTS = 3

CSV_HEADER = "x,value,target,abs_error,decay_ratio"


@dataclass(frozen=True)
class ConvergenceReport:
    """A series plus derived decay diagnostics.

    decay_ratios[i] is error(x_i) / error(x_{i-1}); index 0 is None, as is
    any ratio whose denominator is below NOISE_FLOOR.  fitted_c and
    fit_residual are None when fewer than MIN_FIT_POINTS checkpoints have
    errors above the noise floor.
    """

    series: PartialSumSeries
    decay_ratios: tuple[float | None, ...]
    fitted_c: float | None
    fit_residual: float | None


def build_report(series: PartialSumSeries) -> ConvergenceReport:
    rows = series.rows
    errors = [r.error for r in rows]

    ratios: list[float | None] = [None]
    for prev, cur in zip(errors, errors[1:]):
        if prev is None or cur is None or prev < NOISE_FLOOR:
            ratios.append(None)
        else:
            ratios.append(cur / prev)

    pts = [
        (math.log(r.x) ** (1.0 / 3.0), math.log(r.error))
        for r in rows
        if r.error is not None and r.error >= NOISE_FLOOR and r.x >= 2
    ]
    if len(pts) >= MIN_FIT_POINTS:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        fitted_c = -float(slope)
        fit_residual = float(np.sqrt(np.mean(resid * resid)))
    else:
        fitted_c = None
        fit_residual = None

    return ConvergenceReport(
        series=series,
        decay_ratios=tuple(ratios),
        fitted_c=fitted_c,
        fit_residual=fit_residual,
    )


def _fmt(v: float | None) -> str:
    """Shortest-exact float field; empty when absent."""
    if v is None:
        return ""
    return "%.17g" % v


def emit_csv(report: ConvergenceReport, dest) -> None:
    """Write the report as CSV to a path or text file object.

    Data rows come first under CSV_HEADER; series parameters and fit
    results follow as '# ' comment lines so the numeric block parses
    cleanly with any reader that skips comments.
    """
    if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            _emit(report, fh)
    else:
        _emit(report, dest)


def _emit(report: ConvergenceReport, fh: io.TextIOBase) -> None:
    spec = report.series.spec
    fh.write(CSV_HEADER + "\n")
    target = spec.target
    for row, ratio in zip(report.series.rows, report.decay_ratios):
        fields = [
            str(row.x),
            _fmt(row.value),
            _fmt(target),
            _fmt(row.error),
            _fmt(ratio),
        ]
        fh.write(",".join(fields) + "\n")
    fh.write(f"# series {spec.describe()}\n")
    if report.fitted_c is not None:
        fh.write(f"# fitted_c {_fmt(report.fitted_c)}\n")
        fh.write(f"# fit_residual {_fmt(report.fit_residual)}\n")
    else:
        fh.write("# fitted_c unavailable (fewer than "
                 f"{MIN_FIT_POINTS} checkpoints above noise floor)\n")

