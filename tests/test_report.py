"""Convergence reports: decay ratios, the (log x)^(1/3) fit, CSV format."""

import io
import math

import pytest

from csumlab import (
    PartialSumSeries,
    PrimeWeight,
    SeriesRow,
    SeriesSpec,
    build_report,
    emit_csv,
    lpf_density,
    ramanujan_alladi_partial_sum,
    weighted_lhs,
)
from csumlab.report import CSV_HEADER, NOISE_FLOOR


def synthetic(errors, xs):
    # errors around the mu-baseline target 1
    rows = tuple(SeriesRow(x=x, value=1.0 + e, error=abs(e)) for x, e in zip(xs, errors))
    spec = SeriesSpec(kind="mu-baseline", checkpoints=tuple(xs))
    return PartialSumSeries(spec=spec, rows=rows)


def test_decay_ratios_halving():
    rep = build_report(synthetic([0.1, 0.05, 0.025], [10**4, 10**5, 10**6]))
    assert rep.decay_ratios[0] is None
    assert rep.decay_ratios[1] == pytest.approx(0.5)
    assert rep.decay_ratios[2] == pytest.approx(0.5)


def test_single_row_has_no_fit():
    rep = build_report(synthetic([0.1], [100]))
    assert rep.fitted_c is None
    assert rep.fit_residual is None
    assert rep.decay_ratios == (None,)


def test_fit_recovers_planted_constant():
    # errors laid exactly on exp(-c (log x)^(1/3)) must return c
    c = 2.5
    xs = [10**k for k in range(2, 8)]
    errors = [math.exp(-c * math.log(x) ** (1 / 3)) for x in xs]
    rep = build_report(synthetic(errors, xs))
    assert rep.fitted_c == pytest.approx(c, abs=1e-9)
    assert rep.fit_residual == pytest.approx(0.0, abs=1e-9)


def test_noise_floor_rows_excluded_from_fit():
    xs = [10, 100, 1000, 10**4]
    rep = build_report(synthetic([0.1, 0.05, 1e-16, 1e-17], xs))
    # only two usable rows remain; fit must be skipped
    assert rep.fitted_c is None
    # and the ratio out of a noise-floor denominator is not reported
    assert rep.decay_ratios[3] is None


def test_targetless_series_has_no_fit_and_empty_cells():
    spec = SeriesSpec(kind="mertens-restricted", y=3, checkpoints=(10, 100))
    series = PartialSumSeries(
        spec=spec,
        rows=(SeriesRow(x=10, value=-2.0), SeriesRow(x=100, value=1.0)),
    )
    rep = build_report(series)
    assert rep.fitted_c is None
    buf = io.StringIO()
    emit_csv(rep, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "10,-2,,,"
    assert lines[2] == "100,1,,,"
    assert sum(1 for ln in lines if ln.startswith("#")) >= 2


def test_csv_round_trips_doubles_exactly(table_small):
    series = ramanujan_alladi_partial_sum(table_small, 2, 4, 1, [100, 1000, 10**4])
    rep = build_report(series)
    buf = io.StringIO()
    emit_csv(rep, buf)
    lines = buf.getvalue().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 3
    for row, ln in zip(series.rows, data):
        x_s, value_s, target_s, err_s, _ = ln.split(",")
        assert int(x_s) == row.x
        assert float(value_s) == row.value
        assert float(target_s) == series.spec.target
        assert float(err_s) == row.error


def test_emit_is_deterministic(table_small):
    series = ramanujan_alladi_partial_sum(table_small, 6, 3, 2, [100, 1000])
    a, b = io.StringIO(), io.StringIO()
    emit_csv(build_report(series), a)
    emit_csv(build_report(series), b)
    assert a.getvalue() == b.getvalue()


def test_emit_to_path(tmp_path, table_small):
    series = ramanujan_alladi_partial_sum(table_small, 2, 4, 1, [100])
    out = tmp_path / "rep.csv"
    emit_csv(build_report(series), str(out))
    assert out.read_text().startswith(CSV_HEADER)


def test_real_run_has_positive_fitted_c(table_big):
    series = ramanujan_alladi_partial_sum(
        table_big, 2, 4, 1, [10**4, 10**5, 10**6, 10**7]
    )
    rep = build_report(series)
    assert rep.fitted_c is not None and rep.fitted_c > 0


def test_weighted_series_without_target_renders(table_small):
    series = weighted_lhs(
        table_small, 2, PrimeWeight.from_table({2: 0.5}), [100, 1000]
    )
    rep = build_report(series)
    buf = io.StringIO()
    emit_csv(rep, buf)
    assert "# series kind=weighted-lhs m=2 weight=table:2=0.5 checkpoints=100,1000\n" in (
        buf.getvalue())
    # the weight= token of the other kinds
    for weight, line in ((PrimeWeight.residue_class(4, 3), "weight=residue:4,3 target=0.5"),
                         (PrimeWeight.constant_one(), "weight=one target=1.0")):
        buf = io.StringIO()
        emit_csv(build_report(lpf_density(table_small, weight, [100])), buf)
        assert f"# series kind=lpf-density {line} checkpoints=100\n" in buf.getvalue()


def test_noise_floor_is_strictly_between_ulp_and_convergence_scale():
    assert 1e-16 < NOISE_FLOOR < 1e-3
