"""Numerical laboratory for Ramanujan-sum analogues of Mobius-sum identities.

Layers, bottom up:
    sieve     smallest-prime-factor tables and the arithmetic functions
              (mu, largest prime factor, factorization) derived from them
    ramanujan Ramanujan sums c_n(m), their exponential-sum oracle, and the
              weighted generalization with divisibility condition d^s | m
    series    deterministic chunked evaluation of the partial sums, densities,
              and the exact finite-x rearrangement identity
    report    decay-ratio tables, (log x)^(1/3) error fits, CSV emission
    cli       the `csumlab` command
"""

from .ramanujan import (
    generalized_ramanujan_sum,
    ramanujan_sum,
    ramanujan_sum_direct,
)
from .report import ConvergenceReport, build_report, emit_csv
from .series import (
    PartialSumSeries,
    PrimeWeight,
    SeriesRow,
    SeriesSpec,
    alladi_partial_sum,
    difference_term,
    lpf_density,
    mertens_restricted,
    mu_baseline,
    mu_mn_partial_sum,
    mu_over_n_restricted,
    ramanujan_alladi_partial_sum,
    run_series,
    weighted_lhs,
)
from .sieve import (
    SpfTable,
    build_spf_table,
    factorize,
    largest_prime_factor,
    load_spf_table,
    moebius,
    save_spf_table,
    smallest_prime_factor,
)

__version__ = "0.1.0"

__all__ = [
    "SpfTable",
    "build_spf_table",
    "factorize",
    "largest_prime_factor",
    "load_spf_table",
    "moebius",
    "save_spf_table",
    "smallest_prime_factor",
    "generalized_ramanujan_sum",
    "ramanujan_sum",
    "ramanujan_sum_direct",
    "PartialSumSeries",
    "PrimeWeight",
    "SeriesRow",
    "SeriesSpec",
    "alladi_partial_sum",
    "difference_term",
    "lpf_density",
    "mertens_restricted",
    "mu_baseline",
    "mu_mn_partial_sum",
    "mu_over_n_restricted",
    "ramanujan_alladi_partial_sum",
    "run_series",
    "weighted_lhs",
    "ConvergenceReport",
    "build_report",
    "emit_csv",
    "__version__",
]
