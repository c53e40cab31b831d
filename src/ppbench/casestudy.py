"""Seismic-magnitude case study on three-parameter log probability paper.

Thirteen consecutive lunar months of bradyseism magnitudes are analyzed one
month at a time: magnitudes above the threshold c are shifted, logged,
fitted on normal probability paper with exact-unbiased positions, and read
back as a three-parameter log model. Each month also gets two normality
checks on the log scale: one against its own estimated parameters and one
against parameters pooled from all previous months (distribution-stability
check).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import bradyseism_data
from .distributions import LOGNORMAL3, NORMAL, _check_real, _log_excess, reduced_quantile
from .estimation import GLS, OLS, FitResult, exceedance_probability, fit_gls, fit_ols
from .gof import MadResult, _mean_sd, mad_case3, mad_known_params
from .order_stats import EXPANSION, build_moments
from .positions import proposed_positions
from .svgplot import PlotSpec

DEFAULT_THRESHOLD = 1.0
DEFAULT_LEVEL = 5.0
DEFAULT_K = 4


class DataCorruptionError(RuntimeError):
    """The embedded dataset no longer matches its recorded checksum."""


@dataclass(frozen=True)
class MagnitudeRecord:
    month_label: str
    magnitudes: tuple[float, ...]


def load_dataset() -> tuple[MagnitudeRecord, ...]:
    """The thirteen monthly records, checksum-verified on every call."""
    digest = hashlib.sha256(bradyseism_data._serialize()).hexdigest()
    if digest != bradyseism_data.DATASET_SHA256:
        raise DataCorruptionError(
            "embedded magnitude data fails its checksum (%s != %s)"
            % (digest, bradyseism_data.DATASET_SHA256)
        )
    return tuple(
        MagnitudeRecord(label, bradyseism_data.MAGNITUDES[label])
        for label in bradyseism_data.MONTH_LABELS
    )


@dataclass(frozen=True)
class MonthAnalysis:
    label: str
    n: int
    method: str
    k: int
    c: float
    level: float
    a_hat: float
    b_hat: float
    ridge: float
    exceedance: float
    mad_self: MadResult
    log_values: np.ndarray = field(repr=False)
    design_y: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class MonthReport:
    analysis: MonthAnalysis
    n_total: int
    mad_cumulative: MadResult

    @property
    def label(self) -> str:
        return self.analysis.label


@dataclass(frozen=True)
class CaseStudyReport:
    method: str
    c: float
    k: int
    level: float
    months: tuple[MonthReport, ...]

    def month(self, label: str) -> MonthReport:
        for m in self.months:
            if m.label == label:
                return m
        raise KeyError(label)

    def to_payload(self) -> dict:
        return {
            "method": self.method,
            "threshold": self.c,
            "truncation_level": self.k,
            "exceedance_level": self.level,
            "months": [
                {
                    "label": m.label,
                    "n_total": m.n_total,
                    "n_used": m.analysis.n,
                    "a_hat": m.analysis.a_hat,
                    "b_hat": m.analysis.b_hat,
                    "exceedance": m.analysis.exceedance,
                    "mad_self": m.analysis.mad_self.a2_modified,
                    "mad_self_comparison": m.analysis.mad_self.comparison,
                    "mad_cumulative": m.mad_cumulative.a2_modified,
                    "mad_cumulative_comparison": m.mad_cumulative.comparison,
                }
                for m in self.months
            ],
        }


def analyze_month(
    record: MagnitudeRecord,
    c: float = DEFAULT_THRESHOLD,
    k: int = DEFAULT_K,
    method: str = OLS,
    level: float = DEFAULT_LEVEL,
) -> MonthAnalysis:
    """Fit the log(x - c) of one month's magnitudes above the threshold c.

    The month is taken as recorded; magnitudes at or below c drop out. A NaN
    level, a non-finite c or fewer than five magnitudes above c raise
    ValueError, and a c or level that is not a real number TypeError.
    """
    if method not in (OLS, GLS):
        raise ValueError("month analysis fits with ols or gls")
    level = _check_real(level, "the exceedance level", finite=False)
    logs = _log_excess(record.magnitudes, c)
    n = int(logs.size)
    if n < 5:
        raise ValueError(
            "month %s has %d magnitudes above the threshold %g; need at least 5"
            % (record.month_label, n, c)
        )

    if method == OLS:
        p = proposed_positions(NORMAL, n, k)
        y = np.asarray(reduced_quantile(NORMAL, p), dtype=float)
        fit: FitResult = fit_ols(logs, y, family=NORMAL)
    else:
        moments = build_moments(NORMAL, n, k, cov_mode=EXPANSION)
        y = moments.y
        fit = fit_gls(logs, moments)

    exceed = exceedance_probability(fit, level, family=LOGNORMAL3, c=c)
    return MonthAnalysis(
        label=record.month_label,
        n=n,
        method=method,
        k=int(k),  # an int by now: the fit checked it
        c=float(c),  # a real number by now: _log_excess checked it
        level=level,
        a_hat=fit.a_hat,
        b_hat=fit.b_hat,
        ridge=fit.ridge,
        exceedance=exceed,
        mad_self=mad_case3(logs),
        log_values=logs,
        design_y=y,
    )


def run_case_study(
    method: str = OLS,
    c: float = DEFAULT_THRESHOLD,
    k: int = DEFAULT_K,
    level: float = DEFAULT_LEVEL,
) -> CaseStudyReport:
    """Analyze all thirteen months in chronological order.

    The stability check for month m >= 2 tests its log values against the
    mean and sd pooled over months 1..m-1; the first month, having no
    history, is tested against its own estimates.
    """
    months = []
    records = load_dataset()
    # every month's log values in month order; each pool is a prefix of it
    pooled = np.empty(sum(len(rec.magnitudes) for rec in records))
    filled = 0
    for rec in records:
        analysis = analyze_month(rec, c=c, k=k, method=method, level=level)
        if months:
            cumulative = mad_known_params(analysis.log_values, *_mean_sd(pooled[:filled]))
        else:
            cumulative = analysis.mad_self
        months.append(
            MonthReport(analysis=analysis, n_total=len(rec.magnitudes), mad_cumulative=cumulative)
        )
        pooled[filled : filled + analysis.n] = analysis.log_values
        filled += analysis.n
    return CaseStudyReport(
        method=method, c=float(c), k=int(k), level=float(level), months=tuple(months)
    )


def month_plot_spec(report: MonthReport) -> PlotSpec:
    """Probability-paper plot of one analyzed month on the log scale."""
    a = report.analysis
    pts = tuple(zip(a.design_y.tolist(), a.log_values.tolist()))
    return PlotSpec(
        title="Lunar month %s, n=%d" % (a.label, a.n),
        family=NORMAL,
        points=pts,
        fitted_line=(a.a_hat, a.b_hat),
        x_label="reduced variate",
        y_label="log(magnitude - %g)" % a.c,
    )
