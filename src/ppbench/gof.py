"""Anderson-Darling normality testing with estimated parameters.

The statistic uses the probability integral transform with the sample mean
and the unbiased standard deviation, then applies the small-sample
correction factor (1 + 0.75/n + 2.25/n^2). Decision points for the
corrected statistic: 0.787 at the 5% level and 0.918 at the 2.5% level.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import NORMAL, DegenerateSampleError, reduced_cdf

PASS_5PCT = "pass_5pct"
PASS_2_5PCT = "pass_2_5pct"
FAIL = "fail"

CRITICAL_5PCT = 0.787
CRITICAL_2_5PCT = 0.918

_MIN_N = 5


@dataclass(frozen=True)
class MadResult:
    a2_raw: float
    a2_modified: float
    n: int
    comparison: str
    reference_points: dict


def _classify(a2_modified: float) -> str:
    if a2_modified <= CRITICAL_5PCT:
        return PASS_5PCT
    if a2_modified <= CRITICAL_2_5PCT:
        return PASS_2_5PCT
    return FAIL


def _a2_statistic(u: np.ndarray) -> float:
    # u is sorted, as the statistic needs, so only its ends can reach 0 or 1
    n = u.size
    if u[0] <= 0.0 or u[-1] >= 1.0:
        # Ties or extreme standardized values can push the transform onto
        # the boundary in floating point, where the log terms blow up.
        warnings.warn(
            "probability transform saturated at 0 or 1; clipping "
            "(heavily tied or extreme data make the statistic unreliable)",
            RuntimeWarning,
            stacklevel=3,
        )
        tiny = np.finfo(float).tiny
        u = np.clip(u, tiny, 1.0 - np.finfo(float).epsneg)
    i = np.arange(1, n + 1)
    s = (2.0 * i - 1.0) @ (np.log(u) + np.log1p(-u[::-1]))
    return float(-n - s / n)


def _small_sample_factor(n: int) -> float:
    return 1.0 + 0.75 / n + 2.25 / (n * n)


def _result(a2: float, n: int) -> MadResult:
    a2m = a2 * _small_sample_factor(n)
    return MadResult(
        a2_raw=a2,
        a2_modified=a2m,
        n=n,
        comparison=_classify(a2m),
        reference_points={"5pct": CRITICAL_5PCT, "2.5pct": CRITICAL_2_5PCT},
    )


def _check_sample(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    if x.size < _MIN_N:
        raise ValueError("need at least %d observations, got %d" % (_MIN_N, x.size))
    if not np.isfinite(x).all():
        raise ValueError("sample must be finite")
    return np.sort(x)


def _mean_sd(xs: np.ndarray) -> tuple[float, float]:
    # the arithmetic of xs.mean() and xs.std(ddof=1), bit for bit, without
    # numpy's Python-level reduction wrappers
    n = xs.size
    mean = float(np.add.reduce(xs)) / n
    d = xs - mean
    return mean, math.sqrt(float(np.add.reduce(d * d)) / (n - 1))


def mad_case3(x) -> MadResult:
    """Modified Anderson-Darling normality test with mean and sd taken from the sample.

    The correction factor and the decision points are specific to the
    normal family.
    """
    xs = _check_sample(x)
    mean, sd = _mean_sd(xs)
    if sd == 0.0:
        raise DegenerateSampleError("sample standard deviation is zero")
    u = reduced_cdf(NORMAL, (xs - mean) / sd)
    return _result(_a2_statistic(u), xs.size)


def mad_known_params(x, mean: float, sd: float) -> MadResult:
    """Same statistic with externally supplied mean and sd.

    The small-sample factor is still applied so values stay comparable with
    the estimated-parameter variant.
    """
    mean, sd = float(mean), float(sd)
    if not (math.isfinite(mean) and 0.0 < sd < math.inf):
        raise ValueError("mean must be finite, and sd finite and positive")
    xs = _check_sample(x)
    u = reduced_cdf(NORMAL, (xs - mean) / sd)
    return _result(_a2_statistic(u), xs.size)
