"""Fitting location-scale models on probability paper.

The regression reads ``x_(i) = a + b * y_i + error`` where x_(i) are the
sorted observations and y_i the design ordinates (reduced-variate values of
the plotting positions, or expected reduced order statistics). Ordinary
least squares ignores the correlation between order statistics; generalized
least squares whitens with the Cholesky factor of their covariance and is
the best linear unbiased estimator when the design moments are right.

A maximum-likelihood fit is included as the non-graphical baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .distributions import (
    GUMBEL,
    NORMAL,
    DistributionSpec,
    canonical_family,
    cdf,
    reduced_return_quantile,
)
from .order_stats import OrderStatMoments

OLS = "ols"
GLS = "gls"
MLE = "mle"
METHODS = (OLS, GLS, MLE)

MLE_MAX_ITER = 200
MLE_TOL = 1e-10


class DegenerateSampleError(ValueError):
    """The sample carries no scale information (all values equal, etc.)."""


class NonConvergenceError(RuntimeError):
    """An iterative fit failed to converge within its iteration budget."""


@dataclass(frozen=True)
class FitResult:
    a_hat: float
    b_hat: float
    method: str
    family: str
    design_y: Optional[np.ndarray] = field(default=None, repr=False)
    residuals: Optional[np.ndarray] = field(default=None, repr=False)
    ridge: float = 0.0
    iterations: int = 0


@dataclass(frozen=True)
class QuantileEstimate:
    T: float
    x_T_hat: float
    F_level: float


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if x.shape != y.shape:
        raise ValueError("observations and design must have equal length")
    if x.size < 3:
        raise ValueError("need at least three points to fit a line")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("inputs must be finite")
    return x, y


def fit_ols(x_sorted, design_y, family: str = NORMAL) -> FitResult:
    """Ordinary least squares of sorted observations on design ordinates."""
    x, y = _check_xy(x_sorted, design_y)
    yc = y - y.mean()
    denom = float(yc @ yc)
    if denom <= 0.0:
        raise DegenerateSampleError("design ordinates are constant")
    b = float(yc @ x) / denom
    a = float(x.mean() - b * y.mean())
    resid = x - (a + b * y)
    return FitResult(
        a_hat=a,
        b_hat=b,
        method=OLS,
        family=canonical_family(family),
        design_y=y,
        residuals=resid,
    )


def fit_gls(x_sorted, moments: OrderStatMoments) -> FitResult:
    """Generalized least squares against precomputed order-statistic moments.

    Solves the whitened normal equations through the Cholesky factor of the
    covariance; the covariance inverse is never formed explicitly.
    """
    x = np.asarray(x_sorted, dtype=float)
    if x.ndim != 1:
        raise ValueError("observations must be one-dimensional")
    if x.shape != moments.y.shape:
        raise ValueError(
            "sample size %d does not match moments for n=%d" % (x.size, moments.n)
        )
    if x.size < 3:
        raise ValueError("need at least three points to fit a line")
    if not np.all(np.isfinite(x)):
        raise ValueError("observations must be finite")

    y = moments.y
    try:
        L = np.linalg.cholesky(moments.V)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "covariance is not positive definite; rebuild moments"
        ) from exc

    A = np.column_stack([np.ones_like(y), y])
    Aw = solve_triangular(L, A, lower=True)
    xw = solve_triangular(L, x, lower=True)
    theta, _, rank, _ = np.linalg.lstsq(Aw, xw, rcond=None)
    if rank < 2:
        raise DegenerateSampleError("design ordinates are constant")
    a, b = float(theta[0]), float(theta[1])
    resid = x - (a + b * y)
    return FitResult(
        a_hat=a,
        b_hat=b,
        method=GLS,
        family=moments.family,
        design_y=y,
        residuals=resid,
        ridge=moments.ridge,
    )


def _gumbel_mle(x: np.ndarray) -> tuple[float, float, int]:
    # Newton iteration on the profile-likelihood scale equation
    #   g(b) = b - mean(x) + S1(b) / S0(b) = 0,
    # with S_k(b) = sum(x^k * exp(-x / b)). The shifted weights keep the
    # exponentials bounded; g is increasing in b so Newton from a moment
    # start converges fast.
    xbar = float(x.mean())
    s = float(x.std())
    if s == 0.0:
        raise DegenerateSampleError("all observations are equal")
    b = s * math.sqrt(6.0) / math.pi
    xmax = float(x.max())
    for it in range(1, MLE_MAX_ITER + 1):
        w = np.exp(-(x - xmax) / b)
        s0 = float(w.sum())
        s1 = float((x * w).sum())
        s2 = float((x * x * w).sum())
        r1 = s1 / s0
        g = b - xbar + r1
        gp = 1.0 + (s2 / s0 - r1 * r1) / (b * b)
        step = g / gp
        b_new = b - step
        if b_new <= 0.0:
            b_new = b / 2.0
        if abs(b_new - b) < MLE_TOL:
            b = b_new
            break
        b = b_new
    else:
        raise NonConvergenceError(
            "scale iteration did not converge in %d steps" % MLE_MAX_ITER
        )
    w = np.exp(-(x - xmax) / b)
    a = xmax - b * math.log(float(w.mean()))
    return a, b, it


def fit_mle(x, family: str) -> FitResult:
    """Maximum likelihood for the Gumbel or Normal family."""
    family = canonical_family(family)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a one-dimensional sample of size >= 2")
    if not np.all(np.isfinite(x)):
        raise ValueError("observations must be finite")

    if family == NORMAL:
        if float(x.std()) == 0.0:
            raise DegenerateSampleError("all observations are equal")
        a = float(x.mean())
        b = float(x.std())  # divisor n, the ML variant
        return FitResult(a_hat=a, b_hat=b, method=MLE, family=family)
    if family == GUMBEL:
        a, b, it = _gumbel_mle(x)
        return FitResult(a_hat=a, b_hat=b, method=MLE, family=family, iterations=it)
    raise ValueError("maximum likelihood supports the gumbel and normal families")


def predict_quantile(fit: FitResult, T: float) -> QuantileEstimate:
    """Quantile at return period T from a fitted line: a + b * Q(1 - 1/T).

    Q(1 - 1/T) comes from ``reduced_return_quantile``, which stays accurate
    where 1 - 1/T rounds to 1; ``F_level`` reports 1 - 1/T as a float.
    """
    T = float(T)
    z = reduced_return_quantile(fit.family, T)
    return QuantileEstimate(T=T, x_T_hat=fit.a_hat + fit.b_hat * z, F_level=1.0 - 1.0 / T)


def exceedance_probability(
    fit: FitResult, threshold: float, family: Optional[str] = None, c: float = 0.0
) -> float:
    """P(X > threshold) under the fitted parameters.

    ``family`` overrides the family recorded on the fit; that is how a fit
    performed on log(x - c) with normal machinery is read back as a
    three-parameter log model (pass family="lognormal3" and the threshold
    shift c).
    """
    fam = canonical_family(family) if family is not None else fit.family
    d = DistributionSpec(fam, a=fit.a_hat, b=fit.b_hat, c=c)
    return 1.0 - float(cdf(d, float(threshold)))
