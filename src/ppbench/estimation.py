"""Fitting location-scale models on probability paper.

The regression reads ``x_(i) = a + b * y_i + error`` where x_(i) are the
sorted observations and y_i the design ordinates (reduced-variate values of
the plotting positions, or expected reduced order statistics). Ordinary
least squares ignores the correlation between order statistics; generalized
least squares whitens with the Cholesky factor of their covariance and is
the best linear unbiased estimator when the design moments are right.
numpy has no triangular solver, so the whitening is a blocked forward
substitution: one small ``np.linalg.solve`` per diagonal block of the factor.
The whitened problem has two unknowns, so it is solved in closed form by one
Gram-Schmidt step on the whitened columns, with no LAPACK least-squares call.

A maximum-likelihood fit is included as the non-graphical baseline.

Each estimator has one kernel: ``ols_batch`` and ``mle_batch`` fit every row
of a sample matrix at once. The Monte Carlo engine in ``benchmark`` calls
them on a chunk of replicates, and ``fit_ols`` and ``fit_mle`` call them on
one row, so the library and the benchmark share the same fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    GUMBEL,
    NORMAL,
    DegenerateSampleError,
    DistributionSpec,
    _check_real,
    _check_reals,
    canonical_family,
    cdf,
    return_level,
)
from .order_stats import OrderStatMoments

OLS = "ols"
GLS = "gls"
MLE = "mle"

MLE_MAX_ITER = 200
MLE_TOL = 1e-12  # the Newton loop stops once every row's step is below this
MLE_CONVERGED_TOL = 1e-8  # a row whose last step exceeds this did not converge

# Rows per diagonal block of the GLS forward substitution: 32 was the fastest
# of 16 to 64 over the 13 case-study months (n = 42 to 201). Larger blocks
# spend more in each O(block**3) LU, smaller ones in call overhead. _LOWER is
# np.tril's mask, built once.
_SOLVE_BLOCK = 32
_LOWER = np.tri(_SOLVE_BLOCK, dtype=bool)


class NonConvergenceError(RuntimeError):
    """An iterative fit failed to converge within its iteration budget."""


@dataclass(frozen=True)
class FitResult:
    a_hat: float
    b_hat: float
    method: str
    family: str
    ridge: float = 0.0


@dataclass(frozen=True)
class QuantileEstimate:
    T: float
    x_T_hat: float


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = _check_reals(x, "observations")
    y = _check_reals(y, "design ordinates")
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if x.shape != y.shape:
        raise ValueError("%d observations against a design of %d ordinates" % (x.size, y.size))
    if x.size < 3:
        raise ValueError("need at least three points to fit a line")
    if (x[1:] < x[:-1]).any():
        raise ValueError("observations must be sorted in ascending order")
    return x, y


def ols_batch(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """OLS of each row of X (sorted samples) on one design y: intercepts, slopes."""
    yc = y - y.mean()
    denom = float(yc @ yc)
    b = X @ (yc / denom)
    a = X.mean(axis=1) - b * y.mean()
    return a, b


def fit_ols(x_sorted, design_y, family: str = NORMAL) -> FitResult:
    """Ordinary least squares of sorted observations on design ordinates."""
    x, y = _check_xy(x_sorted, design_y)
    if np.all(y == y[0]):
        raise DegenerateSampleError("design ordinates are constant")
    a, b = (float(v[0]) for v in ols_batch(x[None, :], y))
    return FitResult(
        a_hat=a,
        b_hat=b,
        method=OLS,
        family=canonical_family(family),
    )


def _forward_substitution(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve L X = B for a lower-triangular L, reading only L's lower triangle.

    Blocked by _SOLVE_BLOCK rows: each block's rows take the earlier blocks'
    solution off their right-hand side with one matrix product, then solve
    against the block's own diagonal triangle.
    """
    X = np.empty_like(B)
    for lo in range(0, L.shape[0], _SOLVE_BLOCK):
        hi = min(lo + _SOLVE_BLOCK, L.shape[0])
        D = np.where(_LOWER[: hi - lo, : hi - lo], L[lo:hi, lo:hi], 0.0)
        X[lo:hi] = np.linalg.solve(D, B[lo:hi] - L[lo:hi, :lo] @ X[:lo])
    return X


def fit_gls(x_sorted, moments: OrderStatMoments) -> FitResult:
    """Generalized least squares against precomputed order-statistic moments.

    The columns [1, y, x] are whitened together, into u, t and w, by one
    blocked forward substitution on the lower triangle of the Cholesky factor
    ``moments.L``; the covariance is never inverted. One Gram-Schmidt step
    solves the least squares of w on [u, t]: with t_perp and w_perp the parts
    of t and w orthogonal to u, b = t_perp.w_perp / t_perp.t_perp and
    a = (u.w - b u.t) / u.u. Taking u out of w as well keeps b accurate when y
    is nearly constant. DegenerateSampleError is raised when
    |t_perp| <= n * eps * |t|, the cutoff of ``np.linalg.lstsq``'s default rcond.
    """
    x, y = _check_xy(x_sorted, moments.y)
    B = np.column_stack([np.ones_like(y), y, x])
    u, t, w = _forward_substitution(moments.L, B).T
    uu, ut, uw = u @ u, u @ t, u @ w
    t_perp = t - (ut / uu) * u
    tt = t_perp @ t_perp
    if math.sqrt(tt) <= x.size * np.finfo(float).eps * math.sqrt(t @ t):
        raise DegenerateSampleError("design ordinates are constant")
    b = float(t_perp @ (w - (uw / uu) * u) / tt)
    a = float((uw - b * ut) / uu)
    return FitResult(
        a_hat=a,
        b_hat=b,
        method=GLS,
        family=moments.family,
        ridge=moments.ridge,
    )


def mle_batch(X: np.ndarray, family: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Maximum likelihood for each row of X: intercepts, slopes, converged mask, iterations.

    The normal fit is the closed form (mean and the divisor-n sd). The
    Gumbel fit runs Newton on the profile-likelihood scale equation
      g(b) = b - mean(x) + S1(b) / S0(b) = 0,
    with S_k(b) = sum(x^k * exp(-(x - max x) / b)), for all rows at once; the
    shift keeps the exponentials bounded, and g is increasing in b, so Newton
    from a moment start converges fast. A row with zero spread, a non-finite
    or non-positive scale, or a last step above MLE_CONVERGED_TOL is flagged
    as not converged.
    """
    family = canonical_family(family)
    if family == NORMAL:
        a = X.mean(axis=1)
        b = X.std(axis=1)
        return a, b, b > 0.0, 0
    if family != GUMBEL:
        raise ValueError("maximum likelihood supports the gumbel and normal families")
    xbar = X.mean(axis=1)
    s = X.std(axis=1)
    ok = s > 0.0
    b = np.where(ok, s, 1.0) * np.sqrt(6.0) / np.pi
    xmax = X.max(axis=1)
    Xs = X - xmax[:, None]
    delta = np.full(X.shape[0], np.inf)
    for it in range(1, MLE_MAX_ITER + 1):
        W = np.exp(-Xs / b[:, None])
        S0 = W.sum(axis=1)
        S1 = (X * W).sum(axis=1)
        S2 = (X * X * W).sum(axis=1)
        r1 = S1 / S0
        g = b - xbar + r1
        gp = 1.0 + (S2 / S0 - r1 * r1) / (b * b)
        b_new = b - g / gp
        b_new = np.where(b_new > 0.0, b_new, 0.5 * b)
        delta = np.abs(b_new - b)
        b = b_new
        if delta.max() < MLE_TOL:
            break
    converged = ok & (delta < MLE_CONVERGED_TOL) & np.isfinite(b) & (b > 0.0)
    W = np.exp(-Xs / b[:, None])
    a = xmax - b * np.log(W.mean(axis=1))
    return a, b, converged, it


def fit_mle(x, family: str) -> FitResult:
    """Maximum likelihood for the Gumbel or Normal family."""
    family = canonical_family(family)
    x = _check_reals(x, "observations")
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a one-dimensional sample of size >= 2")
    if float(x.std()) == 0.0:
        raise DegenerateSampleError("all observations are equal")

    a, b, converged, _ = mle_batch(x[None, :], family)
    if not converged[0]:
        raise NonConvergenceError(
            "scale iteration did not converge in %d steps" % MLE_MAX_ITER
        )
    return FitResult(a_hat=float(a[0]), b_hat=float(b[0]), method=MLE, family=family)


def predict_quantile(fit: FitResult, T: float) -> QuantileEstimate:
    """Quantile at return period T of the fitted law, on the data's scale.

    That is ``return_level`` of (family, a_hat, b_hat): a + b * Q(1 - 1/T),
    or exp of it for a log-family fit, so exceedance_probability reads the
    estimate back as 1/T. Q(1 - 1/T) stays accurate where 1 - 1/T rounds to
    1. A fit with b_hat <= 0 (or a non-finite parameter) raises ValueError,
    as in exceedance_probability.
    """
    x_T = return_level(DistributionSpec(fit.family, a=fit.a_hat, b=fit.b_hat), T)
    return QuantileEstimate(T=float(T), x_T_hat=x_T)


def exceedance_probability(
    fit: FitResult, threshold: float, family: Optional[str] = None, c: float = 0.0
) -> float:
    """P(X > threshold) under the fitted parameters.

    ``family`` overrides the family recorded on the fit; that is how a fit
    performed on log(x - c) with normal machinery is read back as a
    three-parameter log model (pass family="lognormal3" and the threshold
    shift c). A NaN threshold raises ValueError; +-inf give 0 and 1.
    """
    threshold = _check_real(threshold, "threshold", finite=False)
    d = DistributionSpec(fit.family if family is None else family, a=fit.a_hat, b=fit.b_hat, c=c)
    return 1.0 - float(cdf(d, threshold))
