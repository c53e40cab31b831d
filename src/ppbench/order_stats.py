"""Moments of order statistics for reduced Gumbel and Normal parents.

Two routes are provided. The expansion route Taylor-expands the quantile
function around the mean of the uniform order statistic ``U_(i) ~
Beta(i, N - i + 1)``, keeping derivatives up to a chosen order ``k <= 4``;
it is cheap and works for any N. Its kernels broadcast over integer rank
arrays, so a covariance matrix is O(N^2) array work in one call, not O(N^2)
Python calls. The exact route integrates against the order-statistic
density with adaptive quadrature; it is the reference the expansion is
judged against and is cost-guarded to moderate N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .distributions import (
    LOGNORMAL3,
    NORMAL,
    canonical_family,
    quantile_derivative,
    reduced_quantile,
)

EXPANSION = "expansion"
EXACT = "exact"
DIAGONAL = "diagonal"
IDENTITY = "identity"
COV_MODES = (EXPANSION, EXACT, DIAGONAL, IDENTITY)

EXACT_MEAN_MAX_N = 100
EXACT_COV_MAX_N = 10
EXACT_MEAN_TOL = 1e-9
EXACT_COV_TOL = 1e-7

# Ridge repair for covariance matrices that lose positive definiteness to
# rounding: start at 1e-10 * mean diagonal scale and double until Cholesky
# succeeds.
RIDGE_UNIT = 1e-10


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the required error bound."""


def _moment_family(family: str) -> str:
    # The log family lives on normal probability paper, so its reduced-variate
    # order statistics are the normal ones.
    family = canonical_family(family)
    return NORMAL if family == LOGNORMAL3 else family


def _check_indices(i, n: int) -> np.ndarray:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("sample size must be a positive int, got %r" % (n,))
    r = np.asarray(i)
    if r.dtype.kind not in "iu" or np.any(r < 1) or np.any(r > n):
        raise ValueError("order index must be ints with 1 <= i <= N, got i=%r" % (i,))
    return r


@dataclass(frozen=True)
class BetaOrderLaw:
    """Distribution of the i-th of N uniform order statistics."""

    i: int
    n: int

    def __post_init__(self) -> None:
        _check_indices(self.i, self.n)

    @property
    def shape_a(self) -> int:
        return self.i

    @property
    def shape_b(self) -> int:
        return self.n - self.i + 1

    @property
    def mean(self) -> float:
        return self.i / (self.n + 1.0)

    @property
    def variance(self) -> float:
        mu = self.mean
        return mu * (1.0 - mu) / (self.n + 2.0)


def expansion_mean(family: str, i, n: int, k: int = 4):
    """Approximate E of the i-th reduced order statistic, truncation level k.

    k = 0 keeps only the quantile at the mean uniform position (the
    distribution-free value); the first-order term vanishes identically, so
    k = 1 equals k = 0. Levels 2, 3, 4 add the second, third and fourth
    quantile-derivative corrections.

    ``i`` is an int (giving a float) or an integer array of ranks.
    """
    family = _moment_family(family)
    i = _check_indices(i, n)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0 or k > 4:
        raise ValueError("truncation level k must be an int in 0..4, got %r" % (k,))

    mu = i / (n + 1.0)
    q = 1.0 - mu
    d = n + 2.0
    value = reduced_quantile(family, mu)
    if k >= 2:
        value += mu * q / (2.0 * d) * quantile_derivative(family, mu, 2)
    if k >= 3:
        value += mu * q * (q - mu) / (3.0 * d * d) * quantile_derivative(family, mu, 3)
    if k >= 4:
        value += (mu * q) ** 2 / (8.0 * d * d) * quantile_derivative(family, mu, 4)
    return float(value) if i.ndim == 0 else value


def expansion_cov(family: str, i, j, n: int):
    """Second-order covariance approximation between reduced order statistics.

    ``i`` and ``j`` are ints (giving a float) or integer rank arrays that
    broadcast together. For i <= j, with p = i/(N+1), q = 1 - p, d = N + 2,
    g_r the r-th quantile derivative at p and h = (q - p) g2 + p q g3 / 2,

        cov = p_i q_j / d^2 (d g1_i g1_j + h_i g1_j + g1_i h_j + p_i q_j g2_i g2_j / 2),

    a sum of three products of a factor of i and a factor of j. For i > j
    the ranks swap, which is exactly the symmetry of the covariance.
    """
    family = _moment_family(family)
    i = _check_indices(i, n) - 1
    j = _check_indices(j, n) - 1

    p = np.arange(1, n + 1) / (n + 1.0)
    q = 1.0 - p
    d = n + 2.0
    g1, g2, g3 = (quantile_derivative(family, p, r) for r in (1, 2, 3))
    h = (q - p) * g2 + 0.5 * p * q * g3
    # factors of the lower rank (u) and of the higher rank (v, carrying 1/d^2)
    u1, u2, u3 = p * (d * g1 + h), p * g1, 0.5 * p * p * g2
    w = q / (d * d)
    v1, v2, v3 = w * g1, w * h, w * q * g2

    def upper(lo, hi):
        return u1[lo] * v1[hi] + u2[lo] * v2[hi] + u3[lo] * v3[hi]

    cov = np.where(i <= j, upper(i, j), upper(j, i))
    return float(cov) if cov.ndim == 0 else cov


def _order_stat_pdf_factory(family: str, i: int, n: int):
    from .distributions import _cdf_z, _pdf_z  # reduced-form internals

    lognorm = special.gammaln(n + 1) - special.gammaln(i) - special.gammaln(n - i + 1)

    def density(z: float) -> float:
        F = float(_cdf_z(family, np.asarray(z)))
        f = float(_pdf_z(family, np.asarray(z)))
        if f == 0.0:
            return 0.0
        logd = lognorm + math.log(f)
        # zero exponents are skipped so that log(0) never multiplies 0
        if i > 1:
            if F <= 0.0:
                return 0.0
            logd += (i - 1) * math.log(F)
        if n - i > 0:
            if F >= 1.0:
                return 0.0
            logd += (n - i) * math.log1p(-F)
        return math.exp(logd)

    return density


@lru_cache(maxsize=None)
def exact_mean(family: str, i: int, n: int) -> float:
    """E of the i-th reduced order statistic by adaptive quadrature.

    Guarded to N <= 100; raises QuadratureError if the integrator cannot
    certify an absolute error below 1e-9.
    """
    family = _moment_family(family)
    _check_indices(i, n)
    if n > EXACT_MEAN_MAX_N:
        raise ValueError("exact mean is limited to N <= %d" % EXACT_MEAN_MAX_N)

    dens = _order_stat_pdf_factory(family, i, n)
    val, err = integrate.quad(
        lambda z: z * dens(z), -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400
    )
    if err > EXACT_MEAN_TOL:
        raise QuadratureError(
            "order-statistic mean quadrature error %.3e exceeds %.1e" % (err, EXACT_MEAN_TOL)
        )
    return float(val)


@lru_cache(maxsize=None)
def _exact_second_moment(family: str, i: int, n: int) -> float:
    dens = _order_stat_pdf_factory(family, i, n)
    val, err = integrate.quad(
        lambda z: z * z * dens(z), -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400
    )
    if err > EXACT_COV_TOL:
        raise QuadratureError("second-moment quadrature error %.3e too large" % err)
    return float(val)


@lru_cache(maxsize=None)
def exact_cov(family: str, i: int, j: int, n: int) -> float:
    """Covariance of reduced order statistics by (double) quadrature.

    The joint density integral is quadratic in cost, hence the N <= 10
    guard. Symmetric in (i, j).
    """
    family = _moment_family(family)
    _check_indices(i, n)
    _check_indices(j, n)
    if n > EXACT_COV_MAX_N:
        raise ValueError("exact covariance is limited to N <= %d" % EXACT_COV_MAX_N)
    if i > j:
        i, j = j, i

    if i == j:
        m = exact_mean(family, i, n)
        return _exact_second_moment(family, i, n) - m * m

    from .distributions import _cdf_z, _pdf_z

    logc = (
        special.gammaln(n + 1)
        - special.gammaln(i)
        - special.gammaln(j - i)
        - special.gammaln(n - j + 1)
    )

    def joint(z2: float, z1: float) -> float:
        # z1 < z2 on the integration domain
        F1 = float(_cdf_z(family, np.asarray(z1)))
        F2 = float(_cdf_z(family, np.asarray(z2)))
        f1 = float(_pdf_z(family, np.asarray(z1)))
        f2 = float(_pdf_z(family, np.asarray(z2)))
        if f1 == 0.0 or f2 == 0.0:
            return 0.0
        logd = logc + math.log(f1) + math.log(f2)
        if i > 1:
            if F1 <= 0.0:
                return 0.0
            logd += (i - 1) * math.log(F1)
        if j - i > 1:
            dF = F2 - F1
            if dF <= 0.0:
                return 0.0
            logd += (j - i - 1) * math.log(dF)
        if n - j > 0:
            if F2 >= 1.0:
                return 0.0
            logd += (n - j) * math.log1p(-F2)
        return z1 * z2 * math.exp(logd)

    val, err = integrate.dblquad(
        joint,
        -np.inf,
        np.inf,
        lambda z1: z1,
        np.inf,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    if err > EXACT_COV_TOL:
        raise QuadratureError(
            "joint-moment quadrature error %.3e exceeds %.1e" % (err, EXACT_COV_TOL)
        )
    return float(val) - exact_mean(family, i, n) * exact_mean(family, j, n)


def ensure_spd(V: np.ndarray) -> tuple[np.ndarray, float]:
    """Return an SPD-repaired copy of V and the diagonal shift that was added.

    The shift starts at RIDGE_UNIT * trace(V)/N and doubles until Cholesky
    succeeds; 0.0 means the matrix was already positive definite.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("covariance must be a square matrix")
    try:
        np.linalg.cholesky(V)
        return V, 0.0
    except np.linalg.LinAlgError:
        pass
    base = RIDGE_UNIT * float(np.trace(V)) / V.shape[0]
    if base <= 0.0:
        base = RIDGE_UNIT
    delta = base
    for _ in range(80):
        try:
            np.linalg.cholesky(V + delta * np.eye(V.shape[0]))
            return V + delta * np.eye(V.shape[0]), delta
        except np.linalg.LinAlgError:
            delta *= 2.0
    raise np.linalg.LinAlgError("could not repair covariance to positive definite")


@dataclass(frozen=True)
class OrderStatMoments:
    """Mean vector and covariance matrix of reduced order statistics."""

    family: str
    n: int
    k: int
    cov_mode: str
    y: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    ridge: float = 0.0


def build_moments(
    family: str, n: int, k: int = 4, cov_mode: str = EXPANSION
) -> OrderStatMoments:
    """Assemble the design moments used by generalized least squares.

    cov_mode selects the covariance model: the second-order expansion, the
    exact quadrature values (N <= 10), the expansion diagonal only, or the
    identity. In exact mode the mean vector is also exact and k is ignored.
    The expansion modes make one broadcast kernel call per moment, O(N^2)
    array work for the full matrix, not O(N^2) Python calls.
    """
    family = _moment_family(family)
    if cov_mode not in COV_MODES:
        raise ValueError("cov_mode must be one of %s" % (COV_MODES,))
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError("need at least two order statistics, got n=%r" % (n,))

    if cov_mode == EXACT:
        if n > EXACT_COV_MAX_N:
            raise ValueError("exact moments are limited to N <= %d" % EXACT_COV_MAX_N)
        y = np.array([exact_mean(family, i, n) for i in range(1, n + 1)])
        V = np.empty((n, n))
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                V[i - 1, j - 1] = V[j - 1, i - 1] = exact_cov(family, i, j, n)
    else:
        r = np.arange(1, n + 1)
        y = expansion_mean(family, r, n, k)
        if cov_mode == IDENTITY:
            V = np.eye(n)
        elif cov_mode == DIAGONAL:
            V = np.diag(expansion_cov(family, r, r, n))
        else:
            V = expansion_cov(family, r[:, None], r, n)

    V, ridge = ensure_spd(V)
    return OrderStatMoments(family=family, n=n, k=k, cov_mode=cov_mode, y=y, V=V, ridge=ridge)
