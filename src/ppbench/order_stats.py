"""Moments of order statistics for reduced Gumbel and Normal parents.

Two routes are provided. The expansion route Taylor-expands the quantile
function around the mean of the uniform order statistic ``U_(i) ~
Beta(i, N - i + 1)``, keeping derivatives up to a chosen order ``k <= 4``;
it is cheap and works for any N. Its kernels broadcast over integer rank
arrays, so a covariance matrix is O(N^2) array work in one call, not O(N^2)
Python calls. The exact route is the reference the expansion is judged
against and is cost-guarded to moderate N. Means and variances integrate
against the order-statistic density with adaptive ``quad``. The joint
moments E[Z_i Z_j], i < j, come from one blocked trapezoid quadrature on
fixed nodes per (family, N) that serves every pair at once; its error is
estimated from the same nodes at twice the step and must stay below
EXACT_COV_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .distributions import (
    GUMBEL,
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
    """A quadrature failed to reach the required error bound."""


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


# Fixed nodes of the joint-moment quadrature in _exact_joint_moments. Beyond
# the ends of its z1 range each parent's density is below about 1e-17; the
# inner gap t = z2 - z1 = exp(s) runs from exp(-25) ~ 1.4e-11 to about 50.
_COV_Z1_RANGE = {NORMAL: (-9.0, 9.0), GUMBEL: (-4.5, 40.0)}
_COV_S_RANGE = (-25.0, math.log(50.0))
_COV_STEP_Z = 0.05
_COV_STEP_S = 0.1
_COV_BLOCK = 32  # z1 rows per block; even, so block parity follows the grid's

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _nodes(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(round((hi - lo) / step) + 1)


def _log_parent(family: str, z: np.ndarray):
    """log f, log F and log S = log(1 - F) of the reduced parent at z."""
    if family == GUMBEL:
        e = np.exp(-z)
        return -z - e, -e, np.log(-np.expm1(-e))
    return -0.5 * z * z - _LOG_SQRT_2PI, special.log_ndtr(z), special.log_ndtr(-z)


@lru_cache(maxsize=None)
def _exact_joint_moments(family: str, n: int) -> np.ndarray:
    """E[Z_i Z_j] for every pair of ranks i < j, in the upper triangle of an N x N table.

    One trapezoid rule on fixed nodes serves every pair: z1 on a uniform grid
    of step _COV_STEP_Z, and the gap t = z2 - z1 = exp(s) with s on a uniform
    grid of step _COV_STEP_S (Jacobian t). The integrand is analytic and
    decays fast at both ends of both variables, so the rule converges
    exponentially in 1/step; it is negligible at the grid's edges, so their
    half weights are dropped. The joint density is built in log form from
    log f, log F, log S and log(F2 - F1), which are evaluated once per block
    of z1 rows and shared by all pairs; F2 - F1 is formed as S1 - S2 where
    F1 >= 1/2, to keep it accurate in the upper tail.

    The error estimate per pair is |I_h - I_2h|, where I_2h sums the even
    nodes of the same grid in both variables; QuadratureError is raised if
    it exceeds EXACT_COV_TOL.
    """
    lo, hi = _COV_Z1_RANGE[family]
    z = _nodes(lo, hi, _COV_STEP_Z)
    t = np.exp(_nodes(*_COV_S_RANGE, _COV_STEP_S))
    ii, jj = np.triu_indices(n, 1)
    i, j = ii + 1, jj + 1
    logc = (
        special.gammaln(n + 1)
        - special.gammaln(i)
        - special.gammaln(j - i)
        - special.gammaln(n - j + 1)
    )
    fine = np.zeros(i.size)
    coarse = np.zeros(i.size)
    for start in range(0, z.size, _COV_BLOCK):
        z1 = z[start : start + _COV_BLOCK, None]
        z2 = z1 + t
        lf1, lF1, lS1 = _log_parent(family, z1)
        lf2, lF2, lS2 = _log_parent(family, z2)
        F1 = np.exp(lF1)
        dF = np.where(F1 >= 0.5, np.exp(lS1) - np.exp(lS2), np.exp(lF2) - F1)
        with np.errstate(divide="ignore"):
            ldF = np.log(dF)
        base = lf1 + lf2
        moment = z1 * z2 * t
        for k in range(i.size):
            # zero exponents are skipped so that log(0) never multiplies 0
            logd = base + logc[k]
            if i[k] > 1:
                logd = logd + (i[k] - 1) * lF1
            if j[k] - i[k] > 1:
                logd = logd + (j[k] - i[k] - 1) * ldF
            if n - j[k] > 0:
                logd = logd + (n - j[k]) * lS2
            g = moment * np.exp(logd)
            fine[k] += g.sum()
            coarse[k] += g[::2, ::2].sum()
    cell = _COV_STEP_Z * _COV_STEP_S
    fine *= cell
    coarse *= 4.0 * cell
    err = float(np.max(np.abs(fine - coarse)))
    if err > EXACT_COV_TOL:
        raise QuadratureError(
            "joint-moment quadrature error %.3e exceeds %.1e" % (err, EXACT_COV_TOL)
        )
    table = np.zeros((n, n))
    table[ii, jj] = fine
    table.flags.writeable = False  # shared by every caller through the cache
    return table


@lru_cache(maxsize=None)
def exact_cov(family: str, i: int, j: int, n: int) -> float:
    """Covariance of reduced order statistics by quadrature.

    Variances come from the adaptive one-dimensional quadrature of the first
    two moments. Off-diagonal entries read E[Z_i Z_j] from one fixed-node
    trapezoid quadrature of the joint density that serves every pair of an
    (family, N) at once (see _exact_joint_moments); it raises QuadratureError
    if its error estimate exceeds EXACT_COV_TOL. Guarded to N <= 10.
    Symmetric in (i, j).
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
    joint = float(_exact_joint_moments(family, n)[i - 1, j - 1])
    return joint - exact_mean(family, i, n) * exact_mean(family, j, n)


def ensure_spd(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Return an SPD-repaired copy of V, its lower Cholesky factor and the shift added.

    The diagonal shift starts at RIDGE_UNIT * trace(V)/N and doubles until
    Cholesky succeeds; 0.0 means the matrix was already positive definite.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("covariance must be a square matrix")
    try:
        return V, np.linalg.cholesky(V), 0.0
    except np.linalg.LinAlgError:
        pass
    base = RIDGE_UNIT * float(np.trace(V)) / V.shape[0]
    if base <= 0.0:
        base = RIDGE_UNIT
    delta = base
    for _ in range(80):
        repaired = V + delta * np.eye(V.shape[0])
        try:
            return repaired, np.linalg.cholesky(repaired), delta
        except np.linalg.LinAlgError:
            delta *= 2.0
    raise np.linalg.LinAlgError("could not repair covariance to positive definite")


@dataclass(frozen=True)
class OrderStatMoments:
    """Mean vector and covariance matrix of reduced order statistics.

    L is the lower Cholesky factor of V that ensure_spd computed, so a GLS
    fit whitens with it instead of factoring V again.
    """

    family: str
    n: int
    k: int
    cov_mode: str
    y: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    L: np.ndarray = field(repr=False)
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

    V, L, ridge = ensure_spd(V)
    return OrderStatMoments(
        family=family, n=n, k=k, cov_mode=cov_mode, y=y, V=V, L=L, ridge=ridge
    )
