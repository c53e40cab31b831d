import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from ppbench import order_stats
from ppbench import (
    OrderStatMoments,
    build_moments,
    ensure_spd,
    exact_cov,
    QuadratureError,
    exact_mean,
    expansion_cov,
    expansion_mean,
    quantile_derivative,
    reduced_cdf,
)

EULER_GAMMA = 0.5772156649015329


# --- exact integrals against closed forms -----------------------------------


def test_gumbel_single_observation_mean_is_euler_gamma():
    assert exact_mean("gumbel", 1, 1) == pytest.approx(EULER_GAMMA, abs=1e-8)


def test_gumbel_maximum_mean_shifts_by_log_n():
    for n in (2, 5, 10):
        assert exact_mean("gumbel", n, n) == pytest.approx(
            EULER_GAMMA + math.log(n), abs=1e-8
        )


def test_gumbel_order_means_sum_to_sample_total():
    n = 7
    total = sum(exact_mean("gumbel", i, n) for i in range(1, n + 1))
    assert total == pytest.approx(n * EULER_GAMMA, abs=1e-7)


def test_normal_pair_mean_is_inverse_root_pi():
    assert exact_mean("normal", 2, 2) == pytest.approx(1 / math.sqrt(math.pi), abs=1e-8)
    assert exact_mean("normal", 1, 2) == pytest.approx(-1 / math.sqrt(math.pi), abs=1e-8)


def test_normal_order_means_are_antisymmetric():
    n = 9
    for i in range(1, n + 1):
        lo = exact_mean("normal", i, n)
        hi = exact_mean("normal", n + 1 - i, n)
        assert lo == pytest.approx(-hi, abs=1e-8)


def test_normal_pair_covariance_is_inverse_pi():
    assert exact_cov("normal", 1, 2, 2) == pytest.approx(1 / math.pi, abs=1e-14)


def test_normal_pair_variance():
    assert exact_cov("normal", 2, 2, 2) == pytest.approx(1 - 1 / math.pi, abs=1e-14)


def test_gumbel_pair_covariance_is_log_two_squared():
    assert exact_cov("gumbel", 1, 2, 2) == pytest.approx(math.log(2) ** 2, abs=1e-14)


def test_gumbel_pair_variances():
    pi2_6 = math.pi**2 / 6
    # max of two standard Gumbels is Gumbel(log 2, 1); the z1 nodes end at 40,
    # beyond which z^2 times its density 2 f F integrates to about 1.4e-14
    assert exact_cov("gumbel", 2, 2, 2) == pytest.approx(pi2_6, abs=2e-14)
    assert exact_cov("gumbel", 1, 1, 2) == pytest.approx(
        pi2_6 - 2 * math.log(2) ** 2, abs=1e-14
    )


# Finite breakpoints for mp.quad; beyond the outer ones every parent's
# density is below about 1e-17.
MP_BREAKS = {
    "gumbel": [-4.5, -1, 0, 1, 3, 6, 10, 20, 40],
    "normal": [-9, -3, -1, 0, 1, 3, 9],
}


def _mp_order_stat_moments(family, i, n):
    """E[Z_i] and E[Z_i^2] by mpmath quadrature of the order-statistic density."""
    if family == "gumbel":
        def parent(z):
            e = mp.exp(-z)
            return mp.exp(-z - e), mp.exp(-e), -mp.expm1(-e)
    else:
        def parent(z):
            return mp.npdf(z), mp.ncdf(z), mp.ncdf(-z)

    c = n * mp.binomial(n - 1, i - 1)

    def density(z):
        f, F, S = parent(z)
        return c * f * F ** (i - 1) * S ** (n - i)

    breaks = [mp.mpf(b) for b in MP_BREAKS[family]]
    return (mp.quad(lambda z: z * density(z), breaks),
            mp.quad(lambda z: z * z * density(z), breaks))


# Absolute bounds on the mean and the variance. At N = 201 the worst measured
# gaps are 7.5e-13 and 4.0e-12 (Gumbel, rank N), and 3.5e-13 and 9.4e-13
# (normal, ranks 1 and N).
MP_BOUNDS = {5: (1e-12, 1e-12), 30: (1e-12, 1e-12), 100: (1e-12, 1e-12), 201: (1e-12, 5e-12)}


@pytest.mark.parametrize("n", sorted(MP_BOUNDS))
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_exact_mean_and_variance_match_mpmath(family, n):
    mean_tol, var_tol = MP_BOUNDS[n]
    # the variances alone read only the second moments, so exact_cov gives
    # them at every N, beyond the joint table's reach
    with mp.workdps(20):
        for i in (1, (n + 1) // 2, n):
            m1, m2 = _mp_order_stat_moments(family, i, n)
            assert exact_mean(family, i, n) == pytest.approx(float(m1), abs=mean_tol)
            assert exact_cov(family, i, i, n) == pytest.approx(float(m2 - m1 * m1), abs=var_tol)


def test_exact_cov_symmetric_in_ranks():
    assert exact_cov("normal", 2, 4, 6) == exact_cov("normal", 4, 2, 6)


@pytest.mark.parametrize("n", [2, 5, 10])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_exact_cov_broadcast_matches_scalar_calls(family, n):
    r = np.arange(1, n + 1)
    grid = exact_cov(family, r[:, None], r, n)
    assert grid.shape == (n, n)
    np.testing.assert_array_equal(grid, grid.T)
    scalar = exact_cov(family, 1, n, n)
    assert type(scalar) is float
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert grid[i - 1, j - 1] == exact_cov(family, i, j, n)
    np.testing.assert_array_equal(exact_cov(family, r, r, n), np.diag(grid))


@pytest.mark.parametrize(
    "bad", [np.array([0, 1, 2]), np.array([1, 2, 6]), np.array([1.0, 2.0]),
            np.array([True, False]), 2.0, True, 0, 6]
)
def test_exact_cov_rejects_bad_ranks(bad):
    n = 5
    with pytest.raises(ValueError):
        exact_cov("normal", bad, 3, n)
    with pytest.raises(ValueError):
        exact_cov("normal", np.arange(1, n + 1), bad, n)


# --- the joint-moment quadrature behind the exact off-diagonal covariance ----

VAR_Z = {"normal": 1.0, "gumbel": math.pi**2 / 6}


def _exact_v(family, n):
    r = np.arange(1, n + 1)
    return exact_cov(family, r[:, None], r, n)


@pytest.mark.parametrize("n", [3, 5, 10, 20])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_exact_cov_total_is_n_times_parent_variance(family, n):
    # the order statistics sum to the sample total, whose variance is n Var(Z)
    assert _exact_v(family, n).sum() == pytest.approx(n * VAR_Z[family], abs=1e-13)


@pytest.mark.parametrize("n", [3, 5, 10, 20])
def test_exact_cov_normal_rows_and_reflection(n):
    V = _exact_v("normal", n)
    # Z_(i) - mean is independent of the mean, so Cov(Z_(i), sum Z) = Var(Z) = 1
    np.testing.assert_allclose(V.sum(axis=1), 1.0, rtol=0, atol=1e-13)
    # the normal is symmetric: V[i, j] = V[n+1-j, n+1-i]
    np.testing.assert_allclose(V, V[::-1, ::-1].T, rtol=0, atol=1e-12)


def _dblquad_joint_moment(family, i, j, n):
    """E[Z_i Z_j] by adaptive double quadrature of a scalar joint density.

    A transcription of the earlier exact route, kept as the reference the
    fixed-node quadrature is checked against.
    """
    if family == "gumbel":
        # exp(-z) overflows far in the left tail, where F and f are 0
        def cdf(z):
            return math.exp(-math.exp(-z)) if z > -700 else 0.0

        def pdf(z):
            return math.exp(-z - math.exp(-z)) if z > -700 else 0.0
    else:
        cdf = special.ndtr

        def pdf(z):
            return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    logc = (special.gammaln(n + 1) - special.gammaln(i) - special.gammaln(j - i)
            - special.gammaln(n - j + 1))

    def joint(z2, z1):
        F1, F2, f1, f2 = cdf(z1), cdf(z2), pdf(z1), pdf(z2)
        if f1 == 0.0 or f2 == 0.0:
            return 0.0
        logd = logc + math.log(f1) + math.log(f2)
        if i > 1:
            if F1 <= 0.0:
                return 0.0
            logd += (i - 1) * math.log(F1)
        if j - i > 1:
            if F2 - F1 <= 0.0:
                return 0.0
            logd += (j - i - 1) * math.log(F2 - F1)
        if n - j > 0:
            if F2 >= 1.0:
                return 0.0
            logd += (n - j) * math.log1p(-F2)
        return z1 * z2 * math.exp(logd)

    val, _ = integrate.dblquad(
        joint, -np.inf, np.inf, lambda z1: z1, np.inf, epsabs=1e-10, epsrel=1e-10
    )
    return val


@pytest.mark.parametrize("family,i,j", [
    ("normal", 1, 2), ("normal", 2, 4), ("gumbel", 1, 5), ("gumbel", 3, 4),
    ("gumbel", 4, 5),  # the lower rank sits in the mapped right tail of z1; 2.0e-14 off
])
def test_exact_cov_matches_adaptive_double_quadrature(family, i, j):
    n = 5
    got = exact_cov(family, i, j, n) + exact_mean(family, i, n) * exact_mean(family, j, n)
    assert got == pytest.approx(_dblquad_joint_moment(family, i, j, n), abs=1e-9)


def _clear_exact_caches():
    # exact_cov keeps no cache: it reads the two tables cleared here
    for cached in (order_stats._exact_moments, order_stats._exact_joint_moments,
                   exact_mean):
        cached.cache_clear()


@pytest.fixture
def cold_exact_cov():
    _clear_exact_caches()
    yield
    _clear_exact_caches()


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_exact_cov_coarse_grid_raises(family, monkeypatch, cold_exact_cov):
    monkeypatch.setattr(order_stats, "_COV_STEP_S", 0.4)
    with pytest.raises(QuadratureError):
        exact_cov(family, 1, 2, 4)


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_exact_mean_coarse_grid_raises(family, monkeypatch, cold_exact_cov):
    # the means take a quarter of the joint step: v step 0.3
    monkeypatch.setattr(order_stats, "_COV_STEP_Z1", 1.2)
    with pytest.raises(QuadratureError, match="order-statistic mean"):
        exact_mean(family, 1, 30)


@pytest.mark.parametrize("n", [5, 30, 100, 201])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_exact_moments_v_step_does_not_bind(family, n, monkeypatch, cold_exact_cov):
    # halving the means' v step moves the means by <= 4.5e-15 and the second
    # moments by <= 4.0e-15 relative (measured, Gumbel, N = 201)
    mean, second = order_stats._exact_moments(family, n)
    monkeypatch.setattr(order_stats, "_COV_STEP_Z1", order_stats._COV_STEP_Z1 / 2)
    _clear_exact_caches()
    finer_mean, finer_second = order_stats._exact_moments(family, n)
    np.testing.assert_allclose(mean, finer_mean, rtol=0, atol=1e-14)
    np.testing.assert_allclose(second, finer_second, rtol=1e-14, atol=0)


def _log_parent(family, z):
    """log f, log F and log S = log(1 - F) of the reduced parent at z.

    A transcription of the log-form parent kernel that the exact means used
    before they moved to linear space; the tests keep it as a reference.
    """
    if family == "gumbel":
        e = np.exp(-z)
        return -z - e, -e, np.log(-np.expm1(-e))
    lf = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
    return lf, special.log_ndtr(z), special.log_ndtr(-z)


def _log_form_moments(family, n):
    """E[Z_i] and E[Z_i^2] of every rank from the log-form density, on _exact_moments' nodes."""
    z, jz = order_stats._z1_nodes(family)
    lf, lF, lS = _log_parent(family, z)
    a = np.arange(n)[:, None]
    b = n - 1 - a
    logc = special.gammaln(n + 1) - special.gammaln(a + 1) - special.gammaln(b + 1)
    # zero exponents are skipped so that log(0) never multiplies 0
    logd = logc + lf + np.where(a > 0, a * lF, 0.0) + np.where(b > 0, b * lS, 0.0)
    w = np.exp(logd) * jz
    step = order_stats._COV_STEP_Z1 / 4
    return step * (z * w).sum(axis=1), step * (z * z * w).sum(axis=1)


# The linear density against the log form on the same nodes, every rank; the
# log form is how the exact means were first computed. Bounds 1e-14 absolute
# (means) and relative (second moments); measured worst gaps 4.0e-15
# (Gumbel, N = 100) and 3.9e-15 (normal, N = 100).
@pytest.mark.parametrize("n", [2, 5, 10, 30, 42, 100])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_exact_moments_match_log_form(family, n):
    mean, second = order_stats._exact_moments(family, n)
    want_mean, want_second = _log_form_moments(family, n)
    np.testing.assert_allclose(mean, want_mean, rtol=0, atol=1e-14)
    np.testing.assert_allclose(second, want_second, rtol=1e-14, atol=0)


def _per_pair_joint_moments(family, n, z1, w1):
    """E[Z_i Z_j] for i < j, one log-form integrand per pair (upper triangle).

    A transcription of the earlier per-pair kernel of _exact_joint_moments,
    kept as the reference its power-table contraction is checked against:
    on the same nodes when z1 and its weights w1 (step times Jacobian) are
    those of _exact_joint_moments, and as an independent-grid oracle on others.
    """
    z1, w1 = z1[:, None], w1[:, None]
    s = order_stats._nodes(*order_stats._COV_S_RANGE, order_stats._COV_STEP_S)
    t = np.exp(s - np.exp(-s))
    z2 = z1 + t
    lf1, lF1, lS1 = _log_parent(family, z1)
    lf2, lF2, lS2 = _log_parent(family, z2)
    F1 = np.exp(lF1)
    dF = np.where(F1 >= 0.5, np.exp(lS1) - np.exp(lS2), np.exp(lF2) - F1)
    with np.errstate(divide="ignore"):
        ldF = np.log(dF)
    jac = t * (1.0 + np.exp(-s))
    moment = z1 * z2 * w1 * jac * order_stats._COV_STEP_S
    table = np.zeros((n, n))
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            logd = (lf1 + lf2 + special.gammaln(n + 1) - special.gammaln(i)
                    - special.gammaln(j - i) - special.gammaln(n - j + 1))
            # zero exponents are skipped so that log(0) never multiplies 0
            if i > 1:
                logd = logd + (i - 1) * lF1
            if j - i > 1:
                logd = logd + (j - i - 1) * ldF
            if n - j > 0:
                logd = logd + (n - j) * lS2
            table[i - 1, j - 1] = (moment * np.exp(logd)).sum()
    return table


@pytest.mark.parametrize("n", [2, 3, 5, 10])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_joint_moments_match_per_pair_log_form(family, n, cold_exact_cov):
    got = order_stats._exact_joint_moments(family, n)
    z1, jz = (x[::4] for x in order_stats._z1_nodes(family))
    want = _per_pair_joint_moments(family, n, z1, order_stats._COV_STEP_Z1 * jz)
    upper = np.triu_indices(n, 1)
    np.testing.assert_allclose(got[upper], want[upper], rtol=0, atol=1e-14)
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_joint_moments_match_uniform_z1_grid(family, n, cold_exact_cov):
    # the per-pair rule on uniform z1 nodes at step 0.05 (Jacobian 1) shares
    # no z1 node placement with the sinh map; measured <= 1.3e-15 apart
    got = order_stats._exact_joint_moments(family, n)
    z1 = order_stats._nodes(*order_stats._COV_Z1_RANGE[family], 0.05)
    want = _per_pair_joint_moments(family, n, z1, np.full_like(z1, 0.05))
    upper = np.triu_indices(n, 1)
    np.testing.assert_allclose(got[upper], want[upper], rtol=0, atol=1e-14)


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_z1_nodes(family):
    z, jz = order_stats._z1_nodes(family)
    # _pair_factors splits the rows at F1 < 1/2 on increasing nodes
    assert np.all(np.diff(z) > 0)
    a = order_stats._COV_Z1_SCALE[family]
    np.testing.assert_allclose(jz, np.sqrt(1.0 + (z / a) ** 2), rtol=1e-15)
    np.testing.assert_allclose(np.diff(a * np.arcsinh(z / a)), order_stats._COV_STEP_Z1 / 4,
                               rtol=1e-12)
    if family == "normal":
        assert np.array_equal(z, -z[::-1]) and np.array_equal(jz, jz[::-1])
    # every fourth node is a joint node: the grid starts and ends on one, and
    # the first joint node at or beyond each end of the range closes it
    assert (z.size - 1) % 4 == 0
    joint = z[::4]
    assert 0.0 in joint
    lo, hi = order_stats._COV_Z1_RANGE[family]
    assert joint[0] <= lo < joint[1] and joint[-2] < hi <= joint[-1]
    assert joint.size == {"gumbel": 160, "normal": 145}[family]


@pytest.mark.parametrize("family,tails", [("gumbel", (-3.0, 20.0)), ("normal", (-8.0, 8.0))])
def test_pair_gap_is_accurate_in_both_tails(family, tails):
    # F2 - F1 over a gap of 1e-3 deep in each tail, one row on each side of
    # the median: either difference, taken on the wrong side, cancels to a
    # relative error of 1e-5 or worse
    if family == "gumbel":
        def cdf(z):
            return mp.exp(-mp.exp(-z))
    else:
        cdf = mp.ncdf
    z1 = np.array(tails)[:, None]
    z2 = z1 + 1e-3
    gap = order_stats._pair_factors(family, z1, z2)[-1]
    with mp.workdps(50):
        want = [float(cdf(mp.mpf(b)) - cdf(mp.mpf(a))) for a, b in zip(z1[:, 0], z2[:, 0])]
    np.testing.assert_allclose(gap[:, 0], want, rtol=1e-9)


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_joint_moments_at_n20_pass_their_error_check(family, cold_exact_cov):
    # exact_cov has no size guard below EXACT_MAX_N: at N = 20 the joint
    # table's estimates are 3.3e-8 (Gumbel) and 6.4e-8 (normal), so the public
    # kernel serves the whole matrix, and it is positive definite
    n = 20
    V = _exact_v(family, n)
    assert V.shape == (n, n) and np.array_equal(V, V.T)
    assert _is_spd(V)


@pytest.mark.parametrize("family,last", [("gumbel", 23), ("normal", 20)])
def test_exact_cov_reach_ends_where_its_check_fails(family, last, cold_exact_cov):
    # the last N whose joint table passes its check, then the first that fails
    # (estimates 1.25e-7 Gumbel and 1.08e-7 normal, against EXACT_COV_TOL)
    assert np.isfinite(exact_cov(family, 1, last, last))
    with pytest.raises(QuadratureError, match="joint-moment"):
        exact_cov(family, 1, last + 1, last + 1)


@pytest.mark.parametrize("n", [30, 201])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_exact_cov_variances_alone_skip_the_joint_table(family, n, cold_exact_cov):
    # beyond the joint table's reach, the variances still come from the
    # second moments alone, and no joint table is built
    r = np.arange(1, n + 1)
    var = exact_cov(family, r, r, n)
    assert var.shape == (n,) and (var > 0).all()
    assert exact_cov(family, n, n, n) == var[-1]
    assert order_stats._exact_joint_moments.cache_info().misses == 0


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_joint_moments_at_n30_fail_their_error_check(family, cold_exact_cov):
    # the fixed grid is too coarse for the narrow high-rank pair densities at
    # N = 30: the estimates are 4.6e-7 (Gumbel) and 4.8e-6 (normal)
    with pytest.raises(QuadratureError):
        order_stats._exact_joint_moments(family, 30)


@pytest.mark.parametrize("n", [5, 10, 20])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_joint_moments_z1_step_does_not_bind(family, n, monkeypatch, cold_exact_cov):
    # the s step sets the joint moments' error: halving the v step of the z1
    # map (the means' step halves with it) moves no pair i < j by more than a
    # few rounding units (measured <= 1.8e-15); the diagonal, the means'
    # second moments, moved by 8.9e-15 absolute, about 6e-16 relative
    # (Gumbel, N = 20)
    table = order_stats._exact_joint_moments(family, n)
    monkeypatch.setattr(order_stats, "_COV_STEP_Z1", order_stats._COV_STEP_Z1 / 2)
    _clear_exact_caches()
    finer = order_stats._exact_joint_moments(family, n)
    upper = np.triu_indices(n, 1)
    np.testing.assert_allclose(table[upper], finer[upper], rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.diag(table), np.diag(finer), rtol=1e-14, atol=0)


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_joint_moments_coarse_z1_grid_raises(family, monkeypatch, cold_exact_cov):
    # the check still guards the z1 direction: at a v step of 0.4 the
    # estimates are 2.9e-3 (Gumbel) and 4.3e-5 (normal)
    monkeypatch.setattr(order_stats, "_COV_STEP_Z1", 0.4)
    with pytest.raises(QuadratureError, match="joint-moment"):
        order_stats._exact_joint_moments(family, 4)


def test_joint_moments_beyond_float_factorials_raise_quadrature_error(cold_exact_cov):
    # 171! does not fit a float; the pair constants are taken in log form, so
    # the kernel reaches its error check instead of overflowing
    with pytest.raises(QuadratureError):
        order_stats._exact_joint_moments("normal", 171)


def test_joint_moments_memory_stays_per_pair(cold_exact_cov):
    # per-pair accumulators instead of three (N-1)^3 arrays: one normal table
    # at N = 100 peaks at about 11 MB, against 31 MB with those arrays
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError):
            order_stats._exact_joint_moments("normal", 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6


def test_trapezoid_check_rejects_nan():
    with pytest.raises(QuadratureError):
        order_stats._check_trapezoid(
            np.array([np.nan, 1.0]), np.array([0.0, 1.0]), 1e-7, "x"
        )


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_joint_moments_nan_raises_and_is_not_cached(family, monkeypatch, cold_exact_cov):
    parent = order_stats._parent

    def nan_parent(family, z, k=None):
        f, F, S = parent(family, z, k)
        return np.where(z > 2.0, np.nan, f), F, S

    monkeypatch.setattr(order_stats, "_parent", nan_parent)
    with pytest.raises(QuadratureError):
        order_stats._exact_joint_moments(family, 5)
    assert order_stats._exact_joint_moments.cache_info().currsize == 0


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_exact_cov_single_observation_is_parent_variance(family):
    assert exact_cov(family, 1, 1, 1) == pytest.approx(VAR_Z[family], abs=1e-9)


def test_exact_mean_guards():
    with pytest.raises(ValueError):
        exact_mean("gumbel", 0, 5)
    with pytest.raises(ValueError):
        exact_mean("gumbel", 6, 5)
    with pytest.raises(ValueError, match="limited to N <= 201"):
        exact_mean("gumbel", 1, 202)


# --- series approximation vs exact ------------------------------------------


def test_expansion_mean_order_zero_is_plug_in_quantile():
    from ppbench import quantile, reduced

    got = expansion_mean("gumbel", 3, 9, k=0)
    assert got == pytest.approx(quantile(reduced("gumbel"), 0.3), rel=1e-14)
    assert expansion_mean("gumbel", 3, 9, k=1) == got


def test_expansion_mean_accuracy_small_sample():
    # worst cells sit at the extremes; interior ranks are much tighter
    n = 5
    for family, edge_tol, mid_tol in (("normal", 0.012, 0.004), ("gumbel", 0.024, 0.008)):
        for i in range(1, n + 1):
            diff = abs(expansion_mean(family, i, n, k=4) - exact_mean(family, i, n))
            assert diff <= edge_tol, (family, i, diff)
            if 1 < i < n:
                assert diff <= mid_tol, (family, i, diff)


def _expansion_errors(family, n, k):
    r = np.arange(1, n + 1)
    return np.abs(expansion_mean(family, r, n, k) - order_stats._exact_moments(family, n)[0])


# The accuracy map in p: the worst |F(eupp) - F(exact mean)| at ranks 1 and N
# (edge) and at the other ranks (interior), as measured, for k = 0, 2, 3, 4.
# Each bound is 1.1 times the measured value.
P_GAP = {
    "gumbel": {
        5: ((6.04e-2, 4.32e-2), (1.42e-2, 9.62e-3), (4.89e-2, 1.68e-2), (2.40e-3, 1.81e-3)),
        10: ((3.63e-2, 3.31e-2), (6.40e-3, 5.05e-3), (3.65e-2, 1.57e-2), (5.45e-4, 5.67e-4)),
        30: ((1.37e-2, 1.41e-2), (1.77e-3, 1.37e-3), (1.70e-2, 8.20e-3), (2.04e-4, 5.08e-5)),
        42: ((9.98e-3, 1.04e-2), (1.22e-3, 9.24e-4), (1.28e-2, 6.27e-3), (1.57e-4, 3.65e-5)),
        100: ((4.30e-3, 4.60e-3), (4.77e-4, 3.48e-4), (5.83e-3, 2.91e-3), (7.28e-5, 1.96e-5)),
        201: ((2.16e-3, 2.35e-3), (2.31e-4, 1.65e-4), (2.99e-3, 1.50e-3), (3.73e-5, 1.05e-5)),
    },
    "normal": {
        5: ((4.42e-2, 2.30e-2), (8.69e-3, 4.45e-3), (3.50e-2, 9.57e-3), (7.45e-4, 6.22e-4)),
        10: ((2.90e-2, 2.35e-2), (3.98e-3, 2.95e-3), (2.76e-2, 1.08e-2), (6.54e-5, 1.91e-4)),
        30: ((1.17e-2, 1.14e-2), (1.09e-3, 8.26e-4), (1.35e-2, 6.28e-3), (1.50e-4, 1.75e-5)),
        42: ((8.64e-3, 8.62e-3), (7.46e-4, 5.56e-4), (1.04e-2, 4.91e-3), (1.21e-4, 2.17e-5)),
        100: ((3.82e-3, 3.95e-3), (3.01e-4, 2.14e-4), (4.86e-3, 2.38e-3), (5.85e-5, 1.45e-5)),
        201: ((1.95e-3, 2.04e-3), (1.50e-4, 1.04e-4), (2.54e-3, 1.26e-3), (3.02e-5, 8.06e-6)),
    },
}


def test_expansion_mean_improves_with_order():
    # truncation error shrinks from k = 0 to 2 to 4. k = 3 is no step on that
    # path: the third- and fourth-derivative terms are both O(1/(N+2)^2), and
    # k = 3 adds the first without the second, so its worst error is 3.0 to
    # 12.9 times that of k = 2 at N = 5..201 (measured), and from N = 30 on
    # it is worse than k = 0 as well
    for family in ("normal", "gumbel"):
        for n in (5, 10, 30, 42, 100, 201):
            err = {k: _expansion_errors(family, n, k).max() for k in (0, 2, 3, 4)}
            assert err[4] <= err[2] <= err[0], (family, n, err)
            assert err[3] >= 2.5 * err[2], (family, n, err)
            if n >= 30:
                assert err[3] > err[0], (family, n, err)
            r = np.arange(1, n + 1)
            exact = reduced_cdf(family, order_stats._exact_moments(family, n)[0])
            for k, (edge, interior) in zip((0, 2, 3, 4), P_GAP[family][n]):
                gap = np.abs(reduced_cdf(family, expansion_mean(family, r, n, k)) - exact)
                assert max(gap[0], gap[-1]) <= 1.1 * edge, (family, n, k)
                assert gap[1:-1].max() <= 1.1 * interior, (family, n, k)


# k = 4 at N = 30, 42, 100 and 201: the worst |eupp - exact| in z sits at
# rank 1 or N and does not fall below its N = 30 value. Measured edge errors
# 2.42e-3, 2.42e-3, 4.44e-3 and 5.29e-3 (Gumbel), 3.04e-3, 3.27e-3, 3.42e-3
# and 3.32e-3 (normal); interior errors at most 1.03e-3 (Gumbel, N = 30) and
# 3.74e-4 (normal, N = 201). The edge bands hold for N <= 100; at N = 201
# the Gumbel's edge error leaves its band upwards.
K4_EDGE_BOUNDS = {"gumbel": (2.4e-3, 4.5e-3), "normal": (3.0e-3, 3.5e-3)}
K4_EDGE_BOUNDS_201 = {"gumbel": (4.5e-3, 5.3e-3), "normal": (3.0e-3, 3.5e-3)}
K4_INTERIOR_BOUND = {"gumbel": 1.1e-3, "normal": 4.0e-4}


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_expansion_mean_k4_edge_ranks_do_not_converge(family):
    edge = {}
    for n in (30, 42, 100, 201):
        lo, hi = (K4_EDGE_BOUNDS if n <= 100 else K4_EDGE_BOUNDS_201)[family]
        err = _expansion_errors(family, n, 4)
        assert int(np.argmax(err)) in (0, n - 1), (family, n)
        edge[n] = max(err[0], err[-1])
        assert lo <= edge[n] <= hi, (family, n, edge[n])
        assert err[1:-1].max() <= K4_INTERIOR_BOUND[family], (family, n)
    assert min(edge[100], edge[201]) >= edge[30], (family, edge)


# The accuracy map in z for k = 0, 2, 3: the worst |eupp - exact| at ranks 1
# and N (edge) and at the other ranks (interior), as measured. Each bound is
# 1.1 times the measured value.
Z_GAP = {
    "gumbel": {
        30: ((0.561, 0.254), (9.22e-2, 2.76e-2), (0.659, 0.155)),
        42: ((0.565, 0.258), (8.83e-2, 2.57e-2), (0.681, 0.163)),
        100: ((0.572, 0.265), (8.21e-2, 2.28e-2), (0.716, 0.177)),
        201: ((0.575, 0.268), (7.97e-2, 2.16e-2), (0.730, 0.182)),
    },
    "normal": {
        30: ((0.194, 9.77e-2), (2.14e-2, 7.59e-3), (0.219, 5.55e-2)),
        42: ((0.190, 9.61e-2), (1.97e-2, 6.71e-3), (0.220, 5.66e-2)),
        100: ((0.178, 9.03e-2), (1.71e-2, 5.35e-3), (0.215, 5.65e-2)),
        201: ((0.168, 8.54e-2), (1.61e-2, 4.81e-3), (0.208, 5.48e-2)),
    },
}


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_expansion_mean_edge_and_interior_gaps_in_z(family):
    for n, bounds in Z_GAP[family].items():
        edge = {}
        for k, (edge_bound, interior_bound) in zip((0, 2, 3), bounds):
            err = _expansion_errors(family, n, k)
            edge[k] = max(err[0], err[-1])
            assert edge[k] <= 1.1 * edge_bound, (family, n, k, edge[k])
            assert err[1:-1].max() <= 1.1 * interior_bound, (family, n, k)
        # expansion_mean's docstring: from N = 30 on, k = 3 is worse than k = 0
        assert edge[3] > edge[0], (family, n, edge)


def test_expansion_mean_k4_worst_rank_is_interior_at_normal_n10():
    # the one measured case where the worst rank is not 1 or N: interior
    # 7.9e-4 (rank 2), edge 5.4e-4
    err = _expansion_errors("normal", 10, 4)
    assert max(err[0], err[-1]) < err[1:-1].max()


def test_expansion_cov_tracks_exact_values():
    # truncation error concentrates where the parent tail is heavy, so the
    # top-rank gumbel variance only rates a relative check
    n = 8
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            got_n = expansion_cov("normal", i, j, n)
            assert got_n == pytest.approx(exact_cov("normal", i, j, n), abs=0.02)
            got_g = expansion_cov("gumbel", i, j, n)
            ref_g = exact_cov("gumbel", i, j, n)
            if j < n:
                assert got_g == pytest.approx(ref_g, abs=0.06), (i, j)
            else:
                assert got_g == pytest.approx(ref_g, rel=0.2), (i, j)


def test_expansion_cov_rank_order_irrelevant():
    got = expansion_cov("gumbel", 5, 2, 9)
    assert isinstance(got, float)
    assert got == expansion_cov("gumbel", 2, 5, 9)


def _expansion_cov_loop(family, n):
    """Scalar transcription of the second-order closed form, pair by pair."""
    g = {
        i: [quantile_derivative(family, i / (n + 1.0), r) for r in (1, 2, 3)]
        for i in range(1, n + 1)
    }
    d = n + 2.0
    V = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            pi, pj = i / (n + 1.0), j / (n + 1.0)
            qi, qj = 1.0 - pi, 1.0 - pj
            (gi1, gi2, gi3), (gj1, gj2, gj3) = g[i], g[j]
            cov = pi * qj / d * gi1 * gj1
            cov += pi * qj / (d * d) * (
                (qi - pi) * gi2 * gj1
                + (qj - pj) * gj2 * gi1
                + 0.5 * pi * qi * gi3 * gj1
                + 0.5 * pj * qj * gj3 * gi1
                + 0.5 * pi * qj * gi2 * gj2
            )
            V[i - 1, j - 1] = V[j - 1, i - 1] = cov
    return V


# The covariance kernel regroups the closed form's products, and numpy's
# array power loop can round g**3 and g**4 differently from the scalar path,
# so the broadcast kernels agree with scalar evaluation to a few ulp, not
# bitwise.
KERNEL_RTOL = 4e-15


@pytest.mark.parametrize("n", [2, 5, 30, 201])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_expansion_cov_broadcast_matches_scalar_loop(family, n):
    r = np.arange(1, n + 1)
    grid = expansion_cov(family, r[:, None], r, n)
    np.testing.assert_allclose(grid, _expansion_cov_loop(family, n), rtol=KERNEL_RTOL, atol=0)
    np.testing.assert_array_equal(expansion_cov(family, r, r, n), np.diag(grid))
    assert expansion_cov(family, 1, n, n) == grid[0, -1] == grid[-1, 0]


@pytest.mark.parametrize("n", [2, 5, 30, 201])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_expansion_mean_broadcast_matches_scalar_calls(family, n):
    r = np.arange(1, n + 1)
    for k in range(5):
        got = expansion_mean(family, r, n, k)
        ref = [expansion_mean(family, i, n, k) for i in range(1, n + 1)]
        np.testing.assert_allclose(got, ref, rtol=KERNEL_RTOL, atol=0)


# Rows of n = 201 checked by scalar calls; every other pair there goes through
# the flattened pair list, which keeps the test fast.
_SCALAR_ROWS_201 = (1, 2, 101, 200, 201)


@pytest.mark.parametrize("n", [2, 3, 42, 201])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_build_moments_expansion_cov_equals_pairwise_kernel(family, n):
    # build_moments evaluates the square grid once and mirrors it; each entry
    # must be exactly what the kernel gives for that pair alone
    m = build_moments(family, n)
    assert m.ridge == 0.0  # V is the kernel's output, unrepaired
    V = m.V
    assert np.array_equal(V, V.T)
    i, j = (g.ravel() for g in np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij"))
    np.testing.assert_array_equal(V.ravel(), expansion_cov(family, i, j, n))
    rows = range(1, n + 1) if n <= 42 else _SCALAR_ROWS_201
    for a in rows:
        for b in range(1, n + 1):
            assert V[a - 1, b - 1] == expansion_cov(family, a, b, n), (a, b)


@pytest.mark.parametrize(
    "bad", [np.array([0, 1, 2]), np.array([1, 2, 6]), np.array([1.0, 2.0]),
            np.array([True, False]), 2.0, True, 0, 6]
)
def test_expansion_kernels_reject_bad_ranks(bad):
    n = 5
    with pytest.raises(ValueError):
        expansion_mean("normal", bad, n)
    with pytest.raises(ValueError):
        expansion_cov("normal", bad, 3, n)
    with pytest.raises(ValueError):
        expansion_cov("normal", np.arange(1, n + 1), bad, n)


def test_expansion_mean_rejects_bad_order():
    with pytest.raises(ValueError):
        expansion_mean("gumbel", 1, 5, k=5)
    with pytest.raises(ValueError):
        expansion_mean("gumbel", 1, 5, k=-1)
    # k = 3 is a real level: third-derivative term in, fourth out
    assert expansion_mean("gumbel", 1, 5, k=3) != expansion_mean("gumbel", 1, 5, k=4)


# --- assembled moment structures --------------------------------------------


def _is_spd(V):
    try:
        np.linalg.cholesky(V)
        return True
    except np.linalg.LinAlgError:
        return False


@pytest.mark.parametrize("n", [5, 10, 30])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_build_moments_expansion_mode(family, n):
    m = build_moments(family, n)
    assert isinstance(m, OrderStatMoments)
    assert m.y.shape == (n,)
    assert m.V.shape == (n, n)
    assert np.all(np.diff(m.y) > 0)
    assert np.array_equal(m.V, m.V.T)
    assert _is_spd(m.V)
    assert m.ridge >= 0.0


def test_build_moments_exact_mode_small_n():
    m = build_moments("normal", 5, cov_mode="exact")
    for i in range(1, 6):
        assert m.y[i - 1] == pytest.approx(exact_mean("normal", i, 5), abs=1e-8)
    assert m.V[0, 1] == pytest.approx(exact_cov("normal", 1, 2, 5), abs=1e-6)
    assert _is_spd(m.V)


def test_build_moments_exact_mode_size_cap():
    with pytest.raises(ValueError, match="limited to N <= 201"):
        build_moments("normal", 202, cov_mode="exact")
    # within the cap the joint table's own check decides
    with pytest.raises(QuadratureError):
        build_moments("normal", 30, cov_mode="exact")


def test_build_moments_diagonal_and_identity():
    d = build_moments("gumbel", 6, cov_mode="diagonal")
    assert np.count_nonzero(d.V - np.diag(np.diag(d.V))) == 0
    e = build_moments("gumbel", 6, cov_mode="identity")
    assert np.array_equal(e.V, np.eye(6))
    # means agree across covariance modes
    assert np.array_equal(d.y, e.y)


def test_build_moments_rejects_unknown_mode():
    with pytest.raises(ValueError):
        build_moments("gumbel", 6, cov_mode="full")
    with pytest.raises(ValueError):
        build_moments("gumbel", 1)


def test_lognormal3_moments_match_normal():
    a = build_moments("lognormal3", 7)
    b = build_moments("normal", 7)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.V, b.V)


def test_ensure_spd_repairs_indefinite_matrix():
    V = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    fixed, L, delta = ensure_spd(V)
    # the shift starts at RIDGE_UNIT * trace / N = RIDGE_UNIT and doubles
    # until it passes the eigenvalue -1: 34 doublings, 1.7179869184
    assert delta == order_stats.RIDGE_UNIT * 2**34
    assert _is_spd(fixed)
    assert np.allclose(L, np.tril(L)) and np.allclose(L @ L.T, fixed, rtol=0, atol=1e-12)
    ok = np.eye(3)
    same, L0, delta0 = ensure_spd(ok)
    assert delta0 == 0.0
    assert np.array_equal(same, ok)
    assert np.array_equal(L0, ok)
    # singular (eigenvalues 3, 0, 0): the first shift is enough
    assert ensure_spd(np.ones((3, 3)))[2] == order_stats.RIDGE_UNIT


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(1, 0), (0, 1), (0, 0), (1, 1)])
def test_ensure_spd_rejects_non_finite(bad, where):
    # without the check, Cholesky returned L = [[nan, 0], [nan, nan]] with
    # ridge 0.0 for a NaN at (0, 0)
    V = np.eye(2)
    V[where] = bad
    with pytest.raises(ValueError, match="covariance must be finite"):
        ensure_spd(V)


def test_import_does_not_load_scipy_integrate():
    # A fresh interpreter: this module imports scipy.integrate itself, for the
    # dblquad reference above.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import ppbench, sys; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
