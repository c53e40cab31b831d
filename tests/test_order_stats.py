import math

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
    assert exact_cov("normal", 1, 2, 2) == pytest.approx(1 / math.pi, abs=1e-9)


def test_normal_pair_variance():
    assert exact_cov("normal", 2, 2, 2) == pytest.approx(1 - 1 / math.pi, abs=1e-6)


def test_gumbel_pair_covariance_is_log_two_squared():
    assert exact_cov("gumbel", 1, 2, 2) == pytest.approx(math.log(2) ** 2, abs=1e-9)


def test_gumbel_pair_variances():
    pi2_6 = math.pi**2 / 6
    # max of two standard Gumbels is Gumbel(log 2, 1)
    assert exact_cov("gumbel", 2, 2, 2) == pytest.approx(pi2_6, abs=1e-6)
    assert exact_cov("gumbel", 1, 1, 2) == pytest.approx(
        pi2_6 - 2 * math.log(2) ** 2, abs=1e-6
    )


def test_exact_cov_symmetric_in_ranks():
    assert exact_cov("normal", 2, 4, 6) == exact_cov("normal", 4, 2, 6)


# --- the joint-moment quadrature behind the exact off-diagonal covariance ----

VAR_Z = {"normal": 1.0, "gumbel": math.pi**2 / 6}


def _exact_v(family, n):
    return np.array(
        [[exact_cov(family, i, j, n) for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


@pytest.mark.parametrize("n", [3, 5, 10])
@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_exact_cov_total_is_n_times_parent_variance(family, n):
    # the order statistics sum to the sample total, whose variance is n Var(Z)
    assert _exact_v(family, n).sum() == pytest.approx(n * VAR_Z[family], abs=1e-8)


@pytest.mark.parametrize("n", [3, 5, 10])
def test_exact_cov_normal_rows_and_reflection(n):
    V = _exact_v("normal", n)
    # Z_(i) - mean is independent of the mean, so Cov(Z_(i), sum Z) = Var(Z) = 1
    np.testing.assert_allclose(V.sum(axis=1), 1.0, rtol=0, atol=1e-8)
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
])
def test_exact_cov_matches_adaptive_double_quadrature(family, i, j):
    n = 5
    got = exact_cov(family, i, j, n) + exact_mean(family, i, n) * exact_mean(family, j, n)
    assert got == pytest.approx(_dblquad_joint_moment(family, i, j, n), abs=1e-9)


@pytest.fixture
def cold_exact_cov():
    order_stats._exact_joint_moments.cache_clear()
    exact_cov.cache_clear()
    yield
    order_stats._exact_joint_moments.cache_clear()
    exact_cov.cache_clear()


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_exact_cov_coarse_grid_raises(family, monkeypatch, cold_exact_cov):
    monkeypatch.setattr(order_stats, "_COV_STEP_S", 0.4)
    with pytest.raises(QuadratureError):
        exact_cov(family, 1, 2, 4)


def test_exact_mean_guards():
    with pytest.raises(ValueError):
        exact_mean("gumbel", 0, 5)
    with pytest.raises(ValueError):
        exact_mean("gumbel", 6, 5)
    with pytest.raises(ValueError):
        exact_mean("gumbel", 1, 101)


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


def test_expansion_mean_improves_with_order():
    # truncation error shrinks as more correction terms enter
    n = 10
    for family in ("normal", "gumbel"):
        err = []
        for k in (0, 2, 4):
            e = max(
                abs(expansion_mean(family, i, n, k=k) - exact_mean(family, i, n))
                for i in range(1, n + 1)
            )
            err.append(e)
        assert err[2] <= err[1] <= err[0], (family, err)


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
    with pytest.raises(ValueError):
        build_moments("normal", 11, cov_mode="exact")


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
    assert delta > 0
    assert _is_spd(fixed)
    assert np.allclose(L, np.tril(L)) and np.allclose(L @ L.T, fixed, rtol=0, atol=1e-12)
    ok = np.eye(3)
    same, L0, delta0 = ensure_spd(ok)
    assert delta0 == 0.0
    assert np.array_equal(same, ok)
    assert np.array_equal(L0, ok)
