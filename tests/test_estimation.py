import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.linalg import solve_triangular
from hypothesis import given, settings
from hypothesis import strategies as st

import ppbench
from ppbench import (
    DegenerateSampleError,
    DistributionSpec,
    DomainError,
    build_moments,
    exceedance_probability,
    fit_gls,
    fit_mle,
    fit_ols,
    mad_case3,
    mle_batch,
    ols_batch,
    positions_for,
    predict_quantile,
    proposed_positions,
    quantile,
    reduced,
    run_case_study,
    sample,
)
from ppbench.casestudy import DEFAULT_K
from ppbench.cli import main
from ppbench.estimation import _SOLVE_BLOCK, _forward_substitution


def _design(family, n, formula="blom"):
    return quantile(reduced(family), positions_for(formula, n, family=family))


def test_ols_matches_polyfit():
    rng = np.random.default_rng(5)
    x = np.sort(rng.normal(3.0, 2.0, 25))
    y = _design("normal", 25)
    fit = fit_ols(x, y)
    b, a = np.polyfit(y, x, 1)
    assert fit.a_hat == pytest.approx(a, rel=1e-12)
    assert fit.b_hat == pytest.approx(b, rel=1e-12)
    assert fit.method == "ols"


def test_ols_recovers_exact_line():
    y = _design("gumbel", 12)
    x = 4.0 + 1.5 * y
    fit = fit_ols(np.sort(x), y, family="gumbel")
    assert fit.a_hat == pytest.approx(4.0, rel=1e-12)
    assert fit.b_hat == pytest.approx(1.5, rel=1e-12)
    assert np.max(np.abs(fit.residuals)) < 1e-12


@given(
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=0.01, max_value=40),
    st.integers(min_value=4, max_value=40),
)
@settings(max_examples=50, deadline=None)
def test_ols_location_scale_equivariance(shift, scale, n):
    base = np.sort(sample(reduced("gumbel"), n, 99))
    y = _design("gumbel", n)
    f0 = fit_ols(base, y, family="gumbel")
    f1 = fit_ols(shift + scale * base, y, family="gumbel")
    assert f1.a_hat == pytest.approx(shift + scale * f0.a_hat, rel=1e-9, abs=1e-9)
    assert f1.b_hat == pytest.approx(scale * f0.b_hat, rel=1e-9, abs=1e-10)


def test_gls_with_identity_weights_equals_ols():
    x = np.sort(sample(DistributionSpec("normal", 1.0, 2.0), 15, 3))
    m = build_moments("normal", 15, cov_mode="identity")
    g = fit_gls(x, m)
    o = fit_ols(x, m.y)
    assert g.a_hat == pytest.approx(o.a_hat, rel=1e-10)
    assert g.b_hat == pytest.approx(o.b_hat, rel=1e-10)


def test_gls_normal_equations_orthogonality():
    # whitened residual must be orthogonal to the whitened design columns
    x = np.sort(sample(DistributionSpec("gumbel", 2.0, 0.7), 12, 8))
    m = build_moments("gumbel", 12)
    fit = fit_gls(x, m)
    L = np.linalg.cholesky(m.V + fit.ridge * np.eye(12))
    X = np.column_stack([np.ones(12), m.y])
    r = x - X @ np.array([fit.a_hat, fit.b_hat])
    Xw = np.linalg.solve(L, X)
    rw = np.linalg.solve(L, r)
    assert np.max(np.abs(Xw.T @ rw)) < 1e-8


def test_gls_unbiased_under_repeated_sampling():
    # mean of estimates over replicates approaches the truth
    truth = DistributionSpec("gumbel", 10.0, 3.0)
    m = build_moments("gumbel", 10)
    a_hats, b_hats = [], []
    for seed in range(600):
        x = np.sort(sample(truth, 10, seed))
        fit = fit_gls(x, m)
        a_hats.append(fit.a_hat)
        b_hats.append(fit.b_hat)
    assert np.mean(a_hats) == pytest.approx(10.0, abs=0.15)
    assert np.mean(b_hats) == pytest.approx(3.0, abs=0.15)


def test_fit_input_validation():
    y3 = _design("normal", 3)
    with pytest.raises(ValueError):
        fit_ols(np.array([1.0, 2.0]), y3[:2])
    with pytest.raises(ValueError):
        fit_ols(np.array([1.0, 2.0, np.nan]), y3)
    with pytest.raises(ValueError):
        fit_ols(np.array([1.0, 2.0, 3.0, 4.0]), y3)


def test_fit_degenerate_sample():
    y = _design("normal", 5)
    with pytest.raises(DegenerateSampleError):
        fit_mle(np.full(5, 2.0), "normal")
    with pytest.raises(DegenerateSampleError):
        fit_mle(np.full(5, 2.0), "gumbel")


def test_fits_reject_unsorted_observations():
    # unsorted, fit_gls would return b = 1.485 here against 2.047 sorted
    x = np.array([3.0, 1.0, 2.0, 5.0, 4.0, 6.0])
    m = build_moments("normal", 6)
    for fit in (lambda v: fit_ols(v, m.y), lambda v: fit_gls(v, m)):
        with pytest.raises(ValueError, match="ascending"):
            fit(x)
        assert fit(np.sort(x)).b_hat > 0
        fit(np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]))  # ties are in order


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_fit_gls_rank_cutoff(family):
    m = build_moments(family, 8)
    x = np.sort(sample(reduced(family), 8, 4))
    with pytest.raises(DegenerateSampleError, match="constant"):
        fit_gls(x, dataclasses.replace(m, y=np.full(8, 0.3)))
    # a design spread by 1e-10 sits far above the n * eps cutoff and still
    # fits; an exact line through it comes back to about 1e-6, as from
    # LAPACK's least squares (cond about 1e10)
    y = 0.3 + 1e-10 * m.y
    fit = fit_gls(2.0 + 3.0 * y, dataclasses.replace(m, y=y))
    assert fit.b_hat == pytest.approx(3.0, rel=1e-4)
    assert fit.a_hat == pytest.approx(2.0, rel=1e-4)


def test_one_degenerate_sample_class_across_modules():
    with pytest.raises(ppbench.DegenerateSampleError):
        mad_case3(np.full(5, 2.0))
    with pytest.raises(ppbench.DegenerateSampleError):
        fit_mle(np.full(5, 2.0), "gumbel")


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_scalar_fits_are_one_row_of_the_batch_kernels(family):
    # the library fits and the Monte Carlo engine share one kernel: a scalar
    # fit is bitwise a one-row batch call, and a row of a larger batch agrees
    # to rounding (the batch stops once all rows meet the step tolerance)
    X = np.sort([sample(DistributionSpec(family, 3.0, 2.0), 12, s) for s in range(8)], axis=1)
    y = _design(family, 12)
    a, b = ols_batch(X, y)
    am, bm, converged, _ = mle_batch(X, family)
    assert converged.all()
    for r, x in enumerate(X):
        o, m = fit_ols(x, y, family=family), fit_mle(x, family)
        one_a, one_b = ols_batch(x[None, :], y)
        one_am, one_bm, _, iterations = mle_batch(x[None, :], family)
        assert (o.a_hat, o.b_hat) == (one_a[0], one_b[0])
        assert (m.a_hat, m.b_hat, m.iterations) == (one_am[0], one_bm[0], iterations)
        assert [o.a_hat, o.b_hat, m.a_hat, m.b_hat] == pytest.approx(
            [a[r], b[r], am[r], bm[r]], rel=1e-14)


def test_fit_gls_whitens_with_the_moments_factor(monkeypatch):
    x = np.sort(sample(DistributionSpec("gumbel", 2.0, 0.7), 12, 8))
    m = build_moments("gumbel", 12)
    ref = fit_gls(x, m)

    def refuse(*args, **kwargs):
        raise np.linalg.LinAlgError("a second factorization of V")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    fit = fit_gls(x, m)
    assert (fit.a_hat, fit.b_hat, fit.ridge) == (ref.a_hat, ref.b_hat, ref.ridge)
    assert np.allclose(m.L @ m.L.T, m.V, rtol=1e-13, atol=0)


def _lstsq_gap(x, m):
    # LAPACK's least squares on the same whitened columns is the reference;
    # the gap is scaled by max(|a|, |b|) since an intercept can sit near 0
    Bw = _forward_substitution(m.L, np.column_stack([np.ones(m.n), m.y, x]))
    (a, b), *_ = np.linalg.lstsq(Bw[:, :2], Bw[:, 2], rcond=None)
    fit = fit_gls(x, m)
    return max(abs(fit.a_hat - a), abs(fit.b_hat - b)) / max(abs(a), abs(b))


def test_fit_gls_matches_lstsq_on_the_case_study_months():
    # measured worst 1.1e-15 over the 13 months (n = 42 to 201)
    gaps = [
        _lstsq_gap(mo.analysis.log_values, build_moments("normal", mo.analysis.n, DEFAULT_K))
        for mo in run_case_study("gls").months
    ]
    assert len(gaps) == 13
    assert max(gaps) < 1e-14


@pytest.mark.parametrize("family", ["gumbel", "normal"])
@pytest.mark.parametrize("n", [5, 10])
def test_fit_gls_matches_lstsq_on_exact_moments(family, n):
    # measured worst 8.1e-16 (normal, n = 5) over seeds 0-9
    m = build_moments(family, n, cov_mode="exact")
    gaps = [_lstsq_gap(np.sort(sample(reduced(family), n, seed)), m) for seed in range(10)]
    assert max(gaps) < 1e-14


def test_gls_paths_never_call_lstsq(monkeypatch, tmp_path, capsys):
    # LAPACK's SVD least-squares routine adds about 1 MB to a process on first use
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called on a GLS path")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    run_case_study("gls")
    fit_gls(np.sort(sample(reduced("gumbel"), 5, 1)), build_moments("gumbel", 5, cov_mode="exact"))
    path = tmp_path / "vals.csv"
    path.write_text("value\n" + "".join("%r\n" % float(v) for v in sample(reduced("normal"), 30, 2)))
    assert main(["fit", "--input", str(path), "--family", "normal", "--method", "gls"]) == 0
    assert '"method": "gls"' in capsys.readouterr().out


def _whitening_gap(m, seed):
    # largest |ours - scipy| over each column's largest |scipy|, for [1, y, x]
    x = np.sort(sample(DistributionSpec(m.family, 1.0, 2.0), m.n, seed))
    B = np.column_stack([np.ones(m.n), m.y, x])
    ref = solve_triangular(m.L, B, lower=True)
    return np.max(np.abs(_forward_substitution(m.L, B) - ref) / np.abs(ref).max(axis=0))


@pytest.mark.parametrize("family", ["gumbel", "normal"])
@pytest.mark.parametrize(
    "n", [2, 3, _SOLVE_BLOCK - 1, _SOLVE_BLOCK, _SOLVE_BLOCK + 1, 2 * _SOLVE_BLOCK + 1, 201])
def test_forward_substitution_matches_solve_triangular(family, n):
    # measured worst 2.7e-14 (normal, n = 201); 4.3e-15 or less up to n = 65
    assert _whitening_gap(build_moments(family, n), n) < 1e-13


@pytest.mark.parametrize("family", ["gumbel", "normal"])
@pytest.mark.parametrize("n", [5, 10])
def test_forward_substitution_matches_solve_triangular_on_exact_factors(family, n):
    # measured worst 2.8e-16 (gumbel, n = 10)
    assert _whitening_gap(build_moments(family, n, cov_mode="exact"), n) < 1e-13


def test_forward_substitution_reads_only_the_lower_triangle():
    m = build_moments("normal", 2 * _SOLVE_BLOCK + 5)
    B = np.column_stack([np.ones(m.n), m.y, m.y ** 3])
    junk = m.L.copy()
    upper = np.triu_indices(m.n, 1)
    junk[upper] = np.random.default_rng(3).standard_normal(upper[0].size) * 1e3
    junk[0, -1], junk[1, 2], junk[_SOLVE_BLOCK - 1, _SOLVE_BLOCK] = np.nan, np.inf, -np.inf
    assert np.array_equal(_forward_substitution(junk, B), _forward_substitution(m.L, B))
    assert np.allclose(_forward_substitution(junk, B),
                       solve_triangular(junk, B, lower=True, check_finite=False), rtol=0, atol=1e-12)


def test_import_does_not_load_scipy_linalg():
    # A fresh interpreter: this module imports scipy.linalg itself, for the
    # solve_triangular oracle above.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import ppbench, sys; print('scipy.linalg' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_normal_mle_closed_form():
    rng = np.random.default_rng(17)
    x = rng.normal(5.0, 1.3, 40)
    fit = fit_mle(x, "normal")
    assert fit.a_hat == pytest.approx(np.mean(x), rel=1e-14)
    assert fit.b_hat == pytest.approx(np.std(x), rel=1e-14)
    assert fit.method == "mle"


def test_gumbel_mle_matches_scipy():
    rng = np.random.default_rng(23)
    x = scipy.stats.gumbel_r.rvs(loc=4.0, scale=2.0, size=200, random_state=rng)
    fit = fit_mle(x, "gumbel")
    loc, scale = scipy.stats.gumbel_r.fit(x)
    assert fit.a_hat == pytest.approx(loc, rel=1e-5)
    assert fit.b_hat == pytest.approx(scale, rel=1e-5)
    assert fit.iterations > 0


def test_mle_rejects_unsupported_family():
    with pytest.raises(ValueError):
        fit_mle(np.arange(5.0), "lognormal3")


def test_predict_quantile_return_period():
    y = _design("gumbel", 20)
    fit = fit_ols(np.sort(2.0 + 0.5 * y), y, family="gumbel")
    est = predict_quantile(fit, 100.0)
    z = quantile(reduced("gumbel"), 1 - 1 / 100.0)
    assert est.x_T_hat == pytest.approx(2.0 + 0.5 * z, rel=1e-10)
    assert est.F_level == pytest.approx(0.99)
    with pytest.raises(DomainError):
        predict_quantile(fit, 1.0)
    with pytest.raises(DomainError):
        predict_quantile(fit, 0.5)


def test_predict_quantile_far_tail():
    # 1 - 1/T loses digits near T = 1e15 and rounds to 1 from about 1e16
    fit = fit_ols(np.arange(1.0, 6.0), np.arange(1.0, 6.0), family="gumbel")
    assert (fit.a_hat, fit.b_hat) == pytest.approx((0.0, 1.0), abs=1e-12)
    est = predict_quantile(fit, 1e15)
    assert est.x_T_hat == pytest.approx(34.538776394910684, rel=1e-13)
    est = predict_quantile(fit, 1e17)
    assert est.x_T_hat == pytest.approx(39.14394658089878, rel=1e-13)
    assert est.F_level == 1.0


def test_exceedance_probability_consistency():
    y = _design("gumbel", 20)
    fit = fit_ols(np.sort(2.0 + 0.5 * y), y, family="gumbel")
    d = DistributionSpec("gumbel", fit.a_hat, fit.b_hat)
    from ppbench import cdf

    assert exceedance_probability(fit, 3.0) == pytest.approx(1 - cdf(d, 3.0), rel=1e-14)


def test_exceedance_probability_shifted_log_family():
    # fitting log(x - c) on a normal scale and asking for P(X > t)
    y = _design("normal", 20)
    logs = np.sort(0.5 + 0.25 * y)
    fit = fit_ols(logs, y)
    p = exceedance_probability(fit, 3.0, family="lognormal3", c=1.0)
    z = (np.log(3.0 - 1.0) - fit.a_hat) / fit.b_hat
    assert p == pytest.approx(1 - scipy.stats.norm.cdf(z), rel=1e-12)
    # below the threshold the exceedance saturates
    assert exceedance_probability(fit, 0.5, family="lognormal3", c=1.0) == 1.0


@pytest.mark.parametrize("family,c", [("gumbel", 0.0), ("normal", 0.0), ("lognormal3", 1.0)])
def test_exceedance_probability_non_finite_threshold(family, c):
    # a NaN threshold read as an exceedance of 1.0; the infinities have exact answers
    y = _design("normal", 20)
    fit = fit_ols(np.sort(0.5 + 0.25 * y), y)
    assert exceedance_probability(fit, np.inf, family=family, c=c) == 0.0
    assert exceedance_probability(fit, -np.inf, family=family, c=c) == 1.0
    with pytest.raises(ValueError, match="NaN"):
        exceedance_probability(fit, np.nan, family=family, c=c)


def test_design_parameter_freeness_of_fitted_indices():
    # the sampling law of (a_hat - a)/b and b_hat/b does not depend on (a, b);
    # with common random numbers the realized values match exactly
    n = 10
    y = proposed_positions("gumbel", n)
    design = quantile(reduced("gumbel"), y)
    z = np.sort(sample(reduced("gumbel"), n, 314))
    f_reduced = fit_ols(z, design, family="gumbel")
    x = 7.0 + 3.0 * z
    f_scaled = fit_ols(x, design, family="gumbel")
    k1 = (f_scaled.a_hat - 7.0) / 3.0
    k2 = f_scaled.b_hat / 3.0
    assert k1 == pytest.approx(f_reduced.a_hat, rel=1e-10, abs=1e-12)
    assert k2 == pytest.approx(f_reduced.b_hat, rel=1e-10)
