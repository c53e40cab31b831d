import mpmath as mp
import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtri

from ppbench import (
    CRITICAL_2_5PCT,
    CRITICAL_5PCT,
    FAIL,
    PASS_2_5PCT,
    PASS_5PCT,
    MadResult,
    mad_case3,
    mad_known_params,
)
from ppbench.gof import DegenerateSampleError, _classify, _small_sample_factor


def _a2_oracle(x):
    """Raw A^2 of x against N(mean, sd) with sd of ddof 1, in 30-digit mpmath."""
    with mp.workdps(30):
        xs = sorted(mp.mpf(float(v)) for v in x)
        n = len(xs)
        mean = mp.fsum(xs) / n
        sd = mp.sqrt(mp.fsum((v - mean) ** 2 for v in xs) / (n - 1))
        z = [(v - mean) / sd for v in xs]
        s = mp.fsum((2 * i - 1) * (mp.log(mp.ncdf(z[i - 1])) + mp.log(mp.ncdf(-z[n - i])))
                    for i in range(1, n + 1))
        return float(-n - s / n)


def test_raw_statistic_matches_mpmath_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(2.0, 3.0, 50)
        res = mad_case3(x)
        assert res.a2_raw == pytest.approx(_a2_oracle(x), rel=1e-10)


def test_small_sample_factor_applied():
    x = np.random.default_rng(2).normal(size=30)
    res = mad_case3(x)
    assert res.a2_modified == pytest.approx(res.a2_raw * (1 + 0.75 / 30 + 2.25 / 900))
    assert _small_sample_factor(100) == pytest.approx(1.0077250)


def test_classification_regions():
    assert _classify(0.5) == PASS_5PCT
    assert _classify(CRITICAL_5PCT) == PASS_5PCT
    assert _classify(0.80) == PASS_2_5PCT
    assert _classify(CRITICAL_2_5PCT) == PASS_2_5PCT
    assert _classify(0.92) == FAIL


def test_result_reports_reference_points():
    x = np.random.default_rng(3).normal(size=40)
    res = mad_case3(x)
    assert isinstance(res, MadResult)
    assert res.n == 40
    assert res.reference_points == {"5pct": CRITICAL_5PCT, "2.5pct": CRITICAL_2_5PCT}
    assert res.passed_5pct == (res.comparison == PASS_5PCT)


def test_rejects_small_or_flat_samples():
    with pytest.raises(ValueError):
        mad_case3(np.arange(4.0))
    with pytest.raises(DegenerateSampleError):
        mad_case3(np.full(10, 3.3))
    with pytest.raises(ValueError):
        mad_case3(np.array([1.0, 2.0, np.nan, 4.0, 5.0]))


def test_only_normal_family_supported():
    x = np.random.default_rng(4).normal(size=20)
    assert mad_case3(x, family="gaussian").n == 20
    with pytest.raises(ValueError):
        mad_case3(x, family="gumbel")


def test_order_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=60)
    shuffled = rng.permutation(x)
    assert mad_case3(x).a2_raw == mad_case3(shuffled).a2_raw


def test_quantile_spaced_sample_is_clearly_normal():
    n = 200
    x = ndtri((np.arange(1, n + 1) - 0.5) / n)
    res = mad_case3(x)
    assert res.a2_modified < CRITICAL_5PCT
    assert res.passed_5pct


def test_exponential_sample_is_rejected():
    x = np.random.default_rng(6).exponential(size=300)
    assert mad_case3(x).comparison == FAIL


def test_known_params_variant():
    rng = np.random.default_rng(7)
    x = rng.normal(1.0, 2.0, 50)
    res = mad_known_params(x, 1.0, 2.0)
    # same transform scipy would use with the true parameters
    u = scipy.stats.norm.cdf((np.sort(x) - 1.0) / 2.0)
    i = np.arange(1, 51)
    ref = -50 - ((2 * i - 1) @ (np.log(u) + np.log(1 - u[::-1]))) / 50
    assert res.a2_raw == pytest.approx(ref, rel=1e-10)
    with pytest.raises(ValueError):
        mad_known_params(x, 1.0, 0.0)


def test_saturated_transform_warns_and_still_returns():
    x = np.array([0.0, 1.0, 2.0, 3.0, 1e9])
    with pytest.warns(RuntimeWarning):
        res = mad_known_params(x, 0.0, 1e-6)
    assert np.isfinite(res.a2_modified)


def test_null_rejection_rate_close_to_nominal():
    # 5% level, so the pass rate over many null samples should sit near 95%
    passes = 0
    trials = 300
    for seed in range(trials):
        x = np.random.default_rng(seed).normal(size=200)
        passes += mad_case3(x).passed_5pct
    assert passes / trials >= 0.90
    assert passes / trials <= 0.99
