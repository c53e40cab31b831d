import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppbench import (
    DistributionSpec,
    DomainError,
    canonical_family,
    cdf,
    pdf,
    quantile,
    quantile_derivative,
    reduced,
    sample,
)

FAMILY_NAMES = ["gumbel", "normal", "lognormal3"]


def test_canonical_family_aliases():
    assert canonical_family("Gumbel") == "gumbel"
    assert canonical_family("GAUSSIAN") == "normal"
    assert canonical_family("log-normal") == "lognormal3"
    with pytest.raises(ValueError):
        canonical_family("cauchy")


def test_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec("gumbel", b=0.0)
    with pytest.raises(ValueError):
        DistributionSpec("gumbel", b=-1.0)
    with pytest.raises(ValueError):
        DistributionSpec("gumbel", a=float("nan"))
    d = DistributionSpec("Normal", a=1, b=2)
    assert d.family == "normal" and d.b == 2.0


def test_gumbel_quantile_hand_values():
    d = reduced("gumbel")
    assert quantile(d, math.exp(-1)) == pytest.approx(0.0, abs=1e-15)
    assert quantile(d, 0.9) == pytest.approx(-math.log(-math.log(0.9)), rel=1e-15)
    assert cdf(d, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_normal_reduced_matches_error_function():
    d = reduced("normal")
    assert cdf(d, 1.0) == pytest.approx(0.5 * (1 + math.erf(1 / math.sqrt(2))), rel=1e-14)
    assert quantile(d, 0.5) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_cdf_quantile_roundtrip(family):
    d = DistributionSpec(family, a=0.7, b=1.9, c=0.5 if family == "lognormal3" else 0.0)
    p = np.linspace(0.001, 0.999, 101)
    back = cdf(d, quantile(d, p))
    assert np.max(np.abs(back - p)) <= 1e-12


def test_lognormal3_support_boundary():
    d = DistributionSpec("lognormal3", a=0.0, b=1.0, c=2.0)
    assert cdf(d, 2.0) == 0.0
    assert cdf(d, 1.0) == 0.0
    assert pdf(d, 1.5) == 0.0
    assert quantile(d, 0.5) == pytest.approx(3.0, rel=1e-14)  # c + exp(0)


def test_quantile_domain_errors():
    d = reduced("gumbel")
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            quantile(d, bad)
    with pytest.raises(DomainError):
        quantile(d, np.array([0.5, 1.0]))


def test_quantile_derivative_argument_checks():
    with pytest.raises(ValueError):
        quantile_derivative("gumbel", 0.5, 5)
    with pytest.raises(ValueError):
        quantile_derivative("gumbel", 0.5, 0)
    with pytest.raises(TypeError):
        quantile_derivative("gumbel", 0.5, 1.5)
    with pytest.raises(DomainError):
        quantile_derivative("normal", 1.0, 1)


def _mp_quantile(family):
    if family == "gumbel":
        return lambda p: -mp.log(-mp.log(p))
    return lambda p: mp.sqrt(2) * mp.erfinv(2 * p - 1)


@pytest.mark.parametrize("family", ["gumbel", "normal"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_quantile_derivative_against_high_precision_differences(family, order):
    # independent oracle: arbitrary-precision numerical differentiation of
    # the quantile function itself
    Q = _mp_quantile(family)
    for p in np.linspace(0.05, 0.95, 13):
        ours = quantile_derivative(family, float(p), order)
        with mp.workdps(40):
            ref = float(mp.diff(Q, mp.mpf(float(p)), order))
        assert ours == pytest.approx(ref, rel=1e-5), (family, order, p)


def test_quantile_derivative_lognormal_delegates_to_normal():
    for order in (1, 2, 3, 4):
        assert quantile_derivative("lognormal3", 0.3, order) == quantile_derivative(
            "normal", 0.3, order
        )


def test_gumbel_first_derivative_closed_form_value():
    # at p = 1/e the derivative is exactly e
    assert quantile_derivative("gumbel", math.exp(-1), 1) == pytest.approx(
        math.e, rel=1e-14
    )


@given(
    st.sampled_from(["gumbel", "normal"]),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=0.05, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_location_scale_equivariance_of_quantiles(family, p, a, b):
    z = quantile(reduced(family), p)
    x = quantile(DistributionSpec(family, a=a, b=b), p)
    assert x == pytest.approx(a + b * z, rel=1e-12, abs=1e-12)


def test_sample_reproducible_and_finite():
    d = DistributionSpec("gumbel", a=2.0, b=0.5)
    s1 = sample(d, 1000, 42)
    s2 = sample(d, 1000, 42)
    assert np.array_equal(s1, s2)
    assert np.all(np.isfinite(s1))
    s3 = sample(d, 1000, 43)
    assert not np.array_equal(s1, s3)


def test_sample_rejects_empty_request():
    with pytest.raises(ValueError):
        sample(reduced("normal"), 0, 1)
    with pytest.raises(TypeError):
        sample(reduced("normal"), 2.5, 1)


def test_sample_distribution_sanity():
    d = DistributionSpec("normal", a=10.0, b=2.0)
    s = sample(d, 60_000, 7)
    assert s.mean() == pytest.approx(10.0, abs=0.05)
    assert s.std() == pytest.approx(2.0, abs=0.05)


def test_lognormal3_sampling_respects_threshold():
    d = DistributionSpec("lognormal3", a=-0.5, b=0.7, c=1.0)
    s = sample(d, 5000, 11)
    assert np.all(s > 1.0)
