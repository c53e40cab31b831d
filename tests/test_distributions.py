import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ppbench import distributions
from ppbench import (
    DistributionSpec,
    DomainError,
    canonical_family,
    cdf,
    paper_family,
    quantile,
    quantile_derivative,
    reduced,
    reduced_cdf,
    reduced_quantile,
    reduced_return_quantile,
    return_level,
    sample,
)

FAMILY_NAMES = ["gumbel", "normal", "lognormal3"]


def test_canonical_family_aliases():
    assert canonical_family("Gumbel") == "gumbel"
    assert canonical_family("GAUSSIAN") == "normal"
    assert canonical_family("log-normal") == "lognormal3"
    with pytest.raises(ValueError):
        canonical_family("cauchy")


def test_paper_family_reads_the_log_family_as_normal():
    for alias in ("lognormal3", "lognormal", "log-normal", "Log-Normal3"):
        assert paper_family(alias) == "normal"
    assert paper_family("EV1") == "gumbel"
    assert paper_family("gauss") == "normal"
    with pytest.raises(ValueError):
        paper_family("cauchy")


def test_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec("gumbel", b=0.0)
    with pytest.raises(ValueError):
        DistributionSpec("gumbel", b=-1.0)
    with pytest.raises(ValueError):
        DistributionSpec("gumbel", a=float("nan"))
    for c in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            DistributionSpec("lognormal3", c=c)
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


def _closed_form_derivative(family, p, order):
    """The eight closed forms the recurrence replaced, kept as its reference."""
    if family == "gumbel":
        L = np.log(p)
        u = p * L
        if order == 1:
            return -1.0 / u
        if order == 2:
            return (1.0 + L) / u**2
        if order == 3:
            return (L - 2.0 * (1.0 + L) ** 2) / u**3
        return (6.0 * (1.0 + L) ** 3 - 7.0 * L**2 - 6.0 * L) / u**4
    z = special.ndtri(p)
    g = math.sqrt(2.0 * math.pi) * np.exp(0.5 * z * z)
    if order == 1:
        return g
    if order == 2:
        return z * g**2
    if order == 3:
        return (1.0 + 2.0 * z * z) * g**3
    return z * (7.0 + 6.0 * z * z) * g**4


# 500 points across the body and every i/(N+1) of the expansion route, N = 2..201
RECURRENCE_P = np.concatenate(
    [np.linspace(0.003, 0.997, 500)] + [np.arange(1, n + 1) / (n + 1.0) for n in range(2, 202)]
)


def _derivative_scale(family, p, order, q_r):
    # |Q^(r)| + |Q^(r-1)| / p: Q'' crosses zero at p = 1/e for the Gumbel,
    # where a relative error means nothing
    prev = reduced_quantile(family, p) if order == 1 else quantile_derivative(family, p, order - 1)
    return np.abs(q_r) + np.abs(prev) / p


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_quantile_derivative_normal_recurrence_is_bitwise_the_closed_forms(order):
    got = quantile_derivative("normal", RECURRENCE_P, order)
    assert got.tobytes() == _closed_form_derivative("normal", RECURRENCE_P, order).tobytes()


# Gumbel recurrence against the closed forms, scaled as in _derivative_scale.
# Measured 2.3e-16, 4.9e-16, 7.5e-16 and 2.8e-15 at orders 1 to 4; unscaled,
# order 2 differs by 4.6e-12 relative next to p = 1/e.
GUMBEL_RECURRENCE_GAP = {1: 4e-16, 2: 8e-16, 3: 1.2e-15, 4: 4e-15}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_quantile_derivative_gumbel_recurrence_matches_the_closed_forms(order):
    got = quantile_derivative("gumbel", RECURRENCE_P, order)
    gap = np.abs(got - _closed_form_derivative("gumbel", RECURRENCE_P, order))
    scaled = gap / _derivative_scale("gumbel", RECURRENCE_P, order, got)
    assert scaled.max() <= GUMBEL_RECURRENCE_GAP[order]


def _near_inverse_e(n_max):
    near = {i / (n + 1.0) for n in range(1, n_max + 1) for i in range(1, n + 1)
            if abs(i / (n + 1.0) - math.exp(-1)) <= 0.02}
    return np.array(sorted(near | {0.01, 0.1, 0.5, 0.9, 0.99}))


def _mp_normal_quantile(p):
    # Newton from the double ndtri: mp.diffs raises the working precision to
    # about 940 bits at order 4, which five steps reach; erfinv costs twice as much
    z = mp.mpf(float(special.ndtri(float(p))))
    for _ in range(5):
        z -= (mp.ncdf(z) - p) / mp.npdf(z)
    return z


# Against mp.diffs at 40 digits (mp.diff's rule, every order from one set
# of evaluations), scaled as in _derivative_scale; measured worst
# cases (recurrence, closed forms): Gumbel 9.6e-16 and 9.3e-16, normal 3.7e-15
# and 3.7e-15 (order 4 in each). The points are every i/(N+1) within 0.02 of
# 1/e, where the Gumbel's Q'' changes sign, for N <= 201 (Gumbel, 505 points)
# or N <= 40 (normal, 26 points: its reference costs about 10 ms a point, and
# its recurrence is bitwise the closed forms at every N <= 201), and
# p = 0.01, 0.1, 0.5, 0.9, 0.99.
@pytest.mark.parametrize("family,n_max,bound", [("gumbel", 201, 1.5e-15), ("normal", 40, 5e-15)])
def test_quantile_derivative_matches_mpmath_tightly(family, n_max, bound):
    p = _near_inverse_e(n_max)
    Q = _mp_quantile(family) if family == "gumbel" else _mp_normal_quantile
    with mp.workdps(40):
        ref = np.array([[float(d) for d in mp.diffs(Q, mp.mpf(v), 4)] for v in p])
    for order in (1, 2, 3, 4):
        scale = np.abs(ref[:, order]) + np.abs(ref[:, order - 1]) / p
        for got in (quantile_derivative(family, p, order),
                    _closed_form_derivative(family, p, order)):
            assert (np.abs(got - ref[:, order]) / scale).max() <= bound, (family, order)


def _mp_parent(family, z):
    if family == "gumbel":
        e = mp.exp(-z)
        return mp.exp(-z - e), mp.exp(-e), -mp.expm1(-e)
    return mp.npdf(z), mp.ncdf(z), mp.ncdf(-z)


# _parent against mpmath at 30 digits, at z step 0.05 over the ranges the
# quadratures reach. Bounds are (f, F, S), relative. Measured: Gumbel f
# 1.1e-14, F 6.5e-15, S 2.2e-16; normal f 5.6e-14, F and S 2.0e-13 (scipy's
# ndtr near z = -+37.3). Those grow with |z| as the functions' conditioning
# does (a relative error eps in z moves the normal f by about z^2 eps), so the
# worst sit near the range ends.
PARENT_ORACLE = {
    "gumbel": (np.linspace(-4.5, 40.0, 891), (2e-14, 1e-14, 4e-16)),
    "normal": (np.linspace(-37.5, 37.5, 1501), (1e-13, 3e-13, 3e-13)),
}


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_parent_kernels_match_mpmath(family):
    z, bounds = PARENT_ORACLE[family]
    with mp.workdps(30):
        ref = [_mp_parent(family, mp.mpf(float(v))) for v in z]
        want = np.array([[float(x) for x in r] for r in ref]).T
    for got, w, bound in zip(distributions._parent(family, z), want, bounds):
        assert (np.abs(got - w) / w).max() <= bound


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


# keys with non-zero high 64 bits, the top key and a numpy integer included
BATCH_KEYS = [0, 7, (1 << 64) + 3, (20140101 << 64) + 1023, (1 << 128) - 1, np.uint64(42)]
BATCH_SPECS = [
    reduced("gumbel"), reduced("normal"), DistributionSpec("lognormal3", -0.5, 0.7, 1.0)
]


@pytest.mark.parametrize("d", BATCH_SPECS, ids=lambda d: d.family)
def test_sample_batch_rows_equal_one_key_draws(d):
    batch = sample(d, 13, BATCH_KEYS)
    assert batch.shape == (len(BATCH_KEYS), 13)
    stacked = np.stack([sample(d, 13, k) for k in BATCH_KEYS])
    assert np.array_equal(batch, stacked)
    # the one-key draw is the inverse CDF of a fresh Philox(key=k) stream
    for k, row in zip(BATCH_KEYS, batch):
        u = np.random.Generator(np.random.Philox(key=int(k))).random(13)
        assert np.array_equal(row, quantile(d, u))


def test_sample_batch_accepts_any_key_sequence():
    d = reduced("gumbel")
    ref = sample(d, 4, [5, 6, 7])
    for keys in ((5, 6, 7), range(5, 8), np.arange(5, 8), np.arange(5, 8, dtype=np.uint64)):
        assert np.array_equal(sample(d, 4, keys), ref)
    # a one-key sequence keeps its row axis; a bare key does not
    assert sample(d, 4, [5]).shape == (1, 4)
    assert sample(d, 4, np.int64(5)).shape == (4,)


@pytest.mark.parametrize("bad", [2.5, np.float64(3.0), True, np.bool_(True), "3", None, 1j])
def test_sample_rejects_non_int_keys(bad):
    d = reduced("normal")
    with pytest.raises(TypeError):
        sample(d, 3, bad)
    with pytest.raises(TypeError):
        sample(d, 3, [1, bad, 2])


@pytest.mark.parametrize("bad", [-1, np.int64(-5), 1 << 128])
def test_sample_rejects_out_of_range_keys(bad):
    d = reduced("normal")
    with pytest.raises(ValueError):
        sample(d, 3, bad)
    with pytest.raises(ValueError):
        sample(d, 3, [1, bad])


def test_sample_rejects_empty_key_sequence():
    for empty in ([], (), np.array([], dtype=np.int64)):
        with pytest.raises(ValueError):
            sample(reduced("gumbel"), 3, empty)


def test_sample_distribution_sanity():
    d = DistributionSpec("normal", a=10.0, b=2.0)
    s = sample(d, 60_000, 7)
    assert s.mean() == pytest.approx(10.0, abs=0.05)
    assert s.std() == pytest.approx(2.0, abs=0.05)


def test_lognormal3_sampling_respects_threshold():
    d = DistributionSpec("lognormal3", a=-0.5, b=0.7, c=1.0)
    s = sample(d, 5000, 11)
    assert np.all(s > 1.0)


def _mp_return_quantile(family, T):
    """Q(1 - 1/T) to 30 digits; 1 - 1/T is formed in 60-digit arithmetic."""
    with mp.workdps(60):
        p = 1 - 1 / mp.mpf(T)
        if family == "gumbel":
            z = -mp.log(-mp.log(p))
        else:
            z = mp.sqrt(2) * mp.erfinv(2 * p - 1)
    with mp.workdps(30):
        return float(+z)


@pytest.mark.parametrize("T", [1e2, 1e15, 1e17, 1e20])
@pytest.mark.parametrize("family", ["gumbel", "normal", "lognormal3"])
def test_reduced_return_quantile_matches_mpmath(family, T):
    ref = _mp_return_quantile("gumbel" if family == "gumbel" else "normal", T)
    assert reduced_return_quantile(family, T) == pytest.approx(ref, rel=1e-14)
    d = DistributionSpec(family, a=2.0, b=0.5, c=1.0)
    want = 1.0 + math.exp(2.0 + 0.5 * ref) if family == "lognormal3" else 2.0 + 0.5 * ref
    assert return_level(d, T) == pytest.approx(want, rel=1e-13)


def test_reduced_return_quantile_vectorized_and_domain():
    T = np.array([10.0, 1e3, 1e18])
    got = reduced_return_quantile("gumbel", T)
    assert got.shape == (3,)
    assert got[0] == reduced_return_quantile("gumbel", 10.0)
    for bad in (1.0, 0.5, -3.0, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            reduced_return_quantile("normal", bad)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_reduced_cdf_out_is_bitwise_the_plain_expression(family):
    # the allocating and the out= call are both checked against the plain
    # numpy/scipy expression written here; below z = -709.78 the Gumbel's exp(-z) overflows to inf; +-inf and NaN
    # pass through; 2-D is the shape IFSE hands in
    z = np.concatenate([[-np.inf, -1e308, -1e4, -800.0, -709.0],
                        np.linspace(-40.0, 40.0, 161), [-0.0, np.inf, np.nan]])
    z = np.stack([z, z[::-1]])
    keep = z.copy()
    if family == "gumbel":
        with np.errstate(over="ignore"):
            want = np.exp(-np.exp(-z))
    else:
        want = special.ndtr(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert reduced_cdf(family, z).tobytes() == want.tobytes()
        out = np.empty_like(z)
        assert reduced_cdf(family, z, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert z.tobytes() == keep.tobytes()  # another out leaves z alone
        assert reduced_cdf(family, z, out=z) is z
        assert z.tobytes() == want.tobytes()
        for x in (-800.0, 0.3, np.array(0.3)):
            v = reduced_cdf(family, x)
            assert type(v) is float
            v_out = reduced_cdf(family, x, out=np.empty(()))
            assert type(v_out) is float and v_out == v
