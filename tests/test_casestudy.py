import numpy as np
import pytest

from ppbench import (
    CaseStudyReport,
    DataCorruptionError,
    MagnitudeRecord,
    ThresholdError,
    analyze_month,
    load_dataset,
    month_plot_spec,
    run_case_study,
)
from ppbench import bradyseism_data, casestudy, order_stats, svgplot

MONTH_SIZES = {
    "I": 46, "II": 76, "III": 238, "IV": 101, "V": 80, "VI": 130, "VII": 187,
    "VIII": 206, "IX": 179, "X": 211, "XI": 91, "XII": 87, "XIII": 111,
}
USED_SIZES = [42, 70, 201, 85, 71, 113, 173, 187, 156, 181, 78, 76, 90]


def test_load_dataset_contents():
    recs = load_dataset()
    assert [r.month_label for r in recs] == list(MONTH_SIZES)
    for r in recs:
        assert len(r.magnitudes) == MONTH_SIZES[r.month_label]
        assert all(v > 0 for v in r.magnitudes)
    assert sum(len(r.magnitudes) for r in recs) == 1743


def test_load_dataset_checksum_guard(monkeypatch):
    monkeypatch.setattr(bradyseism_data, "DATASET_SHA256", "0" * 64)
    with pytest.raises(DataCorruptionError):
        load_dataset()


def test_analyze_month_requires_threshold_clearance():
    rec = load_dataset()[0]
    assert min(rec.magnitudes) <= 1.0
    with pytest.raises(ThresholdError):
        analyze_month(rec)  # raw month still holds magnitudes at or below c


def test_analyze_month_small_sample_guard():
    with pytest.raises(ValueError):
        analyze_month(MagnitudeRecord("x", (1.5, 1.6, 1.7, 1.8)))


@pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_threshold_is_named(c):
    # a NaN or infinite c once surfaced as a size or finiteness failure,
    # because run_case_study filters every month with it first
    with pytest.raises(ValueError, match="threshold c must be finite"):
        run_case_study(c=c)
    with pytest.raises(ValueError, match="threshold c must be finite"):
        analyze_month(MagnitudeRecord("x", (1.5, 1.6, 1.7, 1.8, 1.9, 2.0)), c=c)


def test_analyze_month_method_validation():
    rec = MagnitudeRecord("x", (1.5, 1.6, 1.7, 1.8, 1.9, 2.0))
    with pytest.raises(ValueError):
        analyze_month(rec, method="mle")


def test_analyze_month_fits_log_scale():
    mags = (1.5, 1.7, 2.0, 2.4, 2.9, 3.5)
    rec = MagnitudeRecord("x", mags)
    a = analyze_month(rec, c=1.0)
    assert a.n == 6
    assert np.allclose(a.log_values, np.sort(np.log(np.array(mags) - 1.0)))
    assert a.b_hat > 0
    # exceedance recomputable from the fitted line
    p = exceedance_probability_from(a)
    assert a.exceedance == pytest.approx(p, rel=1e-12)


def exceedance_probability_from(a):
    from ppbench import DistributionSpec, cdf

    d = DistributionSpec("lognormal3", a=a.a_hat, b=a.b_hat, c=a.c)
    return 1.0 - cdf(d, a.level)


def test_run_case_study_defaults():
    rep = run_case_study()
    assert isinstance(rep, CaseStudyReport)
    assert rep.method == "ols" and rep.c == 1.0 and rep.k == 4 and rep.level == 5.0
    assert [m.label for m in rep.months] == list(MONTH_SIZES)
    assert [m.analysis.n for m in rep.months] == USED_SIZES
    assert [m.n_total for m in rep.months] == list(MONTH_SIZES.values())
    for m in rep.months:
        assert 0.0 < m.analysis.exceedance < 0.02
        assert m.analysis.b_hat > 0


def test_run_case_study_first_month_self_referenced():
    rep = run_case_study()
    first = rep.months[0]
    assert first.mad_cumulative is first.analysis.mad_self
    second = rep.months[1]
    assert second.mad_cumulative is not second.analysis.mad_self
    assert second.mad_cumulative.n == second.analysis.n


def test_run_case_study_gls_variant():
    rep = run_case_study(method="gls")
    assert rep.method == "gls"
    ols = run_case_study()
    # same data, different weighting: estimates shift but stay close
    for a, b in zip(rep.months, ols.months):
        assert a.analysis.n == b.analysis.n
        assert a.analysis.a_hat == pytest.approx(b.analysis.a_hat, abs=0.2)
        assert a.analysis.exceedance != b.analysis.exceedance


# (module, attribute) bindings the case study looks these layers up through;
# the benchmark's traced run wraps the same bindings to time each layer, so a
# refactor that calls around one of them would leave that layer untimed.
TRACED_BINDINGS = (
    (order_stats, "expansion_mean"),
    (order_stats, "expansion_cov"),
    (order_stats, "quantile_derivative"),
    (casestudy, "build_moments"),
    (casestudy, "fit_gls"),
    (svgplot, "emit_probability_paper"),
)


def _counting(calls, name, f):
    def counted(*args, **kwargs):
        calls[name] += 1
        return f(*args, **kwargs)

    return counted


def test_gls_case_study_calls_through_traced_bindings(monkeypatch):
    calls = {}
    for module, attr in TRACED_BINDINGS:
        name = "%s.%s" % (module.__name__, attr)
        calls[name] = 0
        monkeypatch.setattr(module, attr, _counting(calls, name, getattr(module, attr)))
    rep = casestudy.run_case_study("gls")
    svgplot.emit_probability_paper(casestudy.month_plot_spec(rep.months[0]))
    assert all(calls.values()), calls


def _concatenated_pools(rep):
    """Mean and sd of months 1..m-1 for each month m >= 2, by concatenation."""
    logs = [m.analysis.log_values for m in rep.months]
    pools = [np.concatenate(logs[:m]) for m in range(1, len(logs))]
    return [(float(pool.mean()), float(pool.std(ddof=1))) for pool in pools]


@pytest.mark.parametrize("method", ["ols", "gls"])
def test_pooled_history_is_bitwise_the_concatenated_one(method, monkeypatch):
    seen = []
    mad_known_params = casestudy.mad_known_params

    def recording(x, mean, sd):
        seen.append((mean, sd))
        return mad_known_params(x, mean, sd)

    monkeypatch.setattr(casestudy, "mad_known_params", recording)
    rep = run_case_study(method)
    pools = _concatenated_pools(rep)
    assert seen == pools
    # the whole report, rebuilt with the concatenated pools
    months = [rep.months[0]] + [
        casestudy.MonthReport(m.analysis, m.n_total, mad_known_params(m.analysis.log_values, *p))
        for m, p in zip(rep.months[1:], pools)
    ]
    want = CaseStudyReport(method, rep.c, rep.k, rep.level, tuple(months))
    assert rep.to_payload() == want.to_payload()


def test_case_study_threshold_sensitivity():
    rep = run_case_study(c=1.2)
    assert [m.analysis.n for m in rep.months] != USED_SIZES
    assert all(m.analysis.c == 1.2 for m in rep.months)


def test_report_month_lookup_and_payload():
    rep = run_case_study()
    m5 = rep.month("V")
    assert m5.analysis.n == 71
    with pytest.raises(KeyError):
        rep.month("XIV")
    p = rep.to_payload()
    assert len(p["months"]) == 13
    keys = set(p["months"][0])
    assert {"label", "n_used", "n_total", "a_hat", "b_hat", "exceedance",
            "mad_self", "mad_cumulative"} <= keys


def test_month_plot_spec_points():
    rep = run_case_study()
    spec = month_plot_spec(rep.months[0])
    assert len(spec.points) == 42
    assert spec.fitted_line is not None
    xs = [pt[1] for pt in spec.points]
    assert xs == sorted(xs)


def test_dataset_serialization_is_stable():
    import hashlib

    raw = bradyseism_data._serialize()
    assert hashlib.sha256(raw).hexdigest() == bradyseism_data.DATASET_SHA256
