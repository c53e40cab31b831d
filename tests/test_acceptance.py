"""End-to-end reproduction checks against the recorded reference tables.

Each test_criterion_* function is one gate; `pytest -v` prints one line per
gate. References are historical values pinned for regression, each with its
own stated tolerance.

The case-study gates 5a, 5b and 5c check the bundled record against
independent oracles and print the per-month comparison with the recorded
tables. The three *_recorded_values gates compare against those tables at
their original tolerances, on tests/data/bradyseism_source.csv where that
record is present. The 5a table needs it: the bundled magnitudes are rounded
to 0.1 and their ties inflate the statistic, so that gate skips without it.
The gaps of 5b and 5c are not explained by rounding; their gates run on the
bundled record when the source record is absent, and fail there (see the
criterion-5 comments).
"""

import csv
import math
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats

from ppbench import bradyseism_data, casestudy
from ppbench import (
    DEFAULT_SEED,
    ExperimentConfig,
    MagnitudeRecord,
    build_moments,
    classical_positions,
    dse,
    exact_mean,
    fit_gls,
    fit_ols,
    make_formula,
    positions_for,
    proposed_positions,
    quantile_derivative,
    reduced,
    reduced_quantile,
    run_case_study,
    run_suite,
    sample,
    symmetry_check,
)
from ppbench.benchmark import _trapezoid_weights, default_f_grid
from ppbench.estimation import ols_batch
from ppbench.order_stats import _exact_joint_moments, _exact_moments

FAMILIES = ("gumbel", "normal")
SIZES = (5, 10, 30)

# --- reference tables (printed values; column order N = 5, 10, 30) -----------

# Deterministic index. The source table transposes the two family blocks and
# swaps the two Yu-Huang rows; the dict below is keyed by what each number
# actually measures (verified against quadrature oracles). One cell is a
# misprint and excluded, see SKIPPED_DSE_CELL.
DSE_REF = {
    "eupp": {"gumbel": (0.011, 0.004, 0.001), "normal": (0.003, 0.000, 0.001)},
    "hazen": {"gumbel": (0.085, 0.054, 0.027), "normal": (0.077, 0.051, 0.024)},
    "beard": {"gumbel": (0.105, 0.077, 0.046), "normal": (0.019, 0.019, 0.014)},
    "blom": {"gumbel": (0.079, 0.052, 0.028), "normal": (0.011, 0.004, 0.002)},
    "tukey": {"gumbel": (0.095, 0.068, 0.040), "normal": (0.009, 0.011, 0.010)},
    "gringorten": {"gumbel": (0.068, 0.016, 0.016), "normal": (0.043, 0.027, 0.011)},
    "yu_huang_normal": {"gumbel": (0.073, 0.045, 0.022), "normal": (0.022, 0.012, 0.003)},
    "yu_huang_gumbel": {"gumbel": (0.158, 0.101, 0.052), "normal": (0.079, 0.049, 0.023)},
    "de": {"gumbel": (0.012, 0.011, 0.008), "normal": (0.058, 0.036, 0.018)},
    "weibull": {"gumbel": (0.236, 0.192, 0.123), "normal": (0.130, 0.103, 0.062)},
    "cunnane": {"gumbel": (0.072, 0.044, 0.022), "normal": (0.023, 0.012, 0.004)},
    "adamowski": {"gumbel": (0.132, 0.102, 0.063), "normal": (0.044, 0.037, 0.024)},
    "erto_lepore_2013": {"gumbel": (0.109, 0.080, 0.048), "normal": (0.023, 0.021, 0.014)},
}

# The printed 0.016 is inconsistent with the deterministic definition (the
# quadrature oracle gives 0.0388, and 0.016 duplicates the N=30 entry).
SKIPPED_DSE_CELL = ("gringorten", "gumbel", 10)

IQSE_REF = {
    "mle": {"gumbel": (0.575, 0.270, 0.092), "normal": (0.317, 0.154, 0.051)},
    "eupp": {"gumbel": (0.693, 0.326, 0.113), "normal": (0.334, 0.157, 0.051)},
    "hazen": {"gumbel": (0.670, 0.321, 0.113), "normal": (0.317, 0.154, 0.051)},
    "beard": {"gumbel": (0.770, 0.353, 0.118), "normal": (0.341, 0.160, 0.051)},
    "blom": {"gumbel": (0.730, 0.339, 0.116), "normal": (0.330, 0.157, 0.051)},
    "tukey": {"gumbel": (0.755, 0.348, 0.117), "normal": (0.336, 0.159, 0.051)},
    "gringorten": {"gumbel": (0.696, 0.328, 0.114), "normal": (0.322, 0.155, 0.051)},
    "yu_huang_normal": {"gumbel": (0.717, 0.335, 0.115), "normal": (0.326, 0.156, 0.051)},
    "yu_huang_gumbel": {"gumbel": (0.777, 0.353, 0.118), "normal": (0.329, 0.158, 0.051)},
    "de": {"gumbel": (0.690, 0.328, 0.114), "normal": (0.334, 0.158, 0.051)},
    "weibull": {"gumbel": (1.039, 0.448, 0.137), "normal": (0.430, 0.189, 0.057)},
    "cunnane": {"gumbel": (0.716, 0.335, 0.115), "normal": (0.326, 0.156, 0.051)},
    "adamowski": {"gumbel": (0.813, 0.368, 0.121), "normal": (0.353, 0.164, 0.052)},
    "erto_lepore_2013": {"gumbel": (0.776, 0.354, 0.119), "normal": (0.342, 0.160, 0.051)},
}

IFSE_REF = {
    "mle": {"gumbel": (0.027, 0.012, 0.004), "normal": (0.025, 0.012, 0.004)},
    "eupp": {"gumbel": (0.024, 0.012, 0.004), "normal": (0.022, 0.011, 0.004)},
    "hazen": {"gumbel": (0.026, 0.012, 0.004), "normal": (0.023, 0.011, 0.004)},
    "beard": {"gumbel": (0.024, 0.011, 0.004), "normal": (0.021, 0.011, 0.004)},
    "blom": {"gumbel": (0.024, 0.012, 0.004), "normal": (0.022, 0.011, 0.004)},
    "tukey": {"gumbel": (0.024, 0.012, 0.004), "normal": (0.022, 0.011, 0.004)},
    "gringorten": {"gumbel": (0.025, 0.012, 0.004), "normal": (0.022, 0.012, 0.004)},
    "yu_huang_normal": {"gumbel": (0.025, 0.012, 0.004), "normal": (0.022, 0.011, 0.004)},
    "yu_huang_gumbel": {"gumbel": (0.025, 0.012, 0.004), "normal": (0.023, 0.011, 0.004)},
    "de": {"gumbel": (0.024, 0.012, 0.004), "normal": (0.022, 0.011, 0.004)},
    "weibull": {"gumbel": (0.022, 0.011, 0.004), "normal": (0.020, 0.011, 0.003)},
    "cunnane": {"gumbel": (0.025, 0.012, 0.004), "normal": (0.022, 0.011, 0.004)},
    "adamowski": {"gumbel": (0.023, 0.011, 0.004), "normal": (0.021, 0.011, 0.004)},
    "erto_lepore_2013": {"gumbel": (0.024, 0.011, 0.004), "normal": (0.021, 0.011, 0.004)},
}

MONTHS = ("I", "II", "III", "IV", "V", "VI", "VII",
          "VIII", "IX", "X", "XI", "XII", "XIII")

# Recorded per-month values for the seismic case study.
MAD_SELF_REF = (0.521, 0.313, 0.766, 0.382, 0.577, 0.424, 0.701,
                0.732, 0.466, 0.709, 0.754, 0.434, 0.494)
MAD_CUMULATIVE_REF = (0.521, 0.395, 0.744, 0.635, 0.710, 0.702, 0.752,
                      0.825, 0.821, 0.739, 0.742, 0.699, 0.680)
# Month I is printed to one significant figure: 0.0001 stands for anything
# in [0.00005, 0.00015), a rounding of up to +-50%, wider than the +-35%
# window its gate applies.
EXCEEDANCE_REF = (0.0001, 0.0017, 0.0060, 0.0012, 0.0028, 0.0060, 0.0020,
                  0.0013, 0.0037, 0.0021, 0.0013, 0.0058, 0.0018)


def _ref_key(estimator_label):
    key = estimator_label.split("(")[0]
    # the roster carries both names for the shared-offsets rule; the
    # reference table prints them as a single row
    return "tukey" if key == "kerman" else key


# --- shared expensive computations -------------------------------------------


@pytest.fixture(scope="session")
def dse_matrix():
    start = time.perf_counter()
    values = {}
    for name in DSE_REF:
        for family in FAMILIES:
            f = (make_formula("eupp", family=family, k=4)
                 if name == "eupp" else make_formula(name))
            for n_idx, n in enumerate(SIZES):
                values[(name, family, n)] = dse(family, n, f)
    elapsed = time.perf_counter() - start
    return values, elapsed


@pytest.fixture(scope="session")
def suite_reports():
    start = time.perf_counter()
    reports = {}
    for family in FAMILIES:
        for n in SIZES:
            cfg = ExperimentConfig(family=family, n=n, seed=DEFAULT_SEED)
            reports[(family, n)] = run_suite(cfg)
    elapsed = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="session")
def case_reports():
    return {"ols": run_case_study(method="ols"), "gls": run_case_study(method="gls")}


# --- criterion 1: deterministic index table ----------------------------------


def test_criterion_1_deterministic_index_table(dse_matrix):
    """13 rows x 2 families x 3 sizes match the reference to +-0.005."""
    values, elapsed = dse_matrix
    failures = []
    for name, by_family in DSE_REF.items():
        for family in FAMILIES:
            for n_idx, n in enumerate(SIZES):
                got = values[(name, family, n)]
                ref = by_family[family][n_idx]
                if (name, family, n) == SKIPPED_DSE_CELL:
                    print("skipped known-bad cell %s: computed %.4f, printed %.3f"
                          % ((name, family, n), got, ref))
                    continue
                if abs(got - ref) > 0.005:
                    failures.append((name, family, n, got, ref))
    for f in failures:
        print("MISMATCH %s %s N=%d: computed %.4f vs reference %.3f" % f)
    assert not failures
    print("deterministic table: 77 cells within +-0.005, %.1f s" % elapsed)
    assert elapsed < 60.0


# --- criteria 2 and 3: Monte Carlo index tables -------------------------------


def test_criterion_2_quantile_error_table(suite_reports):
    """IQSE at M=10000 matches the reference to max(7% rel, 0.02 abs)."""
    reports, elapsed = suite_reports
    failures = []
    for (family, n), report in reports.items():
        n_idx = SIZES.index(n)
        for row in report.rows:
            ref = IQSE_REF[_ref_key(row.estimator)][family][n_idx]
            tol = max(0.07 * ref, 0.02)
            if abs(row.iqse - ref) > tol:
                failures.append((family, n, row.estimator, row.iqse, ref, tol))
    for f in failures:
        print("MISMATCH %s N=%d %s: %.4f vs %.3f (tol %.4f)" % f)
    assert not failures
    print("quantile-error table: %d rows within tolerance, %.1f s"
          % (sum(len(r.rows) for r in reports.values()), elapsed))
    assert elapsed < 300.0


def test_criterion_3_cdf_error_table(suite_reports):
    """IFSE at M=10000 matches the reference to +-0.004."""
    reports, _ = suite_reports
    failures = []
    for (family, n), report in reports.items():
        n_idx = SIZES.index(n)
        for row in report.rows:
            ref = IFSE_REF[_ref_key(row.estimator)][family][n_idx]
            if abs(row.ifse - ref) > 0.004:
                failures.append((family, n, row.estimator, row.ifse, ref))
    for f in failures:
        print("MISMATCH %s N=%d %s: %.4f vs %.3f" % f)
    assert not failures


# --- criterion 4: dominance of the exact-unbiased positions -------------------


def test_criterion_4_dominance_over_weibull(suite_reports, dse_matrix):
    """The exact-unbiased row strictly beats the Weibull row in all six
    cells on the two indices where the reference tables show dominance
    (quantile error and the deterministic index; Weibull wins on cdf error)."""
    reports, _ = suite_reports
    dse_values, _ = dse_matrix
    for family in FAMILIES:
        for n in SIZES:
            report = reports[(family, n)]
            eupp_row = next(r for r in report.rows if _ref_key(r.estimator) == "eupp")
            wb_row = report.row("weibull")
            assert eupp_row.iqse < wb_row.iqse, (family, n, "iqse")
            d_eupp = dse_values[("eupp", family, n)]
            d_wb = dse_values[("weibull", family, n)]
            assert d_eupp < d_wb, (family, n, "dse")
            print("%s N=%d: iqse %.4f < %.4f, det %.4f < %.4f"
                  % (family, n, eupp_row.iqse, wb_row.iqse, d_eupp, d_wb))


def test_iqse_matches_exact_value(suite_reports):
    """Monte Carlo IQSE lies within 3 of its standard errors of the exact
    value, for every OLS formula at N = 5 and 10 in both families.

    An OLS fit on positions is linear in the sorted sample: a = c_a.X and
    b = c_b.X, with the weight vectors read from ols_batch on the identity.
    So E[a^2], E[a(b-1)] and E[(b-1)^2] are quadratic forms in the exact
    means mu and the table E[Z_i Z_j], and IQSE is
    W0 E[a^2] + 2 W1 E[a(b-1)] + W2 E[(b-1)^2], with the W sums of the grid.
    The rows share random numbers, so their z values are correlated; the
    bound is per row. Measured worst z at DEFAULT_SEED: 0.86 (gumbel, 5),
    0.63 (gumbel, 10), 0.39 (normal, 5) and 1.30 (normal, 10).
    """
    reports, _ = suite_reports
    for family in FAMILIES:
        for n in (5, 10):
            report = reports[(family, n)]
            cfg = ExperimentConfig(family=family, n=n)
            mu = _exact_moments(family, n)[0]
            S = _exact_joint_moments(family, n)
            grid = default_f_grid()
            zg = reduced_quantile(family, grid)
            w = _trapezoid_weights(grid)
            W0, W1, W2 = w.sum(), zg @ w, (zg * zg) @ w
            for f in cfg.formulas:
                z = reduced_quantile(family, positions_for(f, n, family=family))
                ca, cb = ols_batch(np.eye(n), z)
                Eaa = ca @ S @ ca
                Eab = ca @ S @ cb - ca @ mu
                Ebb = cb @ S @ cb - 2.0 * (cb @ mu) + 1.0
                exact = W0 * Eaa + 2.0 * W1 * Eab + W2 * Ebb
                row = report.row(f.label)
                assert row.discarded == 0
                z_score = abs(row.iqse - exact) / row.iqse_se
                assert z_score <= 3.0, (family, n, f.label, row.iqse, exact, z_score)


# --- criterion 5: seismic case study ------------------------------------------
#
# Gates 5a/5b/5c check the case study on the bundled record against oracles
# that this file computes without ppbench: the modified Anderson-Darling
# statistic evaluated in mpmath from its documented formula, expected normal
# order statistics by quadrature for the design ordinates, the OLS line
# re-solved with numpy, and each exceedance read back through
# scipy.stats.lognorm. Each gate also prints its per-month comparison with
# the recorded table.
#
# The *_recorded_values gates compare against the recorded tables at their
# original tolerances. They run on SOURCE_RECORD where it is present: a CSV
# with the header month,magnitude and one row per event, month being the
# label I..XIII, all 13 months required. What the bundled record, whose
# magnitudes are rounded to 0.1, gives instead ("spread" below: each kept
# magnitude drawn uniformly over its +-0.05 rounding interval, per-month
# median of 200 draws):
#
# - 5a: all 13 months are off, 0.72-2.61 against 0.31-0.77. Each month has
#   only 12-22 distinct values (month III: 201 values, 18 distinct). The same
#   statistic over distinct values gives 0.18-0.71, and spread 0.28-0.87, so
#   ties explain the size of the gap and the exact figures need a record
#   finer than 0.1. Without SOURCE_RECORD the 5a gate skips.
# - 5b: 0.72-9.98 against 0.40-0.83, and spread still 0.37-7.24, so rounding
#   does not explain it. Pooling months 1..m and testing the pool against its
#   own estimates gives 0.72-11.06, but spread 0.32-1.56, the scale of the
#   table (summed |computed - recorded| 4.4, against 27.7 for the documented
#   procedure spread); it still matches no month to +-0.05. The program tests
#   month m against the mean and sd of months 1..m-1, as its docstring says.
#   The procedure behind the table is not settled, so the 5b gate runs on
#   the bundled record without SOURCE_RECORD, and fails.
# - 5c: under OLS and under GLS, 8 of 13 months fall within +-35%; I, III, V,
#   XI and XIII do not (III: 0.00019 against 0.0060). Spread, 7 months fall
#   within, and no threshold c from 0.50 to 0.95 matches more months than
#   c = 1.0. The cause is not settled, so the 5c gate runs on the bundled
#   record without SOURCE_RECORD, and fails.

SOURCE_RECORD = Path(__file__).resolve().parent / "data" / "bradyseism_source.csv"
needs_source_record = pytest.mark.skipif(
    not SOURCE_RECORD.exists(),
    reason="tests/data/bradyseism_source.csv is absent; the bundled record is "
    "rounded to 0.1 and its ties inflate the statistic",
)

# Documented case-study threshold and exceedance level.
CASE_C = 1.0
CASE_LEVEL = 5.0


def _mean_sd(xs):
    n = len(xs)
    mean = mp.fsum(xs) / n
    return mean, mp.sqrt(mp.fsum((x - mean) ** 2 for x in xs) / (n - 1))


def _mad_oracle(xs, mean, sd):
    """Modified Anderson-Darling statistic of ascending xs against N(mean, sd)."""
    n = len(xs)
    z = [(x - mean) / sd for x in xs]
    s = mp.fsum((2 * i - 1) * (mp.log(mp.ncdf(z[i - 1])) + mp.log(mp.ncdf(-z[n - i])))
                for i in range(1, n + 1))
    return (-n - s / n) * (1 + mp.mpf(0.75) / n + mp.mpf(2.25) / n ** 2)


def _classify(a2_modified):
    """Decision class against the 5% (0.787) and 2.5% (0.918) points."""
    if a2_modified <= 0.787:
        return "pass_5pct"
    if a2_modified <= 0.918:
        return "pass_2_5pct"
    return "fail"


def _rel(got, expected):
    return abs(got - expected) / abs(expected)


# Bounds on the k = 4 expansion's error in expected normal order statistics,
# as tests/test_order_stats.py sets them at n = 5: extreme ranks and
# interior ranks. The error shrinks with n; for the case-study months it is
# below 0.0035 and 0.0004.
EXPANSION_EDGE_TOL = 0.012
EXPANSION_MID_TOL = 0.004


def _normal_order_means(n, h=0.005, half_width=12.0):
    """E of the n standard normal order statistics: each rank's density
    times x integrated by the trapezoid rule on a fixed grid (a plain sum, as
    the integrand vanishes at the ends), which converges geometrically for
    these smooth, fast-decaying integrands."""
    x = np.arange(-half_width, half_width + h / 2, h)
    i = np.arange(1, n + 1)[:, None]
    log_density = (special.gammaln(n + 1) - special.gammaln(i) - special.gammaln(n + 1 - i)
                   + (i - 1) * special.log_ndtr(x) + (n - i) * special.log_ndtr(-x)
                   - 0.5 * x * x - 0.5 * math.log(2 * math.pi))
    return h * (np.exp(log_density) * x).sum(axis=1)


@pytest.fixture(scope="module")
def case_oracle():
    """Per month of the bundled record: the ascending log(magnitude - c) of
    the magnitudes above c, the statistic against the month's own mean and
    sd, and the statistic against those pooled over the earlier months."""
    logs, own, cumulative = {}, {}, {}
    history = []
    with mp.workdps(30):
        for label in MONTHS:
            xs = sorted(mp.log(mp.mpf(v) - CASE_C)
                        for v in bradyseism_data.MAGNITUDES[label] if v > CASE_C)
            logs[label] = np.array([float(x) for x in xs])
            own[label] = float(_mad_oracle(xs, *_mean_sd(xs)))
            cumulative[label] = (float(_mad_oracle(xs, *_mean_sd(history)))
                                 if history else own[label])
            history += xs
    return {"logs": logs, "self": own, "cumulative": cumulative}


def _source_reports(monkeypatch, methods):
    """Case-study runs on SOURCE_RECORD, keyed by method."""
    by_month = {label: [] for label in MONTHS}
    with SOURCE_RECORD.open(newline="") as fh:
        for row in csv.DictReader(fh):
            by_month[row["month"]].append(float(row["magnitude"]))
    missing = [label for label, mags in by_month.items() if not mags]
    assert not missing, "source record lacks months %s" % ", ".join(missing)
    records = tuple(MagnitudeRecord(label, tuple(mags)) for label, mags in by_month.items())
    monkeypatch.setattr(casestudy, "load_dataset", lambda: records)
    return {method: run_case_study(method=method) for method in methods}


def _self_vs_recorded(rep):
    """Print each month's statistic beside MAD_SELF_REF; return the months
    outside +-0.05."""
    failures = []
    for m, ref in zip(rep.months, MAD_SELF_REF):
        got = m.analysis.mad_self.a2_modified
        status = "ok" if abs(got - ref) <= 0.05 else "off"
        print("month %-4s n=%-3d computed %.3f recorded %.3f  %s"
              % (m.label, m.analysis.n, got, ref, status))
        if status == "off":
            failures.append(m.label)
    return failures


def _cumulative_vs_recorded(rep):
    """Print each month's cumulative statistic beside MAD_CUMULATIVE_REF;
    return the months outside +-0.05 and the computed maximum."""
    failures = []
    computed = []
    for m, ref in zip(rep.months, MAD_CUMULATIVE_REF):
        got = m.mad_cumulative.a2_modified
        computed.append(got)
        status = "ok" if abs(got - ref) <= 0.05 else "off"
        print("month %-4s computed %.3f recorded %.3f  %s" % (m.label, got, ref, status))
        if status == "off":
            failures.append(m.label)
    peak = max(computed)
    print("computed maximum %.3f (recorded maximum %.3f)" % (peak, max(MAD_CUMULATIVE_REF)))
    return failures, peak


def _exceedance_vs_recorded(reports):
    """Print each method's exceedances beside EXCEEDANCE_REF; return the
    method with the fewest months outside +-35% relative, and those months."""
    outcomes = {}
    for method in ("ols", "gls"):
        rep = reports[method]
        off = []
        for m, ref in zip(rep.months, EXCEEDANCE_REF):
            got = m.analysis.exceedance
            rel = abs(got - ref) / ref
            print("%s month %-4s computed %.5f recorded %.4f rel %.0f%%"
                  % (method, m.label, got, ref, 100 * rel))
            if rel > 0.35:
                off.append(m.label)
        outcomes[method] = off
    best = min(outcomes, key=lambda k: len(outcomes[k]))
    print("closest method: %s (months off: %s)"
          % (best, ", ".join(outcomes[best]) or "none"))
    return best, outcomes[best]


def test_criterion_5a_per_month_normality_values(case_reports, case_oracle):
    """On the bundled record, each month's n and statistic against its own
    estimates equal the mpmath oracle, the statistic to 1e-10 relative."""
    off = _self_vs_recorded(case_reports["ols"])
    print("bundled record: %d of 13 months outside +-0.05 of the recorded table"
          % len(off))
    for method in ("ols", "gls"):
        rep = case_reports[method]
        assert [m.label for m in rep.months] == list(MONTHS)
        for m in rep.months:
            assert m.analysis.n == case_oracle["logs"][m.label].size, (method, m.label)
            got = m.analysis.mad_self.a2_modified
            want = case_oracle["self"][m.label]
            assert _rel(got, want) <= 1e-10, (method, m.label, got, want)


def test_criterion_5b_cumulative_normality_values(case_reports, case_oracle):
    """On the bundled record, each month's statistic against the mean and sd
    pooled over the earlier months equals the mpmath oracle to 1e-10
    relative, and its decision class is the oracle value's."""
    off, _ = _cumulative_vs_recorded(case_reports["ols"])
    print("bundled record: %d of 13 months outside +-0.05 of the recorded table"
          % len(off))
    for method in ("ols", "gls"):
        for m in case_reports[method].months:
            got = m.mad_cumulative
            want = case_oracle["cumulative"][m.label]
            assert _rel(got.a2_modified, want) <= 1e-10, (method, m.label, got, want)
            assert got.comparison == _classify(want), (method, m.label, got, want)


def test_criterion_5c_exceedance_probabilities(case_reports, case_oracle):
    """On the bundled record, each month's design ordinates equal the expected
    normal order statistics within the k = 4 expansion's error bounds, the
    OLS line re-solved on them gives a_hat and b_hat to 1e-9 relative, and
    each OLS and GLS exceedance equals scipy.stats.lognorm's survival
    function at the month's fitted line to 1e-9 relative. The GLS weights,
    the expansion covariance, are checked against exact covariances in
    tests/test_order_stats.py, not here."""
    best, off = _exceedance_vs_recorded(case_reports)
    print("bundled record: %d of 13 months outside +-35%% under %s" % (len(off), best))
    means = {}
    for method in ("ols", "gls"):
        rep = case_reports[method]
        assert (rep.c, rep.level) == (CASE_C, CASE_LEVEL)
        for m in rep.months:
            a = m.analysis
            if a.n not in means:
                means[a.n] = _normal_order_means(a.n)
            gap = np.abs(a.design_y - means[a.n])
            assert gap[[0, -1]].max() <= EXPANSION_EDGE_TOL, (method, m.label, gap.max())
            assert gap[1:-1].max() <= EXPANSION_MID_TOL, (method, m.label, gap[1:-1].max())
            a_hat, b_hat = a.a_hat, a.b_hat
            if method == "ols":
                design = np.column_stack([np.ones_like(a.design_y), a.design_y])
                a_hat, b_hat = np.linalg.lstsq(design, case_oracle["logs"][m.label],
                                               rcond=None)[0]
                assert _rel(a.a_hat, a_hat) <= 1e-9, (m.label, a.a_hat, a_hat)
                assert _rel(a.b_hat, b_hat) <= 1e-9, (m.label, a.b_hat, b_hat)
            want = stats.lognorm.sf(CASE_LEVEL - CASE_C, s=b_hat, scale=math.exp(a_hat))
            assert _rel(a.exceedance, want) <= 1e-9, (method, m.label, a.exceedance, want)


def _recorded_reports(monkeypatch, case_reports, methods):
    """Case-study runs keyed by method: on SOURCE_RECORD where it is present,
    otherwise the bundled record's."""
    if SOURCE_RECORD.exists():
        return _source_reports(monkeypatch, methods)
    return case_reports


@needs_source_record
def test_criterion_5a_recorded_values(monkeypatch):
    """Per-month test statistics match the recorded values to +-0.05."""
    failures = _self_vs_recorded(_source_reports(monkeypatch, ("ols",))["ols"])
    assert not failures, "months outside +-0.05: %s" % ", ".join(failures)


def test_criterion_5b_recorded_values(monkeypatch, case_reports):
    """Cumulative statistics match to +-0.05 and their maximum falls in the
    indeterminate band (0.787, 0.918]."""
    rep = _recorded_reports(monkeypatch, case_reports, ("ols",))["ols"]
    failures, peak = _cumulative_vs_recorded(rep)
    assert not failures, "months outside +-0.05: %s" % ", ".join(failures)
    assert 0.787 < peak <= 0.918


def test_criterion_5c_recorded_values(monkeypatch, case_reports):
    """Exceedance probabilities match the recorded ones to +-35% relative
    under at least one fitting method; the matching method is printed."""
    reports = _recorded_reports(monkeypatch, case_reports, ("ols", "gls"))
    best, off = _exceedance_vs_recorded(reports)
    assert off == [], (
        "no method matches all months; best is %r with %d months outside +-35%%"
        % (best, len(off))
    )


# --- criterion 6: parameter-free property bundle -------------------------------


def test_criterion_6_property_bundle():
    """Structural identities that hold without any recorded numbers."""
    # (a) affine equivariance of both linear fits to 1e-10
    n = 12
    base = np.sort(sample(reduced("gumbel"), n, 2718))
    m = build_moments("gumbel", n)
    for fitter in (lambda x: fit_ols(x, m.y, family="gumbel"),
                   lambda x: fit_gls(x, m)):
        f0 = fitter(base)
        f1 = fitter(5.0 + 3.0 * base)
        assert abs(f1.a_hat - (5.0 + 3.0 * f0.a_hat)) < 1e-10
        assert abs(f1.b_hat - 3.0 * f0.b_hat) < 1e-10

    # (b) reflection symmetry for every rule with size offset 1 - 2 * rank offset
    for name in ("weibull", "hazen", "beard", "blom", "tukey", "gringorten",
                 "cunnane", "adamowski", "erto_lepore_2013"):
        for size in (5, 10, 30):
            assert symmetry_check(positions_for(name, size)), (name, size)

    # (c) zeroth-order proposal collapses to the i/(N+1) rule
    for family in FAMILIES:
        for size in (5, 10, 30):
            got = proposed_positions(family, size, k=0)
            ref = classical_positions("weibull", size)
            assert np.max(np.abs(got - ref)) < 1e-13

    # (d) identity-weighted GLS equals OLS to 1e-10
    mi = build_moments("normal", 9, cov_mode="identity")
    x = np.sort(sample(reduced("normal"), 9, 16180))
    g = fit_gls(x, mi)
    o = fit_ols(x, mi.y)
    assert abs(g.a_hat - o.a_hat) < 1e-10
    assert abs(g.b_hat - o.b_hat) < 1e-10

    # (e) closed-form quantile derivatives vs high-precision differentiation
    oracles = {
        "gumbel": lambda p: -mp.log(-mp.log(p)),
        "normal": lambda p: mp.sqrt(2) * mp.erfinv(2 * p - 1),
    }
    for family, Q in oracles.items():
        for p in (0.1, 0.5, 0.9):
            for order in (1, 2, 3, 4):
                with mp.workdps(40):
                    ref = float(mp.diff(Q, mp.mpf(p), order))
                got = quantile_derivative(family, p, order)
                assert abs(got - ref) <= 1e-5 * abs(ref), (family, p, order)

    # (f) the deterministic index never worsens across complete truncations
    for family in FAMILIES:
        for size in SIZES:
            vals = [dse(family, size, make_formula("eupp", family=family, k=k))
                    for k in (0, 2, 4)]
            assert vals[2] < vals[1] < vals[0], (family, size, vals)

    # (g) quadrature means reproduce closed-form constants to 1e-8
    assert abs(exact_mean("gumbel", 1, 1) - 0.5772156649015329) < 1e-8
    assert abs(exact_mean("normal", 1, 2) + 1.0 / math.sqrt(math.pi)) < 1e-8

    # (h) the covariance is positive definite after repair in every cell
    for family in FAMILIES:
        for size in SIZES:
            mm = build_moments(family, size)
            np.linalg.cholesky(mm.V)  # raises if not PD
