"""Output checks for each workload's ops.

Every function takes one op's JSON summary (as passrun.py emits it) and
returns a list of problems; an empty list means the op's output is correct.

* mc_sweep, default seed: every number equals the golden output recorded in
  golden.json to 1e-12 relative, the declared-equivalence rule.
* mc_sweep, any other seed: DSE is deterministic, so it still matches the
  golden value; IQSE and IFSE are checked against the acceptance reference
  tables at the acceptance tolerances, widened by five of the cell's own
  reported standard errors (those tables come from one Monte Carlo run, and
  other seeds scatter around them by their sampling error), and the
  exact-unbiased rule must beat Weibull on IQSE.
* casestudy_*: the bundled dataset is fixed, so every seed is compared with
  the golden output to 1e-12 relative; each SVG must parse and carry one
  marker per point. The historical 5a/5b/5c values are never used.
* exact_gls: the exact moments match golden.json within EXACT_MEAN_TOL and
  EXACT_COV_TOL of ppbench.order_stats; the fit is recomputed independently
  from those moments; on the default seed the sample matches to 1e-12.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import xml.etree.ElementTree as ET

DEFAULT_SEED = 20140101  # ppbench.benchmark.DEFAULT_SEED
REL_TOL = 1e-12
EXACT_MEAN_TOL = 1e-9  # ppbench.order_stats.EXACT_MEAN_TOL
EXACT_COV_TOL = 1e-7  # ppbench.order_stats.EXACT_COV_TOL
FIT_TOL = 1e-9
SE_WIDTH = 5.0

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

SIZES = (5, 10, 30)

# Acceptance reference tables (columns N = 5, 10, 30), keyed by what each
# number measures; tukey and kerman share one row. Copied from
# tests/test_acceptance.py, which the benchmark does not import: it pulls in
# pytest and mpmath and its names are not an interface.
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


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _close(got, want, rel: float = REL_TOL) -> bool:
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return abs(got - want) <= rel * max(abs(got), abs(want))
    return got == want


def _compare(path: str, got, want, rel: float, problems: list) -> None:
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append("%s: shape differs from golden" % path)
            return
        for k, (g, w) in enumerate(zip(got, want)):
            _compare("%s[%d]" % (path, k), g, w, rel, problems)
    elif not _close(got, want, rel):
        problems.append("%s: %r, golden %r" % (path, got, want))


def _finite(path: str, values, problems: list) -> None:
    for v in values:
        if v is None or not math.isfinite(v):
            problems.append("%s: non-finite value %r" % (path, v))
            return


def _ref_key(estimator: str) -> str:
    key = estimator.split("(")[0]
    return "tukey" if key == "kerman" else key


def check_mc_cell(out: dict, seed: int, golden: dict) -> list[str]:
    problems: list[str] = []
    cell = "%s n=%d" % (out["family"], out["n"])
    want = next(
        (c for c in golden["mc_sweep"] if c["family"] == out["family"] and c["n"] == out["n"]),
        None,
    )
    if want is None:
        return ["%s: no golden cell" % cell]
    for est, iq, iq_se, if_, if_se, d, comb, disc in out["rows"]:
        path = "%s %s" % (cell, est)
        _finite(path, [iq, iq_se, if_, if_se], problems)
        if est != "mle":
            _finite(path, [d, comb], problems)
        if disc >= out["replicates"]:
            problems.append("%s: every replicate discarded" % path)
    if problems:
        return problems
    if seed == DEFAULT_SEED:
        _compare(cell, out["rows"], want["rows"], REL_TOL, problems)
        return problems

    golden_dse = {row[0]: row[5] for row in want["rows"]}
    k = SIZES.index(out["n"])
    by_key = {}
    for est, iq, iq_se, if_, if_se, d, _comb, _disc in out["rows"]:
        path = "%s %s" % (cell, est)
        by_key[_ref_key(est)] = iq
        if not _close(d, golden_dse.get(est)):
            problems.append("%s: dse %r, golden %r" % (path, d, golden_dse.get(est)))
        ref = IQSE_REF[_ref_key(est)][out["family"]][k]
        tol = max(0.07 * ref, 0.02) + SE_WIDTH * iq_se
        if abs(iq - ref) > tol:
            problems.append("%s: iqse %.4f vs reference %.3f (tol %.4f)" % (path, iq, ref, tol))
        ref = IFSE_REF[_ref_key(est)][out["family"]][k]
        tol = 0.004 + SE_WIDTH * if_se
        if abs(if_ - ref) > tol:
            problems.append("%s: ifse %.4f vs reference %.3f (tol %.4f)" % (path, if_, ref, tol))
    if not by_key["eupp"] < by_key["weibull"]:
        problems.append("%s: exact-unbiased iqse does not beat weibull" % cell)
    return problems


def _svg_markers(svg: str) -> int:
    root = ET.fromstring(svg)
    return sum(
        1
        for el in root.iter("{http://www.w3.org/2000/svg}circle")
        if el.get("class") == "marker"
    )


def check_casestudy(out: dict, method: str, golden: dict) -> list[str]:
    problems: list[str] = []
    for row in out["months"]:
        _finite("month %s" % row[0], row[2:], problems)
    want = golden["casestudy_" + method]
    _compare("months", out["months"], want["months"], REL_TOL, problems)
    if out["clipped"] != want["clipped"]:
        problems.append("clipped %d, golden %d" % (out["clipped"], want["clipped"]))
    if len(out["svg"]) != len(out["months"]):
        problems.append("%d charts for %d months" % (len(out["svg"]), len(out["months"])))
    for svg, row in zip(out["svg"], out["months"]):
        try:
            markers = _svg_markers(svg)
        except ET.ParseError as exc:
            problems.append("month %s: svg does not parse (%s)" % (row[0], exc))
            continue
        if markers != row[1]:
            problems.append("month %s: %d markers for %d points" % (row[0], markers, row[1]))
    return problems


def _gls(x, y, V) -> tuple[float, float]:
    import numpy as np

    A = np.column_stack([np.ones(len(y)), y])
    Vi_A = np.linalg.solve(np.asarray(V), A)
    a, b = np.linalg.solve(A.T @ Vi_A, Vi_A.T @ np.asarray(x))
    return float(a), float(b)


def _reduced_quantile(family: str, p: float) -> float:
    if family == "gumbel":
        return -math.log(-math.log(p))
    return statistics.NormalDist().inv_cdf(p)


def check_exact_gls(out: dict, seed: int, golden: dict) -> list[str]:
    problems: list[str] = []
    want = {f["family"]: f for f in golden["exact_gls"]["fits"]}
    for fit in out["fits"]:
        fam = fit["family"]
        ref = want[fam]
        flat_v = [v for row in fit["V"] for v in row]
        bad: list[str] = []
        _finite(fam, fit["x"] + fit["y"] + flat_v + [fit["a"], fit["b"], fit["x_T"]], bad)
        if bad:
            problems += bad
            continue
        for k, (g, w) in enumerate(zip(fit["y"], ref["y"])):
            if abs(g - w) > EXACT_MEAN_TOL:
                problems.append("%s y[%d]: %r, golden %r" % (fam, k, g, w))
        ref_v = [v for row in ref["V"] for v in row]
        for k, (g, w) in enumerate(zip(flat_v, ref_v)):
            if abs(g - w) > EXACT_COV_TOL:
                problems.append("%s V[%d]: %r, golden %r" % (fam, k, g, w))
        a, b = _gls(fit["x"], fit["y"], fit["V"])
        for name, got, want_v in (("a", fit["a"], a), ("b", fit["b"], b)):
            if abs(got - want_v) > FIT_TOL * (1.0 + abs(want_v)):
                problems.append("%s %s: %r, recomputed %r" % (fam, name, got, want_v))
        z = _reduced_quantile(fam, 1.0 - 1.0 / out["return_period"])
        x_t = fit["a"] + fit["b"] * z
        if abs(fit["x_T"] - x_t) > FIT_TOL * (1.0 + abs(x_t)):
            problems.append("%s x_T: %r, recomputed %r" % (fam, fit["x_T"], x_t))
        if seed == DEFAULT_SEED:
            _compare(fam + " x", fit["x"], ref["x"], REL_TOL, problems)
    return problems
