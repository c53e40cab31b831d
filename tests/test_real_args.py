"""One rule for real arguments, checked at every entry point that takes one.

A parameter, threshold, level, return period or data array is real: a
Python or numpy int or float, or an array-like of integer or floating dtype,
used as the float (or float array) of the same value. A bool, str, None or
other type raises TypeError naming the argument. NaN raises ValueError
naming it, and so does +-inf where a finite value is needed; where one is
not (the exceedance threshold and level, and the inputs of the vectorized
cdf and quantile functions) +-inf gives the result it always gave.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ppbench import (
    DistributionSpec,
    MagnitudeRecord,
    PlotSpec,
    PositionFormula,
    analyze_month,
    build_moments,
    cdf,
    classical_positions,
    ensure_spd,
    exceedance_probability,
    fit_gls,
    fit_mle,
    fit_ols,
    mad_case3,
    mad_known_params,
    predict_quantile,
    quantile,
    quantile_derivative,
    reduced,
    reduced_cdf,
    reduced_quantile,
    reduced_return_quantile,
    return_level,
    run_case_study,
)
from ppbench.distributions import _log_excess
from test_int_args import _bits

SRC = Path(__file__).resolve().parents[1] / "src" / "ppbench"

_Y5 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_X5 = [1, 2, 3, 5, 8]
_FIT = fit_ols(np.array(_X5, dtype=float), _Y5)
_MONTH = MagnitudeRecord("x", (1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.4))
_SAMPLE = [1, 2, 3, 5, 8, 13]
_POINTS = ((0.0, 1.0), (1.0, 3.0))

ALL = (math.nan, math.inf, -math.inf)

# entry point and argument: (call with the argument v, a legal v, the name
# the messages give it, the non-finite values refused with ValueError). A
# legal v that is a list is an array argument. The one site not here, `ppbench
# gof --log-threshold`, parses a float; test_cli pins its nan/inf/-inf errors.
CASES = {
    "DistributionSpec.a": (lambda v: DistributionSpec("gumbel", a=v, b=2.0), 3, "location a", ALL),
    "DistributionSpec.b": (lambda v: DistributionSpec("gumbel", b=v), 2, "scale b", ALL),
    "DistributionSpec.c": (lambda v: DistributionSpec("lognormal3", c=v), 1, "threshold c", ALL),
    "_log_excess.c": (lambda v: _log_excess([1.5, 2.0, 3.0], v), 1, "threshold c", ALL),
    "_log_excess.values": (lambda v: _log_excess(v, 1.0), [2, 3, 5], "values", ()),
    "return_level.T": (lambda v: return_level(reduced("gumbel"), v), 100, "return period", ALL),
    "predict_quantile.T": (lambda v: predict_quantile(_FIT, v), 100, "return period", ALL),
    "reduced_return_quantile.T": (lambda v: reduced_return_quantile("normal", v), 100,
                                  "return period", ALL),
    "exceedance_probability.threshold": (lambda v: exceedance_probability(_FIT, v), 3,
                                         "threshold", (math.nan,)),
    "exceedance_probability.c": (lambda v: exceedance_probability(_FIT, 3.0, "lognormal3", c=v),
                                 1, "threshold c", ALL),
    "analyze_month.level": (lambda v: analyze_month(_MONTH, level=v), 2, "the exceedance level",
                            (math.nan,)),
    "analyze_month.c": (lambda v: analyze_month(_MONTH, c=v), 1, "threshold c", ALL),
    "run_case_study.level": (lambda v: run_case_study(level=v), 5, "the exceedance level",
                             (math.nan,)),
    "run_case_study.c": (lambda v: run_case_study(c=v), 1, "threshold c", ALL),
    "mad_known_params.mean": (lambda v: mad_known_params(_SAMPLE, v, 4.0), 5, "mean", ALL),
    "mad_known_params.sd": (lambda v: mad_known_params(_SAMPLE, 5.0, v), 4, "sd", ALL),
    "mad_known_params.x": (lambda v: mad_known_params(v, 5.0, 4.0), _SAMPLE, "sample", ALL),
    "mad_case3.x": (lambda v: mad_case3(v), _SAMPLE, "sample", ALL),
    "PositionFormula.rank_offset": (
        lambda v: classical_positions(PositionFormula("weibull", v, 1.0), 5), 0, "rank_offset",
        ALL),
    "PositionFormula.size_offset": (
        lambda v: classical_positions(PositionFormula("weibull", 0.0, v), 5), 1, "size_offset",
        ALL),
    "reduced_cdf.z": (lambda v: reduced_cdf("gumbel", v), 1, "z", ()),
    "cdf.x": (lambda v: cdf(DistributionSpec("gumbel", a=1.0, b=2.0), v), 2, "x", ()),
    "reduced_quantile.p": (lambda v: reduced_quantile("normal", v), 0.25, "p", ()),
    "quantile.p": (lambda v: quantile(reduced("gumbel"), v), 0.25, "p", ()),
    "quantile_derivative.p": (lambda v: quantile_derivative("gumbel", v, 2), 0.25, "p", ()),
    "fit_ols.x_sorted": (lambda v: fit_ols(v, _Y5), _X5, "observations", ALL),
    "fit_ols.design_y": (lambda v: fit_ols(_X5, v), [-2, -1, 0, 1, 2], "design ordinates", ALL),
    "fit_gls.x_sorted": (lambda v: fit_gls(v, build_moments("normal", 5)), _X5, "observations",
                         ALL),
    "fit_mle.x": (lambda v: fit_mle(v, "gumbel"), _X5, "observations", ALL),
    "ensure_spd.V": (lambda v: ensure_spd(v), [[2, 1], [1, 2]], "covariance", ALL),
    "PlotSpec.points": (lambda v: PlotSpec("t", "normal", v), [[0, 1], [1, 3], [-1, 0]],
                        "points", ALL),
    "PlotSpec.prob_ticks": (lambda v: PlotSpec("t", "normal", _POINTS, prob_ticks=v),
                            [0.25, 0.75], "probability ticks", ALL),
    "PlotSpec.fitted_line": (lambda v: PlotSpec("t", "normal", _POINTS, fitted_line=v), [1, 2],
                             "fitted line", ALL),
}

# what a non-finite value the rule lets through gives, as it always did;
# ValueError is the DomainError of a probability outside (0, 1)
PASSED = {
    "exceedance_probability.threshold": {math.inf: 0.0, -math.inf: 1.0},
    "analyze_month.level": {math.inf: 0.0, -math.inf: 1.0},
    "run_case_study.level": {math.inf: 0.0, -math.inf: 1.0},
    "reduced_cdf.z": {math.inf: 1.0, -math.inf: 0.0, math.nan: math.nan},
    "cdf.x": {math.inf: 1.0, -math.inf: 0.0, math.nan: math.nan},
    "reduced_quantile.p": {math.inf: ValueError, -math.inf: ValueError, math.nan: math.nan},
    "quantile.p": {math.inf: ValueError, -math.inf: ValueError, math.nan: math.nan},
    "quantile_derivative.p": {math.inf: ValueError, -math.inf: ValueError, math.nan: math.nan},
    # log(x - 1) of the legal values 3 and 5, with an infinite value kept
    # and -inf or NaN dropped like any value at or below c
    "_log_excess.values": {math.inf: np.log([2.0, 4.0, math.inf]),
                           -math.inf: np.log([2.0, 4.0]), math.nan: np.log([2.0, 4.0])},
}


# None means no line, or a member without offsets (the exact-unbiased one)
NONE_IS_LEGAL = ("PlotSpec.fitted_line", "PositionFormula.rank_offset",
                 "PositionFormula.size_offset")


def _float_form(good):
    return np.asarray(good, dtype=float) if isinstance(good, list) else float(good)


def _same_value_forms(good):
    # every form of the legal value the rule takes for the float one
    if isinstance(good, list):
        forms = [np.asarray(good, dtype=float).tolist(), np.asarray(good, dtype=np.float32)]
        if np.asarray(good).dtype.kind == "i":
            forms += [good, np.asarray(good, dtype=np.int64)]
        return forms
    forms = [np.float64(good)]
    if float(good).is_integer():
        forms += [int(good), np.int64(good)]
    return forms


def _bad_types(case):
    good = CASES[case][1]
    bad = ["5", True, np.bool_(True)]
    if case not in NONE_IS_LEGAL:
        bad.append(None)
    if isinstance(good, list):
        arr = np.asarray(good)
        bad += [arr.astype(str), arr.astype(bool), np.asarray(good, dtype=object)]
    return bad


def _with(good, value):
    """The legal value with value in place of its first element (or of itself)."""
    if not isinstance(good, list):
        return value
    arr = np.asarray(good, dtype=float)
    arr.flat[0] = value
    return arr


def _result(x):
    # the number a case's call gives: the exceedance of an analysis or a
    # report, the values of an array
    if hasattr(x, "months"):
        return tuple(m.analysis.exceedance for m in x.months)
    if hasattr(x, "exceedance"):
        return x.exceedance
    return x


def _name_in(name, message):
    return re.search(r"(^|\s)%s must\b" % re.escape(name), message) is not None


@pytest.mark.parametrize("case", CASES)
def test_same_value_forms_give_the_float_result(case):
    call, good = CASES[case][:2]
    want = _bits(call(_float_form(good)))
    for form in _same_value_forms(good):
        assert _bits(call(form)) == want, form


@pytest.mark.parametrize("case", CASES)
def test_non_reals_raise_type_error_naming_the_argument(case):
    call, _, name, _ = CASES[case]
    for bad in _bad_types(case):
        with pytest.raises(TypeError) as exc:
            call(bad)
        assert _name_in(name, str(exc.value)), (bad, str(exc.value))


@pytest.mark.parametrize("case", CASES)
def test_refused_non_finite_values_raise_value_error_naming_the_argument(case):
    call, good, name, refused = CASES[case]
    for value in refused:
        with pytest.raises(ValueError) as exc:
            call(_with(good, value))
        assert _name_in(name, str(exc.value)), (value, str(exc.value))


@pytest.mark.parametrize("case", PASSED)
def test_passed_non_finite_values_give_their_result(case):
    call, good, _, refused = CASES[case]
    assert not set(PASSED[case]) & set(refused)
    for value, want in PASSED[case].items():
        if want is ValueError:
            with pytest.raises(ValueError):
                call(_with(good, value))
            continue
        got = np.atleast_1d(_result(call(_with(good, value))))
        if np.ndim(want) == 0:
            want = np.full(got.shape, want)
        assert np.array_equal(got, want, equal_nan=True), (value, got)


def test_formula_offsets_are_stored_as_floats():
    # a string offset once failed only inside numpy, when positions were computed
    f = PositionFormula("weibull", 0, np.int64(1))
    assert (type(f.rank_offset), type(f.size_offset)) == (float, float)
    assert PositionFormula("eupp", family="gumbel").rank_offset is None
    with pytest.raises(TypeError, match="rank_offset"):
        PositionFormula("hazen", "0.5", 0.0)


def test_the_helpers_hold_the_only_finiteness_checks():
    # a hand-written finiteness check of an argument calls math.isfinite,
    # math.isnan, np.isfinite or np.isnan; the rule's helpers hold those
    # of arguments, and the other sites check computed values
    allowed = {
        ("distributions.py", "_check_real"),  # the scalar rule
        ("distributions.py", "_check_reals"),  # the array rule
        ("distributions.py", "reduced_return_quantile"),  # its DomainError, T in (1, inf)
        ("svgplot.py", "emit_probability_paper"),  # the computed spans
        ("benchmark.py", "_kept"),  # a replicate's fit
        ("estimation.py", "mle_batch"),  # the iterated scale
    }
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute) and node.attr in ("isfinite", "isnan")
                        and getattr(node.value, "id", None) in ("math", "np")):
                    sites.add((path.name, func.name))
    assert sites == allowed
