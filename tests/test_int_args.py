"""One rule for integer arguments, checked at every entry point that takes one.

A count, level, index or key is an int or a numpy integer and is used as the
Python int of the same value. A bool (an int subclass), a float or a string
raises TypeError; a value out of range raises ValueError.
"""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from ppbench import (
    ExperimentConfig,
    build_moments,
    classical_positions,
    exact_cov,
    exact_mean,
    expansion_cov,
    expansion_mean,
    make_formula,
    positions_for,
    proposed_positions,
    quantile_derivative,
    reduced,
    replicate_key,
    run_suite,
    sample,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "ppbench"

# entry point and argument: (call with the argument v, a legal v, an illegal v)
CASES = {
    "quantile_derivative.order": (lambda v: quantile_derivative("gumbel", 0.3, v), 2, 5),
    "sample.n": (lambda v: sample(reduced("normal"), v, 7), 2, 0),
    "sample.key": (lambda v: sample(reduced("normal"), 3, v), 2, -1),
    "sample.keys": (lambda v: sample(reduced("normal"), 3, [1, v]), 2, 1 << 128),
    "expansion_mean.n": (lambda v: expansion_mean("normal", 1, v), 2, 0),
    "expansion_mean.k": (lambda v: expansion_mean("normal", 2, 5, v), 2, 5),
    "expansion_cov.n": (lambda v: expansion_cov("gumbel", 1, 2, v), 2, 0),
    "exact_mean.n": (lambda v: exact_mean("gumbel", 1, v), 2, 0),
    "exact_cov.n": (lambda v: exact_cov("normal", 1, 2, v), 2, 0),
    "build_moments.n": (lambda v: build_moments("normal", v), 2, 1),
    "build_moments.k.exact": (lambda v: build_moments("normal", 5, k=v, cov_mode="exact"), 2, 5),
    "PositionFormula.k": (lambda v: make_formula("eupp", family="gumbel", k=v), 2, 5),
    "PositionFormula.k.classical": (lambda v: make_formula("blom", k=v), 2, 5),
    "classical_positions.n": (lambda v: classical_positions("blom", v), 2, 0),
    "proposed_positions.n": (lambda v: proposed_positions("gumbel", v), 2, 0),
    "positions_for.n": (lambda v: positions_for("weibull", v), 2, 0),
    "replicate_key.seed": (lambda v: replicate_key(v, 3), 2, 1 << 64),
    "replicate_key.m": (lambda v: replicate_key(3, v), 2, -1),
    "ExperimentConfig.n": (lambda v: ExperimentConfig("gumbel", v), 3, 2),
    "ExperimentConfig.replicates": (lambda v: ExperimentConfig("gumbel", 5, replicates=v), 200, 99),
    "ExperimentConfig.seed": (lambda v: ExperimentConfig("gumbel", 5, seed=v), 2, -1),
}


def _bits(x):
    # a form that compares equal only for bitwise-equal values of one type
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (np.ndarray, np.generic)):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    return type(x).__name__, x.hex() if isinstance(x, float) else x


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", [np.int64, np.uint64])
def test_numpy_integers_give_the_python_int_result(case, kind):
    call, good, _ = CASES[case]
    assert _bits(call(kind(good))) == _bits(call(good))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("bad", [True, np.bool_(True), 2.0, "2"])
def test_non_integers_raise_type_error(case, bad):
    with pytest.raises(TypeError):
        CASES[case][0](bad)


@pytest.mark.parametrize("case", CASES)
def test_out_of_range_raises_value_error(case):
    call, _, bad = CASES[case]
    with pytest.raises(ValueError):
        call(bad)
    if -(1 << 63) <= bad < 1 << 63:
        with pytest.raises(ValueError):
            call(np.int64(bad))


def test_config_of_numpy_integers_reports_json():
    cfg = ExperimentConfig("gumbel", np.int64(5), replicates=np.uint64(100), seed=np.int32(3),
                           formulas=["weibull"], include_mle=False)
    assert (type(cfg.n), type(cfg.replicates), type(cfg.seed)) == (int, int, int)
    json.dumps(run_suite(cfg).to_payload())


def test_check_int_is_the_only_scalar_integer_check():
    # a bool passes isinstance(x, int), so a hand-written integer check
    # tests for bool; this finds every such test under src/
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
                continue
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            if names & {"bool", "bool_"}:
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                sites.append((path.name, getattr(scope, "name", "<module>")))
    assert sites == [("distributions.py", "_check_int")]
