import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ppbench import (
    bradyseism_data, build_moments, classical_positions, fit_gls, reduced, run_case_study,
    sample,
)
from ppbench.cli import main

try:
    from importlib import resources

    _SCHEMA = json.loads(
        resources.files("ppbench").joinpath("schemas/report-v1.json").read_text()
    )
except Exception:  # pragma: no cover
    _SCHEMA = None


def _validate(doc):
    assert _SCHEMA is not None
    jsonschema.validate(doc, _SCHEMA)


@pytest.fixture
def values_csv(tmp_path):
    path = tmp_path / "vals.csv"
    x = sample(reduced("gumbel"), 20, 12)
    lines = ["id,value"] + ["%d,%.6f" % (i, v) for i, v in enumerate(x)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "positions" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_positions_csv_golden(capsys):
    assert main(["positions", "--n", "5", "--formula", "blom"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "rank,i,p"
    # ranks count down from the largest observation
    ref = classical_positions("blom", 5)
    rows = [line.split(",") for line in out[1:]]
    assert [r[0] for r in rows] == ["5", "4", "3", "2", "1"]
    assert [r[1] for r in rows] == ["1", "2", "3", "4", "5"]
    for r, p in zip(rows, ref):
        assert float(r[2]) == pytest.approx(p, rel=1e-12)
    assert rows[0][2] == "0.119047619048"[:len(rows[0][2])] or float(rows[0][2]) == pytest.approx(0.11904761904761904)


def test_positions_eupp_needs_family(capsys):
    assert main(["positions", "--n", "5"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["positions", "--n", "5", "--formula", "blom"],
    ["fit", "--family", "gumbel", "--method", "gls", "--cov-mode", "exact"],
], ids=["classical-positions", "exact-gls"])
def test_truncation_level_out_of_range_exits_2(argv, values_csv, capsys):
    # neither command reads k, but both accept it, so both check it
    if argv[0] == "fit":
        argv = argv + ["--input", values_csv]
    assert main(argv + ["--k", "4"]) == 0
    capsys.readouterr()
    assert main(argv + ["--k", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "truncation level k must be an int in [0, 4]" in captured.err


def test_positions_erto_lepore_single_observation(capsys):
    assert main(["positions", "--n", "1", "--formula", "erto_lepore"]) == 2
    err = capsys.readouterr().err
    assert "erto_lepore_2013" in err and "n >= 2" in err


def test_positions_eupp_with_family(capsys):
    assert main(["positions", "--n", "5", "--family", "gumbel"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6


def test_positions_to_file(tmp_path, capsys):
    out = tmp_path / "pos.csv"
    assert main(["positions", "--n", "4", "--formula", "weibull", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "rank,i,p"
    assert "0.2" in text


def test_fit_json_envelope(values_csv, capsys):
    assert main(["fit", "--input", values_csv, "--family", "gumbel"]) == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(doc)
    assert doc["schema"] == "report-v1"
    assert doc["kind"] == "fit"
    payload = doc["payload"]
    assert payload["method"] == "ols"
    assert payload["family"] == "gumbel"
    assert payload["n"] == 20
    assert payload["b_hat"] > 0


def test_fit_methods_agree_roughly(values_csv, capsys):
    results = {}
    for method in ("ols", "gls", "mle"):
        assert main(["fit", "--input", values_csv, "--family", "gumbel",
                     "--method", method]) == 0
        results[method] = json.loads(capsys.readouterr().out)["payload"]
    for method, p in results.items():
        assert p["method"] == method
    assert results["ols"]["a_hat"] == pytest.approx(results["mle"]["a_hat"], abs=0.5)


def _values_file(tmp_path, n):
    path = tmp_path / ("vals%d.csv" % n)
    x = sample(reduced("gumbel"), n, 7)
    path.write_text("value\n" + "".join("%r\n" % float(v) for v in x))
    return str(path), np.sort(x)


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_fit_gls_exact_matches_library(tmp_path, capsys, family):
    path, x = _values_file(tmp_path, 5)
    assert main(["fit", "--input", path, "--family", family, "--method", "gls",
                 "--cov-mode", "exact"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    want = fit_gls(x, build_moments(family, 5, cov_mode="exact"))
    assert (payload["a_hat"], payload["b_hat"]) == (want.a_hat, want.b_hat)
    # exact moments have no truncation level
    assert payload["formula"] == "expected order statistics (exact)"


def test_fit_gls_exact_size_guard(tmp_path, capsys):
    # one cost cap, N <= 201; below it the joint table's own error check
    # decides, and it passes at N = 20 for both families but not at N = 30
    for family in ("gumbel", "normal"):
        argv = ["fit", "--family", family, "--method", "gls", "--cov-mode", "exact"]
        for n in (11, 20):
            path, _ = _values_file(tmp_path, n)
            assert main(argv + ["--input", path]) == 0
            assert json.loads(capsys.readouterr().out)["payload"]["n"] == n
        for n, message in ((30, "joint-moment quadrature error"),
                           (202, "limited to N <= 201")):
            path, _ = _values_file(tmp_path, n)
            assert main(argv + ["--input", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err


def test_fit_missing_value_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["fit", "--input", str(bad), "--family", "gumbel"]) == 2
    assert "error:" in capsys.readouterr().err


def test_quantile_flag_validation(capsys):
    base = ["quantile", "--family", "gumbel", "--a", "2", "--b", "0.5"]
    assert main(base) == 2
    capsys.readouterr()
    assert main(base + ["--return-period", "100", "--f-level", "0.99"]) == 2
    capsys.readouterr()
    assert main(base + ["--return-period", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(doc)
    assert doc["kind"] == "quantile"
    z = -np.log(-np.log(0.99))
    assert doc["payload"]["x"] == pytest.approx(2 + 0.5 * z, rel=1e-10)


def test_quantile_return_period_far_tail(capsys):
    base = ["quantile", "--family", "gumbel", "--a", "0", "--b", "1"]
    assert main(base + ["--return-period", "1e17"]) == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(doc)
    # -log(-log1p(-1e-17)) = 17 log 10, to within 1e-17
    assert doc["payload"]["x"] == pytest.approx(17 * np.log(10.0), rel=1e-14)
    assert main(["quantile", "--family", "lognormal", "--a", "0", "--b", "1",
                 "--c", "1", "--return-period", "1e20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["x"] > 1.0 + np.exp(9.0)
    for bad in ("1", "0", "-5", "inf"):
        assert main(base + ["--return-period", bad]) == 2
        assert "return period" in capsys.readouterr().err


def test_fit_rejects_lognormal_family(values_csv, capsys):
    for name in ("lognormal", "lognormal3", "log-normal"):
        for method in ("ols", "gls", "mle"):
            assert main(["fit", "--input", values_csv, "--family", name,
                         "--method", method]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "ppbench bradyseism" in captured.err


def test_quantile_f_level_equivalence(capsys):
    base = ["quantile", "--family", "normal", "--a", "0", "--b", "1"]
    assert main(base + ["--f-level", "0.99"]) == 0
    via_f = json.loads(capsys.readouterr().out)["payload"]["x"]
    assert main(base + ["--return-period", "100"]) == 0
    via_t = json.loads(capsys.readouterr().out)["payload"]["x"]
    assert via_f == pytest.approx(via_t, rel=1e-12)


def test_benchmark_json(capsys):
    assert main(["benchmark", "--family", "gumbel", "--n", "5",
                 "--replicates", "200", "--formulas", "weibull,blom"]) == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(doc)
    assert doc["kind"] == "benchmark"
    rows = doc["payload"]["rows"]
    assert [r["estimator"] for r in rows][0] == "mle"
    assert len(rows) == 3


def test_benchmark_no_mle(capsys):
    assert main(["benchmark", "--family", "gumbel", "--n", "5",
                 "--replicates", "200", "--formulas", "weibull", "--no-mle"]) == 0
    rows = json.loads(capsys.readouterr().out)["payload"]["rows"]
    assert [r["estimator"] for r in rows] == ["weibull"]


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_benchmark_seed_out_of_range_exits_2(capsys, seed):
    # the seed is reported as given, so a seed that is not its own stream fails
    argv = ["benchmark", "--family", "gumbel", "--n", "5", "--replicates", "200",
            "--formulas", "weibull", "--seed", seed]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be an int in [0, 2**64)" in captured.err


def test_benchmark_beyond_exact_means_exits_2_before_sampling(capsys, monkeypatch):
    # DSE reads the exact means, capped at N <= 201; the cell fails before
    # the Monte Carlo draws its first chunk
    from ppbench import benchmark

    calls = []

    def counting(d, n, keys):
        calls.append(len(keys))
        return sample(d, n, keys)

    monkeypatch.setattr(benchmark, "sample", counting)
    assert main(["benchmark", "--family", "normal", "--n", "202",
                 "--replicates", "100"]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exact moments are limited to N <= 201" in captured.err


def test_benchmark_empty_estimator_set_exits_2(capsys, monkeypatch):
    # no formula and no MLE baseline would report no row, which report-v1
    # rejects; the cell fails before its first draw
    from ppbench import benchmark

    calls = []
    monkeypatch.setattr(benchmark, "sample", lambda *args: calls.append(args))
    assert main(["benchmark", "--family", "gumbel", "--n", "5", "--formulas", ",",
                 "--no-mle", "--replicates", "100"]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no estimator to benchmark" in captured.err


def test_benchmark_deterministic(capsys):
    argv = ["benchmark", "--family", "normal", "--n", "5",
            "--replicates", "200", "--formulas", "hazen"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_gof_json(values_csv, tmp_path, capsys):
    path = tmp_path / "norm.csv"
    x = np.random.default_rng(3).normal(10.0, 2.0, 60)
    path.write_text("value\n" + "\n".join("%.6f" % v for v in x) + "\n")
    assert main(["gof", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(doc)
    assert doc["kind"] == "gof"
    assert doc["payload"]["comparison"] in ("pass_5pct", "pass_2_5pct", "fail")
    assert doc["payload"]["n_used"] == 60


def test_gof_fixed_params_and_log_threshold(tmp_path, capsys):
    path = tmp_path / "mag.csv"
    mags = 1.0 + np.random.default_rng(4).lognormal(0.3, 0.4, 80)
    path.write_text("value\n" + "\n".join("%.6f" % v for v in mags) + "\n")
    assert main(["gof", "--input", str(path), "--log-threshold", "1.0",
                 "--params", "fixed:0.3,0.4"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["payload"]["n_used"] == 80
    assert main(["gof", "--input", str(path), "--params", "fixed:bad"]) == 2


@pytest.mark.parametrize("argv", [
    ["gof", "--params", "fixed:nan,1"],
    ["gof", "--params", "fixed:1,inf"],
    ["quantile", "--family", "lognormal3", "--a", "0", "--b", "1", "--c", "nan",
     "--f-level", "0.5"],
    ["bradyseism", "--level", "nan"],
    ["bradyseism", "--c", "nan"],
    ["bradyseism", "--c", "inf"],
])
def test_non_finite_parameters_exit_2(argv, values_csv, capsys):
    # each once reached the report as NaN (not valid JSON) or as a wrong value,
    # or failed with an error that did not name it
    if argv[0] == "gof":
        argv = argv + ["--input", values_csv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("flag,shown", [
    ("--log-threshold=nan", "nan"), ("--log-threshold=inf", "inf"),
    ("--log-threshold=-inf", "-inf"),
])
def test_gof_non_finite_log_threshold_exits_2(flag, shown, values_csv, capsys):
    # NaN compares false with every value, so the filter once dropped them
    # all with a note naming "the threshold nan", then failed on the size
    assert main(["gof", "--input", values_csv, flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --log-threshold must be finite, got %s\n" % shown


@pytest.mark.parametrize("argv,message", [
    (["--level", "nan"], "the exceedance level must not be NaN"),
    (["--c", "2.5"], "month I has 0 magnitudes above the threshold 2.5; need at least 5"),
])
def test_bradyseism_errors_name_the_input(argv, message, capsys):
    assert main(["bradyseism"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_gof_log_threshold_matches_the_case_study(tmp_path, capsys):
    path = tmp_path / "viii.csv"
    path.write_text("value\n" + "".join("%r\n" % v for v in bradyseism_data.MAGNITUDES["VIII"]))
    assert main(["gof", "--input", str(path), "--log-threshold", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    month = run_case_study().month("VIII").analysis
    assert doc["payload"]["n_used"] == month.n
    assert doc["payload"]["a2_modified"] == month.mad_self.a2_modified


def test_bradyseism_json_and_plots(tmp_path, capsys):
    plots = tmp_path / "charts"
    assert main(["bradyseism", "--plots", str(plots)]) == 0
    doc = json.loads(capsys.readouterr().out)
    _validate(doc)
    assert doc["kind"] == "bradyseism"
    months = doc["payload"]["months"]
    assert len(months) == 13
    assert months[0]["label"] == "I"
    svgs = sorted(p.name for p in plots.iterdir())
    assert len(svgs) == 13
    assert "month_I.svg" in svgs


def test_plot_command(values_csv, tmp_path, capsys):
    out = tmp_path / "chart.svg"
    assert main(["plot", "--input", values_csv, "--family", "gumbel",
                 "--out", str(out), "--title", "demo"]) == 0
    svg = out.read_text()
    assert svg.count('class="marker"') == 20
    assert 'class="fit"' in svg
    assert main(["plot", "--input", values_csv, "--family", "gumbel",
                 "--out", str(out), "--no-fit"]) == 0
    assert 'class="fit"' not in out.read_text()


def test_plot_of_values_one_float_spacing_apart_finishes(tmp_path):
    # the value axis spans 2 at 1e16, where the float spacing is 2, so its
    # tick step of 0.5 left the tick loop standing while its list grew; in a
    # child process the data limit turns that growth into exit 2 and the
    # timeout is the last guard, so a hang fails here instead of stalling
    data, out = tmp_path / "vals.csv", tmp_path / "chart.svg"
    data.write_text("value\n" + "1e16\n" * 2 + "1.0000000000000002e16\n" * 3)
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_DATA, (1 << 29, 1 << 29)); "
            "from ppbench.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["plot", "--no-fit", "--family", "normal", "--input", str(data), "--out", str(out)]
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert out.read_text().count('class="marker"') == 5


def test_plot_rejects_lognormal_family(values_csv, tmp_path, capsys):
    out = tmp_path / "chart.svg"
    for name in ("lognormal", "lognormal3", "log-normal", "log-normal3"):
        for extra in ([], ["--no-fit"], ["--method", "gls"]):
            assert main(["plot", "--input", values_csv, "--family", name,
                         "--out", str(out)] + extra) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "plot does not support the log family" in captured.err
    assert not out.exists()


def test_computation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("value\n" + "1.0\n" * 10)
    assert main(["fit", "--input", str(path), "--family", "gumbel",
                 "--method", "mle"]) == 2
    assert "error:" in capsys.readouterr().err
