"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass and reads one JSON object from the
last line of its standard output. A pass imports ppbench from the checkout's
``src/``, builds the workload's inputs from the seed (that is its set-up),
then runs its ops closed-loop: each op starts when the previous one has
returned. The interpreter is fresh, so every lru_cache in ppbench starts
cold, as it does for each ``ppbench`` command.

Arguments, all positional:
  root workload seed t_spawn deadline order trace span_path

t_spawn is the caller's perf_counter() just before it started this process
(CLOCK_MONOTONIC, shared by both processes), so set-up time counts the
interpreter's own start. order lists the indices of the set-up's op
arguments to run, each with an estimate of its seconds ("0:1.2,1:0"), or is
"-" for a pass that only sets up. With a deadline (a perf_counter() value;
0 for none), an op after the first starts only if its estimate says it ends
by the deadline. With trace = 1 the pass installs span wrappers after set-up
and, if span_path is not "-", writes its spans there.
"""

import json
import os
import resource
import sys
import threading
import traceback
import warnings
from time import perf_counter

ROOT, WORKLOAD, SEED, T_SPAWN, DEADLINE, ORDER, TRACE, SPAN_PATH = sys.argv[1:9]
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ppbench  # noqa: E402
from ppbench import (  # noqa: E402
    benchmark,
    casestudy,
    distributions,
    estimation,
    order_stats,
    positions,
    svgplot,
)

MC_CELLS = tuple((f, n) for f in ("gumbel", "normal") for n in (5, 10, 30))
EXACT_N = 5
EXACT_RETURN_PERIOD = 100.0

# Each workload: set-up (seed -> op arguments), the op (argument -> raw
# result, work units), and a JSON summary of the raw result, taken after the
# op's timer has stopped.


def _setup_mc_sweep(seed):
    return [benchmark.ExperimentConfig(f, n, seed=seed) for f, n in MC_CELLS]


def _op_mc_cell(cfg):
    report = benchmark.run_suite(cfg)
    return report, report.replicates


def _summary_mc_cell(report):
    rows = [
        [r.estimator, r.iqse, r.iqse_se, r.ifse, r.ifse_se, r.dse, r.combined, r.discarded]
        for r in report.rows
    ]
    return {"family": report.family, "n": report.n, "replicates": report.replicates, "rows": rows}


def _setup_casestudy(method):
    # the checksum-verified load is part of set-up; the op loads again, as
    # every `ppbench bradyseism` run does
    casestudy.load_dataset()
    return [method]


def _op_casestudy(method):
    report = casestudy.run_case_study(method)
    svgs = [svgplot.emit_probability_paper(casestudy.month_plot_spec(m)) for m in report.months]
    return (report, svgs), len(report.months)


def _summary_casestudy(raw):
    report, svgs = raw
    months = []
    for m in report.months:
        a = m.analysis
        months.append(
            [m.label, a.n, a.a_hat, a.b_hat, a.exceedance, a.mad_self.a2_modified,
             m.mad_cumulative.a2_modified, a.ridge]
        )
    return {"months": months, "svg": svgs}


def _setup_exact_gls(seed):
    samples = []
    for k, family in enumerate(("gumbel", "normal")):
        key = benchmark.replicate_key(seed, k)
        x = np.sort(distributions.sample(distributions.reduced(family), EXACT_N, key))
        samples.append((family, x))
    return samples


def _op_exact_gls(sample):
    # the quadrature caches are keyed by family, so each family's op is cold
    # in a fresh interpreter whichever runs first
    family, x = sample
    moments = order_stats.build_moments(family, EXACT_N, cov_mode="exact")
    fit = estimation.fit_gls(x, moments)
    q = estimation.predict_quantile(fit, EXACT_RETURN_PERIOD)
    return [(family, x, moments, fit, q)], 1


def _summary_exact_gls(fits):
    return {
        "return_period": EXACT_RETURN_PERIOD,
        "fits": [
            {
                "family": family,
                "x": x.tolist(),
                "y": moments.y.tolist(),
                "V": moments.V.tolist(),
                "ridge": moments.ridge,
                "a": fit.a_hat,
                "b": fit.b_hat,
                "x_T": q.x_T_hat,
            }
            for family, x, moments, fit, q in fits
        ]
    }


WORKLOADS = {
    "mc_sweep": (_setup_mc_sweep, _op_mc_cell, _summary_mc_cell),
    "casestudy_gls": (lambda seed: _setup_casestudy("gls"), _op_casestudy, _summary_casestudy),
    "exact_gls": (_setup_exact_gls, _op_exact_gls, _summary_exact_gls),
}

# (module, attribute, span name): every binding the program looks a traced
# function up through.
PATCHES = (
    (benchmark, "run_suite", "benchmark.run_suite"),
    (benchmark, "dse", "benchmark.dse"),
    (benchmark, "sample", "distributions.sample"),
    (benchmark, "reduced_cdf", "distributions.reduced_cdf"),
    (benchmark, "exact_mean", "order_stats.exact_mean"),
    (benchmark, "positions_for", "positions.positions_for"),
    (order_stats, "exact_mean", "order_stats.exact_mean"),
    (order_stats, "exact_cov", "order_stats.exact_cov"),
    (order_stats, "expansion_mean", "order_stats.expansion_mean"),
    (order_stats, "expansion_cov", "order_stats.expansion_cov"),
    (order_stats, "quantile_derivative", "distributions.quantile_derivative"),
    (order_stats, "build_moments", "order_stats.build_moments"),
    (positions, "expansion_mean", "order_stats.expansion_mean"),
    (positions, "proposed_positions", "positions.proposed_positions"),
    (casestudy, "run_case_study", "casestudy.run_case_study"),
    (casestudy, "load_dataset", "casestudy.load_dataset"),
    (casestudy, "build_moments", "order_stats.build_moments"),
    (casestudy, "proposed_positions", "positions.proposed_positions"),
    (casestudy, "fit_gls", "estimation.fit_gls"),
    (casestudy, "mad_case3", "gof.mad_case3"),
    (casestudy, "mad_known_params", "gof.mad_known_params"),
    (estimation, "fit_gls", "estimation.fit_gls"),
    (svgplot, "emit_probability_paper", "svgplot.emit_probability_paper"),
)


def _saturations(caught) -> int:
    return sum(
        1
        for w in caught
        if issubclass(w.category, RuntimeWarning) and "saturated" in str(w.message)
    )


def main() -> int:
    if not os.path.abspath(ppbench.__file__).startswith(os.path.abspath(SRC) + os.sep):
        print("ppbench imported from %s, not from %s" % (ppbench.__file__, SRC), file=sys.stderr)
        return 3
    setup, op, summary = WORKLOADS[WORKLOAD]
    args = setup(int(SEED))

    tracer = None
    if TRACE == "1":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        cache0 = order_stats.exact_mean.cache_info()
        tracer = Tracer()
        for module, attr, name in PATCHES:
            tracer.patch(module, attr, name)

    t_first = perf_counter()
    setup_s = t_first - float(T_SPAWN)
    deadline = float(DEADLINE)
    plan = []
    if ORDER != "-":
        for item in ORDER.split(","):
            index, est = item.split(":")
            plan.append((int(index), float(est)))
    results = []
    for index, est in plan:
        if results and deadline and perf_counter() + est > deadline:
            break
        # AD saturation warnings are counted per op, not printed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                raw, units = op(args[index])
                error = None
            except Exception:
                raw, units, error = None, 0, traceback.format_exc()
            t1 = perf_counter()
        result = {"i": index, "s": t1 - t0, "units": units, "error": error}
        if error is not None:
            print(error, file=sys.stderr)
        else:
            result["out"] = summary(raw)
            result["out"]["clipped"] = _saturations(caught)
        results.append(result)

    report = {
        "setup_s": setup_s,
        "ops": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": os.environ.get(benchmark.THREADS_ENV, "1"),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        },
    }
    if tracer is not None:
        from spans import summarize

        tracer.restore()
        cache1 = order_stats.exact_mean.cache_info()
        spans = tracer.spans()
        report["layers"] = summarize(spans, threading.main_thread().ident)
        report["spans"] = len(spans)
        report["exact_mean_cache"] = {
            "hits": cache1.hits - cache0.hits,
            "misses": cache1.misses - cache0.misses,
        }
        del spans
        if SPAN_PATH != "-":
            tracer.write(SPAN_PATH)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
