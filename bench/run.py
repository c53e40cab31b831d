"""ppbench benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc_sweep --seed 20140101 --seconds 40 --trace 0

A run is a sequence of passes. Each pass is a fresh interpreter
(passrun.py) that imports ppbench from ``src/``, builds the workload's
inputs from the seed and runs its ops closed-loop, one caller, each op sent
when the previous one returned. Passes start while the next one's set-up
and first op, estimated from earlier ones, still end within --seconds.

With --trace 0 the run prints the end-to-end metrics. With --trace 1 it
runs one untraced and one traced pass of the same inputs (plus an untraced
two-thread pass for mc_sweep) and prints the per-layer metrics, after
checking that every layer the workload exercises recorded calls, that traced
outputs equal untraced ones bit for bit, and that call counts repeat those
the first traced run of the same sources recorded in this checkout.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give the machine block,
each metric with its unit and sample count, and any problem found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402

# Wall-clock ceiling for a whole run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
# passes that only set up, run first, so that set-up has enough samples
# even where each pass takes a third of the run
SETUP_PASSES = 2

WORKLOADS = {
    # name: (PPBENCH_THREADS, work unit)
    # mc_sweep runs one pool thread: on the 2-vCPU reference machine two
    # threads were slower (6,641 vs 7,167 replicates/s) and spread wider over
    # runs; the traced run still times a two-thread pass for thread_speedup
    "mc_sweep": (1, "replicates"),
    "casestudy_gls": (1, "months"),
    "exact_gls": (1, "fits"),
}
# PPBENCH_THREADS of the traced run's extra mc_sweep pass
SPEEDUP_THREADS = 2
# op arguments each workload's set-up makes (passrun.py): the six cells, one
# case study, one sample per family
N_ARGS = {"mc_sweep": 6, "casestudy_gls": 1, "exact_gls": 2}

# Span names each workload must record at least one call of when traced.
EXERCISED = {
    "mc_sweep": (
        "benchmark.run_suite", "benchmark.dse", "distributions.sample",
        "distributions.reduced_cdf", "order_stats.exact_mean", "positions.positions_for",
        "positions.proposed_positions", "order_stats.expansion_mean",
        "distributions.quantile_derivative",
    ),
    "casestudy_gls": (
        "casestudy.run_case_study", "casestudy.load_dataset", "order_stats.build_moments",
        "order_stats.expansion_mean", "order_stats.expansion_cov",
        "distributions.quantile_derivative", "estimation.fit_gls", "gof.mad_case3",
        "gof.mad_known_params", "svgplot.emit_probability_paper",
    ),
    "exact_gls": (
        "order_stats.build_moments", "order_stats.exact_cov", "order_stats.exact_mean",
        "estimation.fit_gls",
    ),
}

# Per-layer metrics read straight from one span name: (metric, span, field).
SPAN_METRICS = [
    ("%s.%s" % (span, field), span, field)
    for span in (
        "distributions.sample", "distributions.reduced_cdf",
        "distributions.quantile_derivative", "benchmark.dse", "order_stats.exact_mean",
        "order_stats.expansion_mean", "order_stats.build_moments",
        "order_stats.expansion_cov", "order_stats.exact_cov",
        "positions.proposed_positions", "positions.positions_for",
        "estimation.fit_gls", "svgplot.emit_probability_paper", "casestudy.load_dataset",
    )
    for field in ("calls", "s")
] + [
    ("benchmark.run_suite.s", "benchmark.run_suite", "s"),
    ("benchmark.run_suite.self_s", "benchmark.run_suite", "self_s"),
    ("casestudy.run_case_study.s", "casestudy.run_case_study", "s"),
    ("casestudy.run_case_study.self_s", "casestudy.run_case_study", "self_s"),
]
COUNTED_SPANS = ("distributions.sample", "order_stats.expansion_cov",
                 "distributions.quantile_derivative")


class PassFailed(RuntimeError):
    """A pass process exited abnormally; the run cannot give a result."""


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # BLAS and OpenMP pools stay at one thread, so compute threads never
    # exceed PPBENCH_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PPBENCH_THREADS"] = str(threads)
    return env


def run_pass(workload, seed, threads, deadline=0.0, order="", trace=False, span_path="-",
             timeout=RUN_LIMIT_S) -> dict:
    """One pass in a fresh interpreter. order is passrun.py's op plan; empty
    runs every op argument once, "-" only sets up."""
    t_spawn = perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), ROOT, workload, str(seed),
           repr(t_spawn), repr(deadline), order or ",".join("%d:0" % k for k in
                                                           range(N_ARGS[workload])),
           "1" if trace else "0", span_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(threads), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise PassFailed("%s pass exceeded %.0f s" % (workload, timeout)) from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise PassFailed("%s pass exited with code %d" % (workload, proc.returncode))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    report = json.loads(proc.stdout.splitlines()[-1])
    for op in report["ops"]:
        op.setdefault("out", None)
    return report


def check_op(workload: str, seed: int, op: dict, golden: dict) -> list[str]:
    if op["error"] is not None:
        return ["op raised: " + op["error"].strip().splitlines()[-1]]
    out = op["out"]
    if workload == "mc_sweep":
        return checks.check_mc_cell(out, seed, golden)
    if workload == "exact_gls":
        return checks.check_exact_gls(out, seed, golden)
    return checks.check_casestudy(out, workload.split("_")[1], golden)


def _op_seconds(p: dict) -> float:
    return sum(op["s"] for op in p["ops"])


def _pass_throughput(p: dict) -> float:
    return sum(op["units"] for op in p["ops"]) / _op_seconds(p)


def measure(workload: str, seed: int, seconds: float) -> tuple[list, dict, dict]:
    """Set-up-only passes, then untraced passes while their next op still
    fits in the run; end-to-end metrics and the informational op_p50_s."""
    threads = WORKLOADS[workload][0]
    start = perf_counter()
    deadline = min(start + seconds, start + RUN_LIMIT_S)
    setups = [run_pass(workload, seed, threads, order="-",
                       timeout=start + RUN_LIMIT_S - perf_counter())["setup_s"]
              for _ in range(SETUP_PASSES)]
    passes = []
    times: dict[int, list] = {}  # op argument -> its op times, in order
    while True:
        now = perf_counter()
        # least-timed op arguments first, so a pass cut by the deadline adds
        # samples where there are fewest; an op with no time yet is estimated
        # at 0 s, so the first pass runs every op argument
        todo = sorted(range(N_ARGS[workload]), key=lambda k: (len(times.get(k, ())), k))
        est = {k: times[k][-1] if k in times else 0.0 for k in todo}
        if passes and now + statistics.median(setups) + est[todo[0]] > deadline:
            break
        order = ",".join("%d:%r" % (k, est[k]) for k in todo)
        p = run_pass(workload, seed, threads, deadline=deadline, order=order,
                     timeout=start + RUN_LIMIT_S - now)
        passes.append(p)
        setups.append(p["setup_s"])
        for op in p["ops"]:
            times.setdefault(op["i"], []).append(op["s"])
    units = {op["i"]: op["units"] for p in passes for op in p["ops"] if op["error"] is None}
    op_times = [s for k in times for s in times[k]]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        # a time average over the run: the work of one op per argument over
        # the sum of each argument's mean op time, so that a pass cut by the
        # deadline does not tilt the mix of cheap and dear op arguments
        "throughput": (sum(units.values()) / sum(statistics.fmean(times[k]) for k in units)
                       if units else 0.0, "units/s", len(op_times)),
        "peak_rss_mb": (max(p["maxrss_kb"] for p in passes) / 1024.0, "MB", len(passes)),
    }
    # printed beside the metrics but left out of the result object: op times
    # on a shared 2-core VM are bimodal, so their median jumps between modes
    # from run to run, more than any bound the benchmark may set
    return passes, metrics, {"op_p50_s": (statistics.median(op_times), "s", len(op_times))}


def _sources_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ppbench")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _counts_guard(workload: str, layers: dict) -> list[str]:
    """Call counts must repeat exactly between traced runs of the same sources."""
    counts = {name: layers.get(name, {}).get("calls", 0) for name in COUNTED_SPANS}
    path = os.path.join(OUT_DIR, "counts-%s-%s.json" % (workload, _sources_digest()))
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        if before != counts:
            return ["call counts %s differ from an earlier traced run %s" % (counts, before)]
        return []
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh)
    return []


def trace_run(workload: str, seed: int) -> tuple[list, dict, list[str]]:
    """Untraced and traced passes of the same inputs; per-layer metrics."""
    threads = WORKLOADS[workload][0]
    start = perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)

    def left():
        return start + RUN_LIMIT_S - perf_counter()

    plain = run_pass(workload, seed, threads, timeout=left())
    wide = None
    if workload == "mc_sweep":
        wide = run_pass(workload, seed, SPEEDUP_THREADS, timeout=left())
    span_path = os.path.join(OUT_DIR, "spans-%s.tsv.gz" % workload)
    traced = run_pass(workload, seed, threads, trace=True,
                      span_path=span_path, timeout=left())
    passes = [p for p in (plain, wide, traced) if p is not None]

    problems = []
    layers = traced["layers"]
    for name in EXERCISED[workload]:
        if layers.get(name, {}).get("calls", 0) < 1:
            problems.append("traced layer %s recorded no calls on %s" % (name, workload))
    if len(plain["ops"]) != len(traced["ops"]):
        problems.append("traced pass ran a different number of ops")
    for k, (a, b) in enumerate(zip(plain["ops"], traced["ops"])):
        if json.dumps(a["out"]) != json.dumps(b["out"]):
            problems.append("op %d: traced output differs from untraced output" % k)
    problems += _counts_guard(workload, layers)

    metrics = {}
    for metric, span, field in SPAN_METRICS:
        unit = "count" if field == "calls" else "s"
        metrics[metric] = (layers.get(span, {}).get(field, 0), unit, 1)
    mad = [layers.get(s, {}) for s in ("gof.mad_case3", "gof.mad_known_params")]
    metrics["gof.mad.calls"] = (sum(m.get("calls", 0) for m in mad), "count", 1)
    metrics["gof.mad.s"] = (sum(m.get("s", 0.0) for m in mad), "s", 1)
    cache = traced["exact_mean_cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics["order_stats.exact_mean.hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0, "ratio", 1)

    outs = [op["out"] for op in traced["ops"] if op["out"] is not None]
    metrics["gof.clipped"] = (sum(o["clipped"] for o in outs), "count", 1)
    metrics["svgplot.bytes"] = (sum(len(s) for o in outs for s in o.get("svg", ())),
                                "bytes", 1)
    ridges = [row[7] for o in outs for row in o.get("months", ())]
    ridges += [f["ridge"] for o in outs for f in o.get("fits", ())]
    metrics["order_stats.ridge_max"] = (max(ridges, default=0.0), "1", 1)
    discarded = sum(row[7] for o in outs for row in o.get("rows", ()))
    scored = sum(o["replicates"] * len(o["rows"]) for o in outs if "rows" in o)
    metrics["benchmark.discarded_ratio"] = (discarded / scored if scored else 0.0, "ratio", 1)
    metrics["benchmark.thread_speedup"] = (
        _op_seconds(plain) / _op_seconds(wide) if wide else 0.0, "ratio", 1)
    metrics["trace.overhead_throughput"] = (
        _pass_throughput(traced) - _pass_throughput(plain), "units/s", 1)
    metrics["trace.spans"] = (traced["spans"], "count", 1)
    return passes, metrics, problems


def machine_block(workload: str, passes: list, seed: int) -> dict:
    p = passes[0]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **p["versions"],
        "PPBENCH_THREADS": sorted({int(q["threads"]) for q in passes}),
        "OPENBLAS_NUM_THREADS": 1,
        "OMP_NUM_THREADS": 1,
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "ops": sum(len(q["ops"]) for q in passes),
        "work_unit": WORKLOADS[workload][1],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ppbench")):
        print("no ppbench sources under %s" % SRC, file=sys.stderr)
        return 2
    golden = checks.load_golden()
    try:
        if args.trace:
            passes, metrics, problems = trace_run(args.workload, args.seed)
            info = {}
        else:
            passes, metrics, info = measure(args.workload, args.seed, args.seconds)
            problems = []
    except PassFailed as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    attempted = failed = 0
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            found = check_op(args.workload, args.seed, op, golden)
            if found:
                failed += 1
                problems += found[:5]
    print("machine: " + json.dumps(machine_block(args.workload, passes, args.seed)))
    info["error_rate"] = (failed / attempted, "ratio", attempted)
    for name, (value, unit, count) in {**metrics, **info}.items():
        print("%-40s %16.6g %-8s n=%d" % (name, value, unit, count))
    for problem in problems:
        print("problem: " + problem)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
