import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ppbench import (
    DEFAULT_SEED,
    BenchmarkReport,
    ExperimentConfig,
    default_f_grid,
    dse,
    make_formula,
    positions_for,
    reduced,
    reduced_cdf,
    reduced_quantile,
    replicate_key,
    run_suite,
    sample,
)
from ppbench import benchmark
from ppbench.benchmark import (
    MLE_KEY,
    THREADS_ENV,
    _trapezoid_weights,
    _worker_count,
)

FAST = dict(replicates=400, seed=DEFAULT_SEED)


def _small_cfg(**kw):
    base = dict(family="gumbel", n=5, formulas=["weibull", "blom"], **FAST)
    base.update(kw)
    return ExperimentConfig(**base)


def test_replicate_key_layout():
    assert replicate_key(0, 0) == 0
    assert replicate_key(0, 7) == 7
    assert replicate_key(1, 0) == 1 << 64
    # distinct (seed, replicate) pairs never collide
    seen = {replicate_key(s, m) for s in (0, 1, 20140101) for m in range(50)}
    assert len(seen) == 150
    assert replicate_key((1 << 64) - 1, (1 << 64) - 1) == (1 << 128) - 1


def test_replicate_key_rejects_out_of_range():
    # wrapping either half would run into another (seed, m) pair's stream
    for seed, m in ((0, -1), (0, 1 << 64), (-5, 0), (1 << 64, 0)):
        with pytest.raises(ValueError):
            replicate_key(seed, m)


def test_replicate_key_rejects_non_integers():
    # int() would truncate these onto another pair's stream: 2.5 -> 2, True -> 1
    for seed, m in ((2.5, 0), (2, 7.9), (True, 3), (1, np.True_), ("2", 0), (2, None)):
        with pytest.raises(TypeError):
            replicate_key(seed, m)
    # numpy integers are ints and name the same stream
    assert replicate_key(np.int64(2), np.uint64(7)) == replicate_key(2, 7)
    assert type(replicate_key(np.int64(2), np.uint64(7))) is int


def test_default_grid_shape():
    g = default_f_grid()
    assert g.shape == (399,)
    assert g[0] == pytest.approx(0.0025)
    assert g[-1] == pytest.approx(0.9975)
    assert np.allclose(np.diff(g), g[1] - g[0])


def test_trapezoid_weights_integrate_line_exactly():
    x = np.array([0.0, 0.25, 0.3, 1.0])
    w = _trapezoid_weights(x)
    assert w.sum() == pytest.approx(1.0)
    assert (2 * x + 1) @ w == pytest.approx(2.0)  # integral of 2x+1 on [0,1]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(family="lognormal3", n=5)
    with pytest.raises(ValueError):
        ExperimentConfig(family="gumbel", n=2)
    with pytest.raises(ValueError):
        ExperimentConfig(family="gumbel", n=5, replicates=99)
    # a float count would otherwise only fail later, inside range()
    for bad in (200.0, np.float64(200.0), "200", True):
        with pytest.raises(TypeError):
            ExperimentConfig(family="gumbel", n=5, replicates=bad)
    with pytest.raises(ValueError):
        ExperimentConfig(family="gumbel", n=5, formulas=["nope"])
    # a string is a sequence of characters: "blom" once read as formula "b"
    for bad in ("blom", b"blom"):
        with pytest.raises(TypeError, match="formulas"):
            ExperimentConfig(family="gumbel", n=5, formulas=bad)


def test_config_rejects_an_empty_estimator_set():
    # the report would hold no row, which report-v1 rejects (rows has minItems 1)
    with pytest.raises(ValueError, match="no estimator"):
        ExperimentConfig(family="gumbel", n=5, formulas=[], include_mle=False)
    assert ExperimentConfig(family="gumbel", n=5, formulas=[]).formulas == ()
    cfg = ExperimentConfig(family="gumbel", n=5, formulas=["weibull"], include_mle=False)
    assert tuple(f.label for f in cfg.formulas) == ("weibull",)


def test_config_seed_names_its_stream():
    # a seed is the upper half of every replicate key, so it is never reduced
    for bad in (-5, -1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(family="gumbel", n=5, seed=bad)
    for bad in (2.0, "7", True, None):
        with pytest.raises(TypeError, match="seed"):
            ExperimentConfig(family="gumbel", n=5, seed=bad)
    assert ExperimentConfig(family="gumbel", n=5, seed=(1 << 64) - 1).seed == (1 << 64) - 1
    assert ExperimentConfig(family="gumbel", n=5, seed=0).seed == 0


def test_config_rejects_exact_unbiased_formula_of_another_family():
    # caught before any replicate is simulated, not by dse after the run
    with pytest.raises(ValueError, match="built for family 'normal'"):
        ExperimentConfig("gumbel", 30, formulas=[make_formula("eupp", family="normal")])
    cfg = ExperimentConfig("gumbel", 30, formulas=[make_formula("eupp", family="ev1")])
    assert tuple(f.label for f in cfg.formulas) == ("eupp(gumbel, k=4)",)


def test_config_default_formula_roster():
    cfg = ExperimentConfig(family="normal", n=5, replicates=100)
    keys = tuple(f.label for f in cfg.formulas)
    assert len(keys) == 14
    assert keys[0].startswith("eupp(normal")
    assert "weibull" in keys


def test_run_suite_shape_and_mle_row():
    rep = run_suite(_small_cfg())
    assert isinstance(rep, BenchmarkReport)
    assert [r.estimator for r in rep.rows][0] == MLE_KEY
    assert len(rep.rows) == 3
    mle = rep.row(MLE_KEY)
    # the distribution-specific index is undefined for a non-positional fit
    assert mle.dse is None and mle.combined is None
    assert mle.iqse > 0 and mle.ifse > 0
    wb = rep.row("weibull")
    assert wb.dse == pytest.approx(dse("gumbel", 5, "weibull"), abs=1e-12)
    assert wb.combined == pytest.approx((wb.iqse + wb.ifse + wb.dse) / 3, rel=1e-12)
    assert wb.discarded == 0


def test_run_suite_deterministic_across_calls():
    r1 = run_suite(_small_cfg())
    r2 = run_suite(_small_cfg())
    for a, b in zip(r1.rows, r2.rows):
        assert a == b


def test_run_suite_deterministic_across_thread_counts(monkeypatch):
    # chunks are merged in chunk order whichever thread scored them; the
    # JSON text holds each float's repr, so equal text is equal bits in
    # every field of every row
    payloads = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv(THREADS_ENV, threads)
        payloads.append(json.dumps(run_suite(_small_cfg(replicates=3000)).to_payload()))
    assert payloads[1] == payloads[0] and payloads[2] == payloads[0]


def test_sorted_samples_chunk_tail_equals_per_key_rows():
    # a tail chunk: nonzero start, a count that is not a multiple of 1024
    start, count, n = 2048, 333, 7
    X = benchmark._sorted_samples("normal", DEFAULT_SEED, start, count, n)
    rows = [np.sort(sample(reduced("normal"), n, replicate_key(DEFAULT_SEED, m)))
            for m in range(start, start + count)]
    assert np.array_equal(X, np.array(rows))


def test_run_suite_samples_through_module_attribute_once_per_chunk(monkeypatch):
    # tracing wraps benchmark.sample; a rebinding that bypasses it hides
    # the sampling layer from the trace
    ref = run_suite(_small_cfg(replicates=3000))
    calls = []

    def counting(d, n, keys):
        calls.append(len(keys))
        return sample(d, n, keys)

    monkeypatch.setattr(benchmark, "sample", counting)
    wrapped = run_suite(_small_cfg(replicates=3000))
    assert sorted(calls) == [952, 1024, 1024]
    assert wrapped.rows == ref.rows


def test_equal_designs_are_fitted_and_scored_once(monkeypatch):
    # tukey and kerman share offsets (1/3, 1/3), so their designs are
    # bitwise equal: one OLS fit and one IQSE/IFSE pass per chunk serve both
    fits, scores = [], []
    ols_batch, ifse_values = benchmark.ols_batch, benchmark._ifse_values

    def counting_ols(X, z):
        fits.append(len(X))
        return ols_batch(X, z)

    def counting_ifse(a, b, *args):
        scores.append(a.size)
        return ifse_values(a, b, *args)

    monkeypatch.setattr(benchmark, "ols_batch", counting_ols)
    monkeypatch.setattr(benchmark, "_ifse_values", counting_ifse)
    cfg = ExperimentConfig(family="gumbel", n=5, replicates=1500)
    rep = run_suite(cfg)
    monkeypatch.undo()
    assert sorted(fits) == [476] * 13 + [1024] * 13  # 14 formulas, 2 chunks
    # per chunk, 13 distinct designs and the MLE baseline
    assert sorted(scores) == [476] * 14 + [1024] * 14
    assert [r.estimator for r in rep.rows] == [MLE_KEY] + [f.label for f in cfg.formulas]
    for label in ("tukey", "kerman"):
        alone = run_suite(ExperimentConfig(family="gumbel", n=5, replicates=1500,
                                           formulas=[label]))
        assert rep.row(label) == alone.row(label)
        assert rep.row(MLE_KEY) == alone.row(MLE_KEY)


@pytest.mark.parametrize("block", [64, 4096])
def test_ifse_rows_independent_of_block_size(monkeypatch, block):
    # 1000 replicates: 64 leaves a partial last block, 4096 is one block
    ref = run_suite(_small_cfg(replicates=1000))
    monkeypatch.setattr(benchmark, "_IFSE_BLOCK", block)
    assert run_suite(_small_cfg(replicates=1000)).rows == ref.rows


def _ifse_inputs(family):
    grid = default_f_grid()
    return grid, reduced_quantile(family, grid), _trapezoid_weights(grid)


def _synthetic_params(kept_rows):
    # the kept rows of fits spread like small-n OLS fits, a few steep ones
    # whose reduced values reach z = -800 (the Gumbel cdf's overflow side),
    # where every fifth row was discarded
    rng = np.random.default_rng(7)
    discarded = kept_rows // 4
    kept = np.ones(kept_rows + discarded, dtype=bool)
    kept[4:5 * discarded:5] = False
    a = rng.normal(0.0, 0.4, kept.size)
    b = rng.uniform(0.6, 1.5, kept.size)
    a[:6], b[:6] = 8.0, 0.01
    return a[kept], b[kept]


def _two_step_ifse(a, b, family, grid, zg, w):
    # the expression IFSE evaluated before it ran in reused buffers
    a, b = a[:, None], b[:, None]
    with np.errstate(over="ignore"):  # (zg - a) / b may pass the float range
        return ((reduced_cdf(family, (zg - a) / b) - grid) ** 2) @ w


def test_kept_drops_failed_fits():
    a = np.array([0.1, np.nan, 0.2, 0.3, np.inf, 0.4])
    b = np.array([1.0, 1.0, -0.5, 0.0, 1.0, 2.0])
    ka, kb = benchmark._kept(a, b)
    assert np.array_equal(ka, [0.1, 0.4]) and np.array_equal(kb, [1.0, 2.0])
    converged = np.array([True, True, True, True, True, False])
    ka, kb = benchmark._kept(a, b, converged)
    assert np.array_equal(ka, [0.1]) and np.array_equal(kb, [1.0])


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_ifse_values_match_allocating_expression(family):
    grid, zg, w = _ifse_inputs(family)
    kept_rows = 2 * benchmark._IFSE_BLOCK + 37  # a partial last block
    a, b = _synthetic_params(kept_rows)
    assert a.size == b.size == kept_rows
    got = benchmark._ifse_values(a, b, family, grid, zg, w)
    # the rank-2 product rounds Z once per node where the two steps round
    # twice: each row moves by about one rounding (3.0e-14 at most on 5,000
    # such rows)
    want = _two_step_ifse(a, b, family, grid, zg, w)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    # and exactly the rank-2 form, [-a/b, 1/b] @ [1; zg], over all rows at once
    Z = np.column_stack((-a / b, 1.0 / b)) @ np.stack((np.ones_like(zg), zg))
    assert np.array_equal(got, ((reduced_cdf(family, Z) - grid) ** 2) @ w)
    empty = benchmark._ifse_values(a[:0], b[:0], family, grid, zg, w)
    assert empty.shape == (0,)


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_ifse_values_leave_their_inputs_unchanged(family):
    # the floored slope and the clipped shift are new arrays, not the
    # caller's kept rows rewritten in place
    grid, zg, w = _ifse_inputs(family)
    a, b = _synthetic_params(2 * benchmark._IFSE_BLOCK + 37)
    b[:3] = 1e-310  # floored
    a[3:6] = 1e300  # a/b clipped
    a0, b0 = a.copy(), b.copy()
    benchmark._ifse_values(a, b, family, grid, zg, w)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_ifse_values_extreme_slopes_stay_finite_and_match(family):
    # kept rows whose 1/b or a/b leave the float range: a subnormal 1/b
    # would be inf, and inf * 0 at the normal grid's zero node a NaN
    grid, zg, w = _ifse_inputs(family)
    rng = np.random.default_rng(11)
    a = rng.normal(0.0, 0.4, 11)
    b = rng.uniform(0.6, 1.5, 11)
    b[:3] = 1e-300
    b[3:6] = 1e-310  # subnormal
    a = np.append(a, [0.0, 0.0, 1e10, -1e10, 1e300, -1e300])  # the last four: |a|/b > 1e308
    b = np.append(b, [1e-300, 1e-310, 1e-300, 1e-300, 1e-10, 1e-10])
    assert 0.0 < b[3] < np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = benchmark._ifse_values(a, b, family, grid, zg, w)
    assert np.all(np.isfinite(got))
    want = _two_step_ifse(a, b, family, grid, zg, w)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("family", ["gumbel", "normal"])
def test_ifse_values_memory_stays_within_one_block_buffer(family):
    # the allocating expression holds two or three block-sized temporaries
    # at once (2.64 MB on 5,000 rows at 256-row blocks, 1.41 MB at 128, 0.80
    # MB at 64); one buffer plus the slope, shift and result vectors and
    # numpy's iterator buffers (about 129 KB with numpy 2.4) stays below
    # the bound at any block size
    grid, zg, w = _ifse_inputs(family)
    rows = 5000
    a, b = _synthetic_params(rows)
    tracemalloc.start()
    try:
        benchmark._ifse_values(a, b, family, grid, zg, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_buffer = min(benchmark._IFSE_BLOCK, rows) * zg.size * 8
    assert peak < block_buffer + 3 * rows * 8 + (256 << 10)


@pytest.mark.parametrize("family, n, bound_mb", [("gumbel", 5, 1.0), ("normal", 30, 1.5)])
def test_run_suite_memory_is_one_chunk_at_any_replicate_count(monkeypatch, family, n,
                                                              bound_mb):
    # each chunk is drawn, fitted and scored before the next, and only its
    # (count, mean, M2) triples are kept. Measured peaks: 0.57 MB (gumbel,
    # n = 5) and 1.03 MB (normal, n = 30) at both M, against 4.6 MB at 1e4
    # and 13.8 MB at 3e4 when every replicate's fit was kept for scoring
    monkeypatch.setenv(THREADS_ENV, "1")
    run_suite(ExperimentConfig(family, n, replicates=100))  # fill the caches
    peaks = []
    for M in (10_000, 30_000):
        tracemalloc.start()
        try:
            run_suite(ExperimentConfig(family, n, replicates=M))
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert max(peaks) < bound_mb
    # measured growth from 1e4 to 3e4: -0.003 MB
    assert peaks[1] - peaks[0] < 0.1


def test_chunk_moments_merge_to_mean_and_se():
    # uneven chunks, empty ones among them, merged in order as run_suite
    # merges them; skewed values, as IQSE and IFSE are. Measured: mean
    # within 1.9e-16 and SE within rounding of numpy's over five seeds
    rng = np.random.default_rng(3)
    vals = rng.gamma(0.5, 0.3, 10_000)
    cuts = [0, 0, 1, 700, 700, 1724, 5000, 9999, 10_000, 10_000]
    acc = benchmark._NO_VALUES
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        acc = benchmark._merge(acc, benchmark._moments(vals[lo:hi]))
    assert acc[0] == vals.size
    mean, se = benchmark._mean_se(acc)
    assert mean == pytest.approx(np.mean(vals), rel=1e-15, abs=0.0)
    assert se == pytest.approx(np.std(vals, ddof=1) / math.sqrt(vals.size), rel=1e-15, abs=0.0)
    # merging into nothing, or nothing in, leaves a triple unchanged
    part = benchmark._moments(vals[:700])
    assert benchmark._merge(benchmark._NO_VALUES, part) == part
    assert benchmark._merge(part, benchmark._NO_VALUES) == part
    # one value has no spread, and no value has no mean
    one = benchmark._merge(benchmark._moments(vals[:0]), benchmark._moments(vals[:1]))
    assert benchmark._mean_se(one) == (vals[0], None)
    assert benchmark._mean_se(benchmark._moments(vals[:0])) == (None, None)


def test_ifse_evaluates_cdf_through_module_attribute_once_per_block(monkeypatch):
    # tracing wraps benchmark.reduced_cdf, as it does benchmark.sample; each
    # chunk scores each distinct design's kept rows in blocks
    cfg = _small_cfg(replicates=1500)  # two chunks, 1024 and 476 replicates
    ref = run_suite(cfg)
    block = benchmark._IFSE_BLOCK
    ols_batch, mle_batch = benchmark.ols_batch, benchmark.mle_batch
    kept, calls = [], []

    def count_kept(a, b, converged=True):
        kept.append(int(np.sum(np.isfinite(a) & np.isfinite(b) & (b > 0.0) & converged)))

    def counting_ols(X, z):
        a, b = ols_batch(X, z)
        count_kept(a, b)
        return a, b

    def counting_mle(X, family):
        fit = mle_batch(X, family)
        count_kept(*fit[:3])
        return fit

    def counting_cdf(family, z, out=None):
        calls.append(len(z))
        return reduced_cdf(family, z, out=out)

    monkeypatch.setattr(benchmark, "ols_batch", counting_ols)
    monkeypatch.setattr(benchmark, "mle_batch", counting_mle)
    monkeypatch.setattr(benchmark, "reduced_cdf", counting_cdf)
    wrapped = run_suite(cfg)
    assert len(kept) == 6  # the MLE baseline, weibull and blom in each chunk
    assert len(calls) == sum(-(-k // block) for k in kept)
    assert sorted(calls) == sorted(min(block, k - lo) for k in kept
                                   for lo in range(0, k, block))
    assert wrapped.rows == ref.rows


class _SerialPool:
    """ThreadPoolExecutor stand-in that records max_workers and maps serially."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_thread_count_capped_at_chunk_count(monkeypatch):
    # 3000 replicates make 3 chunks of 1024; no thread is started, and the
    # core count is set above both so that the chunk count is the cap
    monkeypatch.setattr(benchmark, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "requested", [])
    monkeypatch.setattr(benchmark.os, "cpu_count", lambda: 64)
    monkeypatch.setenv(THREADS_ENV, "64")
    capped = run_suite(_small_cfg(replicates=3000))
    assert _SerialPool.requested == [3]
    monkeypatch.setenv(THREADS_ENV, "1")
    serial = run_suite(_small_cfg(replicates=3000))
    assert _SerialPool.requested == [3]
    assert capped.rows == serial.rows
    # a single chunk never builds a pool
    monkeypatch.setenv(THREADS_ENV, "64")
    run_suite(_small_cfg(replicates=400))
    assert _SerialPool.requested == [3]


def test_thread_count_capped_at_core_count(monkeypatch):
    # 5000 requested threads on 4 chunks: one per core, and none when the
    # core count is unknown; no thread is started
    monkeypatch.setattr(benchmark, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "requested", [])
    monkeypatch.setenv(THREADS_ENV, "5000")
    cfg = _small_cfg(replicates=3 * 1024 + 1)
    monkeypatch.setattr(benchmark.os, "cpu_count", lambda: 3)
    capped = run_suite(cfg)
    assert _SerialPool.requested == [3]
    monkeypatch.setattr(benchmark.os, "cpu_count", lambda: None)
    assert run_suite(cfg).rows == capped.rows
    assert _SerialPool.requested == [3]


def test_worker_count_env_parsing(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert _worker_count() == 1
    monkeypatch.setenv(THREADS_ENV, "6")
    assert _worker_count() == 6
    monkeypatch.setenv(THREADS_ENV, "zero")
    with pytest.raises(ValueError):
        _worker_count()
    monkeypatch.setenv(THREADS_ENV, "0")
    with pytest.raises(ValueError):
        _worker_count()


def test_seed_changes_results():
    r1 = run_suite(_small_cfg())
    r2 = run_suite(_small_cfg(seed=7))
    assert r1.row("weibull").iqse != r2.row("weibull").iqse


def test_suite_rows_match_independent_oracle():
    # every replicate is regenerated from its own key and fitted by lstsq;
    # both error curves are evaluated node by node with the Gumbel closed
    # forms and integrated with a trapezoid rule written out here
    cfg = _small_cfg()
    rep = run_suite(cfg)
    n, M = cfg.n, cfg.replicates
    X = np.sort([sample(reduced("gumbel"), n, replicate_key(DEFAULT_SEED, m))
                 for m in range(M)], axis=1)
    F = default_f_grid()
    zF = -np.log(-np.log(F))
    half_steps = 0.5 * np.diff(F)

    def integrate(curves):
        return (curves[:, 1:] + curves[:, :-1]) @ half_steps

    for label in ("weibull", "blom"):
        p = positions_for(label, n, family="gumbel")
        design = np.column_stack([np.ones(n), -np.log(-np.log(p))])
        (a, b), *_ = np.linalg.lstsq(design, X.T, rcond=None)
        qse = (a[:, None] + (b[:, None] - 1.0) * zF) ** 2
        fse = (np.exp(-np.exp(-(zF - a[:, None]) / b[:, None])) - F) ** 2
        row = rep.row(label)
        assert row.discarded == 0
        for vals, mean, se in ((integrate(qse), row.iqse, row.iqse_se),
                               (integrate(fse), row.ifse, row.ifse_se)):
            assert mean == pytest.approx(vals.mean(), rel=1e-12)
            assert se == pytest.approx(vals.std(ddof=1) / np.sqrt(M), rel=1e-12)


def test_dse_deterministic_and_family_checked():
    v1 = dse("gumbel", 10, "hazen")
    v2 = dse("gumbel", 10, "hazen")
    assert v1 == v2 and v1 > 0
    # a design built for one parent cannot be scored under another
    f = make_formula("eupp", family="normal")
    with pytest.raises(ValueError):
        dse("gumbel", 10, f)
    assert dse("normal", 10, f) >= 0


def test_dse_improves_with_expansion_order():
    vals = [dse("gumbel", 10, make_formula("eupp", family="gumbel", k=k)) for k in (0, 2, 4)]
    assert vals[2] < vals[1] < vals[0]


def test_dse_lognormal_uses_log_scale_parent():
    assert dse("lognormal3", 10, "blom") == pytest.approx(dse("normal", 10, "blom"), abs=1e-12)


def test_report_payload_structure():
    rep = run_suite(_small_cfg())
    p = rep.to_payload()
    assert p["family"] == "gumbel" and p["n"] == 5
    assert p["replicates"] == 400 and p["seed"] == DEFAULT_SEED
    assert p["grid_nodes"] == 399
    assert len(p["rows"]) == 3
    mle_row = p["rows"][0]
    assert mle_row["estimator"] == MLE_KEY and mle_row["dse"] is None
    for row in p["rows"]:
        assert set(row) >= {"estimator", "iqse", "iqse_se", "ifse", "ifse_se", "dse",
                            "combined", "discarded"}


def test_report_row_lookup_error():
    rep = run_suite(_small_cfg())
    with pytest.raises(KeyError):
        rep.row("gringorten")
