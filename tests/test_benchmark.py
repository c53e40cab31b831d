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
    replicate_key,
    rm_index,
    run_suite,
    sample,
)
from ppbench import benchmark
from ppbench.benchmark import MLE_KEY, THREADS_ENV, _trapezoid_weights, _worker_count

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
        with pytest.raises(ValueError):
            ExperimentConfig(family="gumbel", n=5, replicates=bad)
    with pytest.raises(ValueError):
        ExperimentConfig(family="gumbel", n=5, method="gls")
    with pytest.raises(ValueError):
        ExperimentConfig(family="gumbel", n=5, f_grid=np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        ExperimentConfig(family="gumbel", n=5, f_grid=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        ExperimentConfig(family="gumbel", n=5, formulas=["nope"])


def test_config_default_formula_roster():
    cfg = ExperimentConfig(family="normal", n=5, replicates=100)
    keys = cfg.formula_keys()
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
    monkeypatch.setenv(THREADS_ENV, "1")
    r1 = run_suite(_small_cfg(replicates=3000))
    monkeypatch.setenv(THREADS_ENV, "4")
    r4 = run_suite(_small_cfg(replicates=3000))
    for a, b in zip(r1.rows, r4.rows):
        assert a.iqse == b.iqse and a.ifse == b.ifse  # bitwise, not approx


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
    # 3000 replicates make 3 chunks of 1024; no thread is started
    monkeypatch.setattr(benchmark, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "requested", [])
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
        p = positions_for(label, n, family="gumbel").p
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


def test_rm_index_scale_sensitivity_and_zero_guard():
    # relative gaps depend on (a, b): the index is not parameter free
    r1 = rm_index("gumbel", 5, "weibull", a=10.0, b=1.0)
    r2 = rm_index("gumbel", 5, "weibull", a=100.0, b=1.0)
    assert r1 != pytest.approx(r2)
    # pick (a, b) so one reference expected order statistic is exactly zero
    from ppbench import exact_mean

    m1 = exact_mean("gumbel", 1, 5)
    with pytest.raises(ZeroDivisionError):
        rm_index("gumbel", 5, "weibull", a=-(2.0 * m1), b=2.0)


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
