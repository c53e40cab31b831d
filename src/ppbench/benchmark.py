"""Monte Carlo and deterministic benchmark indices for plotting positions.

Three parameter-free indices are computed per estimator:

* IQSE integrates the mean squared error of the fitted quantile line over a
  probability grid (predictive ability).
* IFSE integrates the mean squared error of the implied CDF over the same
  grid (descriptive ability on the probability scale).
* DSE measures how far the positions themselves sit from the exact expected
  order statistics (descriptive ability on the reduced-variate scale); it is
  deterministic, no simulation involved.

All simulation runs on the reduced parent (location 0, scale 1): the fitted
intercept and slope errors are parameter-free for location-scale families,
so one run covers every (a, b).

Each replicate chunk is fitted by the same batch kernels that the library's
scalar fits call, ``estimation.ols_batch`` and ``estimation.mle_batch``, so
a benchmark row measures exactly the estimator that ``fit_ols`` and
``fit_mle`` compute.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .distributions import (
    GUMBEL,
    NORMAL,
    canonical_family,
    reduced,
    reduced_cdf,
    reduced_quantile,
    sample,
)
from .estimation import OLS, mle_batch, ols_batch
from .order_stats import exact_mean
from .positions import EUPP_ID, PositionFormula, make_formula, positions_for

DEFAULT_REPLICATES = 10_000
DEFAULT_SEED = 20140101
MIN_REPLICATES = 100
THREADS_ENV = "PPBENCH_THREADS"
MLE_KEY = "mle"

# One combined row per catalogue entry; tukey and kerman share constants but
# both ids are kept so either name resolves.
DEFAULT_FORMULA_ORDER = (
    "eupp",
    "hazen",
    "beard",
    "blom",
    "tukey",
    "kerman",
    "gringorten",
    "yu_huang_normal",
    "yu_huang_gumbel",
    "de",
    "weibull",
    "cunnane",
    "adamowski",
    "erto_lepore_2013",
)

_CHUNK = 1024
_IFSE_BLOCK = 2048


def default_f_grid() -> np.ndarray:
    """399 equispaced probability nodes from 0.0025 to 0.9975."""
    return np.linspace(0.0025, 0.9975, 399)


def replicate_key(seed: int, m: int) -> int:
    """Counter-based stream key for replicate m of a run seeded with seed.

    Keys place the seed in the upper 64 bits, so replicate streams never
    collide across replicate indices below 2**64 and any replicate can be
    regenerated in isolation with sample().
    """
    if m < 0:
        raise ValueError("replicate index must be nonnegative")
    return (int(seed) % (1 << 64)) * (1 << 64) + int(m)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.empty_like(x)
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    return w


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(
            "%s must be a positive integer, got %r" % (THREADS_ENV, raw)
        ) from None
    if count < 1:
        raise ValueError("%s must be a positive integer, got %r" % (THREADS_ENV, raw))
    return count


FormulaLike = Union[str, PositionFormula]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that pins down one Monte Carlo benchmark cell."""

    family: str
    n: int
    replicates: int = DEFAULT_REPLICATES
    seed: int = DEFAULT_SEED
    formulas: Optional[Sequence[FormulaLike]] = None
    f_grid: Optional[np.ndarray] = None
    method: str = OLS
    include_mle: bool = True

    def __post_init__(self) -> None:
        family = canonical_family(self.family)
        if family not in (GUMBEL, NORMAL):
            raise ValueError("benchmark cells are defined for gumbel and normal")
        object.__setattr__(self, "family", family)
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 3:
            raise ValueError("sample size must be an int >= 3")
        if (not isinstance(self.replicates, int) or isinstance(self.replicates, bool)
                or self.replicates < MIN_REPLICATES):
            raise ValueError("replicates must be an int >= %d" % MIN_REPLICATES)
        if self.method != OLS:
            raise ValueError("the Monte Carlo benchmark fits with OLS only")

        resolved = []
        source = self.formulas if self.formulas is not None else DEFAULT_FORMULA_ORDER
        for f in source:
            if isinstance(f, PositionFormula):
                resolved.append(f)
            else:
                resolved.append(make_formula(f, family=family))
        object.__setattr__(self, "formulas", tuple(resolved))

        grid = self.f_grid if self.f_grid is not None else default_f_grid()
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("the probability grid must be a vector of >= 2 nodes")
        if grid[0] <= 0.0 or grid[-1] >= 1.0 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid nodes must increase strictly inside (0, 1)")
        object.__setattr__(self, "f_grid", grid)

    def formula_keys(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.formulas)


@dataclass(frozen=True)
class EstimatorParams:
    """Fitted (intercept, slope) pairs across replicates, plus the kept mask."""

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    kept: np.ndarray = field(repr=False)

    @property
    def discarded(self) -> int:
        return int(self.kept.size - self.kept.sum())


def _sorted_samples(family: str, seed: int, start: int, count: int, n: int) -> np.ndarray:
    d = reduced(family)
    out = np.empty((count, n))
    for r in range(count):
        out[r] = sample(d, n, replicate_key(seed, start + r))
    out.sort(axis=1)
    return out


def _with_kept(a: np.ndarray, b: np.ndarray, converged=True):
    # a replicate is kept when its fit is finite with a positive slope (and,
    # for an iterative fit, converged)
    return a, b, np.isfinite(a) & np.isfinite(b) & (b > 0.0) & converged


def _collect_params(cfg: ExperimentConfig) -> dict[str, EstimatorParams]:
    """Fit every estimator on the same replicate samples (common random numbers)."""
    n, M = cfg.n, cfg.replicates
    design = {}
    for f in cfg.formulas:
        pset = positions_for(f, n, family=cfg.family)
        design[f.label] = reduced_quantile(cfg.family, pset.p)

    starts = list(range(0, M, _CHUNK))

    def work(start: int):
        count = min(_CHUNK, M - start)
        X = _sorted_samples(cfg.family, cfg.seed, start, count, n)
        chunk = {key: _with_kept(*ols_batch(X, z)) for key, z in design.items()}
        if cfg.include_mle:
            a, b, converged, _ = mle_batch(X, cfg.family)
            chunk[MLE_KEY] = _with_kept(a, b, converged)
        return chunk

    # more threads than chunks would only sit idle
    workers = min(_worker_count(), len(starts))
    if workers == 1:
        chunks = [work(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(work, starts))

    out: dict[str, EstimatorParams] = {}
    keys = list(design) + ([MLE_KEY] if cfg.include_mle else [])
    for key in keys:
        a, b, kept = (np.concatenate([c[key][k] for c in chunks]) for k in range(3))
        out[key] = EstimatorParams(a=a, b=b, kept=kept)
    return out


def _iqse_values(params: EstimatorParams, zg: np.ndarray, w: np.ndarray) -> np.ndarray:
    # integral of (a + (b-1) z)^2 dF expands into three fixed moments of the
    # grid, so each replicate costs O(1) once the W sums are precomputed
    W0 = float(w.sum())
    W1 = float(zg @ w)
    W2 = float((zg * zg) @ w)
    a = params.a[params.kept]
    e = params.b[params.kept] - 1.0
    return a * a * W0 + 2.0 * a * e * W1 + e * e * W2


def _ifse_values(
    params: EstimatorParams, family: str, grid: np.ndarray, zg: np.ndarray, w: np.ndarray
) -> np.ndarray:
    a = params.a[params.kept]
    b = params.b[params.kept]
    vals = np.empty(a.size)
    for lo in range(0, a.size, _IFSE_BLOCK):
        hi = min(lo + _IFSE_BLOCK, a.size)
        Z = (zg[None, :] - a[lo:hi, None]) / b[lo:hi, None]
        Fhat = reduced_cdf(family, Z)
        vals[lo:hi] = ((Fhat - grid[None, :]) ** 2) @ w
    return vals


def dse(family: str, n: int, f: FormulaLike) -> float:
    """Root mean squared gap between position quantiles and exact means.

    Deterministic: needs only the positions and the exact order-statistic
    means of the reduced parent.
    """
    family = canonical_family(family)
    if family not in (GUMBEL, NORMAL):
        family = NORMAL
    if not isinstance(f, PositionFormula):
        f = make_formula(f, family=family)
    if f.id == EUPP_ID and f.family != family:
        raise ValueError(
            "positions were built for family %r, benchmark cell is %r"
            % (f.family, family)
        )
    p = positions_for(f, n, family=family).p
    zhat = reduced_quantile(family, p)
    means = np.array([exact_mean(family, i, n) for i in range(1, n + 1)])
    return float(np.sqrt(np.mean((zhat - means) ** 2)))


def rm_index(family: str, n: int, f: FormulaLike, a: float, b: float) -> float:
    """Root mean squared relative deviation of position quantiles.

    Works on the original scale x = a + b z, hence depends on the
    parameters; exact expected order statistics are the reference. Raises
    if any reference value is zero (relative error undefined there).
    """
    family = canonical_family(family)
    if not isinstance(f, PositionFormula):
        f = make_formula(f, family=family)
    p = positions_for(f, n, family=family).p
    zhat = reduced_quantile(family, p)
    means = np.array([exact_mean(family, i, n) for i in range(1, n + 1)])
    ref = a + b * means
    if np.any(ref == 0.0):
        raise ZeroDivisionError("an exact expected order statistic equals zero")
    fitted = a + b * zhat
    return float(np.sqrt(np.mean(((fitted - ref) / ref) ** 2)))


@dataclass(frozen=True)
class BenchmarkRow:
    estimator: str
    iqse: Optional[float]
    iqse_se: Optional[float]
    ifse: Optional[float]
    ifse_se: Optional[float]
    dse: Optional[float]
    combined: Optional[float]
    discarded: int


@dataclass(frozen=True)
class BenchmarkReport:
    family: str
    n: int
    replicates: int
    seed: int
    method: str
    grid_nodes: int
    rows: tuple[BenchmarkRow, ...]

    def row(self, estimator: str) -> BenchmarkRow:
        for r in self.rows:
            if r.estimator == estimator:
                return r
        raise KeyError(estimator)

    def to_payload(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "replicates": self.replicates,
            "seed": self.seed,
            "method": self.method,
            "grid_nodes": self.grid_nodes,
            "rows": [
                {
                    "estimator": r.estimator,
                    "iqse": r.iqse,
                    "iqse_se": r.iqse_se,
                    "ifse": r.ifse,
                    "ifse_se": r.ifse_se,
                    "dse": r.dse,
                    "combined": r.combined,
                    "discarded": r.discarded,
                }
                for r in self.rows
            ],
        }


def _mean_se(vals: np.ndarray) -> tuple[Optional[float], Optional[float]]:
    if vals.size == 0:
        return None, None
    mean = float(vals.mean())
    if vals.size < 2:
        return mean, None
    return mean, float(vals.std(ddof=1) / np.sqrt(vals.size))


def run_suite(cfg: ExperimentConfig) -> BenchmarkReport:
    """Every index for every estimator of one benchmark cell.

    The maximum-likelihood baseline gets the two Monte Carlo indices only;
    positions do not exist for it, so neither does DSE nor the combined
    average. Estimators whose replicates all failed are reported with null
    indices and a full discard count rather than aborting the suite.
    """
    params = _collect_params(cfg)
    zg = reduced_quantile(cfg.family, cfg.f_grid)
    w = _trapezoid_weights(cfg.f_grid)

    rows = []
    order = ([MLE_KEY] if cfg.include_mle else []) + list(cfg.formula_keys())
    by_label = {f.label: f for f in cfg.formulas}
    for key in order:
        est = params[key]
        iq_vals = _iqse_values(est, zg, w)
        iq, iq_se = _mean_se(iq_vals)
        if_vals = _ifse_values(est, cfg.family, cfg.f_grid, zg, w)
        if_, if_se = _mean_se(if_vals)
        if key == MLE_KEY:
            d = combined = None
        else:
            d = dse(cfg.family, cfg.n, by_label[key])
            combined = None
            if iq is not None and if_ is not None:
                combined = (iq + if_ + d) / 3.0
        rows.append(
            BenchmarkRow(
                estimator=key,
                iqse=iq,
                iqse_se=iq_se,
                ifse=if_,
                ifse_se=if_se,
                dse=d,
                combined=combined,
                discarded=est.discarded,
            )
        )
    return BenchmarkReport(
        family=cfg.family,
        n=cfg.n,
        replicates=cfg.replicates,
        seed=cfg.seed,
        method=cfg.method,
        grid_nodes=int(cfg.f_grid.size),
        rows=tuple(rows),
    )
