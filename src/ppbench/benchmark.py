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

A chunk of 1024 replicates is drawn, fitted and scored in one task, and
returns per distinct design only the (count, mean, M2) of its kept rows'
IQSE and IFSE values. ``run_suite`` merges those in chunk order
(Chan, Golub & LeVeque, 1979), so a cell's memory is O(chunk) at any
replicate count and its report is bitwise the same at any PPBENCH_THREADS.
IFSE, most of a cell, runs inside the tasks, so a second thread pays: on a
2-core machine the six acceptance cells (M = 10^4) ran 1.15x to 1.42x
faster at two threads than at one, in three sets of 4 to 8 fresh-process
pairs (medians; the ROADMAP baseline table). The machine's speed drifts
20-40% over minutes, so the speed-up is a range, not one figure.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .distributions import (
    GUMBEL,
    NORMAL,
    _check_int,
    canonical_family,
    paper_family,
    reduced,
    reduced_cdf,
    reduced_quantile,
    sample,
)
from .estimation import OLS, mle_batch, ols_batch
from .order_stats import exact_mean
from .positions import ALL_IDS, EUPP_ID, PositionFormula, make_formula, positions_for

DEFAULT_REPLICATES = 10_000
DEFAULT_SEED = 20140101
SEED_LIMIT = 1 << 64
MIN_REPLICATES = 100
THREADS_ENV = "PPBENCH_THREADS"
MLE_KEY = "mle"

_CHUNK = 1024
_IFSE_BLOCK = 128


def default_f_grid() -> np.ndarray:
    """399 equispaced probability nodes from 0.0025 to 0.9975.

    Every IQSE and IFSE integrates over this one grid; it is part of the index.
    """
    return np.linspace(0.0025, 0.9975, 399)


def replicate_key(seed: int, m: int) -> int:
    """Counter-based stream key for replicate m of a run seeded with seed.

    Keys place the seed in the upper 64 bits and m in the lower, so distinct
    (seed, m) pairs never share a stream and any replicate can be
    regenerated in isolation with sample(). Both lie in [0, 2**64); a float
    or bool raises TypeError, since int() would put it on another stream.
    """
    return (_check_int(seed, "seed", 0, SEED_LIMIT - 1) * SEED_LIMIT
            + _check_int(m, "replicate index", 0, SEED_LIMIT - 1))


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
        count = 0
    if count < 1:
        raise ValueError("%s must be a positive integer, got %r" % (THREADS_ENV, raw))
    return count


FormulaLike = Union[str, PositionFormula]


def _resolve_formula(f: FormulaLike, family: str) -> PositionFormula:
    """f as a formula of the cell's family; an id is built for that family."""
    if not isinstance(f, PositionFormula):
        f = make_formula(f, family=family)
    # the exact-unbiased positions belong to one parent; DSE scores them
    # against the cell's exact means, so any other parent is a mismatch
    if f.id == EUPP_ID and f.family != family:
        raise ValueError(
            "positions were built for family %r, benchmark cell is %r"
            % (f.family, family)
        )
    return f


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that pins down one Monte Carlo benchmark cell."""

    family: str
    n: int
    replicates: int = DEFAULT_REPLICATES
    seed: int = DEFAULT_SEED
    formulas: Optional[Sequence[FormulaLike]] = None
    include_mle: bool = True

    def __post_init__(self) -> None:
        family = canonical_family(self.family)
        if family not in (GUMBEL, NORMAL):
            raise ValueError("benchmark cells are defined for gumbel and normal")
        object.__setattr__(self, "family", family)
        # stored as ints, so the report payload stays JSON-serialisable
        for name, lo, hi in (("n", 3, None), ("replicates", MIN_REPLICATES, None),
                             ("seed", 0, SEED_LIMIT - 1)):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, lo, hi))

        if isinstance(self.formulas, (str, bytes)):
            raise TypeError("formulas must be a sequence of formulas, got %r" % (self.formulas,))
        source = self.formulas if self.formulas is not None else ALL_IDS
        resolved = tuple(_resolve_formula(f, family) for f in source)
        if not resolved and not self.include_mle:
            raise ValueError("no estimator to benchmark: give a formula or keep the MLE baseline")
        object.__setattr__(self, "formulas", resolved)


def _sorted_samples(family: str, seed: int, start: int, count: int, n: int) -> np.ndarray:
    keys = [replicate_key(seed, m) for m in range(start, start + count)]
    out = sample(reduced(family), n, keys)
    out.sort(axis=1)
    return out


def _kept(a: np.ndarray, b: np.ndarray, converged=True) -> tuple[np.ndarray, np.ndarray]:
    # a replicate is kept when its fit is finite with a positive slope (and,
    # for an iterative fit, converged)
    kept = np.isfinite(a) & np.isfinite(b) & (b > 0.0) & converged
    return a[kept], b[kept]


def _iqse_values(a: np.ndarray, b: np.ndarray, zg: np.ndarray, w: np.ndarray) -> np.ndarray:
    # integral of (a + (b-1) z)^2 dF expands into three fixed moments of the
    # grid, so each replicate costs O(1) once the W sums are precomputed
    W0 = float(w.sum())
    W1 = float(zg @ w)
    W2 = float((zg * zg) @ w)
    e = b - 1.0
    return a * a * W0 + 2.0 * a * e * W1 + e * e * W2


def _ifse_values(
    a: np.ndarray, b: np.ndarray, family: str, grid: np.ndarray, zg: np.ndarray, w: np.ndarray
) -> np.ndarray:
    # Z = (zg - a) / b is one rank-2 product per block, [-a/b, 1/b] @ [1; zg],
    # which BLAS forms in about a fifth of the time numpy takes to broadcast
    # a and b along the rows; Z moves by about one rounding. BLAS flags an
    # infinite coefficient as an invalid value even where the product is
    # right, so both coefficients stay finite: b is floored where |zg| / b
    # stays below a quarter of the float range (a subnormal b would make 1/b
    # infinite), and -a/b is clipped to half of it. A row that either bound
    # touches has |Z| far past where the cdf saturates, as (zg - a) / b has,
    # unless a lies within about 1e-305 of a node. a and b are left as given.
    huge = np.finfo(float).max
    slope = np.maximum(b, 4.0 * np.abs(zg).max() / huge)
    with np.errstate(over="ignore"):
        shift = np.divide(a, slope)
    np.clip(shift, -0.5 * huge, 0.5 * huge, out=shift)
    np.negative(shift, out=shift)
    np.divide(1.0, slope, out=slope)
    basis = np.stack((np.ones_like(zg), zg))
    # every block runs in the same buffers: the plain expression allocates a
    # fresh block-sized temporary per step, and first touches of new pages
    # cost more than the arithmetic done on them
    rows = min(_IFSE_BLOCK, shift.size)
    coef = np.empty((rows, 2))
    buf = np.empty((rows, zg.size))
    vals = np.empty(shift.size)
    for lo in range(0, shift.size, _IFSE_BLOCK):
        hi = min(lo + _IFSE_BLOCK, shift.size)
        C = coef[: hi - lo]
        C[:, 0] = shift[lo:hi]
        C[:, 1] = slope[lo:hi]
        F = buf[: hi - lo]
        np.matmul(C, basis, out=F)
        reduced_cdf(family, F, out=F)
        np.subtract(F, grid, out=F)
        np.square(F, out=F)
        np.matmul(F, w, out=vals[lo:hi])
    return vals


def dse(family: str, n: int, f: FormulaLike) -> float:
    """Root mean squared gap between position quantiles and exact means.

    Deterministic: needs only the positions and the exact order-statistic
    means of the reduced parent.
    """
    family = paper_family(family)
    f = _resolve_formula(f, family)
    zhat = reduced_quantile(family, positions_for(f, n, family=family))
    means = np.array([exact_mean(family, i, n) for i in range(1, n + 1)])
    return float(np.sqrt(np.mean((zhat - means) ** 2)))


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
    grid_nodes: int
    rows: tuple[BenchmarkRow, ...]

    def row(self, estimator: str) -> BenchmarkRow:
        for r in self.rows:
            if r.estimator == estimator:
                return r
        raise KeyError(estimator)

    def to_payload(self) -> dict:
        # the Monte Carlo benchmark fits with OLS only; report-v1 wants rows
        # as an array, which a tuple is not
        return {**asdict(self), "method": OLS, "rows": [asdict(r) for r in self.rows]}


_Moments = tuple[int, float, float]
_NO_VALUES: _Moments = (0, 0.0, 0.0)


def _moments(vals: np.ndarray) -> _Moments:
    """(count, mean, M2) of vals, M2 being the sum of squared deviations from the mean."""
    if vals.size == 0:
        return _NO_VALUES
    mean = float(vals.mean())
    dev = vals - mean
    return vals.size, mean, float(dev @ dev)


def _merge(acc: _Moments, part: _Moments) -> _Moments:
    # the pairwise update of Chan, Golub & LeVeque (1979); an empty acc
    # takes part's values exactly, since n_b / n is then 1 and n_a * n_b 0
    n_a, mean_a, m2_a = acc
    n_b, mean_b, m2_b = part
    if n_b == 0:
        return acc
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * (n_a * n_b / n)


def _mean_se(moments: _Moments) -> tuple[Optional[float], Optional[float]]:
    count, mean, m2 = moments
    if count == 0:
        return None, None
    if count < 2:
        return mean, None
    return mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count)


def run_suite(cfg: ExperimentConfig) -> BenchmarkReport:
    """Every index for every estimator of one benchmark cell.

    Every estimator is fitted on the same replicate samples (common random
    numbers), one chunk task at a time (see the module docstring).

    The maximum-likelihood baseline gets the two Monte Carlo indices only;
    positions do not exist for it, so neither does DSE nor the combined
    average. Estimators whose replicates all failed are reported with null
    indices and a full discard count rather than aborting the suite.
    """
    family, n, M, grid = cfg.family, cfg.n, cfg.replicates, default_f_grid()
    zg = reduced_quantile(family, grid)
    w = _trapezoid_weights(grid)
    # bitwise-equal designs (tukey and kerman) are fitted and scored once,
    # keyed by bytes
    design = {}
    key_of = {MLE_KEY: MLE_KEY} if cfg.include_mle else {}
    for f in cfg.formulas:
        z = reduced_quantile(family, positions_for(f, n, family=family))
        key_of[f.label] = z.tobytes()
        design[z.tobytes()] = z
    # DSE needs no sample, and a cell whose exact means fail fails before any draw
    by_label = {f.label: f for f in cfg.formulas}
    dse_of = {label: dse(family, n, f) for label, f in by_label.items()}

    def score(a, b):
        return (_moments(_iqse_values(a, b, zg, w)),
                _moments(_ifse_values(a, b, family, grid, zg, w)))

    def work(start: int):
        X = _sorted_samples(family, cfg.seed, start, min(_CHUNK, M - start), n)
        chunk = {key: score(*_kept(*ols_batch(X, z))) for key, z in design.items()}
        if cfg.include_mle:
            a, b, converged, _ = mle_batch(X, family)
            chunk[MLE_KEY] = score(*_kept(a, b, converged))
        return chunk

    starts = range(0, M, _CHUNK)
    # more threads than chunks would only sit idle, and more than cores contend
    workers = min(_worker_count(), len(starts), os.cpu_count() or 1)
    if workers == 1:
        chunks = map(work, starts)  # lazy: each chunk is merged before the next is drawn
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(work, starts))
    totals = dict.fromkeys(key_of.values(), (_NO_VALUES, _NO_VALUES))
    for chunk in chunks:  # in chunk order, whichever thread scored it
        for key, scores in chunk.items():
            totals[key] = tuple(map(_merge, totals[key], scores))

    rows = []
    for label, key in key_of.items():
        iq_moments, if_moments = totals[key]
        iq, iq_se = _mean_se(iq_moments)
        if_, if_se = _mean_se(if_moments)
        if label == MLE_KEY:
            d = combined = None
        else:
            d = dse_of[label]
            combined = None
            if iq is not None and if_ is not None:
                combined = (iq + if_ + d) / 3.0
        rows.append(
            BenchmarkRow(
                estimator=label,
                iqse=iq,
                iqse_se=iq_se,
                ifse=if_,
                ifse_se=if_se,
                dse=d,
                combined=combined,
                discarded=M - iq_moments[0],  # one IQSE value per kept replicate
            )
        )
    return BenchmarkReport(
        family=family,
        n=n,
        replicates=M,
        seed=cfg.seed,
        grid_nodes=int(grid.size),
        rows=tuple(rows),
    )
