"""Moments of order statistics for reduced Gumbel and Normal parents.

Two routes are provided. The expansion route Taylor-expands the quantile
function around the mean of the uniform order statistic ``U_(i) ~
Beta(i, N - i + 1)``, keeping derivatives up to a chosen order ``k <= 4``;
it is cheap and works for any N. Its kernels broadcast over integer rank
arrays, so a covariance matrix is O(N^2) array work in one call, not O(N^2)
Python calls. The exact route is the reference the expansion is judged
against, up to one cost cap, EXACT_MAX_N. It is trapezoid quadrature on
fixed nodes: one array evaluation per (family, N) gives the first two
moments of every rank, from the density c f F^(i-1) S^(N-i) in linear
space. Both tables read f, F and S from distributions._parent and nowhere
else. The joint moments integrate over z1 and the gap t = z2 - z1 > 0,
mapped by the double-exponential t = exp(s - exp(-s)) (Takahasi & Mori,
1974): the integrand then decays double-exponentially in s as t -> 0, so
108 s nodes reach t ~ 1e-16 and that end needs no truncation.
Only the exponents of the pair density's factors F1, F2 - F1 and S2 depend
on the pair, so one contraction of their power tables per block of z1 rows
(factors in linear space, F2 - F1 as S1 - S2 where F1 >= 1/2), read only at
each pair's exponents, gives the joint moments E[Z_i Z_j] of every pair,
cached as one symmetric N x N table whose diagonal holds E[Z_i^2]. Their z1
nodes are z1 = a sinh(v / a) on a uniform v grid (Stenger, 1993): the rule
stays exponentially convergent in v, while the tails, above all the
Gumbel's exp(-z) right tail, take a few widely spaced nodes instead of a
long uniform run (160 Gumbel and 145 normal rows). The means and second
moments take the same map at a quarter of the v step (637 and 577 rows),
whose every fourth node is a joint node. Each error is estimated from the
same nodes at twice the step and must stay below EXACT_MEAN_TOL (means) or
EXACT_COV_TOL (second and joint moments), and decides within the cap.
exact_cov broadcasts over rank arrays like expansion_cov, reading those two
cached tables; the variances alone (i and j equal) read only the second
moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .distributions import (
    GUMBEL,
    NORMAL,
    _check_int,
    _check_reals,
    _parent,
    paper_family,
    quantile_derivative,
    reduced_quantile,
)

EXPANSION = "expansion"
EXACT = "exact"
DIAGONAL = "diagonal"
IDENTITY = "identity"
COV_MODES = (EXPANSION, EXACT, DIAGONAL, IDENTITY)

EXACT_MAX_N = 201  # the largest case-study month
EXACT_MEAN_TOL = 1e-9
EXACT_COV_TOL = 1e-7

# Ridge repair for covariance matrices that lose positive definiteness to
# rounding: start at 1e-10 * mean diagonal scale and double until Cholesky
# succeeds.
RIDGE_UNIT = 1e-10


class QuadratureError(RuntimeError):
    """A quadrature failed to reach the required error bound."""


def _check_indices(n, *ranks) -> list:
    """[n, *ranks]: n as an int >= 1, then each rank argument as an int array in 1..n."""
    out = [_check_int(n, "sample size n", 1)]
    for i in ranks:
        r = np.asarray(i)
        if r.dtype.kind not in "iu" or (r < 1).any() or (r > out[0]).any():
            raise ValueError("order index must be ints with 1 <= i <= N, got i=%r" % (i,))
        out.append(r)
    return out


def expansion_mean(family: str, i, n: int, k: int = 4):
    """Approximate E of the i-th reduced order statistic, truncation level k.

    k = 0 keeps only the quantile at the mean uniform position (the
    distribution-free value); the first-order term vanishes identically, so
    k = 1 equals k = 0. Levels 2, 3, 4 add the second, third and fourth
    quantile-derivative corrections. The third- and fourth-derivative terms
    are both O(1/(N+2)^2): k = 3 adds the first without the second, so it is
    less accurate than k = 2 (its worst error is 3 to 13 times that of k = 2
    at N = 5..100, and from N = 30 on it is worse than k = 0).

    ``i`` is an int (giving a float) or an integer array of ranks.
    """
    family = paper_family(family)
    n, i = _check_indices(n, i)
    k = _check_int(k, "truncation level k", 0, 4)

    mu = i / (n + 1.0)
    q = 1.0 - mu
    d = n + 2.0
    value = reduced_quantile(family, mu)
    if k >= 2:
        value += mu * q / (2.0 * d) * quantile_derivative(family, mu, 2)
    if k >= 3:
        value += mu * q * (q - mu) / (3.0 * d * d) * quantile_derivative(family, mu, 3)
    if k >= 4:
        value += (mu * q) ** 2 / (8.0 * d * d) * quantile_derivative(family, mu, 4)
    return float(value) if i.ndim == 0 else value


def expansion_cov(family: str, i, j, n: int):
    """Second-order covariance approximation between reduced order statistics.

    ``i`` and ``j`` are ints (giving a float) or integer rank arrays that
    broadcast together. For i <= j, with p = i/(N+1), q = 1 - p, d = N + 2,
    g_r the r-th quantile derivative at p and h = (q - p) g2 + p q g3 / 2,

        cov = p_i q_j / d^2 (d g1_i g1_j + h_i g1_j + g1_i h_j + p_i q_j g2_i g2_j / 2),

    a sum of three products of a factor of i and a factor of j. For i > j
    the ranks swap, which is exactly the symmetry of the covariance.

    For a column of ranks against the same ranks as a row (the grid
    build_moments asks for) the products are evaluated once and the lower
    triangle is read from their transpose: bitwise what the swapped ranks
    give. Other shapes evaluate both orders.
    """
    family = paper_family(family)
    n, i, j = _check_indices(n, i, j)
    i, j = i - 1, j - 1

    p = np.arange(1, n + 1) / (n + 1.0)
    q = 1.0 - p
    d = n + 2.0
    g1, g2, g3 = (quantile_derivative(family, p, r) for r in (1, 2, 3))
    h = (q - p) * g2 + 0.5 * p * q * g3
    # factors of the lower rank (u) and of the higher rank (v, carrying 1/d^2)
    u1, u2, u3 = p * (d * g1 + h), p * g1, 0.5 * p * p * g2
    w = q / (d * d)
    v1, v2, v3 = w * g1, w * h, w * q * g2

    def upper(lo, hi):
        # summed in place, left to right: one grid-sized temporary per term
        out = u1[lo] * v1[hi]
        out += u2[lo] * v2[hi]
        out += u3[lo] * v3[hi]
        return out

    U = upper(i, j)
    if i.ndim == 2 and i.shape[1] == 1 and j.ndim == 1 and np.array_equal(i[:, 0], j):
        cov = np.where(i <= j, U, U.T)
    else:
        cov = np.where(i <= j, U, upper(j, i))
    return float(cov) if cov.ndim == 0 else cov


# Fixed nodes of the exact quadratures: z1 in _exact_moments and
# _exact_joint_moments, the gap s in the latter. Beyond the ends of the z1
# range each parent's density is below about 1e-17. Both take
# z1 = a sinh(v / a), v on a uniform grid anchored at v = 0 and extended to
# the first node at or beyond each end of the range (see _z1_nodes): of step
# _COV_STEP_Z1 for the joint moments and a quarter of that for the means,
# whose every fourth node is a joint node. a = _COV_Z1_SCALE keeps the map
# near uniform over the body (slope 1 at z = 0) and spaces the nodes out,
# exponentially in v, in the tails. The inner gap t = z2 - z1 =
# exp(s - exp(-s)) runs from about 1.3e-16 (s = -3.5) to about 53; the strip
# of t below the first node holds about 1e-16 of a pair's integral, under
# double rounding, and beyond the last the pair density is negligible.
_COV_Z1_RANGE = {NORMAL: (-9.0, 9.0), GUMBEL: (-4.5, 40.0)}
# The Gumbel's right tail decays only like exp(-z), so the map has most to
# gain there; the normal tail is already Gaussian, and a smaller scale than 6
# would space its nodes too widely through the body (measured at N = 100).
_COV_Z1_SCALE = {NORMAL: 6.0, GUMBEL: 4.0}
_COV_S_RANGE = (-3.5, 4.0)
_COV_STEP_Z1 = 0.1  # v step of the joint moments' z1 map; the s step sets their error
_COV_STEP_S = 0.07
# z1 rows per block; even, so block parity follows the grid's. Not larger:
# one block for all rows at N = 5 took a cold table from 6-17 to 206-457
# minor page faults and did not run faster in fresh processes, which is how
# every command and bench pass starts; it saves Python overhead only warm.
_COV_BLOCK = 32


def _nodes(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(round((hi - lo) / step) + 1)


def _z1_nodes(family: str) -> tuple[np.ndarray, np.ndarray]:
    """z1 = a sinh(v / a) and its Jacobian cosh(v / a), on the v step h / 4.

    h is _COV_STEP_Z1, the joint moments' step. v = k h / 4 for every integer
    k from the first joint node (v a multiple of h) at or beyond the low end
    of _COV_Z1_RANGE to the first at or beyond the high end, so z1 = 0 is a
    node, a symmetric range gives symmetric nodes, and every fourth node is
    bitwise that of step h, as 4 is a power of two.
    """
    a = _COV_Z1_SCALE[family]
    lo, hi = a * np.arcsinh(np.array(_COV_Z1_RANGE[family]) / a) / _COV_STEP_Z1
    v = np.arange(4 * math.floor(lo), 4 * math.ceil(hi) + 1) * (_COV_STEP_Z1 / 4 / a)
    return a * np.sinh(v), np.cosh(v)


def _pair_factors(family: str, z1: np.ndarray, z2: np.ndarray):
    """f1, F1, f2, S2 and F2 - F1, as S1 - S2 where F1 >= 1/2 to stay accurate."""
    f1, F1, S1 = _parent(family, z1)
    k = int(np.count_nonzero(F1 < 0.5))  # z1 is a column of increasing nodes
    f2, F2, S2 = _parent(family, z2, k)
    return f1, F1, f2, S2, np.concatenate([F2 - F1[:k], S1[k:] - S2[k:]])


def _check_trapezoid(fine, coarse, tol: float, what: str) -> None:
    err = float(np.max(np.abs(fine - coarse), initial=0.0))
    if not err <= tol:  # a NaN estimate fails too
        raise QuadratureError("%s quadrature error %.3e exceeds %.1e" % (what, err, tol))


def _trapezoid_z(g: np.ndarray, step: float, tol: float, what: str) -> np.ndarray:
    """Trapezoid sums of the rows of g at v step ``step``, checked against the even nodes."""
    fine = step * g.sum(axis=1)
    _check_trapezoid(fine, 2.0 * step * g[:, ::2].sum(axis=1), tol, what)
    fine.flags.writeable = False  # shared by every caller through the cache
    return fine


@lru_cache(maxsize=None)
def _exact_moments(family: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """E[Z_i] and E[Z_i^2] for every rank i = 1..N, as two length-N arrays.

    One trapezoid rule on the nodes of _z1_nodes (Jacobian cosh(v / a))
    serves every rank: the order-statistic density c f F^(i-1) S^(N-i) is
    built in linear space from one evaluation of f, F and S shared by all
    ranks, with c from gammaln (numpy's 0**0 is 1, so a zero exponent needs
    no guard). The error estimate per rank is |I_h - I_2h|, where I_2h sums
    the even nodes; QuadratureError is raised if it exceeds EXACT_MEAN_TOL
    for a mean or EXACT_COV_TOL for a second moment. Every exact value passes
    through here, so the route's one cost cap is checked here.
    """
    if n > EXACT_MAX_N:
        raise ValueError("exact moments are limited to N <= %d" % EXACT_MAX_N)
    z, jz = _z1_nodes(family)
    f, F, S = _parent(family, z)
    a = np.arange(n)[:, None]  # exponent of F; n - 1 - a is that of S
    b = n - 1 - a
    c = np.exp(special.gammaln(n + 1) - special.gammaln(a + 1) - special.gammaln(b + 1))
    w = c * f * F**a * S**b * jz
    step = _COV_STEP_Z1 / 4
    mean = _trapezoid_z(z * w, step, EXACT_MEAN_TOL, "order-statistic mean")
    second = _trapezoid_z(z * z * w, step, EXACT_COV_TOL, "second-moment")
    return mean, second


# typed: 2.0 and True hash and compare equal to 2 and 1, and would hit their entries
@lru_cache(maxsize=None, typed=True)
def exact_mean(family: str, i: int, n: int) -> float:
    """E of the i-th reduced order statistic by fixed-node quadrature.

    Reads the table that one trapezoid rule fills for every rank of an
    (family, N) at once (see _exact_moments), which raises ValueError for
    N > EXACT_MAX_N and QuadratureError if its error check fails.
    """
    family = paper_family(family)
    n, _ = _check_indices(n, i)
    return float(_exact_moments(family, n)[0][i - 1])


@lru_cache(maxsize=None)
def _exact_joint_moments(family: str, n: int) -> np.ndarray:
    """E[Z_i Z_j] for every pair of ranks, as a symmetric N x N table.

    The diagonal is E[Z_i^2] from _exact_moments, read first for its cost
    cap; each pair i < j is integrated once and fills both triangles.

    One trapezoid rule on fixed nodes serves every pair: z1 = a sinh(v / a)
    with v on a uniform grid of step _COV_STEP_Z1 anchored at 0 and a from
    _COV_Z1_SCALE (Jacobian cosh(v / a), every fourth node of _z1_nodes),
    and the gap t = z2 - z1 = exp(s - exp(-s)) with s on a uniform grid of
    step _COV_STEP_S over _COV_S_RANGE (Jacobian t (1 + exp(-s))). The pair
    density is bounded as t -> 0, so there the integrand in s falls like the
    Jacobian, double-exponentially, and the first node, t ~ 1e-16, leaves
    nothing to truncate. For large s the map is t ~ exp(s), and the
    density's own decay ends the grid. The integrand is analytic in both
    variables, so the rule converges exponentially in 1/step; it is
    negligible at the grid's edges, so their half weights are dropped. The
    sinh map turns the z1 tails' decay, exp(-z) for the Gumbel's right
    tail, into a double-exponential one in v, so a uniform v grid needs few
    tail nodes (see _COV_Z1_SCALE for each a). The s step binds: through
    N = 30 the error estimate is that of the s step alone, and halving the
    v step moves no pair by more than a few rounding units.

    The pair density is c_ij f1 f2 F1^(i-1) (F2 - F1)^(j-i-1) S2^(N-j); only
    its exponents depend on the pair, so no step runs once per pair. Each
    block of z1 rows evaluates the factors once in linear space (F2 - F1 is
    S1 - S2 on rows where F1 >= 1/2, see _pair_factors), builds the powers
    (F2 - F1)^b and S2^g, b, g = 0..N-2, by repeated multiplication and
    contracts them over t with the Jacobian J,
    K[z1, b, g] = sum_t z2 J f2 (F2 - F1)^b S2^g; a pair's integral is
    c_ij sum_z1 z1 J1 f1 F1^(i-1) K[z1, j-i-1, N-j], with J1 the z1
    Jacobian. Only these N(N-1)/2 entries are gathered from each block and
    summed into per-pair vectors, so no (N-1)^3 array outlives a block. The
    constants c_ij are taken in log form (gammaln), so they stay finite
    beyond N = 170.

    The error estimate per pair is |I_h - I_2h|, where I_2h sums the even
    nodes of the same grid in both variables; QuadratureError is raised if
    it exceeds EXACT_COV_TOL.
    """
    table = np.diag(_exact_moments(family, n)[1])
    z, jz = (x[::4] for x in _z1_nodes(family))
    s = _nodes(*_COV_S_RANGE, _COV_STEP_S)
    e = np.exp(-s)
    t = np.exp(s - e)
    jac = t * (1.0 + e)
    m = n - 1  # powers 0..N-2 of F1, F2 - F1 and S2
    ii, jj = np.triu_indices(n, 1)
    a, b, g = ii, jj - ii - 1, n - 1 - jj  # the exponents i-1, j-i-1 and N-j
    logc = special.gammaln(n + 1) - special.gammaln(np.stack([a, b, g]) + 1).sum(axis=0)
    scale = np.exp(logc) * (_COV_STEP_Z1 * _COV_STEP_S)
    fine, coarse = np.zeros((2, ii.size))  # per pair, summed over z1 and t
    for start in range(0, z.size, _COV_BLOCK):
        rows = slice(start, start + _COV_BLOCK)
        z1 = z[rows, None]
        z2 = z1 + t
        f1, F1, f2, S2, dF = _pair_factors(family, z1, z2)
        A, Q = np.empty((2, m) + z2.shape)  # (power, row, t); no power when N = 1
        A[:1], Q[:1] = z2 * jac * f2, 1.0
        for p in range(1, m):
            np.multiply(A[p - 1], dF, out=A[p])
            np.multiply(Q[p - 1], S2, out=Q[p])
        A, Q = A.transpose(1, 0, 2), Q.transpose(1, 2, 0)
        R = z1 * jz[rows, None] * f1 * F1 ** np.arange(m)
        fine += (R[:, a] * np.matmul(A, Q)[:, b, g]).sum(axis=0)
        coarse += (R[::2, a] * np.matmul(A[::2, :, ::2], Q[::2, ::2])[:, b, g]).sum(axis=0)
    values = scale * fine
    _check_trapezoid(values, 4.0 * scale * coarse, EXACT_COV_TOL, "joint-moment")
    table[ii, jj] = table[jj, ii] = values
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def exact_cov(family: str, i, j, n: int):
    """Covariance of reduced order statistics by quadrature.

    ``i``, ``j`` and ``n`` are as in expansion_cov. The value is
    E[Z_i Z_j] - E[Z_i] E[Z_j], read from the symmetric table of
    _exact_joint_moments (E[Z_i^2] on its diagonal) and the means of
    _exact_moments. Both tables are cached per (family, N), so this kernel
    keeps no cache of its own; each raises QuadratureError if its error
    estimate exceeds EXACT_COV_TOL, which the joint table's does from
    N = 21 (normal) and 24 (Gumbel). When i and j are equal (the variances
    alone), only _exact_moments is read, so variances reach N = EXACT_MAX_N.
    Symmetric in (i, j).
    """
    family = paper_family(family)
    n, i, j = _check_indices(n, i, j)
    i, j = i - 1, j - 1
    mean, second = _exact_moments(family, n)
    diagonal = i.shape == j.shape and (i == j).all()
    joint = second[i] if diagonal else _exact_joint_moments(family, n)[i, j]
    cov = joint - mean[i] * mean[j]
    return float(cov) if cov.ndim == 0 else cov


def ensure_spd(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Return an SPD-repaired copy of V, its lower Cholesky factor and the shift added.

    The diagonal shift starts at RIDGE_UNIT * trace(V)/N and doubles until
    Cholesky succeeds; 0.0 means the matrix was already positive definite.
    A NaN or infinite entry raises ValueError: LAPACK's Cholesky need not
    reject one.
    """
    V = _check_reals(V, "covariance")
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("covariance must be a square matrix")
    try:
        return V, np.linalg.cholesky(V), 0.0
    except np.linalg.LinAlgError:
        pass
    base = RIDGE_UNIT * float(np.trace(V)) / V.shape[0]
    if base <= 0.0:
        base = RIDGE_UNIT
    delta = base
    for _ in range(80):
        repaired = V + delta * np.eye(V.shape[0])
        try:
            return repaired, np.linalg.cholesky(repaired), delta
        except np.linalg.LinAlgError:
            delta *= 2.0
    raise np.linalg.LinAlgError("could not repair covariance to positive definite")


@dataclass(frozen=True)
class OrderStatMoments:
    """Mean vector and covariance matrix of reduced order statistics.

    L is the lower Cholesky factor of V that ensure_spd computed, so a GLS
    fit whitens with it instead of factoring V again.
    """

    family: str
    n: int
    k: int
    cov_mode: str
    y: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    L: np.ndarray = field(repr=False)
    ridge: float = 0.0


def build_moments(
    family: str, n: int, k: int = 4, cov_mode: str = EXPANSION
) -> OrderStatMoments:
    """Assemble the design moments used by generalized least squares.

    cov_mode selects the covariance model: the second-order expansion, the
    exact quadrature values, the expansion diagonal only, or the identity.
    In exact mode the mean vector is also exact and k, though checked, is unused.
    Every covariance mode makes one broadcast kernel call, O(N^2) array
    work for the full matrix, not O(N^2) Python calls.
    """
    family = paper_family(family)
    if cov_mode not in COV_MODES:
        raise ValueError("cov_mode must be one of %s" % (COV_MODES,))
    n = _check_int(n, "sample size n", 2)
    k = _check_int(k, "truncation level k", 0, 4)

    r = np.arange(1, n + 1)
    if cov_mode == EXACT:
        V = exact_cov(family, r[:, None], r, n)
        y = np.array([exact_mean(family, i, n) for i in range(1, n + 1)])
    else:
        y = expansion_mean(family, r, n, k)
        if cov_mode == IDENTITY:
            V = np.eye(n)
        elif cov_mode == DIAGONAL:
            V = np.diag(expansion_cov(family, r, r, n))
        else:
            V = expansion_cov(family, r[:, None], r, n)

    V, L, ridge = ensure_spd(V)
    return OrderStatMoments(
        family=family, n=n, k=k, cov_mode=cov_mode, y=y, V=V, L=L, ridge=ridge
    )
