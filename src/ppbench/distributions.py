"""Location-scale distribution families for probability-paper work.

Three families are supported: the Gumbel (largest-extreme-value) law, the
Normal law, and a three-parameter log family obtained by applying the Normal
machinery to ``log(x - c)``. Every family is parameterized by a location
``a`` and a scale ``b > 0``; the log family additionally carries the lower
threshold ``c``.

The reduced variate ``Z = (X - a) / b`` (or ``(log(X - c) - a) / b`` for the
log family) is what probability paper linearizes: observed values plotted
against reduced-variate quantiles fall on the line ``x = a + b z``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy import special

GUMBEL = "gumbel"
NORMAL = "normal"
LOGNORMAL3 = "lognormal3"

FAMILIES = (GUMBEL, NORMAL, LOGNORMAL3)

_ALIASES = {
    "gumbel": GUMBEL,
    "extreme": GUMBEL,
    "ev1": GUMBEL,
    "normal": NORMAL,
    "gauss": NORMAL,
    "gaussian": NORMAL,
    "lognormal3": LOGNORMAL3,
    "lognormal": LOGNORMAL3,
    "log-normal": LOGNORMAL3,
    "log-normal3": LOGNORMAL3,
}

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DegenerateSampleError(ValueError):
    """The sample carries no scale information (all values equal, etc.)."""


_INTS = (int, np.integer)  # np.bool_ is no np.integer; bool is refused below
_REALS = _INTS + (float, np.floating)


def _check_int(value, what: str, lo: int, hi=None) -> int:
    """The one rule for a count, level, index or key: ``value`` as an int in [lo, hi].

    An int or numpy integer passes; a bool or other type raises TypeError,
    a value out of range (hi None: no upper bound) ValueError.
    """
    if not isinstance(value, _INTS) or isinstance(value, bool):
        raise TypeError("%s must be an int, got %r" % (what, value))
    v = int(value)
    if v < lo or (hi is not None and v > hi):
        if hi is None:
            span = ">= %d" % lo
        elif hi >> 32 and not hi & (hi + 1):  # hi = 2**b - 1 reads as [lo, 2**b)
            span = "in [%d, 2**%d)" % (lo, hi.bit_length())
        else:
            span = "in [%d, %d]" % (lo, hi)
        raise ValueError("%s must be an int %s, got %r" % (what, span, value))
    return v


def _check_real(value, what: str, finite: bool = True) -> float:
    """The one rule for a real argument: ``value`` as a float.

    A Python or numpy int or float passes; a bool, str, None or other type
    raises TypeError. NaN raises ValueError, and +-inf too if ``finite``.
    """
    if not isinstance(value, _REALS) or isinstance(value, bool):
        raise TypeError("%s must be a real number, got %r" % (what, value))
    v = float(value)
    if finite and not math.isfinite(v):
        raise ValueError("%s must be finite, got %r" % (what, v))
    if math.isnan(v):
        raise ValueError("%s must not be NaN" % what)
    return v


def _check_reals(values, what: str, finite: bool = True) -> np.ndarray:
    """The same rule for an array of reals: ``values`` as a float array.

    Its dtype must be integer or floating (bool, str or object raise
    TypeError); NaN or +-inf raises ValueError unless ``finite`` is False.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise TypeError("%s must be real numbers, got %s values" % (what, arr.dtype))
    arr = arr.astype(float, copy=False)
    if finite and not np.isfinite(arr).all():
        raise ValueError("%s must be finite" % what)
    return arr


def canonical_family(name: str) -> str:
    """Normalize a family name, accepting common aliases."""
    try:
        return _ALIASES[str(name).strip().lower()]
    except KeyError:
        raise ValueError(
            "unknown family %r, expected one of %s" % (name, ", ".join(FAMILIES))
        ) from None


def paper_family(name: str) -> str:
    """The family whose reduced variate ``name`` is plotted on.

    The canonical name, except that the log family reads as the normal: its
    reduced variate is the standard normal score of ``log(x - c)``.
    """
    family = canonical_family(name)
    return NORMAL if family == LOGNORMAL3 else family


@dataclass(frozen=True)
class DistributionSpec:
    """A fully specified member of one of the supported families.

    ``a`` is the location (the log-scale location for the log family),
    ``b`` the scale, ``c`` the lower threshold used only by the log family.
    """

    family: str
    a: float = 0.0
    b: float = 1.0
    c: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", canonical_family(self.family))
        for name, what in (("a", "location a"), ("b", "scale b"), ("c", "threshold c")):
            object.__setattr__(self, name, _check_real(getattr(self, name), what))
        if self.b <= 0.0:
            raise ValueError("scale must be positive, got %g" % self.b)


def reduced(family: str) -> DistributionSpec:
    """The reduced (a=0, b=1, c=0) member of a family."""
    return DistributionSpec(canonical_family(family))


def _as_probabilities(p):
    arr = _check_reals(p, "p", finite=False)
    # array methods, not np.any: these checks run on every quantile call
    if (arr <= 0.0).any() or (arr >= 1.0).any():
        raise DomainError("probability must lie strictly inside (0, 1)")
    return arr


def _ret(out: np.ndarray, arg: np.ndarray):
    return float(out) if arg.ndim == 0 else out


# The reduced parents' f, F, S and quantile, here and nowhere else in the
# package; the public functions shift and scale around these.

def _cdf_z(family: str, z: np.ndarray, out=None) -> np.ndarray:
    if family == GUMBEL:
        # the overflow of exp(-z) deep in the left tail saturates to the
        # correct limit exp(-inf) = 0, so the warning is suppressed
        if out is None:
            out = np.empty_like(z)
        with np.errstate(over="ignore"):
            np.exp(np.negative(z, out=out), out=out)
            return np.exp(np.negative(out, out=out), out=out)
    return special.ndtr(z, out=out)  # normal and the log family share the same paper


def _quantile_z(family: str, p: np.ndarray) -> np.ndarray:
    if family == GUMBEL:
        return -np.log(-np.log(p))
    return special.ndtri(p)


def _parent(family: str, z: np.ndarray, k=None):
    """f, F on the first k rows of z (all by default) and S = 1 - F, in linear space."""
    if family == GUMBEL:
        # exp(-z) overflows deep in the left tail, where f, F -> 0 and S -> 1
        with np.errstate(over="ignore"):
            e = np.exp(-z)
            return np.exp(-z - e), np.exp(-e[:k]), -np.expm1(-e)
    return np.exp(-0.5 * z * z) / _SQRT_2PI, special.ndtr(z[:k]), special.ndtr(-z)


def reduced_cdf(family: str, z, out=None):
    """CDF of the reduced variate; vectorized.

    ``out``, when given, is a float array of z's shape that receives the
    result; it may be z itself.
    """
    family = paper_family(family)
    arr = _check_reals(z, "z", finite=False)
    return _ret(_cdf_z(family, arr, out), arr)


def reduced_quantile(family: str, p):
    """Quantile of the reduced variate; vectorized, domain p in (0, 1)."""
    family = paper_family(family)
    arr = _as_probabilities(p)
    return _ret(_quantile_z(family, arr), arr)


def reduced_return_quantile(family: str, T):
    """Reduced-variate quantile at return period T, Q(1 - 1/T); vectorized.

    1 - 1/T is never formed, since it rounds to 1 for T above about 1e16:
    the Gumbel uses -log(-log1p(-1/T)) and the normal -ndtri(1/T).
    Raises DomainError unless T is finite and exceeds 1.
    """
    family = canonical_family(family)
    arr = _check_reals(T, "return period", finite=False)
    if not np.all((arr > 1.0) & np.isfinite(arr)):
        raise DomainError("return period must be finite and exceed 1")
    if family == GUMBEL:
        return _ret(-np.log(-np.log1p(-1.0 / arr)), arr)
    return _ret(-special.ndtri(1.0 / arr), arr)


def _from_reduced(d: DistributionSpec, z):
    if d.family == LOGNORMAL3:
        return d.c + np.exp(d.a + d.b * z)
    return d.a + d.b * z


def _log_excess(values, c, what: str = "the threshold c") -> np.ndarray:
    """log(x - c) of the values above the threshold c, ascending: the log family's data.

    Values at or below c drop out. A non-finite c raises ValueError, naming c as ``what``.
    """
    c = _check_real(c, what)
    x = _check_reals(values, "values", finite=False)
    return np.sort(np.log(x[x > c] - c))


def return_level(d: DistributionSpec, T) -> float:
    """The value exceeded on average once per T trials, tail-accurate in T."""
    return float(_from_reduced(d, reduced_return_quantile(d.family, T)))


def cdf(d: DistributionSpec, x):
    arr = _check_reals(x, "x", finite=False)
    if d.family == LOGNORMAL3:
        out = np.zeros_like(arr)
        above = arr > d.c
        out[above] = _cdf_z(NORMAL, (np.log(arr[above] - d.c) - d.a) / d.b)
        return _ret(out, arr)
    z = (arr - d.a) / d.b
    return _ret(_cdf_z(d.family, z), arr)


def quantile(d: DistributionSpec, p):
    """Inverse CDF. Raises DomainError unless p lies strictly in (0, 1)."""
    arr = _as_probabilities(p)
    return _ret(_from_reduced(d, _quantile_z(d.family, arr)), arr)


def _derivative_polys(first, step) -> list[np.ndarray]:
    polys = [np.array(first)]
    for r in range(1, 4):
        polys.append(step(polys[-1], r))
    return polys


# Quantile derivatives of orders 1 to 4 by recurrence, as np.polyval
# coefficients (highest power first). Normal: Q^(r) = P_r(z) g^r with
# z = ndtri(p) and g = 1/f(z), since dz/dp = g and dg/dp = z g^2, so P_1 = 1
# and P_(r+1) = P_r' + r z P_r. Gumbel: Q^(r) = R_r(y) / p^r with
# y = -1/log p, since dy/dp = y^2 / p, so R_1 = y and R_(r+1) = y^2 R_r' - r R_r.
_QD_POLYS = {
    NORMAL: _derivative_polys(
        [1.0], lambda P, r: np.polyadd(np.polyder(P), r * np.polymul([1.0, 0.0], P))
    ),
    GUMBEL: _derivative_polys(
        [1.0, 0.0], lambda R, r: np.polysub(np.polymul([1.0, 0.0, 0.0], np.polyder(R)), r * R)
    ),
}


def quantile_derivative(family: str, p, order: int):
    """Derivative of the reduced-variate quantile function, orders 1 to 4.

    The log family's quantile derivatives are the normal ones (see
    paper_family). Normal: P_r(z) g^r, with z = ndtri(p) and
    g = sqrt(2 pi) exp(z^2 / 2); P_1 = 1, P_2 = z, P_3 = 2 z^2 + 1 and
    P_4 = 6 z^3 + 7 z. Gumbel: R_r(y) / p^r, with y = -1/log p; R_1 = y,
    R_2 = y^2 - y, R_3 = 2 y^3 - 3 y^2 + 2 y and
    R_4 = 6 y^4 - 12 y^3 + 11 y^2 - 6 y. The recurrences of _QD_POLYS give them.
    """
    family = paper_family(family)
    order = _check_int(order, "derivative order", 1, 4)
    arr = _as_probabilities(p)
    poly = _QD_POLYS[family][order - 1]
    if family == GUMBEL:
        out = np.polyval(poly, -1.0 / np.log(arr)) / arr**order
    else:
        z = special.ndtri(arr)
        out = np.polyval(poly, z) * (_SQRT_2PI * np.exp(0.5 * z * z)) ** order
    return _ret(out, arr)


_WORD = (1 << 64) - 1
_KEY_MAX = (1 << 128) - 1


def sample(d: DistributionSpec, n: int, rng_seed) -> np.ndarray:
    """Draw ``n`` variates by inverse-CDF over counter-based uniforms.

    ``rng_seed`` is one int key in [0, 2**128), or a 1-D sequence of them.
    Each key names its own Philox stream, so equal keys reproduce equal
    samples regardless of what was drawn before, which is what makes Monte
    Carlo replicates independently reproducible. One key gives a vector of
    ``n`` draws; a sequence gives one row per key, and row r equals the
    one-key draw for ``rng_seed[r]`` bitwise. A bool or float n or key, an
    n below 1, a key out of range or no key raises before anything is drawn.
    """
    n = _check_int(n, "draw count n", 1)
    single = isinstance(rng_seed, _INTS)
    if not (single or isinstance(rng_seed, Iterable)) or isinstance(rng_seed, (str, bytes)):
        raise TypeError("rng_seed must be an int key or a sequence of int keys")
    keys = [_check_int(k, "stream key", 0, _KEY_MAX)
            for k in ([rng_seed] if single else rng_seed)]
    if not keys:
        raise ValueError("need at least one stream key")

    # one generator serves every key: a Philox stream is its key plus a
    # counter, so resetting both (and the output buffer) to a fresh
    # generator's state replays exactly what Philox(key=k) would draw
    gen = np.random.Generator(np.random.Philox(key=0))
    bitgen = gen.bit_generator
    fresh = bitgen.state
    u = np.empty((len(keys), n))
    for row, k in zip(u, keys):
        fresh["state"]["key"] = (k & _WORD, k >> 64)
        bitgen.state = fresh
        gen.random(out=row)
    # random() can return exactly 0.0; nudge to keep quantiles finite
    u[u == 0.0] = np.nextafter(0.0, 1.0)
    x = quantile(d, u)
    return x[0] if single else x
