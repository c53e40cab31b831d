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


def canonical_family(name: str) -> str:
    """Normalize a family name, accepting common aliases."""
    try:
        return _ALIASES[str(name).strip().lower()]
    except KeyError:
        raise ValueError(
            "unknown family %r, expected one of %s" % (name, ", ".join(FAMILIES))
        ) from None


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
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        if not math.isfinite(self.a) or not math.isfinite(self.b):
            raise ValueError("location and scale must be finite")
        if self.b <= 0.0:
            raise ValueError("scale must be positive, got %g" % self.b)


def reduced(family: str) -> DistributionSpec:
    """The reduced (a=0, b=1, c=0) member of a family."""
    return DistributionSpec(canonical_family(family))


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, (arr.ndim == 0)


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


# Reduced-variate CDF / quantile / density. All heavy lifting happens here on
# the standard member; the public functions shift and scale around these.

def _cdf_z(family: str, z: np.ndarray) -> np.ndarray:
    if family == GUMBEL:
        # the overflow of exp(-z) deep in the left tail saturates to the
        # correct limit exp(-inf) = 0, so the warning is suppressed
        with np.errstate(over="ignore"):
            return np.exp(-np.exp(-z))
    return special.ndtr(z)  # normal and the log family share the same paper


def _quantile_z(family: str, p: np.ndarray) -> np.ndarray:
    if family == GUMBEL:
        return -np.log(-np.log(p))
    return special.ndtri(p)


def _pdf_z(family: str, z: np.ndarray) -> np.ndarray:
    if family == GUMBEL:
        with np.errstate(over="ignore"):
            return np.exp(-z - np.exp(-z))
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def reduced_cdf(family: str, z):
    """CDF of the reduced variate; vectorized."""
    family = canonical_family(family)
    if family == LOGNORMAL3:
        family = NORMAL
    arr, scalar = _as_array(z)
    return _ret(_cdf_z(family, arr), scalar)


def reduced_quantile(family: str, p):
    """Quantile of the reduced variate; vectorized, domain p in (0, 1)."""
    family = canonical_family(family)
    if family == LOGNORMAL3:
        family = NORMAL
    arr, scalar = _as_array(p)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("probability must lie strictly inside (0, 1)")
    return _ret(_quantile_z(family, arr), scalar)


def reduced_return_quantile(family: str, T):
    """Reduced-variate quantile at return period T, Q(1 - 1/T); vectorized.

    1 - 1/T is never formed, since it rounds to 1 for T above about 1e16:
    the Gumbel uses -log(-log1p(-1/T)) and the normal -ndtri(1/T).
    Raises DomainError unless T is finite and exceeds 1.
    """
    family = canonical_family(family)
    arr, scalar = _as_array(T)
    if not np.all((arr > 1.0) & np.isfinite(arr)):
        raise DomainError("return period must be finite and exceed 1")
    if family == GUMBEL:
        return _ret(-np.log(-np.log1p(-1.0 / arr)), scalar)
    return _ret(-special.ndtri(1.0 / arr), scalar)


def _from_reduced(d: DistributionSpec, z):
    if d.family == LOGNORMAL3:
        return d.c + np.exp(d.a + d.b * z)
    return d.a + d.b * z


def return_level(d: DistributionSpec, T) -> float:
    """The value exceeded on average once per T trials, tail-accurate in T."""
    return float(_from_reduced(d, reduced_return_quantile(d.family, float(T))))


def cdf(d: DistributionSpec, x):
    arr, scalar = _as_array(x)
    if d.family == LOGNORMAL3:
        out = np.zeros_like(arr)
        above = arr > d.c
        z = (np.log(arr[above] - d.c) - d.a) / d.b
        out[above] = special.ndtr(z)
        return _ret(out, scalar)
    z = (arr - d.a) / d.b
    return _ret(_cdf_z(d.family, z), scalar)


def pdf(d: DistributionSpec, x):
    arr, scalar = _as_array(x)
    if d.family == LOGNORMAL3:
        out = np.zeros_like(arr)
        above = arr > d.c
        t = arr[above] - d.c
        z = (np.log(t) - d.a) / d.b
        out[above] = np.exp(-0.5 * z * z) / (_SQRT_2PI * d.b * t)
        return _ret(out, scalar)
    z = (arr - d.a) / d.b
    return _ret(_pdf_z(d.family, z) / d.b, scalar)


def quantile(d: DistributionSpec, p):
    """Inverse CDF. Raises DomainError unless p lies strictly in (0, 1)."""
    arr, scalar = _as_array(p)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("probability must lie strictly inside (0, 1)")
    return _ret(_from_reduced(d, _quantile_z(d.family, arr)), scalar)


def quantile_derivative(family: str, p, order: int):
    """Derivative of the reduced-variate quantile function, orders 1 to 4.

    For the log family the reduced variate is the standard normal score of
    ``log(x - c)``, so its quantile derivatives are the normal ones.

    Closed forms, with ``L = log p`` and ``u = p L`` for the Gumbel family
    and ``g = sqrt(2 pi) exp(z^2 / 2)`` (the reciprocal normal density at
    ``z = ndtri(p)``) for the normal family:

    ======  ==========================  =========================
    order   Gumbel                      Normal
    ======  ==========================  =========================
    1       -1 / u                      g
    2       (1 + L) / u^2               z g^2
    3       (L - 2 (1+L)^2) / u^3       (1 + 2 z^2) g^3
    4       (6 (1+L)^3 - 7 L^2 - 6 L)   z (7 + 6 z^2) g^4
            / u^4
    ======  ==========================  =========================
    """
    family = canonical_family(family)
    if family == LOGNORMAL3:
        family = NORMAL
    if not isinstance(order, int) or isinstance(order, bool):
        raise TypeError("order must be an int")
    if order < 1 or order > 4:
        raise ValueError("unsupported derivative order %d, expected 1..4" % order)
    arr, scalar = _as_array(p)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("probability must lie strictly inside (0, 1)")

    if family == GUMBEL:
        L = np.log(arr)
        u = arr * L  # negative on (0, 1)
        if order == 1:
            out = -1.0 / u
        elif order == 2:
            out = (1.0 + L) / u**2
        elif order == 3:
            out = (L - 2.0 * (1.0 + L) ** 2) / u**3
        else:
            out = (6.0 * (1.0 + L) ** 3 - 7.0 * L**2 - 6.0 * L) / u**4
        return _ret(out, scalar)

    z = special.ndtri(arr)
    g = _SQRT_2PI * np.exp(0.5 * z * z)
    if order == 1:
        out = g
    elif order == 2:
        out = z * g**2
    elif order == 3:
        out = (1.0 + 2.0 * z * z) * g**3
    else:
        out = z * (7.0 + 6.0 * z * z) * g**4
    return _ret(out, scalar)


def sample(d: DistributionSpec, n: int, rng_seed: int) -> np.ndarray:
    """Draw ``n`` variates by inverse-CDF over counter-based uniforms.

    The stream is keyed directly by ``rng_seed``; equal keys reproduce equal
    samples regardless of what was drawn before, which is what makes Monte
    Carlo replicates independently reproducible.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("n must be an int")
    if n < 1:
        raise ValueError("need at least one draw, got n=%d" % n)
    gen = np.random.Generator(np.random.Philox(key=int(rng_seed)))
    u = gen.random(n)
    # random() can return exactly 0.0; nudge to keep quantiles finite
    u[u == 0.0] = np.nextafter(0.0, 1.0)
    return quantile(d, u)
