"""Plotting-position formulas.

A plotting position assigns a cumulative probability to the i-th smallest of
N observations so the sample can be drawn on probability paper. The classical
catalogue below uses the two-constant rule

    p_i = (i - rank_offset) / (N + size_offset)

where many entries satisfy ``size_offset = 1 - 2 * rank_offset`` (that choice
makes the positions symmetric: p_i + p_{N+1-i} = 1). The exact-unbiased
entry ("eupp") instead evaluates the reduced parent's CDF at an approximation
of the expected order statistic, so it depends on the assumed family and on
the Taylor truncation level k.

Every position function returns the positions as a 1-D float array
p_1 < ... < p_N. ``ALL_IDS`` lists the catalogue in the order of the paper's
tables: eupp first, then the classical rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .distributions import canonical_family, reduced_cdf
from .order_stats import expansion_mean

EUPP_ID = "eupp"


@dataclass(frozen=True)
class PositionFormula:
    """Identifies one way of computing plotting positions.

    Classical members carry the two offsets; the exact-unbiased member
    carries the parent family and truncation level instead.
    """

    id: str
    rank_offset: Optional[float] = None
    size_offset: Optional[float] = None
    family: Optional[str] = None
    k: int = 4

    def __post_init__(self) -> None:
        if self.id == EUPP_ID:
            if self.family is None:
                raise ValueError("the exact-unbiased formula needs a family")
            object.__setattr__(self, "family", canonical_family(self.family))
            k = self.k
            if not isinstance(k, int) or isinstance(k, bool) or k < 0 or k > 4:
                raise ValueError("truncation level k must be an int in 0..4, got %r" % (k,))

    @property
    def label(self) -> str:
        if self.id == EUPP_ID:
            return "%s(%s, k=%d)" % (self.id, self.family, self.k)
        return self.id


# Offsets (rank_offset, size_offset), in the paper's table order. Entries
# with size_offset = 1 - 2A are written out explicitly. The 0.44 constant is
# the standard extreme-value value from the 1963 plotting rule.
_CLASSICAL: dict[str, tuple[float, float]] = {
    "hazen": (0.5, 0.0),
    "beard": (0.31, 0.38),
    "blom": (0.375, 0.25),
    "tukey": (1.0 / 3.0, 1.0 / 3.0),
    "kerman": (1.0 / 3.0, 1.0 / 3.0),
    "gringorten": (0.44, 0.12),
    "yu_huang_normal": (0.399, 0.203),
    "yu_huang_gumbel": (0.507, 0.176),
    "de": (0.28, 0.28),
    "weibull": (0.0, 1.0),
    "cunnane": (0.4, 0.2),
    "adamowski": (0.25, 0.5),
}

# erto_lepore_2013 has sample-size-dependent offsets, handled separately.
# tukey and kerman share constants; both ids are kept so either name resolves.
CLASSICAL_IDS = tuple(_CLASSICAL) + ("erto_lepore_2013",)
ALL_IDS = (EUPP_ID,) + CLASSICAL_IDS

_FORMULA_ALIASES = {
    "proposed": EUPP_ID,
    "proposed_eupp": EUPP_ID,
    "eupp": EUPP_ID,
    "tukey_kerman": "tukey",
    "erto_lepore": "erto_lepore_2013",
    "el2013": "erto_lepore_2013",
}


def canonical_formula_id(name: str) -> str:
    key = str(name).strip().lower().replace("-", "_").replace(" ", "_")
    key = _FORMULA_ALIASES.get(key, key)
    if key not in ALL_IDS:
        raise ValueError(
            "unknown plotting-position formula %r; known ids: %s"
            % (name, ", ".join(ALL_IDS))
        )
    return key


def make_formula(name: str, family: Optional[str] = None, k: int = 4) -> PositionFormula:
    """Build a PositionFormula from a formula name, resolving aliases."""
    fid = canonical_formula_id(name)
    if fid == EUPP_ID:
        return PositionFormula(id=EUPP_ID, family=family, k=k)
    if fid == "erto_lepore_2013":
        return PositionFormula(id=fid)
    a, b = _CLASSICAL[fid]
    return PositionFormula(id=fid, rank_offset=a, size_offset=b)


def catalogue() -> tuple[PositionFormula, ...]:
    """Every classical formula, one entry per distinct id."""
    return tuple(make_formula(fid) for fid in CLASSICAL_IDS)


def _erto_lepore_2013_offsets(n: int) -> tuple[float, float]:
    # rank_offset(n) = n + (n - 1) / (2**(1/n) - 2); the second term is
    # negative and slightly larger than n in magnitude, leaving a small
    # positive constant near 0.3.
    a = n + (n - 1.0) / (2.0 ** (1.0 / n) - 2.0)
    return a, 1.0 - 2.0 * a


def classical_positions(f: Union[str, PositionFormula], n: int) -> np.ndarray:
    """Evaluate a two-constant formula for sample size n; returns p as a 1-D array."""
    if isinstance(f, str):
        f = make_formula(f)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("sample size must be a positive int")
    if f.id == EUPP_ID:
        raise ValueError("use proposed_positions() for the exact-unbiased formula")
    if f.id == "erto_lepore_2013":
        if n < 2:
            # its offset divides by 2**(1/n) - 2, which is 0 at n = 1
            raise ValueError("formula erto_lepore_2013 needs n >= 2, got n=%d" % n)
        a, b = _erto_lepore_2013_offsets(n)
    else:
        a, b = f.rank_offset, f.size_offset
        if a is None or b is None:
            raise ValueError("formula %r has no offsets" % (f.id,))
    i = np.arange(1, n + 1, dtype=float)
    p = (i - a) / (n + b)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError(
            "offsets (%g, %g) give positions outside (0, 1) for n=%d" % (a, b, n)
        )
    if np.any(np.diff(p) <= 0.0):
        raise ValueError("positions must be strictly increasing")
    return p


def proposed_positions(family: str, n: int, k: int = 4) -> np.ndarray:
    """Positions from approximate expected order statistics, as a 1-D array.

    p_i is the reduced parent's CDF evaluated at the k-th order Taylor
    approximation of E of the i-th reduced order statistic. With k = 0 this
    collapses to i / (n + 1) for every family.
    """
    family = canonical_family(family)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("sample size must be a positive int")
    y = expansion_mean(family, np.arange(1, n + 1), n, k)
    p = np.asarray(reduced_cdf(family, y), dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("expected order statistics map outside (0, 1)")
    return p


def positions_for(
    f: Union[str, PositionFormula], n: int, family: Optional[str] = None
) -> np.ndarray:
    """Dispatch between the classical rule and the exact-unbiased rule.

    Returns p as a 1-D array. ``family`` is read only to build a formula
    given by name; an exact-unbiased formula always carries its own family.
    """
    if isinstance(f, str):
        f = make_formula(f, family=family)
    if f.id == EUPP_ID:
        return proposed_positions(f.family, n, f.k)
    return classical_positions(f, n)


def symmetry_check(p: np.ndarray, tol: float = 1e-12) -> bool:
    """True when p_i + p_{n+1-i} = 1 to within tol for all i."""
    s = p + p[::-1]
    return bool(np.max(np.abs(s - 1.0)) <= tol)
