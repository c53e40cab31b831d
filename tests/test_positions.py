import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppbench import (
    ALL_IDS,
    CLASSICAL_IDS,
    EUPP_ID,
    PositionFormula,
    canonical_formula_id,
    catalogue,
    classical_positions,
    make_formula,
    positions_for,
    proposed_positions,
    symmetry_check,
)
from ppbench.positions import _erto_lepore_2013_offsets

OFFSET_TABLE = {
    "weibull": (0.0, 1.0),
    "hazen": (0.5, 0.0),
    "beard": (0.31, 0.38),
    "blom": (0.375, 0.25),
    "tukey": (1 / 3, 1 / 3),
    "kerman": (1 / 3, 1 / 3),
    "gringorten": (0.44, 0.12),
    "yu_huang_normal": (0.399, 0.203),
    "yu_huang_gumbel": (0.507, 0.176),
    "de": (0.28, 0.28),
    "cunnane": (0.4, 0.2),
    "adamowski": (0.25, 0.5),
}


def test_catalogue_contents():
    ids = {f.id for f in catalogue()}
    assert ids == set(CLASSICAL_IDS)
    assert EUPP_ID not in ids  # needs a family, so not a free-standing entry
    assert EUPP_ID in ALL_IDS


@pytest.mark.parametrize("name,offsets", sorted(OFFSET_TABLE.items()))
def test_classical_offsets(name, offsets):
    f = make_formula(name)
    assert (f.rank_offset, f.size_offset) == offsets


def test_formula_aliases():
    assert canonical_formula_id("Tukey_Kerman") == "tukey"
    assert canonical_formula_id("proposed") == EUPP_ID
    assert canonical_formula_id("EL2013") == "erto_lepore_2013"
    with pytest.raises(ValueError):
        canonical_formula_id("mystery")


def test_weibull_positions_small_sample():
    p = classical_positions("weibull", 4)
    assert np.allclose(p, [0.2, 0.4, 0.6, 0.8])


def test_blom_positions_pinned_value():
    p = classical_positions("blom", 10)
    assert p[0] == pytest.approx(0.0609756097560976, rel=1e-12)
    assert p[-1] == pytest.approx(1 - 0.0609756097560976, rel=1e-12)


def test_hazen_midpoints():
    p = classical_positions("hazen", 5)
    assert np.allclose(p, [0.1, 0.3, 0.5, 0.7, 0.9])


def test_sample_size_dependent_offsets():
    # this catalogue entry recomputes its offsets from n
    a5, b5 = _erto_lepore_2013_offsets(5)
    assert a5 == pytest.approx(0.3013129676425459, rel=1e-12)
    assert b5 == pytest.approx(1 - 2 * a5, rel=1e-12)
    assert np.array_equal(positions_for("erto_lepore_2013", 5), (np.arange(1, 6) - a5) / (5 + b5))
    a30, _ = _erto_lepore_2013_offsets(30)
    assert a30 == pytest.approx(0.306, abs=0.001)


def test_symmetric_formulas_satisfy_reflection():
    # every rule whose size offset equals 1 - 2 * rank offset
    names = ("weibull", "hazen", "beard", "blom", "tukey", "gringorten",
             "cunnane", "adamowski", "erto_lepore_2013")
    for name in names:
        for n in (3, 8, 21):
            assert symmetry_check(positions_for(name, n)), (name, n)


def test_asymmetric_formulas_fail_reflection():
    for name in ("yu_huang_normal", "yu_huang_gumbel", "de"):
        assert not symmetry_check(positions_for(name, 10)), name


@given(st.sampled_from(sorted(OFFSET_TABLE)), st.integers(min_value=1, max_value=200))
@settings(max_examples=80, deadline=None)
def test_positions_strictly_increasing_inside_unit_interval(name, n):
    p = classical_positions(name, n)
    assert p.shape == (n,)
    assert np.all(p > 0) and np.all(p < 1)
    assert np.all(np.diff(p) > 0)


def test_proposed_positions_order_zero_reduces_to_weibull():
    for family in ("gumbel", "normal"):
        for n in (4, 9, 17):
            got = proposed_positions(family, n, k=0)
            ref = classical_positions("weibull", n)
            assert np.allclose(got, ref, rtol=0, atol=1e-13), (family, n)


def test_proposed_positions_depend_on_family():
    g = proposed_positions("gumbel", 10)
    m = proposed_positions("normal", 10)
    assert not np.allclose(g, m)


def test_proposed_positions_normal_nearly_symmetric():
    p = proposed_positions("normal", 12)
    assert np.max(np.abs(p + p[::-1] - 1)) < 1e-6


def test_proposed_positions_label():
    f = make_formula("proposed", family="gumbel", k=2)
    assert f.label == "eupp(gumbel, k=2)"
    assert f.id == EUPP_ID


def test_positions_for_dispatch():
    direct = proposed_positions("gumbel", 8, k=4)
    routed = positions_for("proposed", 8, family="gumbel")
    assert np.array_equal(direct, routed)
    with pytest.raises(ValueError):
        positions_for(EUPP_ID, 8)  # family required


def test_eupp_formula_validation():
    with pytest.raises(ValueError):
        PositionFormula(EUPP_ID, 0.0, 1.0, family=None)
    with pytest.raises(ValueError):
        make_formula(EUPP_ID, family="gumbel", k=7)
    # a bool is not a truncation level, though it is an int
    for bad in (True, False, 2.0):
        with pytest.raises(ValueError):
            PositionFormula(EUPP_ID, family="gumbel", k=bad)
    # every level 0..4 is legal
    for k in range(5):
        assert make_formula(EUPP_ID, family="gumbel", k=k).k == k


def test_classical_positions_input_validation():
    with pytest.raises(ValueError):
        classical_positions("weibull", 0)
    with pytest.raises(ValueError):
        classical_positions(EUPP_ID, 5)


def test_erto_lepore_needs_two_observations():
    # its offset divides by 2**(1/n) - 2, which vanishes at n = 1
    with pytest.raises(ValueError, match="erto_lepore_2013.*n >= 2"):
        classical_positions("erto_lepore_2013", 1)
    with pytest.raises(ValueError, match="erto_lepore_2013"):
        positions_for("erto_lepore", 1)
    assert positions_for("erto_lepore_2013", 2).shape == (2,)
