import hashlib
import math
from xml.sax.saxutils import escape

import numpy as np
import pytest

from ppbench import PlotSpec, emit_probability_paper, proposed_positions, quantile, reduced


def _spec(n=46, line=(2.0, 0.5), title="demo"):
    z = quantile(reduced("gumbel"), proposed_positions("gumbel", n))
    x = 2.0 + 0.5 * z + 0.01 * np.sin(np.arange(n))
    return PlotSpec(title=title, family="gumbel",
                    points=tuple(zip(z.tolist(), x.tolist())), fitted_line=line)


def test_marker_count_matches_points():
    svg = emit_probability_paper(_spec())
    assert svg.count('class="marker"') == 46
    assert svg.count('class="fit"') == 1
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_repeat_emission_byte_identical():
    a = emit_probability_paper(_spec())
    b = emit_probability_paper(_spec())
    assert a == b


def test_fit_line_toggle():
    spec = _spec(line=None)
    svg = emit_probability_paper(spec)
    assert 'class="fit"' not in svg


def test_points_sorted_regardless_of_input_order():
    pts = ((1.0, 3.0), (-1.0, 1.0), (0.0, 2.0))
    spec = PlotSpec(title="t", family="normal", points=pts)
    assert spec.points == ((-1.0, 1.0), (0.0, 2.0), (1.0, 3.0))


def test_probability_scale_labels_present():
    svg = emit_probability_paper(_spec())
    for label in ("0.01", "0.5", "0.99"):
        assert label in svg


def test_too_few_points_rejected():
    spec = PlotSpec(title="t", family="normal", points=((0.0, 1.0),))
    with pytest.raises(ValueError):
        emit_probability_paper(spec)


def test_bad_prob_ticks_rejected():
    with pytest.raises(ValueError):
        PlotSpec(title="t", family="normal", points=((0.0, 1.0), (1.0, 2.0)),
                 prob_ticks=(0.5, 1.0))


def test_title_escaping():
    svg = emit_probability_paper(_spec(title="a < b & c"))
    assert "a &lt; b &amp; c" in svg
    assert "a < b & c" not in svg
    # the module's own escape does what xml.sax.saxutils.escape does
    title = "x > y & &lt; <"
    assert ">%s</text>" % escape(title) in emit_probability_paper(_spec(title=title))


def test_file_output_matches_string(tmp_path):
    out = tmp_path / "chart.svg"
    returned = emit_probability_paper(_spec(), path=str(out))
    assert out.read_text(encoding="utf-8") == returned


def test_coordinates_rounded_for_stability():
    svg = emit_probability_paper(_spec())
    for token in ('cx="', 'cy="'):
        start = 0
        while True:
            idx = svg.find(token, start)
            if idx < 0:
                break
            val = svg[idx + len(token):svg.index('"', idx + len(token))]
            assert len(val.split(".")[-1]) <= 2, val
            start = idx + 1


_AWKWARD_POINTS = ((5.5, -2.1), (-3.1, 4.0), (-0.5, 2.5), (-0.5, 2.5), (0.0, 2.0), (0.0, 2.25),
                   (1.2, 1.0), (3.4, -0.75), (1.0 / 3.0, 1e-3))


# Digests recorded from the scalar, point-by-point emitter; the array-built
# one must write the same bytes. The awkward points hold ties, lie beyond
# both ends of the probability ticks (gumbel ticks span about -1.53 .. 4.60)
# and are fitted by negative slopes.
@pytest.mark.parametrize("spec, digest", [
    (PlotSpec(title="ties & <slope>", family="gumbel", points=_AWKWARD_POINTS,
              fitted_line=(2.0, -0.8)),
     "cd016ac2925a574e918b55255ac41d763a42c204b672bea5bb65982bb1dda201"),
    (PlotSpec(title="n", family="normal", points=_AWKWARD_POINTS,
              fitted_line=(-1.0 / 7.0, -2.5), prob_ticks=(0.001, 0.3, 0.999)),
     "2c23105a413b02167fd5c059f61d6fb695e2818cf9022219818de35483c3eee5"),
    # no probability ticks, and every span zero, so both pads fall back to 1
    (PlotSpec(title="t", family="normal", points=((0.0, 1.0), (0.0, 1.0)),
              fitted_line=(1.0, 0.0), prob_ticks=()),
     "b978b62d995d24e537440e00b94b80e1c791ae1ae1de74ecf0c7d1adb49fb297"),
])
def test_awkward_chart_bytes_are_pinned(spec, digest):
    svg = emit_probability_paper(spec)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest
    assert svg.count('class="marker"') == len(spec.points)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        PlotSpec(title="t", family="normal", points=((0.0, 1.0), (1.0, bad)))
    with pytest.raises(ValueError, match="finite"):
        PlotSpec(title="t", family="normal", points=((bad, 1.0), (1.0, 2.0)))


@pytest.mark.parametrize("line", [(math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0),
                                  (0.0, -math.inf)])
def test_non_finite_fitted_line_rejected(line):
    with pytest.raises(ValueError, match="finite"):
        PlotSpec(title="t", family="normal", points=((0.0, 1.0), (1.0, 2.0)),
                 fitted_line=line)


def test_range_too_wide_to_draw_rejected():
    # finite values whose span overflows would reach the tick layout as inf
    spec = PlotSpec(title="t", family="normal", points=((0.0, -1e308), (1.0, 1e308)))
    with pytest.raises(ValueError, match="too wide"):
        emit_probability_paper(spec)
