"""Deterministic SVG rendering of probability paper.

The output is assembled from explicitly ordered strings with fixed float
formatting, so the same PlotSpec always yields byte-identical SVG. That
makes plots testable with plain file comparison and keeps version-control
diffs meaningful.

Geometry: the horizontal axis carries the reduced variate, the left axis
the observed (or transformed) values, and a secondary scale along the top
edge labels the reduced variate with cumulative probabilities through the
family's CDF. Observations are drawn as circle markers, the fitted line as
a single clipped segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence, Tuple

import numpy as np

from .distributions import _check_reals, canonical_family, reduced_quantile

DEFAULT_PROB_TICKS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)

_W, _H = 640.0, 440.0
_L, _R, _T, _B = 70.0, 30.0, 56.0, 50.0  # margins


@dataclass(frozen=True)
class PlotSpec:
    """Everything needed to draw one probability-paper chart.

    points are (reduced_variate, value) pairs; they are stored sorted by the
    reduced variate. fitted_line is an optional (intercept, slope) pair in
    value = intercept + slope * reduced_variate form. Points and line
    parameters must be finite (ValueError otherwise).
    """

    title: str
    family: str
    points: Tuple[Tuple[float, float], ...]
    fitted_line: Optional[Tuple[float, float]] = None
    prob_ticks: Sequence[float] = DEFAULT_PROB_TICKS
    x_label: str = "reduced variate"
    y_label: str = "observed value"

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", canonical_family(self.family))
        pts = _check_reals(self.points, "points").tolist()
        object.__setattr__(self, "points", tuple(sorted((y, x) for y, x in pts)))
        ticks = tuple(_check_reals(self.prob_ticks, "probability ticks").tolist())
        if any(t <= 0.0 or t >= 1.0 for t in ticks):
            raise ValueError("probability ticks must lie strictly inside (0, 1)")
        object.__setattr__(self, "prob_ticks", ticks)
        if self.fitted_line is not None:
            a, b = _check_reals(self.fitted_line, "fitted line").tolist()
            object.__setattr__(self, "fitted_line", (a, b))


def _fmt_num(v: float) -> str:
    out = "%.6g" % v
    return "0" if out == "-0" else out


def _escape(text: str) -> str:
    """Escape &, > and < for XML text, as xml.sax.saxutils.escape does.

    Importing that module loads urllib.request and http.client, about
    15 ms of every ``import ppbench``.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # step is below the float spacing at t
            break
        t += step
    return ticks


def emit_probability_paper(spec: PlotSpec, path: Optional[str] = None) -> str:
    """Render a PlotSpec to an SVG string; optionally write it to path."""
    n = len(spec.points)
    if n < 2:
        raise ValueError("need at least two points to draw probability paper")

    zs, xs = np.fromiter(chain.from_iterable(spec.points), float, 2 * n).reshape(n, 2).T
    tick_z = reduced_quantile(spec.family, np.array(spec.prob_ticks))

    z_all = np.concatenate([zs, tick_z])
    z_lo, z_hi = float(z_all.min()), float(z_all.max())
    z_pad = 0.04 * (z_hi - z_lo) or 1.0
    z_lo, z_hi = z_lo - z_pad, z_hi + z_pad

    x_lo, x_hi = float(xs.min()), float(xs.max())
    if spec.fitted_line is not None:
        a, b = spec.fitted_line
        x_lo = min(x_lo, a + b * z_lo, a + b * z_hi)
        x_hi = max(x_hi, a + b * z_lo, a + b * z_hi)
    x_pad = 0.06 * (x_hi - x_lo) or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    if not (math.isfinite(z_hi - z_lo) and math.isfinite(x_hi - x_lo)):
        raise ValueError("points and line span too wide a range to draw")

    px0, px1 = _L, _W - _R
    py0, py1 = _T, _H - _B

    # map floats or arrays to pixels; the same expression either way, so a
    # coordinate does not depend on how it was batched
    def sx(z):
        return px0 + (z - z_lo) / (z_hi - z_lo) * (px1 - px0)

    def sy(x):
        return py1 - (x - x_lo) / (x_hi - x_lo) * (py1 - py0)

    # pixel coordinates are written with a fixed two decimals (%.2f), which
    # keeps the output byte-stable
    parts = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (int(_W), int(_H), int(_W), int(_H))
    )
    parts.append('<rect width="%d" height="%d" fill="white"/>' % (int(_W), int(_H)))
    parts.append(
        '<text x="%.2f" y="22" font-family="sans-serif" font-size="14" '
        'text-anchor="middle">%s</text>' % ((px0 + px1) / 2, _escape(spec.title))
    )
    parts.append(
        '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="none" '
        'stroke="black" stroke-width="1"/>' % (px0, py0, px1 - px0, py1 - py0)
    )

    def tick(line, text_xy, size, anchor, value):
        """A tick mark from line's (x1, y1, x2, y2) and value's label at text_xy."""
        parts.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1"/>'
            % line
        )
        parts.append(
            '<text x="%.2f" y="%.2f" font-family="sans-serif" font-size="%d" '
            'text-anchor="%s">%s</text>' % (*text_xy, size, anchor, _fmt_num(value))
        )

    # probability scale along the top edge, dotted guides down the panel
    for t, X in zip(spec.prob_ticks, sx(tick_z).tolist()):
        parts.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="silver" '
            'stroke-width="0.5" stroke-dasharray="2,3"/>' % (X, py0, X, py1)
        )
        tick((X, py0 - 4, X, py0), (X, py0 - 7), 9, "middle", t)
    for z in _nice_ticks(z_lo, z_hi):
        X = sx(z)
        tick((X, py1, X, py1 + 4), (X, py1 + 16), 10, "middle", z)
    for x in _nice_ticks(x_lo, x_hi):
        Y = sy(x)
        tick((px0 - 4, Y, px0, Y), (px0 - 7, Y + 3), 10, "end", x)

    parts.append(
        '<text x="%.2f" y="%.2f" font-family="sans-serif" font-size="11" '
        'text-anchor="middle">%s</text>' % ((px0 + px1) / 2, py1 + 34, _escape(spec.x_label))
    )
    parts.append(
        '<text x="16" y="%.2f" font-family="sans-serif" font-size="11" '
        'text-anchor="middle" transform="rotate(-90 16 %.2f)">%s</text>'
        % ((py0 + py1) / 2, (py0 + py1) / 2, _escape(spec.y_label))
    )
    parts.append(
        '<text x="%.2f" y="%.2f" font-family="sans-serif" font-size="9" '
        'text-anchor="start">cumulative probability (%s)</text>'
        % (px0, py0 - 22, _escape(spec.family))
    )

    if spec.fitted_line is not None:
        a, b = spec.fitted_line
        parts.append(
            '<line class="fit" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
            'stroke="crimson" stroke-width="1.5"/>'
            % (sx(z_lo), sy(a + b * z_lo), sx(z_hi), sy(a + b * z_hi))
        )

    marker = (
        '<circle class="marker" cx="%.2f" cy="%.2f" r="3" fill="none" '
        'stroke="navy" stroke-width="1.2"/>'
    )
    parts.extend(marker % xy for xy in zip(sx(zs).tolist(), sy(xs).tolist()))

    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
    return svg
