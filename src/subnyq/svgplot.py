"""Minimal deterministic SVG line charts for sweep summaries.

Emits a self-contained SVG string: log-scale y, linear x, one polyline per
series value plus an optional dashed reference curve.  No plotting library
is used so that the output is a pure function of the input rows and reruns
are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .experiments import SUMMARY_COLUMNS, SweepSummary, config_from_dict

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 32
_MARGIN_B = 56

_SERIES_COLORS = {"sngem": "#1f77b4", "omp": "#d62728"}
_FALLBACK_COLORS = ("#2ca02c", "#9467bd", "#8c564b", "#e377c2")

# the two axes a summary sweeps over
_SWEEP_COLUMNS = ("snr_db", "compression")


@dataclass(frozen=True)
class PlotSpec:
    """What to draw from a summary table.

    x is the swept axis, y the (log-scaled) value column, series the
    grouping column.  When neither x nor series consumes one of the sweep
    axes, the summary must be constant along it or fixed_value must pick a
    slice.  reference_curve names a column drawn as a dashed black line
    (empty or null disables it).
    """

    x: str = "snr_db"
    y: str = "rmse_f_rel"
    series: str = "method"
    reference_curve: str | None = "crb_rel"
    fixed_value: float | None = None
    title: str = ""
    output: str | None = None

    def __post_init__(self):
        if self.x not in _SWEEP_COLUMNS:
            raise ValueError(f"x must be one of {_SWEEP_COLUMNS}, got {self.x!r}")
        for label, name in (("y", self.y), ("series", self.series)):
            if name not in SUMMARY_COLUMNS:
                raise ValueError(f"{label} column {name!r} not in summary schema")
        if self.reference_curve is not None and self.reference_curve != "":
            if self.reference_curve not in SUMMARY_COLUMNS:
                raise ValueError(
                    f"reference_curve column {self.reference_curve!r} "
                    "not in summary schema"
                )
        if self.series == self.y or self.series == self.x:
            raise ValueError("series column must differ from x and y")


def plot_spec_from_dict(doc: dict) -> PlotSpec:
    return config_from_dict(PlotSpec, doc, "plot spec")


def _fmt_num(v: float) -> str:
    return f"{v:.6g}"


def _nice_ticks(lo: float, hi: float, target: int = 6):
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _decade_ticks(lo_e: int, hi_e: int):
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def _series_from_summary(summary: SweepSummary, spec: PlotSpec):
    if not summary.rows:
        raise ValueError("summary has no rows to plot")
    held = [c for c in _SWEEP_COLUMNS if c != spec.x and c != spec.series]
    rows = [r for r in summary.rows if getattr(r, spec.x) is not None]
    if not rows:
        raise ValueError(f"summary has no rows with a {spec.x} value")
    for col in held:
        vals = sorted({getattr(r, col) for r in rows if getattr(r, col) is not None})
        if spec.fixed_value is not None:
            rows = [r for r in rows if getattr(r, col) == spec.fixed_value]
            if not rows:
                raise ValueError(
                    f"no rows with {col} == {spec.fixed_value}; have {vals}"
                )
        elif len(vals) > 1:
            raise ValueError(
                f"summary spans several {col} values {vals}; "
                "set fixed_value to pick one"
            )

    series: dict = {}
    reference: list = []
    ref_col = spec.reference_curve or None
    for r in sorted(rows, key=lambda r: getattr(r, spec.x)):
        y = getattr(r, spec.y)
        if y is None:
            continue
        if y <= 0.0:
            raise ValueError(
                f"{spec.y} contains a nonpositive value {y}; "
                "log-scale plots need positive data"
            )
        x = getattr(r, spec.x)
        series.setdefault(getattr(r, spec.series), []).append((x, y))
        if ref_col is not None:
            ref = getattr(r, ref_col)
            if ref is not None and ref > 0.0 and (x, ref) not in reference:
                reference.append((x, ref))
    if not series:
        raise ValueError(f"no plottable {spec.y} values after filtering")
    return series, reference


def render_chart(summary: SweepSummary, spec: PlotSpec) -> str:
    """Render the summary to an SVG document string."""
    series, reference = _series_from_summary(summary, spec)

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    ys += [y for _, y in reference]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    y_lo_e = math.floor(math.log10(min(ys)))
    y_hi_e = math.ceil(math.log10(max(ys)))
    if y_hi_e == y_lo_e:
        y_hi_e += 1

    px_w = _WIDTH - _MARGIN_L - _MARGIN_R
    px_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y: float) -> float:
        frac = (math.log10(y) - y_lo_e) / (y_hi_e - y_lo_e)
        return _MARGIN_T + (1.0 - frac) * px_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if spec.title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{spec.title}</text>'
        )

    for ty in _decade_ticks(y_lo_e, y_hi_e):
        yy = sy(ty)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{yy:.2f}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{yy:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{yy + 4:.2f}" text-anchor="end">'
            f"1e{round(math.log10(ty))}</text>"
        )
    for tx in _nice_ticks(x_lo, x_hi):
        xx = sx(tx)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{_MARGIN_T}" x2="{xx:.2f}" '
            f'y2="{_HEIGHT - _MARGIN_B}" stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{_HEIGHT - _MARGIN_B + 16}" '
            f'text-anchor="middle">{_fmt_num(tx)}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{px_w}" height="{px_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + px_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle">{spec.x}</text>'
    )
    parts.append(
        f'<text transform="translate(16,{_MARGIN_T + px_h / 2:.1f}) rotate(-90)" '
        f'text-anchor="middle">{spec.y}</text>'
    )

    def polyline(pts, color, dash=None):
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )

    legend = []
    if reference:
        if len(reference) > 1:
            parts.append(polyline(reference, "#000000", dash="6 4"))
        legend.append((str(spec.reference_curve), "#000000", "6 4"))
    fallback = iter(_FALLBACK_COLORS)
    for key in sorted(series, key=str):
        color = _SERIES_COLORS.get(key) or next(fallback, "#7f7f7f")
        pts = series[key]
        if len(pts) > 1:
            parts.append(polyline(pts, color))
        # markers keep single-point series visible
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
            )
        label = key if isinstance(key, str) else _fmt_num(key)
        legend.append((label, color, None))

    lx = _MARGIN_L + 12
    ly = _MARGIN_T + 10
    for i, (label, color, dash) in enumerate(legend):
        yy = ly + 18 * i
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{lx}" y1="{yy}" x2="{lx + 28}" y2="{yy}" '
            f'stroke="{color}" stroke-width="1.5"{dash_attr}/>'
        )
        parts.append(f'<text x="{lx + 34}" y="{yy + 4}">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_chart(summary: SweepSummary, spec: PlotSpec, path) -> None:
    svg = render_chart(summary, spec)
    with open(path, "w", newline="") as fh:
        fh.write(svg)
