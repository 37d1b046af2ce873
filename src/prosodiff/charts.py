"""Tiny deterministic SVG chart writer (bars and lines).

Hand-rolled on purpose: output bytes must be bit-stable across reruns, so
no timestamps, random ids or library version strings may leak in.
"""

from __future__ import annotations

from html import escape
from pathlib import Path

WIDTH, HEIGHT = 640, 360
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ("#4878a8", "#e49444", "#5aa469", "#d1615d")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="16">{escape(title, quote=False)}</text>',
    ]


def _y_scale(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    inner = HEIGHT - MARGIN_T - MARGIN_B

    def to_px(v: float) -> float:
        return MARGIN_T + inner * (1.0 - (v - lo) / span)

    return to_px, lo, hi


def _y_axis(parts: list[str], to_px, lo: float, hi: float) -> None:
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = to_px(v)
        parts.append(f'<line x1="{MARGIN_L}" y1="{_fmt(y)}" x2="{WIDTH - MARGIN_R}" y2="{_fmt(y)}" stroke="#dddddd"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" font-size="11">{v:.3g}</text>')


def write_bar_chart(path: str | Path, labels: list[str], values: list[float], title: str) -> None:
    if len(labels) != len(values) or not labels:
        raise ValueError("labels and values must be nonempty and equal length")
    to_px, lo, hi = _y_scale(min(0.0, min(values)), max(values))
    parts = _header(title)
    _y_axis(parts, to_px, lo, hi)
    inner_w = WIDTH - MARGIN_L - MARGIN_R
    slot = inner_w / len(values)
    bar_w = slot * 0.6
    base = to_px(max(0.0, lo))
    for i, (label, value) in enumerate(zip(labels, values)):
        x = MARGIN_L + slot * i + (slot - bar_w) / 2
        top = to_px(value)
        y, h = (top, base - top) if value >= 0 else (base, top - base)
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" height="{_fmt(h)}" '
            f'fill="{PALETTE[i % len(PALETTE)]}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + bar_w / 2)}" y="{HEIGHT - MARGIN_B + 18}" '
            f'text-anchor="middle" font-size="11">{escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def write_line_chart(
    path: str | Path,
    x_values: list[float],
    series: dict[str, list[float]],
    title: str,
    x_label: str = "",
) -> None:
    if not series or not x_values:
        raise ValueError("need x values and at least one series")
    all_vals = [v for vs in series.values() for v in vs]
    to_px, lo, hi = _y_scale(min(all_vals), max(all_vals))
    x_lo, x_hi = min(x_values), max(x_values)
    x_span = (x_hi - x_lo) or 1.0
    inner_w = WIDTH - MARGIN_L - MARGIN_R

    def x_px(v: float) -> float:
        return MARGIN_L + inner_w * (v - x_lo) / x_span

    parts = _header(title)
    _y_axis(parts, to_px, lo, hi)
    for i, (name, vs) in enumerate(sorted(series.items())):
        if len(vs) != len(x_values):
            raise ValueError(f"series {name} length mismatch")
        points = " ".join(f"{_fmt(x_px(x))},{_fmt(to_px(v))}" for x, v in zip(x_values, vs))
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16 * i + 12}" text-anchor="end" '
            f'font-size="11" fill="{color}">{escape(name, quote=False)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" '
            f'text-anchor="middle" font-size="12">{escape(x_label, quote=False)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
