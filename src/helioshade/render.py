"""SVG rendering of the subject-plane picture.

Draws exactly the geometry used in the efficiency computation — subject
outline and per-source shadow and block quads — in the subject's local
frame, with a caption carrying the computed efficiency.  The reflecting
area is painted, not computed, by the painter's algorithm (Newell, Newell
and Sancha, 1972): the mirror in yellow, then every quad in white over it.
Colors are assigned per source heliostat by a stable hash so renders of
the same field at different times stay comparable.
"""

from __future__ import annotations

import colorsys
import hashlib
from html import escape
from typing import List

from .polygon2d import Polygon2
from .shading import EfficiencyResult

__all__ = ["source_color", "render_svg"]

_MARGIN_FRAC = 0.15
_CANVAS = 640.0  # px across the larger mirror dimension


def source_color(source_id: str) -> str:
    """Deterministic saturated color for a heliostat id."""
    digest = hashlib.sha256(source_id.encode("utf-8")).digest()
    hue = int.from_bytes(digest[:4], "big") / 2**32
    r, g, b = colorsys.hls_to_rgb(hue, 0.5, 0.85)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _path(poly: Polygon2, to_px) -> str:
    pts = [to_px(p.x, p.y) for p in poly.ring]
    d = f"M {pts[0][0]:.2f},{pts[0][1]:.2f} "
    d += " ".join(f"L {x:.2f},{y:.2f}" for x, y in pts[1:])
    return d + " Z"


def render_svg(result: EfficiencyResult, path: str) -> None:
    """Write an SVG 1.1 picture of the subject plane for one evaluation."""
    hx, hy = result.half_size
    span = 2.0 * max(hx, hy) * (1.0 + 2.0 * _MARGIN_FRAC)
    scale = _CANVAS / span
    w_px = 2.0 * hx * (1.0 + 2.0 * _MARGIN_FRAC) * scale
    h_px = 2.0 * hy * (1.0 + 2.0 * _MARGIN_FRAC) * scale + 40.0

    def to_px(x: float, y: float):
        # SVG y grows downward; the local frame y grows upward
        return (
            (x + hx * (1.0 + 2.0 * _MARGIN_FRAC)) * scale,
            (hy * (1.0 + 2.0 * _MARGIN_FRAC) - y) * scale,
        )

    out: List[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w_px:.0f}" height="{h_px:.0f}" '
        f'viewBox="0 0 {w_px:.2f} {h_px:.2f}">',
        f'<rect width="{w_px:.2f}" height="{h_px:.2f}" fill="white"/>',
    ]

    outline = _path(result.outline(), to_px)

    # the reflecting area: what the white quads leave of the yellow mirror
    out.append('<g id="residual">')
    out.append(f'<path d="{outline}" fill="#f5d86b" stroke="none"/>')
    for quad in result.quads:
        out.append(f'<path d="{_path(quad.ring, to_px)}" fill="white" stroke="none"/>')
    out.append("</g>")

    for kind, dash in (("shadow", ""), ("block", ' stroke-dasharray="6 3"')):
        out.append(f'<g id="{kind}-quads">')
        for quad in result.quads:
            if quad.kind != kind:
                continue
            color = source_color(quad.source_id)
            out.append(
                f'<path d="{_path(quad.ring, to_px)}" fill="{color}" '
                f'fill-opacity="0.45" stroke="{color}" stroke-width="1.5"{dash}>'
                f"<title>{escape(quad.source_id, quote=False)} ({quad.kind})</title></path>"
            )
        out.append("</g>")

    out.append(f'<path d="{outline}" fill="none" stroke="black" stroke-width="2"/>')

    caption = (
        f"subject {result.subject_id}  e = {_fmt(result.efficiency)}  "
        f"sources: {len({q.source_id for q in result.quads})}"
    )
    cx, cy = to_px(-hx, -hy * (1.0 + 1.2 * _MARGIN_FRAC))
    out.append(
        f'<text x="{cx:.2f}" y="{cy + 24:.2f}" font-family="sans-serif" '
        f'font-size="16">{escape(caption, quote=False)}</text>'
    )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
