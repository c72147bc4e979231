"""2D polygon primitives: shoelace area, orientation, even-odd membership.

Degenerate queries (point exactly on an edge or vertex) never fail; they are
resolved by a fixed symbolic-perturbation rule so that every configuration
behaves like a nearby non-degenerate one.  The canonical perturbation moves
the query point by +eps along x with a subordinate +eps' along y, which is
exactly what the half-open comparisons below implement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "COINCIDENCE_TOL",
    "Point2",
    "Polygon2",
    "contains",
    "contains_many",
]

# Coordinates are O(1e3) m; 1e-9 m is far below physical meaning and well
# above double-precision noise at these magnitudes.
COINCIDENCE_TOL = 1e-9


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True)
class Polygon2:
    """Simple polygon stored as an open ring (last vertex != first)."""

    ring: Tuple[Point2, ...]

    def __init__(self, ring: Iterable[Point2]):
        pts = tuple(
            p if isinstance(p, Point2) else Point2(float(p[0]), float(p[1]))
            for p in ring
        )
        if len(pts) < 3:
            raise ValueError("degenerate polygon: fewer than 3 vertices")
        for p in pts:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError("degenerate polygon: non-finite coordinate")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            if abs(a.x - b.x) <= COINCIDENCE_TOL and abs(a.y - b.y) <= COINCIDENCE_TOL:
                raise ValueError("degenerate polygon: consecutive coincident vertices")
        object.__setattr__(self, "ring", pts)


def ring_signed_area(pts: Sequence[Tuple[float, float]]) -> float:
    """Shoelace area of a ring given as (x, y) pairs; positive iff the
    ring is counterclockwise.

    Terms are combined with exact summation so reversing the ring negates
    the result exactly.
    """
    n = len(pts)
    terms = []
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        terms.append(ax * by)
        terms.append(-bx * ay)
    return 0.5 * math.fsum(terms)


def contains(p: Polygon2, pt: Point2) -> bool:
    """Even-odd membership with a +x ray.

    The half-open comparisons resolve on-edge and through-vertex queries as
    if the point were shifted by (+eps, +eps^2): a point on a left edge is
    inside, a point on a right edge is outside, always deterministically.
    """
    px, py = pt.x, pt.y
    inside = False
    ring = p.ring
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        if (a.y > py) != (b.y > py):
            x_int = a.x + (py - a.y) * (b.x - a.x) / (b.y - a.y)
            if px < x_int:
                inside = not inside
    return inside


def contains_many(p: Polygon2, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized `contains` for arrays of query points.

    Applies exactly the same half-open rule, so it agrees with the scalar
    test point for point, including degenerate queries.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    inside = np.zeros(xs.shape, dtype=bool)
    ring = p.ring
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        straddle = (a.y > ys) != (b.y > ys)
        if not straddle.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            x_int = a.x + (ys - a.y) * (b.x - a.x) / (b.y - a.y)
        crossing = straddle & (xs < x_int)
        inside ^= crossing
    return inside
