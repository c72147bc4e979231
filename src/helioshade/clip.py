"""Boolean operations on 2D polygons held as disjoint convex pieces.

Every occluder image the engine subtracts is convex (a parallel or central
projection of a rectangle, clipped to a slab) and the mirror outline is a
rectangle, so a `Region` is a set of disjoint convex counterclockwise
pieces with no holes.  A convex polygon is subtracted from a piece as in
Sutherland and Hodgman's reentrant clipper (CACM 17(1), 1974): the piece
is split by the half-plane of each clip edge in turn, with one sign test
per vertex; the part outside the edge is a result piece, the part inside
goes on to the next edge, and what lies inside every edge is dropped.  A
vertex on a clip line belongs to both halves, so no configuration is
degenerate and nothing is traced or retried.  A non-convex input polygon
is first cut into convex pieces by ear clipping.

The work happens on plain coordinate rings, lists of (x, y) tuples:
`subtract_rings` is the core the engine calls directly, and `Polygon2`
is built only for the pieces of a returned `Region`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .polygon2d import COINCIDENCE_TOL, Polygon2, ring_signed_area

__all__ = [
    "Region",
    "clean_ring",
    "difference",
    "intersection",
    "region_area",
    "rings_area",
    "subtract_rings",
]

# Pieces below this area are numerical slivers and are dropped; they would
# otherwise accumulate across the 2N subtractions.
MIN_COMPONENT_AREA = 1e-12

_Point = Tuple[float, float]
_Ring = List[_Point]


@dataclass(frozen=True)
class Region:
    """Union of disjoint convex counterclockwise polygons."""

    components: Tuple[Polygon2, ...]

    @staticmethod
    def from_polygon(p: Polygon2) -> "Region":
        return Region.from_rings(_convex_rings(_ccw(_ring(p))))

    @staticmethod
    def from_rings(rings: Iterable[Sequence[Sequence[float]]]) -> "Region":
        """Region of disjoint convex counterclockwise rings."""
        return Region(components=tuple(Polygon2(r) for r in rings))

    @staticmethod
    def empty() -> "Region":
        return Region(components=())


def clean_ring(pts: Iterable[Sequence[float]]) -> Optional[_Ring]:
    """Counterclockwise ring of (x, y) tuples from a raw ring, or None if
    nothing is left.

    Consecutive vertices closer than the coincidence tolerance are merged,
    and a ring with fewer than 3 vertices or less than
    `MIN_COMPONENT_AREA` of area is dropped.  A non-finite coordinate
    raises `ValueError`, as it does in `Polygon2`.
    """
    out: _Ring = []
    for x, y in pts:
        if out and _coincident((x, y), out[-1]):
            continue
        out.append((x, y))
    while len(out) >= 2 and _coincident(out[0], out[-1]):
        out.pop()
    if len(out) < 3:
        return None
    area = ring_signed_area(out)
    if abs(area) < MIN_COMPONENT_AREA:
        return None
    # a NaN or infinite coordinate makes the shoelace sum non-finite
    if not math.isfinite(area):
        raise ValueError("degenerate polygon: non-finite coordinate")
    if area < 0:
        out.reverse()
    return out


def rings_area(rings: Iterable[_Ring]) -> float:
    """Total area of counterclockwise rings."""
    return sum(ring_signed_area(r) for r in rings)


def region_area(r: Region) -> float:
    """Total area of the pieces."""
    return rings_area(_ring(c) for c in r.components)


def intersection(a: Polygon2, b: Polygon2) -> Region:
    """Region of points in both polygons: each piece of `a` clipped by the
    half-planes of each piece of `b`."""
    out: List[_Ring] = []
    pieces_b = _convex_rings(_ccw(_ring(b)))
    for ring_a in _convex_rings(_ccw(_ring(a))):
        for ring_b in pieces_b:
            if not _boxes_meet(ring_a, ring_b):
                continue
            rest = ring_a
            for e0, e1 in _edges(ring_b):
                rest, _ = _split(rest, e0, e1)
                if len(rest) < 3:
                    break
            ring = clean_ring(rest)
            if ring is not None:
                out.append(ring)
    return Region.from_rings(out)


def difference(subject: Union[Region, Polygon2], clip: Polygon2) -> Region:
    """Set difference subject \\ clip, as disjoint convex pieces."""
    if isinstance(subject, Polygon2):
        subject = Region.from_polygon(subject)
    pieces = [_ring(p) for p in subject.components]
    return Region.from_rings(subtract_rings(pieces, [_ccw(_ring(clip))]))


def subtract_rings(pieces: Sequence[_Ring], clips: Iterable[_Ring]) -> List[_Ring]:
    """Disjoint convex counterclockwise rings minus each clip ring in turn,
    as disjoint convex counterclockwise rings; stops once nothing is left.

    The ring-level core of `difference`.  Clip rings are counterclockwise,
    as `clean_ring` returns them; a non-convex one is cut by ear clipping.
    """
    pieces = list(pieces)
    for clip in clips:
        for c in _convex_rings(clip):
            pieces = _subtract_convex(pieces, c)
        if not pieces:
            break
    return pieces


# ---------------------------------------------------------------------------
# internals


def _coincident(p: _Point, q: _Point) -> bool:
    return abs(p[0] - q[0]) <= COINCIDENCE_TOL and abs(p[1] - q[1]) <= COINCIDENCE_TOL


def _ring(p: Polygon2) -> _Ring:
    return [(v.x, v.y) for v in p.ring]


def _ccw(ring: _Ring) -> _Ring:
    return ring[::-1] if ring_signed_area(ring) < 0 else ring


def _edges(ring: _Ring):
    return zip(ring, ring[1:] + ring[:1])


def _boxes_meet(a: _Ring, b: _Ring) -> bool:
    ax = [x for x, _ in a]
    ay = [y for _, y in a]
    bx = [x for x, _ in b]
    by = [y for _, y in b]
    return (
        min(ax) <= max(bx)
        and min(bx) <= max(ax)
        and min(ay) <= max(by)
        and min(by) <= max(ay)
    )


def _subtract_convex(pieces: Sequence[_Ring], clip: _Ring) -> List[_Ring]:
    """Pieces minus one convex counterclockwise clip ring."""
    out: List[_Ring] = []
    for piece in pieces:
        if not _boxes_meet(piece, clip):
            out.append(piece)
            continue
        rest = piece
        for e0, e1 in _edges(clip):
            rest, outside = _split(rest, e0, e1)
            ring = clean_ring(outside)
            if ring is not None:
                out.append(ring)
            if len(rest) < 3:
                break
    return out


def _split(ring: _Ring, a: _Point, b: _Point) -> Tuple[_Ring, _Ring]:
    """(inside, outside): the parts of a convex ring left and right of the
    directed line a -> b.  A vertex on the line goes to both parts; an
    edge that crosses the line is cut at one shared point."""
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    sides = [dx * (y - ay) - dy * (x - ax) for x, y in ring]
    if min(sides) >= 0.0:
        return ring, []
    if max(sides) <= 0.0:
        return [], ring
    inside: _Ring = []
    outside: _Ring = []
    n = len(ring)
    for i in range(n):
        p, s = ring[i], sides[i]
        if s >= 0.0:
            inside.append(p)
        if s <= 0.0:
            outside.append(p)
        q, t = ring[(i + 1) % n], sides[(i + 1) % n]
        if (s > 0.0 > t) or (s < 0.0 < t):
            f = s / (s - t)
            cut = (p[0] + f * (q[0] - p[0]), p[1] + f * (q[1] - p[1]))
            inside.append(cut)
            outside.append(cut)
    return inside, outside


def _turn(a, b, c) -> float:
    """Cross product of (b - a) and (c - b): positive for a left turn at b."""
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])


def _is_convex(ring: _Ring) -> bool:
    n = len(ring)
    return all(_turn(ring[i - 1], ring[i], ring[(i + 1) % n]) >= 0.0 for i in range(n))


def _convex_rings(ring: _Ring) -> List[_Ring]:
    """A counterclockwise ring as disjoint convex counterclockwise rings:
    itself when convex, else cut by ear clipping."""
    if _is_convex(ring):
        return [ring]
    ring = list(ring)
    pieces: List[_Ring] = []
    while not _is_convex(ring):
        n = len(ring)
        for i in range(n):
            a, b, c = ring[i - 1], ring[i], ring[(i + 1) % n]
            if _turn(a, b, c) > 0.0 and not any(
                _turn(a, b, q) > 0.0 and _turn(b, c, q) > 0.0 and _turn(c, a, q) > 0.0
                for k, q in enumerate(ring)
                if k not in ((i - 1) % n, i, (i + 1) % n)
            ):
                break
        else:
            raise ValueError("polygon is not simple: no ear to cut")
        ear = clean_ring([a, b, c])
        if ear is not None:
            pieces.append(ear)
        del ring[i]
    rest = clean_ring(ring)
    if rest is not None:
        pieces.append(rest)
    return pieces
