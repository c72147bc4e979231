"""Polygon areas and boolean operations for the subject plane.

Every occluder image the engine projects is convex (a parallel or central
projection of a rectangle, clipped to a slab) and the mirror outline is a
rectangle.

`covered_areas` gives the efficiency: the area of each mirror that its
occluder images cover, by Green's theorem over the parts of the polygon
edges that bound the covered set.  Each of those parts is one line-clip
interval per polygon, found as in Cyrus and Beck, "Generalized two- and
three-dimensional clipping" (Computers & Graphics 3(1), 1978) and Liang
and Barsky (ACM TOG 3(1), 1984).  No polygon is built.

No command runs the subtraction (`subtract_rings`, `difference`);
`render` paints the reflecting area instead.  It stays as the tests'
reference for `covered_areas` and for the benchmark under `perfbench/`.
A `Region` is a set of disjoint convex counterclockwise pieces with no
holes.  A convex polygon is subtracted from a piece as in Sutherland and
Hodgman's reentrant clipper (CACM 17(1), 1974): the piece is split by the
half-plane of each clip edge in turn, with one sign test per vertex; the
part outside the edge is a result piece, the part inside goes on to the
next edge, and what lies inside every edge is dropped.  A vertex on a
clip line belongs to both halves, so no configuration is degenerate and
nothing is traced or retried.  A non-convex polygon raises `ValueError`.

`covered_areas` takes its K rings as one padded (2, V, K) array, x and y
of V vertices with the ring last (every array of the kernel is vertex
first and pair last, so reductions run over the leading axis), as
`clean_rows` certifies them straight from the projection kernel (a ring
that fails goes through `clean_ring`); `subtract_rings` works on plain
coordinate rings, lists of (x, y) tuples.  `Polygon2` is built only for
the pieces of a returned `Region`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .polygon2d import COINCIDENCE_TOL, Polygon2, ring_signed_area

__all__ = [
    "Region",
    "clean_ring",
    "clean_rows",
    "covered_areas",
    "difference",
    "region_area",
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
        """Region of one convex polygon, of either orientation."""
        return Region.from_rings([_convex(_ccw(_ring(p)))])

    @staticmethod
    def from_rings(rings: Iterable[Sequence[Sequence[float]]]) -> "Region":
        """Region of disjoint convex counterclockwise rings."""
        return Region(components=tuple(Polygon2(r) for r in rings))


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
        if out and _coincident(x, y, *out[-1]):
            continue
        out.append((x, y))
    while len(out) >= 2 and _coincident(*out[0], *out[-1]):
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


def clean_rows(x: np.ndarray, y: np.ndarray, count: np.ndarray):
    """`clean_ring` of the rings in the columns of `x` and `y` (W, K),
    ring k's first count[k] vertices: (kept, ring_xy, lengths), the rings
    it keeps and their x and y (2, V, K') padded to V = max(4, the longest)
    vertices by repeating the last one, as `covered_areas` takes them.

    A ring that `clean_ring` would return as given is kept as it is: one
    with at least 3 vertices, no two consecutive ones coincident (the last
    and the first included), and a plain sum of the 2V' shoelace products
    t of the ring padded to V' vertices that puts its area above
    `MIN_COMPONENT_AREA` by more than four times V' eps sum|t| / 2, its
    bound off `clean_ring`'s exactly rounded sum (`math.fsum`; the
    padding's products cancel).  Every other ring goes through
    `clean_ring`, the one routine that merges, reverses or drops a ring,
    and raises its `ValueError`.
    """
    slot = np.arange(max(4, x.shape[0]))[:, None]
    last = np.maximum(count - 1, 0)
    ring_xy = np.stack([x, y])[:, np.minimum(slot, last), np.arange(len(count))]
    rx, ry = ring_xy
    nx, ny = np.roll(rx, -1, axis=0), np.roll(ry, -1, axis=0)
    with np.errstate(invalid="ignore", over="ignore"):
        ahead, behind = rx * ny, nx * ry
        area = 0.5 * (ahead.sum(axis=0) - behind.sum(axis=0))
        margin = 2.0 * len(slot) * np.finfo(float).eps * (abs(ahead) + abs(behind)).sum(axis=0)
        # every pair of consecutive vertices but the padding's
        paired = (slot < last) | (slot == slot[-1])
        merge = (_coincident(rx, ry, nx, ny) & paired).any(axis=0)
        ok = (count >= 3) & ~merge & (area - MIN_COMPONENT_AREA > margin)
    lengths = np.where(ok, count, 0)
    for k in np.flatnonzero(~ok):
        ring = clean_ring(zip(x[: count[k], k].tolist(), y[: count[k], k].tolist()))
        if ring is not None:
            ok[k], lengths[k] = True, len(ring)
            ring_xy[:, :, k] = np.transpose((ring + ring[-1:] * len(slot))[: len(slot)])
    kept = np.flatnonzero(ok)
    return kept, ring_xy[:, : max(4, int(lengths.max(initial=0))), kept], lengths[kept]


def region_area(r: Region) -> float:
    """Total area of the pieces."""
    return sum(ring_signed_area(_ring(c)) for c in r.components)


def difference(subject: Union[Region, Polygon2], clip: Polygon2) -> Region:
    """Set difference subject \\ clip, as disjoint convex pieces; a
    polygon that is not convex raises `ValueError`."""
    if isinstance(subject, Polygon2):
        subject = Region.from_polygon(subject)
    pieces = [_ring(p) for p in subject.components]
    return Region.from_rings(subtract_rings(pieces, [_ccw(_ring(clip))]))


def subtract_rings(pieces: Sequence[_Ring], clips: Iterable[_Ring]) -> List[_Ring]:
    """Disjoint convex counterclockwise rings minus each clip ring in turn,
    as disjoint convex counterclockwise rings; stops once nothing is left.

    The ring-level core of `difference`.  Clip rings are convex and
    counterclockwise, as `clean_ring` returns the engine's; one that turns
    right anywhere raises `ValueError`.
    """
    pieces = list(pieces)
    for clip in clips:
        pieces = _subtract_convex(pieces, _convex(clip))
        if not pieces:
            break
    return pieces


def covered_areas(owner: np.ndarray, ring_xy: np.ndarray, half_sizes) -> np.ndarray:
    """Area of each subject's mirror rectangle R = [-hx, hx] x [-hy, hy]
    that the union U of the subject's rings covers, for all subjects in
    one pass of array operations.

    Ring k is convex and counterclockwise, with the x and y of its
    vertices in `ring_xy[:, :, k]` (2, V, K), padded by repeating its last
    vertex, as `clean_rows` returns it, and belongs to subject owner[k];
    owners do not decrease, so each subject's rings are consecutive, in
    subtraction order.  `half_sizes[s]` is subject s's (hx, hy).  A subject's area
    does not depend on the other subjects of the call: every sum runs
    over that subject's terms in a fixed order.

    Boundary formula.  The boundary of R & U is the part of U's boundary
    inside R plus the part of R's boundary inside U.  By Green's theorem
    the area is 1/2 sum cross(p, d) * m over the edges p -> p + d of R
    and of the rings, where m is the length, in the edge's [0, 1]
    parameter, of the part that counts: for a ring edge, the part inside
    R and outside every other ring of the subject; for an edge of R, the
    part inside U.

    One interval per polygon.  A convex polygon covers one interval of an
    edge: a Cyrus-Beck clip, where the side values of the edge's two ends
    against each half-plane fix where the edge enters or leaves it.  Per
    edge, the union of the intervals of the other rings (for a ring edge,
    clipped to its interval inside R) is found by sorting them by start
    and adding what each reaches past the running maximum of the earlier
    ends.

    Collinear rule.  An edge that lies on the line of another polygon's
    edge (both side values exactly 0 and the line's direction non-zero)
    is covered by that polygon when the two edges run in opposite
    directions.  When they run the same way, it is covered only if that
    polygon comes earlier: R first, then the rings in order.  So a
    stretch of boundary that several polygons share counts once, and a
    stretch between two of them not at all.  A zero-length edge neither
    constrains nor contributes, so rings are padded to a common vertex
    count (at least 4) by repeating their last vertex, and no step needs
    a ring's own vertex count.

    Shapes.  The P polygons are one (2, V, P) table, the N ordered pairs
    gather theirs from it as (2, V, N), and intervals, windows and lengths
    are (V, N) or (V, P).

    Precondition: no T-junctions.  A vertex computed onto another
    polygon's edge gives exact zero side values in one direction only, so
    the rule can miscount the touch: two disjoint rings whose areas sum to
    27.8325 m2 gave 28.3149 m2, and 27.7947 m2 once shifted by (-8, -2).
    """
    half_sizes = np.asarray(half_sizes, dtype=float).reshape(-1, 2)
    covered = np.zeros(len(half_sizes))
    if not len(owner):
        return covered
    v = ring_xy.shape[1]

    # polygons subject by subject: R, then the subject's rings in order,
    # as the columns of a (2, V, polygons) table of x and y
    subj, m = np.unique(owner, return_counts=True)
    hx, hy = half_sizes[subj].T
    corners = [(-hx, hy), (-hx, -hy), (hx, -hy)] + [(hx, hy)] * (v - 3)
    size = m + 1
    base = np.cumsum(size) - size
    xy = np.empty((2, v, size.sum()))
    is_rect = np.zeros(xy.shape[2], dtype=bool)
    is_rect[base] = True
    xy[:, :, is_rect] = np.transpose(corners, (1, 0, 2))
    xy[:, :, ~is_rect] = ring_xy
    poly_subj = np.repeat(np.arange(len(subj)), size)
    first = base[poly_subj]

    # each ring with its R, then every ordered pair (a, b) of distinct
    # polygons of one subject with b a ring, in the order of (a, b)
    ring = np.flatnonzero(~is_rect)
    a = np.repeat(np.arange(len(poly_subj)), m[poly_subj] - ~is_rect)
    r = _ramp(m[poly_subj] - ~is_rect)
    b = first[a] + r + (r + 1 >= a - first[a]) + ~is_rect[a]
    a, b = np.concatenate([ring, a]), np.concatenate([first[ring], b])
    table = xy.reshape(2 * v, -1)
    pair = (table.take(k, axis=1).reshape(2, v, -1) for k in (a, b))
    lo, hi = _edge_intervals(*pair, later=b > a)

    # a ring edge counts only inside R, its window; an edge of R has [0, 1]
    win_lo, win_hi = np.zeros(xy.shape[1:]), np.ones(xy.shape[1:])
    win_lo[:, ring], win_hi[:, ring] = lo[:, : len(ring)], hi[:, : len(ring)]
    owners = a[len(ring) :]
    lo = np.maximum(lo[:, len(ring) :], win_lo.take(owners, axis=1))
    hi = np.minimum(hi[:, len(ring) :], win_hi.take(owners, axis=1))
    # edge k of polygon p is group k P + p; within one, pairs keep their order
    edge = np.arange(v)[:, None] * len(poly_subj) + owners
    hit = hi > lo
    union = _union_lengths(edge[hit], lo[hit], hi[hit], win_lo.size).reshape(v, -1)
    length = np.where(is_rect, union, (win_hi - win_lo) - union)

    x, y = xy
    dx, dy = np.roll(x, -1, axis=0) - x, np.roll(y, -1, axis=0) - y
    moment = x * dy - y * dx
    # summed in (polygon, vertex) order
    covered[subj] = 0.5 * np.bincount(
        np.repeat(poly_subj, v), weights=(moment * length).T.ravel(), minlength=len(subj)
    )
    return covered


# ---------------------------------------------------------------------------
# internals


def _ramp(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c in counts, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _edge_intervals(p: np.ndarray, q: np.ndarray, later: np.ndarray):
    """Cyrus-Beck clip of each edge of the padded rings p by the convex
    padded rings q, both (2, V, N), x and y of V vertices of N pairs:
    (lo, hi), (V, N), the parameter interval of each edge of p inside q,
    hi == lo when empty; `later` (N,) marks the pairs where q comes after
    p (see `covered_areas` for the collinear rule).  q's edges clip p's one
    at a time into lo, hi and the miss flags: no array exceeds V N values."""
    (px, py), (qx, qy) = p, q
    nxt = np.roll(np.arange(len(px)), -1)
    dx, dy = px[nxt] - px, py[nxt] - py
    lo, hi, miss = np.zeros(px.shape), np.ones(px.shape), np.zeros(px.shape, dtype=bool)
    s0, u, t = np.empty((3,) + px.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for h, g in enumerate(nxt):
            ex, ey = qx[g] - qx[h], qy[g] - qy[h]
            # side of each vertex of p against edge h of q (left is inside),
            # ex (py - qy) - ey (px - qx), and t = s0 / (s0 - s1), in place
            np.multiply(ex, np.subtract(py, qy[h], out=s0), out=s0)
            s0 -= np.multiply(ey, np.subtract(px, qx[h], out=u), out=u)
            s1 = s0[nxt]  # the same for the edge's other end
            np.divide(s0, np.subtract(s0, s1, out=t), out=t)
            inside0 = s0 >= 0.0
            inside1 = inside0[nxt]  # the edge enters the half-plane if > inside0
            np.maximum(lo, np.where(inside1 > inside0, t, 0.0), out=lo)
            np.minimum(hi, np.where(inside0 > inside1, t, 1.0), out=hi)
            miss |= ~(inside0 | inside1)
            zero = s0 == 0.0
            on_line = zero & zero[nxt]
            if on_line.any():
                miss |= on_line & (ex * dx + ey * dy > 0.0) & later
    return lo, np.where(miss, lo, np.maximum(lo, hi))


def _union_lengths(group: np.ndarray, lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Length of the union of the intervals [lo, hi] of each group
    0 <= g < n: sorted by start, each interval adds what it reaches past
    the running maximum of the earlier ends of its group."""
    # numpy orders complex numbers by real, then imaginary part, so
    # group + i lo sorts by group, then start, and the running maximum of
    # group + i hi is each group's running maximum of ends.  No bit
    # changes: a maximum returns one of its inputs, and the imaginary
    # parts are lo and hi exactly (a -0.0 reads as the equal 0.0)
    order = np.argsort(group + 1j * lo, kind="stable")
    group, lo, hi = group[order], lo[order], hi[order]
    reach = np.maximum.accumulate(group + 1j * hi).imag
    start = lo.copy()
    cont = group[1:] == group[:-1]
    start[1:][cont] = np.maximum(lo[1:][cont], reach[:-1][cont])
    return np.bincount(group, weights=np.maximum(hi - start, 0.0), minlength=n)


def _coincident(ax, ay, bx, by):
    """Points (ax, ay) and (bx, by) within `COINCIDENCE_TOL` in x and y;
    elementwise for arrays."""
    return (abs(ax - bx) <= COINCIDENCE_TOL) & (abs(ay - by) <= COINCIDENCE_TOL)


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


def _convex(ring: _Ring) -> _Ring:
    """The ring itself, once the cross product of (b - a) and (c - b) is
    >= 0 at every vertex b: no turn of it is a right turn."""
    for (ax, ay), (bx, by), (cx, cy) in zip(ring[-1:] + ring[:-1], ring, ring[1:] + ring[:1]):
        if not (bx - ax) * (cy - by) - (by - ay) * (cx - bx) >= 0.0:
            raise ValueError("polygon is not convex")
    return ring
