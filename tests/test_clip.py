import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    areas,
    is_convex_ccw,
    overlap_area,
    pieces_disjoint,
    region_matches,
    xy,
)
from helioshade.clip import (
    Region,
    clean_ring,
    clean_rows,
    difference,
    region_area,
    subtract_rings,
)
from helioshade.clip import _edge_intervals, _union_lengths
from helioshade.polygon2d import Polygon2, contains_many, ring_signed_area


def square(x0, y0, s):
    return Polygon2([(x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s)])


def cycles_equal(ring, expected, tol=1e-9):
    """Ring equality up to rotation of the cycle."""
    pts = [(p.x, p.y) for p in ring]
    if len(pts) != len(expected):
        return False
    n = len(pts)
    for shift in range(n):
        rot = pts[shift:] + pts[:shift]
        if all(
            abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol
            for a, b in zip(rot, expected)
        ):
            return True
    return False


# -- difference golden figure ----------------------------------------------


def test_difference_traced_cycle():
    a = Polygon2([(0, 0), (4, 0), (4, 4), (0, 4)])
    b = Polygon2([(3, 3), (5, 3), (5, 5), (3, 5)])
    r = difference(Region.from_polygon(a), b)
    expected = Polygon2([(4, 3), (3, 3), (3, 4), (0, 4), (0, 0), (4, 0)])
    assert region_area(r) == pytest.approx(15.0, abs=1e-12)
    assert all(is_convex_ccw(c) for c in r.components)
    assert pieces_disjoint(r)
    assert region_matches(r, lambda x, y: contains_many(expected, x, y), [expected])


def test_difference_disjoint_keeps_subject():
    a = square(0, 0, 1)
    r = difference(Region.from_polygon(a), square(5, 5, 1))
    assert len(r.components) == 1
    assert cycles_equal(r.components[0].ring, [(p.x, p.y) for p in a.ring])


def test_difference_half_overlap():
    # shared top/bottom edges are degenerate and resolve via symbolic
    # perturbation, so exactness is only to the coincidence tolerance
    r = difference(Region.from_polygon(square(0, 0, 1)), square(0.5, 0, 1))
    assert region_area(r) == pytest.approx(0.5, abs=1e-9)


def test_difference_hole():
    a = square(0, 0, 2)
    b = square(0.5, 0.5, 1)
    r = difference(Region.from_polygon(a), b)
    assert region_area(r) == pytest.approx(3.0, abs=1e-12)
    assert all(is_convex_ccw(c) for c in r.components)
    assert pieces_disjoint(r)
    assert region_matches(
        r, lambda x, y: contains_many(a, x, y) & ~contains_many(b, x, y), [a, b]
    )


def test_difference_erases_identical():
    r = difference(Region.from_polygon(square(0, 0, 1)), square(0, 0, 1))
    assert region_area(r) == pytest.approx(0.0, abs=1e-12)


def test_difference_takes_either_orientation():
    a, b = square(0, 0, 4), square(3, 3, 2)
    cw_a, cw_b = Polygon2(a.ring[::-1]), Polygon2(b.ring[::-1])
    for subject, clip in ((cw_a, b), (a, cw_b), (cw_a, cw_b)):
        r = difference(subject, clip)
        assert region_area(r) == pytest.approx(15.0, abs=1e-12)
        assert all(is_convex_ccw(c) for c in r.components)
        assert pieces_disjoint(r)
        assert region_matches(
            r, lambda x, y: contains_many(a, x, y) & ~contains_many(b, x, y), [a, b]
        )


def test_non_convex_polygons_are_refused():
    bent = [(-1.5, -1.5), (1.5, -1.5), (0, 0), (1.5, 1.5), (-1.5, 1.5)]
    calls = [
        lambda: Region.from_polygon(Polygon2(bent)),
        lambda: Region.from_polygon(Polygon2(bent[::-1])),
        lambda: difference(Polygon2(bent), square(0, 0, 1)),
        lambda: difference(square(0, 0, 1), Polygon2(bent)),
        lambda: subtract_rings([rect(-2, -2, 2, 2)], [bent]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="polygon is not convex"):
            call()


def test_pieces_disjoint_tells_an_overlap_from_a_shared_edge():
    assert not pieces_disjoint(Region(components=(square(0, 0, 1), square(1 - 1e-9, 0, 1))))
    assert pieces_disjoint(Region(components=(square(0, 0, 1), square(1, 0, 1))))
    assert pieces_disjoint(Region(components=(square(0, 0, 1), square(1, 1, 1))))


def test_region_area_trivial():
    assert region_area(Region(components=())) == 0.0
    assert region_area(Region.from_polygon(square(0, 0, 1))) == pytest.approx(1.0)


# -- random property suite --------------------------------------------------


def random_quad(rng, scale=10.0):
    """Random convex quadrilateral.

    Vertices in sorted angular order around a center are simple only if
    every angular gap stays below pi, hence the resampling bounds; the
    quad is redrawn until no turn of it is a right turn.
    """
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=4))
        gaps = np.diff(ang, append=ang[0] + 2 * np.pi)
        while np.min(gaps) < 0.15 or np.max(gaps) > 3.0:
            ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=4))
            gaps = np.diff(ang, append=ang[0] + 2 * np.pi)
        rad = rng.uniform(0.3, 1.0, size=4) * scale
        cx, cy = rng.uniform(-scale, scale, size=2)
        quad = Polygon2(
            [(cx + r * np.cos(a), cy + r * np.sin(a)) for r, a in zip(rad, ang)]
        )
        if is_convex_ccw(quad, tol=0.0):
            return quad


def test_area_conservation_1000_pairs(rng):
    for _ in range(1000):
        a = random_quad(rng)
        b = random_quad(rng)
        area_a = ring_signed_area(xy(a))
        diff = region_area(difference(Region.from_polygon(a), b))
        inter = overlap_area(a, b)
        assert diff + inter == pytest.approx(area_a, rel=1e-9, abs=1e-9)


def test_idempotence_and_monotonicity(rng):
    for _ in range(300):
        a = random_quad(rng)
        b = random_quad(rng)
        r1 = difference(Region.from_polygon(a), b)
        assert region_area(r1) <= ring_signed_area(xy(a)) + 1e-9
        r2 = difference(r1, b)
        a1, a2 = region_area(r1), region_area(r2)
        assert a2 <= a1 + 1e-9
        assert a2 == pytest.approx(a1, rel=1e-9, abs=1e-9)


def test_random_quads_match_point_set(rng):
    overlapping = 0
    for _ in range(100):
        a = random_quad(rng)
        b = random_quad(rng)
        overlapping += overlap_area(a, b) > 1e-9
        r = difference(a, b)
        assert all(is_convex_ccw(c) for c in r.components)
        assert pieces_disjoint(r)
        assert region_matches(
            r, lambda x, y: contains_many(a, x, y) & ~contains_many(b, x, y), [a, b]
        )
    assert overlapping > 20


def _raster_area(region_or_poly, x0, y0, x1, y1, cells=2048):
    xs = np.linspace(x0, x1, cells, endpoint=False) + (x1 - x0) / cells / 2.0
    ys = np.linspace(y0, y1, cells, endpoint=False) + (y1 - y0) / cells / 2.0
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    if isinstance(region_or_poly, Region):
        inside = np.zeros(gx.shape, dtype=bool)
        for comp in region_or_poly.components:
            inside ^= contains_many(comp, gx, gy)
    else:
        inside = contains_many(region_or_poly, gx, gy)
    cell = ((x1 - x0) / cells) * ((y1 - y0) / cells)
    return inside.sum() * cell, cell


def test_raster_oracle_agreement(rng):
    # only overlapping pairs are rastered: for a disjoint pair the result
    # is trivial (the whole subject)
    rastered = 0
    for _ in range(100):
        a = random_quad(rng)
        b = random_quad(rng)
        if overlap_area(a, b) <= 1e-9:
            continue
        rastered += 1
        r = difference(a, b)
        pts = np.vstack([xy(a), xy(b)])
        x0, y0 = pts.min(axis=0) - 0.1
        x1, y1 = pts.max(axis=0) + 0.1
        approx, cell = _raster_area(r, x0, y0, x1, y1)
        exact = region_area(r)
        perim = sum(
            float(np.sum(np.hypot(*np.diff(np.vstack([xy(c), xy(c)[:1]]), axis=0).T)))
            for c in r.components
        )
        cell_len = np.sqrt(cell)
        tol = max(2.0 * cell_len * (perim + 4.0 * cell_len), 4.0 * cell)
        assert abs(approx - exact) <= tol
        if rastered == 5:
            break
    assert rastered == 5


# -- covered_areas against subtraction ---------------------------------------

# Mirror half sizes of the kernel cases; a 0.5 grid puts ring edges on the
# mirror's edges as well as on each other's.
HX, HY = 2.0, 1.5


def rect(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


KERNEL_CASES = {
    "two identical": [rect(-1, -1, 1, 1)] * 2,
    "three identical": [rect(-1, -1, 1, 1)] * 3,
    "larger than the mirror": [rect(-5, -4, 5, 4)],
    "edge on the mirror boundary": [rect(0, -1.5, 3, 0)],
    "the mirror itself": [rect(-HX, -HY, HX, HY)],
    "touching from outside": [rect(HX, -1, 3, 1)],
    "shared edge": [rect(-1, -1, 0, 1), rect(0, -1, 1, 1)],
    "partial collinear overlap": [rect(-1, -1, 0.5, 0.5), rect(0, -1, 1.5, 0.3)],
    "opposite edges on the boundary": [rect(-1, -HY, 1, 0), rect(-1, -3, 1, -HY)],
    "padded pentagon": [[(-1, -1), (1, -1), (1.5, 0), (1, 1), (-1, 1)], rect(0, 0, 3, 3)],
    "padded hexagon": [
        [(-1, -1), (0, -1.5), (1, -1), (1, 1), (0, 1.5), (-1, 1)],
        rect(-3, 0, 0, 3),
    ],
    "nested, inner last": [rect(-1, -1, 1, 1), rect(-0.5, -0.5, 0.5, 0.5)],
    "nested, inner first": [rect(-0.5, -0.5, 0.5, 0.5), rect(-1, -1, 1, 1)],
    "vertex touch": [rect(-1, -1, 0, 0), rect(0, 0, 1, 1)],
}


def convex_hull(points):
    """Counterclockwise hull of points, collinear points dropped."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0.0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(pts[::-1])[:-1]


def random_convex_sets(rng, count):
    """`count` sets of 1..7 convex rings (triangles to hexagons) around the
    mirror; every third set has its vertices snapped to a 0.5 grid."""
    sets = []
    for k in range(count):
        rings = []
        for _ in range(int(rng.integers(1, 8))):
            ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, int(rng.integers(3, 7))))
            pts = rng.uniform(-2.5, 2.5, 2) + rng.uniform(0.5, 2.5) * np.stack(
                [np.cos(ang), np.sin(ang)], axis=1
            )
            if k % 3 == 0:
                pts = np.round(2.0 * pts) / 2.0
            hull = convex_hull(map(tuple, pts.tolist()))
            ring = clean_ring(hull) if len(hull) >= 3 else None
            if ring is not None:
                rings.append(ring)
        sets.append(rings)
    return sets


def subtracted_area(rings, hx=HX, hy=HY):
    outline = rect(-hx, -hy, hx, hy)
    return 4.0 * hx * hy - region_area(Region.from_rings(subtract_rings([outline], rings)))


def _edges_of(ring):
    return list(zip(ring, ring[1:] + ring[:1]))


def shares_an_edge_stretch(polygons):
    """True if an edge of one polygon overlaps, with positive length, an
    edge of another on the same line."""
    for k, p in enumerate(polygons):
        for q in polygons[k + 1:]:
            for (a, b) in _edges_of(p):
                for (c, d) in _edges_of(q):
                    ex, ey = d[0] - c[0], d[1] - c[1]
                    if any(ex * (y - c[1]) - ey * (x - c[0]) != 0.0 for x, y in (a, b)):
                        continue
                    ee = ex * ex + ey * ey
                    t0, t1 = sorted(((x - c[0]) * ex + (y - c[1]) * ey) / ee for x, y in (a, b))
                    if min(t1, 1.0) > max(t0, 0.0):
                        return True
    return False


@pytest.mark.parametrize("name", list(KERNEL_CASES))
def test_covered_area_of_hand_built_cases(name):
    rings = [clean_ring(r) for r in KERNEL_CASES[name]]
    got = areas([rings], [(HX, HY)])[0]
    assert abs(got - subtracted_area(rings)) <= 1e-12 * 4.0 * HX * HY


def test_covered_areas_match_subtraction_on_random_sets(rng):
    sets = random_convex_sets(rng, 1200)
    half = rng.uniform(1.0, 2.0, (len(sets), 2))
    # every third set keeps the 0.5-grid mirror, so the snapped rings can
    # lie on its edges
    half[::3] = HX, HY
    got = areas(sets, half)
    coincident = 0
    for k, rings in enumerate(sets):
        hx, hy = half[k]
        area = 4.0 * hx * hy
        assert abs(got[k] - subtracted_area(rings, hx, hy)) <= 1e-12 * area, k
        # a subject's area does not depend on the others of its call
        assert areas([rings], [half[k]])[0] == got[k]
        coincident += shares_an_edge_stretch([rect(-hx, -hy, hx, hy)] + rings)
    assert coincident >= 120


# Two disjoint convex rings that meet in a T-junction: p's last vertex is
# q's second.  The side of q's third vertex against p's edge into that
# vertex rounds to exactly 0, the side of p's third vertex against q's
# edge out of it does not, so one shared stretch is counted once instead
# of cancelling, and the error depends on the origin.
T_JUNCTION = [
    [(8.93568956055094, 5.088142611901413), (3.1640526917278122, 3.184169119096521),
     (0.8801184371555264, -5.197873272005045), (8.148559955436525, 2.6420351238469113)],
    [(8.063223254246646, 2.3768402405264037), (8.148559955436525, 2.6420351238469113),
     (7.991632251017146, 2.4727692882032017)],
]


@pytest.mark.xfail(
    strict=True, reason="the area kernel's float side signs miscount a T-junction"
)
@pytest.mark.parametrize("shift", [(0.0, 0.0), (-8.0, -2.0)], ids=["as-given", "shifted"])
def test_covered_areas_of_a_t_junction(shift):
    rings = [[(x + shift[0], y + shift[1]) for x, y in ring] for ring in T_JUNCTION]
    kept, ring_xy, _ = clean_rows(*rows_of(rings))
    got = covered_areas(np.zeros(len(kept), dtype=int), ring_xy, [(10.0, 10.0)])[0]
    # the sum of the two rings' areas, as `subtract_rings` gives it
    assert abs(got - 27.832545840661975) <= 1e-9


def test_edge_intervals_follow_the_collinear_rule():
    # an opposite stretch bounds the union on both sides and cancels in
    # the area whether both edges count or neither, so the rule is pinned
    # here, on the bottom edge (0, 0) -> (2, 0) of p
    p = rect(0, 0, 2, 1)
    below = rect(0, -1, 2, 0)  # its top edge runs the opposite way
    above = rect(0, 0, 2, 2)  # its bottom edge runs the same way
    # padded by repeating the last vertex: two zero-length edges
    around = rect(-5, -5, 5, 5) + [(-5, 5)] * 2
    cases = [(below, True, 1.0), (below, False, 1.0), (above, True, 0.0), (above, False, 1.0)]
    for q, later, covered in cases:
        lo, hi = _edge_intervals(np.array([p]).T, np.array([q]).T, np.array([later]))
        assert hi[0, 0] - lo[0, 0] == covered, (q, later)
    lo, hi = _edge_intervals(np.array([p + p[-1:] * 2]).T, np.array([around]).T, np.array([True]))
    assert np.array_equal((hi - lo).T, np.ones((1, 6)))


def edge_intervals_all_at_once(p, q, later):
    """`_edge_intervals` with pairs first: p and q are (N, V, 2), every
    edge of q is tested against every vertex of p in one (V, V, N) side
    table, and (lo, hi) are (N, V).  The reference for the kernel that
    takes q's edges one at a time."""
    v = p.shape[1]
    nxt = (np.arange(v) + 1) % v
    px, py = np.ascontiguousarray(p.transpose(2, 1, 0))
    dx, dy = px[nxt] - px, py[nxt] - py
    qx, qy = np.ascontiguousarray(q.transpose(2, 1, 0))[:, :, None]
    ex, ey = qx[nxt] - qx, qy[nxt] - qy
    # side of vertex k of p against edge h of q (left is inside): V x V x N
    s0 = ex * (py - qy) - ey * (px - qx)
    s1 = s0[:, nxt]  # the same for the edge's other end
    with np.errstate(divide="ignore", invalid="ignore"):
        t = s0 / (s0 - s1)
    inside0, inside1 = s0 >= 0.0, s1 >= 0.0
    lo = np.where(inside1 & ~inside0, t, 0.0).max(axis=0)
    hi = np.where(inside0 & ~inside1, t, 1.0).min(axis=0)
    same_way = (s0 == 0.0) & (s1 == 0.0) & (ex * dx + ey * dy > 0.0)
    miss = (~inside0 & ~inside1).any(axis=0) | (same_way.any(axis=0) & later)
    return lo.T, np.where(miss, lo, np.maximum(lo, hi)).T


HALF_GRID = st.integers(-4, 4).map(lambda v: v / 2.0)


@st.composite
def convex_rings(draw):
    """A counterclockwise convex ring with vertices on a 0.5 grid: an
    axis-parallel rectangle or the hull of 3-6 grid points."""
    if draw(st.booleans()):
        x0, x1 = sorted(draw(st.lists(HALF_GRID, min_size=2, max_size=2, unique=True)))
        y0, y1 = sorted(draw(st.lists(HALF_GRID, min_size=2, max_size=2, unique=True)))
        return rect(x0, y0, x1, y1)
    hull = convex_hull(draw(st.lists(st.tuples(HALF_GRID, HALF_GRID), min_size=3, max_size=6)))
    assume(len(hull) >= 3)
    return hull


@st.composite
def ring_pairs(draw):
    """(p, q, later) with q convex: another grid ring, which shares
    vertices and edge lines with p by chance; p itself, from any vertex
    (every edge collinear, the same way); p shifted on the grid; or a
    triangle on one edge of p, outside it (that edge the opposite way) or
    inside it (the same way)."""
    p = draw(convex_rings())
    how = draw(st.sampled_from(["other", "itself", "shifted", "outside", "inside"]))
    if how == "other":
        q = draw(convex_rings())
    elif how == "itself":
        k = draw(st.integers(0, len(p) - 1))
        q = p[k:] + p[:k]
    elif how == "shifted":
        sx, sy = draw(HALF_GRID), draw(HALF_GRID)
        q = [(x + sx, y + sy) for x, y in p]
    else:
        k = draw(st.integers(0, len(p) - 1))
        (ax, ay), (bx, by) = p[k], p[(k + 1) % len(p)]
        # a point off the middle of a -> b, to its right (outside p) or left
        sign = 1.0 if how == "outside" else -1.0
        c = ((ax + bx) / 2 + sign * (by - ay), (ay + by) / 2 - sign * (bx - ax))
        q = [(bx, by), (ax, ay), c] if how == "outside" else [(ax, ay), (bx, by), c]
    return p, q, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(st.lists(ring_pairs(), min_size=1, max_size=8), st.integers(0, 2))
def test_edge_intervals_match_the_all_at_once_kernel(pairs, extra):
    # every ring padded to one vertex count by repeating its last vertex
    ps, qs, later = zip(*pairs)
    v = max(4, *(len(r) for r in ps + qs)) + extra
    p, q = (np.array([r + r[-1:] * (v - len(r)) for r in rings]) for rings in (ps, qs))
    later = np.array(later)
    lo, hi = _edge_intervals(p.T, q.T, later)
    ref_lo, ref_hi = edge_intervals_all_at_once(p, q, later)
    assert lo.T.tobytes() == ref_lo.tobytes()
    assert hi.T.tobytes() == ref_hi.tobytes()


def union_lengths_by_doubling(group, lo, hi, n):
    """`_union_lengths` with the running maximum of ends taken as a
    segmented doubling scan: the reference for its one-pass scan."""
    order = np.lexsort((lo, group))
    group, lo, hi = group[order], lo[order], hi[order]
    reach = hi.copy()
    shift = 1
    while shift < len(reach):
        same = group[shift:] == group[:-shift]
        if not same.any():
            break
        reach[shift:] = np.where(same, np.maximum(reach[shift:], reach[:-shift]), reach[shift:])
        shift *= 2
    start = lo.copy()
    cont = group[1:] == group[:-1]
    start[1:][cont] = np.maximum(lo[1:][cont], reach[:-1][cont])
    return np.bincount(group, weights=np.maximum(hi - start, 0.0), minlength=n)


# parameters on a coarse grid tie often; -0.0 ties with 0.0, and an
# interval with hi <= lo is empty
ENDS = st.one_of(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(st.integers(0, n - 1), ENDS, ENDS), max_size=40)
        )
    )
)
def test_union_lengths_match_the_doubling_scan(case):
    n, intervals = case
    group = np.array([g for g, _, _ in intervals], dtype=np.intp)
    lo = np.array([a for _, a, _ in intervals], dtype=float)
    hi = np.array([b for _, _, b in intervals], dtype=float)
    got = _union_lengths(group, lo, hi, n)
    assert got.tobytes() == union_lengths_by_doubling(group, lo, hi, n).tobytes()


# -- clean_rows against clean_ring -------------------------------------------


def rows_of(rings, width=None):
    """Raw rings as the (x, y, count) rows `clean_rows` takes; the columns
    after a ring's vertices hold junk it must not read."""
    width = width or max(len(r) for r in rings)
    x = np.full((len(rings), width), np.inf)
    y = np.full((len(rings), width), np.nan)
    for k, ring in enumerate(rings):
        x[k, : len(ring)], y[k, : len(ring)] = zip(*ring)
    return x.T, y.T, np.array([len(r) for r in rings])


def assert_cleans_like_clean_ring(rings, width=None):
    kept, ring_xy, lengths = clean_rows(*rows_of(rings, width))
    expected = [clean_ring(r) for r in rings]
    assert kept.tolist() == [k for k, ring in enumerate(expected) if ring is not None]
    longest = max([4] + [len(ring) for ring in expected if ring is not None])
    assert ring_xy.T.shape == (len(kept), longest, 2)
    for k, padded, n in zip(kept.tolist(), ring_xy.T.tolist(), lengths.tolist()):
        assert [tuple(p) for p in padded[:n]] == expected[k], k
        assert all(tuple(p) == expected[k][-1] for p in padded[n:]), k


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

CLEAN_CASES = {
    "kept as given": SQUARE,
    "two vertices 5e-10 apart": [(0, 0), (1, 0), (1 + 5e-10, 5e-10), (1, 1), (0, 1)],
    "near a merged vertex, not the kept one": [(0, 0), (1, 0), (1, 6e-10), (1, 1.2e-9), (0.5, 1)],
    "closing vertex on the first": SQUARE + [(3e-10, -2e-10)],
    "two closing vertices popped": [(0, 0), (1, 0), (1, 1), (9e-10, 9e-10), (-9e-10, -9e-10)],
    "clockwise": SQUARE[::-1],
    "clockwise hexagon": [(0.0, 0.0), (-1.0, 1.0), (-1.0, 2.0), (0.0, 3.0), (1.0, 2.0), (1.0, 1.0)],
    "1e-13 m2 sliver": [(0.0, 0.0), (1.0, 0.0), (0.5, 2e-13)],
    "clockwise 1e-13 m2 sliver": [(0.0, 0.0), (0.5, 2e-13), (1.0, 0.0)],
    "3e-12 m2 sliver": [(0.0, 0.0), (1.0, 0.0), (0.5, 6e-12)],
    "third vertex on the first": [(0.0, 0.0), (1.0, 0.0), (0.0, 2e-13)],
    "merged below 3 vertices": [(0.0, 0.0), (1.0, 0.0), (1.0, 5e-10)],
    "two vertices": [(0.0, 0.0), (1.0, 0.0)],
    "collinear, zero area": [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
    "exactly MIN_COMPONENT_AREA": [(0.0, 0.0), (1.0, 0.0), (0.5, 2e-12)],
    "far from the origin": [(1e3 + x, -2e3 + y) for x, y in SQUARE],
}


@pytest.mark.parametrize("name", list(CLEAN_CASES))
def test_clean_rows_matches_clean_ring_on_hand_built_rows(name):
    ring = CLEAN_CASES[name]
    assert_cleans_like_clean_ring([ring])
    assert_cleans_like_clean_ring([ring], width=len(ring) + 2)
    # a row's result does not depend on the rows beside it
    assert_cleans_like_clean_ring(list(CLEAN_CASES.values()))


def test_clean_rows_raises_like_clean_ring_on_a_nan_vertex():
    ring = [(0.0, 0.0), (math.nan, 0.0), (1.0, 1.0), (0.0, 1.0)]
    with pytest.raises(ValueError, match="degenerate polygon: non-finite coordinate"):
        clean_ring(ring)
    with pytest.raises(ValueError, match="degenerate polygon: non-finite coordinate"):
        clean_rows(*rows_of([SQUARE, ring]))
    # below 3 vertices a ring is dropped before its area is taken
    assert_cleans_like_clean_ring([[(0.0, 0.0), (math.nan, 0.0)]])


@st.composite
def raw_rings(draw):
    """Rings of 1-6 vertices on a coarse grid, with vertices copied from
    the previous or the first one and moved by up to 1.5e-9."""
    n = draw(st.integers(1, 6))
    grid = st.integers(-4, 4).map(lambda v: v / 4.0)
    ring = []
    for _ in range(n):
        if ring and draw(st.booleans()):
            bx, by = ring[-1] if draw(st.booleans()) else ring[0]
            jitter = st.sampled_from([0.0, 5e-10, -1e-9, 1e-9, 1.5e-9])
            ring.append((bx + draw(jitter), by + draw(jitter)))
        else:
            ring.append((draw(grid), draw(grid)))
    return ring


@settings(max_examples=300, deadline=None)
@given(st.lists(raw_rings(), min_size=1, max_size=6), st.integers(0, 2))
def test_clean_rows_matches_clean_ring_on_random_rows(rings, extra):
    assert_cleans_like_clean_ring(rings, width=max(len(r) for r in rings) + extra)
