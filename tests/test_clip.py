import numpy as np
import pytest

from conftest import is_convex_ccw, pieces_disjoint, region_matches
from helioshade.clip import Region, difference, intersection, region_area
from helioshade.polygon2d import Polygon2, contains_many, signed_area


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


# -- intersection -----------------------------------------------------------


def test_intersection_identical_squares():
    r = intersection(square(0, 0, 1), square(0, 0, 1))
    assert region_area(r) == pytest.approx(1.0, abs=1e-12)


def test_intersection_disjoint_empty():
    r = intersection(square(0, 0, 1), square(3, 3, 1))
    assert r.components == ()
    assert region_area(r) == 0.0


def test_region_area_trivial():
    assert region_area(Region.empty()) == 0.0
    assert region_area(Region.from_polygon(square(0, 0, 1))) == pytest.approx(1.0)


# -- random property suite --------------------------------------------------


def random_quad(rng, scale=10.0):
    """Random simple star-shaped quadrilateral.

    Vertices in sorted angular order around a center are simple only if
    every angular gap stays below pi, hence the resampling bounds.
    """
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=4))
    gaps = np.diff(ang, append=ang[0] + 2 * np.pi)
    while np.min(gaps) < 0.15 or np.max(gaps) > 3.0:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=4))
        gaps = np.diff(ang, append=ang[0] + 2 * np.pi)
    rad = rng.uniform(0.3, 1.0, size=4) * scale
    cx, cy = rng.uniform(-scale, scale, size=2)
    return Polygon2(
        [(cx + r * np.cos(a), cy + r * np.sin(a)) for r, a in zip(rad, ang)]
    )


def test_area_conservation_1000_pairs(rng):
    for _ in range(1000):
        a = random_quad(rng)
        b = random_quad(rng)
        area_a = signed_area(a)
        diff = region_area(difference(Region.from_polygon(a), b))
        inter = region_area(intersection(a, b))
        assert diff + inter == pytest.approx(area_a, rel=1e-9, abs=1e-9)


def test_idempotence_and_monotonicity(rng):
    for _ in range(300):
        a = random_quad(rng)
        b = random_quad(rng)
        r1 = difference(Region.from_polygon(a), b)
        assert region_area(r1) <= signed_area(a) + 1e-9
        r2 = difference(r1, b)
        a1, a2 = region_area(r1), region_area(r2)
        assert a2 <= a1 + 1e-9
        assert a2 == pytest.approx(a1, rel=1e-9, abs=1e-9)


def test_random_quads_match_point_set(rng):
    # many random quads are not convex, so this covers the ear-clipping cut
    cut = overlapping = 0
    for _ in range(100):
        a = random_quad(rng)
        b = random_quad(rng)
        cut += len(Region.from_polygon(a).components) > 1
        overlapping += region_area(intersection(a, b)) > 0.0

        def in_a(x, y):
            return contains_many(a, x, y)

        def in_b(x, y):
            return contains_many(b, x, y)

        for r, in_set in (
            (intersection(a, b), lambda x, y: in_a(x, y) & in_b(x, y)),
            (difference(a, b), lambda x, y: in_a(x, y) & ~in_b(x, y)),
        ):
            assert all(is_convex_ccw(c) for c in r.components)
            assert pieces_disjoint(r)
            assert region_matches(r, in_set, [a, b])
    assert cut > 10 and overlapping > 20


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
    # only overlapping pairs are rastered: for a disjoint pair both results
    # are trivial (empty, and the whole subject)
    rastered = 0
    for _ in range(100):
        a = random_quad(rng)
        b = random_quad(rng)
        if region_area(intersection(a, b)) <= 0.0:
            continue
        rastered += 1
        for r in (intersection(a, b), difference(a, b)):
            pts = np.vstack([a.xy(), b.xy()])
            x0, y0 = pts.min(axis=0) - 0.1
            x1, y1 = pts.max(axis=0) + 0.1
            approx, cell = _raster_area(r, x0, y0, x1, y1)
            exact = region_area(r)
            perim = sum(
                float(np.sum(np.hypot(*np.diff(np.vstack([c.xy(), c.xy()[:1]]), axis=0).T)))
                for c in r.components
            )
            cell_len = np.sqrt(cell)
            tol = max(2.0 * cell_len * (perim + 4.0 * cell_len), 4.0 * cell)
            assert abs(approx - exact) <= tol
        if rastered == 5:
            break
    assert rastered == 5
