import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import xy
from helioshade.polygon2d import (
    Point2,
    Polygon2,
    contains,
    contains_many,
    ring_signed_area,
)

UNIT_SQUARE = Polygon2([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def rect(hx, hy):
    return Polygon2([(-hx, hy), (-hx, -hy), (hx, -hy), (hx, hy)])


def test_signed_area_unit_square():
    assert ring_signed_area(xy(UNIT_SQUARE)) == pytest.approx(1.0, abs=0.0)


def test_signed_area_reversed_negates():
    reversed_square = Polygon2(UNIT_SQUARE.ring[::-1])
    assert ring_signed_area(xy(reversed_square)) == -ring_signed_area(xy(UNIT_SQUARE))


def test_signed_area_mirror_rectangle():
    p = rect(12.88 / 2.0, 9.489 / 2.0)
    assert abs(ring_signed_area(xy(p))) == pytest.approx(122.21832, rel=1e-12)


def test_too_few_vertices_rejected():
    with pytest.raises(ValueError, match="degenerate polygon"):
        Polygon2([(0.0, 0.0), (1.0, 0.0)])


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match="degenerate polygon"):
        Polygon2([(0.0, 0.0), (float("nan"), 0.0), (1.0, 1.0)])


def test_coincident_consecutive_rejected():
    with pytest.raises(ValueError, match="degenerate polygon"):
        Polygon2([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)])


def test_contains_inside_outside():
    assert contains(UNIT_SQUARE, Point2(0.5, 0.5))
    assert not contains(UNIT_SQUARE, Point2(2.0, 0.5))


def test_contains_on_edge_matches_perturbed_point():
    # the membership rule behaves as if the query were shifted by
    # (+eps, +eps^2), so an on-edge answer must equal the answer for the
    # explicitly shifted point
    eps = 1e-9
    for y in (0.25, 0.5, 0.75):
        for x_edge in (0.0, 1.0):
            on_edge = contains(UNIT_SQUARE, Point2(x_edge, y))
            shifted = contains(UNIT_SQUARE, Point2(x_edge + eps, y + eps * eps))
            assert on_edge == shifted
    # through-vertex query
    assert contains(UNIT_SQUARE, Point2(0.0, 0.0)) == contains(
        UNIT_SQUARE, Point2(eps, eps * eps)
    )


def test_contains_many_matches_scalar_including_degenerate():
    xs = np.array([0.5, 2.0, 1.0, 0.0, 0.0, 1.0])
    ys = np.array([0.5, 0.5, 0.5, 0.5, 0.0, 1.0])
    got = contains_many(UNIT_SQUARE, xs, ys)
    want = [contains(UNIT_SQUARE, Point2(x, y)) for x, y in zip(xs, ys)]
    assert list(got) == want


def _winding_inside(poly: Polygon2, xs, ys):
    """Independent nonzero-winding membership (equals even-odd for simple
    polygons away from edges)."""
    v = xy(poly)
    winding = np.zeros(len(xs), dtype=int)
    n = len(v)
    for i in range(n):
        ax, ay = v[i]
        bx, by = v[(i + 1) % n]
        cross = (bx - ax) * (ys - ay) - (by - ay) * (xs - ax)
        up = (ay <= ys) & (by > ys) & (cross > 0.0)
        down = (ay > ys) & (by <= ys) & (cross < 0.0)
        winding += up.astype(int) - down.astype(int)
    return winding != 0


def _random_convex(rng, scale=1.0):
    k = int(rng.integers(3, 9))
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
    if np.min(np.diff(ang)) < 1e-3:
        ang = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    rad = rng.uniform(0.5, 2.0) * scale
    cx, cy = rng.uniform(-5.0, 5.0, size=2) * scale
    return Polygon2(
        [(cx + rad * np.cos(a), cy + rad * np.sin(a)) for a in ang]
    )


def test_contains_agrees_with_winding_number(rng):
    total = 0
    while total < 100_000:
        poly = _random_convex(rng)
        xs = rng.uniform(-8.0, 8.0, size=5000)
        ys = rng.uniform(-8.0, 8.0, size=5000)
        # keep clear of edges so both rules are testing the generic case
        v = xy(poly)
        near = np.zeros(len(xs), dtype=bool)
        n = len(v)
        for i in range(n):
            ax, ay = v[i]
            bx, by = v[(i + 1) % n]
            dx, dy = bx - ax, by - ay
            L2 = dx * dx + dy * dy
            t = np.clip(((xs - ax) * dx + (ys - ay) * dy) / L2, 0.0, 1.0)
            near |= np.hypot(xs - (ax + t * dx), ys - (ay + t * dy)) < 1e-9
        xs, ys = xs[~near], ys[~near]
        assert np.array_equal(
            contains_many(poly, xs, ys), _winding_inside(poly, xs, ys)
        )
        total += len(xs)


coords = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    pts=st.lists(st.tuples(coords, coords), min_size=3, max_size=8, unique=True),
    dx=st.floats(-1e4, 1e4),
    dy=st.floats(-1e4, 1e4),
)
def test_signed_area_reversal_and_translation(pts, dx, dy):
    try:
        poly = Polygon2(pts)
    except ValueError:
        return  # coincident vertices generated; constructor contract, not area
    a = ring_signed_area(xy(poly))
    assert ring_signed_area(xy(Polygon2(poly.ring[::-1]))) == -a
    moved = Polygon2([(x + dx, y + dy) for x, y in pts])
    scale = max(1.0, abs(a))
    assert abs(ring_signed_area(xy(moved)) - a) <= 1e-9 * scale + 1e-6
