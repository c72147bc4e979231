"""Shared fixtures: the two bundled demonstration layouts and helpers for
building heliostats, layouts and random test configurations."""

import dataclasses
import math
import os

import numpy as np
import pytest

from helioshade.clip import covered_areas
from helioshade.field import FieldLayout
from helioshade.polygon2d import contains_many, ring_signed_area
from helioshade.shading import Heliostat
from helioshade.solar import solar_position, sun_vector

LAYOUT_DIR = os.path.join(os.path.dirname(__file__), "..", "layouts")
SIMPLE_PAIR = os.path.join(LAYOUT_DIR, "simple_pair.txt")
REAL_SCENARIO = os.path.join(LAYOUT_DIR, "real_scenario.txt")

JAN_21 = 21


def make_heliostat(hid, x, y, z, w, h, aim):
    return Heliostat(id=hid, center=(x, y, z), width=w, height=h, aim=aim)


def layout_of(helios):
    """A layout of these heliostats, all aimed at one receiver 't' placed
    at the first one's aim point."""
    return FieldLayout(
        latitude_deg=38.0,
        receivers=(("t", helios[0].aim),),
        ids=[h.id for h in helios],
        receiver_ids=["t"] * len(helios),
        centers=[h.center for h in helios],
        dims=[(h.width, h.height) for h in helios],
        spins=[h.spin for h in helios],
    )


def without(layout, k):
    """The layout with heliostat row k (negative counts from the end)
    removed."""
    ids, receiver_ids = list(layout.ids), list(layout.receiver_ids)
    del ids[k], receiver_ids[k]
    return dataclasses.replace(
        layout,
        ids=ids,
        receiver_ids=receiver_ids,
        centers=np.delete(layout.centers, k, axis=0),
        dims=np.delete(layout.dims, k, axis=0),
        spins=np.delete(layout.spins, k),
    )


def simple_trio():
    """Subject on the plant axis, two symmetric neighbors, 100 m tower."""
    aim = (0.0, 0.0, 100.0)
    return [
        make_heliostat("c", 108.0, 0.0, 5.0, 10.0, 10.0, aim),
        make_heliostat("h1", 100.0, 8.0, 5.0, 10.0, 10.0, aim),
        make_heliostat("h2", 100.0, -8.0, 5.0, 10.0, 10.0, aim),
    ]


NEIGHBOR_XY = [
    (614.21, -126.29), (607.84, -153.31), (647.73, -163.37), (654.50, -134.57),
    (623.77, -172.05), (636.90, -116.27), (591.95, -135.48), (672.18, -153.84),
    (600.33, -179.84), (619.41, -98.828), (639.74, -191.65), (597.56, -109.09),
    (660.03, -105.31), (585.22, -161.42), (664.56, -183.31), (678.53, -123.87),
    (615.45, -199.18), (641.64, -87.72), (689.94, -174.02), (697.15, -143.34),
    (577.40, -186.87), (602.03, -82.30), (560.90, -146.37), (569.25, -110.83),
]


def real_scenario_heliostats():
    """Subject s plus its 24 production-plant neighbors, 150 m tower."""
    aim = (0.0, 0.0, 150.0)
    field = [make_heliostat("s", 630.93, -144.41, 5.0, 12.88, 9.489, aim)]
    for i, (x, y) in enumerate(NEIGHBOR_XY):
        field.append(make_heliostat(f"n{i + 1:02d}", x, y, 5.0, 12.88, 9.489, aim))
    return field


def sun_at(day, hour, latitude_deg):
    eta, theta = solar_position(day, hour, math.radians(latitude_deg))
    return sun_vector(eta, theta)


def random_config(rng, eta_deg=(8.0, 75.0), tower_z=(80.0, 160.0), frac=(0.02, 0.35)):
    """Random subject + 1..10 occluders near its tower sight line + sun,
    whose height is drawn from the `eta_deg` range in degrees.

    Occluders are dropped between the subject and the tower, a `frac`
    fraction of the way, with lateral scatter so shadow/block images
    frequently land on (and overlap) the subject mirror.  The tower top
    is drawn from `tower_z` in metres, the pivots are 5 m high.
    """
    tower = (0.0, 0.0, float(rng.uniform(*tower_z)))
    r = float(rng.uniform(60.0, 400.0))
    az = float(rng.uniform(-math.pi, math.pi))
    sx, sy = r * math.cos(az), r * math.sin(az)
    sw = float(rng.uniform(6.0, 14.0))
    sh = float(rng.uniform(5.0, 11.0))
    subject = make_heliostat("subject", sx, sy, 5.0, sw, sh, tower)
    field = [subject]
    n_occ = int(rng.integers(1, 11))
    for i in range(n_occ):
        f = float(rng.uniform(*frac))
        jx = float(rng.normal(0.0, 6.0))
        jy = float(rng.normal(0.0, 6.0))
        ox = sx * (1.0 - f) + jx
        oy = sy * (1.0 - f) + jy
        field.append(
            make_heliostat(
                f"occ{i}",
                ox,
                oy,
                5.0,
                float(rng.uniform(6.0, 14.0)),
                float(rng.uniform(5.0, 11.0)),
                tower,
            )
        )
    eta = float(rng.uniform(math.radians(eta_deg[0]), math.radians(eta_deg[1])))
    theta = float(rng.uniform(-math.pi, math.pi))
    return field, sun_vector(eta, theta)


def xy(poly):
    """The vertices of a `Polygon2` as an (n, 2) float array."""
    return np.array([(p.x, p.y) for p in poly.ring])


def is_convex_ccw(poly, tol=1e-12):
    """Counterclockwise, and no turn of the ring is a right turn by more
    than an angle whose sine is `tol` (rounding of cut points)."""
    e = np.roll(xy(poly), -1, axis=0) - xy(poly)
    f = np.roll(e, -1, axis=0)
    cross = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
    lengths = np.hypot(e[:, 0], e[:, 1]) * np.hypot(f[:, 0], f[:, 1])
    return ring_signed_area(xy(poly)) > 0.0 and bool(np.all(cross >= -tol * lengths))


def pieces_disjoint(region, tol=1e-12):
    """No two pieces of the region overlap: of each pair, the line of some
    edge of one has every vertex of the other on its outer side, or within
    `tol` of it.  The pieces are convex and counterclockwise, so two of
    them whose interiors are disjoint have such a line."""

    def apart(p, q):
        a = xy(p)
        e = np.roll(a, -1, axis=0) - a
        d = xy(q)[None, :, :] - a[:, None, :]
        side = e[:, None, 0] * d[..., 1] - e[:, None, 1] * d[..., 0]
        return bool(np.any(np.all(side <= tol * np.hypot(*e.T)[:, None], axis=1)))

    pieces = region.components
    return all(
        apart(p, q) or apart(q, p) for i, p in enumerate(pieces) for q in pieces[i + 1 :]
    )


def areas(sets, half_sizes):
    """`covered_areas` of each set of convex counterclockwise rings (each a
    sequence of points), padded to a common vertex count (at least 4) by
    repeating each ring's last vertex."""
    rings = [[tuple(p) for p in r] for rs in sets for r in rs]
    v = max([4] + [len(r) for r in rings])
    ring_xy = np.array([r + r[-1:] * (v - len(r)) for r in rings]).reshape(-1, v, 2).T
    owner = np.repeat(np.arange(len(sets)), [len(rs) for rs in sets])
    return covered_areas(owner, ring_xy, half_sizes)


def overlap_area(a, b):
    """Area of the intersection of two convex counterclockwise polygons:
    their areas less that of their union, which is what they cover of a
    square about the origin that holds both."""
    h = 1.0 + max(float(np.abs(xy(p)).max()) for p in (a, b))
    covered = areas([[a.ring, b.ring]], [(h, h)])[0]
    return ring_signed_area(xy(a)) + ring_signed_area(xy(b)) - covered


def _boundary_distance(poly, xs, ys):
    v = xy(poly)
    d = np.full(np.shape(xs), np.inf)
    for (ax, ay), (bx, by) in zip(v, np.roll(v, -1, axis=0)):
        dx, dy = bx - ax, by - ay
        t = np.clip(((xs - ax) * dx + (ys - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        d = np.minimum(d, np.hypot(xs - (ax + t * dx), ys - (ay + t * dy)))
    return d


def region_matches(region, in_set, boundaries, cells=200, tol=1e-9):
    """True if the region's pieces cover exactly the set that the mask
    function `in_set(xs, ys)` describes, whose edges are those of the
    polygons `boundaries`: every piece vertex lies in the closed set, and
    on a cells x cells grid every sample farther than `tol` from an edge
    is in a piece exactly when it is in the set."""

    def near_edge(xs, ys):
        return np.min([_boundary_distance(p, xs, ys) for p in boundaries], axis=0) <= tol

    for piece in region.components:
        xs, ys = xy(piece).T
        if not np.all(in_set(xs, ys) | near_edge(xs, ys)):
            return False
    pts = np.vstack([xy(p) for p in boundaries])
    (x0, y0), (x1, y1) = pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5
    gx, gy = np.meshgrid(
        x0 + (np.arange(cells) + 0.5) * (x1 - x0) / cells,
        y0 + (np.arange(cells) + 0.5) * (y1 - y0) / cells,
    )
    gx, gy = gx.ravel(), gy.ravel()
    covered = np.zeros(gx.shape, dtype=bool)
    for piece in region.components:
        covered |= contains_many(piece, gx, gy)
    clear = ~near_edge(gx, gy)
    return bool(np.array_equal(covered[clear], in_set(gx, gy)[clear]))


@pytest.fixture
def rng():
    return np.random.default_rng(20140109)
