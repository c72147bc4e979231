"""Synthetic benchmark layouts and the batch efficiency engine.  The
layouts themselves and their file format live in `layout`; their public
names are re-exported here.

The batch engine keeps, for each subject, only the neighbours whose
centres lie in one of two sound capsules: one toward the sun for
shadows and one toward the aim point for blocking (see
`OrientedField.capsule_pairs`); on the synthetic 1000-mirror field that
is about 2 neighbours a subject at noon and 6 at a 6.5 degree sun.  A
uniform grid over the mirror centres finds the capsule members in one
box per subject, around both its capsules, without comparing every
pair.  The field is cut once, into chunks of whole consecutive subjects
whose selection visits at most `_GATHER_BUDGET` grid rows and mirrors,
which also bounds their image rows, at most two per mirror visited.
Each chunk selects its own image rows (subject, neighbour, kind), one
for each shadow or block image that its own capsule admits, clips them
to the valid projection region (`_clip`, one pass per plane, for the few
occluders that cross its planes), and projects and culls them as numpy
arrays, vertex first and image row last: corners (3, V, R), sides and
images (V, R).
The few surviving quads stay in that form: `clip.clean_rows` certifies
them as padded (2, V, K) rings, and one call of `clip.covered_areas` per
chunk gives the shaded area of every subject in it, from the parts of
the polygon edges that bound it; no polygon is subtracted from another.
`ProjectedQuad` and `Polygon2` are built only for a single-subject
query (`subject_quads`, `subject_efficiency`).
Results are deterministic and assembled in heliostat order regardless
of the worker count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .clip import _ramp, clean_rows, covered_areas
from .layout import FieldLayout, LayoutError, load_layout, save_layout
from .polygon2d import Polygon2
from .shading import EfficiencyResult, ProjectedQuad
from .solar import SunState

__all__ = [
    "FieldLayout",
    "FieldReport",
    "LayoutError",
    "load_layout",
    "save_layout",
    "synthetic_field",
    "evaluate_field",
    "format_report",
]

# Projections with |n . u| below this are treated as perpendicular: the
# occluder edge-on to the subject casts no area.
_PERP_TOL = 1e-12

# Relative widening of the capsule radius, far above the rounding of the
# projected coordinates, so a neighbour whose image just touches the
# mirror in exact arithmetic is never dropped.
_REACH_SLACK = 1e-9


@dataclass(frozen=True)
class HeliostatRecord:
    id: str
    efficiency: float
    area_reflecting: float
    area_total: float

    @classmethod
    def from_efficiency(cls, hid: str, e: float, width: float, height: float) -> "HeliostatRecord":
        """The record of a width x height mirror at efficiency e."""
        return cls(hid, e, e * width * height, width * height)

    def line(self) -> str:
        """The record's line of the field report, reals to 9 significant digits."""
        return f"{self.id} {self.efficiency:.9g} {self.area_reflecting:.9g} {self.area_total:.9g}"


@dataclass(frozen=True)
class FieldReport:
    sun: SunState
    date_label: str
    records: Tuple[HeliostatRecord, ...]
    average: float
    duration: float


# ---------------------------------------------------------------------------
# synthetic benchmark layouts


@dataclass(frozen=True)
class RadialStaggerSpec:
    """Parameters of the deterministic radially staggered north field."""

    start_radius: float = 120.0
    radial_step: float = 17.0
    arc_spacing: float = 17.5
    sector_deg: float = 130.0
    mirror_width: float = 12.88
    mirror_height: float = 9.489
    pivot_height: float = 5.0
    tower_height: float = 150.0
    latitude_deg: float = 38.23
    seed: int = 1


def synthetic_field(n: int, spec: RadialStaggerSpec = RadialStaggerSpec()) -> FieldLayout:
    """Deterministic radially staggered layout with n heliostats.

    Stand-in for the unpublished benchmark field: concentric staggered
    arcs in a northern sector, spacing growing gently with radius, no
    overlapping mirrors.
    """
    if n < 1:
        raise LayoutError("synthetic field needs n >= 1")
    diag = math.hypot(spec.mirror_width, spec.mirror_height)
    if spec.radial_step <= diag or spec.arc_spacing <= diag:
        raise LayoutError("infeasible spacing: step must exceed mirror diagonal")
    rng = np.random.default_rng(spec.seed)
    sector = math.radians(spec.sector_deg)
    centers: List[Tuple[float, float]] = []
    ring = 0
    r = spec.start_radius
    while len(centers) < n:
        # radial pitch grows with radius so far rings keep clearing the
        # shallow sight lines to the tower
        if ring > 0:
            r += spec.radial_step * (1.0 + 0.25 * r / spec.tower_height)
        arc = spec.arc_spacing * (1.0 + 0.05 * ring / 10.0)
        d_az = arc / r
        count = max(1, int(sector / d_az))
        offset = 0.5 * d_az if ring % 2 else 0.0
        jitter = rng.uniform(-0.05, 0.05, size=count) * d_az
        for i in range(count):
            az = -sector / 2.0 + offset + i * d_az + jitter[i]
            if az > sector / 2.0:
                continue
            centers.append((r * math.cos(az), -r * math.sin(az)))
            if len(centers) >= n:
                break
        ring += 1
    pts = np.array(centers)
    # pairwise separation must exceed the mirror diagonal: a pair closer
    # than that lies in neighbouring cells of a grid one diagonal wide
    box = np.full(2, diag * (1.0 + _REACH_SLACK))
    s, i = _Grid(pts, diag).gather(pts - box, pts + box)
    d_x, d_y = (pts[i] - pts[s]).T
    if ((d_x * d_x + d_y * d_y <= diag * diag) & (s != i)).any():
        raise LayoutError("infeasible spacing: generated mirrors overlap")
    return FieldLayout(
        latitude_deg=spec.latitude_deg,
        receivers=(("tower", (0.0, 0.0, spec.tower_height)),),
        ids=[f"h{i:04d}" for i in range(n)],
        receiver_ids=("tower",) * n,
        centers=np.column_stack([pts, np.full(n, spec.pivot_height)]),
        dims=np.tile([spec.mirror_width, spec.mirror_height], (n, 1)),
        spins=np.zeros(n),
    )


# ---------------------------------------------------------------------------
# batch engine


class OrientedField:
    """Immutable array view of a whole oriented field for one sun state.

    The layout's columns are read as they are.  A layout is valid by
    construction, so only the sun is checked here.
    Each mirror's normal bisects the directions to its aim point and to
    the sun; its rotation (rows x', y', n) takes plant coordinates
    relative to its centre into its local frame, and its corners follow
    from that.
    """

    def __init__(self, field: FieldLayout, sun: SunState):
        u_s = np.array(sun.u_s, dtype=float)
        if not np.isfinite(u_s).all():
            raise ValueError(f"sun direction is not finite: eta={sun.eta!r}, theta={sun.theta!r}")
        # the words of `sun_vector`, for a SunState built by hand: light
        # that does not head down lights no mirror from above
        if not u_s[2] < 0.0:
            raise ValueError("sun below horizon")
        self.sun = sun
        self.ids = field.ids
        self.n = n = field.n
        self.centers, self.aims, self.dims = field.centers, field.aims(), field.dims

        # every aim point is above its centre, so u_t is defined and is not
        # the light direction of a sun above the horizon
        to_t = self.aims - self.centers
        u_t = to_t / np.linalg.norm(to_t, axis=1)[:, None]
        n_raw = u_t - u_s
        self.normals = n_raw / np.linalg.norm(n_raw, axis=1)[:, None]

        # the rows of Rz(spin) Rx(beta) Rz(alpha): alpha turns the normal's
        # horizontal part onto -y, beta tilts it to +z, the spin turns about it
        nx, ny, nz = self.normals.T
        rho = np.hypot(nx, ny)
        alpha = np.where(rho > 0.0, np.arctan2(nx, -ny), 0.0)
        beta = np.arctan2(rho, nz)
        ca, sa, cb, sb = np.cos(alpha), np.sin(alpha), np.cos(beta), np.sin(beta)
        cg, sg = np.cos(field.spins)[:, None], np.sin(field.spins)[:, None]
        x0 = np.stack([ca, sa, np.zeros(n)], axis=1)
        y0 = np.stack([-cb * sa, cb * ca, sb], axis=1)
        x_row, y_row = cg * x0 + sg * y0, cg * y0 - sg * x0
        n_row = np.stack([sb * sa, -sb * ca, cb], axis=1)
        self.rotations = np.stack([x_row, y_row, n_row], axis=1)

        # corners (-, +), (-, -), (+, -), (+, +) in the mirror's (x', y')
        across = self.dims[:, :1] / 2.0 * x_row
        up = self.dims[:, 1:] / 2.0 * y_row
        corners = np.stack([up - across, -across - up, across - up, across + up], axis=1)
        self.corners = corners + self.centers[:, None, :]

        # capsule prefilter constants, derived in `capsule_pairs`
        self.half_diagonals = 0.5 * np.hypot(self.dims[:, 0], self.dims[:, 1])
        z = self.corners[:, :, 2]
        dz = float(z.max() - z.min()) if n else 0.0
        # no centre offset is longer than the diagonal of the centres' box,
        # so S is cut to it, also at a sun a few ulps up, where the Python
        # float dz / sin(eta) is inf
        span = float(np.hypot(*np.ptp(self.centers[:, :2], axis=0))) if n else 0.0
        u_h = math.hypot(u_s[0], u_s[1])
        reach = min(dz / -float(u_s[2]), span / u_h) if u_h > 0.0 else 0.0
        self.shadow_end = -u_s[:2] * reach
        rise = self.aims[:, 2] - z.max(axis=1)
        # fmin drops the NaN of 0 / 0: an aim point not above the top
        # corner gets the whole run, lam < 1 still
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.block_end = np.fmin(1.0, dz / np.maximum(rise, 0.0))[:, None] * to_t[:, :2]
        self.grid = _Grid(self.centers[:, :2], 2.0 * self.half_diagonals.max()) if n else None

    def capsule_pairs(self, j0: int, j1: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate image rows (subjects, neighbours, kinds) of the
        subjects j0 <= j < j1, one row for each image of a neighbour that
        its own capsule admits, kinds indexing `_KINDS`, in row-major
        order with neighbours ascending and a neighbour's block row before
        its shadow row: the grid gathers the mirrors in the cells of one
        box per subject, the bounding box of both its capsules, and the
        exact capsule test of each kind keeps its members.  Every other
        image misses the mirror.

        Let dz be the field-wide spread of corner heights, hd the mirror
        half-diagonals and the suffix h the horizontal part of a vector.
        An image of neighbour i matters only if it meets mirror j: some
        point p of i (or of its part clipped to the valid side of the
        plane, a convex combination of its corners) maps to a point q of
        mirror j.  Both lie within the field's corner heights, and
        |p_h - c_i,h| <= hd_i, |q_h - c_j,h| <= hd_j.

        Shadow: q = p + t u_s with t >= 0, and u_s sinks at the solar
        height eta, so t = (p_z - q_z) / sin(eta) <= dz / sin(eta) and
        p_h - q_h = -t u_s,h lies on the segment [0, S] with
        S = -u_s,h dz / sin(eta), of length dz cot(eta) toward the sun
        and the same for every subject.  No two centres are farther apart
        than the diagonal D of their bounding box, and the point of [0, S]
        nearest an offset of length <= D lies within D of 0, so S is cut to
        length D: the capsule keeps its members, and its squared length
        stays finite at a grazing sun.

        Block: p lies inside the slab between the mirror plane and the aim
        point T, hence on the segment from q to T: p = q + lam (T - q) with
        0 < lam < 1.  With rise_j = T_z - (max corner z of j) > 0,
        lam = (p_z - q_z) / (T_z - q_z) <= dz / rise_j, and
        p_h - c_j,h = (1 - lam)(q_h - c_j,h) + lam (T_h - c_j,h) lies
        within hd_j of the segment [0, B_j] with
        B_j = min(1, dz / rise_j) (T_h - c_j,h), and B_j = T_h - c_j,h
        if rise_j <= 0.

        So a shadow image can meet the mirror only if c_i,h - c_j,h lies
        within hd_i + hd_j of [0, S] (the shadow capsule), and a block
        image only if it lies within hd_i + hd_j of [0, B_j] (the block
        capsule); the radius is widened by `_REACH_SLACK`.  Both segments
        are finite for every subject and every sun above the horizon: the
        slab clip alone gives lam < 1, whatever the aim point's height
        over mirror j, and S is cut to D also when dz / sin(eta)
        overflows.
        """
        s, i = self.grid.gather(*self._capsule_boxes(np.arange(j0, j1)))
        s += j0
        d_x, d_y = (self.centers[i, :2] - self.centers[s, :2]).T
        radius = (self.half_diagonals[i] + self.half_diagonals[s]) * (1.0 + _REACH_SLACK)
        r2 = radius * radius
        key = 2 * (s * self.n + i)
        admitted = [
            key[(s != i) & (_segment_dist2(d_x, d_y, *end) <= r2)] + kind
            for kind, end in enumerate((self.block_end[s].T, self.shadow_end))
        ]
        pairs, kinds = np.divmod(np.sort(np.concatenate(admitted)), 2)
        return (*np.divmod(pairs, self.n), kinds)

    def _capsule_boxes(self, subjects: np.ndarray):
        """Plant-frame bounding boxes (lo, hi) of the subjects, each box
        holding both capsules of its subject."""
        # the largest radius of the subject's capsules, a little wider
        # still, so rounding cannot put a member outside the box
        radius = (self.half_diagonals[subjects] + self.half_diagonals.max()) * (
            1.0 + 2.0 * _REACH_SLACK
        )
        c, ends = self.centers[subjects, :2], self.block_end[subjects]
        lo = c + np.minimum(np.minimum(ends, self.shadow_end), 0.0) - radius[:, None]
        hi = c + np.maximum(np.maximum(ends, self.shadow_end), 0.0) + radius[:, None]
        return lo, hi

    def _capsule_work(self) -> np.ndarray:
        """Per subject, the grid rows and mirrors that `capsule_pairs`
        visits for it: a bound on the size of its arrays."""
        rows, mirrors = self.grid.box_sizes(*self._capsule_boxes(np.arange(self.n)))
        return rows + mirrors


class _Grid:
    """Uniform grid over the mirror centres: the broad phase of the
    capsule prefilter, as in game collision detection (Ericson,
    *Real-Time Collision Detection*, 2005, ch. 7).

    A cell is `cell` wide (coarser if the field is sparse, so there are
    at most 16 cells per mirror); the mirrors are sorted by cell, row
    by row, ascending within a cell, and a summed-area table counts the
    mirrors in any box of cells.
    """

    def __init__(self, xy: np.ndarray, cell: float):
        self.origin = xy.min(axis=0)
        span = xy.max(axis=0) - self.origin
        while np.prod(span // cell + 1.0) > 16 * len(xy) + 64:
            cell *= 2.0
        self.cell = cell
        self.nx, self.ny = self._index(xy.max(axis=0)) + 1
        ix, iy = self._index(xy).T
        key = iy * self.nx + ix
        self.order = np.argsort(key, kind="stable")
        counts = np.bincount(key, minlength=self.nx * self.ny)
        self.start = np.concatenate([[0], np.cumsum(counts)])
        self.table = np.zeros((self.ny + 1, self.nx + 1), dtype=np.intp)
        self.table[1:, 1:] = counts.reshape(self.ny, self.nx).cumsum(axis=0).cumsum(axis=1)

    def _index(self, xy: np.ndarray) -> np.ndarray:
        return np.floor((xy - self.origin) / self.cell).astype(np.intp)

    def _cells(self, lo: np.ndarray, hi: np.ndarray):
        """Inclusive cell ranges (x0, y0, x1, y1) of boxes, clipped to the
        grid; floor is monotone, so a centre inside a box lies in them."""
        top = [self.nx - 1, self.ny - 1]
        i0 = np.clip(np.floor((lo - self.origin) / self.cell), 0, top).astype(np.intp)
        i1 = np.clip(np.floor((hi - self.origin) / self.cell), 0, top).astype(np.intp)
        return i0[:, 0], i0[:, 1], i1[:, 0], i1[:, 1]

    def box_sizes(self, lo: np.ndarray, hi: np.ndarray):
        """(cell rows, mirrors) covered by each box."""
        x0, y0, x1, y1 = self._cells(lo, hi)
        t = self.table
        mirrors = t[y1 + 1, x1 + 1] - t[y0, x1 + 1] - t[y1 + 1, x0] + t[y0, x0]
        return y1 - y0 + 1, mirrors

    def gather(self, lo: np.ndarray, hi: np.ndarray):
        """(box index, mirror) for every mirror in the cells of each box:
        each row of a box is one contiguous run of the sorted mirrors."""
        x0, y0, x1, y1 = self._cells(lo, hi)
        rows = y1 - y0 + 1
        box = np.repeat(np.arange(len(lo)), rows)
        base = (_ramp(rows) + y0[box]) * self.nx
        first = self.start[base + x0[box]]
        count = self.start[base + x1[box] + 1] - first
        return np.repeat(box, count), self.order[_ramp(count) + np.repeat(first, count)]


def _segment_dist2(x, y, vx, vy):
    """Squared distance from points (x, y) to the segments [0, (vx, vy)]."""
    vv = vx * vx + vy * vy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(vv > 0.0, np.clip((x * vx + y * vy) / vv, 0.0, 1.0), 0.0)
    ex, ey = x - t * vx, y - t * vy
    return ex * ex + ey * ey


# Most grid rows plus gathered mirrors the capsule selection of one chunk
# of subjects may visit, unless one subject alone needs more.  A chunk's
# image rows are at most twice its gathered mirrors, and on the
# 1000-mirror field its evaluation peaks at 1.8 kB per image row
# (tracemalloc) at a 6.5 degree sun, 10.1 kB at 1 degree.  At 6.5 degrees
# this budget gives that field 3 chunks of at most 2824 image rows (6144
# gives 5, 7% slower, -1.9 MB RSS; 24576 gives 2, 7% faster, +4.7 MB RSS).
_GATHER_BUDGET = 12288

# the kind of an image row, by its kind index (`capsule_pairs`, `_pairs`)
_KINDS = ("block", "shadow")


def _pairs(of: OrientedField, j0: int, j1: int, use_culling: bool):
    """Image rows (subjects, neighbours, kinds) of the subjects
    j0 <= j < j1, in the order of `OrientedField.capsule_pairs`: its
    candidates, or with `use_culling=False` both images of every
    neighbour."""
    if use_culling:
        return of.capsule_pairs(j0, j1)
    rows, cols = np.nonzero(np.arange(of.n) != np.arange(j0, j1)[:, None])
    return np.repeat(rows + j0, 2), np.repeat(cols, 2), np.tile([0, 1], len(cols))


def _blocks(of: OrientedField) -> Iterator[Tuple[int, int]]:
    """The field cut greedily into chunks [j0, j1) of whole consecutive
    subjects whose capsule selection visits at most `_GATHER_BUDGET` grid
    rows and mirrors; a subject that alone visits more is a chunk by
    itself.  So the image rows of the whole field are never built at once."""
    ends = np.cumsum(of._capsule_work())
    j0 = 0
    while j0 < of.n:
        base = ends[j0 - 1] if j0 else 0
        j1 = max(j0 + 1, int(np.searchsorted(ends, base + _GATHER_BUDGET, side="right")))
        yield j0, j1
        j0 = j1


def _local_xy(x, y, z, c, r):
    """Subject-plane (x, y) of plant points: rotation rows r applied to
    the offset from the subject centre c, written out term by term so a
    row's numbers do not depend on the arrays it is batched with."""
    dx, dy, dz = x - c[0], y - c[1], z - c[2]
    return (
        r[0][0] * dx + r[0][1] * dy + r[0][2] * dz,
        r[1][0] * dx + r[1][1] * dy + r[1][2] * dz,
    )


def _block_quads(of: OrientedField, j0: int, j1: int, use_culling: bool = True):
    """Surviving occluder quads of the subjects j0 <= j < j1, in field
    order (block before shadow per occluder), as arrays
    (rows, cols, kinds, ring_xy, lengths): quad k is the image of
    neighbour cols[k] on subject j0 + rows[k], of kind `_KINDS[kinds[k]]`,
    with the counterclockwise ring of lengths[k] vertices in the subject's
    local plane padded in ring_xy[:, :, k] (2, V, K) (`clip.clean_rows`).

    The subjects' image rows (`_pairs`) are clipped to the valid
    projection region, projected and culled as (V, R) arrays, vertex first
    and image row last; `use_culling=False` keeps every neighbour and every
    quad.  The valid region is the front of the subject plane for a shadow
    and the slab between the subject plane and the aim point for a block.
    `_clip` cuts only the rare occluders that straddle one of those
    planes: to the front of the subject plane, then below the aim point's
    plane, which is at +inf for a shadow row; a chunk without such a row
    keeps its 4-vertex rows.  Each row is then projected along its own
    direction d, the light for a shadow and toward the aim point for a
    block.
    """
    subjects, cols, kinds = _pairs(of, j0, j1, use_culling)
    rows = subjects - j0  # row-major: subjects keep field order
    block = kinds == 0  # `_KINDS[0]`

    # per-subject constants, then gathered per row
    nx, ny, nz = of.normals[j0:j1].T
    cx, cy, cz = of.centers[j0:j1].T
    ax, ay, az = of.aims[j0:j1].T
    plane_d = nx * cx + ny * cy + nz * cz
    side_t = nx * ax + ny * ay + nz * az - plane_d
    hx, hy = of.dims[j0:j1].T / 2.0

    c = (cx[rows], cy[rows], cz[rows])
    r = of.rotations[j0:j1, :2].transpose(1, 2, 0)[:, :, rows]
    corners = of.corners.transpose(2, 1, 0)[:, :, cols]  # (3, 4, R)
    px, py, pz = corners
    side = px * nx[rows] + py * ny[rows] + pz * nz[rows] - plane_d[rows]
    count = np.full(len(cols), 4)

    with np.errstate(divide="ignore", invalid="ignore"):
        # only the part of an occluder on the front side of the subject
        # plane casts a shadow on the mirror or blocks its reflection; a
        # block image is finite only inside the slab 0 < side < side(aim),
        # and a shadow row's slab has no upper plane
        upper = np.where(block, side_t[rows] * (1.0 - 1e-9), np.inf)
        front = np.where(block, (side > 0.0).any(axis=0), (side >= 0.0).any(axis=0))
        live = front & (upper > 0.0) & (side < upper).any(axis=0)
        xyz, side, count = _clip(corners, side, count, live & (side < 0.0).any(axis=0))
        xyz, side, count = _clip(xyz, side, count, live & (side > upper).any(axis=0), upper)
        px, py, pz = xyz

        # a live block row keeps a vertex above the subject plane through
        # both cuts, and a vertex at the aim point gets a NaN direction d,
        # which fails the |n . d| test
        dx, dy, dz = ax[rows] - px, ay[rows] - py, az[rows] - pz
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        dx, dy, dz = (np.where(block, v / dist, u) for v, u in zip((dx, dy, dz), of.sun.u_s))
        denom = dx * nx[rows] + dy * ny[rows] + dz * nz[rows]
        t = -side / denom
        keep = live & (count >= 3) & (np.abs(denom) >= _PERP_TOL).all(axis=0)
        x, y = _local_xy(px + t * dx, py + t * dy, pz + t * dz, c, r)

    if use_culling:
        keep &= ~_culled(x, y, hx[rows], hy[rows])

    # only the kept columns are cleaned, the others can hold inf or NaN
    kept, ring_xy, lengths = clean_rows(x[:, keep], y[:, keep], count[keep])
    return rows[keep][kept], cols[keep][kept], kinds[keep][kept], ring_xy, lengths


def _clip(xyz: np.ndarray, side: np.ndarray, count: np.ndarray, rows: np.ndarray, upper=None):
    """One Sutherland-Hodgman pass: the flagged polygons cut to the part
    with side >= 0, or with side <= upper if `upper` (P,) is given.

    `xyz` (3, V, P) holds P planar polygons of count[p] vertices each,
    padded with copies of the first vertex, and `side` (V, P) their
    signed plane distances.  A cut edge a -> b gets the vertex
    a + t (b - a), t = sa / (sa - sb), on the plane.  Returns new
    (xyz, side, count), wider if a polygon gained vertices; polygons that
    are not flagged keep their vertices.
    """
    q = np.flatnonzero(rows)
    if not len(q):
        return xyz, side, count
    width = len(side)
    a = xyz[:, :, q]
    sa = side[:, q] if upper is None else upper[q] - side[:, q]
    b, sb = np.roll(a, -1, axis=1), np.roll(sa, -1, axis=0)
    valid = np.arange(width)[:, None] < count[q]
    cross = ((sa > 0.0) & (sb < 0.0)) | ((sa < 0.0) & (sb > 0.0))
    # slot 2k: vertex k if inside, slot 2k + 1: the cut of edge k
    slots = np.stack([valid & (sa >= 0.0), valid & cross], axis=1).reshape(-1, len(q))
    cand = np.stack([a, a + sa / (sa - sb) * (b - a)], axis=2).reshape(3, -1, len(q))
    cand_s = np.stack([sa, np.zeros_like(sa)], axis=1).reshape(-1, len(q))
    kept = slots.sum(axis=0)
    grown = max(width, int(kept.max()))
    order = np.argsort(~slots, axis=0, kind="stable")[:grown]
    order = np.where(np.arange(grown)[:, None] < kept, order, order[:1])
    cut_s = np.take_along_axis(cand_s, order, axis=0)
    pad = grown - width
    xyz = np.concatenate([xyz, np.repeat(xyz[:, :1], pad, axis=1)], axis=1)
    side = np.concatenate([side, np.repeat(side[:1], pad, axis=0)], axis=0)
    xyz[:, :, q] = np.take_along_axis(cand, order[None], axis=1)
    side[:, q] = cut_s if upper is None else upper[q] - cut_s
    count = count.copy()
    count[q] = kept
    return xyz, side, count


def subject_quads(
    of: OrientedField, j: int, use_culling: bool = True
) -> List[ProjectedQuad]:
    """Surviving occluder quads for subject j, in field order (block
    before shadow per occluder), as polygons in the subject's local plane:
    `_block_quads` for a chunk of one subject.

    Only the capsule candidates (`OrientedField.capsule_pairs`) are
    projected; `use_culling=False` projects every neighbour and keeps
    every quad.
    """
    return _projected(of, _block_quads(of, j, j + 1, use_culling))


def _projected(of: OrientedField, quads) -> List[ProjectedQuad]:
    """The `_block_quads` arrays of one subject as polygons."""
    _, cols, kinds, ring_xy, lengths = quads
    cols, kinds, rings, lengths = (q.tolist() for q in (cols, kinds, ring_xy.T, lengths))
    return [
        ProjectedQuad(source_id=of.ids[i], kind=_KINDS[kind], ring=Polygon2(ring[:n]))
        for i, kind, ring, n in zip(cols, kinds, rings, lengths)
    ]


def _culled(xs: np.ndarray, ys: np.ndarray, hx, hy) -> np.ndarray:
    """True for each ring (points on the first axis) whose points all lie
    beyond one side of the 2hx x 2hy mirror: it cannot meet it."""
    return (
        np.all(xs > hx, axis=0)
        | np.all(xs < -hx, axis=0)
        | np.all(ys > hy, axis=0)
        | np.all(ys < -hy, axis=0)
    )


def _efficiencies(of: OrientedField, j0: int, j1: int, quads) -> List[float]:
    """Efficiency of each subject j0 <= j < j1 from its surviving quads
    (`_block_quads`): one `covered_areas` call for them all."""
    rows, _, _, ring_xy, _ = quads
    covered = covered_areas(rows, ring_xy, of.dims[j0:j1] / 2.0)
    area = of.dims[j0:j1, 0] * of.dims[j0:j1, 1]
    return np.clip((area - covered) / area, 0.0, 1.0).tolist()


def subject_efficiency(
    of: OrientedField, j: int, use_culling: bool = True
) -> EfficiencyResult:
    """Efficiency of subject j: one minus the fraction of the mirror that
    its surviving quads (`subject_quads`) cover."""
    quads = _block_quads(of, j, j + 1, use_culling)
    return EfficiencyResult(
        subject_id=of.ids[j],
        efficiency=_efficiencies(of, j, j + 1, quads)[0],
        quads=tuple(_projected(of, quads)),
        half_size=tuple((of.dims[j] / 2.0).tolist()),
    )


def _block_efficiencies(of: OrientedField, j0: int, j1: int) -> List[float]:
    return _efficiencies(of, j0, j1, _block_quads(of, j0, j1))


_POOL_FIELD: Optional[OrientedField] = None


def _pool_init(of: OrientedField) -> None:
    global _POOL_FIELD
    _POOL_FIELD = of


def _pool_eval(chunk: Tuple[int, int]) -> List[float]:
    return _block_efficiencies(_POOL_FIELD, *chunk)


def evaluate_field(
    layout: FieldLayout,
    sun: SunState,
    workers: int = 1,
    date_label: str = "",
) -> FieldReport:
    """Blocking-and-shadowing efficiency of every heliostat in the layout.

    Orientation happens once for the whole field; the subjects are then
    evaluated a chunk of subjects at a time (`_blocks`, `_block_quads`),
    and the chunks are independent and may fan out to a process pool of
    at most one process per chunk.  Results are identical for any worker
    count.
    """
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    start = time.perf_counter()
    of = OrientedField(layout, sun)
    n = of.n
    if n == 0:
        return FieldReport(sun=sun, date_label=date_label, records=(), average=1.0, duration=0.0)
    chunks = list(_blocks(of))
    workers = min(workers, len(chunks))
    if workers > 1:
        import multiprocessing as mp

        # fork shares the oriented field without pickling it; spawn is
        # the only method on some platforms
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        with ctx.Pool(workers, initializer=_pool_init, initargs=(of,)) as pool:
            parts = pool.map(_pool_eval, chunks)
    else:
        parts = [_block_efficiencies(of, j0, j1) for j0, j1 in chunks]
    effs = [e for part in parts for e in part]
    duration = time.perf_counter() - start
    records = tuple(
        HeliostatRecord.from_efficiency(hid, e, w, h)
        for hid, e, (w, h) in zip(of.ids, effs, of.dims.tolist())
    )
    average = sum(r.efficiency for r in records) / n
    return FieldReport(
        sun=sun, date_label=date_label, records=records, average=average, duration=duration
    )


def format_report(report: FieldReport, include_timing: bool = True) -> str:
    """Plain-text report: header, one line per heliostat, average last.

    All reals use 9 significant digits.  The timing line is the only
    run-dependent content; omit it when byte-stable output is needed.
    """
    lines = [
        f"# sun eta={math.degrees(report.sun.eta):.9g} "
        f"theta={math.degrees(report.sun.theta):.9g} deg",
        f"# date {report.date_label or 'n/a'}",
    ]
    if include_timing:
        lines.append(f"# elapsed {report.duration:.9g} s")
    lines.append("# id efficiency area_reflecting area_total")
    lines.extend(r.line() for r in report.records)
    lines.append(f"# average {report.average:.9g}")
    return "\n".join(lines) + "\n"

