"""Synthetic benchmark layouts and the batch efficiency engine.  The
layouts themselves and their file format live in `layout`; their public
names are re-exported here.

The batch engine keeps, for each subject, only the neighbours whose
centres lie in one of two sound capsules: one toward the sun for
shadows and one toward the aim point for blocking (see
`OrientedField.candidates`); on the synthetic 1000-mirror field that is
about 2 neighbours a subject at noon and 6 at a 6.5 degree sun.  A
uniform grid over the mirror centres finds the capsule members without
comparing every pair.  The field is cut once, into chunks of whole
consecutive subjects whose selection visits at most `_GATHER_BUDGET`
grid rows and mirrors, which also bounds their pairs; each chunk
selects its own (subject, neighbour) pairs, clips them to the valid
projection region (`_clip`, one pass per plane, for the few occluders
that cross its planes), and projects and culls them as flat numpy
arrays.  The few surviving quads stay in those arrays: `clip.clean_rows`
certifies them as padded coordinate rows, and one call of
`clip.covered_areas` per chunk gives the shaded area of every subject in
it, from the parts of the polygon edges that bound it; no polygon is
subtracted from another.
`ProjectedQuad` and `Polygon2` are built only for a single-subject
query (`subject_quads`, `subject_efficiency`).
Results are deterministic and assembled in heliostat order regardless
of the worker count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .clip import _ramp, clean_rows, covered_areas
from .layout import FieldLayout, LayoutError, load_layout, save_layout
from .polygon2d import Polygon2
from .shading import EfficiencyResult, Heliostat, ProjectedQuad
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
    "write_report",
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
    s, i = _Grid(pts, diag).gather(np.arange(n), pts - box, pts + box)
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

    `field` is a layout, whose columns are read as they are, or a
    heliostat sequence, made one by `FieldLayout.from_heliostats`.  A
    layout is valid by construction, so only the sun is checked here.
    Each mirror's normal bisects the directions to its aim point and to
    the sun; its rotation (rows x', y', n) takes plant coordinates
    relative to its centre into its local frame, and its corners follow
    from that.
    """

    def __init__(self, field: Union[FieldLayout, Sequence[Heliostat]], sun: SunState):
        u_s = np.array(sun.u_s, dtype=float)
        if not np.isfinite(u_s).all():
            raise ValueError(f"sun direction is not finite: eta={sun.eta!r}, theta={sun.theta!r}")
        if not isinstance(field, FieldLayout):
            field = FieldLayout.from_heliostats(field)
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

        nx, ny, nz = self.normals.T
        rho = np.hypot(nx, ny)
        alpha = np.where(rho > 0.0, np.arctan2(nx, -ny), 0.0)
        beta = np.arctan2(rho, nz)
        self.rotations = _rotations_zxz(alpha, beta, field.spins)

        hw = self.dims[:, 0] / 2.0
        hh = self.dims[:, 1] / 2.0
        local = np.stack(
            [
                np.stack([-hw, hh, np.zeros(n)], axis=1),
                np.stack([-hw, -hh, np.zeros(n)], axis=1),
                np.stack([hw, -hh, np.zeros(n)], axis=1),
                np.stack([hw, hh, np.zeros(n)], axis=1),
            ],
            axis=1,
        )  # (n, 4, 3)
        self.corners = (
            np.einsum("nji,naj->nai", self.rotations, local) + self.centers[:, None, :]
        )

        # capsule prefilter constants, derived in `candidates`
        self.half_diagonals = 0.5 * np.hypot(self.dims[:, 0], self.dims[:, 1])
        z = self.corners[:, :, 2]
        dz = float(z.max() - z.min()) if n else 0.0
        sin_eta = -float(u_s[2])
        rise = self.aims[:, 2] - z.max(axis=1)
        sun_up = sin_eta > 0.0 and math.isfinite(dz / sin_eta)
        shadow_end = -u_s[:2] * (dz / sin_eta) if sun_up else np.zeros(2)
        # no centre offset is longer than the diagonal of the centres' box
        span = float(np.hypot(*np.ptp(self.centers[:, :2], axis=0))) if n else 0.0
        length = float(np.hypot(*shadow_end))
        self.shadow_end = shadow_end * (span / length) if length > span else shadow_end
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            block_end = np.minimum(1.0, dz / rise)[:, None] * to_t[:, :2]
        # subjects whose every neighbour is a candidate
        self.unbounded = ~(rise > 0.0) | ~np.isfinite(block_end).all(axis=1) | (not sun_up)
        self.block_end = np.where(self.unbounded[:, None], 0.0, block_end)
        self.grid = _Grid(self.centers[:, :2], 2.0 * self.half_diagonals.max()) if n else None

    def candidates(self, j: int) -> np.ndarray:
        """Ascending indices of the neighbours that can shadow or block
        mirror j; every other neighbour's images miss the mirror.

        Let dz be the field-wide spread of corner heights, hd the mirror
        half-diagonals and the suffix h the horizontal part of a vector.
        A neighbour i matters only if its shadow or block image meets
        mirror j: some point p of i (or of its part clipped to the valid
        side of the plane, a convex combination of its corners) maps to a
        point q of mirror j.  Both lie within the field's corner heights,
        and |p_h - c_i,h| <= hd_i, |q_h - c_j,h| <= hd_j.

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
        B_j = min(1, dz / rise_j) (T_h - c_j,h).

        So c_i,h - c_j,h lies within hd_i + hd_j of [0, S] (the shadow
        capsule) or of [0, B_j] (the block capsule); the radius is widened
        by `_REACH_SLACK`.  With the sun at or below the horizon, the aim
        point not above every corner of mirror j, or a capsule length that
        is not finite, every neighbour is a candidate.
        """
        return self.capsule_pairs(j, j + 1)[1]

    def capsule_pairs(self, j0: int, j1: int) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate pairs (subjects, neighbours) of the subjects
        j0 <= j < j1, in row-major order with neighbours ascending: the
        grid gathers the mirrors in the cells that cover the bounding boxes
        of each subject's two capsules, and the exact capsule test keeps
        the members."""
        subjects = np.arange(j0, j1)
        s, i = self.grid.gather(*self._capsule_boxes(subjects))
        d_x, d_y = (self.centers[i, :2] - self.centers[s, :2]).T
        radius = (self.half_diagonals[i] + self.half_diagonals[s]) * (1.0 + _REACH_SLACK)
        r2 = radius * radius
        keep = (s != i) & (
            self.unbounded[s]
            | (_segment_dist2(d_x, d_y, *self.shadow_end) <= r2)
            | (_segment_dist2(d_x, d_y, *self.block_end[s].T) <= r2)
        )
        # sort, and drop the pairs found through both boxes of a subject
        key = np.sort(s[keep] * self.n + i[keep])
        key = key[np.diff(key, prepend=-1) != 0]
        return np.divmod(key, self.n)

    def _capsule_boxes(self, subjects: np.ndarray):
        """Subjects and plant-frame bounding boxes (lo, hi) of their shadow
        and block capsules, two entries per subject; a subject whose every
        neighbour is a candidate gets the whole plane."""
        # the largest radius of the subject's capsules, a little wider
        # still, so rounding cannot put a member outside the box
        radius = (self.half_diagonals[subjects] + self.half_diagonals.max()) * (
            1.0 + 2.0 * _REACH_SLACK
        )
        ends = np.concatenate(
            [np.broadcast_to(self.shadow_end, (len(subjects), 2)), self.block_end[subjects]]
        )
        c = np.tile(self.centers[subjects, :2], (2, 1))
        r = np.tile(radius, 2)[:, None]
        lo = c + np.minimum(ends, 0.0) - r
        hi = c + np.maximum(ends, 0.0) + r
        unbounded = np.tile(self.unbounded[subjects], 2)
        lo[unbounded], hi[unbounded] = -math.inf, math.inf
        return np.tile(subjects, 2), lo, hi

    def _capsule_work(self) -> np.ndarray:
        """Per subject, the grid rows and mirrors that `capsule_pairs`
        visits for it: a bound on the size of its arrays."""
        _, lo, hi = self._capsule_boxes(np.arange(self.n))
        rows, mirrors = self.grid.box_sizes(lo, hi)
        return (rows + mirrors).reshape(2, self.n).sum(axis=0)


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

    def gather(self, owners: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """(owner, mirror) for every mirror in the cells of each box: each
        row of a box is one contiguous run of the sorted mirrors."""
        x0, y0, x1, y1 = self._cells(lo, hi)
        rows = y1 - y0 + 1
        box = np.repeat(np.arange(len(owners)), rows)
        base = (_ramp(rows) + y0[box]) * self.nx
        first = self.start[base + x0[box]]
        count = self.start[base + x1[box] + 1] - first
        return np.repeat(owners[box], count), self.order[_ramp(count) + np.repeat(first, count)]


def _segment_dist2(x, y, vx, vy):
    """Squared distance from points (x, y) to the segments [0, (vx, vy)]."""
    vv = vx * vx + vy * vy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(vv > 0.0, np.clip((x * vx + y * vy) / vv, 0.0, 1.0), 0.0)
    ex, ey = x - t * vx, y - t * vy
    return ex * ex + ey * ey


def _rotations_zxz(alpha, beta, gamma) -> np.ndarray:
    """(n,3,3) stack of Rz(gamma) @ Rx(beta) @ Rz(alpha)."""
    n = len(alpha)
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    z = np.zeros(n)
    o = np.ones(n)
    rz_a = np.stack(
        [ca, sa, z, -sa, ca, z, z, z, o], axis=1
    ).reshape(n, 3, 3)
    rx_b = np.stack(
        [o, z, z, z, cb, sb, z, -sb, cb], axis=1
    ).reshape(n, 3, 3)
    rz_g = np.stack(
        [cg, sg, z, -sg, cg, z, z, z, o], axis=1
    ).reshape(n, 3, 3)
    return rz_g @ rx_b @ rz_a


# Most grid rows plus gathered mirrors the capsule selection of one chunk
# of subjects may visit, unless one subject alone needs more.  A chunk's
# pairs are at most its gathered mirrors; its arrays and kept rings take
# about 2 kB per pair, and `covered_areas` about 4 kB more at a 6.5
# degree sun, where this budget gives the 1000-mirror field chunks of at
# most about 1040 pairs (8192 gave 1350 and 1 MB more peak RSS).
_GATHER_BUDGET = 6144

# the kind of a kept quad, by its `_block_quads` kind index
_KINDS = ("block", "shadow")


def _pairs(of: OrientedField, j0: int, j1: int, use_culling: bool):
    """(subjects, neighbours) of the subjects j0 <= j < j1, in row-major
    order with neighbours ascending: the capsule candidates, or with
    `use_culling=False` every neighbour."""
    if use_culling:
        return of.capsule_pairs(j0, j1)
    rows, cols = np.nonzero(np.arange(of.n) != np.arange(j0, j1)[:, None])
    return rows + j0, cols


def _blocks(of: OrientedField) -> Iterator[Tuple[int, int]]:
    """The field cut greedily into chunks [j0, j1) of whole consecutive
    subjects whose capsule selection visits at most `_GATHER_BUDGET` grid
    rows and mirrors; a subject that alone visits more is a chunk by
    itself.  So the whole pair list is never built."""
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
    pair's numbers do not depend on the arrays it is batched with."""
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
    local plane padded in ring_xy[k] (`clip.clean_rows`).

    The subjects' (subject, neighbour) pairs (`_pairs`) are clipped to
    the valid projection region, projected and culled as flat (P, V)
    coordinate arrays; `use_culling=False` keeps every neighbour and
    every quad.  The valid region is the front of the subject plane for
    shadows and the slab between the subject plane and the aim point for
    blocks.  `_clip` cuts only the rare occluders that straddle one of
    those planes: to the front of the subject plane once, for both images,
    then below the aim point's plane for the block; a chunk without such
    a pair keeps its 4-vertex rows.
    """
    subjects, cols = _pairs(of, j0, j1, use_culling)
    rows = subjects - j0  # row-major: subjects keep field order

    # per-subject constants, then gathered per pair
    nx, ny, nz = of.normals[j0:j1].T
    cx, cy, cz = of.centers[j0:j1].T
    ax, ay, az = of.aims[j0:j1].T
    ux, uy, uz = of.sun.u_s
    plane_d = nx * cx + ny * cy + nz * cz
    denom_s = nx * ux + ny * uy + nz * uz
    side_t = nx * ax + ny * ay + nz * az - plane_d
    hx, hy = of.dims[j0:j1].T / 2.0

    def per_pair(v):
        return v[rows, None]

    c = (per_pair(cx), per_pair(cy), per_pair(cz))
    rot = of.rotations[j0:j1][rows]
    r = [[rot[:, i, k, None] for k in range(3)] for i in range(2)]
    corners = np.moveaxis(of.corners[cols], 2, 0)  # (3, P, 4)
    px, py, pz = corners
    side = px * per_pair(nx) + py * per_pair(ny) + pz * per_pair(nz) - per_pair(plane_d)
    count = np.full(len(cols), 4)

    with np.errstate(divide="ignore", invalid="ignore"):
        # only the part of an occluder on the front side of the subject
        # plane casts a shadow on the mirror or blocks its reflection; a
        # block image is finite only inside the slab 0 < side < side(aim)
        upper = per_pair(side_t * (1.0 - 1e-9))
        shadow = (np.abs(denom_s) >= _PERP_TOL)[rows] & (side >= 0.0).any(axis=1)
        block = (side_t > 0.0)[rows] & ~(side <= 0.0).all(axis=1) & ~(side >= upper).all(axis=1)
        front = _clip(corners, side, count, (shadow | block) & (side < 0.0).any(axis=1))

        # shadow projection along the light direction
        (px, py, pz), side_s, count_s = front
        shadow &= count_s >= 3
        t_s = -side_s / per_pair(denom_s)
        shadow_x, shadow_y = _local_xy(px + t_s * ux, py + t_s * uy, pz + t_s * uz, c, r)

        # block projection from the aim point, of the front part cut below
        # the plane through the aim point
        beyond = block & (side_s > upper).any(axis=1)
        (px, py, pz), side_b, count_b = _clip(*front, beyond, upper)
        block &= (count_b >= 3) & ~(side_b <= 0.0).all(axis=1)
        dx, dy, dz = per_pair(ax) - px, per_pair(ay) - py, per_pair(az) - pz
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        dx, dy, dz = dx / dist, dy / dist, dz / dist
        denom_b = dx * per_pair(nx) + dy * per_pair(ny) + dz * per_pair(nz)
        t_b = -side_b / denom_b
        block &= (dist > 0.0).all(axis=1) & (np.abs(denom_b) >= _PERP_TOL).all(axis=1)
        block_x, block_y = _local_xy(px + t_b * dx, py + t_b * dy, pz + t_b * dz, c, r)

    if use_culling:
        shadow &= ~_culled(shadow_x, shadow_y, per_pair(hx), per_pair(hy))
        block &= ~_culled(block_x, block_y, per_pair(hx), per_pair(hy))

    # row 2p + kind is pair p's image of kind `_KINDS[kind]`; only the
    # flagged rows are cleaned, the others can hold inf or NaN
    w = max(block_x.shape[1], shadow_x.shape[1])
    x, y = np.zeros((2, len(cols), 2, w))
    for kind, (xs, ys) in enumerate(((block_x, block_y), (shadow_x, shadow_y))):
        x[:, kind, : xs.shape[1]], y[:, kind, : ys.shape[1]] = xs, ys
    flagged = np.flatnonzero(np.stack([block, shadow], axis=1))
    count = np.stack([count_b, count_s], axis=1).ravel()[flagged]
    x, y = x.reshape(-1, w)[flagged], y.reshape(-1, w)[flagged]
    kept, ring_xy, lengths = clean_rows(x, y, count)
    pair, kinds = np.divmod(flagged[kept], 2)
    return rows[pair], cols[pair], kinds, ring_xy, lengths


def _clip(xyz: np.ndarray, side: np.ndarray, count: np.ndarray, rows: np.ndarray, upper=None):
    """One Sutherland-Hodgman pass: the flagged polygons cut to the part
    with side >= 0, or with side <= upper if `upper` (P, 1) is given.

    `xyz` (3, P, V) holds P planar polygons of count[p] vertices each,
    padded with copies of the first vertex, and `side` (P, V) their
    signed plane distances.  A cut edge a -> b gets the vertex
    a + t (b - a), t = sa / (sa - sb), on the plane.  Returns new
    (xyz, side, count), wider if a polygon gained vertices; rows that
    are not flagged keep their vertices.
    """
    q = np.flatnonzero(rows)
    if not len(q):
        return xyz, side, count
    width = side.shape[1]
    a = xyz[:, q]
    sa = side[q] if upper is None else upper[q] - side[q]
    b, sb = np.roll(a, -1, axis=2), np.roll(sa, -1, axis=1)
    valid = np.arange(width) < count[q, None]
    cross = ((sa > 0.0) & (sb < 0.0)) | ((sa < 0.0) & (sb > 0.0))
    # slot 2k: vertex k if inside, slot 2k + 1: the cut of edge k
    slots = np.stack([valid & (sa >= 0.0), valid & cross], axis=-1).reshape(len(q), -1)
    cand = np.stack([a, a + sa / (sa - sb) * (b - a)], axis=-1).reshape(3, len(q), -1)
    cand_s = np.stack([sa, np.zeros_like(sa)], axis=-1).reshape(len(q), -1)
    kept = slots.sum(axis=1)
    grown = max(width, int(kept.max()))
    order = np.argsort(~slots, axis=1, kind="stable")[:, :grown]
    order = np.where(np.arange(grown) < kept[:, None], order, order[:, :1])
    cut_s = np.take_along_axis(cand_s, order, axis=1)
    pad = grown - width
    xyz = np.concatenate([xyz, np.repeat(xyz[:, :, :1], pad, axis=2)], axis=2)
    side = np.concatenate([side, np.repeat(side[:, :1], pad, axis=1)], axis=1)
    xyz[:, q] = np.take_along_axis(cand, order[None], axis=2)
    side[q] = cut_s if upper is None else upper[q] - cut_s
    count = count.copy()
    count[q] = kept
    return xyz, side, count


def subject_quads(
    of: OrientedField, j: int, use_culling: bool = True
) -> List[ProjectedQuad]:
    """Surviving occluder quads for subject j, in field order (block
    before shadow per occluder), as polygons in the subject's local plane:
    `_block_quads` for a chunk of one subject.

    Only the capsule candidates (`OrientedField.candidates`) are
    projected; `use_culling=False` projects every neighbour and keeps
    every quad.
    """
    return _projected(of, _block_quads(of, j, j + 1, use_culling))


def _projected(of: OrientedField, quads) -> List[ProjectedQuad]:
    """The `_block_quads` arrays of one subject as polygons."""
    _, cols, kinds, ring_xy, lengths = (q.tolist() for q in quads)
    return [
        ProjectedQuad(source_id=of.ids[i], kind=_KINDS[kind], ring=Polygon2(ring[:n]))
        for i, kind, ring, n in zip(cols, kinds, ring_xy, lengths)
    ]


def _culled(xs: np.ndarray, ys: np.ndarray, hx, hy) -> np.ndarray:
    """True for each ring (points on the last axis) whose points all lie
    beyond one side of the 2hx x 2hy mirror: it cannot meet it."""
    return (
        np.all(xs > hx, axis=-1)
        | np.all(xs < -hx, axis=-1)
        | np.all(ys > hy, axis=-1)
        | np.all(ys < -hy, axis=-1)
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
    and the chunks are independent and may fan out to a process pool.
    Results are identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    start = time.perf_counter()
    of = OrientedField(layout, sun)
    n = of.n
    if n == 0:
        return FieldReport(sun=sun, date_label=date_label, records=(), average=1.0, duration=0.0)
    chunks = list(_blocks(of))
    if workers > 1 and n > 1:
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
        HeliostatRecord(id=hid, efficiency=e, area_reflecting=e * w * h, area_total=w * h)
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
    for r in report.records:
        lines.append(
            f"{r.id} {r.efficiency:.9g} {r.area_reflecting:.9g} {r.area_total:.9g}"
        )
    lines.append(f"# average {report.average:.9g}")
    return "\n".join(lines) + "\n"


def write_report(report: FieldReport, path: str, include_timing: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report, include_timing=include_timing))
