"""Field layouts, layout file I/O, synthetic benchmark layouts and the
batch efficiency engine.

The batch engine first keeps, per subject, only the neighbours within a
sound reach bound (see `OrientedField.candidates`), then vectorizes their
projection and culling with numpy; only the few surviving quads go
through the polygon clipper.  Results are deterministic and assembled
in heliostat order regardless of the worker count.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .clip import Region, clean_ring, difference, region_area
from .linalg3 import Vec3
from .polygon2d import Point2, Polygon2
from .shading import (
    EfficiencyResult,
    Heliostat,
    ProjectedQuad,
    _PERP_TOL,
    block_image,
    shadow_image,
)
from .solar import SunState

__all__ = [
    "HeliostatSpec",
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

# Relative widening of the reach bound, far above the rounding of the
# projected coordinates, so a neighbour whose image just touches the
# mirror in exact arithmetic is never dropped.
_REACH_SLACK = 1e-9


class LayoutError(ValueError):
    pass


@dataclass(frozen=True)
class HeliostatSpec:
    id: str
    center: Vec3
    width: float
    height: float
    receiver: str
    spin: float = 0.0


@dataclass(frozen=True)
class FieldLayout:
    latitude_deg: float
    receivers: Tuple[Tuple[str, Vec3], ...]
    heliostats: Tuple[HeliostatSpec, ...]

    def receiver_map(self) -> Dict[str, Vec3]:
        return dict(self.receivers)

    def to_heliostats(self) -> List[Heliostat]:
        recv = self.receiver_map()
        return [
            Heliostat(
                id=h.id,
                center=h.center,
                width=h.width,
                height=h.height,
                aim=recv[h.receiver],
                spin=h.spin,
            )
            for h in self.heliostats
        ]

    def validate(self) -> None:
        recv = {}
        for rid, pos in self.receivers:
            if rid in recv:
                raise LayoutError(f"duplicate receiver id: {rid!r}")
            recv[rid] = pos
        seen = set()
        for h in self.heliostats:
            if h.id in seen:
                raise LayoutError(f"duplicate heliostat id: {h.id!r}")
            seen.add(h.id)
            if h.receiver not in recv:
                raise LayoutError(
                    f"heliostat {h.id!r} references unknown receiver {h.receiver!r}"
                )
            if h.width <= 0 or h.height <= 0:
                raise LayoutError(f"heliostat {h.id!r} has non-positive dimensions")
            if recv[h.receiver].z <= h.center.z:
                raise LayoutError(
                    f"heliostat {h.id!r}: receiver {h.receiver!r} not above center"
                )


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
# layout file format


def _parse_fields(parts: Sequence[str], lineno: int) -> Dict[str, str]:
    out = {}
    for part in parts:
        if "=" not in part:
            raise LayoutError(f"line {lineno}: malformed field {part!r}")
        key, value = part.split("=", 1)
        out[key] = value
    return out


def load_layout(path: str) -> FieldLayout:
    """Read a layout file; see the package README for the line format."""
    latitude: Optional[float] = None
    receivers: List[Tuple[str, Vec3]] = []
    heliostats: List[HeliostatSpec] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            try:
                fields = _parse_fields(parts[1:], lineno)

                def num(key: str) -> float:
                    value = float(fields[key])
                    if not math.isfinite(value):
                        raise LayoutError(
                            f"line {lineno}: {key}={fields[key]} is not a finite number"
                        )
                    return value

                if kind == "plant":
                    latitude = num("lat")
                elif kind == "receiver":
                    receivers.append((fields["id"], Vec3(num("x"), num("y"), num("z"))))
                elif kind == "heliostat":
                    heliostats.append(
                        HeliostatSpec(
                            id=fields["id"],
                            center=Vec3(num("x"), num("y"), num("z")),
                            width=num("w"),
                            height=num("h"),
                            receiver=fields["receiver"],
                            spin=num("phi") if "phi" in fields else 0.0,
                        )
                    )
                else:
                    raise LayoutError(f"line {lineno}: unknown record type {kind!r}")
            except KeyError as exc:
                raise LayoutError(f"line {lineno}: missing field {exc}") from None
            except ValueError as exc:
                if isinstance(exc, LayoutError):
                    raise
                raise LayoutError(f"line {lineno}: {exc}") from None
    if latitude is None:
        raise LayoutError("missing 'plant lat=...' line")
    layout = FieldLayout(
        latitude_deg=latitude, receivers=tuple(receivers), heliostats=tuple(heliostats)
    )
    layout.validate()
    return layout


def save_layout(layout: FieldLayout, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"plant lat={layout.latitude_deg:.9g}\n")
        for rid, pos in layout.receivers:
            fh.write(
                f"receiver id={rid} x={pos.x:.9g} y={pos.y:.9g} z={pos.z:.9g}\n"
            )
        for h in layout.heliostats:
            line = (
                f"heliostat id={h.id} x={h.center.x:.9g} y={h.center.y:.9g} "
                f"z={h.center.z:.9g} w={h.width:.9g} h={h.height:.9g} "
                f"receiver={h.receiver}"
            )
            if h.spin != 0.0:
                line += f" phi={h.spin:.9g}"
            fh.write(line + "\n")


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
    if len(pts) > 1:
        # pairwise separation must exceed the mirror diagonal
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        if d2.min() <= diag * diag:
            raise LayoutError("infeasible spacing: generated mirrors overlap")
    heliostats = tuple(
        HeliostatSpec(
            id=f"h{i:04d}",
            center=Vec3(float(x), float(y), spec.pivot_height),
            width=spec.mirror_width,
            height=spec.mirror_height,
            receiver="tower",
        )
        for i, (x, y) in enumerate(centers)
    )
    layout = FieldLayout(
        latitude_deg=spec.latitude_deg,
        receivers=(("tower", Vec3(0.0, 0.0, spec.tower_height)),),
        heliostats=heliostats,
    )
    layout.validate()
    return layout


# ---------------------------------------------------------------------------
# batch engine


class OrientedField:
    """Immutable array view of a whole oriented field for one sun state.

    `field` is a layout or a heliostat sequence; any orientation cached on
    the heliostats is ignored and recomputed here for `sun`.
    """

    def __init__(self, field: Union[FieldLayout, Sequence[Heliostat]], sun: SunState):
        helios = field.to_heliostats() if isinstance(field, FieldLayout) else field
        self.ids = [h.id for h in helios]
        self.sun = sun
        n = len(helios)
        self.n = n
        self.centers = np.array([h.center.as_array() for h in helios]).reshape(n, 3)
        self.aims = np.array([h.aim.as_array() for h in helios]).reshape(n, 3)
        self.dims = np.array([[h.width, h.height] for h in helios]).reshape(n, 2)
        spins = np.array([h.spin for h in helios])

        u_s = sun.u_s.as_array()
        to_t = self.aims - self.centers
        dist = np.linalg.norm(to_t, axis=1)
        if np.any(dist == 0.0):
            raise ValueError("heliostat at receiver")
        u_t = to_t / dist[:, None]
        n_raw = u_t - u_s
        self.normals = n_raw / np.linalg.norm(n_raw, axis=1)[:, None]

        nx, ny, nz = self.normals.T
        rho = np.hypot(nx, ny)
        alpha = np.where(rho > 0.0, np.arctan2(nx, -ny), 0.0)
        beta = np.arctan2(rho, nz)
        self.rotations = _rotations_zxz(alpha, beta, spins)

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

        # reach prefilter constants, derived in `candidates`
        self.half_diagonals = 0.5 * np.hypot(self.dims[:, 0], self.dims[:, 1])
        z = self.corners[:, :, 2]
        dz = float(z.max() - z.min()) if n else 0.0
        sin_eta = -float(u_s[2])
        shadow_reach = math.inf
        if sin_eta > 0.0:
            shadow_reach = dz * math.hypot(u_s[0], u_s[1]) / sin_eta
        rise = self.aims[:, 2] - z.max(axis=1)
        run = np.hypot(to_t[:, 0], to_t[:, 1]) + self.half_diagonals
        with np.errstate(divide="ignore", invalid="ignore"):
            block_reach = np.where(rise > 0.0, dz * run / rise, math.inf)
        self.reach = np.maximum(shadow_reach, block_reach) + self.half_diagonals

    def candidates(self, j: int) -> np.ndarray:
        """Ascending indices of the neighbours that can shadow or block
        mirror j; every other neighbour's images miss the mirror.

        Let dz be the field-wide spread of corner heights and hd the
        mirror half-diagonals.  A neighbour matters only if its shadow or
        block image meets the mirror: some point p of the neighbour (or of
        its part clipped to the valid side of the plane, a convex
        combination of its corners) maps to a point q of mirror j.  Both
        lie within the field's corner heights, so p_z - q_z <= dz.

        Shadow: q = p + t u_s with t >= 0, and u_s sinks at the solar
        height eta, so p sits up-sun of q, p_z - q_z above it, at
        horizontal offset (p_z - q_z) / tan(eta) <= dz / tan(eta).

        Block: p lies inside the slab between the mirror plane and the aim
        point T, hence on the segment from q to T: p = q + lam (T - q) with
        0 < lam < 1.  With T above the mirror, p_z - q_z > 0 and the
        horizontal offset is (p_z - q_z) / tan(eps), where the sight line
        from q rises at
        tan(eps) = (T_z - q_z) / |T_h - q_h|
                >= (T_z - max corner z of j) / (|T_h - c_j,h| + hd_j),
        so the offset is at most dz over that lower bound.

        The horizontal distance from a mirror's centre to any of its
        points is at most its half-diagonal, so a neighbour i can matter
        only if |c_i,h - c_j,h| <= max(shadow, block offset) + hd_i + hd_j.
        With the sun at or below the horizon, or the aim point not above
        every corner of mirror j, the offset is unbounded and every
        neighbour is kept; so is one whose distance is not a number.
        """
        d = self.centers[:, :2] - self.centers[j, :2]
        limit = (self.reach[j] + self.half_diagonals) * (1.0 + _REACH_SLACK)
        # "not beyond" rather than "within", so NaN geometry stays in and
        # fails in the projection exactly as without the prefilter
        near = ~(np.einsum("ij,ij->i", d, d) > limit * limit)
        near[j] = False
        return np.flatnonzero(near)


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


def subject_quads(
    of: OrientedField, j: int, use_culling: bool = True
) -> List[ProjectedQuad]:
    """Surviving occluder quads for subject j, in field order (block
    before shadow per occluder), as polygons in the subject's local plane.

    Only the neighbours within reach (`OrientedField.candidates`) are
    projected; `use_culling=False` projects every neighbour and keeps
    every quad.  Occluders entirely inside the valid projection region go
    through the vectorized fast path; the rare occluder straddling a
    region boundary is clipped in 3D by the scalar projection routines.
    """
    if use_culling:
        idx = of.candidates(j)
    else:
        idx = np.delete(np.arange(of.n), j)
    k = len(idx)
    n_c = of.normals[j]
    x_c = of.centers[j]
    rot = of.rotations[j]
    hx, hy = of.dims[j] / 2.0
    plane_d = float(n_c @ x_c)
    u_s = of.sun.u_s.as_array()
    corners = of.corners[idx]  # (k, 4, 3)
    side = corners @ n_c - plane_d  # (k, 4), positive on the front side

    def local_xy(pts):
        return np.einsum("ij,naj->nai", rot, pts - x_c)[:, :, :2]

    # shadow projection along the light direction: only the part of the
    # occluder on the front side of the subject plane casts on the mirror
    denom_s = float(n_c @ u_s)
    if abs(denom_s) >= _PERP_TOL:
        shadow_full = np.all(side >= 0.0, axis=1)
        shadow_part = ~shadow_full & np.any(side >= 0.0, axis=1)
        t_s = -side / denom_s
        shadow_xy = local_xy(corners + t_s[:, :, None] * u_s)
    else:
        shadow_full = np.zeros(k, dtype=bool)
        shadow_part = shadow_full.copy()
        shadow_xy = np.zeros((k, 4, 2))

    # block projection from the aim point: a corner has a finite image
    # only inside the slab 0 < side < side(aim)
    side_t = float(n_c @ of.aims[j]) - plane_d
    if side_t > 0.0:
        upper = side_t * (1.0 - 1e-9)
        block_full = np.all((side > 0.0) & (side < upper), axis=1)
        block_part = (
            ~block_full
            & ~np.all(side <= 0.0, axis=1)
            & ~np.all(side >= upper, axis=1)
        )
        d = of.aims[j] - corners  # (k, 4, 3)
        dist = np.linalg.norm(d, axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_ta = d / dist[:, :, None]
            denom_b = u_ta @ n_c  # (k, 4)
            t_b = -side / denom_b
        block_full &= np.all(dist > 0.0, axis=1) & np.all(
            np.abs(denom_b) >= _PERP_TOL, axis=1
        )
        with np.errstate(invalid="ignore"):
            block_xy = local_xy(corners + t_b[:, :, None] * u_ta)
    else:
        block_full = np.zeros(k, dtype=bool)
        block_part = block_full.copy()
        block_xy = np.zeros((k, 4, 2))

    if use_culling:
        shadow_full &= ~_culled(shadow_xy, hx, hy)
        block_full &= ~_culled(block_xy, hx, hy)

    n_c_v = Vec3(float(n_c[0]), float(n_c[1]), float(n_c[2]))
    target_v = Vec3(
        float(of.aims[j][0]), float(of.aims[j][1]), float(of.aims[j][2])
    )

    def to_local(pts) -> np.ndarray:
        arr = np.array([p.as_array() for p in pts])
        return (arr - x_c) @ rot.T[:, :2]

    quads: List[ProjectedQuad] = []
    for r in np.flatnonzero(block_full | shadow_full | block_part | shadow_part):
        ring_b = block_xy[r] if block_full[r] else None
        ring_s = shadow_xy[r] if shadow_full[r] else None
        if block_part[r] or shadow_part[r]:
            cs = [
                Vec3(float(c[0]), float(c[1]), float(c[2])) for c in corners[r]
            ]
            if block_part[r]:
                pts = block_image(cs, n_c_v, plane_d, target_v)
                if pts is not None:
                    ring = to_local(pts)
                    if not use_culling or not _culled(ring, hx, hy):
                        ring_b = ring
            if shadow_part[r]:
                pts = shadow_image(cs, n_c_v, plane_d, of.sun.u_s)
                if pts is not None:
                    ring = to_local(pts)
                    if not use_culling or not _culled(ring, hx, hy):
                        ring_s = ring
        source = of.ids[idx[r]]
        if ring_b is not None:
            q = _quad_poly(ring_b)
            if q is not None:
                quads.append(ProjectedQuad(source_id=source, kind="block", ring=q))
        if ring_s is not None:
            q = _quad_poly(ring_s)
            if q is not None:
                quads.append(ProjectedQuad(source_id=source, kind="shadow", ring=q))
    return quads


def _culled(xy: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """True for each ring (points on the second-to-last axis) whose points
    all lie beyond one side of the 2hx x 2hy mirror: it cannot meet it."""
    xs = xy[..., 0]
    ys = xy[..., 1]
    return (
        np.all(xs > hx, axis=-1)
        | np.all(xs < -hx, axis=-1)
        | np.all(ys > hy, axis=-1)
        | np.all(ys < -hy, axis=-1)
    )


def _quad_poly(xy: np.ndarray) -> Optional[Polygon2]:
    return clean_ring([(float(x), float(y)) for x, y in xy])


def subject_efficiency(
    of: OrientedField, j: int, use_culling: bool = True
) -> EfficiencyResult:
    """Efficiency of subject j: its surviving quads (`subject_quads`) are
    subtracted in turn from the mirror outline, and the residual area is
    divided by the mirror area."""
    hx, hy = of.dims[j] / 2.0
    outline = Polygon2(
        (Point2(-hx, hy), Point2(-hx, -hy), Point2(hx, -hy), Point2(hx, hy))
    )
    residual = Region.from_polygon(outline)
    quads = subject_quads(of, j, use_culling=use_culling)
    for quad in quads:
        residual = difference(residual, quad.ring)
        if not residual.components:
            break
    area = of.dims[j, 0] * of.dims[j, 1]
    e = min(1.0, max(0.0, region_area(residual) / area))
    return EfficiencyResult(
        subject_id=of.ids[j], efficiency=e, residual=residual, quads=tuple(quads)
    )


_POOL_FIELD: Optional[OrientedField] = None


def _pool_init(of: OrientedField) -> None:
    global _POOL_FIELD
    _POOL_FIELD = of


def _pool_eval(args) -> float:
    j, use_culling = args
    return subject_efficiency(_POOL_FIELD, j, use_culling).efficiency


def default_workers() -> int:
    text = os.environ.get("HELIOSHADE_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"HELIOSHADE_WORKERS must be a positive integer, got {text!r}")
    return workers


def evaluate_field(
    layout: FieldLayout,
    sun: SunState,
    workers: Optional[int] = None,
    use_culling: bool = True,
    date_label: str = "",
) -> FieldReport:
    """Blocking-and-shadowing efficiency of every heliostat in the layout.

    Orientation happens once for the whole field; per-subject evaluations
    are independent and may fan out to a process pool.  Results are
    identical for any worker count.
    """
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    start = time.perf_counter()
    of = OrientedField(layout, sun)
    n = of.n
    if n == 0:
        return FieldReport(sun=sun, date_label=date_label, records=(), average=1.0, duration=0.0)
    if workers > 1 and n > 1:
        import multiprocessing as mp

        # fork shares the oriented field without pickling it; spawn is
        # the only method on some platforms
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        with ctx.Pool(workers, initializer=_pool_init, initargs=(of,)) as pool:
            effs = pool.map(_pool_eval, [(j, use_culling) for j in range(n)], chunksize=max(1, n // (4 * workers)))
    else:
        effs = [subject_efficiency(of, j, use_culling).efficiency for j in range(n)]
    duration = time.perf_counter() - start
    records = tuple(
        HeliostatRecord(
            id=of.ids[j],
            efficiency=effs[j],
            area_reflecting=effs[j] * of.dims[j, 0] * of.dims[j, 1],
            area_total=of.dims[j, 0] * of.dims[j, 1],
        )
        for j in range(n)
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
