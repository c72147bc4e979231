"""Heliostat records, scalar orientation and the single-subject entry
points.

For a subject mirror the occluders are clipped to the valid side of the
subject plane and projected: along the light direction for shadowing,
toward the subject's aim point for blocking.  The projected quads are
culled cheaply; the efficiency is one minus the fraction of the mirror
that they cover.  `efficiency` and `candidate_quads` run that pipeline
through the array engine in `field`; `orient` keeps the scalar mirror
frames that the 3D-ray oracle uses as its independent reference.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .clip import Region, subtract_rings
from .linalg3 import HeliostatFrame, Vec3, frame_from_normal, from_frame
from .polygon2d import Point2, Polygon2
from .solar import SunState

__all__ = [
    "Heliostat",
    "ProjectedQuad",
    "EfficiencyResult",
    "orient",
    "candidate_quads",
    "efficiency",
]


@dataclass(frozen=True)
class Heliostat:
    """Flat rectangular mirror: center, dimensions, aim point, spin angle.

    Orientation-dependent fields (normal, frame, plant-frame corners) are
    None until `orient` is called for a sun state.
    """

    id: str
    center: Vec3
    width: float  # L_x, m
    height: float  # L_y, m
    aim: Vec3
    spin: float = 0.0
    normal: Optional[Vec3] = None
    frame: Optional[HeliostatFrame] = None
    corners: Optional[Tuple[Vec3, ...]] = None

    def local_corners(self) -> Tuple[Vec3, ...]:
        """Corner coordinates in the local frame, counterclockwise."""
        hx, hy = self.width / 2.0, self.height / 2.0
        return (
            Vec3(-hx, hy, 0.0),
            Vec3(-hx, -hy, 0.0),
            Vec3(hx, -hy, 0.0),
            Vec3(hx, hy, 0.0),
        )

    def outline(self) -> Polygon2:
        """Subject polygon in its own plane (counterclockwise)."""
        return Polygon2(tuple(Point2(c.x, c.y) for c in self.local_corners()))

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class ProjectedQuad:
    source_id: str
    kind: str  # "shadow" | "block"
    ring: Polygon2  # in the subject's local plane


@dataclass(frozen=True)
class EfficiencyResult:
    """One subject's efficiency, its surviving quads and its mirror's half
    width and height; the residual is built from them on first use."""

    subject_id: str
    efficiency: float
    quads: Tuple[ProjectedQuad, ...]
    half_size: Tuple[float, float]

    def outline(self) -> Polygon2:
        """The mirror in its own plane (counterclockwise)."""
        hx, hy = self.half_size
        return Polygon2([(-hx, hy), (-hx, -hy), (hx, -hy), (hx, hy)])

    @cached_property
    def residual(self) -> Region:
        """The reflecting part: the outline minus each quad in turn."""
        outline = [tuple(p) for p in self.outline().ring]
        rings = ([tuple(p) for p in q.ring.ring] for q in self.quads)
        return Region.from_rings(subtract_rings([outline], rings))


def orient(h: Heliostat, sun: SunState) -> Heliostat:
    """Aim the mirror: normal along (u_t - u_s), frame and corners cached."""
    to_target = h.aim - h.center
    if to_target.norm() == 0.0:
        raise ValueError("heliostat at receiver")
    u_t = to_target.normalized()
    n = (u_t - sun.u_s).normalized()
    frame = frame_from_normal(n, h.spin, h.center)
    corners = tuple(from_frame(frame, c) for c in h.local_corners())
    return dataclasses.replace(h, normal=n, frame=frame, corners=corners)


def _oriented_subject(subject: Heliostat, field: Sequence[Heliostat], sun: SunState):
    """The array view of `field` for this sun and the subject's row in it."""
    from .field import OrientedField

    of = OrientedField(field, sun)
    try:
        return of, of.ids.index(subject.id)
    except ValueError:
        raise ValueError(f"unknown heliostat id {subject.id!r}") from None


def candidate_quads(
    subject: Heliostat,
    field: Sequence[Heliostat],
    sun: SunState,
    use_culling: bool = True,
) -> List[ProjectedQuad]:
    """Projected block and shadow quads of the field mirrors on the
    subject, in field order (block before shadow per occluder), optionally
    culled; see `field.subject_quads`.

    The subject is looked up by id in `field`; a `ValueError` names an id
    that is not there.  Orientation is computed for `sun`, so the
    heliostats need not be oriented.
    """
    from .field import subject_quads

    of, j = _oriented_subject(subject, field, sun)
    return subject_quads(of, j, use_culling=use_culling)


def efficiency(
    subject: Heliostat,
    field: Sequence[Heliostat],
    sun: SunState,
    use_culling: bool = True,
) -> EfficiencyResult:
    """Blocking-and-shadowing efficiency of `subject` against `field`.

    The efficiency is one minus the fraction of the mirror that the
    surviving quads cover (`clip.covered_areas`); the residual region,
    the mirror outline with every quad subtracted in turn, is built when
    it is first read.  The subject is looked up by id in `field` as in
    `candidate_quads`, and the result equals the subject's record in
    `field.evaluate_field`.
    """
    from .field import subject_efficiency

    of, j = _oriented_subject(subject, field, sun)
    return subject_efficiency(of, j, use_culling=use_culling)
