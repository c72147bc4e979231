"""Heliostat records and the single-subject entry points.

For a subject mirror the occluders are clipped to the valid side of the
subject plane and projected: along the light direction for shadowing,
toward the subject's aim point for blocking.  The projected quads are
culled cheaply; the efficiency is one minus the fraction of the mirror
that they cover.  `efficiency` and `candidate_quads` run that pipeline
through the array engine in `field`, which orients the mirrors for the
sun (`field.OrientedField`); a heliostat holds no orientation.  The
heliostat sequence becomes a layout first
(`field.FieldLayout.from_heliostats`), which refuses a field that breaks
a layout rule, such as two mirrors with one id, with a `ValueError` that
names the mirror.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .linalg3 import Vec3
from .polygon2d import Polygon2
from .solar import SunState

__all__ = [
    "Heliostat",
    "ProjectedQuad",
    "EfficiencyResult",
    "candidate_quads",
    "efficiency",
]


@dataclass(frozen=True)
class Heliostat:
    """Flat rectangular mirror: center, dimensions, aim point, spin angle.

    Its local frame, for a sun, has its origin at the center and Z' along
    the normal, which bisects the directions to the aim point and to the
    sun; the X' axis makes the spin angle with the plant XY plane.
    """

    id: str
    center: Vec3
    width: float  # L_x, m
    height: float  # L_y, m
    aim: Vec3
    spin: float = 0.0

    def outline(self) -> Polygon2:
        """Subject polygon in its own plane (counterclockwise)."""
        hx, hy = self.width / 2.0, self.height / 2.0
        return Polygon2([(-hx, hy), (-hx, -hy), (hx, -hy), (hx, hy)])

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
    width and height."""

    subject_id: str
    efficiency: float
    quads: Tuple[ProjectedQuad, ...]
    half_size: Tuple[float, float]

    def outline(self) -> Polygon2:
        """The mirror in its own plane (counterclockwise)."""
        hx, hy = self.half_size
        return Polygon2([(-hx, hy), (-hx, -hy), (hx, -hy), (hx, hy)])


def orient(h: Heliostat, sun: SunState) -> Heliostat:
    """The heliostat itself, once it is known not to sit at its receiver.

    A heliostat holds no orientation: the engine and the oracle each
    derive it for the sun they are given.  This stays only because the
    benchmark under `perfbench/` calls it, and goes with the benchmark
    change of ROADMAP item 1.
    """
    if (h.aim - h.center).norm() == 0.0:
        raise ValueError("heliostat at receiver")
    return h


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
    surviving quads cover (`clip.covered_areas`).  The subject is looked
    up by id in `field` as in `candidate_quads`, and the result equals the
    subject's record in `field.evaluate_field`.
    """
    from .field import subject_efficiency

    of, j = _oriented_subject(subject, field, sun)
    return subject_efficiency(of, j, use_culling=use_culling)
