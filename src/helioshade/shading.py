"""Heliostat records and the heliostat-sequence entry point.

For a subject mirror the occluders are clipped to the valid side of the
subject plane and projected: along the light direction for shadowing,
toward the subject's aim point for blocking.  The projected quads are
culled cheaply; the efficiency is one minus the fraction of the mirror
that they cover.  The engine that does this lives in `field` and takes a
`FieldLayout`; a heliostat holds no orientation.  `candidate_quads`
serves callers that hold a heliostat sequence: it makes the sequence a
layout (`field.FieldLayout.from_heliostats`), which refuses a field that
breaks a layout rule, such as two mirrors with one id, with a
`ValueError` that names the mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .polygon2d import Polygon2
from .solar import SunState

__all__ = [
    "Heliostat",
    "ProjectedQuad",
    "EfficiencyResult",
    "candidate_quads",
]


@dataclass(frozen=True)
class Heliostat:
    """Flat rectangular mirror: center, dimensions, aim point, spin angle.

    Its local frame, for a sun, has its origin at the center and Z' along
    the normal, which bisects the directions to the aim point and to the
    sun; the X' axis makes the spin angle with the plant XY plane.
    """

    id: str
    center: Tuple[float, float, float]  # (x, y, z) in the plant frame, m
    width: float  # L_x, m
    height: float  # L_y, m
    aim: Tuple[float, float, float]
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
    if math.dist(h.aim, h.center) == 0.0:
        raise ValueError("heliostat at receiver")
    return h


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
    from .field import FieldLayout, OrientedField, subject_quads

    layout = FieldLayout.from_heliostats(field)
    try:
        j = layout.ids.index(subject.id)
    except ValueError:
        raise ValueError(f"unknown heliostat id {subject.id!r}") from None
    return subject_quads(OrientedField(layout, sun), j, use_culling=use_culling)
