"""Brute-force sampling reference for the clipping engine.

Estimates the unobstructed fraction of the subject mirror by testing a
dense set of sample points against the occluder images.  Two layers of
independence: the default mode reuses the projection code but replaces the
clipping by even-odd membership tests, so it checks clipping, culling and
overlap handling; the "independent" mode additionally recomputes the
occlusion per sample point by direct ray/plane intersection in 3D, so it
checks the projection equations themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .polygon2d import contains_many
from .shading import Heliostat, candidate_quads
from .solar import SunState

__all__ = ["OracleConfig", "sample_efficiency"]


@dataclass(frozen=True)
class OracleConfig:
    samples: int = 1_000_000
    seed: int = 20140109
    independent: bool = False  # re-derive occlusion in 3D per sample


def _sample_points(cfg: OracleConfig, width: float, height: float):
    """Sample positions on the mirror rectangle, local-frame coordinates:
    one uniform point in each cell of an m x m grid."""
    m = max(2, int(round(math.sqrt(cfg.samples))))
    rng = np.random.default_rng(cfg.seed)
    jitter = rng.random((2, m, m))
    base = np.arange(m) / m
    xs = base[:, None] + jitter[0] / m
    ys = base[None, :] + jitter[1] / m
    xs = (xs.ravel() - 0.5) * width
    ys = (ys.ravel() - 0.5) * height
    return xs, ys


def _covered_by_quads(subject, field, sun, xs, ys) -> np.ndarray:
    covered = np.zeros(xs.shape, dtype=bool)
    for quad in candidate_quads(subject, field, sun, use_culling=False):
        covered |= contains_many(quad.ring, xs, ys)
    return covered


def _unit(v: np.ndarray) -> np.ndarray:
    """v over its length, the length taken as sqrt(x*x + y*y + z*z)."""
    norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if norm == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / norm


def _frame(h: Heliostat, sun: SunState) -> np.ndarray:
    """Rows x', y', n of the mirror's local frame for `sun`, built from
    vectors alone: n bisects the directions to the aim point and to the
    sun, and x' is the horizontal unit vector along z x n (plant X at a
    level mirror) turned by the spin toward n x x'."""
    to_aim = np.subtract(h.aim, h.center, dtype=float)
    n = _unit(_unit(to_aim) - np.array(sun.u_s, dtype=float))
    rho = math.hypot(n[0], n[1])
    x0 = np.array([-n[1], n[0], 0.0]) / rho if rho > 0.0 else np.array([1.0, 0.0, 0.0])
    y0 = np.cross(n, x0)
    c, s = math.cos(h.spin), math.sin(h.spin)
    return np.array([c * x0 + s * y0, c * y0 - s * x0, n])


def _covered_3d(subject: Heliostat, field, sun: SunState, xs, ys) -> np.ndarray:
    """Per-sample occlusion by direct ray tests against each occluder
    rectangle, bypassing the projection equations entirely."""
    rot = _frame(subject, sun)
    origin = np.array(subject.center, dtype=float)
    local = np.stack([xs, ys, np.zeros_like(xs)], axis=1)
    pts = local @ rot + origin  # plant-frame sample points, (n, 3)

    u_s = np.array(sun.u_s, dtype=float)
    target = np.array(subject.aim, dtype=float)
    covered = np.zeros(xs.shape, dtype=bool)
    for other in field:
        if other.id == subject.id:
            continue
        rot_i = _frame(other, sun)
        n_i = rot_i[2]
        c_i = np.array(other.center, dtype=float)
        hx, hy = other.width / 2.0, other.height / 2.0
        plane_d = float(n_i @ c_i)

        # shadow: walk each sample back toward the sun, hit the occluder?
        denom = float(n_i @ u_s)
        if abs(denom) > 1e-12:
            t = (plane_d - pts @ n_i) / denom
            hit = pts + t[:, None] * u_s
            loc = (hit - c_i) @ rot_i.T
            on_mirror = (np.abs(loc[:, 0]) <= hx) & (np.abs(loc[:, 1]) <= hy)
            covered |= on_mirror & (t <= 0.0)

        # block: does the segment sample -> aim point cross the occluder?
        d = target - pts
        denom_b = d @ n_i
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (plane_d - pts @ n_i) / denom_b
        ok = np.abs(denom_b) > 1e-12
        hit = pts + s[:, None] * d
        loc = (hit - c_i) @ rot_i.T
        on_mirror = (np.abs(loc[:, 0]) <= hx) & (np.abs(loc[:, 1]) <= hy)
        covered |= ok & on_mirror & (s > 0.0) & (s < 1.0)
    return covered


def sample_efficiency(
    subject: Heliostat,
    field: Sequence[Heliostat],
    sun: SunState,
    cfg: OracleConfig = OracleConfig(),
) -> Tuple[float, float]:
    """(efficiency estimate, standard error) by dense surface sampling."""
    xs, ys = _sample_points(cfg, subject.width, subject.height)
    if cfg.independent:
        covered = _covered_3d(subject, field, sun, xs, ys)
    else:
        covered = _covered_by_quads(subject, field, sun, xs, ys)
    n = covered.size
    p = 1.0 - float(covered.sum()) / n
    return p, math.sqrt(p * (1.0 - p) / n)
