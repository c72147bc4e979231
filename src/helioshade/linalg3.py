"""3D vectors, ZXZ Euler rotations and plant-frame <-> mirror-frame transforms.

The plant frame has X pointing north, Y pointing west and Z up.  Every
mirror owns a local frame with origin at its center and Z' along the mirror
normal; the X' axis forms the spin angle ``phi`` with the plant XY plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Vec3",
    "EulerZXZ",
    "HeliostatFrame",
    "rotation_zxz",
    "frame_from_normal",
    "to_frame",
    "from_frame",
]


@dataclass(frozen=True)
class Vec3:
    """Point or direction in 3D.  Meters for points, unitless for directions."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Vec3":
        return Vec3(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class EulerZXZ:
    """Euler angles in the ZXZ convention, radians."""

    alpha: float
    beta: float
    gamma: float


def rotation_zxz(angles: EulerZXZ) -> np.ndarray:
    """3x3 rotation matrix Rz(gamma) @ Rx(beta) @ Rz(alpha).

    Sign convention: the Z factor maps (1,0,0) to (cos a, -sin a, 0), so
    rotation_zxz(EulerZXZ(pi/2, 0, 0)) sends (1,0,0) to (0,-1,0).
    """
    ca, sa = math.cos(angles.alpha), math.sin(angles.alpha)
    cb, sb = math.cos(angles.beta), math.sin(angles.beta)
    cg, sg = math.cos(angles.gamma), math.sin(angles.gamma)
    rz_a = np.array([[ca, sa, 0.0], [-sa, ca, 0.0], [0.0, 0.0, 1.0]])
    rx_b = np.array([[1.0, 0.0, 0.0], [0.0, cb, sb], [0.0, -sb, cb]])
    rz_g = np.array([[cg, sg, 0.0], [-sg, cg, 0.0], [0.0, 0.0, 1.0]])
    return rz_g @ rx_b @ rz_a


@dataclass(frozen=True)
class HeliostatFrame:
    """Local frame of a mirror: origin at the center, Z' along the normal.

    The rotation matrix is stored explicitly; frames are reused for every
    projected corner so the trig is paid once.
    """

    origin: Vec3
    rotation: np.ndarray  # 3x3 orthogonal, det +1

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeliostatFrame):
            return NotImplemented
        return self.origin == other.origin and np.array_equal(
            self.rotation, other.rotation
        )


def frame_from_normal(n: Vec3, phi: float, center: Vec3) -> HeliostatFrame:
    """Frame whose Z' axis is n/|n| and whose X' axis makes angle phi with XY.

    Uses atan2 instead of the plain arctan ratio for quadrant correctness.
    When n has no horizontal component the azimuthal roll is undefined and
    alpha = 0 is taken as the canonical choice.
    """
    norm = n.norm()
    if norm == 0.0:
        raise ValueError("degenerate normal")
    nx, ny, nz = n.x / norm, n.y / norm, n.z / norm
    rho = math.hypot(nx, ny)
    alpha = math.atan2(nx, -ny) if rho > 0.0 else 0.0
    beta = math.atan2(rho, nz)
    rot = rotation_zxz(EulerZXZ(alpha, beta, phi))
    return HeliostatFrame(origin=center, rotation=rot)


def to_frame(f: HeliostatFrame, x: Vec3) -> Vec3:
    """Plant-frame point to local coordinates: R (x - origin)."""
    v = f.rotation @ (x - f.origin).as_array()
    return Vec3.from_array(v)


def from_frame(f: HeliostatFrame, xp: Vec3) -> Vec3:
    """Local point back to the plant frame: R^T x' + origin."""
    v = f.rotation.T @ xp.as_array()
    return Vec3(v[0] + f.origin.x, v[1] + f.origin.y, v[2] + f.origin.z)
