"""Sun geometry: light-direction vector and a declination/hour-angle model.

Plant frame: X north, Y west, Z up.  The light-travel direction for solar
height eta and azimuth theta (measured from north, positive toward east) is

    u_s = (-cos(eta) cos(theta), cos(eta) sin(theta), -sin(eta))

so morning sun (east) gives u_s with positive y (light heading west).
Times are apparent solar time: hour angle omega = 15 deg * (hour - 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = ["SunState", "sun_vector", "solar_position", "declination"]


@dataclass(frozen=True)
class SunState:
    eta: float  # solar height, radians
    theta: float  # azimuth from north, radians
    u_s: Tuple[float, float, float]  # unit light-travel direction


def sun_vector(eta: float, theta: float) -> SunState:
    """Sun state from solar height and azimuth, both in radians.

    Raises `ValueError` for a non-finite angle, a sun at or below the
    horizon, or a height past the zenith (eta > pi / 2), which would
    give the direction of another sun.
    """
    if not (math.isfinite(eta) and math.isfinite(theta)):
        raise ValueError(f"sun angles must be finite, got eta={eta!r}, theta={theta!r}")
    if eta <= 0.0:
        raise ValueError("sun below horizon")
    if eta > math.pi / 2.0:
        raise ValueError(f"solar height {eta!r} rad is past the zenith")
    # cos(pi / 2) rounds to 6e-17, not 0; that residue would turn a level
    # mirror's frame with theta at the zenith
    horizontal = 0.0 if eta == math.pi / 2.0 else math.cos(eta)
    u = (-horizontal * math.cos(theta), horizontal * math.sin(theta), -math.sin(eta))
    return SunState(eta=eta, theta=theta, u_s=u)


def declination(day_of_year: int) -> float:
    """Solar declination in radians for a day of year (1..365)."""
    return math.radians(23.45) * math.sin(
        math.radians(360.0 * (284 + day_of_year) / 365.0)
    )


def solar_position(day_of_year: int, solar_hour: float, latitude: float) -> tuple:
    """(eta, theta) for a given day, apparent solar hour and latitude (rad).

    Simple declination / hour-angle model; no equation of time, no
    refraction.  Any hour has a position: eta <= 0 is a sun at or below
    the horizon, which `sun_vector` refuses.
    """
    if not 1 <= day_of_year <= 365:
        raise ValueError("day_of_year must be in 1..365")
    if not -math.pi / 2 < latitude < math.pi / 2:
        raise ValueError("latitude must be strictly between the poles")
    delta = declination(day_of_year)
    omega = math.radians(15.0 * (solar_hour - 12.0))
    sin_eta = (
        math.sin(delta) * math.sin(latitude)
        + math.cos(delta) * math.cos(latitude) * math.cos(omega)
    )
    sin_eta = max(-1.0, min(1.0, sin_eta))
    eta = math.asin(sin_eta)
    # Horizontal components of the to-sun direction in (north, west):
    #   north = sin(delta) cos(lat) - cos(delta) sin(lat) cos(omega)
    #   west  = cos(delta) sin(omega)   (afternoon sun is in the west)
    north = math.sin(delta) * math.cos(latitude) - math.cos(delta) * math.sin(
        latitude
    ) * math.cos(omega)
    west = math.cos(delta) * math.sin(omega)
    # Eq-form azimuth from north, positive toward east: to-sun west
    # component is -cos(eta) sin(theta).
    theta = math.atan2(-west, north)
    return eta, theta
