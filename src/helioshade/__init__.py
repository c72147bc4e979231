"""Heliostat blocking-and-shadowing efficiency via 2D polygon clipping."""

from .linalg3 import Vec3
from .polygon2d import Point2, Polygon2
from .clip import Region, difference, intersection, region_area
from .solar import SunState, solar_position, sun_vector
from .shading import Heliostat, efficiency

__all__ = [
    "Vec3",
    "Point2",
    "Polygon2",
    "Region",
    "difference",
    "intersection",
    "region_area",
    "SunState",
    "solar_position",
    "sun_vector",
    "Heliostat",
    "efficiency",
]

__version__ = "0.1.0"
