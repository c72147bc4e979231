"""Heliostat blocking-and-shadowing efficiency via 2D polygon clipping."""

from .polygon2d import Point2, Polygon2
from .solar import SunState, solar_position, sun_vector
from .shading import Heliostat, efficiency

__all__ = [
    "Point2",
    "Polygon2",
    "SunState",
    "solar_position",
    "sun_vector",
    "Heliostat",
    "efficiency",
]

__version__ = "0.1.0"
