"""The layout loader as it was before the bulk columnar parse, kept
verbatim as the reference that `test_layout_loader.py` compares the
current loader with: on any text, both must give an equal `FieldLayout`
or a `LayoutError` with the same message.

It read a file line by line, one `dict` per line and every number
through `_number`.
"""

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from helioshade.field import FieldLayout, LayoutError
from helioshade.linalg3 import Vec3

# the numbers of a heliostat line in file order
_HELIOSTAT_NUMBERS = ("x", "y", "z", "w", "h")

# the fields each record type takes; a heliostat's phi is optional
_FIELDS = {
    "heliostat": ("id", "receiver", "phi") + _HELIOSTAT_NUMBERS,
    "receiver": ("id", "x", "y", "z"),
    "plant": ("lat",),
}


def _number(fields: Dict[str, str], key: str, lineno: int) -> float:
    value = float(fields[key])
    if not math.isfinite(value):
        raise LayoutError(f"line {lineno}: {key}={fields[key]} is not a finite number")
    return value


def _stray_field(parts: List[str], allowed: Tuple[str, ...]) -> str:
    """What is wrong with `key=value` parts that are not each a field
    from `allowed`, given once."""
    keys = [part.split("=", 1)[0] for part in parts]
    for m, key in enumerate(keys):
        if key in keys[:m]:
            return f"repeated field {key!r}"
    return f"unknown field {next(k for k in keys if k not in allowed)!r}"


def load_layout(path: str) -> FieldLayout:
    """Read a layout file; see the package README for the line format.

    Every number goes through `float` and must be finite, and a field
    may appear once and only where its record type takes it; a fault
    names its line.  The heliostat lines fill the layout's columns
    directly.
    """
    latitude: Optional[float] = None
    receivers: List[Tuple[str, Vec3]] = []
    ids: List[str] = []
    receiver_ids: List[str] = []
    rows: List[List[float]] = []
    spins: List[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            kind = parts[0]
            try:
                fields = dict(part.split("=", 1) for part in parts[1:])
            except ValueError:
                bad = next(part for part in parts[1:] if "=" not in part)
                raise LayoutError(f"line {lineno}: malformed field {bad!r}") from None
            try:
                if kind == "heliostat":
                    ids.append(fields["id"])
                    rows.append([_number(fields, key, lineno) for key in _HELIOSTAT_NUMBERS])
                    receiver_ids.append(fields["receiver"])
                    spins.append(_number(fields, "phi", lineno) if "phi" in fields else 0.0)
                    used = 8 if "phi" in fields else 7
                elif kind == "receiver":
                    rid = fields["id"]
                    receivers.append((rid, Vec3(*(_number(fields, k, lineno) for k in "xyz"))))
                    used = 4
                elif kind == "plant":
                    latitude = _number(fields, "lat", lineno)
                    used = 1
                else:
                    raise LayoutError(f"line {lineno}: unknown record type {kind!r}")
            except KeyError as exc:
                raise LayoutError(f"line {lineno}: missing field {exc}") from None
            except ValueError as exc:
                if isinstance(exc, LayoutError):
                    raise
                raise LayoutError(f"line {lineno}: {exc}") from None
            # the `used` fields were all read, so any other part repeats one
            # of them or is a field the record does not take
            if len(parts) - 1 != used:
                raise LayoutError(f"line {lineno}: {_stray_field(parts[1:], _FIELDS[kind])}")
    if latitude is None:
        raise LayoutError("missing 'plant lat=...' line")
    values = np.array(rows, dtype=float).reshape(-1, 5)
    return FieldLayout(
        latitude_deg=latitude,
        receivers=tuple(receivers),
        ids=ids,
        receiver_ids=receiver_ids,
        centers=values[:, :3],
        dims=values[:, 3:],
        spins=spins,
    )
