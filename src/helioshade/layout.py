"""Plant layouts: `FieldLayout`, a plant's heliostats as immutable
columns, the rules of a valid field, and the layout file format
(`load_layout`, `save_layout`).

`helioshade.field` re-exports every public name here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .shading import Heliostat

__all__ = ["FieldLayout", "LayoutError", "load_layout", "save_layout"]


# Largest magnitude, in metres, of a heliostat's centre coordinates, size
# and aim point: a thousand kilometres, beyond any plant.  It keeps every
# product the engine forms finite.  Two such points are at most
# 2 sqrt(3) 1e6 < 4e6 m apart, which bounds every plane distance, capsule
# length and radius.  A projection divides a plane distance by a cosine
# of at least `field._PERP_TOL`, so a projected coordinate stays below
# about 1e19 m.  The largest products are squares and cross products of
# such coordinates (capsule radii and segment distances, the shoelace and
# Green's-theorem sums of `clip`), below about 1e38, far from the float
# maximum of 1.8e308.  Without the bound, w = 1e200 with h = 1e-200 has
# an area of 1 but overflows the squared capsule radius.
_MAX_EXTENT = 1e6

# Smallest width or height, in metres, of a mirror: a centimetre, below
# any heliostat.  The engine's two absolute tolerances are in metres:
# `clip.clean_ring` drops a ring of less than `clip.MIN_COMPONENT_AREA`
# = 1e-12 m2 and merges a vertex within `polygon2d.COINCIDENCE_TOL` =
# 1e-9 m in x and y of the one before it.  A dropped ring covered less
# than 1e-12 m2 of the mirror.  A merged vertex, at most sqrt(2) 1e-9 m
# from that one, takes from its ring a triangle within sqrt(2) 1e-9 m of
# the line through its two neighbours, which meets a w x h mirror in at
# most sqrt(2) 1e-9 sqrt(w^2 + h^2) m2.  Divided by the area w h, with
# w, h >= 1e-2 m, a dropped ring changes e by less than 1e-12 / 1e-4 =
# 1e-8 and a merged vertex by at most 2e-9 / 1e-2 = 2e-7, the largest
# change in e that one ring or vertex makes.  Below the bound the
# tolerances are no longer small: two 1e-7 m mirrors, of area 1e-14 m2,
# lose every shadow ring and read e = 1 where half a mirror is shaded.
_MIN_SIDE = 1e-2


class LayoutError(ValueError):
    pass


# the columns of a layout
_COLUMNS = ("centers", "dims", "spins")

# the fields each record type takes, in the order a faulty line is read;
# a heliostat's phi is optional, and every field but the two names is a
# number
_FIELDS = {
    "heliostat": ("id", "x", "y", "z", "w", "h", "receiver", "phi"),
    "receiver": ("id", "x", "y", "z"),
    "plant": ("lat",),
}
_TEXT_FIELDS = ("id", "receiver")


@dataclass(frozen=True, eq=False)
class FieldLayout:
    """A plant: its latitude, receivers, and heliostats as immutable columns.

    Row k of the columns is heliostat k, in file order: `ids[k]`, the id
    of the receiver it aims at `receiver_ids[k]`, its centre `centers[k]`
    (m), its width and height `dims[k]` (m) and its spin `spins[k]` (rad).
    The arrays are read-only float copies of what was passed in, and each
    receiver is an (id, (x, y, z)) pair with a float triple in metres.

    A layout is valid by construction: building one runs `validate`, the
    one place that holds the rules of a field.  Each heliostat's receiver
    is looked up once, when the layout is built, for `aims`, `validate`
    and `to_heliostats`.
    """

    latitude_deg: float
    receivers: Tuple[Tuple[str, Tuple[float, float, float]], ...]
    ids: Tuple[str, ...]
    receiver_ids: Tuple[str, ...]
    centers: np.ndarray  # (n, 3)
    dims: np.ndarray  # (n, 2)
    spins: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        n = len(self.ids)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "receiver_ids", tuple(self.receiver_ids))
        rids = [rid for rid, _ in self.receivers]
        positions = np.array([pos for _, pos in self.receivers], dtype=float).reshape(len(rids), 3)
        object.__setattr__(self, "receivers", tuple(zip(rids, map(tuple, positions.tolist()))))
        if len(self.receiver_ids) != n:
            raise ValueError(f"{n} heliostat ids but {len(self.receiver_ids)} receiver ids")
        for name, shape in zip(_COLUMNS, ((n, 3), (n, 2), (n,))):
            column = np.array(getattr(self, name), dtype=float).reshape(shape)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        # each heliostat's row in `receivers`, or -1 if it names none, and
        # its aim point, NaN for none
        slot = {rid: k for k, rid in enumerate(rids)}
        rows = np.fromiter(map(slot.get, self.receiver_ids, repeat(-1)), np.intp, n)
        aims = np.vstack([positions, [(math.nan,) * 3]])[rows]
        aims.flags.writeable = False
        object.__setattr__(self, "_receiver_rows", rows)
        object.__setattr__(self, "_aims", aims)
        self.validate()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldLayout):
            return NotImplemented
        return (self.latitude_deg, self.receivers, self.ids, self.receiver_ids) == (
            other.latitude_deg,
            other.receivers,
            other.ids,
            other.receiver_ids,
        ) and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS)

    @property
    def n(self) -> int:
        return len(self.ids)

    def aims(self) -> np.ndarray:
        """(n, 3) read-only aim point of each heliostat: its receiver's
        position, or NaN for a receiver id that `receivers` lacks (which
        `validate` refuses)."""
        return self._aims

    @classmethod
    def from_heliostats(cls, heliostats: Sequence[Heliostat]) -> "FieldLayout":
        """The layout of a heliostat sequence, the inverse of
        `to_heliostats`: one receiver per distinct aim point, numbered in
        order of first use, and latitude 0, as a heliostat holds none."""
        aims = [tuple(h.aim) for h in heliostats]
        slot = {aim: str(k) for k, aim in enumerate(dict.fromkeys(aims))}
        return cls(
            latitude_deg=0.0,
            receivers=tuple((rid, aim) for aim, rid in slot.items()),
            ids=[h.id for h in heliostats],
            receiver_ids=[slot[aim] for aim in aims],
            centers=[h.center for h in heliostats],
            dims=[(h.width, h.height) for h in heliostats],
            spins=[h.spin for h in heliostats],
        )

    def to_heliostats(self) -> List[Heliostat]:
        """One `Heliostat` object per row, for scalar and library callers."""
        return [
            Heliostat(id=hid, center=tuple(c), width=w, height=h, aim=tuple(a), spin=spin)
            for hid, c, a, (w, h), spin in zip(
                self.ids,
                self.centers.tolist(),
                self._aims.tolist(),
                self.dims.tolist(),
                self.spins.tolist(),
            )
        ]

    def validate(self) -> None:
        """Raise `LayoutError` for a latitude not strictly between the
        poles, else for a duplicate receiver id, else for the first
        heliostat, in row order, that repeats an earlier id, names an
        unknown receiver, has a non-finite coordinate (of its centre,
        size, spin or aim point), has a non-positive dimension, has an area
        w h that is not a positive finite number, has a centre coordinate,
        size or aim point coordinate beyond `_MAX_EXTENT` in magnitude, has
        a side shorter than `_MIN_SIDE`, has its aim point not above its
        centre or has the centre of an earlier heliostat (checked in that
        order).  An aim point above the centre also keeps the mirror off
        its receiver and its normal defined for any sun above the
        horizon."""
        if not -90.0 < self.latitude_deg < 90.0:
            raise LayoutError(
                f"plant latitude {self.latitude_deg:.9g} is not strictly between -90 and 90 degrees"
            )
        seen = set()
        for rid, _ in self.receivers:
            if rid in seen:
                raise LayoutError(f"duplicate receiver id: {rid!r}")
            seen.add(rid)
        repeated = np.zeros(self.n, dtype=bool)
        if len(set(self.ids)) < self.n:
            repeated[:] = True
            repeated[np.unique(np.array(self.ids, dtype=str), return_index=True)[1]] = False
        # an unknown receiver gives a NaN aim point; its own check comes first
        aims = self.aims()
        lengths = np.hstack([self.centers, self.dims, aims])
        twin = _twins(self.centers)
        with np.errstate(over="ignore", invalid="ignore"):
            area = self.dims.prod(axis=1)
        faults = np.stack(
            [
                repeated,
                self._receiver_rows < 0,
                ~(np.isfinite(lengths).all(axis=1) & np.isfinite(self.spins)),
                (self.dims <= 0.0).any(axis=1),
                ~((area > 0.0) & np.isfinite(area)),
                (np.abs(lengths) > _MAX_EXTENT).any(axis=1),
                (self.dims < _MIN_SIDE).any(axis=1),
                aims[:, 2] <= self.centers[:, 2],
                twin >= 0,
            ]
        )
        bad = np.flatnonzero(faults.any(axis=0))
        if not len(bad):
            return
        k = int(bad[0])
        hid, rid = self.ids[k], self.receiver_ids[k]
        messages = (
            f"duplicate heliostat id: {hid!r}",
            f"heliostat {hid!r} references unknown receiver {rid!r}",
            f"heliostat {hid!r} has a non-finite coordinate",
            f"heliostat {hid!r} has non-positive dimensions",
            f"heliostat {hid!r} has an area w*h that is not a positive finite number",
            f"heliostat {hid!r} has a coordinate or size beyond {_MAX_EXTENT:g} m",
            f"heliostat {hid!r} has a side shorter than {_MIN_SIDE:g} m",
            f"heliostat {hid!r}: aim point not above center",
            f"heliostat {hid!r} has the same center as {self.ids[twin[k]]!r}",
        )
        raise LayoutError(messages[int(np.argmax(faults[:, k]))])


def _twins(centers: np.ndarray) -> np.ndarray:
    """Per row, an earlier row with the same centre, or -1.  Only rows
    that share an x can share a centre, and the stable sort keeps equal
    centres in row order."""
    twin = np.full(len(centers), -1)
    x = np.sort(centers[:, 0])
    if (x[1:] == x[:-1]).any():
        order = np.lexsort(centers.T[::-1])
        ordered = centers[order]
        same = (ordered[1:] == ordered[:-1]).all(axis=1)
        twin[order[1:][same]] = order[:-1][same]
    return twin


# characters of whole lines parsed at a time, about 100 heliostat lines:
# it bounds the split lines alive at once, so a 1000-mirror file peaks no
# higher than a line-by-line parse
_BLOCK_CHARS = 1 << 13


def load_layout(path: str) -> FieldLayout:
    """Read a layout file; see the package README for the line format.

    One bulk parse, a block of lines at a time, builds the columns.  The
    record lines of a block are split once and grouped by shape, their
    record type and the keys of their fields in order; each shape is
    checked once against `_FIELDS`, each of its fields is one column, and
    the numbers of a column go through `float` together and must be
    finite.  Only a fault found so sends the block's lines, one at a time,
    through `_line_fault`, which names the first faulty line.
    """
    pieces: Dict[str, list] = {kind: [] for kind in _FIELDS}
    start = 0
    with open(path, "r", encoding="utf-8") as fh:
        for block in iter(lambda: fh.readlines(_BLOCK_CHARS), []):
            records = [
                (k, parts)
                for k, parts in enumerate(map(str.split, block), start)
                if parts and parts[0][0] != "#"
            ]
            # lines of one length are most often of one shape
            groups = _grouped(records, len)
            while groups:
                group = groups.pop()
                shape = _shape_columns(group)
                if shape is False:
                    groups += _grouped(group, _shape)
                elif shape is None:
                    raise _first_fault(path, records)
                else:
                    pieces[shape[0]].append((np.array([k for k, _ in group]), shape[1]))
            start += len(block)
    if not pieces["plant"]:
        raise LayoutError("missing 'plant lat=...' line")
    plant, receivers, helios = (
        _in_file_order(pieces, kind) for kind in ("plant", "receiver", "heliostat")
    )
    return FieldLayout(
        latitude_deg=float(plant["lat"][-1]),
        receivers=tuple(zip(receivers["id"], zip(*(receivers[k] for k in "xyz")))),
        ids=helios["id"],
        receiver_ids=helios["receiver"],
        centers=np.column_stack([helios[k] for k in "xyz"]),
        dims=np.column_stack([helios["w"], helios["h"]]),
        spins=helios["phi"],
    )


def _grouped(records, key) -> list:
    """(file row, split line) records grouped by the key of their lines,
    each group in file order."""
    groups: Dict[object, list] = {}
    for record in records:
        groups.setdefault(key(record[1]), []).append(record)
    return list(groups.values())


def _shape(parts: List[str]) -> Tuple[str, ...]:
    """A split line's record type and the key of each part, with its `=`
    (empty for a part without one)."""
    return (parts[0],) + tuple(part[: part.find("=") + 1] for part in parts[1:])


def _shape_columns(group):
    """(record type, column of each field) of (file row, split line)
    records of one length: `False` if they are not all of one shape,
    `None` if they hold a fault.

    A column holds the values of one field in line order: strings for
    `_TEXT_FIELDS`, else finite floats.  The parts in one place of every
    line are joined by newlines, which no part holds, so one count tells
    whether they all start with the first one's `key=`, and one split
    cuts it off."""
    kinds, *places = zip(*(parts for _, parts in group))
    kind = kinds[0]
    if kinds.count(kind) < len(group):
        return False
    columns: Dict[str, object] = {}
    for place in places:
        cut = place[0].find("=") + 1
        if not cut:
            return None
        key, text = place[0][:cut], "\n".join(place)
        if text.count("\n" + key) < len(group) - 1:
            return False
        columns[key[:-1]] = text[cut:].split("\n" + key)
    allowed = set(_FIELDS.get(kind, ()))
    keys = set(columns)
    if kind not in _FIELDS or len(keys) < len(places) or not keys <= allowed:
        return None
    if not allowed - keys <= {"phi"}:
        return None
    for key, column in columns.items():
        if key not in _TEXT_FIELDS:
            try:
                numbers = np.fromiter(map(float, column), float, len(column))
            except ValueError:
                return None
            if not np.isfinite(numbers).all():
                return None
            columns[key] = numbers
    return kind, columns


def _in_file_order(pieces: Dict[str, list], kind: str) -> Dict[str, object]:
    """The columns of one record type in file order, from (file rows,
    columns) per shape and block; a missing phi is 0."""
    parts = pieces[kind]
    rows = np.concatenate([r for r, _ in parts] + [np.zeros(0, dtype=np.intp)])
    order = np.argsort(rows)
    in_order = bool((order == np.arange(len(rows))).all())
    out: Dict[str, object] = {}
    for key in _FIELDS[kind]:
        if key in _TEXT_FIELDS:
            texts = list(chain.from_iterable(columns[key] for _, columns in parts))
            out[key] = texts if in_order else [texts[k] for k in order.tolist()]
        else:
            out[key] = np.concatenate(
                [columns.get(key, np.zeros(len(r))) for r, columns in parts] + [np.zeros(0)]
            )[order]
    return out


def _first_fault(path: str, records) -> LayoutError:
    """The error of the first faulty line among the (file row, split
    line) records of the block in which the bulk parse found a fault;
    every earlier block passed, and finding none is a bug in the parser."""
    for k, parts in records:
        fault = _line_fault(parts)
        if fault is not None:
            return LayoutError(f"line {k + 1}: {fault}")
    raise RuntimeError(f"{path}: the layout parser found a fault that no line holds")


def _line_fault(parts: List[str]) -> Optional[str]:
    """What is wrong with one record line, split into parts, or `None`:
    a malformed part, else an unknown record type, else for each field in
    `_FIELDS` order a missing field or a number that `float` refuses or
    finds not finite, else a repeated or unknown field."""
    kind = parts[0]
    bad = next((part for part in parts[1:] if "=" not in part), None)
    if bad is not None:
        return f"malformed field {bad!r}"
    if kind not in _FIELDS:
        return f"unknown record type {kind!r}"
    # as in a dict, a repeated field keeps its last value
    fields = dict(part.split("=", 1) for part in parts[1:])
    for key in _FIELDS[kind]:
        if key not in fields:
            if key != "phi":
                return f"missing field {key!r}"
        elif key not in _TEXT_FIELDS:
            try:
                value = float(fields[key])
            except ValueError as exc:
                return str(exc)
            if not math.isfinite(value):
                return f"{key}={fields[key]} is not a finite number"
    # every field was read, so any other part repeats one of them or is a
    # field the record does not take
    if len(parts) - 1 != sum(key in fields for key in _FIELDS[kind]):
        return _stray_field(parts[1:], _FIELDS[kind])
    return None


def _stray_field(parts: List[str], allowed: Tuple[str, ...]) -> str:
    """What is wrong with `key=value` parts that are not each a field
    from `allowed`, given once."""
    keys = [part.split("=", 1)[0] for part in parts]
    for m, key in enumerate(keys):
        if key in keys[:m]:
            return f"repeated field {key!r}"
    return f"unknown field {next(k for k in keys if k not in allowed)!r}"


def save_layout(layout: FieldLayout, path: str) -> None:
    lines = [f"plant lat={layout.latitude_deg:.9g}\n"]
    for rid, (x, y, z) in layout.receivers:
        lines.append(f"receiver id={rid} x={x:.9g} y={y:.9g} z={z:.9g}\n")
    for hid, rid, (x, y, z), (w, h), spin in zip(
        layout.ids,
        layout.receiver_ids,
        layout.centers.tolist(),
        layout.dims.tolist(),
        layout.spins.tolist(),
    ):
        line = (
            f"heliostat id={hid} x={x:.9g} y={y:.9g} z={z:.9g} "
            f"w={w:.9g} h={h:.9g} receiver={rid}"
        )
        if spin != 0.0:
            line += f" phi={spin:.9g}"
        lines.append(line + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
