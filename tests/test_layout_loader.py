"""The bulk layout parser against the line-by-line loader it replaced
(`reference_loader.py`): on small valid layout texts in varied spelling,
with up to two faults put in, both give an equal `FieldLayout` or a
`LayoutError` with the same message.  Also plant-scale and mixed-shape
files, which span several of the parser's blocks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import REAL_SCENARIO
from reference_loader import load_layout as reference_load_layout

import helioshade.layout as layout_module
from helioshade.field import LayoutError, load_layout, save_layout, synthetic_field

_NUMBERS = {
    "plant": ("lat",),
    "receiver": ("x", "y", "z"),
    "heliostat": ("x", "y", "z", "w", "h", "phi"),
}
_IDS = ("a", "b=1", "c==", "h0001", "tower", "=t")


@st.composite
def records(draw):
    """A valid layout as records, each [kind, [(key, value), ...]], in
    file order: one plant line anywhere, receivers before the heliostats
    that name them; values are spelled as a file may spell them."""
    receivers = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=2, unique=True))
    out = [
        ["receiver", [("id", rid), ("x", str(10 * k)), ("y", "0"), ("z", f"{100 + k}.0")]]
        for k, rid in enumerate(receivers)
    ]
    ids = draw(st.lists(st.sampled_from(_IDS + ("m", "n")), max_size=6, unique=True))
    for k, hid in enumerate(ids):
        fields = [
            ("id", hid),
            ("x", draw(st.sampled_from([f"{20 * k}", f"{20 * k}.0", f"{2 * k}e1"]))),
            ("y", draw(st.sampled_from(["-3", "0.5", "1_0"]))),
            ("z", "5"),
            ("w", draw(st.sampled_from(["10", "7.25", "1e1"]))),
            ("h", "8"),
            ("receiver", draw(st.sampled_from(receivers))),
        ]
        if draw(st.booleans()):
            fields.append(("phi", draw(st.sampled_from(["0", "0.25", "-3.14159265"]))))
        out.append(["heliostat", fields])
    lat = draw(st.sampled_from(["38.23", "-23.5", "0"]))
    out.insert(draw(st.integers(0, len(out))), ["plant", [("lat", lat)]])
    return out


def _number_fields(record):
    return [j for j, (key, _) in enumerate(record[1]) if key in _NUMBERS.get(record[0], ())]


@st.composite
def mutated(draw, layout):
    """`layout` with one fault put in: a field dropped, repeated or
    invented, a bad number, a bare token, an unknown record type, or the
    plant line removed."""
    kind = draw(
        st.sampled_from(["drop", "repeat", "invent", "value", "bare", "type", "no-plant"])
    )
    if kind == "no-plant":
        return [r for r in layout if r[0] != "plant"]
    k = draw(st.integers(0, len(layout) - 1))
    record = [layout[k][0], list(layout[k][1])]
    fields = record[1]
    at = draw(st.integers(0, len(fields)))
    if kind == "drop" and fields:
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif kind == "repeat" and fields:
        key, value = draw(st.sampled_from(fields))
        fields.insert(at, (key, draw(st.sampled_from([value, "7"]))))
    elif kind == "invent":
        fields.insert(at, (draw(st.sampled_from(["ph", "spin", "lon"])), "1"))
    elif kind == "value" and _number_fields(record):
        j = draw(st.sampled_from(_number_fields(record)))
        value = draw(st.sampled_from(["nan", "-inf", "abc", "1_0", "Infinity"]))
        fields[j] = (fields[j][0], value)
    elif kind == "bare":
        # a part without `=`, written as the bare key
        fields.insert(at, (draw(st.sampled_from(["oops", "x", "#"])), None))
    elif kind == "type":
        record[0] = draw(st.sampled_from(["widget", "Heliostat", "plant=1"]))
    return layout[:k] + [record] + layout[k + 1 :]


@st.composite
def layout_texts(draw):
    """The text of a layout from `records` with up to two faults, with a
    random field order per line, random spacing, CRLF or LF line ends and
    comment and blank lines."""
    layout = draw(records())
    for _ in range(draw(st.integers(0, 2))):
        layout = draw(mutated(layout))
    lines = []
    for kind, fields in layout:
        fields = draw(st.permutations(fields))
        parts = [kind] + [key if value is None else f"{key}={value}" for key, value in fields]
        gaps = [draw(st.sampled_from([" ", "\t", "  ", " \t "])) for _ in parts]
        lead = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + "".join(p + g for p, g in zip(parts, gaps)).rstrip(" \t"))
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "   ", "# a comment", "  #heliostat id=z x=nan"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(load, path):
    try:
        return "layout", load(path)
    except LayoutError as exc:
        return "error", str(exc)


@pytest.fixture(scope="module")
def layout_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "layout.txt"


@settings(max_examples=400, deadline=None)
@given(text=layout_texts())
def test_loader_matches_the_line_by_line_reference(layout_path, text):
    layout_path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_layout, str(layout_path)) == _outcome(
        reference_load_layout, str(layout_path)
    )


def test_a_valid_file_is_never_walked_line_by_line(monkeypatch):
    def refuse(parts):
        raise AssertionError(f"line walk on a valid file: {parts}")

    monkeypatch.setattr(layout_module, "_line_fault", refuse)
    assert load_layout(REAL_SCENARIO) == reference_load_layout(REAL_SCENARIO)


def _as_saved(values: np.ndarray) -> np.ndarray:
    """`values` as `save_layout` writes them: 9 significant digits."""
    return np.array([float(f"{v:.9g}") for v in values.ravel()]).reshape(values.shape)


def test_plant_scale_layout_round_trips(tmp_path):
    layout = synthetic_field(4000)
    path = tmp_path / "plant.txt"
    save_layout(layout, str(path))
    loaded = load_layout(str(path))
    assert loaded == dataclasses.replace(
        layout, centers=_as_saved(layout.centers), dims=_as_saved(layout.dims)
    )
    assert loaded == reference_load_layout(str(path))


def test_mixed_field_orders_load_as_the_canonical_form(tmp_path):
    # two heliostat shapes, alternating over several parse blocks, and a
    # phi on every third line
    layout = synthetic_field(600)
    layout = dataclasses.replace(layout, spins=np.where(np.arange(600) % 3 == 0, 0.5, 0.0))
    canonical, mixed = tmp_path / "canonical.txt", tmp_path / "mixed.txt"
    save_layout(layout, str(canonical))
    lines = canonical.read_text().splitlines()
    for k, line in enumerate(lines):
        kind, *fields = line.split()
        if kind == "heliostat" and k % 2:
            lines[k] = " ".join([kind] + fields[::-1])
    mixed.write_text("\n".join(lines) + "\n")
    assert load_layout(str(mixed)) == load_layout(str(canonical))
    heliostats = [line for line in lines if line.startswith("heliostat")]
    assert sum(not line.startswith("heliostat id=") for line in heliostats) == 300
