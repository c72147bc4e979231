import dataclasses
import hashlib
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    REAL_SCENARIO,
    SIMPLE_PAIR,
    areas,
    is_convex_ccw,
    layout_of,
    pieces_disjoint,
    random_config,
    sun_at,
    without,
)
import helioshade.field as field_module
from helioshade.field import (
    FieldLayout,
    LayoutError,
    OrientedField,
    RadialStaggerSpec,
    evaluate_field,
    format_report,
    load_layout,
    save_layout,
    subject_efficiency,
    subject_quads,
    synthetic_field,
)
from helioshade.cli import main
from helioshade.clip import Region, covered_areas, region_area, subtract_rings
from helioshade.polygon2d import Polygon2
from helioshade.shading import candidate_quads
from helioshade.solar import SunState, solar_position, sun_vector


# -- layout I/O --------------------------------------------------------------


def test_load_simple_pair_layout():
    layout = load_layout(SIMPLE_PAIR)
    assert layout.latitude_deg == 40.08
    assert layout.n == 3
    assert dict(layout.receivers)["tower"] == (0.0, 0.0, 100.0)


def test_receiver_positions_become_float_triples():
    # any 3-sequence is stored as a float triple, so equal positions give
    # equal layouts; a position of another length is refused
    layout = load_layout(SIMPLE_PAIR)
    for pos in ([0, 0, 100], np.array([0.0, 0.0, 100.0])):
        built = dataclasses.replace(layout, receivers=(("tower", pos),))
        assert built == layout
        assert built.receivers == (("tower", (0.0, 0.0, 100.0)),)
        assert all(type(v) is float for v in built.receivers[0][1])
    for pos in ((0.0, 100.0), (0.0, 0.0, 100.0, 1.0)):
        with pytest.raises(ValueError):
            dataclasses.replace(layout, receivers=(("tower", pos),))


def test_load_real_scenario_layout():
    layout = load_layout(REAL_SCENARIO)
    assert layout.n == 25
    assert dict(layout.receivers)["tower"] == (0.0, 0.0, 150.0)
    assert layout.dims[0, 0] == 12.88
    assert layout.dims[0, 1] == 9.489


def test_empty_heliostat_list_is_valid(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("plant lat=40\nreceiver id=t x=0 y=0 z=100\n")
    layout = load_layout(str(p))
    assert layout.ids == ()
    report = evaluate_field(layout, sun_at(21, 12.0, 40.0))
    assert report.average == 1.0


@pytest.mark.parametrize(
    "body,message",
    [
        ("receiver id=t x=0 y=0 z=100\n", "missing 'plant"),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=0 z=5 w=10 h=10 receiver=t\n"
            "heliostat id=a x=9 y=0 z=5 w=10 h=10 receiver=t\n",
            "duplicate heliostat id",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=0 z=5 w=10 h=10 receiver=zz\n",
            "unknown receiver",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=0 z=5 w=-1 h=10 receiver=t\n",
            "non-positive dimensions",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=0 z=5 w=oops h=10 receiver=t\n",
            "line 3",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=0 z=5 h=10 receiver=t\n",
            "missing field",
        ),
        (
            "plant lat=40\nwidget id=t\n",
            "unknown record type",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=nan y=0 z=5 w=10 h=10 receiver=t\n",
            "line 3: x=nan is not a finite number",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=0 z=5 w=10 h=10 receiver=t phi=-inf\n",
            "line 3: phi=-inf is not a finite number",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=inf\n",
            "line 2: z=inf is not a finite number",
        ),
        ("plant lat=nan\n", "line 1: lat=nan is not a finite number"),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=0 z=5 w=10 h=10 receiver=t ph=0.5\n",
            "line 3: unknown field 'ph'",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=0 z=5 w=10 h=10 receiver=t phi=0.5 spin=1\n",
            "line 3: unknown field 'spin'",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100 w=3\n",
            "line 2: unknown field 'w'",
        ),
        ("plant lat=40 lon=2\n", "line 1: unknown field 'lon'"),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=100 y=0 z=5 w=10 h=10 receiver=t x=200\n",
            "line 3: repeated field 'x'",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=0 z=5 w=10 h=10 receiver=t phi=1 phi=1\n",
            "line 3: repeated field 'phi'",
        ),
        ("plant lat=40 lat=41\n", "line 1: repeated field 'lat'"),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=9 y=0 z=5 w=10 h=10 receiver=t\n"
            "heliostat id=b x=9 y=-20 z=5 w=10 h=10 receiver=t\n"
            "heliostat id=c x=9 y=0 z=5 w=8 h=8 receiver=t\n",
            "heliostat 'c' has the same center as 'a'",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=30 z=5 w=10 h=10 receiver=t\n"
            "heliostat id=b x=0 y=60 z=5 w=1e-300 h=1e-300 receiver=t\n",
            "heliostat 'b' has an area w\\*h that is not a positive finite number",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=30 z=5 w=10 h=10 receiver=t\n"
            "heliostat id=b x=0 y=60 z=5 w=1e300 h=1e300 receiver=t\n",
            "heliostat 'b' has an area w\\*h that is not a positive finite number",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=30 z=5 w=10 h=10 receiver=t\n"
            "heliostat id=b x=0 y=60 z=5 w=1e200 h=1e-200 receiver=t\n",
            "heliostat 'b' has a coordinate or size beyond 1e\\+06 m",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=30 z=5 w=10 h=10 receiver=t\n"
            "heliostat id=b x=-2e6 y=60 z=5 w=10 h=10 receiver=t\n",
            "heliostat 'b' has a coordinate or size beyond 1e\\+06 m",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=1e7\n"
            "heliostat id=a x=0 y=30 z=5 w=10 h=10 receiver=t\n",
            "heliostat 'a' has a coordinate or size beyond 1e\\+06 m",
        ),
        # the latitude is checked before the duplicate receiver
        (
            "plant lat=95\nreceiver id=t x=0 y=0 z=100\nreceiver id=t x=0 y=0 z=90\n",
            "plant latitude 95 is not strictly between -90 and 90 degrees",
        ),
        ("plant lat=90\n", "plant latitude 90 is not strictly between"),
        ("plant lat=-90\n", "plant latitude -90 is not strictly between"),
        # two such mirrors 1.2e-7 m apart read e = 1 at a 20 degree sun,
        # with half of one shaded
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=1e-5\n"
            "heliostat id=a x=1.2e-7 y=0 z=0 w=1e-7 h=1e-7 receiver=t\n"
            "heliostat id=b x=2.4e-7 y=0 z=0 w=1e-7 h=1e-7 receiver=t\n",
            "heliostat 'a' has a side shorter than 0.01 m",
        ),
        (
            "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=30 z=5 w=10 h=10 receiver=t\n"
            "heliostat id=b x=0 y=60 z=5 w=100 h=0.005 receiver=t\n",
            "heliostat 'b' has a side shorter than 0.01 m",
        ),
    ],
)
def test_layout_diagnostics(tmp_path, body, message):
    p = tmp_path / "bad.txt"
    p.write_text(body)
    with pytest.raises(LayoutError, match=message):
        load_layout(str(p))


_RECEIVER = "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
_SMALL_A = "heliostat id=a x=0 y=0 z=5 w=-1 h=10 receiver=t\n"
_ORPHAN_B = "heliostat id=b x=30 y=0 z=5 w=10 h=10 receiver=zz\n"
_SMALL_B = "heliostat id=b x=30 y=0 z=5 w=10 h=0 receiver=t\n"
_ORPHAN_A = "heliostat id=a x=0 y=0 z=5 w=10 h=10 receiver=zz\n"


@pytest.mark.parametrize(
    "body,message",
    [
        (_RECEIVER + _SMALL_A + _ORPHAN_B, "heliostat 'a' has non-positive dimensions"),
        (_RECEIVER + _ORPHAN_A + _SMALL_B, "heliostat 'a' references unknown"),
        (
            "plant lat=40\n" + _SMALL_A + _ORPHAN_B + "receiver id=t x=0 y=0 z=100\n",
            "heliostat 'a' has non-positive dimensions",
        ),
        (
            "plant lat=40\n" + _ORPHAN_A + _SMALL_B + "receiver id=t x=0 y=0 z=100\n",
            "heliostat 'a' references unknown",
        ),
    ],
    ids=["small-then-orphan", "orphan-then-small", "receiver-last", "receiver-last-orphan"],
)
def test_layout_with_several_faults_names_the_first_heliostat(tmp_path, body, message):
    p = tmp_path / "bad.txt"
    p.write_text(body)
    with pytest.raises(LayoutError, match=message):
        load_layout(str(p))


def test_save_load_roundtrip(tmp_path):
    layout = load_layout(REAL_SCENARIO)
    p = tmp_path / "copy.txt"
    save_layout(layout, str(p))
    again = load_layout(str(p))
    assert again == layout


# sha256 of save_layout's output for these layouts, which must not drift;
# the bundled files themselves carry comments and trailing zeros that a
# saved layout drops
SAVED_LAYOUTS = {
    "simple_pair": "77aca63e714e3bdea47bedf5fa1c9ada35180effa5e5d65a0a866451ea0413ed",
    "real_scenario": "ad0fb71116871fb7add43ebd35bb17830943864af2ed0481616165775fef1e35",
    "synthetic_250": "964a14ee35a5a699b656c32202c978d01439089d862ce7c7110d240ce6a05364",
}


@pytest.mark.parametrize("name", sorted(SAVED_LAYOUTS))
def test_saved_layout_bytes_are_stable(tmp_path, name):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    if name == "synthetic_250":
        save_layout(synthetic_field(250), str(first))
    else:
        save_layout(load_layout(SIMPLE_PAIR if name == "simple_pair" else REAL_SCENARIO), str(first))
    assert hashlib.sha256(first.read_bytes()).hexdigest() == SAVED_LAYOUTS[name]
    # a saved layout loads and saves back to the same bytes
    save_layout(load_layout(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()


def test_canonical_layout_text_round_trips(tmp_path):
    text = (
        "plant lat=-23.5\n"
        "receiver id=north x=0 y=0 z=120\n"
        "receiver id=south x=-400 y=0.5 z=95.25\n"
        "heliostat id=a x=50.125 y=-3 z=4.5 w=10 h=8 receiver=north phi=0.25\n"
        "heliostat id=b x=-350 y=12.75 z=6 w=7.5 h=7.5 receiver=south\n"
        "heliostat id=c x=70 y=1e-05 z=5 w=10 h=8 receiver=north phi=-3.14159265\n"
    )
    src, dst = tmp_path / "src.txt", tmp_path / "dst.txt"
    src.write_text(text)
    layout = load_layout(str(src))
    assert layout.receiver_ids == ("north", "south", "north")
    assert layout.spins.tolist() == [0.25, 0.0, -3.14159265]
    save_layout(layout, str(dst))
    assert dst.read_text() == text


def test_layout_columns_are_read_only():
    layout = synthetic_field(3)
    for column in (layout.centers, layout.dims, layout.spins):
        with pytest.raises(ValueError):
            column[0] = 1.0


# -- synthetic generator -----------------------------------------------------


def test_synthetic_single_heliostat():
    layout = synthetic_field(1)
    assert layout.n == 1
    report = evaluate_field(layout, sun_at(21, 12.0, layout.latitude_deg))
    assert report.average == 1.0


def test_synthetic_deterministic_hash(tmp_path):
    digests = []
    for name in ("a.txt", "b.txt"):
        p = tmp_path / name
        save_layout(synthetic_field(200), str(p))
        digests.append(hashlib.sha256(p.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_synthetic_no_overlaps():
    layout = synthetic_field(500)
    diag = math.hypot(12.88, 9.489)
    pts = layout.centers[:, :2].tolist()
    for i in range(0, len(pts), 25):  # spot-check rows against all others
        for k in range(len(pts)):
            if k == i:
                continue
            d = math.hypot(pts[i][0] - pts[k][0], pts[i][1] - pts[k][1])
            assert d > diag


def test_synthetic_infeasible_spacing_rejected():
    with pytest.raises(LayoutError, match="infeasible spacing"):
        synthetic_field(10, RadialStaggerSpec(radial_step=5.0))


# -- batch engine ------------------------------------------------------------


def test_evaluate_simple_pair_noon():
    layout = load_layout(SIMPLE_PAIR)
    report = evaluate_field(layout, sun_at(21, 12.0, layout.latitude_deg))
    assert len(report.records) == 3
    by_id = {r.id: r for r in report.records}
    assert by_id["c"].efficiency == pytest.approx(0.76, abs=0.02)
    assert by_id["c"].area_total == pytest.approx(100.0)
    assert report.average == pytest.approx(
        sum(r.efficiency for r in report.records) / 3.0
    )


@pytest.mark.parametrize(
    "path", [SIMPLE_PAIR, REAL_SCENARIO], ids=["simple_pair", "real_scenario"]
)
def test_subject_mode_matches_field_report(path):
    layout = load_layout(path)
    field = FieldLayout.from_heliostats(layout.to_heliostats())
    for hour in (8.0, 12.0, 16.25):
        sun = sun_at(21, hour, layout.latitude_deg)
        report = evaluate_field(layout, sun, workers=1)
        of = OrientedField(field, sun)
        for j, record in enumerate(report.records):
            assert subject_efficiency(of, j).efficiency == record.efficiency


def _efficiencies(layout, sun):
    return {r.id: r.efficiency for r in evaluate_field(layout, sun).records}


def test_removing_heliostat_never_hurts_others(rng):
    for _ in range(10):
        helios, sun = random_config(rng)
        layout = layout_of(helios)
        full = _efficiencies(layout, sun)
        reduced_layout = without(layout, -1)
        for hid, e in _efficiencies(reduced_layout, sun).items():
            assert e >= full[hid] - 1e-9


@pytest.mark.parametrize("hour", [7.75, 16.25])
def test_removing_any_heliostat_never_hurts_others_low_sun(hour):
    # removing a mirror can shrink the field's height spread and with it
    # the prefilter reach, so this also exercises the bound as the field
    # changes
    layout = synthetic_field(60)
    sun = sun_at(21, hour, layout.latitude_deg)
    full = _efficiencies(layout, sun)
    assert min(full.values()) < 1.0
    for i in range(layout.n):
        reduced = without(layout, i)
        for hid, e in _efficiencies(reduced, sun).items():
            assert e >= full[hid] - 1e-9, (layout.ids[i], hid)


# 01-21 at these hours spans solar heights from 3.97 to 31.6 degrees
PREFILTER_HOURS = ["07:45", "08:00", "12:00", "16:15", "16:30"]


def _hour(hhmm):
    hh, mm = hhmm.split(":")
    return int(hh) + int(mm) / 60.0


@pytest.mark.parametrize("hhmm", PREFILTER_HOURS + [None], ids=PREFILTER_HOURS + ["low-aims"])
def test_prefilter_matches_unfiltered_engine(hhmm, rng):
    if hhmm is None:
        # aim points below the subjects' top corners, occluders in the far
        # half of the run to them, which only a block capsule along the
        # whole run reaches
        configs = [
            random_config(rng, eta_deg=(1.0, 75.0), tower_z=(5.5, 8.0), frac=(0.5, 0.95))
            for _ in range(40)
        ]
        fields = [OrientedField(FieldLayout.from_heliostats(h), sun) for h, sun in configs]
        low = [of.aims[:, 2] <= of.corners[:, :, 2].max(axis=1) for of in fields]
        assert 2 * sum(map(np.sum, low)) > sum(map(len, low))
    else:
        layout = synthetic_field(250)
        fields = [OrientedField(layout, sun_at(21, _hour(hhmm), layout.latitude_deg))]
    for of in fields:
        for j in np.unique(np.linspace(0, of.n - 1, 8).astype(int)):
            on = subject_efficiency(of, j, use_culling=True)
            off = subject_efficiency(of, j, use_culling=False)
            assert on.efficiency == off.efficiency


@pytest.mark.parametrize(
    "eta,theta_deg",
    [(math.radians(d), 200.0) for d in (1e-160, 1e-200, 1e-300)]
    + [(5e-324, 200.0), (math.radians(1e-300), 90.0)],
    ids=["1e-160", "1e-200", "1e-300", "5e-324rad", "1e-300-east"],
)
def test_prefilter_matches_unfiltered_engine_at_grazing_sun(eta, theta_deg):
    # below about 1e-154 rad the shadow capsule's squared length used to
    # overflow, shrinking the capsule to a disc that dropped shadowing
    # neighbours (mean e 0.764 against 0.401 unfiltered); at 5e-324 rad
    # dz / sin(eta) itself overflows, and the capsule is still cut to the
    # span of the centres
    layout = synthetic_field(60)
    sun = sun_vector(eta, math.radians(theta_deg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        of = OrientedField(layout, sun)
        for j in range(of.n):
            on = subject_efficiency(of, j, use_culling=True)
            off = subject_efficiency(of, j, use_culling=False)
            assert on.efficiency == off.efficiency, j


def test_kept_rings_are_convex(rng):
    # `covered_areas` takes convex counterclockwise rings only
    configs = [random_config(rng, eta_deg=(1.0, 75.0)) for _ in range(60)]
    fields = [OrientedField(FieldLayout.from_heliostats(h), sun) for h, sun in configs]
    golden = synthetic_field(250)
    for hhmm in PREFILTER_HOURS:
        fields.append(OrientedField(golden, sun_at(21, _hour(hhmm), golden.latitude_deg)))
    for path in (SIMPLE_PAIR, REAL_SCENARIO):
        layout = load_layout(path)
        for hhmm in ("08:00", "12:00", "16:15"):
            fields.append(OrientedField(layout, sun_at(21, _hour(hhmm), layout.latitude_deg)))
    grazing = sun_vector(math.radians(1.0), math.radians(250.0))
    fields += [OrientedField(synthetic_field(n), grazing) for n in (300, 2000)]
    rings = 0
    for of in fields:
        for j0, j1 in field_module._blocks(of):
            *_, ring_xy, lengths = field_module._block_quads(of, j0, j1)
            for ring, m in zip(ring_xy.T, lengths):
                assert is_convex_ccw(Polygon2(ring[:m])), (of.ids[j0], ring[:m])
            rings += len(lengths)
    assert rings > 5000


def test_prefilter_keeps_every_overlapping_quad(rng):
    overlapping = 0
    for _ in range(100):
        helios, sun = random_config(rng)
        of = OrientedField(layout_of(helios), sun)
        for j in range(of.n):
            half = (helios[j].width / 2.0, helios[j].height / 2.0)
            _, cols, kinds = of.capsule_pairs(j, j + 1)
            admitted = {(of.ids[i], field_module._KINDS[k]) for i, k in zip(cols, kinds)}
            for quad in subject_quads(of, j, use_culling=False):
                if areas([[quad.ring.ring]], [half])[0] > 1e-12:
                    overlapping += 1
                    assert (quad.source_id, quad.kind) in admitted
    assert overlapping > 100


def test_capsules_keep_every_overlapping_quad_at_low_sun(rng):
    overlapping = 0
    for _ in range(100):
        helios, sun = random_config(rng, eta_deg=(1.0, 10.0))
        of = OrientedField(layout_of(helios), sun)
        for j in range(of.n):
            half = (helios[j].width / 2.0, helios[j].height / 2.0)
            _, cols, kinds = of.capsule_pairs(j, j + 1)
            admitted = {(of.ids[i], field_module._KINDS[k]) for i, k in zip(cols, kinds)}
            for quad in subject_quads(of, j, use_culling=False):
                if areas([[quad.ring.ring]], [half])[0] > 1e-12:
                    overlapping += 1
                    assert (quad.source_id, quad.kind) in admitted
    assert overlapping > 100


def _capsule_members(of):
    """(n, n) masks (block, shadow) of the capsule tests over every
    (subject, neighbour) pair, without the grid."""
    d = of.centers[None, :, :2] - of.centers[:, None, :2]
    r = (of.half_diagonals[None, :] + of.half_diagonals[:, None]) * (
        1.0 + field_module._REACH_SLACK
    )

    def within(ends):
        v = np.broadcast_to(ends, (of.n, 2))[:, None, :]
        vv = (v * v).sum(axis=-1)
        t = np.clip((d * v).sum(axis=-1) / np.where(vv > 0.0, vv, 1.0), 0.0, 1.0)
        e = d - t[..., None] * v
        return (e * e).sum(axis=-1) <= r * r

    masks = [within(ends) for ends in (of.block_end, of.shadow_end)]
    for mask in masks:
        np.fill_diagonal(mask, False)
    return masks


def _far_flung(n):
    """synthetic_field(n) with every tenth mirror moved 20 km away, so the
    grid has to coarsen its cells."""
    layout = synthetic_field(n)
    shift = np.zeros((n, 3))
    shift[::10, 0] = 20000.0
    return dataclasses.replace(layout, centers=layout.centers + shift)


def _low_aims(n):
    """synthetic_field(n) as heliostats, every seventh aimed just above its
    centre: below its top corner, so its block capsule runs the whole way
    to the aim point."""
    helios = synthetic_field(n).to_heliostats()
    return [
        dataclasses.replace(h, aim=(0.0, 0.0, h.center[2] + 1.0)) if k % 7 == 0 else h
        for k, h in enumerate(helios)
    ]


@pytest.mark.parametrize(
    "layout,eta,theta",
    [
        (synthetic_field(300), 1.0, 250.0),
        (synthetic_field(300), 6.5, 244.0),
        (synthetic_field(300), 31.6, 180.0),
        (FieldLayout.from_heliostats(_low_aims(120)), 6.5, 244.0),
        (_far_flung(120), 1.0, 90.0),
        # the shadow capsules lie across the block capsules, so one box
        # around both is larger than the two it replaces
        (synthetic_field(300), 1.0, 270.0),
    ],
    ids=["1deg", "6.5deg", "31.6deg", "low-aims", "far-flung", "1deg-west"],
)
def test_grid_finds_exactly_the_capsule_members(layout, eta, theta):
    of = OrientedField(layout, sun_vector(math.radians(eta), math.radians(theta)))
    members = _capsule_members(of)
    assert all(0 < mask.sum() for mask in members)
    for j in range(of.n):
        _, neighbours, kinds = of.capsule_pairs(j, j + 1)
        for kind, mask in enumerate(members):
            assert np.array_equal(neighbours[kinds == kind], np.flatnonzero(mask[j])), (j, kind)
    _assert_rows_are_capsule_members(of, members)


def _assert_rows_are_capsule_members(of, members):
    """The image rows of the whole field are exactly each kind's capsule
    members, in field order with a neighbour's block row first."""
    subjects, neighbours, kinds = of.capsule_pairs(0, of.n)
    for kind, mask in enumerate(members):
        mine = kinds == kind
        assert np.array_equal(subjects[mine] * of.n + neighbours[mine], np.flatnonzero(mask))
    key = (subjects * of.n + neighbours) * 2 + kinds
    assert (np.diff(key) > 0).all()


def test_random_configs_find_exactly_the_capsule_members(rng):
    for _ in range(50):
        helios, sun = random_config(rng, eta_deg=(1.0, 75.0))
        of = OrientedField(FieldLayout.from_heliostats(helios), sun)
        _assert_rows_are_capsule_members(of, _capsule_members(of))


@pytest.mark.parametrize("budget", [None, 100_000, 8192, 3000, 700, 300, 30, 1])
@pytest.mark.parametrize(
    "layout,sun",
    [
        (synthetic_field(300), sun_vector(math.radians(1.0), math.radians(250.0))),
        (synthetic_field(300), sun_at(21, 16.25, RadialStaggerSpec().latitude_deg)),
        (
            FieldLayout.from_heliostats(_low_aims(300)),
            sun_vector(math.radians(6.5), math.radians(244.0)),
        ),
    ],
    ids=["1deg", "16:15", "low-aims"],
)
def test_chunks_hold_whole_subjects_within_budget(monkeypatch, layout, sun, budget):
    if budget is None:
        budget = field_module._GATHER_BUDGET
    monkeypatch.setattr(field_module, "_GATHER_BUDGET", budget)
    of = OrientedField(layout, sun)
    work = of._capsule_work()
    owners, _ = of.grid.gather(*of._capsule_boxes(np.arange(of.n)))
    gathered = np.bincount(owners, minlength=of.n)
    assert (gathered <= work).all()
    pairs = [len(of.capsule_pairs(j, j + 1)[1]) for j in range(of.n)]
    chunks = list(field_module._blocks(of))
    assert [c[0] for c in chunks] == [0] + [c[1] for c in chunks[:-1]]
    assert chunks[-1][1] == of.n
    for k, (j0, j1) in enumerate(chunks):
        assert j0 < j1
        subjects, neighbours, _ = of.capsule_pairs(j0, j1)
        assert np.array_equal(subjects, np.repeat(np.arange(j0, j1), pairs[j0:j1]))
        assert np.array_equal(
            neighbours, np.concatenate([of.capsule_pairs(j, j + 1)[1] for j in range(j0, j1)])
        )
        # the memory bound: (subject, neighbour) pairs <= gathered mirrors
        # <= work <= budget, and image rows <= 2 x gathered mirrors
        assert len(np.unique(subjects * of.n + neighbours)) <= gathered[j0:j1].sum()
        assert len(subjects) <= 2 * gathered[j0:j1].sum()
        assert work[j0:j1].sum() <= budget or j1 - j0 == 1
        if k + 1 < len(chunks):
            # greedy: the next subject would not have fitted
            assert work[j0 : j1 + 1].sum() > budget


_coord = st.floats(-40.0, 40.0)


@st.composite
def small_layouts(draw):
    """1..12 mirrors scattered near a point of the plant, the receiver
    above all of them."""
    cx = draw(st.floats(-300.0, 300.0))
    cy = draw(st.floats(-300.0, 300.0))
    # one row per mirror: x, y, z, width, height, spin
    rows = [
        (
            cx + draw(_coord),
            cy + draw(_coord),
            draw(st.floats(0.0, 10.0)),
            draw(st.floats(1.0, 15.0)),
            draw(st.floats(1.0, 15.0)),
            draw(st.floats(-math.pi, math.pi)),
        )
        for _ in range(draw(st.integers(1, 12)))
    ]
    n = len(rows)
    # a layout refuses two mirrors with one centre
    assume(len({row[:3] for row in rows}) == n)
    values = np.array(rows)
    tower = (0.0, 0.0, draw(st.floats(30.0, 200.0)))
    return FieldLayout(
        latitude_deg=38.0,
        receivers=(("t", tower),),
        ids=[f"m{k}" for k in range(n)],
        receiver_ids=["t"] * n,
        centers=values[:, :3],
        dims=values[:, 3:5],
        spins=values[:, 5],
    )


@settings(max_examples=150, deadline=None)
@given(
    layout=small_layouts(),
    eta=st.floats(2.0, 80.0),
    theta=st.floats(-180.0, 180.0),
)
def test_random_layouts_give_one_valid_efficiency(layout, eta, theta):
    layout.validate()
    sun = sun_vector(math.radians(eta), math.radians(theta))
    report = evaluate_field(layout, sun, workers=1)
    of = OrientedField(layout, sun)
    for j, record in enumerate(report.records):
        assert math.isfinite(record.efficiency)
        assert 0.0 <= record.efficiency <= 1.0
        assert subject_efficiency(of, j).efficiency == record.efficiency


@settings(max_examples=100, deadline=None)
@given(
    layout=small_layouts(),
    eta=st.floats(2.0, 80.0),
    theta=st.floats(-180.0, 180.0),
)
def test_removing_any_heliostat_never_lowers_another_on_random_layouts(layout, eta, theta):
    sun = sun_vector(math.radians(eta), math.radians(theta))
    full = _efficiencies(layout, sun)
    for i in range(layout.n):
        reduced = without(layout, i)
        for hid, e in _efficiencies(reduced, sun).items():
            assert e >= full[hid] - 1e-9, (layout.ids[i], hid)


# sha256 of the --no-timing report of synthetic_field(250) on 01-21, as
# produced by the engine before the reach prefilter existed
GOLDEN_REPORTS = {
    "07:45": "18b4bebbe96cda49e907046ae864af068e6c79b642586719ec4a01117e414a4e",
    "08:00": "9a6b9f6b8e726fece3e7d5d762a3898b707a0216e8893707389c54cb478c2f27",
    "12:00": "5daafed08a3644c1346b2a06c35acb41cbea883d8a0522b980fe35e4f028783d",
    "16:15": "8c71a3c857b1bb843f85c17954f632527fa446b65433bf7d305492ad4b7fe30a",
    "16:30": "b0494250d62c04a91ac74145bc9221d275153ae42d1de366e8a631c0091ccbe8",
}


# --no-timing report of synthetic_field(300) with the sun at 1 degree,
# azimuth 250 degrees, where some occluders cross the plane through the
# aim point and are clipped before projection
GOLDEN_LOW_SUN = "bd143aecda453d6336ce44e90dd84bd5ee8e90b7fa83875dbc0b00998ed60800"


def test_low_sun_report_matches_golden_digest():
    layout = synthetic_field(300)
    sun = sun_vector(math.radians(1.0), math.radians(250.0))
    text = format_report(evaluate_field(layout, sun, workers=1), include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_LOW_SUN


@pytest.mark.parametrize("hhmm", PREFILTER_HOURS)
def test_report_matches_golden_digest(hhmm):
    layout = synthetic_field(250)
    sun = sun_at(21, _hour(hhmm), layout.latitude_deg)
    report = evaluate_field(layout, sun, workers=1, date_label=f"01-21 {hhmm}")
    text = format_report(report, include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[hhmm]


# sha256 of the --no-timing reports of the larger fields, in process and
# labelled as the CLI labels them, pinned before the area kernel was
# rewritten pair-last: (n, date and hour or eta/theta in degrees) -> digest
GOLDEN_LARGE = {
    (1000, "01-21 08:00"): "e80f423e0913e55661c388145848adc400c717b865b3073b0f6e454284992067",
    (1000, "01-21 12:00"): "843d62b116b61aed012a8261d213688e5967066996a3337fc06e938285d0030f",
    (1000, "01-21 16:15"): "931c47b417ef8b361e544ec0bd1b22f910e3b7a7770628c8a7de57c177fb1970",
    (2000, (1.0, 250.0)): "437b85d9b1ae4ffdd928f21ca6e5759e5d4ad7a965d2edbf5d6fe17331bdb819",
    (2000, (6.5, 245.0)): "9edd4f4fd081347f40ff83b23f532c219777cf530a06f4fa6a815a9cd96375d3",
}


@pytest.mark.parametrize("n, when", list(GOLDEN_LARGE))
def test_large_report_matches_golden_digest(n, when):
    layout = synthetic_field(n)
    if isinstance(when, str):
        sun = sun_at(21, _hour(when.split()[1]), layout.latitude_deg)
        label = when
    else:
        sun = sun_vector(*map(math.radians, when))
        label = "eta={:.9g} theta={:.9g}".format(*when)
    report = evaluate_field(layout, sun, workers=1, date_label=label)
    text = format_report(report, include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_LARGE[(n, when)]


def test_residual_is_disjoint_convex_partition():
    layout = synthetic_field(250)
    sun = sun_at(21, _hour("16:15"), layout.latitude_deg)
    of = OrientedField(layout, sun)
    shaded = 0
    for j, record in enumerate(evaluate_field(layout, sun, workers=1).records):
        if record.efficiency == 1.0:
            continue
        shaded += 1
        result = subject_efficiency(of, j)
        outline = [tuple(p) for p in result.outline().ring]
        quads = ([tuple(p) for p in q.ring.ring] for q in result.quads)
        residual = Region.from_rings(subtract_rings([outline], quads))
        assert all(is_convex_ccw(c) for c in residual.components)
        assert pieces_disjoint(residual)
        assert abs(region_area(residual) / record.area_total - record.efficiency) <= 1e-12
    assert shaded > 200


@pytest.mark.parametrize("offset", [(500.0, -300.0, 20.0), (-2000.0, 1500.0, 0.0)])
@pytest.mark.parametrize("hhmm", ["07:45", "12:00", "16:15"])
def test_translating_plant_leaves_efficiencies_unchanged(hhmm, offset):
    layout = synthetic_field(120)
    moved = dataclasses.replace(
        layout,
        receivers=tuple((rid, np.add(pos, offset)) for rid, pos in layout.receivers),
        centers=layout.centers + offset,
    )
    sun = sun_at(21, _hour(hhmm), layout.latitude_deg)
    base = evaluate_field(layout, sun, workers=1).records
    for a, b in zip(base, evaluate_field(moved, sun, workers=1).records, strict=True):
        assert abs(a.efficiency - b.efficiency) <= 1e-12, a.id


@pytest.mark.parametrize("phi", [0.7, -2.1])
@pytest.mark.parametrize("hhmm", ["07:45", "12:00", "16:15"])
def test_rotating_plant_with_sun_leaves_efficiencies_unchanged(hhmm, phi):
    # the field turned counterclockwise by phi about the tower axis, with
    # the sun's azimuth turned with it; phi = -2.1 faces the field
    # south-west
    layout = synthetic_field(120)
    assert all(pos[:2] == (0.0, 0.0) for _, pos in layout.receivers)
    c, s = math.cos(phi), math.sin(phi)
    x, y, z = layout.centers.T
    turned = dataclasses.replace(
        layout, centers=np.column_stack([c * x - s * y, s * x + c * y, z])
    )
    eta, theta = solar_position(21, _hour(hhmm), math.radians(layout.latitude_deg))
    base = evaluate_field(layout, sun_vector(eta, theta), workers=1).records
    moved = evaluate_field(turned, sun_vector(eta, theta - phi), workers=1).records
    assert min(r.efficiency for r in base) < 1.0
    for a, b in zip(base, moved, strict=True):
        assert abs(a.efficiency - b.efficiency) <= 1e-9, a.id


def test_pair_results_do_not_depend_on_their_block(monkeypatch):
    # at a 1 degree sun the shadow capsules are long, so the gather budget
    # splits the field into several chunks
    layout = synthetic_field(300)
    sun = sun_vector(math.radians(1.0), math.radians(250.0))
    of = OrientedField(layout, sun)
    assert len(list(field_module._blocks(of))) > 1
    # some pairs need a clip: the occluder has corners on both sides of
    # the subject plane, or of the parallel plane through the aim point
    subjects, neighbours, _ = of.capsule_pairs(0, of.n)
    normals = of.normals[subjects]
    offset = np.einsum("pk,pk->p", normals, of.centers[subjects])
    side = np.einsum("pvk,pk->pv", of.corners[neighbours], normals) - offset[:, None]
    reach = np.einsum("pk,pk->p", normals, of.aims[subjects]) - offset

    def crossing(level):
        return int(((side < level).any(axis=1) & (side > level).any(axis=1)).sum())

    assert crossing(0.0) + crossing(reach[:, None]) > 0

    measured = []
    counts = []

    def recording_block_quads(*args, **kwargs):
        quads = block_quads(*args, **kwargs)
        counts.append(quads[-1])
        return quads

    def recording_covered_areas(owner, ring_xy, half_sizes):
        # the rings of each subject of the chunk, as the area kernel gets
        # them, cut to the vertex counts `_block_quads` returned with them
        lengths = counts.pop()
        for s in range(len(half_sizes)):
            mine = np.flatnonzero(owner == s)
            measured.append([ring_xy.T[k, : lengths[k]].tolist() for k in mine])
        return covered_areas(owner, ring_xy, half_sizes)

    block_quads = field_module._block_quads
    monkeypatch.setattr(field_module, "_block_quads", recording_block_quads)
    monkeypatch.setattr(field_module, "covered_areas", recording_covered_areas)
    serial = format_report(evaluate_field(layout, sun, workers=1), include_timing=False)
    assert len(measured) == of.n
    monkeypatch.undo()

    for j, rings in enumerate(measured):
        alone = [[(v.x, v.y) for v in q.ring.ring] for q in subject_quads(of, j)]
        assert [[tuple(p) for p in ring] for ring in rings] == alone, j
    pooled = format_report(evaluate_field(layout, sun, workers=2), include_timing=False)
    assert pooled == serial
    for budget in (1, 1_000_000):
        monkeypatch.setattr(field_module, "_GATHER_BUDGET", budget)
        text = format_report(evaluate_field(layout, sun, workers=1), include_timing=False)
        assert text == serial, budget


@pytest.mark.parametrize("eta,theta", [(math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan)])
def test_non_finite_sun_fails_loudly(eta, theta):
    # sun_vector rejects a NaN angle, but a SunState built by hand can
    # carry one, and an all-NaN light direction would give e = 1 for
    # every mirror
    layout = load_layout(SIMPLE_PAIR)
    with pytest.raises(ValueError, match="sun angles must be finite"):
        sun_vector(eta, theta)
    u_s = (
        -math.cos(eta) * math.cos(theta), math.cos(eta) * math.sin(theta), -math.sin(eta)
    )
    sun = SunState(eta=eta, theta=theta, u_s=u_s)
    with pytest.raises(ValueError, match="sun direction is not finite"):
        evaluate_field(layout, sun, workers=1)
    with pytest.raises(ValueError, match="sun direction is not finite"):
        OrientedField(layout, sun)
    field = layout.to_heliostats()
    with pytest.raises(ValueError, match="sun direction is not finite"):
        candidate_quads(field[0], field, sun)
    empty = dataclasses.replace(layout, ids=(), receiver_ids=(), centers=(), dims=(), spins=())
    with pytest.raises(ValueError, match="sun direction is not finite"):
        evaluate_field(empty, sun, workers=1)


@pytest.mark.parametrize("eta", [-0.2, 0.0])
def test_sun_at_or_below_the_horizon_fails_loudly(eta):
    # sun_vector refuses such a sun, but a SunState built by hand once
    # gave a report: c 0.606588969 at eta = -0.2 and 0.602133694 at 0
    layout = load_layout(SIMPLE_PAIR)
    theta = math.pi
    with pytest.raises(ValueError, match="sun below horizon"):
        sun_vector(eta, theta)
    u_s = (
        -math.cos(eta) * math.cos(theta), math.cos(eta) * math.sin(theta), -math.sin(eta)
    )
    sun = SunState(eta=eta, theta=theta, u_s=u_s)
    with pytest.raises(ValueError, match="sun below horizon"):
        OrientedField(layout, sun)
    with pytest.raises(ValueError, match="sun below horizon"):
        evaluate_field(layout, sun, workers=1)
    field = layout.to_heliostats()
    with pytest.raises(ValueError, match="sun below horizon"):
        candidate_quads(field[0], field, sun)
    empty = dataclasses.replace(layout, ids=(), receiver_ids=(), centers=(), dims=(), spins=())
    with pytest.raises(ValueError, match="sun below horizon"):
        evaluate_field(empty, sun, workers=1)


def test_lowest_sun_is_evaluated():
    # sun_vector(5e-324, theta) is a valid sun, but dz / sin(eta)
    # overflows there, and the shadow capsule must not turn to nan
    layout = load_layout(SIMPLE_PAIR)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = evaluate_field(layout, sun_vector(5e-324, 1.0), workers=1)
    assert [r.efficiency for r in report.records] == pytest.approx([1.0, 0.361931669, 1.0])


def test_twin_centres_fail_loudly():
    # two mirrors on one centre once gave e = 1.16e-16 for both; a layout
    # built in code, like a layout file, is now refused when it is built
    layout = synthetic_field(5)
    centers = np.array(layout.centers)
    centers[3] = centers[1]
    sun = sun_at(21, 12.0, 38.23)
    message = "heliostat 'h0003' has the same center as 'h0001'"
    with pytest.raises(LayoutError, match=message):
        dataclasses.replace(layout, centers=centers)
    helios = layout.to_heliostats()
    helios[3] = dataclasses.replace(helios[3], center=helios[1].center)
    with pytest.raises(ValueError, match=message):
        candidate_quads(helios[0], helios, sun)


def test_synthetic_spacing_check_matches_all_pairs():
    # the centres do not depend on the mirror size, so tiny mirrors give
    # the centres of a draw whose real mirrors may overlap
    feasible = set()
    for seed in range(1, 13):
        spec = RadialStaggerSpec(seed=seed)
        small = dataclasses.replace(spec, mirror_width=1.0, mirror_height=1.0)
        centres = synthetic_field(600, small).centers[:, :2]
        d2 = ((centres[:, None] - centres[None]) ** 2).sum(axis=-1)
        np.fill_diagonal(d2, np.inf)
        diag = math.hypot(spec.mirror_width, spec.mirror_height)
        overlap = d2.min() <= diag * diag
        try:
            layout = synthetic_field(600, spec)
        except LayoutError as exc:
            assert overlap and str(exc) == "infeasible spacing: generated mirrors overlap", seed
            continue
        assert not overlap and np.array_equal(layout.centers[:, :2], centres), seed
        feasible.add(seed)
    assert 0 < len(feasible) < 12


def test_non_finite_centre_fails_loudly():
    # a heliostat list, unlike a layout file, can carry a NaN centre
    helios = synthetic_field(5).to_heliostats()
    helios[2] = dataclasses.replace(
        helios[2], center=(math.nan, *helios[2].center[1:])
    )
    sun = sun_at(21, 12.0, 38.23)
    with pytest.raises(ValueError, match="non-finite coordinate"):
        subject_efficiency(OrientedField(FieldLayout.from_heliostats(helios), sun), 0)
    with pytest.raises(ValueError, match="non-finite coordinate"):
        evaluate_field(layout_of(helios), sun, workers=1)
    # the mirror itself, named, rather than e = 1 from all-NaN geometry
    with pytest.raises(ValueError, match="'h0002' has a non-finite coordinate"):
        subject_efficiency(OrientedField(FieldLayout.from_heliostats(helios), sun), 2)
    wide = synthetic_field(5).to_heliostats()
    wide[4] = dataclasses.replace(wide[4], width=math.inf)
    with pytest.raises(ValueError, match="'h0004' has a non-finite coordinate"):
        OrientedField(FieldLayout.from_heliostats(wide), sun)
    wide[4] = dataclasses.replace(wide[4], width=0.0)
    with pytest.raises(ValueError, match="'h0004' has non-positive dimensions"):
        OrientedField(FieldLayout.from_heliostats(wide), sun)


def test_heliostat_at_its_receiver_is_named():
    # a mirror at its aim point has its aim point level with its centre
    helios = synthetic_field(3).to_heliostats()
    helios[1] = dataclasses.replace(helios[1], center=helios[1].aim)
    sun = sun_at(21, 12.0, 38.23)
    with pytest.raises(ValueError, match="heliostat 'h0001': aim point not above center"):
        OrientedField(FieldLayout.from_heliostats(helios), sun)
    with pytest.raises(ValueError, match="heliostat 'h0001': aim point not above center"):
        candidate_quads(helios[0], helios, sun)


def test_aim_point_not_above_centre_is_named():
    # aimed along the light, a mirror would have a zero normal (u_t = u_s);
    # a layout with any aim point not above its centre is refused when it
    # is built, from a heliostat list too, and names the mirror
    sun = sun_at(21, 12.0, 38.23)
    layout = synthetic_field(3)
    helios = layout.to_heliostats()
    c = np.array(helios[1].center)
    for aim in (c + np.multiply(sun.u_s, 50.0), (0.0, 0.0, c[2])):
        receiver_ids = list(layout.receiver_ids)
        receiver_ids[1] = "low"
        with pytest.raises(LayoutError, match="heliostat 'h0001': aim point not above center"):
            dataclasses.replace(
                layout, receivers=layout.receivers + (("low", aim),), receiver_ids=receiver_ids
            )
        helios[1] = dataclasses.replace(helios[1], aim=aim)
        with pytest.raises(ValueError, match="heliostat 'h0001': aim point not above center"):
            candidate_quads(helios[0], helios, sun)
    # aims 1 m above the centre are still evaluated
    low = _low_aims(120)
    of = OrientedField(FieldLayout.from_heliostats(low), sun)
    assert 0.0 <= subject_efficiency(of, 0).efficiency <= 1.0


def test_from_heliostats_inverts_to_heliostats():
    helios = load_layout(REAL_SCENARIO).to_heliostats()
    layout = FieldLayout.from_heliostats(helios)
    assert layout.to_heliostats() == helios
    assert np.array_equal(layout.aims(), [h.aim for h in helios])


def test_faulty_fields_are_refused_when_built():
    # both were evaluated silently: the second 'h0001' got the first one's
    # e, and the NaN centre passed `validate`
    helios = synthetic_field(4).to_heliostats()
    helios[2] = dataclasses.replace(helios[2], id="h0001")
    sun = sun_at(21, 12.0, 38.23)
    with pytest.raises(LayoutError, match="duplicate heliostat id: 'h0001'"):
        FieldLayout.from_heliostats(helios)
    with pytest.raises(ValueError, match="duplicate heliostat id: 'h0001'"):
        candidate_quads(helios[2], helios, sun)
    layout = synthetic_field(4)
    centers = np.array(layout.centers)
    centers[2, 1] = math.nan
    with pytest.raises(LayoutError, match="heliostat 'h0002' has a non-finite coordinate"):
        dataclasses.replace(layout, centers=centers)


def test_report_format(tmp_path, capsys):
    p = tmp_path / "report.txt"
    argv = ["efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00", "--out", str(p)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    lines = p.read_text().splitlines()
    assert lines[0].startswith("# sun eta=")
    assert lines[1].startswith("# date")
    assert lines[2].startswith("# elapsed")
    assert lines[3] == "# id efficiency area_reflecting area_total"
    assert lines[-1].startswith("# average ")
    data = [ln for ln in lines if not ln.startswith("#")]
    assert [ln.split()[0] for ln in data] == ["c", "h1", "h2"]
    for ln in data:
        cols = ln.split()
        assert float(cols[2]) == pytest.approx(float(cols[1]) * float(cols[3]))


# the 1000-mirror field is 2 chunks at 12:00 and 4 at 16:15, so both
# hours run a pool
@pytest.mark.parametrize("hour", [12.0, 16.25])
def test_reports_identical_across_workers(hour):
    layout = synthetic_field(1000)
    sun = sun_at(21, hour, layout.latitude_deg)
    texts = []
    for workers in (1, 4):
        report = evaluate_field(layout, sun, workers=workers)
        texts.append(format_report(report, include_timing=False))
    assert texts[0] == texts[1]


def test_spawn_workers_match_serial(monkeypatch):
    # platforms without fork fall back to spawn, which pickles the field
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    methods = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda m=None: methods.append(m) or get_context(m)
    )
    layout = synthetic_field(1000)
    sun = sun_at(21, 16.25, layout.latitude_deg)
    texts = [
        format_report(evaluate_field(layout, sun, workers=w), include_timing=False)
        for w in (1, 2)
    ]
    assert methods == ["spawn"]
    assert texts[0] == texts[1]


def test_pool_has_at_most_one_process_per_chunk(monkeypatch):
    import multiprocessing

    sizes = []
    get_context = multiprocessing.get_context

    class RecordingContext:
        def __init__(self, method):
            self.ctx = get_context(method)

        def Pool(self, processes, **kwargs):
            sizes.append(processes)
            return self.ctx.Pool(processes, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", RecordingContext)
    pair = load_layout(SIMPLE_PAIR)
    evaluate_field(pair, sun_at(21, 12.0, pair.latitude_deg), workers=8)
    assert sizes == []  # one chunk runs in the calling process
    layout = synthetic_field(1000)
    sun = sun_at(21, 16.25, layout.latitude_deg)
    chunks = len(list(field_module._blocks(OrientedField(layout, sun))))
    assert chunks > 1
    evaluate_field(layout, sun, workers=8)
    assert sizes == [chunks]  # one process per chunk
