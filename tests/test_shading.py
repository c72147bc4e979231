import math

import numpy as np
import pytest

from conftest import make_heliostat, random_config, simple_trio, sun_at
from helioshade.field import FieldLayout, OrientedField, subject_efficiency, subject_quads
from helioshade.oracle import _frame
from helioshade.shading import candidate_quads
from helioshade.solar import sun_vector


def up_facing(hid, x, y, z=0.0, w=10.0, h=10.0):
    """Heliostat whose normal is +z at zenith sun: receiver straight above."""
    return make_heliostat(hid, x, y, z, w, h, (x, y, z + 100.0))


ZENITH = sun_vector(math.pi / 2.0, 0.0)


def test_zenith_bisector():
    h = up_facing("a", 0.0, 0.0)
    n = OrientedField(FieldLayout.from_heliostats([h]), ZENITH).normals[0]
    assert n == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
    assert _frame(h, ZENITH)[2] == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)


def test_reflection_law_and_planarity(rng):
    for _ in range(200):
        field, sun = random_config(rng)
        h = field[0]
        of = OrientedField(FieldLayout.from_heliostats(field), sun)
        n, c = of.normals[0], of.centers[0]
        u_t = np.subtract(h.aim, h.center)
        u_t /= np.linalg.norm(u_t)
        u_s = np.array(sun.u_s)
        # reflect the incoming light about the normal; must head to the aim
        d = u_s - 2.0 * (u_s @ n) * n
        assert np.linalg.norm(d - u_t) < 1e-10
        for corner in of.corners[0]:
            assert abs(n @ corner - n @ c) < 1e-9
            for r in (of.rotations[0], _frame(h, sun)):
                assert abs((r @ (corner - c))[2]) < 1e-9


def test_heliostat_at_receiver_rejected():
    h = make_heliostat("x", 1.0, 2.0, 3.0, 10.0, 10.0, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="heliostat 'x': aim point not above center"):
        candidate_quads(h, [h], ZENITH)


def _quads(subject, others, sun, kind, use_culling=True):
    """Projected quads of one kind on `subject` from `others`."""
    quads = candidate_quads(subject, [subject, *others], sun, use_culling=use_culling)
    return [q for q in quads if q.kind == kind]


def test_shadow_vertical_drop():
    subject = up_facing("s", 0.0, 0.0, 0.0)
    (quad,) = _quads(subject, [up_facing("o", 2.0, 0.0, 5.0)], ZENITH, "shadow")
    assert quad.source_id == "o"
    # map the local-frame ring back to plant coordinates: it must be the
    # occluder rectangle dropped straight down onto z = 0
    rotation = OrientedField(FieldLayout.from_heliostats([subject]), ZENITH).rotations[0]
    local = np.array([(p.x, p.y, 0.0) for p in quad.ring.ring])
    xs, ys, zs = (local @ rotation + np.array(subject.center)).T
    assert (xs.min(), xs.max()) == pytest.approx((-3.0, 7.0), abs=1e-9)
    assert (ys.min(), ys.max()) == pytest.approx((-5.0, 5.0), abs=1e-9)
    assert np.abs(zs).max() < 1e-9


def test_shadow_perpendicular_discarded():
    # mirrors aimed for the zenith sun, lit by a horizontal one: the light
    # runs along the subject plane (n_c . u_s ~ 0), so nothing is cast
    layout = FieldLayout.from_heliostats([up_facing("s", 0.0, 0.0), up_facing("o", 2.0, 0.0, 5.0)])
    of = OrientedField(layout, ZENITH)

    def kinds():
        return [q.kind for q in subject_quads(of, 0, use_culling=False)]

    assert kinds() == ["block", "shadow"]
    of.sun = sun_vector(1e-13, 0.0)
    assert kinds() == ["block"]


def test_shadow_downstream_occluder_discarded():
    subject = up_facing("s", 0.0, 0.0, 10.0)
    assert _quads(subject, [up_facing("o", 0.0, 0.0, 2.0)], ZENITH, "shadow") == []


def test_block_symmetric_occlusion():
    aim = (0.0, 0.0, 100.0)
    subject = make_heliostat("s", 0.0, 0.0, 0.0, 10.0, 10.0, aim)
    other = make_heliostat("o", 0.0, 0.0, 50.0, 4.0, 4.0, (0, 0, 150))
    (quad,) = _quads(subject, [other], ZENITH, "block")
    cx = sum(p.x for p in quad.ring.ring) / len(quad.ring.ring)
    cy = sum(p.y for p in quad.ring.ring) / len(quad.ring.ring)
    assert (cx, cy) == pytest.approx((0.0, 0.0), abs=1e-9)


def test_block_requires_occluder_between_subject_and_receiver():
    aim = (0.0, 0.0, 100.0)
    subject = make_heliostat("s", 0.0, 0.0, 50.0, 10.0, 10.0, aim)
    behind = make_heliostat("o", 0.0, 0.0, 10.0, 10.0, 10.0, aim)
    assert _quads(subject, [behind], ZENITH, "block") == []
    beyond = make_heliostat("o2", 0.0, 0.0, 120.0, 10.0, 10.0, (0, 0, 300))
    # above the aim point's plane distance: no finite image from the
    # projection center
    assert _quads(subject, [beyond], ZENITH, "block") == []


def test_cull_rules():
    # 10 x 10 mirror; at the zenith sun its local axes are the plant's
    subject = up_facing("s", 0.0, 0.0)
    cases = [
        (up_facing("beyond_x", 8.0, 0.0, 5.0, w=2.0, h=2.0), False),
        (up_facing("beyond_y", 0.0, 8.0, 5.0, w=2.0, h=2.0), False),
        # spans the mirror in y but lies entirely beyond one side in x
        (up_facing("split_beyond_x", 7.0, 0.0, 5.0, w=2.0, h=12.0), False),
        (up_facing("central", 0.0, 0.0, 5.0, w=2.0, h=2.0), True),
    ]
    for other, kept in cases:
        field = [subject, other]
        unculled = candidate_quads(subject, field, ZENITH, use_culling=False)
        assert [q.kind for q in unculled] == ["block", "shadow"]
        culled = candidate_quads(subject, field, ZENITH)
        assert culled == (unculled if kept else []), other.id


def test_unknown_subject_rejected():
    subject = up_facing("s", 0.0, 0.0)
    with pytest.raises(ValueError, match="unknown heliostat id 'x'"):
        candidate_quads(up_facing("x", 5.0, 5.0), [subject], ZENITH)


def test_efficiency_empty_field():
    subject = up_facing("s", 0.0, 0.0)
    r = subject_efficiency(OrientedField(FieldLayout.from_heliostats([subject]), ZENITH), 0)
    assert r.efficiency == 1.0
    assert r.quads == ()


def test_efficiency_fully_occluded():
    aim = (0.0, 0.0, 100.0)
    subject = make_heliostat("s", 0.0, 0.0, 0.0, 4.0, 4.0, aim)
    lid = make_heliostat("o", 0.0, 0.0, 1.0, 40.0, 40.0, (0, 0, 101))
    r = subject_efficiency(OrientedField(FieldLayout.from_heliostats([subject, lid]), ZENITH), 0)
    assert r.efficiency == 0.0


def test_efficiency_in_unit_interval_and_monotone_under_insertion(rng):
    for _ in range(30):
        field, sun = random_config(rng)
        prev = 1.0
        for k in range(1, len(field) + 1):
            of = OrientedField(FieldLayout.from_heliostats(field[:k]), sun)
            e = subject_efficiency(of, 0).efficiency
            assert 0.0 <= e <= 1.0
            assert e <= prev + 1e-9
            prev = e


def test_golden_simple_case():
    layout = FieldLayout.from_heliostats(simple_trio())
    sun = sun_at(21, 12.0, 40.08)
    e_noon = subject_efficiency(OrientedField(layout, sun), 0).efficiency
    assert e_noon == pytest.approx(0.76, abs=0.02)
    sun = sun_at(21, 15.25, 40.08)
    e_late = subject_efficiency(OrientedField(layout, sun), 0).efficiency
    assert e_late == pytest.approx(0.31, abs=0.03)
