import dataclasses
import math

import numpy as np
import pytest

from conftest import make_heliostat, random_config, simple_trio, sun_at
from helioshade.field import FieldLayout, OrientedField, subject_efficiency, subject_quads
from helioshade.oracle import OracleConfig, _sample_points, sample_efficiency
from helioshade.solar import sun_vector

ZENITH = sun_vector(math.pi / 2.0, 0.0)


def test_empty_field_exact_one():
    subject = make_heliostat("s", 0.0, 0.0, 0.0, 10.0, 10.0, (0, 0, 100))
    est, se = sample_efficiency(subject, [subject], ZENITH, OracleConfig(samples=10_000))
    assert est == 1.0
    assert se == 0.0


def test_fully_covered_zero():
    aim = (0.0, 0.0, 100.0)
    subject = make_heliostat("s", 0.0, 0.0, 0.0, 4.0, 4.0, aim)
    lid = make_heliostat("o", 0.0, 0.0, 1.0, 40.0, 40.0, (0, 0, 101))
    est, _ = sample_efficiency(subject, [subject, lid], ZENITH, OracleConfig(samples=10_000))
    assert est == 0.0


def test_stratified_matches_clipping_golden_case():
    field = simple_trio()
    sun = sun_at(21, 12.0, 40.08)
    of = OrientedField(FieldLayout.from_heliostats(field), sun)
    e_clip = subject_efficiency(of, 0).efficiency
    est, se = sample_efficiency(field[0], field, sun, OracleConfig(samples=1_000_000))
    assert abs(est - e_clip) <= max(0.002, 4.0 * se)


def test_independent_3d_mode_agrees():
    field = simple_trio()
    sun = sun_at(21, 12.0, 40.08)
    of = OrientedField(FieldLayout.from_heliostats(field), sun)
    e_clip = subject_efficiency(of, 0).efficiency
    est, se = sample_efficiency(
        field[0], field, sun, OracleConfig(samples=1_000_000, independent=True)
    )
    assert abs(est - e_clip) <= max(0.002, 4.0 * se)


@pytest.mark.parametrize("spin", [False, True], ids=["unspun", "spun"])
def test_independent_3d_mode_agrees_on_random_fields(rng, spin):
    # the 3D ray tests share no code with the array projection, so this
    # checks its shadow and block equations on overlapping occluders, and
    # on spun mirrors the two derivations of the frame's spin
    shaded = 0
    for _ in range(20):
        field, sun = random_config(rng)
        if spin:
            spins = rng.uniform(-math.pi, math.pi, len(field)).tolist()
            field = [dataclasses.replace(h, spin=s) for h, s in zip(field, spins)]
        of = OrientedField(FieldLayout.from_heliostats(field), sun)
        e_clip = subject_efficiency(of, 0).efficiency
        est, se = sample_efficiency(
            field[0], field, sun, OracleConfig(samples=250_000, independent=True)
        )
        assert abs(est - e_clip) <= max(0.002, 4.0 * se)
        shaded += e_clip < 1.0
    assert shaded >= 5


# A subject s at the origin and one occluder o that does not touch the
# mirror but crosses a plane of the valid projection region, so its kept
# quads come from a clipped polygon: the subject plane ("plane") or the
# parallel plane through the aim point ("top").  Each case is the subject
# (width, height, aim), the occluder (centre, width, height, aim), the sun
# (height, azimuth) in degrees, the crossed planes and the kept kinds.
STRADDLES = {
    "shadow-low-sun": (
        (6.9, 11.4, (44.7, -19.7, 7.0)),
        ((-6.7, -1.3, -0.2), 11.4, 10.3, (-31.4, -59.2, 28.1)),
        (16.0, -166.3),
        {"plane"},
        ["shadow"],
    ),
    "shadow-high-sun": (
        (6.8, 7.0, (47.7, -17.4, 10.0)),
        ((-5.7, -2.7, 5.3), 13.9, 5.0, (-37.6, -39.2, 29.8)),
        (73.5, 142.5),
        {"plane"},
        ["shadow"],
    ),
    "block-and-shadow": (
        (7.4, 10.0, (-8.4, 34.7, 7.8)),
        ((-3.8, -2.6, 5.4), 10.0, 9.7, (-15.2, -37.6, 111.5)),
        (43.7, -122.4),
        {"plane"},
        ["block", "shadow"],
    ),
    "block-top": (
        (10.0, 7.5, (-3.3, -3.0, 6.6)),
        ((-4.2, -1.9, 7.2), 9.4, 8.8, (68.9, 44.8, 28.7)),
        (42.6, -158.7),
        {"top"},
        ["block", "shadow"],
    ),
    "block-top-far": (
        (7.3, 9.4, (-6.3, -32.7, 5.3)),
        ((-9.2, -9.6, 3.6), 11.7, 10.1, (45.9, -6.1, 38.3)),
        (21.9, -114.8),
        {"top"},
        ["block"],
    ),
    "block-both-planes": (
        (7.5, 7.8, (-4.7, 5.7, 5.1)),
        ((0.1, 9.9, 2.4), 13.3, 10.0, (77.7, 55.3, 148.8)),
        (51.8, 125.5),
        {"plane", "top"},
        ["block"],
    ),
}


@pytest.mark.parametrize("case", sorted(STRADDLES))
def test_independent_3d_mode_agrees_on_clipped_straddles(case):
    (sw, sh, aim), (centre, ow, oh, occ_aim), (eta, theta), planes, kinds = STRADDLES[case]
    field = [
        make_heliostat("s", 0.0, 0.0, 0.0, sw, sh, tuple(aim)),
        make_heliostat("o", *centre, ow, oh, tuple(occ_aim)),
    ]
    sun = sun_vector(math.radians(eta), math.radians(theta))
    of = OrientedField(FieldLayout.from_heliostats(field), sun)
    n, c = of.normals[0], of.centers[0]
    side = of.corners[1] @ n - n @ c
    levels = {"plane": 0.0, "top": n @ of.aims[0] - n @ c}
    crossed = {k for k, v in levels.items() if side.min() < v < side.max()}
    assert crossed == planes
    assert [q.kind for q in subject_quads(of, 0)] == kinds

    e_clip = subject_efficiency(of, 0).efficiency
    est, se = sample_efficiency(
        field[0], field, sun, OracleConfig(samples=250_000, independent=True)
    )
    assert e_clip < 0.95
    assert abs(est - e_clip) <= max(0.002, 4.0 * se)


@pytest.mark.parametrize("samples", [1, 1000, 40_000])
def test_stratified_sampler_puts_one_point_in_each_cell(samples):
    width, height = 6.0, 4.0
    xs, ys = _sample_points(OracleConfig(samples=samples, seed=3), width, height)
    m = max(2, round(math.sqrt(samples)))
    col = np.floor((xs / width + 0.5) * m).astype(int)
    row = np.floor((ys / height + 0.5) * m).astype(int)
    assert xs.size == m * m
    assert np.all((0 <= col) & (col < m) & (0 <= row) & (row < m))
    assert np.unique(col * m + row).size == m * m


def test_deterministic_given_seed():
    field = simple_trio()
    sun = sun_at(21, 12.0, 40.08)
    a = sample_efficiency(field[0], field, sun, OracleConfig(samples=40_000, seed=7))
    b = sample_efficiency(field[0], field, sun, OracleConfig(samples=40_000, seed=7))
    assert a == b
