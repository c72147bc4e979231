import math

import pytest

from conftest import make_heliostat, oriented, random_config, simple_trio, sun_at
from helioshade.linalg3 import Vec3
from helioshade.oracle import OracleConfig, sample_efficiency
from helioshade.shading import efficiency, orient
from helioshade.solar import sun_vector

ZENITH = sun_vector(math.pi / 2.0, 0.0)


def test_empty_field_exact_one():
    subject = orient(
        make_heliostat("s", 0.0, 0.0, 0.0, 10.0, 10.0, Vec3(0, 0, 100)), ZENITH
    )
    est, se = sample_efficiency(subject, [subject], ZENITH, OracleConfig(samples=10_000))
    assert est == 1.0
    assert se == 0.0


def test_fully_covered_zero():
    aim = Vec3(0.0, 0.0, 100.0)
    subject = orient(make_heliostat("s", 0.0, 0.0, 0.0, 4.0, 4.0, aim), ZENITH)
    lid = orient(
        make_heliostat("o", 0.0, 0.0, 1.0, 40.0, 40.0, Vec3(0, 0, 101)), ZENITH
    )
    est, _ = sample_efficiency(subject, [subject, lid], ZENITH, OracleConfig(samples=10_000))
    assert est == 0.0


def test_mode_validation():
    subject = orient(
        make_heliostat("s", 0.0, 0.0, 0.0, 10.0, 10.0, Vec3(0, 0, 100)), ZENITH
    )
    with pytest.raises(ValueError, match="unknown sampling mode"):
        sample_efficiency(
            subject, [subject], ZENITH, OracleConfig(samples=100, mode="halton")
        )


def test_stratified_matches_clipping_golden_case():
    field = simple_trio()
    sun = sun_at(21, 12.0, 40.08)
    f = oriented(field, sun)
    e_clip = efficiency(f[0], f, sun).efficiency
    est, se = sample_efficiency(f[0], f, sun, OracleConfig(samples=1_000_000))
    assert abs(est - e_clip) <= max(0.002, 4.0 * se)


def test_independent_3d_mode_agrees():
    field = simple_trio()
    sun = sun_at(21, 12.0, 40.08)
    f = oriented(field, sun)
    e_clip = efficiency(f[0], f, sun).efficiency
    est, se = sample_efficiency(
        f[0], f, sun, OracleConfig(samples=1_000_000, independent=True)
    )
    assert abs(est - e_clip) <= max(0.002, 4.0 * se)


def test_independent_3d_mode_agrees_on_random_fields(rng):
    # the 3D ray tests share no code with the array projection, so this
    # checks its shadow and block equations on overlapping occluders
    shaded = 0
    for _ in range(20):
        field, sun = random_config(rng)
        f = oriented(field, sun)
        e_clip = efficiency(f[0], f, sun).efficiency
        est, se = sample_efficiency(
            f[0], f, sun, OracleConfig(samples=250_000, independent=True)
        )
        assert abs(est - e_clip) <= max(0.002, 4.0 * se)
        shaded += e_clip < 1.0
    assert shaded >= 5


def test_grid_mode_converges_with_resolution():
    field = simple_trio()
    sun = sun_at(21, 12.0, 40.08)
    f = oriented(field, sun)
    e_clip = efficiency(f[0], f, sun).efficiency
    errors = []
    for samples in (100**2, 200**2, 400**2, 800**2):
        est, _ = sample_efficiency(
            f[0], f, sun, OracleConfig(samples=samples, mode="grid")
        )
        errors.append(abs(est - e_clip))
    assert errors[-1] < errors[0]
    assert errors[-1] < 1e-3


def test_deterministic_given_seed():
    field = simple_trio()
    sun = sun_at(21, 12.0, 40.08)
    f = oriented(field, sun)
    a = sample_efficiency(f[0], f, sun, OracleConfig(samples=40_000, seed=7))
    b = sample_efficiency(f[0], f, sun, OracleConfig(samples=40_000, seed=7))
    assert a == b
