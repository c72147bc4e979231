import math

import numpy as np
import pytest

from helioshade.solar import declination, solar_position, sun_vector


def test_zenith_vector():
    s = sun_vector(math.pi / 2.0, 1.234)
    assert s.u_s == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)


def test_horizon_limit_vector():
    s = sun_vector(1e-9, 0.0)
    assert s.u_s == pytest.approx((-1.0, 0.0, 0.0), abs=1e-6)


def test_direct_substitution():
    s = sun_vector(math.radians(30.0), math.radians(90.0))
    assert s.u_s == pytest.approx(
        (0.0, 0.8660254, -0.5), abs=1e-7
    )


def test_below_horizon_rejected():
    with pytest.raises(ValueError, match="sun below horizon"):
        sun_vector(0.0, 0.0)
    with pytest.raises(ValueError, match="sun below horizon"):
        sun_vector(-0.1, 0.0)


@pytest.mark.parametrize(
    "eta,theta",
    [(math.nan, 0.0), (0.5, math.nan), (math.inf, 0.0), (0.5, math.inf), (0.5, -math.inf)],
)
def test_non_finite_angles_rejected(eta, theta):
    with pytest.raises(ValueError, match="sun angles must be finite"):
        sun_vector(eta, theta)


def test_height_past_zenith_rejected():
    # 100 degrees would give the direction of an 80 degree sun opposite
    with pytest.raises(ValueError, match="past the zenith"):
        sun_vector(math.radians(100.0), 0.0)
    with pytest.raises(ValueError, match="past the zenith"):
        sun_vector(math.nextafter(math.pi / 2.0, 4.0), 0.0)
    assert sun_vector(math.radians(90.0), 0.0).eta == math.pi / 2.0


def test_unit_norm():
    for eta in (0.1, 0.5, 1.0, 1.5):
        for theta in (-3.0, -1.0, 0.0, 2.0):
            s = sun_vector(eta, theta)
            assert abs(np.linalg.norm(s.u_s) - 1.0) < 1e-12


def test_equinox_equator_noon_zenith():
    eta, _ = solar_position(81, 12.0, 0.0)
    assert abs(eta - math.pi / 2.0) < 0.01


def test_winter_noon_elevation_and_azimuth():
    lat = math.radians(40.08)
    eta, theta = solar_position(21, 12.0, lat)
    delta = declination(21)
    assert math.degrees(eta) == pytest.approx(
        90.0 - 40.08 - abs(math.degrees(delta)), abs=0.3
    )
    # due south: azimuth magnitude 180 degrees
    assert abs(abs(math.degrees(theta)) - 180.0) < 1e-6


def test_night_rejected():
    with pytest.raises(ValueError, match="sun below horizon"):
        solar_position(21, 0.5, math.radians(40.0))


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        solar_position(0, 12.0, 0.0)
    with pytest.raises(ValueError):
        solar_position(400, 12.0, 0.0)
    with pytest.raises(ValueError):
        solar_position(100, 12.0, math.pi / 2.0)


def test_elevation_symmetric_about_noon():
    lat = math.radians(38.23)
    for dt in (0.5, 1.0, 2.0, 3.5):
        e1, _ = solar_position(150, 12.0 - dt, lat)
        e2, _ = solar_position(150, 12.0 + dt, lat)
        assert abs(e1 - e2) < 1e-9


def test_azimuth_sweeps_monotonically_through_south():
    lat = math.radians(40.08)
    thetas = []
    for hour in np.arange(8.0, 16.01, 0.25):
        _, theta = solar_position(21, float(hour), lat)
        thetas.append(theta)
    # unwrap the jump at +/-180 degrees; the sweep must pass monotonically
    # from east of south to west of south
    unwrapped = np.unwrap(np.array(thetas))
    assert np.all(np.diff(unwrapped) > 0) or np.all(np.diff(unwrapped) < 0)
    assert math.degrees(thetas[0]) > 90.0  # morning: east of south
    span = abs(math.degrees(unwrapped[-1] - unwrapped[0]))
    assert span > 90.0
