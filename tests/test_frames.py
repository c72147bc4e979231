"""The mirror frame, derived twice and apart: in arrays from ZXZ Euler
angles by the engine (`OrientedField.normals`, `.rotations`, `.corners`)
and from vectors alone by the 3D-ray oracle (`oracle._frame`).  Each
rotation's rows are x', y' and the normal n; it takes a plant offset
from the mirror's centre to local coordinates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_heliostat, random_config
from helioshade.field import OrientedField
from helioshade.oracle import _frame
from helioshade.solar import sun_vector

# the light straight down, with no horizontal part, so a mirror aimed
# straight up has n = +z exactly and no horizontal normal component
ZENITH = sun_vector(math.pi / 2.0, 0.0)


def level(x=0.0, y=0.0, z=0.0, w=10.0, h=10.0, spin=0.0):
    """A mirror that lies level at the zenith sun: its aim is straight up."""
    h = make_heliostat("s", x, y, z, w, h, (x, y, z + 100.0))
    return dataclasses.replace(h, spin=spin)


def spun(field, rng):
    return [dataclasses.replace(h, spin=float(rng.uniform(-math.pi, math.pi))) for h in field]


def test_level_unspun_rotation_is_identity():
    assert np.allclose(OrientedField([level()], ZENITH).rotations[0], np.eye(3), atol=1e-12)


def test_spin_sign_convention():
    # spin turns x' from plant X toward plant Y: at a quarter turn x' is
    # plant Y, so plant X reads as local -y
    h = level(spin=math.pi / 2.0)
    for r in (OrientedField([h], ZENITH).rotations[0], _frame(h, ZENITH)):
        assert np.allclose(r[0], [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], atol=1e-12)


def test_rotations_orthogonal_unit_determinant(rng):
    for _ in range(50):
        field, sun = random_config(rng)
        field = spun(field, rng)
        frames = [_frame(h, sun) for h in field]
        for r in [*OrientedField(field, sun).rotations, *frames]:
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12


@pytest.mark.parametrize("theta", [0.0, 1.0, math.pi / 2.0, 2.5])
def test_level_frame_at_zenith_ignores_azimuth(theta):
    # cos(pi / 2) rounds to 6e-17; left in u_s, that horizontal part would
    # turn a level mirror's x' axis with theta
    h = level(4.0, 5.0, 6.0)
    sun = sun_vector(math.pi / 2.0, theta)
    assert np.array_equal(OrientedField([h], sun).rotations[0], np.eye(3))
    assert np.array_equal(_frame(h, sun), np.eye(3))


def test_level_frame_keeps_plant_offsets():
    r = _frame(level(4.0, 5.0, 6.0), ZENITH)
    assert np.allclose(r, np.eye(3), atol=1e-12)
    assert np.allclose(r @ [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], atol=1e-12)


def test_frame_independent_of_aim_distance():
    sun = sun_vector(math.radians(35.0), math.radians(-120.0))
    near = make_heliostat("s", 100.0, -40.0, 5.0, 10.0, 8.0, (0.0, 0.0, 105.0))
    near = dataclasses.replace(near, spin=0.7)
    far = dataclasses.replace(near, aim=(-100.0, 40.0, 205.0))  # twice as far
    engine = [OrientedField([h], sun).rotations[0] for h in (near, far)]
    assert np.allclose(engine[0], engine[1], atol=1e-12)
    assert np.allclose(_frame(near, sun), _frame(far, sun), atol=1e-12)


def test_rotation_maps_normal_to_z(rng):
    for _ in range(50):
        field, sun = random_config(rng)
        field = spun(field, rng)
        of = OrientedField(field, sun)
        for k, h in enumerate(field):
            assert np.allclose(of.rotations[k] @ of.normals[k], [0.0, 0.0, 1.0], atol=1e-12)
            assert np.allclose(_frame(h, sun) @ of.normals[k], [0.0, 0.0, 1.0], atol=1e-12)


def test_centre_is_local_origin(rng):
    field, sun = random_config(rng)
    of = OrientedField(spun(field, rng), sun)
    assert np.allclose(of.corners.mean(axis=1), of.centers, atol=1e-12)


def test_level_corners_are_translated_local_corners():
    of = OrientedField([level(108.0, 0.0, 5.0)], ZENITH)
    expected = [(103.0, 5.0, 5.0), (103.0, -5.0, 5.0), (113.0, -5.0, 5.0), (113.0, 5.0, 5.0)]
    assert np.allclose(of.corners[0], expected, atol=1e-12)


finite = st.floats(-1000.0, 1000.0, allow_nan=False)
angle = st.floats(-math.pi, math.pi)


@settings(max_examples=300, deadline=None)
@given(
    ax=st.floats(-1, 1), ay=st.floats(-1, 1), az=st.floats(0.05, 1), spin=angle,
    eta=st.floats(0.01, math.pi / 2.0), theta=angle,
    cx=finite, cy=finite, cz=finite, px=finite, py=finite, pz=finite,
)
def test_roundtrip_and_orthogonality(ax, ay, az, spin, eta, theta, cx, cy, cz, px, py, pz):
    aim = (cx + 100.0 * ax, cy + 100.0 * ay, cz + 100.0 * az)
    h = dataclasses.replace(make_heliostat("s", cx, cy, cz, 10.0, 6.0, aim), spin=spin)
    sun = sun_vector(eta, theta)
    of = OrientedField([h], sun)
    r = _frame(h, sun)
    for m in (r, of.rotations[0]):
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-12)
    # plant -> local -> plant, and the engine's corners read in the
    # oracle's local frame are the mirror's own
    c, p = np.array(h.center), np.array([px, py, pz])
    assert np.linalg.norm(r.T @ (r @ (p - c)) + c - p) < 1e-9
    local = (of.corners[0] - c) @ r.T
    expected = [(-5.0, 3.0, 0.0), (-5.0, -3.0, 0.0), (5.0, -3.0, 0.0), (5.0, 3.0, 0.0)]
    assert np.allclose(local, expected, atol=1e-9)


@pytest.mark.parametrize("tilted", [False, True], ids=["level", "tilted"])
def test_oracle_frame_matches_engine_rotations(rng, tilted):
    for _ in range(100):
        if tilted:
            field, sun = random_config(rng)
        else:
            x, y = rng.uniform(-500.0, 500.0, 2)
            field, sun = [level(float(x), float(y), 5.0)], ZENITH
        field = spun(field, rng)
        of = OrientedField(field, sun)
        rho = np.hypot(of.normals[:, 0], of.normals[:, 1])
        assert (rho > 0.0).all() if tilted else (rho == 0.0).all()
        for k, h in enumerate(field):
            assert np.abs(_frame(h, sun) - of.rotations[k]).max() < 1e-12
