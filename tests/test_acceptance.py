"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line naming the criterion, so the
suite output doubles as the acceptance report.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    areas,
    is_convex_ccw,
    overlap_area,
    pieces_disjoint,
    random_config,
    real_scenario_heliostats,
    region_matches,
    simple_trio,
    sun_at,
    xy,
)
from helioshade.clip import Region, difference, region_area
from helioshade.field import (
    FieldLayout,
    OrientedField,
    evaluate_field,
    format_report,
    subject_efficiency,
    synthetic_field,
)
from helioshade.oracle import OracleConfig, sample_efficiency
from helioshade.polygon2d import Polygon2, contains_many, ring_signed_area


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_acceptance_golden_case_simple():
    layout = FieldLayout.from_heliostats(simple_trio())
    values = {}
    worst_ms = 0.0
    for label, hour, target, tol in (("noon", 12.0, 0.76, 0.02), ("15:15", 15.25, 0.31, 0.03)):
        sun = sun_at(21, hour, 40.08)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            e = subject_efficiency(OrientedField(layout, sun), 0).efficiency
            best = min(best, time.perf_counter() - t0)
        values[label] = (e, target, tol)
        worst_ms = max(worst_ms, best * 1e3)
    ok = all(abs(e - t) <= tol for e, t, tol in values.values()) and worst_ms < 10.0
    report(
        "golden case 1 (two symmetric neighbors)",
        ok,
        f"e(noon)={values['noon'][0]:.4f} (0.76±0.02), "
        f"e(15:15)={values['15:15'][0]:.4f} (0.31±0.03), "
        f"runtime {worst_ms:.2f} ms (<10 ms)",
    )


def test_acceptance_golden_case_real_scenario():
    field = real_scenario_heliostats()
    layout = FieldLayout.from_heliostats(field)
    checks = []
    for hour, target, tol in ((8.0, 0.86, 0.03), (12.0, 0.96, 0.02), (16.25, 0.52, 0.04)):
        sun = sun_at(21, hour, 38.23)
        result = subject_efficiency(OrientedField(layout, sun), 0)
        checks.append((hour, result.efficiency, target, tol))
        if hour == 12.0:
            half = (field[0].width / 2.0, field[0].height / 2.0)
            contributors = {
                q.source_id for q in result.quads if areas([[q.ring.ring]], [half])[0] > 1e-12
            }
    values_ok = all(abs(e - t) <= tol for _, e, t, tol in checks)
    single_ok = len(contributors) == 1
    report(
        "golden case 2 (production-plant excerpt)",
        values_ok and single_ok,
        f"e(8h)={checks[0][1]:.4f} (0.86±0.03), e(12h)={checks[1][1]:.4f} "
        f"(0.96±0.02), e(16:15)={checks[2][1]:.4f} (0.52±0.04), "
        f"noon contributors={sorted(contributors)} (exactly one)",
    )


def test_acceptance_noon_symmetry():
    c, h1, h2 = simple_trio()
    sun = sun_at(21, 12.0, 40.08)
    losses = []
    for other in (h1, h2):
        of = OrientedField(FieldLayout.from_heliostats([c, other]), sun)
        e = subject_efficiency(of, 0).efficiency
        losses.append((1.0 - e) * c.area)
    gap = abs(losses[0] - losses[1])
    report(
        "noon symmetry of the two neighbor contributions",
        gap <= 1e-6,
        f"loss(h1)={losses[0]:.9f} m^2, loss(h2)={losses[1]:.9f} m^2, "
        f"|gap|={gap:.2e} (<=1e-6 m^2)",
    )


def test_acceptance_oracle_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    overlap_configs = 0
    worst = 0.0
    for _ in range(50):
        field, sun = random_config(rng)
        result = subject_efficiency(OrientedField(FieldLayout.from_heliostats(field), sun), 0)
        est, se = sample_efficiency(field[0], field, sun, OracleConfig(samples=1_000_000))
        diff = abs(result.efficiency - est)
        tol = max(0.002, 4.0 * se)
        worst = max(worst, diff / tol)
        assert diff <= tol, f"oracle disagreement: {diff} > {tol}"
        quads = result.quads
        if any(
            overlap_area(quads[i].ring, quads[k].ring) > 1e-9
            for i in range(len(quads))
            for k in range(i + 1, len(quads))
        ):
            overlap_configs += 1
    elapsed = time.perf_counter() - t0
    ok = overlap_configs >= 5 and elapsed < 600.0
    report(
        "oracle equivalence over 50 random configurations",
        ok,
        f"all within max(0.002, 4*SE), worst ratio {worst:.2f}, "
        f"{overlap_configs} configs with overlapping quads (>=5), "
        f"{elapsed:.1f} s (<600 s)",
    )


def test_acceptance_clipping_properties():
    # the traced figure
    a = Polygon2([(0, 0), (4, 0), (4, 4), (0, 4)])
    b = Polygon2([(3, 3), (5, 3), (5, 5), (3, 5)])
    r = difference(Region.from_polygon(a), b)
    expected = Polygon2([(4, 3), (3, 3), (3, 4), (0, 4), (0, 0), (4, 0)])
    trace_ok = (
        abs(region_area(r) - 15.0) <= 1e-12
        and all(is_convex_ccw(c) for c in r.components)
        and pieces_disjoint(r)
        and region_matches(r, lambda x, y: contains_many(expected, x, y), [expected])
    )

    rng = np.random.default_rng(7)

    def quad():
        # angular gaps bounded away from 0 and pi so the star-shaped
        # construction always yields a simple quadrilateral, redrawn until
        # it is convex
        while True:
            ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=4))
            gaps = np.diff(ang, append=ang[0] + 2 * np.pi)
            while np.min(gaps) < 0.15 or np.max(gaps) > 3.0:
                ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=4))
                gaps = np.diff(ang, append=ang[0] + 2 * np.pi)
            rad = rng.uniform(0.3, 1.0, size=4) * 10.0
            cx, cy = rng.uniform(-10.0, 10.0, size=2)
            q = Polygon2(
                [(cx + rr * np.cos(t), cy + rr * np.sin(t)) for rr, t in zip(rad, ang)]
            )
            if is_convex_ccw(q, tol=0.0):
                return q

    worst_rel = 0.0
    props_ok = True
    for _ in range(1000):
        pa, pb = quad(), quad()
        area_a = ring_signed_area(xy(pa))
        d = difference(Region.from_polygon(pa), pb)
        i = overlap_area(pa, pb)
        rel = abs(region_area(d) + i - area_a) / max(area_a, 1e-12)
        worst_rel = max(worst_rel, rel)
        props_ok &= rel <= 1e-9
        props_ok &= region_area(d) <= area_a + 1e-9  # monotonicity
        d2 = difference(d, pb)
        props_ok &= abs(region_area(d2) - region_area(d)) <= 1e-9 * max(
            region_area(d), 1.0
        )  # idempotence
    report(
        "clipping property suite (1000 random quad pairs + traced figure)",
        trace_ok and props_ok,
        f"area conservation worst rel err {worst_rel:.2e} (<=1e-9), "
        f"idempotence/monotonicity hold, figure is the expected convex partition",
    )


def test_acceptance_culling_soundness():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        field, sun = random_config(rng)
        of = OrientedField(FieldLayout.from_heliostats(field), sun)
        e_on = subject_efficiency(of, 0, use_culling=True).efficiency
        e_off = subject_efficiency(of, 0, use_culling=False).efficiency
        worst = max(worst, abs(e_on - e_off))
    report(
        "culling soundness on 100 random fields",
        worst <= 1e-12,
        f"max |e_culled - e_unculled| = {worst:.2e} (<=1e-12)",
    )


def test_acceptance_performance_1000_heliostats():
    layout = synthetic_field(1000)
    sun = sun_at(21, 12.0, layout.latitude_deg)
    times = []
    for _ in range(100):
        t0 = time.perf_counter()
        evaluate_field(layout, sun, workers=1)
        times.append(time.perf_counter() - t0)
    mean = sum(times) / len(times)
    report(
        "performance on the 1000-heliostat synthetic field",
        mean <= 5.0,
        f"mean {mean:.3f} s over 100 repetitions (<=5 s; stretch goal 1 s "
        f"{'met' if mean <= 1.0 else 'not met'}), min {min(times):.3f} s",
    )


def test_acceptance_determinism():
    layout = synthetic_field(1000)
    sun = sun_at(21, 16.25, layout.latitude_deg)  # 3 chunks, so a pool runs
    texts = set()
    for workers in (1, 1, 4, 8):
        rep = evaluate_field(layout, sun, workers=workers)
        texts.add(format_report(rep, include_timing=False).encode("utf-8"))
    report(
        "determinism across runs and worker counts {1,4,8}",
        len(texts) == 1,
        f"{4} evaluations produced {len(texts)} distinct report byte strings "
        "(timing line excluded as run-dependent)",
    )
