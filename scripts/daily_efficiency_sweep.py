#!/usr/bin/env python3
"""Sweep the subject heliostat of the production-plant excerpt across a
winter day and write the efficiency time series plus three SVG snapshots
(morning, noon, late afternoon) to an output directory."""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from helioshade.field import OrientedField, load_layout, subject_efficiency
from helioshade.render import render_svg
from helioshade.solar import solar_position, sun_vector

DAY_OF_YEAR = 21  # January 21


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--layout",
        default=os.path.join(os.path.dirname(__file__), "..", "layouts", "real_scenario.txt"),
    )
    ap.add_argument("--subject", default="s")
    ap.add_argument("--outdir", default="sweep_out")
    ap.add_argument("--step-min", type=float, default=15.0)
    args = ap.parse_args()
    # the rule of `helioshade sweep --step`, which also rejects nan: a
    # step that does not advance t would repeat the first hour forever
    if not args.step_min >= 1.0:
        sys.exit(f"error: --step-min must be at least 1 minute, got {args.step_min:.9g}")

    try:
        layout = load_layout(args.layout)
    except (OSError, ValueError) as exc:  # LayoutError is a ValueError
        sys.exit(f"error: {exc}")
    lat = math.radians(layout.latitude_deg)
    if args.subject not in layout.ids:
        sys.exit(f"error: unknown heliostat id {args.subject!r}")
    j = layout.ids.index(args.subject)
    os.makedirs(args.outdir, exist_ok=True)

    series_path = os.path.join(args.outdir, "efficiency_series.txt")
    snapshots = {8.0: "morning.svg", 12.0: "noon.svg", 16.25: "afternoon.svg"}
    rendered = 0
    with open(series_path, "w", encoding="utf-8") as fh:
        fh.write("# hour eta_deg theta_deg efficiency\n")
        t = 6.0
        while t <= 18.0 + 1e-9:
            eta, theta = solar_position(DAY_OF_YEAR, t, lat)
            if eta <= 0.0:  # below the horizon
                t += args.step_min / 60.0
                continue
            result = subject_efficiency(OrientedField(layout, sun_vector(eta, theta)), j)
            fh.write(
                f"{t:.9g} {math.degrees(eta):.9g} "
                f"{math.degrees(theta):.9g} {result.efficiency:.9g}\n"
            )
            for hour, name in snapshots.items():
                if abs(t - hour) < 1e-9:
                    render_svg(result, os.path.join(args.outdir, name))
                    rendered += 1
            t += args.step_min / 60.0
    print(f"wrote {series_path} and {rendered} SVG snapshots to {args.outdir}/")


if __name__ == "__main__":
    main()
