#!/usr/bin/env python3
"""Measure batch-engine wall time versus field size on synthetic
radially staggered layouts, with and without the reach prefilter and the
projected-quad culling, and print a small scaling table."""

import argparse
import math
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from helioshade.field import evaluate_field, synthetic_field
from helioshade.solar import solar_position, sun_vector

DAY_OF_YEAR = 21  # January 21


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    print("# n culling mean_s min_s field_average")
    for n in args.sizes:
        layout = synthetic_field(n)
        eta, theta = solar_position(DAY_OF_YEAR, 12.0, math.radians(layout.latitude_deg))
        sun = sun_vector(eta, theta)
        for use_culling in (True, False):
            times = []
            avg = 1.0
            for _ in range(args.reps):
                t0 = time.perf_counter()
                report = evaluate_field(
                    layout, sun, workers=args.workers, use_culling=use_culling
                )
                times.append(time.perf_counter() - t0)
                avg = report.average
            print(
                f"{n} {'on' if use_culling else 'off'} "
                f"{statistics.mean(times):.4f} {min(times):.4f} {avg:.6f}"
            )


if __name__ == "__main__":
    main()
