#!/usr/bin/env python3
"""Sweep the subject heliostat of the production-plant excerpt across
January 21 with `helioshade sweep` and write its series, then write an
SVG snapshot with `helioshade render` at 08:00, 12:00 and 16:15, each
only if that time is a data row of the series, to an output directory.
Every rule and refusal of the two commands holds here."""

import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from helioshade import cli

SNAPSHOTS = {"08:00": "morning.svg", "12:00": "noon.svg", "16:15": "afternoon.svg"}


def main() -> int:
    ap = cli._Parser(description=__doc__)
    ap.add_argument(
        "--layout",
        default=os.path.join(os.path.dirname(__file__), "..", "layouts", "real_scenario.txt"),
    )
    ap.add_argument("--subject", default="s")
    ap.add_argument("--outdir", default="sweep_out")
    ap.add_argument("--step", default="15", help="step, whole minutes")
    try:
        args = ap.parse_args()
    except cli.CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # `--opt=value` keeps a value that starts with "-" a value
    series = io.StringIO()
    with contextlib.redirect_stdout(series):
        code = cli.main([
            "sweep", args.layout, f"--subject={args.subject}", "--date=01-21",
            "--start=06:00", "--end=18:00", f"--step={args.step}",
        ])
    text = series.getvalue()
    if code:
        return code
    os.makedirs(args.outdir, exist_ok=True)
    series_path = os.path.join(args.outdir, "efficiency_series.txt")
    with open(series_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {series_path}")

    stamps = {line.split()[0] for line in text.splitlines() if not line.startswith("#")}
    for hour, name in SNAPSHOTS.items():
        if hour in stamps:
            code = cli.main([
                "render", args.layout, f"--subject={args.subject}", "--date=01-21",
                f"--hour={hour}", f"--out={os.path.join(args.outdir, name)}",
            ])
            if code:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
