"""Command-line interface.

Subcommands: `efficiency` (per-heliostat or whole-field report), `sweep`
(efficiency time series over a day), `render` (SVG of the subject-plane
picture), `bench` (synthetic-field timing), `oracle-check` (clipping vs
sampling comparison).  The sun is specified either directly with
`--eta/--theta` in degrees or with `--date MM-DD --hour HH:MM` in solar
time, resolved at the plant latitude.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import math
import platform
import sys
import time
from typing import List, Optional, Sequence, Tuple

from .field import (
    HeliostatRecord,
    OrientedField,
    evaluate_field,
    format_report,
    load_layout,
    subject_efficiency,
    synthetic_field,
)
from .oracle import OracleConfig, sample_efficiency
from .render import render_svg
from .solar import SunState, solar_position, sun_vector

try:
    import resource
except ImportError:  # not on Windows
    resource = None

__all__ = ["main"]


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Ends a malformed command line with one `error:` line, not a usage block."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")


# ten times the default: from 1e6 samples up, the tolerance
# max(0.002, 4 SE) is at its floor, since 4 sqrt(0.25 / 1e6) = 0.002
_MAX_SAMPLES = 10_000_000


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _parse_hhmm(text: str) -> int:
    """Minutes since midnight of an HH:MM time."""
    try:
        hh, mm = (int(part) for part in text.split(":"))
        valid = 0 <= hh <= 23 and 0 <= mm <= 59
    except ValueError:
        valid = False
    if not valid:
        raise CliError(f"malformed time {text!r}, expected HH:MM")
    return hh * 60 + mm


def _solar_hour(minute: int) -> float:
    """The solar hour of a minute since midnight, for `--hour` and `sweep` alike."""
    return minute // 60 + minute % 60 / 60.0


def _day_of_year(date_text: str) -> int:
    try:
        month, day = (int(p) for p in date_text.split("-"))
    except ValueError:
        raise CliError(f"malformed date {date_text!r}, expected MM-DD") from None
    try:
        return datetime.date(2023, month, day).timetuple().tm_yday
    except ValueError:
        raise CliError(f"date {date_text!r} is not a day of the 365-day year") from None


def _add_sun_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, help="sun elevation, degrees")
    p.add_argument("--theta", type=float, help="sun azimuth from north, degrees")
    p.add_argument("--date", help="solar date MM-DD")
    p.add_argument("--hour", help="solar time HH:MM")


def _resolve_sun(args, latitude_deg: float) -> Tuple[SunState, str]:
    """SunState plus a human-readable label from either sun-spec form."""
    direct = args.eta is not None or args.theta is not None
    dated = args.date is not None or args.hour is not None
    if direct == dated:
        raise CliError("give either --eta/--theta or --date/--hour, not both")
    if direct:
        if args.eta is None or args.theta is None:
            raise CliError("--eta and --theta must be given together")
        for flag, value in (("--eta", args.eta), ("--theta", args.theta)):
            if not math.isfinite(value):
                raise CliError(f"{flag} must be a finite number of degrees, got {_fmt(value)}")
        if args.eta > 90.0:
            raise CliError(f"--eta must be at most 90 degrees, got {_fmt(args.eta)}")
        sun = sun_vector(math.radians(args.eta), math.radians(args.theta))
        return sun, f"eta={_fmt(args.eta)} theta={_fmt(args.theta)}"
    if args.date is None or args.hour is None:
        raise CliError("--date and --hour must be given together")
    day = _day_of_year(args.date)
    hour = _solar_hour(_parse_hhmm(args.hour))
    sun = sun_vector(*solar_position(day, hour, math.radians(latitude_deg)))
    return sun, f"{args.date} {args.hour}"


def _subject_index(ids: Sequence[str], subject_id: str) -> int:
    try:
        return ids.index(subject_id)
    except ValueError:
        raise CliError(f"unknown heliostat id {subject_id!r}") from None


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_efficiency(args) -> None:
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    layout = load_layout(args.layout)
    sun, label = _resolve_sun(args, layout.latitude_deg)
    if args.subject:
        of = OrientedField(layout, sun)
        j = _subject_index(of.ids, args.subject)
        e = subject_efficiency(of, j).efficiency
        record = HeliostatRecord.from_efficiency(args.subject, e, *of.dims[j].tolist())
        _write_or_print(record.line() + "\n", args.out)
        return
    report = evaluate_field(layout, sun, workers=args.workers, date_label=label)
    _write_or_print(format_report(report, include_timing=not args.no_timing), args.out)


def cmd_sweep(args) -> None:
    if args.step < 1:
        raise CliError(f"--step must be at least 1 minute, got {args.step}")
    layout = load_layout(args.layout)
    start = _parse_hhmm(args.start)
    end = _parse_hhmm(args.end)
    if start >= end:
        raise CliError("--start must precede --end")
    day = _day_of_year(args.date)
    lat = math.radians(layout.latitude_deg)
    j = _subject_index(layout.ids, args.subject)
    lines = [
        f"# sweep subject={args.subject} date={args.date} "
        f"start={args.start} end={args.end} step={args.step} min",
        "# time eta_deg theta_deg efficiency",
    ]
    for minute in range(start, end + 1, args.step):
        stamp = f"{minute // 60:02d}:{minute % 60:02d}"
        eta, theta = solar_position(day, _solar_hour(minute), lat)
        if eta <= 0.0:
            lines.append(f"# {stamp} sun below horizon, skipped")
        else:
            e = subject_efficiency(OrientedField(layout, sun_vector(eta, theta)), j).efficiency
            lines.append(f"{stamp} {_fmt(math.degrees(eta))} {_fmt(math.degrees(theta))} {_fmt(e)}")
    _write_or_print("\n".join(lines) + "\n", args.out)


def cmd_render(args) -> None:
    layout = load_layout(args.layout)
    sun, _ = _resolve_sun(args, layout.latitude_deg)
    of = OrientedField(layout, sun)
    result = subject_efficiency(of, _subject_index(of.ids, args.subject))
    render_svg(result, args.out)
    print(f"{args.out}: subject {result.subject_id} e = {_fmt(result.efficiency)}")


def _minor_faults() -> int:
    """Minor page faults of this process and its reaped workers so far."""
    return sum(
        resource.getrusage(who).ru_minflt
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


def cmd_bench(args) -> None:
    if args.n < 1:
        raise CliError("bench needs --n >= 1")
    if args.reps < 1:
        raise CliError("bench needs --reps >= 1")
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    layout = synthetic_field(args.n)
    if args.eta is None and args.theta is None:
        args.date = args.date or "01-21"
        args.hour = args.hour or "12:00"
    sun, _ = _resolve_sun(args, layout.latitude_deg)
    times = []
    average = 1.0
    faults = None if resource is None else _minor_faults()
    for _ in range(args.reps):
        t0 = time.perf_counter()
        report = evaluate_field(layout, sun, workers=args.workers)
        times.append(time.perf_counter() - t0)
        average = report.average
    mean = sum(times) / len(times)
    minflt = ""
    if faults is not None:
        minflt = f"minflt/rep={round((_minor_faults() - faults) / args.reps)} "
    print(
        f"n={layout.n} reps={args.reps} "
        f"mean={_fmt(mean)} s min={_fmt(min(times))} s "
        f"{minflt}average_efficiency={_fmt(average)}"
    )


def cmd_oracle_check(args) -> None:
    if not 1 <= args.samples <= _MAX_SAMPLES:
        raise CliError(f"--samples must be from 1 to {_MAX_SAMPLES}, got {args.samples}")
    layout = load_layout(args.layout)
    sun, _ = _resolve_sun(args, layout.latitude_deg)
    j = _subject_index(layout.ids, args.subject)
    e_clip = subject_efficiency(OrientedField(layout, sun), j).efficiency
    if args.corrupt:
        # negative-control hook: bias the clipping value so the check fails
        e_clip = min(1.0, e_clip + 0.05)
    cfg = OracleConfig(samples=args.samples, independent=args.independent)
    field = layout.to_heliostats()
    e_oracle, se = sample_efficiency(field[j], field, sun, cfg)
    tol = max(0.002, 4.0 * se)
    diff = abs(e_clip - e_oracle)
    verdict = "PASS" if diff <= tol else "FAIL"
    print(
        f"clip={_fmt(e_clip)} oracle={_fmt(e_oracle)} se={_fmt(se)} "
        f"diff={_fmt(diff)} tol={_fmt(tol)} {verdict}"
    )
    if verdict == "FAIL":
        raise CliError(f"oracle disagreement: |diff| = {_fmt(diff)} > {_fmt(tol)}")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves
    it unchanged."""
    parser = _Parser(
        prog="helioshade",
        description="Heliostat blocking-and-shadowing efficiency via polygon clipping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("efficiency", help="evaluate one heliostat or the whole field")
    p.add_argument("layout")
    _add_sun_args(p)
    p.add_argument("--subject", help="heliostat id; omit for the whole field")
    p.add_argument("--out", help="output file; stdout if omitted")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--no-timing", action="store_true", help="omit the elapsed-time line"
    )
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("sweep", help="efficiency time series across a day")
    p.add_argument("layout")
    p.add_argument("--date", required=True, help="solar date MM-DD")
    p.add_argument("--start", required=True, help="start time HH:MM")
    p.add_argument("--end", required=True, help="end time HH:MM")
    p.add_argument("--step", type=int, default=15, help="step, whole minutes")
    p.add_argument("--subject", required=True)
    p.add_argument("--out", help="output file; stdout if omitted")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="SVG picture of the subject plane")
    p.add_argument("layout")
    _add_sun_args(p)
    p.add_argument("--subject", required=True)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser(
        "bench",
        help="time the batch engine on a synthetic field; the sun defaults to 01-21 12:00",
    )
    _add_sun_args(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle-check", help="compare clipping against dense sampling")
    p.add_argument("layout")
    _add_sun_args(p)
    p.add_argument("--subject", required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument(
        "--independent",
        action="store_true",
        help="re-derive occlusion by 3D ray tests instead of the projected quads",
    )
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_oracle_check)
    return parser


# M_TRIM_THRESHOLD and M_MMAP_THRESHOLD of glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.lru_cache(maxsize=None)
def _keep_freed_heap() -> None:
    """On glibc, keep freed heap pages in this process, once per process.

    By default glibc gives the top of the heap back to the OS once a
    chunk's few MB of numpy temporaries are freed, and the next chunk
    faults the same pages in again.  The two thresholds below are the
    ceilings of glibc's own dynamic ones on 64-bit (mallopt(3)).  Only
    the CLI sets them, since a library call must not change its host
    process's allocator; forked workers inherit them."""
    if platform.libc_ver()[0] != "glibc":
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: Optional[List[str]] = None) -> int:
    _keep_freed_heap()
    try:
        args = _build_parser().parse_args(argv)
        args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
