#!/usr/bin/env python3
"""Benchmark of the helioshade efficiency engine, driven through its CLI.

One run:

    python3 perfbench/run.py --workload noon-1000 --seed 1 --seconds 30 --trace 0

All workloads at one seed, untraced and traced, as one table:

    python3 perfbench/run.py --all --seed 1 --seconds 30

A run generates `synthetic_field(n, RadialStaggerSpec(seed=...))` from the
workload seed, writes it with `save_layout`, and then repeats the
workload's `helioshade efficiency` call on that file, in process, through
`helioshade.cli.main`, for the given number of seconds (a closed loop with
one caller and `--workers 1`).  Every op's output is checked; an untimed
validation pass then compares subject mode with the field report and with
the independent 3D-ray sampling oracle.

With `--trace 1` every op is run twice, once through the CLI and once
through a traced copy of the CLI's serial loop built from the same public
functions.  The two outputs must be byte-identical.  The traced copy
records a span around each call into a layer; per-layer metrics are
computed from the spans' self times.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`).  Lines before it
start with `#` and carry the stamp and the metrics that do not fit that
object (`op_s.p90`, `fail_ratio`).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"

# The benchmark measures the sources of the checkout it sits in, never an
# installed copy of the package.
if not (SRC / "helioshade" / "__init__.py").is_file():
    raise SystemExit(f"error: no helioshade sources at {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import helioshade  # noqa: E402
from helioshade import cli  # noqa: E402
from helioshade.clip import Region, difference, region_area  # noqa: E402
from helioshade.field import (  # noqa: E402
    FieldReport,
    HeliostatRecord,
    LayoutError,
    OrientedField,
    RadialStaggerSpec,
    format_report,
    load_layout,
    save_layout,
    subject_quads,
    synthetic_field,
)
from helioshade.oracle import OracleConfig, sample_efficiency  # noqa: E402
from helioshade.polygon2d import Point2, Polygon2  # noqa: E402
from helioshade.shading import candidate_quads, orient  # noqa: E402
from helioshade.solar import solar_position, sun_vector  # noqa: E402

if Path(helioshade.__file__).resolve().parent != (SRC / "helioshade").resolve():
    raise SystemExit(f"error: imported helioshade from {helioshade.__file__}, not {SRC}")

N = 1000
DATE = "01-21"
WORKLOADS = ("noon-1000", "lowsun-1000", "subject-sweep")
FIELD_HOURS = {"noon-1000": "12:00", "lowsun-1000": "16:15"}
SWEEP_HOURS = tuple(
    f"{m // 60:02d}:{m % 60:02d}" for m in range(8 * 60, 16 * 60 + 31, 15)
)
SWEEP_SUBJECTS_PER_HOUR = 2
SWEEP_STRIDE = 43  # coprime with the 70 ops of a cycle, about 70 / golden ratio
SETUP_REPS = 15
SAMPLE_SUBJECTS = 3
ORACLE_SAMPLES = 10_000
SUBJECT_TOL = 1e-9
# Both sides of the subject/field comparison are 9-significant-digit
# decimal strings; this absorbs their binary representation error only.
DECIMAL_SLACK = 1e-15

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "heliostats_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "field.load_layout_s": "s",
    "solar.solar_position_s": "s",
    "field.orient_s": "s",
    "field.subject_quads_s": "s",
    "field.subject_quads_us_per_pair": "us",
    "field.quads_kept": "count",
    "field.cull_keep_ratio": "ratio",
    "field.format_report_s": "s",
    "shading.orient_s": "s",
    "shading.candidate_quads_s": "s",
    "shading.quads_kept": "count",
    "clip.difference_calls": "count",
    "clip.difference_s": "s",
    "clip.us_per_call": "us",
    "clip.residual_components": "count",
    "clip.empty_residuals": "count",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Op:
    """One `helioshade efficiency` call: a whole field, or one subject."""

    hour: str
    subject: Optional[str] = None

    @property
    def kind(self) -> str:
        return "field" if self.subject is None else "subject"

    def argv(self, layout: Path) -> List[str]:
        args = ["efficiency", str(layout), "--date", DATE, "--hour", self.hour]
        if self.subject is None:
            return args + ["--workers", "1", "--no-timing"]
        return args + ["--subject", self.subject]


def workload_ops(workload: str, seed: int, n: int) -> List[Op]:
    """The ops one run cycles through, in order."""
    if workload in FIELD_HOURS:
        return [Op(FIELD_HOURS[workload])]
    if workload != "subject-sweep":
        raise ValueError(f"unknown workload {workload!r}")
    # A subject query costs 5x more for an outer mirror than for an inner
    # one, so the subjects are stratified: one from each equal slice of the
    # field's index range (inner ring first), with the slices visited in a
    # golden-ratio order so that any stretch of the cycle mixes inner and
    # outer mirrors as the whole cycle does.
    rng = np.random.default_rng([seed, 1])
    m = len(SWEEP_HOURS) * SWEEP_SUBJECTS_PER_HOUR
    strata = (np.arange(m) * SWEEP_STRIDE) % m
    subjects = ((strata + rng.random(m)) * n / m).astype(int)
    hours = rng.permutation(np.arange(m) % len(SWEEP_HOURS))
    return [Op(SWEEP_HOURS[h], f"h{s:04d}") for h, s in zip(hours, subjects)]


# ---------------------------------------------------------------------------
# set-up


def field_seed(seed: int, n: int) -> int:
    """First field seed in a sequence fixed by `seed` whose layout is feasible.

    `synthetic_field` refuses draws whose jittered mirrors would overlap
    (about a quarter of seeds at n = 1000), so the workload seed itself is
    tried first and further candidates are drawn from it.
    """
    candidates = itertools.chain(
        [seed], (int(s) for s in np.random.default_rng(seed).integers(1, 2**31, 64))
    )
    for candidate in candidates:
        try:
            synthetic_field(n, RadialStaggerSpec(seed=candidate))
        except LayoutError:
            continue
        return candidate
    raise RuntimeError(f"no feasible synthetic field for seed {seed}")


def timed_setup(spec_seed: int, n: int, path: str) -> float:
    """Median wall time to generate, write and load the layout."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        save_layout(synthetic_field(n, RadialStaggerSpec(seed=spec_seed)), path)
        load_layout(path)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup(seed: int, n: int, path: Path) -> Tuple[int, float]:
    """Write the layout and time its set-up in a child process, so that the
    generator's O(N^2) overlap check stays out of this process's peak RSS."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup", str(seed), str(n), str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    spec_seed, setup_s = json.loads(proc.stdout.strip().splitlines()[-1])
    return spec_seed, setup_s


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans and counters kept in memory, written out when the run ends.

    A span is (span id, parent span id, op id, name, start, end); the spans
    of one op share the op id.  Counters are kept per op id.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], int, str, float, float]] = []
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self.op_id = -1
        self._ids = itertools.count()
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.op_id, name, start, end))

    def count(self, name: str, k: int = 1) -> None:
        self.counts[self.op_id][name] += k

    def self_times(self) -> Dict[int, Counter]:
        """Per op: summed self time of each span name (duration minus the
        part covered by its children)."""
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[int, Counter] = defaultdict(Counter)
        for sid, _, op_id, name, start, end in self.spans:
            out[op_id][name] += (end - start) - covered[sid]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start,end\n")
            for sid, parent, op_id, name, start, end in self.spans:
                parent_text = "" if parent is None else parent
                fh.write(f"{sid},{parent_text},{op_id},{name},{start!r},{end!r}\n")


def _sun(op: Op, latitude_deg: float):
    month, day = (int(p) for p in DATE.split("-"))
    day_of_year = datetime.date(2023, month, day).timetuple().tm_yday
    hh, mm = (int(p) for p in op.hour.split(":"))
    eta, theta = solar_position(day_of_year, hh + mm / 60.0, math.radians(latitude_deg))
    return sun_vector(eta, theta)


def _subtract(tr: Tracer, residual: Region, quads) -> Region:
    for quad in quads:
        with tr.span("clip.difference"):
            residual = difference(residual, quad.ring)
        tr.count("clip.difference_calls")
        if not residual.components:
            break
    tr.count("clip.residual_components", len(residual.components))
    tr.count("clip.empty_residuals", int(not residual.components))
    return residual


def traced_field_op(tr: Tracer, layout_path: Path, op: Op) -> str:
    """`efficiency LAYOUT --workers 1 --no-timing` as the CLI's serial loop."""
    with tr.span("op"):
        with tr.span("field.load_layout"):
            layout = load_layout(str(layout_path))
        with tr.span("solar.solar_position"):
            sun = _sun(op, layout.latitude_deg)
        with tr.span("field.orient"):
            of = OrientedField(layout, sun)
        records = []
        for j in range(of.n):
            with tr.span("field.subject_quads"):
                quads = subject_quads(of, j)
            tr.count("field.quads_kept", len(quads))
            hx, hy = of.dims[j] / 2.0
            outline = Polygon2(
                (Point2(-hx, hy), Point2(-hx, -hy), Point2(hx, -hy), Point2(hx, hy))
            )
            residual = _subtract(tr, Region.from_polygon(outline), quads)
            area = of.dims[j, 0] * of.dims[j, 1]
            e = min(1.0, max(0.0, region_area(residual) / area))
            records.append(
                HeliostatRecord(
                    id=of.ids[j],
                    efficiency=e,
                    area_reflecting=e * of.dims[j, 0] * of.dims[j, 1],
                    area_total=area,
                )
            )
        report = FieldReport(
            sun=sun,
            date_label=f"{DATE} {op.hour}",
            records=tuple(records),
            average=sum(r.efficiency for r in records) / of.n,
            duration=0.0,
        )
        with tr.span("field.format_report"):
            return format_report(report, include_timing=False)


def traced_subject_op(tr: Tracer, layout_path: Path, op: Op) -> str:
    """`efficiency LAYOUT --subject ID` as the CLI computes it."""
    with tr.span("op"):
        with tr.span("field.load_layout"):
            layout = load_layout(str(layout_path))
        with tr.span("solar.solar_position"):
            sun = _sun(op, layout.latitude_deg)
        with tr.span("shading.orient"):
            field = [orient(h, sun) for h in layout.to_heliostats()]
        subject = next((h for h in field if h.id == op.subject), None)
        if subject is None:
            raise ValueError(f"unknown heliostat id {op.subject!r}")
        with tr.span("shading.candidate_quads"):
            quads = candidate_quads(subject, field, sun)
        tr.count("shading.quads_kept", len(quads))
        residual = _subtract(tr, Region.from_polygon(subject.outline()), quads)
        e = min(1.0, max(0.0, region_area(residual) / subject.area))
        return f"{subject.id} {e:.9g} {e * subject.area:.9g} {subject.area:.9g}\n"


# ---------------------------------------------------------------------------
# running and checking ops


def check_output(op: Op, text: str, n: int) -> Optional[str]:
    """Why an op's output is wrong, or None when it is well formed."""
    rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
    if len(rows) != (n if op.subject is None else 1):
        return f"{len(rows)} result lines"
    for row in rows:
        if len(row) != 4:
            return f"malformed line {' '.join(row)!r}"
        if op.subject is not None and row[0] != op.subject:
            return f"line for {row[0]!r}, asked for {op.subject!r}"
        try:
            e = float(row[1])
        except ValueError:
            return f"malformed efficiency {row[1]!r}"
        if not (math.isfinite(e) and 0.0 <= e <= 1.0):
            return f"{row[0]}: e = {row[1]}"
    return None


@dataclass
class Outcome:
    seconds: float
    text: str
    failure: Optional[str]


class Bench:
    """Runs ops on one layout file, checks each, and keeps the tallies."""

    def __init__(self, layout: Path, n: int, tracer: Optional[Tracer]) -> None:
        self.layout = layout
        self.n = n
        self.tracer = tracer
        self.attempted = 0
        self.failures: List[str] = []
        self.reference: Dict[Op, str] = {}
        self.traced_ops: Dict[int, Op] = {}

    def _fail(self, op: Op, why: str) -> None:
        self.failures.append(f"{' '.join(op.argv(self.layout.name))}: {why}")

    def _settle(self, op: Op, outcome: Outcome) -> Outcome:
        """Count the op, and fail it on a bad or unrepeatable output."""
        self.attempted += 1
        if outcome.failure is None:
            outcome.failure = check_output(op, outcome.text, self.n)
        if outcome.failure is None:
            ref = self.reference.setdefault(op, outcome.text)
            if ref != outcome.text:
                outcome.failure = "report bytes differ from an earlier run of this op"
        if outcome.failure is not None:
            self._fail(op, outcome.failure)
        return outcome

    def cli(self, op: Op) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        failure = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv(self.layout))
        except Exception:  # a traceback is a failed op, not a crashed run
            code = None
            failure = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        seconds = time.perf_counter() - t0
        if failure is None and code != 0:
            failure = f"exit {code}: {err.getvalue().strip()}"
        elif failure is None and "Traceback" in err.getvalue():
            failure = "traceback on stderr"
        return self._settle(op, Outcome(seconds, out.getvalue(), failure))

    def traced(self, op: Op) -> Outcome:
        tr = self.tracer
        tr.op_id += 1
        self.traced_ops[tr.op_id] = op
        run = traced_field_op if op.subject is None else traced_subject_op
        failure, text = None, ""
        t0 = time.perf_counter()
        try:
            text = run(tr, self.layout, op)
        except Exception:
            failure = "traced: " + traceback.format_exc().strip().splitlines()[-1]
        return self._settle(op, Outcome(time.perf_counter() - t0, text, failure))

    def run(self, op: Op, k: int = 0) -> Tuple[Outcome, Optional[Outcome]]:
        """The op through the CLI and, when tracing, through the traced
        loop as well, the two in alternating order by k."""
        if self.tracer is None:
            return self.cli(op), None
        if k % 2:
            traced = self.traced(op)
            return self.cli(op), traced
        plain = self.cli(op)
        return plain, self.traced(op)


def timed_loop(bench: Bench, ops: List[Op], seconds: float):
    """Closed loop over the ops for `seconds`, and at least once over each."""
    plain, pairs = [], []
    start = time.perf_counter()
    for k in itertools.count():
        if k >= len(ops) and time.perf_counter() - start >= seconds:
            break
        op = ops[k % len(ops)]
        a, b = bench.run(op, k)
        if a.failure is None:
            plain.append(a.seconds)
            if b is not None:
                pairs.append(b.seconds / a.seconds)
    return plain, pairs


def validate(bench: Bench, hour: str, seed: int, field_text: str) -> List[str]:
    """Untimed cross-checks of a seeded sample of subjects at one hour:
    subject mode against the field report, and the field report against
    the independent 3D-ray sampling oracle."""
    problems = []
    field_e = {}
    for line in field_text.splitlines():
        if not line.startswith("#"):
            hid, e = line.split()[:2]
            field_e[hid] = float(e)
    ids = sorted(field_e)
    shaded = [h for h in ids if field_e[h] < 1.0]
    pool = shaded if len(shaded) >= SAMPLE_SUBJECTS else ids
    rng = np.random.default_rng([seed, 2])
    picks = rng.choice(len(pool), size=min(SAMPLE_SUBJECTS, len(pool)), replace=False)
    sample = [pool[i] for i in picks]

    layout = load_layout(str(bench.layout))
    sun = _sun(Op(hour), layout.latitude_deg)
    field = [orient(h, sun) for h in layout.to_heliostats()]
    by_id = {h.id: h for h in field}
    for hid in sample:
        op = Op(hour, hid)
        outcome, _ = bench.run(op)
        if outcome.failure is not None:
            problems.append(f"{hid}: subject op failed")
            continue
        e_subject = float(outcome.text.split()[1])
        if abs(e_subject - field_e[hid]) > SUBJECT_TOL + DECIMAL_SLACK:
            problems.append(f"{hid}: subject e {e_subject!r} != field e {field_e[hid]!r}")
        cfg = OracleConfig(samples=ORACLE_SAMPLES, independent=True)
        e_oracle, se = sample_efficiency(by_id[hid], field, sun, cfg)
        tol = max(0.002, 4.0 * se)
        if abs(field_e[hid] - e_oracle) > tol:
            problems.append(f"{hid}: field e {field_e[hid]!r} vs oracle {e_oracle!r} > {tol:.3g}")
    return problems


# ---------------------------------------------------------------------------
# metrics


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(
    bench: Bench, workload_kind: str, pairs: List[float], n: int
) -> Dict[str, float]:
    tr = bench.tracer
    selfs = tr.self_times()
    ops_of = defaultdict(list)
    for op_id, op in bench.traced_ops.items():
        ops_of[op.kind].append(op_id)

    def seconds(name: str, kind: str) -> float:
        # mean busy time per op: a layer that most ops skip still reads > 0
        return statistics.fmean(selfs[op_id][name] for op_id in ops_of[kind])

    def count(name: str, kind: str) -> float:
        # one value per distinct op, so that the count repeats exactly
        # however many ops the time allowed
        per_key = {}
        for op_id in ops_of[kind]:
            per_key[bench.traced_ops[op_id]] = tr.counts[op_id][name]
        return sum(per_key.values()) / len(per_key)

    own = workload_kind
    pairs_total = n * (n - 1)
    m = {
        "field.load_layout_s": seconds("field.load_layout", own),
        "solar.solar_position_s": seconds("solar.solar_position", own),
        "field.orient_s": seconds("field.orient", "field"),
        "field.subject_quads_s": seconds("field.subject_quads", "field"),
        "field.quads_kept": count("field.quads_kept", "field"),
        "field.format_report_s": seconds("field.format_report", "field"),
        "shading.orient_s": seconds("shading.orient", "subject"),
        "shading.candidate_quads_s": seconds("shading.candidate_quads", "subject"),
        "shading.quads_kept": count("shading.quads_kept", "subject"),
        "clip.difference_calls": count("clip.difference_calls", own),
        "clip.difference_s": seconds("clip.difference", own),
        "clip.residual_components": count("clip.residual_components", own),
        "clip.empty_residuals": count("clip.empty_residuals", own),
        "trace.overhead_ratio": statistics.median(pairs),
    }
    m["field.subject_quads_us_per_pair"] = 1e6 * m["field.subject_quads_s"] / max(1, pairs_total)
    m["field.cull_keep_ratio"] = m["field.quads_kept"] / max(1, 2 * pairs_total)
    calls = m["clip.difference_calls"]
    m["clip.us_per_call"] = 1e6 * m["clip.difference_s"] / calls if calls else 0.0
    return m


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, spec_seed: int, n: int) -> Dict[str, object]:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "git": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "field_seed": spec_seed,
        "n": n,
        "workers": 1,
        "src_lines": src_lines,
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, n: int = N, extra_ops=()
) -> Dict[str, object]:
    """One run; returns the result object plus a `detail` record.

    `extra_ops` are appended to the workload's op cycle (the self-test uses
    this to show that a failing op is counted)."""
    ops = workload_ops(workload, seed, n) + list(extra_ops)
    kind = ops[0].kind
    WORK.mkdir(parents=True, exist_ok=True)
    layout = WORK / f"{workload}.layout"
    spec_seed, setup_s = setup(seed, n, layout)
    tracer = Tracer() if trace else None
    bench = Bench(layout, n, tracer)

    # warm-up; for the field workloads also the report the validation uses
    first, _ = bench.run(ops[0])
    plain, pairs = timed_loop(bench, ops, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not plain:
        raise RuntimeError("no op succeeded: " + "; ".join(bench.failures[:3]))

    hour = ops[0].hour
    reference = first if kind == "field" else bench.run(Op(hour))[0]
    if reference.failure is None:
        problems = validate(bench, hour, seed, reference.text)
    else:
        problems = [f"no field report at {hour} to validate against"]

    if trace:
        metrics = layer_metrics(bench, kind, pairs, n)
        units = PER_LAYER_UNITS
        tracer.write(WORK / f"{workload}.trace.csv")
    else:
        per_op = n if kind == "field" else 1
        metrics = {
            "setup_s": setup_s,
            "op_s.p50": statistics.median(plain),
            "heliostats_per_s": per_op * len(plain) / sum(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    detail = {
        "stamp": stamp(workload, seed, spec_seed, n),
        "ops_timed": len(plain),
        "op_s.p90": percentile(plain, 0.9),
        "op_s.p90_samples_beyond": len(plain) - math.ceil(0.9 * len(plain)),
        "fail_ratio": len(bench.failures) / bench.attempted,
        "failures": bench.failures[:20],
        "validation_problems": problems,
    }
    return {
        "correct": not problems and not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# command line


def print_result(result: Dict[str, object]) -> None:
    detail = result.pop("detail")
    s = detail["stamp"]
    print(
        f"# helioshade benchmark workload={s['workload']} seed={s['seed']} "
        f"field_seed={s['field_seed']} n={s['n']} workers=1"
    )
    print(
        f"# git={s['git']} python={s['python']} numpy={s['numpy']} "
        f"nproc={s['nproc']} src_lines={s['src_lines']}"
    )
    for name, m in result["metrics"].items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(f"# op_s.p90 {detail['op_s.p90']:.6g} s ({detail['ops_timed']} ops, "
          f"{detail['op_s.p90_samples_beyond']} beyond)")
    print(
        f"# fail_ratio {detail['fail_ratio']:.6g} "
        f"({result['failed']} of {result['attempted']} ops)"
    )
    for line in detail["failures"] + detail["validation_problems"]:
        print(f"# FAIL {line}")
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rows = []
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            detail = next(
                json.loads(line[len("# detail "):])
                for line in lines
                if line.startswith("# detail ")
            )
            result = json.loads(lines[-1])
            ok &= result["correct"]
            rows.append((workload, trace, result, detail))
    if rows:
        print("# " + " ".join(f"{k}={v}" for k, v in rows[0][3]["stamp"].items()
                              if k not in ("workload",)))
    for workload, trace, result, detail in rows:
        print(f"\n## {workload} ({'traced' if trace else 'untraced'}) "
              f"correct={result['correct']} ops={result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
        if not trace:
            if workload == "subject-sweep":
                print(f"{'op_s.p90':36s} {detail['op_s.p90']:14.6g} s "
                      f"({detail['ops_timed']} ops)")
            print(f"{'fail_ratio':36s} {detail['fail_ratio']:14.6g} "
                  f"({result['failed']} of {result['attempted']})")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup", nargs=3, metavar=("SEED", "N", "PATH"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup:
        seed, n = int(args.setup[0]), int(args.setup[1])
        spec_seed = field_seed(seed, n)
        print(json.dumps([spec_seed, timed_setup(spec_seed, n, args.setup[2])]))
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        p.error("give --workload or --all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
