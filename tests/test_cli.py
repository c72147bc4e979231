import hashlib
import math
import os
import platform
import re
import subprocess
import sys
from xml.etree import ElementTree

import pytest

from conftest import REAL_SCENARIO, SIMPLE_PAIR, simple_trio, sun_at
from helioshade.cli import main
from helioshade.field import (
    FieldLayout,
    OrientedField,
    save_layout,
    subject_efficiency,
    synthetic_field,
)
from helioshade.render import source_color


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_single(tmp_path):
    p = tmp_path / "single.txt"
    p.write_text(
        "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
        "heliostat id=only x=50 y=0 z=5 w=10 h=10 receiver=t\n"
    )
    return str(p)


# -- efficiency --------------------------------------------------------------


def test_efficiency_subject_noon(capsys):
    code, out, _ = run(
        capsys, "efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00",
        "--subject", "c",
    )
    assert code == 0
    cols = out.split()
    assert cols[0] == "c"
    assert float(cols[1]) == pytest.approx(0.76, abs=0.02)


def test_efficiency_zenith_single(tmp_path, capsys):
    layout = write_single(tmp_path)
    code, out, _ = run(
        capsys, "efficiency", layout, "--eta", "90", "--theta", "0",
        "--subject", "only",
    )
    assert code == 0
    assert out.split()[1] == "1"


def test_efficiency_whole_field_report(capsys):
    code, out, _ = run(
        capsys, "efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00",
        "--no-timing",
    )
    assert code == 0
    assert "# id efficiency area_reflecting area_total" in out
    assert out.strip().splitlines()[-1].startswith("# average ")


def test_efficiency_unknown_subject_fails(capsys):
    code, _, err = run(
        capsys, "efficiency", SIMPLE_PAIR, "--eta", "45", "--theta", "0",
        "--subject", "nope",
    )
    assert code != 0
    assert err.strip().startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_layout_value_fails(tmp_path, capsys, value):
    p = tmp_path / "bad.txt"
    p.write_text(
        "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
        "heliostat id=a x=50 y=0 z=5 w=10 h=10 receiver=t\n"
        f"heliostat id=b x={value} y=20 z=5 w=10 h=10 receiver=t\n"
    )
    code, _, err = run(capsys, "efficiency", str(p), "--eta", "45", "--theta", "0")
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: line 4")


@pytest.mark.parametrize(
    "line,message",
    [
        ("heliostat id=b x=0 y=20 z=5 w=10 h=10 receiver=t ph=1", "line 4: unknown field 'ph'"),
        ("heliostat id=b x=0 y=20 z=5 w=10 h=10 receiver=t y=30", "line 4: repeated field 'y'"),
        ("heliostat id=b x=50 y=0 z=5 w=8 h=8 receiver=t", "'b' has the same center as 'a'"),
    ],
    ids=["unknown", "repeated", "same-center"],
)
def test_layout_field_faults_fail_with_one_error_line(tmp_path, capsys, line, message):
    p = tmp_path / "bad.txt"
    p.write_text(
        "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
        f"heliostat id=a x=50 y=0 z=5 w=10 h=10 receiver=t\n{line}\n"
    )
    for argv in (["efficiency", str(p)], ["efficiency", str(p), "--subject", "a"]):
        code, out, err = run(capsys, *argv, "--eta", "30", "--theta", "180")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "path", [SIMPLE_PAIR, REAL_SCENARIO], ids=["simple_pair", "real_scenario"]
)
def test_subject_line_equals_report_line(capsys, path):
    for hour in ("08:00", "12:00", "16:15"):
        sun = ("--date", "01-21", "--hour", hour)
        code, report, _ = run(capsys, "efficiency", path, *sun, "--no-timing")
        assert code == 0
        for line in report.splitlines():
            if line.startswith("#"):
                continue
            code, out, _ = run(
                capsys, "efficiency", path, *sun, "--subject", line.split()[0]
            )
            assert code == 0
            assert out == line + "\n"


def test_subject_line_takes_the_report_line_area_product(tmp_path, capsys, monkeypatch):
    import helioshade.field as field_module

    # e * (w * h) and the report's e * w * h differ in the last printed
    # digit here: 52.5869828 against 52.5869827 on a 12.88 x 9.489 mirror
    e = 0.43027086896628913
    monkeypatch.setattr(
        field_module, "_efficiencies", lambda of, j0, j1, quads: [e] * (j1 - j0)
    )
    layout = tmp_path / "field3.txt"
    save_layout(synthetic_field(3), str(layout))
    sun = ("--date", "01-21", "--hour", "12:00")
    code, report, _ = run(capsys, "efficiency", str(layout), *sun, "--no-timing")
    assert code == 0
    line = next(ln for ln in report.splitlines() if ln.startswith("h0001 "))
    assert line == "h0001 0.430270869 52.5869827 122.21832"
    code, out, _ = run(capsys, "efficiency", str(layout), *sun, "--subject", "h0001")
    assert (code, out) == (0, line + "\n")


def test_malformed_sun_spec_fails(capsys):
    code, _, err = run(capsys, "efficiency", SIMPLE_PAIR, "--eta", "45")
    assert code != 0 and "error:" in err
    code, _, err = run(
        capsys, "efficiency", SIMPLE_PAIR, "--eta", "45", "--theta", "0",
        "--date", "01-21", "--hour", "12:00",
    )
    assert code != 0 and "error:" in err


@pytest.mark.parametrize(
    "workers_arg",
    [
        ["--workers", "0"],
        ["--workers", "-3"],
        ["--workers", "0", "--subject", "c"],
        ["--workers", "-3", "--subject", "c"],
    ],
)
def test_invalid_worker_count_fails(capsys, workers_arg):
    code, out, err = run(
        capsys, "efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00",
        *workers_arg,
    )
    assert code != 0
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "worker" in err.lower()


@pytest.mark.parametrize(
    "date,message",
    [
        ("0121", "malformed date '0121', expected MM-DD"),
        ("01-21-3", "malformed date '01-21-3', expected MM-DD"),
        ("ab-cd", "malformed date 'ab-cd', expected MM-DD"),
        # well formed, but not a day of the solar model's 365-day year
        ("02-29", "date '02-29' is not a day of the 365-day year"),
        ("02-30", "date '02-30' is not a day of the 365-day year"),
        ("13-01", "date '13-01' is not a day of the 365-day year"),
    ],
    ids=["0121", "01-21-3", "ab-cd", "02-29", "02-30", "13-01"],
)
def test_bad_date_fails_with_one_error_line(capsys, date, message):
    code, out, err = run(
        capsys, "efficiency", SIMPLE_PAIR, "--date", date, "--hour", "12:00"
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_below_horizon_fails(capsys):
    code, _, err = run(
        capsys, "efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "01:00"
    )
    assert code != 0
    assert "below horizon" in err


_POLAR = (
    "plant lat=95\nreceiver id=t x=0 y=0 z=100\n"
    "heliostat id=a x=0 y=50 z=5 w=10 h=10 receiver=t\n"
)
_POLAR_ERROR = "error: plant latitude 95 is not strictly between -90 and 90 degrees\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["efficiency", "--date", "01-21", "--hour", "12:00"],
        ["efficiency", "--eta", "30", "--theta", "180"],
        ["sweep", "--date", "01-21", "--start", "08:00", "--end", "16:00", "--subject", "a"],
        ["render", "--date", "01-21", "--hour", "12:00", "--subject", "a", "--out", "a.svg"],
        ["oracle-check", "--date", "01-21", "--hour", "12:00", "--subject", "a"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_latitude_beyond_the_poles_fails_with_one_error_line(tmp_path, capsys, argv):
    # the error is the latitude, not a sun below the horizon at every hour
    layout = tmp_path / "polar.txt"
    layout.write_text(_POLAR)
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    code, out, err = run(capsys, argv[0], str(layout), *argv[1:])
    assert (code, out, err) == (1, "", _POLAR_ERROR)
    assert not (tmp_path / "a.svg").exists()


# -- sweep -------------------------------------------------------------------


def test_sweep_record_count_and_noon_consistency(capsys):
    code, out, _ = run(
        capsys, "sweep", SIMPLE_PAIR, "--date", "01-21", "--start", "08:00",
        "--end", "16:00", "--step", "15", "--subject", "c",
    )
    assert code == 0
    records = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(records) == 33
    noon = next(ln for ln in records if ln.startswith("12:00"))
    code, out2, _ = run(
        capsys, "efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00",
        "--subject", "c",
    )
    assert noon.split()[3] == out2.split()[1]


@pytest.mark.parametrize("step", ["1", "7", "15", "60"])
def test_every_sweep_row_equals_its_subject_query(capsys, step):
    code, out, _ = run(
        capsys, "sweep", REAL_SCENARIO, "--date", "01-21", "--start", "06:00",
        "--end", "18:00", "--step", step, "--subject", "s",
    )
    assert code == 0
    rows = [ln.split() for ln in out.splitlines() if not ln.startswith("#")]
    assert rows
    for stamp, _, _, e in rows:
        code, line, _ = run(
            capsys, "efficiency", REAL_SCENARIO, "--date", "01-21", "--hour", stamp,
            "--subject", "s",
        )
        assert code == 0 and line.split()[1] == e, stamp


def test_sweep_empty_neighbors_constant_one(tmp_path, capsys):
    layout = write_single(tmp_path)
    code, out, _ = run(
        capsys, "sweep", layout, "--date", "06-21", "--start", "10:00",
        "--end", "14:00", "--step", "60", "--subject", "only",
    )
    assert code == 0
    records = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert records and all(ln.split()[3] == "1" for ln in records)


def test_sweep_skips_below_horizon(tmp_path, capsys):
    layout = write_single(tmp_path)
    code, out, _ = run(
        capsys, "sweep", layout, "--date", "01-21", "--start", "04:00",
        "--end", "08:00", "--step", "60", "--subject", "only",
    )
    assert code == 0
    assert "below horizon, skipped" in out


# -- render ------------------------------------------------------------------


def test_render_simple_noon_two_symmetric_groups(tmp_path, capsys):
    out_svg = tmp_path / "noon.svg"
    code, out, _ = run(
        capsys, "render", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00",
        "--subject", "c", "--out", str(out_svg),
    )
    assert code == 0
    svg = out_svg.read_text()
    assert 'version="1.1"' in svg
    assert source_color("h1") in svg and source_color("h2") in svg
    # caption efficiency equals the report value bit-for-bit
    of = OrientedField(FieldLayout.from_heliostats(simple_trio()), sun_at(21, 12.0, 40.08))
    e = subject_efficiency(of, 0).efficiency
    assert f"e = {e:.9g}" in svg
    # symmetry of the two contributions about the subject's vertical axis
    quads = subject_efficiency(of, 0).quads
    cx = {}
    for q in quads:
        cx.setdefault(q.source_id, []).append(
            sum(p.x for p in q.ring.ring) / len(q.ring.ring)
        )
    assert set(cx) == {"h1", "h2"}
    for a, b in zip(sorted(cx["h1"]), sorted(-v for v in cx["h2"])):
        assert a == pytest.approx(b, abs=1e-6)


def test_render_empty_field(tmp_path, capsys):
    p = tmp_path / "single.txt"
    p.write_text(
        "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
        "heliostat id=only x=50 y=0 z=5 w=10 h=10 receiver=t\n"
    )
    out_svg = tmp_path / "empty.svg"
    code, _, _ = run(
        capsys, "render", str(p), "--eta", "45", "--theta", "10",
        "--subject", "only", "--out", str(out_svg),
    )
    assert code == 0
    svg = out_svg.read_text()
    assert "e = 1" in svg
    assert svg.count("<path") == 2  # residual region + subject outline only


def test_render_real_noon_single_contributor(tmp_path, capsys):
    out_svg = tmp_path / "real.svg"
    code, _, _ = run(
        capsys, "render", REAL_SCENARIO, "--date", "01-21", "--hour", "12:00",
        "--subject", "s", "--out", str(out_svg),
    )
    assert code == 0
    svg = out_svg.read_text()
    sources = set(re.findall(r"<title>(\w+)", svg))
    assert len(sources) == 1


def test_render_escapes_ids(tmp_path, capsys):
    # each mirror shades the other: at a 10 deg sun from the west, and at
    # 01-21 16:15
    p = tmp_path / "marked.txt"
    p.write_text(
        "plant lat=38\nreceiver id=t x=0 y=0 z=100\n"
        "heliostat id=a<b x=0 y=50 z=5 w=10 h=10 receiver=t\n"
        "heliostat id=c&d x=0 y=62 z=5 w=10 h=10 receiver=t\n"
    )
    for subject, other, sun in (
        ("c&d", "a<b", ("--eta", "10", "--theta", "180")),
        ("a<b", "c&d", ("--date", "01-21", "--hour", "16:15")),
    ):
        svg = tmp_path / "s.svg"
        code, _, _ = run(capsys, "render", str(p), *sun, "--subject", subject, "--out", str(svg))
        assert code == 0
        root = ElementTree.parse(svg).getroot()
        titles = {e.text for e in root.iter("{http://www.w3.org/2000/svg}title")}
        assert titles and all(t.startswith(f"{other} (") for t in titles), titles
        caption = root.find("{http://www.w3.org/2000/svg}text").text
        assert caption.startswith(f"subject {subject}  e = "), caption


# -- bench -------------------------------------------------------------------


def test_bench_single_heliostat(capsys):
    code, out, _ = run(capsys, "bench", "--n", "1", "--reps", "2")
    assert code == 0
    assert "n=1 " in out
    assert "average_efficiency=1" in out


def test_bench_takes_a_sun(capsys):
    runs = [
        run(capsys, "bench", "--n", "40", "--reps", "1", *sun)
        for sun in ((), ("--hour", "16:15"), ("--date", "01-21", "--hour", "12:00"))
    ]
    assert all(code == 0 for code, _, _ in runs)
    noon, low, dated = (out.split("average_efficiency=")[1] for _, out, _ in runs)
    assert noon == dated
    assert float(low) < float(noon)


def test_bench_reports_minor_faults_per_rep(capsys):
    pytest.importorskip("resource")
    code, out, _ = run(capsys, "bench", "--n", "40", "--reps", "2")
    assert code == 0
    assert re.search(r" minflt/rep=\d+ average_efficiency=", out), out


# Counts the minor page faults of the third of three identical low-sun
# runs of the CLI in one process: a rerun finds its heap pages in place.
THIRD_RUN_FAULTS = """
import contextlib, os, resource, sys
from helioshade.cli import main
from helioshade.field import save_layout, synthetic_field

save_layout(synthetic_field(1000), sys.argv[1])
argv = ["efficiency", sys.argv[1], "--date", "01-21", "--hour", "16:15",
        "--workers", "1", "--no-timing"]
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the CLI sets a heap policy on glibc only"
)
def test_cli_reruns_do_not_refault_the_heap(tmp_path):
    # a fresh process, since the heap policy is process-wide
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", THIRD_RUN_FAULTS, str(tmp_path / "field.txt")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100


def test_bench_mixed_sun_forms_fail(capsys):
    code, _, err = run(capsys, "bench", "--n", "5", "--eta", "10", "--hour", "16:15")
    assert code != 0
    assert err.startswith("error:") and "not both" in err


def test_bench_invalid_n(capsys):
    code, _, err = run(capsys, "bench", "--n", "0")
    assert code != 0 and "error:" in err


# -- oracle-check ------------------------------------------------------------


def test_oracle_check_pass(capsys):
    code, out, _ = run(
        capsys, "oracle-check", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00",
        "--subject", "c", "--samples", "250000",
    )
    assert code == 0
    assert "PASS" in out


def test_oracle_check_empty_field(tmp_path, capsys):
    layout = write_single(tmp_path)
    code, out, _ = run(
        capsys, "oracle-check", layout, "--eta", "50", "--theta", "20",
        "--subject", "only", "--samples", "10000",
    )
    assert code == 0
    assert "clip=1 oracle=1" in out and "PASS" in out


def test_oracle_check_corrupted_fails(capsys):
    code, out, err = run(
        capsys, "oracle-check", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00",
        "--subject", "c", "--samples", "250000", "--corrupt",
    )
    assert code != 0
    assert "FAIL" in out
    assert "diff" in out
    assert "error:" in err


# -- argument checks ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("sweep", SIMPLE_PAIR, "--date", "01-21", "--start", "08:00",
          "--end", "09:00", "--subject", "c", "--step", "0"), "--step"),
        (("sweep", SIMPLE_PAIR, "--date", "01-21", "--start", "08:00",
          "--end", "09:00", "--subject", "c", "--step", "-5"), "--step"),
        (("sweep", SIMPLE_PAIR, "--date", "01-21", "--start", "08:00",
          "--end", "09:00", "--subject", "c", "--step", "1e-300"), "--step"),
        (("sweep", SIMPLE_PAIR, "--date", "01-21", "--start", "08:00",
          "--end", "09:00", "--subject", "c", "--step", "1.1"), "--step"),
        (("bench", "--n", "5", "--reps", "0"), "--reps"),
        (("bench", "--workers", "0"), "--workers"),
        (("oracle-check", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00",
          "--subject", "c", "--samples", "0"), "--samples"),
        (("oracle-check", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00",
          "--subject", "c", "--samples", "10000000000000"), "--samples"),
    ],
    ids=[
        "step-0", "step-neg", "step-tiny", "step-fraction", "reps-0", "bench-workers-0",
        "samples-0", "samples-huge",
    ],
)
def test_non_positive_counts_fail_with_one_error_line(capsys, argv, flag):
    # the step check comes before the sweep loop, where a step of 0 would
    # fail without naming --step and a negative one would print no rows,
    # the bench worker check before the synthetic field is built, and the
    # samples check before the oracle allocates them
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and flag in err


@pytest.mark.parametrize(
    "sun,flag",
    [
        (("--eta", "nan", "--theta", "180"), "--eta"),
        (("--eta", "inf", "--theta", "0"), "--eta"),
        (("--eta", "45", "--theta", "inf"), "--theta"),
        (("--eta", "45", "--theta", "NaN"), "--theta"),
        (("--eta", "95", "--theta", "0"), "--eta"),
    ],
    ids=["eta-nan", "eta-inf", "theta-inf", "theta-nan", "eta-95"],
)
@pytest.mark.parametrize("command", ["field", "subject", "render", "bench"])
def test_bad_sun_angle_fails_with_one_error_line(tmp_path, capsys, command, sun, flag):
    argv = {
        "field": ("efficiency", SIMPLE_PAIR, "--no-timing"),
        "subject": ("efficiency", SIMPLE_PAIR, "--subject", "c"),
        "render": ("render", SIMPLE_PAIR, "--subject", "c", "--out", str(tmp_path / "x.svg")),
        "bench": ("bench", "--n", "5", "--reps", "1"),
    }[command]
    code, out, err = run(capsys, *argv, *sun)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and flag in err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:75"),
        ("efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:60"),
        ("efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "24:00"),
        ("efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour=-1:30"),
        ("efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:-5"),
        ("sweep", SIMPLE_PAIR, "--date", "01-21", "--start", "11:75", "--end", "13:00",
         "--subject", "c"),
        ("sweep", SIMPLE_PAIR, "--date", "01-21", "--start", "11:00", "--end", "13:99",
         "--subject", "c"),
    ],
    ids=["hour-75", "hour-60", "hour-24", "hour-neg", "minute-neg", "start-75", "end-99"],
)
def test_out_of_range_time_fails(capsys, argv):
    # a minute past 59 must not roll over into the next hour
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "malformed time" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("bench", "--n", "40", "--bogus"), "unrecognized arguments: --bogus"),
        (("bench", "--n", "abc"), "argument --n: invalid int value: 'abc'"),
        (("sweep", SIMPLE_PAIR, "--date", "01-21", "--start", "08:00", "--end", "09:00"),
         "the following arguments are required: --subject"),
        ((), "the following arguments are required: command"),
    ],
    ids=["unknown-flag", "n-not-int", "missing-subject", "no-command"],
)
def test_malformed_command_line_fails_with_one_error_line(capsys, argv, message):
    # no usage block and no exit status 2: one line, like every refusal
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: helioshade") and message in err


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: helioshade bench")


@pytest.mark.parametrize("n", [0, 1])
def test_tiny_layouts_run_through_every_query(tmp_path, capsys, n):
    p = tmp_path / "tiny.txt"
    p.write_text(
        "plant lat=40\nreceiver id=t x=0 y=0 z=100\n"
        + "heliostat id=only x=50 y=0 z=5 w=10 h=10 receiver=t\n" * n
    )
    sun = ("--date", "01-21", "--hour", "12:00")
    code, out, _ = run(capsys, "efficiency", str(p), *sun, "--no-timing")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows == ["only 1 100 100"] * n
    assert out.splitlines()[-1] == "# average 1"
    code, out, err = run(capsys, "efficiency", str(p), *sun, "--subject", "only")
    sweep = ("sweep", str(p), "--date", "01-21", "--start", "11:00", "--end", "13:00",
             "--step", "60", "--subject", "only")
    code_sweep, out_sweep, err_sweep = run(capsys, *sweep)
    if n == 0:
        assert (code, out) == (1, "") and "unknown heliostat id 'only'" in err
        assert (code_sweep, out_sweep) == (1, "") and "unknown heliostat id" in err_sweep
    else:
        assert (code, out) == (0, "only 1 100 100\n")
        assert code_sweep == 0
        rows = [ln for ln in out_sweep.splitlines() if not ln.startswith("#")]
        assert [row.split()[3] for row in rows] == ["1", "1", "1"]


def test_subject_queries_build_no_per_mirror_objects(tmp_path, capsys, monkeypatch):
    import helioshade.field as field_module
    import helioshade.shading as shading_module

    sun = ("--date", "01-21", "--hour", "16:15")
    queries = [
        ("efficiency", REAL_SCENARIO, *sun, "--no-timing"),
        ("efficiency", REAL_SCENARIO, *sun, "--subject", "s"),
        ("sweep", REAL_SCENARIO, "--date", "01-21", "--start", "08:00", "--end", "16:30",
         "--step", "30", "--subject", "s"),
        ("render", REAL_SCENARIO, *sun, "--subject", "s", "--out", str(tmp_path / "s.svg")),
    ]
    expected = [run(capsys, *argv) for argv in queries]
    svg = (tmp_path / "s.svg").read_text()

    def refuse(*args, **kwargs):
        raise AssertionError("a per-mirror object was built")

    monkeypatch.setattr(field_module.FieldLayout, "to_heliostats", refuse)
    monkeypatch.setattr(shading_module.Heliostat, "__init__", refuse)
    for argv, before in zip(queries, expected):
        assert run(capsys, *argv) == before
        assert before[0] == 0
    assert (tmp_path / "s.svg").read_text() == svg


def test_no_command_runs_the_polygon_clipper(tmp_path, capsys, monkeypatch):
    import helioshade.clip as clip_module

    def refuse(*args, **kwargs):
        raise AssertionError("the polygon-boolean clipper ran")

    for name in ("subtract_rings", "_subtract_convex"):
        monkeypatch.setattr(clip_module, name, refuse)
    sun = ("--date", "01-21", "--hour", "16:15")
    oracle = ("oracle-check", REAL_SCENARIO, *sun, "--subject", "s", "--samples", "10000")
    for argv in [
        ("efficiency", REAL_SCENARIO, *sun, "--no-timing"),
        ("efficiency", REAL_SCENARIO, *sun, "--subject", "s"),
        ("sweep", REAL_SCENARIO, "--date", "01-21", "--start", "08:00", "--end", "16:30",
         "--step", "30", "--subject", "s"),
        ("render", REAL_SCENARIO, *sun, "--subject", "s", "--out", str(tmp_path / "s.svg")),
        oracle,
        (*oracle, "--independent"),
        ("bench", "--n", "50", "--reps", "1", *sun),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


# -- single-subject bytes ------------------------------------------------------

# sha256 of each bundled heliostat's single-subject outputs on 01-21: its
# `efficiency --subject` lines at 08:00, 12:00 and 16:15, the stdout of
# `sweep --start 07:30 --end 16:30` and the SVG of `render --hour 16:15`
SUBJECT_DIGESTS = {
    ("simple_pair", "c"): (
        "739a2a67a6d370743a9406b2494d5ed8aa3fa8be751f6acfa6fd247502ade20d",
        "ae06d0b74b7c355f2a711c9f4d9d7ba4b8d03da6205045b332e336149526f88c",
        "e046ceb455e5425682913ad4569acd387c256f8374413b4c2f85a421a9c7e73a",
    ),
    ("simple_pair", "h1"): (
        "084bd595dc471cff9b95555326d71b855a11c4a11055daf7abbc24d8181d822f",
        "74481f214b674ff248f5fc1e1fedaea60cc6d71e4ae42baa1feb7c1e1629cb25",
        "7849f7e969b04e784e4ca0b223a5e6cea1e547d99098019dea11c41decf5d8c2",
    ),
    ("simple_pair", "h2"): (
        "1f0f3cdbaef9bd0fabce396a1283588ddcdb4e09c0cb8cf225ff17b5989d6d42",
        "b8509580a87d3f993f8965c80f4bd188421b90535ec29bad7fffb6cbd52f7033",
        "5b7896d45f1a98ae6c538053d2699047c5e57f60bd3794743d0665c646e1986f",
    ),
    ("real_scenario", "s"): (
        "be507f2e1b8d5cb33783f29f63cb1fcf06877d0a06b714be568e29a1cec92ee6",
        "2a27da0368a9d7a97e9207d86f28dbd6e2aa81b63740e53acdd499419368e5eb",
        "11d17a8203cd9348fc93053994925f9322279b41942341932fae1d0bbc7c22b0",
    ),
    ("real_scenario", "n01"): (
        "ff9a89a262b6469281f4c86da3c7d63f5440a4611b3303dddeef5bc7da004dea",
        "315da497497b108008e7cfe023cfe6e9b52414ff6bdae04863ca70f45928ad71",
        "199c3ba57a02b7ce8b8344bd923fa71b73a1642383a8fab523fdf872c52c5892",
    ),
    ("real_scenario", "n02"): (
        "4bac4713edd7eca42da2d0bf2d8bddb1fa827777592e6ecae001c52c5490b6a1",
        "ce9949d9bec96f9d1cbbe99c0ff182af8d787edb99948881f45c4fab0b0ce608",
        "0e8f6efc2e2ed854b1069b84bf6de9a10a6c576acd02cbcc5d62ab394c66a4b6",
    ),
    ("real_scenario", "n03"): (
        "62da28ff68d0231040950ffaf2077100f8183504d9c3423d8b74f265207ef377",
        "c1ff31ad4c2fd7ef6538275c417eab3c6a7cc1018b0f40cbad225cfee454cbd4",
        "d74f184fd01917b3619186879cb4f5120922ad8b614df077c8d6f685f6c8383e",
    ),
    ("real_scenario", "n04"): (
        "bb085644227a78fb272fb49c4c2bee8909f8bbed9bea90e5ef1a35f1cf2d9d74",
        "d4cc373a923d090fa1fdb1d40ab6d1e93da266f6da767b1e19d6cded3a365541",
        "7e87ff311fd88fb47c626225ed9991194939b918febed8b73124c1041d6d66fd",
    ),
    ("real_scenario", "n05"): (
        "2626ca922903ea6defc12bd3d93d1d7bafcf1de4610623d4b58141b56079e609",
        "2cacf73c7833d829042712b76c278c8f87fd8c246e53ec5d86c16dc0fabbea11",
        "471c567eefe75cd649b713ff201abdae9756e357c4ed210a06429e5922abcbe4",
    ),
    ("real_scenario", "n06"): (
        "ac241576760cda100441c7a0020bc05b96edf2425e0854757401910cadf8190c",
        "58d0ab80b17fcfa69a0fdba8397f67f1b6d256c7e8a2ddad21fe48d745c57513",
        "3f1ca991243a70ff455523c462704c2e555c0257b6fecb31d700159b56b4a819",
    ),
    ("real_scenario", "n07"): (
        "76409cdd9fb69e4a87e008fbdacb5667e856a6a9d67ac71d0e1892ba1a57492a",
        "67a580d1f07c1fed195dd17a253d221cef5297df4bd912ea77d18f0cabdd27ad",
        "b4a43bf205dace06ac9d4354568dfd0af77024d00adbd6e3b5c6d8c3d9c7a1ed",
    ),
    ("real_scenario", "n08"): (
        "b62ce2b8987a3aaf56a1f8cd4f7381bfc8fbe6ccda7a301edd9b708bbb773929",
        "8fba9c42feee4d561b776c255142fe34e2e1d10034391cf92a9909c56f10902c",
        "b6422bf87a2daf8eb4d587d4fb764dea94c4e197465d50184f4d28458cad85f6",
    ),
    ("real_scenario", "n09"): (
        "617244e5cf486b612722289438b6cba5e10ed001d2cac9e0d60a446a8cd58037",
        "9a20e3c6bc86ef1650af3aed33ebacb58ab92b3d1fcc91b862587847084d609c",
        "23ee4a772c80b496847d33e058a613641d063d25fd348f3a361bb93319c7f2fa",
    ),
    ("real_scenario", "n10"): (
        "394fc6db67d803ba5268e92df503c895f56ab3c3a2c825ea3e024a7cb8c41651",
        "11caa0a2793ce8602d813577ad94c5ac23689ade6369a4d05804239d143a645e",
        "fee668eafa1596d0617b8fa7f1f2db74b1d540a0b04a10b04792ec90b00ab1f7",
    ),
    ("real_scenario", "n11"): (
        "6f1f37f13f26364d7d69fbfa53636f2c2affeb1c986efb3a19ed8b19fc293aff",
        "30172a1f6bd65f7f9d66084ff1be43524a0fad9324b07bb722c6a535b42afd64",
        "9b16405be627522f379bbe20f9244d8fc3c52efbf690d03eb62e50235149c1a6",
    ),
    ("real_scenario", "n12"): (
        "bbac9dbe6d1060bd9104e91e433bd10ca70acaa6aba87b4021b25c073049d981",
        "43695c7e85d2a3564c350770efa3c0657d8ee5559c5db5b1b8005bc176999dbf",
        "cb126cd42d9a9221e8e901ee8aa55ce472dc8ecef2137762747a0f68416abe88",
    ),
    ("real_scenario", "n13"): (
        "7f7cd281243e07b0ecb3541998a07c3a2a40ecfb152c04918863613e183b1f10",
        "7f72a763f8dbe299fcb01719e6968374f601188118a549a1f7dd3a78b9ed39b2",
        "488eca4b105ca013b103e838d239777bca34fbccaba06fe50070574aaabcca5c",
    ),
    ("real_scenario", "n14"): (
        "17830f5fed512dccb568b1a82e997adb4eed339990bf628caa76f175749f81e3",
        "9023522e7182781f7967c580569d649097ecd5b3ddfa3e2e25b2555cdb3c3ccd",
        "e9aefd6724bd6ebbf06ceb61f197d9bd29dd1f390e00cc3b6d19e14bcec7c039",
    ),
    ("real_scenario", "n15"): (
        "2b502672de9d4f36c91fe585a7cfff67389bc14b294b43774052d68ab55e94ed",
        "d94b550d33d13d399f41acdfb0d5245bb2fbd3bacfa82a0cb7c095a0ca23e619",
        "66e6b3ae7bdf6a133f1f4653f50430c5a2454c183566167afd47dcdb6d80c1a9",
    ),
    ("real_scenario", "n16"): (
        "c71a4cb87952951ff26f7e793157163613d913b72dc70e2077f6cb149cd8a03b",
        "64231bd4c379b9f2cb1022211a519a2ebf09169cfb089eea5a9dc69bc1925839",
        "b7a6d5479e3ccaebfb84050fd793d27edc0b296e8a9dc745ecbd80285240084d",
    ),
    ("real_scenario", "n17"): (
        "e6ceaa11d3364db853b4b3d4ea35c2560d256007bb61f2f709bd92c85b8eb60b",
        "7a660cab595cc12af9f5c7838868bc62cbe21c775e58b5900ee1724f7efc74e8",
        "f00bd9e54cde410a863af6ddf98e28fbab1e0ccf8b222675410f04ec2930237a",
    ),
    ("real_scenario", "n18"): (
        "658f25eb62bd8be0b0efb9e885167ed87bc136e4e5f7d4a4eab083004ee93bff",
        "906b43b0ed70cddb78eeb5307d237201ab5ded298a5f8bafc7186c2e336fbd82",
        "b4fd4e4799559b3e941649f87d496bb42985ebec0e2ad852abaa61f25d8a53a3",
    ),
    ("real_scenario", "n19"): (
        "630fe79609996461fff76e8bcc96312448084b4ee3b1f7786cb25046ca265ffc",
        "e25cd9582a9a4e86dcd1ce634b2617b177018e2dee5267f7e6c45ee7acd49579",
        "aac764acb6b9b4133c4e4c0c1bc63c295c1fa27018b28d327a86a5d27580eb30",
    ),
    ("real_scenario", "n20"): (
        "055096a1285727fae96452efd9d819cd51db5cf1796567ba837418fce2bde5a6",
        "d1401daeaad5005d46f735a85bd23fb410ea6423dae8ad01433e8f42eab77081",
        "ec4b92e082dc792cdc8747103efaf67382af9f557c4f767f94e38f175b2c34d0",
    ),
    ("real_scenario", "n21"): (
        "2fe5c29c1a65e027be279eb20d51ec4b9d22d499525754e5f4ab4e157b377351",
        "e16bd0edfe3fcb0ad874b44e7b1e8dd8307c51c076344c3a7a4968cab7baa5f4",
        "c7c053e0b9645cfa94a18ed024e54a46ab48df07d4dc85478ed0f26a64bae32c",
    ),
    ("real_scenario", "n22"): (
        "2f861173efa0dc1b02d89effa75e4966076723b3187b7ef376c9aea37375c0ee",
        "edc63393530397f851b64471b0eff868baf7433ce21691d0e47cc1bf62445e6a",
        "08d7a0c6c592c010d0e80bd33a839954275bd538bbe9f1fe7ad61299e51582d7",
    ),
    ("real_scenario", "n23"): (
        "406b2429da4d1948732d0afcc2f94416ee3972e6a582a5657bace438c1dce015",
        "305ca7bb6cf1d74072151d0cf7ba06a891e9d7bf438a8f71be92a3d4cb901a36",
        "223d08e22f5403894e519f54c2505bc905d5ec08d5504f37d78dad79a7632689",
    ),
    ("real_scenario", "n24"): (
        "ebe861d215bd9d4147c5f6538e9c48564dcec4ae207fadeba0243e2651cfdf07",
        "f7298d384737c8c53907bf051cc5fc364b8e4718f45643386b1ac9c28a566597",
        "b97bcc0a82685506a621ecbd9492d15c425a32387e23ebdb9340d561fde7475c",
    ),
}


@pytest.mark.parametrize("name,hid", sorted(SUBJECT_DIGESTS))
def test_subject_outputs_match_golden_digests(tmp_path, capsys, name, hid):
    path = SIMPLE_PAIR if name == "simple_pair" else REAL_SCENARIO
    day = ("--date", "01-21")
    lines = []
    for hour in ("08:00", "12:00", "16:15"):
        code, out, _ = run(capsys, "efficiency", path, *day, "--hour", hour, "--subject", hid)
        assert code == 0
        lines.append(out)
    code, sweep, _ = run(
        capsys, "sweep", path, *day, "--start", "07:30", "--end", "16:30", "--subject", hid
    )
    assert code == 0
    svg = tmp_path / "s.svg"
    code, _, _ = run(
        capsys, "render", path, *day, "--hour", "16:15", "--subject", hid, "--out", str(svg)
    )
    assert code == 0
    outputs = ("".join(lines).encode(), sweep.encode(), svg.read_bytes())
    assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == SUBJECT_DIGESTS[name, hid]


SVG = "{http://www.w3.org/2000/svg}"


@pytest.mark.parametrize("name,hid", sorted(SUBJECT_DIGESTS))
def test_render_paints_the_reflecting_area(tmp_path, capsys, name, hid):
    # the painter's algorithm: the yellow mirror, a white copy of each
    # coloured quad over it, the coloured quads, the outline, the caption
    path = SIMPLE_PAIR if name == "simple_pair" else REAL_SCENARIO
    svg = tmp_path / "s.svg"
    sun = ("--date", "01-21", "--hour", "16:15")
    code, _, _ = run(capsys, "render", path, *sun, "--subject", hid, "--out", str(svg))
    assert code == 0
    root = ElementTree.parse(svg).getroot()
    assert [(e.tag, e.get("id")) for e in root] == [
        (SVG + "rect", None),
        (SVG + "g", "residual"),
        (SVG + "g", "shadow-quads"),
        (SVG + "g", "block-quads"),
        (SVG + "path", None),
        (SVG + "text", None),
    ]
    _, (mirror, *white), shadow, block, outline, caption = root
    assert (mirror.tag, mirror.get("fill"), mirror.get("d")) == (
        SVG + "path", "#f5d86b", outline.get("d")
    )
    for e in white:
        assert (e.tag, e.get("fill"), e.get("stroke"), len(e)) == (SVG + "path", "white", "none", 0)
    coloured = [*shadow, *block]
    assert all(e.tag == SVG + "path" and e.find(SVG + "title") is not None for e in coloured)
    assert sorted(e.get("d") for e in white) == sorted(e.get("d") for e in coloured)
    assert (outline.get("fill"), outline.get("stroke")) == ("none", "black")
    assert caption.text.startswith(f"subject {hid} ")


# -- scripts/daily_efficiency_sweep.py ---------------------------------------

SWEEP_SCRIPT = os.path.join(
    os.path.dirname(__file__), "..", "scripts", "daily_efficiency_sweep.py"
)


def run_sweep_script(tmp_path, *argv):
    # under a timeout: a step that does not advance would never end
    return subprocess.run(
        [sys.executable, SWEEP_SCRIPT, "--outdir", str(tmp_path / "out"), *argv],
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("step", ["0", "-5", "1e-300", "0.5", "nan"])
def test_sweep_script_refuses_a_step_below_a_minute(tmp_path, step):
    proc = run_sweep_script(tmp_path, "--step", step)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:")
    assert "--step" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--step", "abc"], "error: helioshade sweep: argument --step: invalid int value"),
        (["--bogus"], "error: daily_efficiency_sweep.py: unrecognized arguments: --bogus"),
    ],
    ids=["step-abc", "unknown-flag"],
)
def test_sweep_script_refuses_a_malformed_command_line(tmp_path, argv, message):
    # once a usage block and exit 2
    proc = run_sweep_script(tmp_path, *argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(message)
    assert not (tmp_path / "out").exists()


def test_sweep_script_refuses_an_unknown_subject(tmp_path):
    proc = run_sweep_script(tmp_path, "--subject", "NOPE")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: unknown heliostat id 'NOPE'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "error: [Errno 2] No such file or directory"),
        (
            "plant lat=38\nreceiver id=t x=0 y=0 z=100\n"
            "heliostat id=a x=0 y=50 z=5 w=10 h=-1 receiver=t\n",
            "error: heliostat 'a' has non-positive dimensions\n",
        ),
        (_POLAR, _POLAR_ERROR),
    ],
    ids=["missing", "negative-height", "latitude-95"],
)
def test_sweep_script_refuses_a_layout_it_cannot_load(tmp_path, text, message):
    layout = tmp_path / "layout.txt"
    if text is not None:
        layout.write_text(text)
    proc = run_sweep_script(tmp_path, "--layout", str(layout))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(message)
    assert not (tmp_path / "out").exists()


def test_sweep_script_writes_the_series(tmp_path):
    proc = run_sweep_script(tmp_path, "--step", "60")
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "out" / "efficiency_series.txt").read_text().splitlines()
    rows = [line.split() for line in lines if not line.startswith("#")]
    # whole hours from 8:00 to 16:00, when the sun is up on 01-21
    assert [row[0] for row in rows] == [f"{hh:02d}:00" for hh in range(8, 17)]
    assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)
    # 16:15 is not a time of the series, so it has no snapshot
    written = ["efficiency_series.txt", "morning.svg", "noon.svg"]
    assert sorted(os.listdir(tmp_path / "out")) == written


def test_sweep_script_writes_what_the_cli_sweep_prints(tmp_path, capsys):
    proc = run_sweep_script(tmp_path, "--step", "60")
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(
        capsys, "sweep", REAL_SCENARIO, "--subject", "s", "--date", "01-21",
        "--start", "06:00", "--end", "18:00", "--step", "60",
    )
    assert code == 0
    assert (tmp_path / "out" / "efficiency_series.txt").read_text() == out
