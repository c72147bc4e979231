import math
import re

import pytest

from conftest import REAL_SCENARIO, SIMPLE_PAIR, oriented, simple_trio, sun_at
from helioshade.cli import main
from helioshade.render import source_color
from helioshade.shading import efficiency


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


def test_malformed_sun_spec_fails(capsys):
    code, _, err = run(capsys, "efficiency", SIMPLE_PAIR, "--eta", "45")
    assert code != 0 and "error:" in err
    code, _, err = run(
        capsys, "efficiency", SIMPLE_PAIR, "--eta", "45", "--theta", "0",
        "--date", "01-21", "--hour", "12:00",
    )
    assert code != 0 and "error:" in err


@pytest.mark.parametrize("workers_arg", [["--workers", "0"], ["--workers", "-3"]])
def test_invalid_worker_count_fails(capsys, workers_arg):
    code, out, err = run(
        capsys, "efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00",
        *workers_arg,
    )
    assert code != 0
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "worker" in err.lower()


def test_below_horizon_fails(capsys):
    code, _, err = run(
        capsys, "efficiency", SIMPLE_PAIR, "--date", "01-21", "--hour", "01:00"
    )
    assert code != 0
    assert "below horizon" in err


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
    field = simple_trio()
    sun = sun_at(21, 12.0, 40.08)
    f = oriented(field, sun)
    e = efficiency(f[0], f, sun).efficiency
    assert f"e = {e:.9g}" in svg
    # symmetry of the two contributions about the subject's vertical axis
    quads = efficiency(f[0], f, sun).quads
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
        (("bench", "--n", "5", "--reps", "0"), "--reps"),
        (("oracle-check", SIMPLE_PAIR, "--date", "01-21", "--hour", "12:00",
          "--subject", "c", "--samples", "0"), "--samples"),
    ],
    ids=["step-0", "step-neg", "reps-0", "samples-0"],
)
def test_non_positive_counts_fail_with_one_error_line(capsys, argv, flag):
    # the step check comes before the sweep loop, which a step that does
    # not advance would never leave
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


def test_queries_that_print_e_build_no_residual(capsys, monkeypatch):
    import helioshade.shading as shading_module

    def refuse(*args, **kwargs):
        raise AssertionError("a residual was built")

    monkeypatch.setattr(shading_module, "subtract_rings", refuse)
    sun = ("--date", "01-21", "--hour", "16:15")
    for argv in [
        ("efficiency", REAL_SCENARIO, *sun, "--subject", "s"),
        ("sweep", REAL_SCENARIO, "--date", "01-21", "--start", "08:00", "--end", "16:30",
         "--step", "30", "--subject", "s"),
        ("oracle-check", REAL_SCENARIO, *sun, "--subject", "s", "--samples", "10000"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
