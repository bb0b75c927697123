"""End-to-end tests of the command-line interface.

Most tests call ``cli.main(argv)`` in-process and assert on the exit
code plus whatever landed in ``--out`` files or captured stdout; one
subprocess test checks the ``python3 -m spectroid`` entry point for
real.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectroid import cli, serial
from spectroid import spaceoid as sp
from spectroid import cstarcat as cc

FIX = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spectrum / sections / roundtrip


def test_spectrum_linking_two_objects(capsys, tmp_path):
    out = tmp_path / "e.json"
    code, stdout, stderr = run_cli(
        capsys, "spectrum", FIX / "linking3.json", "--out", out
    )
    assert code == 0
    e = serial.parse("spaceoid", out.read_text())
    assert len(e.base_points) == 3
    assert set(e.objects) == {"A", "B"}
    # report went to stdout since the artifact went to a file
    assert "overall: PASS" in stdout


def test_spectrum_diagonal_is_trivial(capsys, tmp_path):
    out = tmp_path / "e.json"
    code, _, _ = run_cli(
        capsys, "spectrum", FIX / "diagonal3.json", "--out", out
    )
    assert code == 0
    e = serial.parse("spaceoid", out.read_text())
    assert len(e.base_points) == 3 and e.objects == ("A",)
    assert all(z == 1 for z in e.lam.values())  # classical: flat


def test_spectrum_noncommutative_is_invalid_input(capsys):
    code, _, stderr = run_cli(capsys, "spectrum", FIX / "noncomm.json")
    assert code == 2
    assert "NotCommutative" in stderr


def test_spectrum_json_report(capsys):
    code, stdout, _ = run_cli(
        capsys, "--json", "spectrum", FIX / "linking3.json"
    )
    assert code == 0
    d = json.loads(stdout)
    assert [c["point"] for c in d["classes"]] == ["w0", "w1", "w2"]
    assert all(c["rank"] == 1 for c in d["classes"])
    assert d["residuals"]["passed"] is True
    # the embedded spaceoid parses back
    serial.spaceoid_from_json(d["spaceoid"])


def test_sections_roundtrips_through_files(capsys, tmp_path):
    mid = tmp_path / "e.json"
    out = tmp_path / "cat.json"
    assert run_cli(capsys, "spectrum", FIX / "linking3.json", "--out", mid)[0] == 0
    code, _, _ = run_cli(capsys, "sections", mid, "--out", out)
    assert code == 0
    stored = serial.parse("category", out.read_text())
    assert {o for o, _ in stored.objects} == {"A", "B"}
    # the emitted section category passes its axioms when re-closed
    pres = cc.CategoryPresentation(
        objects=stored.objects,
        generators={k: list(v) for k, v in stored.blocks.items() if v},
    )
    closed = cc.close(pres, unitize=stored.unital)
    assert cc.check_axioms(closed).passed


def test_sections_rejects_broken_spaceoid(capsys):
    code, _, stderr = run_cli(capsys, "sections", FIX / "spaceoid2-broken.json")
    assert code == 2
    assert "error" in stderr


def test_roundtrip_category_passes(capsys):
    code, stdout, _ = run_cli(capsys, "roundtrip", FIX / "linking3.json")
    assert code == 0
    assert "overall: PASS" in stdout


def test_roundtrip_spaceoid_passes(capsys):
    code, stdout, _ = run_cli(capsys, "roundtrip", FIX / "spaceoid2.json")
    assert code == 0
    assert "overall: PASS" in stdout


def test_roundtrip_corrupted_spaceoid_fails_not_crashes(capsys):
    code, stdout, _ = run_cli(capsys, "roundtrip", FIX / "spaceoid2-broken.json")
    assert code == 1
    assert "FAIL" in stdout


def test_roundtrip_wrong_kind(capsys):
    code, _, stderr = run_cli(capsys, "roundtrip", FIX / "rect32.json")
    assert code == 2
    assert "roundtrip expects" in stderr


# ---------------------------------------------------------------------------
# make


def test_make_trivial(capsys):
    code, stdout, _ = run_cli(capsys, "make", "trivial", "4", "--objects", "3")
    assert code == 0
    e = serial.parse("spaceoid", stdout)
    assert len(e.base_points) == 4 and len(e.objects) == 3
    assert all(z == 1 for z in e.lam.values())


def test_make_linking_roundtrips(capsys, tmp_path):
    out = tmp_path / "cat.json"
    code, _, _ = run_cli(
        capsys, "make", "linking", "5", "--objects", "3", "--seed", "2",
        "--out", out,
    )
    assert code == 0
    assert run_cli(capsys, "roundtrip", out)[0] == 0


def test_make_groupoid_reports_traits(capsys, tmp_path):
    out = tmp_path / "cat.json"
    code, stdout, _ = run_cli(
        capsys, "make", "groupoid", "Z6", "--objects", "1", "--out", out
    )
    assert code == 0
    assert "commutative: True" in stdout and "full: True" in stdout
    code, stdout, _ = run_cli(
        capsys, "make", "groupoid", "S3", "--objects", "2", "--out", out
    )
    assert code == 0
    assert "commutative: False" in stdout and "full: True" in stdout


def test_make_groupoid_needs_group_name(capsys):
    code, _, stderr = run_cli(capsys, "make", "groupoid")
    assert code == 2
    assert "group name" in stderr


def test_make_torsor_is_trivializable(capsys, tmp_path):
    out = tmp_path / "e.json"
    code, _, _ = run_cli(
        capsys, "make", "torsor", "3", "--objects", "3", "--seed", "9",
        "--out", out,
    )
    assert code == 0
    e = serial.parse("spaceoid", out.read_text())
    assert sp.validate(e).passed
    flat = sp.trivialize(e).spaceoid
    assert all(abs(z - 1.0) < 1e-12 for z in flat.lam.values())


# ---------------------------------------------------------------------------
# funcalc


def test_funcalc_identity_polynomial(capsys, tmp_path):
    out = tmp_path / "y.json"
    code, _, _ = run_cli(
        capsys, "funcalc", FIX / "rect32.json", "A:B", "--poly", "0,1",
        "--out", out,
    )
    assert code == 0
    x = serial.parse("matrix", (FIX / "rect32.json").read_text())
    y = serial.parse("matrix", out.read_text())
    assert np.allclose(x, y, atol=1e-10)


def test_funcalc_table_squares_singular_values(capsys, tmp_path):
    out = tmp_path / "y.json"
    code, _, _ = run_cli(
        capsys, "funcalc", FIX / "rect32.json", "A:B",
        "--table", "3=9,1=1", "--out", out,
    )
    assert code == 0
    y = serial.parse("matrix", out.read_text())
    assert np.allclose(y, [[9, 0], [0, 1], [0, 0]], atol=1e-9)


def test_funcalc_complex_coefficients(capsys, tmp_path):
    out = tmp_path / "y.json"
    code, _, _ = run_cli(
        capsys, "funcalc", FIX / "rect32.json", "A:B",
        "--poly", "0,1j", "--out", out,
    )
    assert code == 0
    x = serial.parse("matrix", (FIX / "rect32.json").read_text())
    y = serial.parse("matrix", out.read_text())
    assert np.allclose(y, 1j * x, atol=1e-9)


def test_funcalc_table_missing_point(capsys):
    code, _, stderr = run_cli(
        capsys, "funcalc", FIX / "rect32.json", "A:B", "--table", "3=9"
    )
    assert code == 2
    assert "SpectrumMismatch" in stderr


def test_funcalc_needs_exactly_one_function(capsys):
    code, _, stderr = run_cli(capsys, "funcalc", FIX / "rect32.json", "A:B")
    assert code == 2
    code, _, stderr = run_cli(
        capsys, "funcalc", FIX / "rect32.json", "A:B",
        "--poly", "0,1", "--table", "1=1",
    )
    assert code == 2


def test_funcalc_bad_block(capsys):
    code, _, stderr = run_cli(
        capsys, "funcalc", FIX / "rect32.json", "AB", "--poly", "0,1"
    )
    assert code == 2
    assert "block" in stderr


# ---------------------------------------------------------------------------
# selftest / validate


def test_selftest_small(capsys):
    code, stdout, _ = run_cli(capsys, "selftest", "--cases", "2")
    assert code == 0
    assert "overall: PASS" in stdout


def test_selftest_absurd_tolerance_fails(capsys):
    code, stdout, _ = run_cli(
        capsys, "--tol", "1e-30", "selftest", "--cases", "2"
    )
    assert code == 1
    assert "FAIL" in stdout


def test_validate_mixed_files(capsys):
    code, stdout, _ = run_cli(
        capsys, "validate", FIX / "linking3.json", FIX / "spaceoid2.json",
        FIX / "rect32.json",
    )
    assert code == 0
    assert "linking3.json:" in stdout and "rect32.json:parse" in stdout


def test_validate_broken_spaceoid_fails(capsys):
    code, stdout, _ = run_cli(capsys, "validate", FIX / "spaceoid2-broken.json")
    assert code == 1
    assert "FAIL" in stdout


def test_validate_garbage_is_invalid_input(capsys, tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("not json at all")
    code, _, stderr = run_cli(capsys, "validate", bad)
    assert code == 2
    assert "not valid JSON" in stderr


def _nan_file(tmp_path, kind):
    """A fixture copy with one NaN: a lambda entry or a generator entry."""
    if kind == "spaceoid":
        d = json.loads((FIX / "spaceoid2.json").read_text())
        d["lambda"][0][4] = [float("nan"), 0.0]
    else:
        d = json.loads((FIX / "linking3.json").read_text())
        d["generators"]["A:B"][0]["entries"][0][0] = [float("nan"), 0.0]
    path = tmp_path / f"nan-{kind}.json"
    path.write_text(json.dumps(d))  # json writes the NaN token
    return path


@pytest.mark.parametrize(
    "command, kind",
    [
        ("validate", "spaceoid"),
        ("roundtrip", "spaceoid"),
        ("validate", "category"),
        ("roundtrip", "category"),
        ("spectrum", "category"),
    ],
)
def test_nan_input_is_invalid_input(capsys, tmp_path, command, kind):
    code, _, stderr = run_cli(capsys, command, _nan_file(tmp_path, kind))
    assert code == 2
    assert "finite" in stderr


def test_validate_missing_file(capsys):
    code, _, stderr = run_cli(capsys, "validate", "/nonexistent/nope.json")
    assert code == 2


def test_validate_morphism_needs_endpoints(capsys, tmp_path):
    e = serial.parse("spaceoid", (FIX / "spaceoid2.json").read_text())
    m = sp.SpaceoidMorphism(
        f_delta={p: p for p in e.base_points},
        f_r={o: o for o in e.objects},
        fiber_scalars={
            (p, a, b): 1.0
            for p in e.base_points
            for a in e.objects
            for b in e.objects
        },
    )
    mfile = tmp_path / "m.json"
    mfile.write_text(serial.emit("morphism", m))
    code, _, stderr = run_cli(capsys, "validate", mfile)
    assert code == 2
    assert "--dom" in stderr

    code, stdout, _ = run_cli(
        capsys, "validate", mfile,
        "--dom", FIX / "spaceoid2.json", "--cod", FIX / "spaceoid2.json",
    )
    assert code == 0
    assert "overall: PASS" in stdout


# ---------------------------------------------------------------------------
# flags and plumbing


def test_global_flags_before_or_after_subcommand(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(capsys, "--seed", "3", "make", "linking", "--out", a)[0] == 0
    assert run_cli(capsys, "make", "linking", "--seed", "3", "--out", b)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_byte_identical_reruns(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run_cli(
            capsys, "spectrum", FIX / "linking3.json", "--seed", "11",
            "--out", target,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_changes_random_artifacts(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(capsys, "make", "torsor", "--seed", "1", "--out", a)[0] == 0
    assert run_cli(capsys, "make", "torsor", "--seed", "2", "--out", b)[0] == 0
    assert a.read_bytes() != b.read_bytes()


def test_tol_must_be_positive(capsys):
    code, _, stderr = run_cli(capsys, "--tol", "0", "selftest", "--cases", "1")
    assert code == 2
    assert "positive" in stderr
    code, _, _ = run_cli(capsys, "--tol", "-1e-9", "roundtrip", FIX / "linking3.json")
    assert code == 2


def test_report_to_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "--json", "roundtrip", FIX / "linking3.json", "--out", out
    )
    assert code == 0
    assert stdout == ""
    d = json.loads(out.read_text())
    assert d["passed"] is True and d["checks"]


def test_no_subcommand_prints_help(capsys):
    code, _, stderr = run_cli(capsys)
    assert code == 2
    assert "spectrum" in stderr


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "spectroid", "roundtrip",
         str(FIX / "linking3.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "spectroid", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("spectrum", "sections", "roundtrip", "make", "funcalc",
                 "selftest", "validate"):
        assert name in proc.stdout
