"""End-to-end CLI behavior: exit codes, JSON shapes, figure emission."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypforms import arnold, parse_form, polylines_to_csv, sturm_count
from hypforms.certify import Certificate, float_roots
from hypforms import cli, verify
from hypforms.cli import _line_directions, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------------- check


def test_check_hyperbolic(capsys):
    code, out, _ = run(capsys, "check", "x^3 - x*y^2")
    assert code == 0
    doc = json.loads(out)
    assert doc["hessian"]["verdict"] == "hyperbolic"
    assert doc["polar"]["verdict"] == "hyperbolic"
    assert doc["agree"] is True


def test_check_rejection_carries_witness(capsys):
    code, out, _ = run(capsys, "check", "(x^2-y^2)*(x^2+y^2)")
    assert code == 1
    doc = json.loads(out)
    assert doc["canonical"] == "x^4 - y^4"
    assert doc["hessian"]["verdict"] == "not_hyperbolic"
    assert doc["hessian"]["witness"] is not None


def test_check_prints_a_witness_past_the_int_digit_limit(capsys, monkeypatch):
    # a witness has no bound on its digits, unlike the parsed input; the
    # interpreter's limit on int-to-str conversion (4300 digits by default)
    # is lifted while it is formatted, and only then
    sevens = 7 * (10**5000 - 1) // 9
    wide = Certificate("not_hyperbolic", "hessian", 2, (Fraction(1), Fraction(sevens)))
    monkeypatch.setattr(cli, "is_hyperbolic", lambda f: wide)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "check", "x^2 + y^2")
    assert code == 1
    assert json.loads(out)["hessian"]["witness"] == ["1", "7" * 5000]
    assert "Traceback" not in err
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(ValueError):
            str(sevens)


def test_check_routes_that_disagree_exit_3(capsys, monkeypatch):
    # the polar route is made to contradict the Hessian route
    rejected = Certificate("not_hyperbolic", "polar", 4, (Fraction(1), Fraction(0)))
    monkeypatch.setattr(cli, "is_hyperbolic_polar", lambda f: rejected)
    code, out, err = run(capsys, "check", "x^3 - x*y^2")
    assert code == 3
    doc = json.loads(out)
    assert doc["agree"] is False
    assert doc["hessian"]["verdict"] == "hyperbolic"
    assert doc["polar"]["verdict"] == "not_hyperbolic"
    assert err == "internal error: certification methods disagree\n"


def test_check_parse_error(capsys):
    code, _, err = run(capsys, "check", "x^2 +")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("poly", ["x", "0*x^3"])
def test_check_below_degree_two_is_bad_input(capsys, poly):
    code, out, err = run(capsys, "check", poly)
    assert code == 2
    assert out == ""
    assert err.startswith("bad input: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "index"])
@pytest.mark.parametrize("poly", ["0*x^3", "(x - x)*y^2", "3: 0, 0, 0, 0"])
def test_zero_form_is_bad_input(capsys, command, poly):
    code, out, err = run(capsys, command, poly)
    assert code == 2
    assert out == ""
    assert err == "bad input: zero form of degree 3: every coefficient is zero\n"


@pytest.mark.parametrize("command", ["check", "index"])
@pytest.mark.parametrize("poly", ["x^100000000", "(x^60)^2", "x^99*y^2", "(x + y)^101"])
def test_degree_above_the_limit_is_a_parse_error(capsys, command, poly):
    code, out, err = run(capsys, command, poly)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ") and "limit of 100" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "index", "curves"])
def test_coefficient_above_the_limit_is_a_parse_error(tmp_path, capsys, command):
    poly = "((2^100)^100)^100*x^2*y - y^3"
    argv = [command, poly]
    if command == "curves":
        argv = [command, "--poly", poly, "--out", str(tmp_path / "fig.svg")]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "parse error: coefficient above the limit of 4300 digits\n"


@pytest.mark.parametrize("command", ["check", "index"])
def test_parentheses_nested_above_the_limit_is_a_parse_error(capsys, command):
    code, out, err = run(capsys, command, "(" * 200 + "x^3" + ")" * 200)
    assert code == 2
    assert out == ""
    assert err == "parse error: parentheses nested above the limit of 100 levels\n"


# ------------------------------------------------------------------- index


def test_index_reports_classification(capsys):
    code, out, _ = run(capsys, "index", "x*y*(x^2-y^2)")
    assert code == 0
    doc = json.loads(out)
    assert doc["index"] == -2
    assert doc["factor_count"] == 4
    assert doc["admissible_indices"] == [0, -2]


def test_index_non_hyperbolic(capsys):
    code, out, _ = run(capsys, "index", "x^4 + y^4")
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("poly", ["x", "x^2", "x*y"])
def test_index_below_degree_three_is_bad_input(capsys, poly):
    # rejected before any certificate: x^2 is not hyperbolic, x*y is
    code, out, err = run(capsys, "index", poly)
    assert code == 2
    assert out == ""
    assert err == "bad input: classification by index is defined for degree >= 3\n"


# ------------------------------------------------------------------ family


def test_family_reps_lines(capsys):
    code, out, _ = run(capsys, "family", "reps", "7")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["expected_index"] for r in rows] == [-1, -3, -5]
    assert all(r["degree"] == 7 for r in rows)
    assert all(set(r) >= {"polynomial", "family_tag", "params", "degree",
                          "expected_index"} for r in rows)


def test_family_even_flag(capsys):
    code, out, _ = run(capsys, "family", "pfact", "2", "--even")
    assert code == 0
    row = json.loads(out)
    assert row["degree"] == 6
    assert row["expected_index"] == -4


def test_family_bad_params(capsys):
    code, _, err = run(capsys, "family", "g", "1")
    assert code == 2
    assert "bad family parameters" in err
    code2, _, _ = run(capsys, "family", "arnold", "5")
    assert code2 == 2


@pytest.mark.parametrize("argv, message", [
    (("f", "1"), "f takes two parameters: n and k"),
    (("g", "1", "2"), "g takes one parameter: n"),
])
def test_family_parameter_count_is_checked(capsys, argv, message):
    code, out, err = run(capsys, "family", *argv)
    assert (code, out) == (2, "")
    assert err == f"bad family parameters: {message}\n"


@pytest.mark.parametrize("argv", [
    ("pfact", "50"), ("pfact", "50", "--even"), ("g", "50"), ("f", "1", "49"),
    ("reps", "101"), ("arnold", "101", "11"),
])
def test_family_member_above_the_degree_limit_is_rejected(capsys, monkeypatch, argv):
    def no_product(self, other):
        raise AssertionError("a product was built")
    monkeypatch.setattr(cli.BinaryForm, "__mul__", no_product)
    code, out, err = run(capsys, "family", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("bad family parameters: degree ")
    assert err.endswith(" is above the limit of 100\n") and err.count("\n") == 1


def test_family_member_at_the_degree_limit(capsys):
    for argv, degree in ((("pfact", "49"), 99), (("pfact", "49", "--even"), 100),
                         (("g", "49"), 100), (("reps", "99"), 99)):
        code, out, _ = run(capsys, "family", *argv)
        assert code == 0
        assert {json.loads(line)["degree"] for line in out.splitlines()} == {degree}


# ------------------------------------------------------------------ verify


def test_verify_suite_passes(capsys):
    code, out, err = run(capsys, "verify", "table1", "--d-max", "6")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["suite"] == "table1"
    assert reports[0]["failed"] == 0
    assert "suite table1" in err


def test_verify_range_violation(capsys):
    code, _, err = run(capsys, "verify", "table1", "--d-max", "99")
    assert code == 2
    assert "bad verify arguments" in err


@pytest.mark.parametrize("argv, message", [
    (("all", "--n-max", "100"), "n_max must be <= 49"),
    (("all", "--n-max", "1"), "n_max must be >= 11"),
    (("all", "--d-max", "17"), "d_max must be within 3..16"),
    (("conjecture", "--d-max", "101"), "d_max must be within 3..100"),
    (("lemmas", "--n-max", "50"), "n_max must be <= 49"),
])
def test_verify_ranges_are_checked_before_any_suite_runs(capsys, monkeypatch, argv, message):
    def never_run(suite):
        @functools.wraps(suite)  # keeps the signature run_suite reads
        def run_suite(**kwargs):
            pytest.fail(f"{suite.__name__} ran")
        return run_suite

    for name in verify.SUITE_NAMES:
        monkeypatch.setattr(verify, f"suite_{name}", never_run(getattr(verify, f"suite_{name}")))
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"bad verify arguments: {message}") and err.count("\n") == 1


def test_verify_seed_is_echoed(capsys):
    code, out, _ = run(capsys, "verify", "equivalence", "--d-max", "3",
                       "--seed", "123")
    assert code == 0
    reports = json.loads(out)
    ids = [c["id"] for c in reports[0]["cases"]]
    assert any("seed=123" in i for i in ids)


def test_verify_prints_a_fail_line_per_failed_case(capsys, monkeypatch):
    monkeypatch.setattr(verify, "index_gamma", lambda f: 5)
    code, out, err = run(capsys, "verify", "table1", "--d-max", "3")
    assert code == 1
    assert json.loads(out)[0]["failed"] == 1
    assert err.splitlines()[1:] == [
        "  FAIL table1/D=03/P_3: expected 'hyperbolic, index -1', "
        "got 'hyperbolic, index 5'"]


# ------------------------------------------------------------------ lemma1


def test_lemma1_report(capsys):
    code, out, _ = run(capsys, "lemma1", "--n-max", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "lemma1"
    assert doc["passed"] == 4  # n = 2..5


def test_lemma1_prints_a_fail_line_per_failed_case(capsys, monkeypatch):
    # each derivative has the root 1, so the case reads one root fewer
    monkeypatch.setattr(verify, "sturm_count", lambda p, a, b: 1)
    code, out, err = run(capsys, "lemma1", "--n-max", "3")
    assert code == 1
    assert json.loads(out)["failed"] == 2
    fails = err.splitlines()[1:]
    assert [line.split(":")[0] for line in fails] == [
        "  FAIL lemma1/critical-point/n=02", "  FAIL lemma1/critical-point/n=03"]
    assert all("got 'derivative factors exactly; 0 interior critical point;" in line
               for line in fails)


def test_lemma1_n_max_is_bounded_by_the_degree_limit(capsys):
    code, out, err = run(capsys, "lemma1", "--n-max", "50")
    assert code == 2
    assert out == ""
    assert err == ("bad arguments: n_max must be <= 49: the bump polynomial of "
                   "degree 2n + 2 may not exceed degree 100\n")
    code, out, _ = run(capsys, "lemma1", "--n-max", "49")
    assert code == 0
    assert json.loads(out)["passed"] == 48


# ------------------------------------------------------------------ curves


def test_curves_svg_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    args = ["--step", "0.01", "--viewport", "1.0"]
    assert run(capsys, "curves", "--poly", "x^3 - x*y^2",
               "--out", str(out1), *args)[0] == 0
    assert run(capsys, "curves", "--poly", "x^3 - x*y^2",
               "--out", str(out2), *args)[0] == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"<svg")


def test_curves_csv(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, err = run(capsys, "curves", "--poly", "x*y", "--out", str(out),
                       "--step", "0.01")
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "curve_id,field,x,y"
    assert "wrote" in err


def test_curves_rejects_non_hyperbolic(tmp_path, capsys):
    out = tmp_path / "d.svg"
    code, _, err = run(capsys, "curves", "--poly", "x^2 + y^2",
                       "--out", str(out))
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("poly, message", [
    ("x", "bad input: hyperbolicity is defined for degree >= 2\n"),
    ("0*x^3", "bad input: zero form of degree 3: every coefficient is zero\n"),
])
def test_curves_outside_the_domain_is_bad_input(tmp_path, capsys, poly, message):
    out = tmp_path / "x.svg"
    code, _, err = run(capsys, "curves", "--poly", poly, "--out", str(out))
    assert (code, err) == (2, message)
    assert not out.exists()


def test_curves_rejects_unknown_extension(tmp_path, capsys):
    out = tmp_path / "e.txt"
    code, _, _ = run(capsys, "curves", "--poly", "x*y", "--out", str(out))
    assert code == 2


@pytest.mark.parametrize("poly", ["x^3 - 3*x*y^2", "x^5 - x*y^4"])
def test_curves_checks_the_extension_before_drawing(tmp_path, capsys, monkeypatch, poly):
    # a hyperbolic form is not drawn and a non-hyperbolic one is not
    # certified: the extension is bad input either way
    monkeypatch.setattr(cli, "figure_curves", lambda *a, **kw: pytest.fail("drawn"))
    out = tmp_path / "fig.txt"
    code, _, err = run(capsys, "curves", "--poly", poly, "--out", str(out))
    assert code == 2
    assert err == "output path must end in .svg or .csv\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--step", "--viewport"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_curves_rejects_step_or_viewport_not_finite_positive(tmp_path, capsys, flag, value):
    out = tmp_path / "f.svg"
    code, _, err = run(capsys, "curves", "--poly", "x*y", "--out", str(out),
                       f"{flag}={value}")
    assert code == 2
    assert "finite and positive" in err and err.count("\n") == 1
    assert not out.exists()


def test_curves_too_coarse_step_is_bad_input(tmp_path, capsys):
    out = tmp_path / "g.svg"
    code, _, err = run(capsys, "curves", "--poly", "x*(x^2 - y^2)",
                       "--out", str(out), "--step", "0.5")
    assert code == 2
    assert "curve integration failed" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args, steps", [
    (("--step", "1e-9"), "6e+09"),
    (("--viewport", "1e300"), "3e+303"),
    (("--step", "5.99e-5"), "1e+05"),
])
def test_curves_step_count_above_the_limit_is_bad_input(tmp_path, capsys, monkeypatch, args, steps):
    monkeypatch.setattr(cli, "figure_curves", lambda *a, **kw: pytest.fail("integrated"))
    out = tmp_path / "s.svg"
    code, _, err = run(capsys, "curves", "--poly", "x*(x^2 - y^2)", "--out", str(out), *args)
    assert code == 2
    assert err == (f"step too small for the viewport: {steps} steps per curve arm, "
                   "above the limit of 100000\n")
    assert not out.exists()


def test_curves_step_count_at_the_limit_is_accepted(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "figure_curves", lambda *a, **kw: [])
    out = tmp_path / "t.svg"
    code, _, _ = run(capsys, "curves", "--poly", "x*(x^2 - y^2)", "--out", str(out),
                     "--step", "6e-5")
    assert code == 0


def test_curves_unwritable_out_is_bad_input(tmp_path, capsys):
    out = tmp_path / "missing" / "fig.svg"
    code, _, err = run(capsys, "curves", "--poly", "x*(x^2 - y^2)", "--out", str(out),
                       "--step", "0.05")
    assert code == 2
    assert err == f"cannot write {out}: No such file or directory\n"


PFACT_4 = "x^9 - 30*x^7*y^2 + 273*x^5*y^4 - 820*x^3*y^6 + 576*x*y^8"  # family pfact 4


def test_curves_figure_outside_the_float_range_is_bad_input(tmp_path, capsys):
    # x^9 at x = 1e200 has no float value
    out = tmp_path / "o.svg"
    code, _, err = run(capsys, "curves", "--poly", PFACT_4, "--out", str(out),
                       "--viewport", "1e200", "--step", "1e197")
    assert code == 2
    assert err == "bad input: a value of the figure is out of the float range\n"
    assert not out.exists()


@pytest.mark.parametrize("viewport, step", [("1e40", "1e37"), ("1e35", "1e32"), ("1e32", "1e29")])
def test_curves_second_partials_outside_the_float_range_are_bad_input(
        tmp_path, capsys, viewport, step):
    # the second partials have float values at every seed, but their
    # discriminant b*b - a*c overflows to inf
    out = tmp_path / "p.svg"
    code, _, err = run(capsys, "curves", "--poly", PFACT_4, "--out", str(out),
                       "--viewport", viewport, "--step", step)
    assert code == 2
    assert err == "bad input: a value of the figure is out of the float range\n"
    assert not out.exists()


def test_curves_coefficient_with_no_float_value_fails_before_the_seed_search(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "float_roots", lambda *a: pytest.fail("seed search ran"))
    out = tmp_path / "n.svg"
    poly = f"{'9' * 4299}*x^3 - {'7' * 4000}*x*y^2"
    code, _, err = run(capsys, "curves", "--poly", poly, "--out", str(out))
    assert code == 2
    assert err == "bad input: a value of the figure is out of the float range\n"
    assert not out.exists()


# sha256 of the default figures of the benchmark's four forms: the float
# evaluator, the curve stepper and the seed search must keep every byte of
# them.  The bytes also rest on the C library's pow, sqrt, hypot, cos, sin
# and atan2; the digests were taken with CPython 3.11 and glibc 2.36 on
# x86-64.
FIGURE_SHA256 = {
    "x*(x^2 - y^2)": "92e3bc0b62ec73835767768b836a2b4004d9eb7dc6690330e7064ba334f0b392",
    "x*y*(x^2 - y^2)": "ba627f0c1e9a0c84f158d39d6e1c7973706c2ae6457bdde679d75e896ad5d8d7",
    "x^3 - 3*x*y^2": "5270a7bdce84118c494800c2e54a7a3d3e0a1c3b523bdd54acdf669dddbb60ae",
    "(x^2 + y^2)*(x^3 - 3*x*y^2)":
        "6da4837155422ad4e75cdba89b2289dec42bd2af44e7a24277818bc5db0d7688",
}


def test_curves_default_figure_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "h.svg"
    for poly, digest in FIGURE_SHA256.items():
        code, _, _ = run(capsys, "curves", "--poly", poly, "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, poly


# sha256 of the full-resolution CSV of a coarse figure at viewport 1.0: the
# SVG keeps at most about 800 points per path, so only the CSV checks every
# vertex of the stepper.  The last figure form breaks at step 0.01, so it is
# drawn at 0.008; it is the one whose second partials have three terms each.
CSV_SHA256 = {
    "x*(x^2 - y^2)": (0.01, "77711a735b16674b62075051ceef6ca2f0452ebd80a4c0bb43693da0eab7b77f"),
    "x*y*(x^2 - y^2)": (0.01, "de151e189e64d2d5dcf4cca3750650c1903efa22a0a3d39cfab3fffe47365eed"),
    "x^3 - 3*x*y^2": (0.01, "61bead7f07de0ea736faa02491e79b2b7a00a7e7f6eb869bb0c68be681b3195a"),
    "(x^2 + y^2)*(x^3 - 3*x*y^2)":
        (0.008, "4e7478ffbd08202696cd972318e1910e28806ae7421e34054905b810db41fa5f"),
}


@pytest.mark.parametrize("poly", CSV_SHA256)
def test_curves_csv_vertices_are_pinned(poly):
    step, digest = CSV_SHA256[poly]
    csv = polylines_to_csv(cli.figure_curves(parse_form(poly), step=step, viewport=1.0))
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


@pytest.mark.parametrize("m", [12, 14, 16])
def test_figure_seeds_every_zero_line_of_a_harmonic_power(m):
    # near t = 0 the m lines of Re (x + iy)^m lie about pi/m apart, while the
    # Cauchy bound of f(1, t) is 10^3 to 10^4
    f = arnold(m, m).form
    p = f.restrict("x=1")
    ts = float_roots(p)
    assert len(ts) == len(_line_directions(f)) == m
    for t in ts:
        lo = Fraction(math.nextafter(t, -math.inf))
        hi = Fraction(math.nextafter(t, math.inf))
        assert sturm_count(p, lo, hi) == 1


# ----------------------------------------------------------------- runtime


def test_cli_imports_only_the_standard_library():
    # a new interpreter, so that no module a test imported counts; modules
    # the interpreter loads at startup (site hooks) are left out
    script = (
        "import sys; before = set(sys.modules); import hypforms.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = done.stdout.split()
    assert "hypforms" in loaded
    assert [m for m in loaded if m not in sys.stdlib_module_names and m != "hypforms"] == []


def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_traceback():
    # the reader closes stdout before the first byte; python -m runs the
    # sys.exit(main()) line of cli
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "hypforms.cli", "family", "pfact", "49"],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_a_closed_pipe_before_several_members_gets_exit_1_and_no_traceback():
    # four members, one line each, all buffered until main's flush; the
    # branch dup2s fd 1, so it runs only in a child process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "hypforms.cli", "family", "reps", "9"],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_benchmark_selftest_passes():
    # the benchmark's own checks: failed operations are counted, the tracer
    # restores what it rebinds, inputs repeat for a seed
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, os.path.join(root, "perfbench", "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "all checks passed"


# ------------------------------------------------------------------- fuzz
#
# cli.main in-process on a small grammar of command lines.  Every command
# line must end in an answer or in a bad-input exit: an exit code in
# {0, 1, 2, 3}, no exception, and bounded time.  The limits on degree,
# coefficient size and nesting are exercised at and past their edges.
# Sums stay at degree 6 or below, and a coefficient of thousands of digits
# that parses appears only up to degree 3: certification time still grows
# with coefficient size (both routes on a 4300-digit coefficient at degree
# 6 take seconds, bisecting down to roots near 2^-3571), which is an open
# item of its own, not a contract break.

_SMALL = st.sampled_from(["0", "1", "2", "3", "7", "1/2", "3/4", "12/5"])
# accepted, and cheap at every degree of the grammar
_LARGE = st.sampled_from(["10^30", "(2^100)^3", "9" * 60])
# past MAX_COEFF_DIGITS, so rejected while parsing
_PAST = st.sampled_from(["9" * 4301, "(10^99)^44", "1" + "0" * 5000 + "/3"])
_HUGE = st.just("9" * 4300)


@st.composite
def _term(draw, degree):
    i = draw(st.integers(0, degree))
    big = st.one_of(_LARGE, _PAST, _HUGE) if degree <= 3 else st.one_of(_LARGE, _PAST)
    coeff = draw(st.one_of(_SMALL, _SMALL, big))
    return f"{coeff}*x^{i}*y^{degree - i}"


@st.composite
def _sum(draw):
    degree = draw(st.integers(2, 6))
    terms = draw(st.lists(_term(degree), min_size=1, max_size=4))
    if draw(st.booleans()):  # one more term of degree 0 to 3: mostly not homogeneous
        terms.append(draw(_term(draw(st.integers(0, 3)))))
    signs = draw(st.lists(st.sampled_from([" + ", " - "]), min_size=len(terms),
                          max_size=len(terms)))
    return "".join(s + t for s, t in zip(signs, terms)).lstrip(" +")


_POWER = st.builds(
    "{}^{}".format,
    st.sampled_from(["x", "y", "(x - y)", "(x*y)", "(x^2 - 3*y^2)", "2"]),
    st.sampled_from(["0", "1", "3", "50", "100", "101", "9" * 25, "1" * 5000]),
)


@st.composite
def _vector(draw):
    degree = draw(st.sampled_from([2, 3, 101]))
    entries = st.sampled_from(["1", "-1", "0", "2.5", "-3/7", "1e3", "1_000", "nan",
                               "inf", "-inf", "1e999999999", "1e-4301", "1e4299", "x"])
    n = degree + 1 + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return f"{degree}: " + ", ".join(draw(st.lists(entries, min_size=n, max_size=n)))


@st.composite
def _nested(draw, inner):
    levels = draw(st.sampled_from([1, 2, 100, 101, 10_000]))
    return "(" * levels + draw(inner) + ")" * levels


_FORM = st.one_of(
    _sum(), _POWER, _vector(),
    _nested(st.one_of(_sum(), _POWER)),
    st.text(alphabet="xy()^*+-/0123456789 .:,e", max_size=30),
)
_PARAM = st.sampled_from(["-1", "0", "1", "2", "3", "7", "49", "50", "101",
                          "99999999999999999999"])


@st.composite
def _command(draw):
    command = draw(st.sampled_from(["check", "index", "family", "curves"]))
    if command == "family":
        kind = draw(st.sampled_from(["arnold", "pfact", "g", "f", "reps"]))
        even = ["--even"] if draw(st.booleans()) else []
        return ["family", kind, *draw(st.lists(_PARAM, max_size=3)), *even]
    form = draw(_FORM)
    if command == "curves":
        return ["curves", f"--poly={form}", "--out", "OUT/fig.svg", "--step", "0.05"]
    return [command, "--", form]


FUZZ_SECONDS = 5.0


@settings(max_examples=60, deadline=None)
@given(argv=_command())
@example(argv=["check", "--", "(" * 200 + "x^3" + ")" * 200])
@example(argv=["curves", "--poly=x*(x^2 - y^2)", "--out", "OUT/missing/fig.svg",
               "--step", "0.05"])
@example(argv=["curves", f"--poly={PFACT_4}", "--out", "OUT/fig.svg",
               "--viewport", "1e200", "--step", "1e197"])
def test_cli_fuzz_ends_in_an_answer_or_a_bad_input_exit(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("OUT", tmp) for a in argv]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's exit on a bad command line
                code = exc.code
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert elapsed < FUZZ_SECONDS, (argv, elapsed)


def test_every_subcommand_sets_the_function_that_runs_it():
    (subparsers,) = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == {"check", "index", "family", "verify", "lemma1", "curves"}
    for name, parser in subparsers.choices.items():
        assert callable(parser.get_default("run")), name
