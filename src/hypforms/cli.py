"""Command-line interface: certification, classification, family emission,
verification suites, and asymptotic-curve figures.

Subcommands and exit codes:

  check <poly>     0 hyperbolic, 1 not hyperbolic, 2 parse error or a form
                   outside the domain (degree below 2, zero form),
                   3 the two certification methods disagree (internal error)
  index <poly>     0 with the classification report, 1 not hyperbolic, 2 parse
                   error or a form outside the domain (degree below 3, zero
                   form)
  family <kind>    0 with one JSON member per line, 2 bad parameters (also a
                   member above degree MAX_DEGREE = 100)
  verify <suite>   0 iff every case passes, 1 on any failure, 2 bad arguments
                   (a range outside a selected suite's, checked for every
                   selected suite before the first one runs)
  lemma1           0 iff the critical-point certification passes for all n,
                   1 on any failure, 2 an --n-max below 2 or above 49
  curves           0 with the figure written, 1 not hyperbolic, 2 bad input
                   (a parse error, degree below 2, zero form, a step or
                   viewport that is not finite and positive, more than
                   MAX_ARM_STEPS steps per curve arm, an --out path not
                   ending in .svg or .csv, each checked before the form is
                   certified, so also for one that is not hyperbolic; a
                   step too coarse for the direction lift, a figure value
                   outside the float range, or an --out path that cannot
                   be written)

A parse error includes a degree above MAX_DEGREE = 100, a numeral, or a
coefficient numerator or denominator, of more than MAX_COEFF_DIGITS = 4300
digits, and parentheses nested more than MAX_NESTING = 100 levels deep; each
is rejected before the form is built.

Reports are JSON on stdout; progress summaries, and a FAIL line for each
failed suite case, go to stderr.  All output is deterministic for fixed
flags; random corpora take an explicit --seed that is echoed inside the
report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from .core import BinaryForm, NotHyperbolicError, ParseError, parse_form, format_form
from .suites import SUITE_NAMES

# every other module is imported by the command that runs it, so that a
# command loads only what it needs
if TYPE_CHECKING:
    from .asymptotics import CurvePolyline
    from .certify import Certificate
    from .families import FamilyMember
    from .verify import SuiteReport


def _cert_dict(cert: Certificate) -> dict:
    w = cert.witness
    return {
        "verdict": cert.verdict,
        "method": cert.method,
        "witness": None if w is None else _witness_text(w),
    }


def _witness_text(w) -> list[str]:
    """The witness coordinates as text.  A witness can have more digits than
    the interpreter's int-to-str limit, which belongs to the whole process,
    so the limit is lifted only while they are formatted."""
    if not hasattr(sys, "get_int_max_str_digits"):  # no limit to lift
        return [str(w[0]), str(w[1])]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [str(w[0]), str(w[1])]
    finally:
        sys.set_int_max_str_digits(limit)


def _member_dict(m: FamilyMember) -> dict:
    return {
        "polynomial": format_form(m.form),
        "family_tag": m.family_tag,
        "params": list(m.params),
        "degree": m.form.degree,
        "expected_index": m.expected_index,
        "label": m.label,
    }


def _emit(obj) -> None:
    print(json.dumps(obj))


def _parse_domain(poly: str, what: str, min_degree: int) -> BinaryForm | None:
    """The parsed form, or None after a one-line message on stderr when the
    text does not parse, its degree is below min_degree, or every
    coefficient is zero."""
    try:
        f = parse_form(poly)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None
    if f.degree < min_degree:
        print(f"bad input: {what} is defined for degree >= {min_degree}",
              file=sys.stderr)
        return None
    if f.is_zero():
        print(f"bad input: zero form of degree {f.degree}: every coefficient "
              "is zero", file=sys.stderr)
        return None
    return f


def cmd_check(poly: str) -> int:
    """Certify hyperbolicity by both methods and report any disagreement."""
    from .certify import is_hyperbolic, is_hyperbolic_polar

    f = _parse_domain(poly, "hyperbolicity", 2)
    if f is None:
        return 2
    h = is_hyperbolic(f)
    p = is_hyperbolic_polar(f)
    agree = h.verdict == p.verdict
    _emit(
        {
            "input": poly,
            "canonical": format_form(f),
            "degree": f.degree,
            "hessian": _cert_dict(h),
            "polar": _cert_dict(p),
            "agree": agree,
        }
    )
    if not agree:
        print("internal error: certification methods disagree", file=sys.stderr)
        return 3
    return 0 if h.is_hyperbolic else 1


def cmd_index(poly: str) -> int:
    """Classify a hyperbolic form: index, component rank, factor count."""
    from .classify import admissible_indices, classify_form

    f = _parse_domain(poly, "classification by index", 3)
    if f is None:
        return 2
    try:
        rep = classify_form(f)
    except NotHyperbolicError as exc:
        _emit({"input": poly, "canonical": format_form(f), "error": str(exc)})
        return 1
    _emit(
        {
            "input": poly,
            "canonical": format_form(f),
            "degree": rep.degree,
            "index": rep.index,
            "component_rank": rep.component_rank,
            "factor_count": rep.factor_count,
            "admissible_indices": admissible_indices(rep.degree),
        }
    )
    return 0


# kind -> (parameter count, names of the parameters, builder of the members
# from the families module, the parameters and the --even flag)
_FAMILIES = {
    "arnold": (2, "degree and factor count", lambda fam, ps, even: [fam.arnold(*ps)]),
    "pfact": (1, "k", lambda fam, ps, even: [fam.p_factorized(*ps, even=even)]),
    "g": (1, "n", lambda fam, ps, even: [fam.g_even(*ps)]),
    "f": (2, "n and k", lambda fam, ps, even: [fam.f_family(*ps, even=even)]),
    "reps": (1, "the degree", lambda fam, ps, even: fam.representatives(*ps)),
}


def cmd_family(kind: str, params: list[int], even: bool) -> int:
    """Emit family members as polynomial text plus metadata, one per line."""
    from . import families

    count, names, build = _FAMILIES[kind]
    try:
        if len(params) != count:
            words = ("one parameter", "two parameters")[count - 1]
            raise ValueError(f"{kind} takes {words}: {names}")
        members = build(families, params, even)
    except ValueError as exc:
        print(f"bad family parameters: {exc}", file=sys.stderr)
        return 2
    for m in members:
        _emit(_member_dict(m))
    return 0


def _summarize(reports: list[SuiteReport]) -> int:
    """Print each report's summary line and the FAIL line of each failed case
    on stderr; return the exit code, 0 iff every case passed."""
    for r in reports:
        print(r.summary_line(), file=sys.stderr)
        for case in r.cases:
            if not case["pass"]:
                print(
                    f"  FAIL {case['id']}: expected {case['expected']!r}, "
                    f"got {case['got']!r}",
                    file=sys.stderr,
                )
    return 0 if all(r.ok for r in reports) else 1


def cmd_verify(suite: str, d_max: int | None, n_max: int | None, seed: int | None) -> int:
    """Run one verification suite (or all) and emit the JSON reports."""
    from .verify import run_suite

    try:
        reports = run_suite(suite, d_max=d_max, n_max=n_max, seed=seed)
    except ValueError as exc:
        print(f"bad verify arguments: {exc}", file=sys.stderr)
        return 2
    code = _summarize(reports)
    _emit([r.to_dict() for r in reports])
    return code


def cmd_lemma1(n_max: int) -> int:
    """Certify the bump polynomial's critical point and maximum for each n."""
    from .verify import suite_lemma1

    try:
        report = suite_lemma1(n_max)
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return 2
    code = _summarize([report])
    _emit(report.to_dict())
    return code


def _line_directions(f: BinaryForm) -> list[tuple[float, float]]:
    """One unit vector per real zero line of f: (1, t)/|(1, t)| in the right
    half plane x > 0 for the line y = t*x, and (0, 1) for the line x = 0."""
    from .certify import float_roots

    dirs: list[tuple[float, float]] = []
    for t in float_roots(f.restrict("x=1")):  # roots t give the lines y = t*x
        n = math.hypot(1.0, t)
        dirs.append((1.0 / n, t / n))
    if f.coeffs[-1] == 0:  # no y^degree term: x = 0 is a zero line
        dirs.append((0.0, 1.0))
    return dirs


def _figure_seeds(f: BinaryForm, viewport: float) -> list[tuple[float, float]]:
    """Deterministic seed set: a point on each ray of every zero line, plus a
    twelve-point ring to populate the rest of the viewport."""
    seeds: list[tuple[float, float]] = []
    r_line = 0.5 * viewport
    for ux, uy in _line_directions(f):
        seeds.append((r_line * ux, r_line * uy))
        seeds.append((-r_line * ux, -r_line * uy))
    r_ring = 0.625 * viewport
    for i in range(12):
        theta = 0.1 + i * math.pi / 6.0
        seeds.append((r_ring * math.cos(theta), r_ring * math.sin(theta)))
    return seeds


# Curve length of a figure per unit of viewport; each curve grows two arms of
# half that length, so an arm plans 3 * viewport / step steps (6,000 at the
# defaults).  cmd_curves rejects a step and viewport past MAX_ARM_STEPS.
FIGURE_LENGTH = 6.0


def figure_curves(
    f: BinaryForm, step: float = 1e-3, viewport: float = 2.0
) -> list[CurvePolyline]:
    """Both asymptotic-field integral curves through every figure seed."""
    from .asymptotics import integrate_curve
    from .certify import require_hyperbolic

    require_hyperbolic(f)
    # eval_float converts the coefficients on its first call: one with no
    # float value raises OverflowError here, before the exact seed search
    f.eval_float(1.0, 1.0)
    curves = []
    max_len = FIGURE_LENGTH * viewport
    for seed in _figure_seeds(f, viewport):
        for field in ("F1", "F2"):
            curves.append(
                integrate_curve(
                    f, seed, field_choice=field, step=step,
                    max_len=max_len, viewport=viewport,
                )
            )
    return curves


def cmd_curves(poly: str, out: str, step: float, viewport: float) -> int:
    """Integrate the asymptotic fields of a hyperbolic form and write the
    figure as SVG (or the raw polylines as CSV)."""
    from .asymptotics import MAX_ARM_STEPS, polylines_to_csv, polylines_to_svg
    from .classify import RefinementError

    f = _parse_domain(poly, "hyperbolicity", 2)
    if f is None:
        return 2
    finite = math.isfinite(step) and math.isfinite(viewport)
    if not finite or step <= 0.0 or viewport <= 0.0:
        print("step and viewport must be finite and positive", file=sys.stderr)
        return 2
    arm_steps = FIGURE_LENGTH * viewport / 2.0 / step
    if arm_steps > MAX_ARM_STEPS:
        print(f"step too small for the viewport: {arm_steps:.3g} steps per curve arm, "
              f"above the limit of {MAX_ARM_STEPS}", file=sys.stderr)
        return 2
    if not out.endswith((".svg", ".csv")):
        print("output path must end in .svg or .csv", file=sys.stderr)
        return 2
    try:
        curves = figure_curves(f, step=step, viewport=viewport)
    except NotHyperbolicError as exc:
        print(f"not hyperbolic: {exc}", file=sys.stderr)
        return 1
    except RefinementError as exc:
        print(f"curve integration failed: {exc}; try a smaller --step", file=sys.stderr)
        return 2
    except OverflowError:
        print("bad input: a value of the figure is out of the float range", file=sys.stderr)
        return 2
    if out.endswith(".svg"):
        payload = polylines_to_svg(curves, viewport=viewport)
    else:
        payload = polylines_to_csv(curves)
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"cannot write {out}: {exc.strerror}", file=sys.stderr)
        return 2
    n_pts = sum(len(c.points) for c in curves)
    print(f"wrote {out}: {len(curves)} curves, {n_pts} vertices", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hypforms",
        description="Certification and classification of saddle-type binary forms.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="certify hyperbolicity by both methods")
    p_check.add_argument("poly", help='polynomial text, e.g. "x^3 - x*y^2"')
    p_check.set_defaults(run=lambda a: cmd_check(a.poly))

    p_index = sub.add_parser("index", help="winding index and component data")
    p_index.add_argument("poly", help="polynomial text")
    p_index.set_defaults(run=lambda a: cmd_index(a.poly))

    p_family = sub.add_parser("family", help="emit family members as JSON lines")
    p_family.add_argument("kind", choices=tuple(_FAMILIES))
    p_family.add_argument("params", type=int, nargs="*", help="integer parameters")
    p_family.add_argument("--even", action="store_true",
                          help="even-degree variant (pfact and f kinds)")
    p_family.set_defaults(run=lambda a: cmd_family(a.kind, a.params, a.even))

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--d-max", type=int, default=None)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(run=lambda a: cmd_verify(a.suite, a.d_max, a.n_max, a.seed))

    p_lemma1 = sub.add_parser("lemma1", help="bump-polynomial critical point check")
    p_lemma1.add_argument("--n-max", type=int, default=40)
    p_lemma1.set_defaults(run=lambda a: cmd_lemma1(a.n_max))

    p_curves = sub.add_parser("curves", help="asymptotic-curve figure (SVG/CSV)")
    p_curves.add_argument("--poly", required=True, help="polynomial text")
    p_curves.add_argument("--out", required=True, help="output path (.svg or .csv)")
    p_curves.add_argument("--step", type=float, default=1e-3)
    p_curves.add_argument("--viewport", type=float, default=2.0)
    p_curves.set_defaults(run=lambda a: cmd_curves(a.poly, a.out, a.step, a.viewport))
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early: what is left to write goes to
        # devnull, so that the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
