"""Verification suite plumbing: reports, determinism, range validation."""

import functools
from fractions import Fraction

import pytest

from hypforms import verify
from hypforms.asymptotics import ISOTOPY_GRID, IsotopyCheck
from hypforms.certify import Certificate, hessian
from hypforms.verify import (
    DEFAULT_SEED,
    SUITE_NAMES,
    run_suite,
    suite_equivalence,
    suite_lemma1,
)


def test_every_suite_passes_at_reduced_ranges():
    overrides = {
        "table1": {"d_max": 8},
        "conjecture": {"d_max": 9},
        "lemmas": {"n_max": 12},
        "hessian_expansion": {"n_max": 4},
        "equivalence": {"d_max": 6},
        "winding": {"d_max": 8},
        "obs_arnold": {"d_max": 9},
        "poincare": {"d_max": 6},
        "isotopies": {},
    }
    assert set(overrides) == set(SUITE_NAMES)
    for name, kw in overrides.items():
        report = run_suite(name, **kw)[0]
        assert report.ok, report.summary_line()
        assert report.cases, "suite must run at least one case"
        assert report.suite == name


def test_reports_are_sorted_and_complete():
    report = run_suite("table1", d_max=6)[0]
    ids = [c["id"] for c in report.cases]
    assert ids == sorted(ids)
    for c in report.cases:
        assert set(c) >= {"id", "expected", "got", "pass", "comparison"}
    d = report.to_dict()
    assert d["passed"] + d["failed"] == len(report.cases)
    # the JSON key order of every verify report
    assert list(d) == ["suite", "cases", "wall_time", "passed", "failed", "ok"]


def test_run_all_returns_every_suite():
    reports = run_suite("all", d_max=9, n_max=12)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    assert all(r.ok for r in reports)


def test_run_suite_calls_the_current_attribute_with_accepted_overrides(monkeypatch):
    calls = []

    def fake_equivalence(d_max=3, seed=0):
        calls.append(("equivalence", d_max, seed))
        return "equivalence report"

    @functools.wraps(fake_equivalence)
    def traced(*args, **kwargs):
        return fake_equivalence(*args, **kwargs)

    def fake_isotopies():
        calls.append(("isotopies",))
        return "isotopies report"

    monkeypatch.setattr(verify, "suite_equivalence", traced)
    monkeypatch.setattr(verify, "suite_isotopies", fake_isotopies)
    assert run_suite("equivalence", d_max=5, n_max=7) == ["equivalence report"]
    assert run_suite("equivalence", seed=9) == ["equivalence report"]
    assert run_suite("isotopies", d_max=5, n_max=7, seed=9) == ["isotopies report"]
    assert calls == [("equivalence", 5, 0), ("equivalence", 3, 9), ("isotopies",)]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("no_such_suite")


def test_equivalence_deterministic_per_seed():
    r1 = suite_equivalence(d_max=3, seed=99)
    r2 = suite_equivalence(d_max=3, seed=99)
    strip = lambda r: [(c["id"], c["expected"], c["got"], c["pass"]) for c in r.cases]
    assert strip(r1) == strip(r2)
    r3 = suite_equivalence(d_max=3, seed=100)
    assert [c["id"] for c in r3.cases] != [c["id"] for c in r1.cases]
    assert r3.ok


def test_default_seed_is_stable_constant():
    # the published corpus is pinned to this seed; changing it silently
    # would invalidate recorded reports
    assert DEFAULT_SEED == 20260816


def test_lemma1_range_validation():
    with pytest.raises(ValueError):
        suite_lemma1(1)


def _non_hyperbolic_polar(f):
    return Certificate("not_hyperbolic", "polar", f.degree)


@pytest.mark.parametrize("fakes, suite, kw, want", [
    ({"is_nonpositive_on_unit_interval": lambda p, strict: False}, "lemmas", {"n_max": 11},
     {"lemmas/quartic-bound/": "NOT strictly negative",
      "lemmas/cubic-bound/": "NOT strictly negative",
      "lemmas/middle-block/": "POSITIVE somewhere"}),
    ({"hessian": lambda f: Fraction(2) * hessian(f)}, "hessian_expansion", {"n_max": 3},
     {"hessian_expansion/exact/": "mismatch"}),
    ({"is_hyperbolic_polar": _non_hyperbolic_polar,
      "hess_linear_product": lambda line, form: hessian(form)}, "equivalence", {"d_max": 3},
     {"equivalence/family/": "hyperbolic != not_hyperbolic",
      "equivalence/random[": "verdicts disagree",
      "equivalence/line-product-identity[": "differ"}),
    ({"zeros_vs_critical_points": lambda f: (2, 4)}, "winding", {"d_max": 3},
     {"winding/zeros-vs-critical/": "2 != 4"}),
    ({"table1": lambda d_max: []}, "obs_arnold", {"d_max": 9},
     {"obs_arnold/covered/": "missing"}),
    ({"check_isotopies": lambda p, q: [
        IsotopyCheck("phi", ISOTOPY_GRID, False, (Fraction(1, 2), Fraction(1))),
        IsotopyCheck("psi", ISOTOPY_GRID, False, (Fraction(1),)),
        IsotopyCheck("gamma_t", ISOTOPY_GRID, True)]}, "isotopies", {},
     {"isotopies/pair/degP=3,n=2": "identity ratio 2; discriminant NOT positive; "
      "phi fails at t in [Fraction(1, 2), Fraction(1, 1)]; psi fails at t in [Fraction(1, 1)]",
      "isotopies/boundary-pair": "discriminant NOT positive; "
      "phi fails only at t=[Fraction(1, 2), Fraction(1, 1)]; psi false; gamma_t true"}),
], ids=["lemmas", "hessian_expansion", "equivalence", "winding", "obs_arnold", "isotopies"])
def test_failing_cases_report_what_was_computed(monkeypatch, fakes, suite, kw, want):
    # each case that repeats its claim on success names the computed
    # outcome on failure; the deciders it reads are replaced by failing ones
    for name, fake in fakes.items():
        monkeypatch.setattr(verify, name, fake)
    report = run_suite(suite, **kw)[0]
    for prefix, got in want.items():
        cases = [c for c in report.cases if c["id"].startswith(prefix)]
        failed = [c for c in cases if not c["pass"]]
        assert failed and all(c["got"] == got for c in failed)
        if prefix != "equivalence/random[":
            # a random form that the Hessian route rejects passes: the fake
            # polar route rejects it too
            assert failed == cases


def test_a_case_that_raises_reports_the_error(monkeypatch):
    def broken(f):
        raise RuntimeError("no index")
    monkeypatch.setattr(verify, "index_gamma", broken)
    report = run_suite("table1", d_max=3)[0]
    assert report.cases and not report.ok
    for c in report.cases:
        assert c["expected"] == "case evaluates without error"
        assert c["got"] == "RuntimeError: no index"


def test_table1_names_a_member_that_is_not_hyperbolic(monkeypatch):
    monkeypatch.setattr(verify, "is_hyperbolic",
                        lambda f: Certificate("not_hyperbolic", "hessian", f.degree))
    report = run_suite("table1", d_max=3)[0]
    assert [(c["expected"], c["got"]) for c in report.cases] == [
        ("hyperbolic, index -1", "not_hyperbolic")]


def test_isotopies_names_a_repeated_factor_that_is_accepted(monkeypatch):
    monkeypatch.setattr(verify, "check_isotopies", lambda p, q: [
        IsotopyCheck(kind, ISOTOPY_GRID, True) for kind in ("phi", "psi", "gamma_t")])
    report = run_suite("isotopies")[0]
    (case,) = [c for c in report.cases if c["id"] == "isotopies/repeated-factor rejection"]
    assert (case["got"], case["pass"]) == ("accepted", False)
