"""Index computation, component bookkeeping, and numeric winding checks."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hypforms import (
    BinaryForm,
    NotHyperbolicError,
    UniPoly,
    admissible_indices,
    classify_form,
    count_real_linear_factors,
    hessian,
    index_gamma,
    is_hyperbolic,
    is_nonpositive_on_unit_interval,
    num_components,
    parse_form,
    representatives,
    winding_alpha_numeric,
    winding_gamma_numeric,
    zeros_vs_critical_points,
)
from hypforms import classify
from hypforms.classify import RefinementError, _second_partials_float, _winding
from hypforms.core import eval_float3, second_partials

X, Y = sympy.symbols("x y")


def sympy_distinct_real_lines(f: BinaryForm) -> int:
    """Independent count of distinct real linear factors, via sympy roots of
    f(1,t) plus the line x = 0 when the top y-power is present."""
    d = f.degree
    expr = sum(sympy.Rational(c) * X ** (d - i) * Y**i for i, c in enumerate(f.coeffs))
    t = sympy.Symbol("t")
    slice_ = sympy.Poly(expr.subs(X, 1).subs(Y, t), t)
    n = len(set(sympy.real_roots(slice_)))
    if f.coeffs[-1] == 0:
        n += 1
    return n


def random_form(rng: random.Random, degree: int) -> BinaryForm:
    return BinaryForm(
        degree, tuple(Fraction(rng.randint(-9, 9)) for _ in range(degree + 1))
    )


# ---------------------------------------------------------------- counting


def test_count_real_linear_factors_known():
    assert count_real_linear_factors(parse_form("x^3 - x*y^2")) == 3
    assert count_real_linear_factors(parse_form("x^3*y - x*y^3")) == 4
    assert count_real_linear_factors(parse_form("x^2 + y^2")) == 0
    # repeated line counts once
    assert count_real_linear_factors(parse_form("x^2*(x - y)")) == 2


def test_count_real_linear_factors_matches_sympy():
    rng = random.Random(4242)
    for _ in range(80):
        f = random_form(rng, rng.randint(2, 7))
        if f.is_zero():
            continue
        assert count_real_linear_factors(f) == sympy_distinct_real_lines(f)


# ------------------------------------------------------------------- index


def test_index_gamma_known_values():
    assert index_gamma(parse_form("x^3 - x*y^2")) == -1
    assert index_gamma(parse_form("x*y")) == 0
    assert index_gamma(parse_form("x^3*y - x*y^3")) == -2


def test_index_gamma_rejects_non_hyperbolic():
    with pytest.raises(NotHyperbolicError):
        index_gamma(parse_form("x^2 + y^2"))


def test_classify_form_fields():
    rep = classify_form(parse_form("x^3*y - x*y^3"))
    assert rep.degree == 4
    assert rep.index == -2
    assert rep.factor_count == 4
    assert rep.index == 2 - rep.factor_count
    assert rep.component_rank == admissible_indices(4).index(rep.index)


# --------------------------------------------------------------- components


@given(st.integers(min_value=3, max_value=40))
@settings(max_examples=40)
def test_component_count_closed_form(d):
    want = (d - 1) // 2 if d % 2 == 1 else d // 2
    assert num_components(d) == want
    idxs = admissible_indices(d)
    assert len(idxs) == want
    assert idxs[0] == (-1 if d % 2 == 1 else 0)
    assert idxs[-1] == 2 - d
    assert all(a - b == 2 for a, b in zip(idxs, idxs[1:]))
    assert all((i - d) % 2 == 0 for i in idxs)


@pytest.mark.parametrize("s, want, lo", [(1, (0, -24, -12), -2), (-1, (0, 24, -12), 0)])
def test_quartic_lemma_hessian_at_a_diagonal_is_nonnegative(s, want, lo):
    # f_b = xy(x^2 + bxy + y^2) = g + b*h.  Hess f_b(1, s), a quadratic in
    # b, is Hess g + b*M + b^2*Hess h at (1, s), with M the mixed term
    # Hess(g + h) - Hess g - Hess h.  It is -12b(b + 2s), >= 0 for b in
    # [lo, lo + 2]: the two intervals cover (-2, 2), so no f_b with a
    # definite quadratic factor is hyperbolic.
    g, h = parse_form("x^3*y + x*y^3"), parse_form("x^2*y^2")
    mixed = hessian(g + h) - hessian(g) - hessian(h)
    hess_at = UniPoly(tuple(p.eval(1, s) for p in (hessian(g), mixed, hessian(h))))
    assert hess_at == UniPoly(want)
    b = UniPoly((lo, 2))  # b = lo + 2t sends t in [0, 1] onto [lo, lo + 2]
    composed = UniPoly.zero()
    for c in reversed(hess_at.coeffs):
        composed = composed * b + UniPoly.const(c)
    assert is_nonpositive_on_unit_interval(-composed, strict=False)


def test_every_hyperbolic_quartic_of_the_census_has_index_minus_2():
    # the integer quartics in [-2, 2] with a nonnegative x^4 coefficient
    hyperbolic = []
    for cs in itertools.product(range(3), *[range(-2, 3)] * 4):
        f = BinaryForm(4, cs)
        if any(cs) and is_hyperbolic(f).is_hyperbolic:
            hyperbolic.append(f)
    assert len(hyperbolic) == 110
    assert {index_gamma(f) for f in hyperbolic} == {-2}


# ----------------------------------------------------------------- winding


def test_winding_matches_index_on_small_forms():
    for text in ("x^3 - x*y^2", "x*y", "x^3*y - x*y^3", "x^2 - 3*y^2"):
        f = parse_form(text)
        idx = index_gamma(f)
        assert winding_gamma_numeric(f) == idx
        assert winding_gamma_numeric(f) == 2 + winding_alpha_numeric(f)


# the docstrings validate the gamma winding on every representative with
# D <= 25 and the alpha winding with D <= 23; the winding suite checks D <= 16
@pytest.mark.parametrize("d", range(17, 26))
def test_gamma_winding_gives_the_stored_index_through_degree_25(d):
    for member in representatives(d):
        assert winding_gamma_numeric(member.form) == member.expected_index, member.label


@pytest.mark.parametrize("d", range(17, 24))
def test_alpha_winding_gives_the_stored_index_minus_2_through_degree_23(d):
    for member in representatives(d):
        assert winding_alpha_numeric(member.form) == member.expected_index - 2, member.label


def test_winding_of_a_curve_that_jumps_by_half_a_turn_exhausts_the_bisection():
    def vec(t):
        return (1.0, 0.0) if t < 1.0 else (-1.0, 0.0)
    with pytest.raises(RefinementError, match="bisection budget exhausted"):
        _winding(vec, 3)


def test_winding_of_a_curve_that_does_not_close_fails_the_residual():
    # half a revolution in small steps, then back to the start at t = 2*pi
    def vec(t):
        return (math.cos(t / 2.0), math.sin(t / 2.0))
    with pytest.raises(RefinementError, match="residual too large"):
        _winding(vec, 3)


def test_alpha_winding_rejects_a_sample_outside_the_hyperbolicity_cone(monkeypatch):
    # with zero angular derivatives the jet is (f, 0, 0), outside the cone
    monkeypatch.setattr(classify, "rotational_derivative",
                        lambda f: BinaryForm.zero(f.degree))
    with pytest.raises(RefinementError, match="left the hyperbolicity cone"):
        winding_alpha_numeric(parse_form("x^3 - x*y^2"))


def test_winding_rejects_non_hyperbolic():
    with pytest.raises(NotHyperbolicError):
        winding_gamma_numeric(parse_form("x^4 + y^4"))


def test_second_partials_float_values():
    at = _second_partials_float(parse_form("x^3 - x*y^2"))
    assert at(1.0, 0.0) == (6.0, 0.0, -2.0)
    assert at(0.5, 2.0) == (3.0, -4.0, -1.0)


FIGURE_FORMS = ("x*(x^2 - y^2)", "x*y*(x^2 - y^2)", "x^3 - 3*x*y^2", "(x^2 + y^2)*(x^3 - 3*x*y^2)")
# (-0.0, 1.0) sends a zero of negative sign through every term that holds a
# power of x
EVAL_POINTS = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (-0.0, 1.0)]


def bits(values) -> list[str]:
    # hex tells -0.0 from 0.0 and compares nan with nan
    return [v.hex() for v in values]


def test_second_partials_float_gives_eval_float_values_bit_for_bit():
    rng = random.Random(20)
    points = EVAL_POINTS + [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(40)]
    forms = [m.form for d in [3] + list(range(5, 14)) for m in representatives(d)]
    forms += [parse_form(p) for p in FIGURE_FORMS]
    checked = 0
    for f in forms:
        at = _second_partials_float(f)
        partials = second_partials(f)
        for x, y in points:
            want = tuple(p.eval_float(x, y) for p in partials)
            if not want[1] * want[1] - want[0] * want[2] > 0.0:
                continue
            got = at(x, y)
            assert got == want and bits(got) == bits(want), (str(f), x, y)
            checked += 1
    assert checked > 0.9 * len(forms) * len(points)


@pytest.mark.parametrize("poly", ["x^3 - 3*x*y^2", "x^3*y - x*y^3", "x^5 + y^5"])
def test_eval_float3_skips_the_zero_terms_as_eval_float_does(poly):
    # a partial of each of these forms has a zero coefficient, whose term
    # would turn 0.0 * inf into nan
    partials = second_partials(parse_form(poly))
    assert any(c == 0 for p in partials for c in p.coeffs)
    at = eval_float3(*partials)
    for x, y in EVAL_POINTS + [(math.inf, 1.0), (1.0, -math.inf), (-0.0, -0.0)]:
        want = tuple(p.eval_float(x, y) for p in partials)
        assert bits(at(x, y)) == bits(want), (x, y)


def test_eval_float3_values_where_a_zero_term_would_change_them():
    # (f_xx, f_xy, f_yy) of x^3 - 3*x*y^2 is (6x, -6y, -6x); a term 0 * x in
    # f_xy would read nan at x = inf.  Each sum starts from 0.0, so a zero
    # of either sign comes out as 0.0.
    at = eval_float3(*second_partials(parse_form("x^3 - 3*x*y^2")))
    assert bits(at(math.inf, 1.0)) == bits((math.inf, -6.0, -math.inf))
    assert bits(at(-0.0, 1.0)) == bits((0.0, -6.0, 0.0))


def test_second_partials_float_rejects_a_definite_form():
    with pytest.raises(RefinementError, match=r"not indefinite at \(1\.0, 0\.0\)"):
        _second_partials_float(parse_form("x^2 + y^2"))(1.0, 0.0)


@pytest.mark.parametrize("poly, point", [
    ("x^3 - x*y^2", (1e200, 0.0)),    # b*b - a*c = 0 + 1.2e401: inf
    ("x^4 + y^4", (1e100, 1e100)),    # 0 - inf: -inf, an overflow, not a definite form
    ("x^2*y^2", (1e100, 1e100)),      # inf - inf: nan
])
def test_second_partials_float_raises_overflow_on_a_discriminant_with_no_float_value(
        poly, point):
    with pytest.raises(OverflowError):
        _second_partials_float(parse_form(poly))(*point)


# --------------------------------------------------- zeros vs critical pts


def test_zeros_vs_critical_points_equal_on_hyperbolic():
    for text in ("x^3 - x*y^2", "x^3*y - x*y^3", "x*y"):
        z, c = zeros_vs_critical_points(parse_form(text))
        assert z == c


def test_zeros_vs_critical_counts_value():
    # x(x^2-y^2) restricted to the circle: zeros at 6 angles, and the
    # circle restriction of a hyperbolic form alternates max/min between
    # consecutive zeros, so the counts agree at 6
    z, c = zeros_vs_critical_points(parse_form("x^3 - x*y^2"))
    assert (z, c) == (6, 6)
