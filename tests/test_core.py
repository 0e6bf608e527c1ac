"""Exact polynomial plumbing: parsing, formatting, ring ops, derivatives."""

import math
import random
import re
import struct
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypforms import (
    BinaryForm,
    ParseError,
    UniPoly,
    format_form,
    parse_form,
    rotational_derivative,
)
from hypforms.asymptotics import (
    CurvePolyline,
    discriminant_omega,
    integrate_curve,
    polylines_to_svg,
)
from hypforms.classify import _second_partials_float
from hypforms.core import MAX_COEFF_DIGITS, MAX_DEGREE, MAX_NESTING, eval_float3, second_partials
from hypforms.families import even_pad, representatives

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


def unipolys(max_degree=6):
    return st.lists(rationals, min_size=0, max_size=max_degree + 1).map(
        lambda cs: UniPoly(tuple(cs))
    )


def forms(max_degree=6, min_degree=0):
    def build(args):
        d, cs = args
        return BinaryForm(d, tuple(cs[: d + 1] + [Fraction(0)] * max(0, d + 1 - len(cs))))
    return st.integers(min_value=min_degree, max_value=max_degree).flatmap(
        lambda d: st.tuples(
            st.just(d), st.lists(rationals, min_size=d + 1, max_size=d + 1)
        )
    ).map(build)


# ---------------------------------------------------------------- parsing


def test_parse_simple_monomials():
    f = parse_form("x^3")
    assert f.degree == 3
    assert f.eval(2, 5) == 8


def test_parse_products_and_powers():
    f = parse_form("x*(x^2 - y^2)")
    assert f.degree == 3
    assert f.eval(1, 1) == 0
    assert f.eval(2, 1) == 6

    g = parse_form("(x + y)^3")
    assert g.eval(1, 1) == 8


def test_parse_rational_coefficients():
    f = parse_form("1/2*x^2 - 3/4*y^2")
    assert f.eval(2, 0) == 2
    assert f.eval(0, 2) == -3


def test_parse_rejects_inhomogeneous():
    with pytest.raises(ParseError):
        parse_form("x^2 + y")


@pytest.mark.parametrize("text, message", [
    ("(x^2 y^2", "missing closing parenthesis"),
    ("1/0*x^2", "denominator must be a positive integer"),
    ("1/x*x", "denominator must be a positive integer"),
    ("2: 1, 0", "coefficient vector for degree 2 needs 3 entries"),
])
def test_parse_error_names_the_fault(text, message):
    with pytest.raises(ParseError, match=message):
        parse_form(text)


def test_unipoly_text():
    assert str(UniPoly((Fraction(1), Fraction(0), Fraction(-3)))) == "-3*t^2 + 1"
    assert str(UniPoly((Fraction(0), Fraction(-1)))) == "-t"
    assert str(UniPoly((Fraction(-1, 2),))) == "-1/2"
    assert str(UniPoly(())) == "0"


def test_parse_rejects_garbage():
    for bad in ("", "x +", "x^", "z^2", "(x", "x^-2", "x^2 * * y"):
        with pytest.raises(ParseError):
            parse_form(bad)


@pytest.mark.parametrize("text, result", [
    ("x^3\t- 3*x*y^2", "x^3 - 3*x*y^2"),
    ("x^3\n-\n3*x*y^2\n", "x^3 - 3*x*y^2"),
    ("\x0bx*y\x0b", "x*y"),
    ("x\x1c*\x1cy", "x*y"),
    ("x*y\x1f", "x*y"),
    ("x^2\xa0-\xa0y^2", "x^2 - y^2"),
    ("x\u2003*\u3000y", "x*y"),
    ("x^2\u200b- y^2", "trailing input at '\\u200b'"),
    ("x\x85y", "trailing input at 'y'"),
    (" \t\n\x0b\x0c\r", "empty input"),
    # Arabic-Indic digits are digits
    ("x^٣ - ٣*x*y^٢", "x^3 - 3*x*y^2"),
    ("١٢*x*y", "12*x*y"),
    ("x^2 - y^٢\t\n", "x^2 - y^2"),
    ("(x\n+\ty)^٢", "x^2 + 2*x*y + y^2"),
    ("3/٤*x^2 - y^2", "3/4*x^2 - y^2"),
    ("x^1٠2 - y^12", "exponent 102 is above the limit of 100"),
])
def test_parse_unicode_whitespace_and_digits(text, result):
    # every Unicode whitespace character separates tokens, any other
    # character is a token of its own, and a run of Unicode digits is a numeral
    try:
        got = format_form(parse_form(text))
    except ParseError as exc:
        got = str(exc)
    assert got == result


def test_zero_form_keeps_its_degree():
    for text in ("0*x^3", "(x - x)*y^2", "0*x^3 + 0", "x^2*y - y*x^2"):
        f = parse_form(text)
        assert f.degree == 3 and f.is_zero()
    assert parse_form("x^3 + 0") == parse_form("x^3")


def test_cancelled_monomials_count_for_homogeneity():
    for bad in ("x^2 - x^2 + y^3", "0*(1 + x)"):
        with pytest.raises(ParseError, match="not homogeneous"):
            parse_form(bad)


def test_parse_degree_limit():
    assert parse_form(f"x^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_form("(x - y)^50*(x + y)^50").degree == MAX_DEGREE
    for bad in (f"x^{MAX_DEGREE + 1}", "x^100000000", "(x^51)^2", "x^51*y^50",
                f"{MAX_DEGREE + 1}: " + ", ".join(["1"] * (MAX_DEGREE + 2))):
        with pytest.raises(ParseError, match=f"limit of {MAX_DEGREE}"):
            parse_form(bad)


def test_parse_monomial_powers_match_products():
    # a power of a monomial with coefficient +-1 is built in one step; it
    # equals the repeated product and keeps the degree limit's message
    for base in ("x", "(-y)", "(x*y)", "(-x*y^2)", "(-1)"):
        for n in (0, 1, 2, 7, 32):
            product = "*".join([base] * n + ["x^2"])
            assert parse_form(f"{base}^{n}*x^2") == parse_form(product)
    for bad in ("(x*y)^51", "(-x^2*y)^34"):
        with pytest.raises(ParseError, match=f"^degree above the limit of {MAX_DEGREE}$"):
            parse_form(bad)


def test_parse_rejects_overlong_numeral():
    with pytest.raises(ParseError, match="too long"):
        parse_form("1" * 5000 + "*x^2")
    # both syntaxes give one message, underscores between digits not counted
    ones = "1" * (MAX_COEFF_DIGITS + 1)
    for text in (f"{ones}*x^2", f"1/{ones}*x", f"x^{ones}", f"{ones}: 1",
                 f"1: {ones}, 1", f"1: 1.{ones}, 1", f"1: 1e{ones}, 1",
                 "1: " + "_".join(ones) + ", 1"):
        with pytest.raises(ParseError, match=f"^numeral of {MAX_COEFF_DIGITS + 1} digits is too long$"):
            parse_form(text)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-to-str limit")
def test_parse_rejects_overlong_numeral_with_the_interpreter_limit_lifted():
    # parse_form bounds numerals itself: with the process-wide limit lifted,
    # int() and Fraction() would read them in time quadratic in their length
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in (MAX_COEFF_DIGITS + 1, 400_000):
            for text in ("1" * n + "*x^2", "1: " + "1" * n + ", 1"):
                start = time.perf_counter()
                with pytest.raises(ParseError, match=f"^numeral of {n} digits is too long$"):
                    parse_form(text)
                assert time.perf_counter() - start < 0.1
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_reads_only_decimal_digits():
    # "²" is a digit to str.isdigit() but no numeral to int()
    assert parse_form("٣*x^2") == parse_form("3*x^2")
    for text, message in (("x^²", "exponent must be a nonnegative integer, got '²'"),
                          ("1/²*x", "denominator must be a positive integer"),
                          ("²*x", "unexpected token '²'")):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_form(text)


def test_parse_coefficient_limit():
    nines = "9" * MAX_COEFF_DIGITS
    two_at_limit = "(2^100)^100*(2^100)^42*2^84"  # 2^14284, 4300 digits
    for text in (f"{nines}*x^3 - 1/{nines}*x*y^2", f"{two_at_limit}*x^2 - y^2",
                 f"{nines}*(1/{nines})*x", f"3: {nines}, 0, -1/{nines}, 0"):
        f = parse_form(text)
        assert max(max(abs(c.numerator), c.denominator) for c in f.coeffs) < 10**MAX_COEFF_DIGITS
        assert parse_form(format_form(f)) == f
    # a product past the limit is rejected before it is built, so the
    # 10^8-bit coefficient of the first text is never made
    for bad in ("(((3^90)^90)^90)^90*x", "((2^100)^100)^100*x^2*y - y^3",
                f"{two_at_limit}*2*x^2 - y^2",
                f"{nines}*{nines}*x", f"(1/{nines})*(1/2)*x",
                f"1/{nines}*x + 1/{int(nines) - 1}*x", f"1: 1e{MAX_COEFF_DIGITS}, 1",
                f"1: 1e-{MAX_COEFF_DIGITS}, 1", "1: 1e999999999, 1", f"1: {nines}.5, 1"):
        with pytest.raises(ParseError, match=f"limit of {MAX_COEFF_DIGITS}"):
            parse_form(bad)


def test_format_round_trip_known():
    for text in ("x^3 - x*y^2", "x^4 - y^4", "x^2 + 2*x*y + y^2"):
        f = parse_form(text)
        assert format_form(f) == text


@given(forms(max_degree=5))
@settings(max_examples=60)
def test_format_parse_round_trip(f):
    if f.is_zero():
        return
    assert parse_form(format_form(f)) == f


# ---------------------------------------------------------------- UniPoly


@given(unipolys(), unipolys(), unipolys())
@settings(max_examples=60)
def test_unipoly_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p + q == q + p


@given(unipolys(), unipolys())
@settings(max_examples=60)
def test_unipoly_derivative_leibniz(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(unipolys(), rationals)
@settings(max_examples=60)
def test_unipoly_horner_matches_expansion(p, t):
    direct = sum((c * t**i for i, c in enumerate(p.coeffs)), Fraction(0))
    assert p(t) == direct


# -------------------------------------------------------------- BinaryForm


@given(forms(), rationals, rationals)
@settings(max_examples=60)
def test_form_eval_bilinear_in_scaling(f, x, y):
    # homogeneity: f(t*x, t*y) = t^degree f(x, y)
    t = Fraction(3, 2)
    assert f.eval(t * x, t * y) == t**f.degree * f.eval(x, y)


def _float_sum(f, x, y):
    # the plain term-by-term sum that eval_float must reproduce bit for bit
    d = f.degree
    acc = 0.0
    for i, c in enumerate(f.coeffs):
        if c:
            acc += float(c) * x ** (d - i) * y ** i
    return acc


def test_eval_float_matches_term_sum_bit_for_bit():
    rng = random.Random(20261018)
    for _ in range(200):
        d = rng.randint(0, 12)
        cs = [
            Fraction(0) if rng.random() < 0.3
            else Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997))
            for _ in range(d + 1)
        ]
        f = BinaryForm(d, tuple(cs))
        for _ in range(5):
            x, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            want = _float_sum(f, x, y)
            assert f.eval_float(x, y) == want
            # the second call reads the cached float terms
            assert f.eval_float(x, y) == want
        # the cache leaves equality and hashing alone
        g = BinaryForm(d, tuple(cs))
        assert f == g and hash(f) == hash(g)
        assert g.eval_float(0.5, -1.25) == f.eval_float(0.5, -1.25)


def _packed_sum(f, x, y):
    """The bytes of _float_sum(f, x, y), or OverflowError when it raises."""
    try:
        return struct.pack("<d", _float_sum(f, x, y))
    except OverflowError:
        return OverflowError


@pytest.mark.parametrize("triple", [
    pytest.param(second_partials, id="second-partials"),
    pytest.param(lambda f: (f, rotational_derivative(f),
                            rotational_derivative(rotational_derivative(f))), id="alpha-jet"),
])
def test_eval_float3_matches_the_term_sum_bit_for_bit(triple):
    # the two triples the float layer reads: the second partials (the lift,
    # the stepper and the gamma winding) and the alpha jet (f, R f, R^2 f)
    rng = random.Random(20261021)
    points = [(-0.0, 1.0), (1.0, -0.0), (-0.0, -0.0), (5e-324, -1.0), (-1.5, 5e-324),
              (1e-150, -1e-150), (-1e-150, 0.75), (1e200, -1e200)]
    points += [tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-150.0, 1.0)
                     for _ in range(2)) for _ in range(8)]
    points += [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(8)]
    forms = [m.form for d in range(3, 42) if d != 4 for m in representatives(d)]
    forms += [parse_form(t) for t in ("x*y", "x^2 - 5*y^2", "(x - 2*y)^100")]
    compared = raised = 0
    for f in forms:
        forms3 = triple(f)
        at = eval_float3(*forms3)
        for x, y in points:
            want = tuple(_packed_sum(p, x, y) for p in forms3)
            if OverflowError in want:
                with pytest.raises(OverflowError):
                    at(x, y)
                raised += 1
            else:
                got = tuple(struct.pack("<d", v) for v in at(x, y))
                assert got == want, (str(f), x, y)
                compared += 1
    assert compared > 20 * len(forms) and raised > 0


def test_eval_float3_binds_its_coefficients_by_name():
    # no coefficient is formatted into the generated source: the only float
    # constant of the compiled function is the sums' starting 0.0
    f = parse_form("1/10*x^3 - 1/3*x*y^2 + 7/5*y^3")
    at = eval_float3(*second_partials(f))
    floats = [k for k in at.__code__.co_consts if isinstance(k, float)]
    assert floats == [0.0]
    assert at(0.5, -1.25) == tuple(p.eval_float(0.5, -1.25) for p in second_partials(f))


@given(forms(max_degree=5, min_degree=1))
@settings(max_examples=60)
def test_form_euler_identity(f):
    # x*f_x + y*f_y == D*f
    x, y = parse_form("x"), parse_form("y")
    assert x * f.partial_x() + y * f.partial_y() == f.degree * f


@given(forms(max_degree=5, min_degree=2), forms(max_degree=3, min_degree=1))
@settings(max_examples=40)
def test_form_product_partials_leibniz(f, g):
    fg = f * g
    assert fg.partial_x() == f.partial_x() * g + f * g.partial_x()
    assert fg.partial_y() == f.partial_y() * g + f * g.partial_y()


@given(forms(max_degree=5, min_degree=1), rationals, rationals)
@settings(max_examples=60)
def test_rotational_derivative_pointwise(f, x, y):
    # R(f) = x f_y - y f_x
    r = rotational_derivative(f)
    assert r.eval(x, y) == x * f.partial_y().eval(x, y) - y * f.partial_x().eval(x, y)


def test_rotational_derivative_kills_radial_powers():
    # x^2 + y^2 is rotation invariant, so R of any power of it vanishes
    q = parse_form("x^2 + y^2")
    for k in (1, 2, 3):
        p = q
        for _ in range(k - 1):
            p = p * q
        assert rotational_derivative(p).is_zero()


def test_restrict_charts():
    f = parse_form("x^3 - x*y^2")
    px = f.restrict("x=1")  # 1 - t^2
    assert px(Fraction(2)) == -3
    py = f.restrict("y=1")  # t^3 - t
    assert py(Fraction(2)) == 6
    with pytest.raises(ValueError):
        f.restrict("x=2")


def test_parentheses_nest_up_to_the_limit():
    assert MAX_NESTING == 100
    text = "(" * MAX_NESTING + "x^3 - x*y^2" + ")" * MAX_NESTING
    assert parse_form(text) == parse_form("x^3 - x*y^2")
    # a sibling group does not add to the depth
    assert parse_form("(" * 99 + "(x)*(y)" + ")" * 99) == parse_form("x*y")


@pytest.mark.parametrize("levels", [101, 10_000])
def test_parentheses_nested_above_the_limit_are_rejected(levels):
    with pytest.raises(ParseError, match="parentheses nested above the limit of 100 levels"):
        parse_form("(" * levels + "x^3" + ")" * levels)


_ONE = BinaryForm(0, (Fraction(1),))
_F3 = parse_form("x^3 - x*y^2")
_CURVE = CurvePolyline(((1.0, 0.0), (1.0, 0.5)), "F1", (1.0, 0.0))


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: BinaryForm(1, (1.0, 2)), TypeError,
                 "expected an exact rational, got float", id="BinaryForm-float"),
    pytest.param(lambda: BinaryForm(-1, ()), ValueError, "degree must be >= 0",
                 id="BinaryForm-negative-degree"),
    pytest.param(lambda: BinaryForm(2, (1, 2)), ValueError,
                 "degree 2 needs 3 coefficients, got 2", id="BinaryForm-coefficient-count"),
    pytest.param(lambda: BinaryForm.monomial(2, 3), ValueError, "y_power out of range",
                 id="monomial"),
    pytest.param(lambda: parse_form("x") + parse_form("x^2"), ValueError,
                 "degree mismatch: 1 vs 2", id="add"),
    pytest.param(lambda: parse_form("x") ** -1, ValueError, "negative power", id="pow"),
    pytest.param(_ONE.partial_x, ValueError, "partial derivative needs degree >= 1",
                 id="partial_x"),
    pytest.param(_ONE.partial_y, ValueError, "partial derivative needs degree >= 1",
                 id="partial_y"),
    pytest.param(lambda: rotational_derivative(_ONE), ValueError,
                 "rotational derivative needs degree >= 1", id="rotational_derivative"),
    pytest.param(lambda: representatives(2), ValueError, "representatives need degree >= 3",
                 id="representatives"),
    pytest.param(lambda: discriminant_omega(parse_form("x"), even_pad(1)), ValueError,
                 "line-product factor must have degree >= 2", id="discriminant_omega"),
    # the checked second partials that the lift and the gamma winding read
    pytest.param(lambda: _second_partials_float(parse_form("x")), ValueError,
                 "partial derivative needs degree >= 1", id="second_fundamental_form"),
    pytest.param(lambda: _second_partials_float(_F3)(math.nan, 1.0), OverflowError,
                 "second partials out of the float range at (nan, 1.0)",
                 id="second_fundamental_form-nan-point"),
    pytest.param(lambda: _second_partials_float(_F3)(1.0, -math.inf), OverflowError,
                 "second partials out of the float range at (1.0, -inf)",
                 id="second_fundamental_form-inf-point"),
    pytest.param(lambda: integrate_curve(_F3, (math.nan, 1.0)), ValueError,
                 "seed must be finite", id="integrate_curve-nan-seed"),
    pytest.param(lambda: integrate_curve(_F3, (1.0, math.inf)), ValueError,
                 "seed must be finite", id="integrate_curve-inf-seed"),
    # a finite seed whose second partials have no float value
    pytest.param(lambda: integrate_curve(_F3, (1e308, 1e308)), OverflowError,
                 "second partials out of the float range at (1e+308, 1e+308)",
                 id="integrate_curve-overflowing-seed"),
    pytest.param(lambda: polylines_to_svg([_CURVE], viewport=0.0), ValueError,
                 "viewport must be finite and positive", id="polylines_to_svg-zero-viewport"),
    pytest.param(lambda: polylines_to_svg([_CURVE], viewport=math.nan), ValueError,
                 "viewport must be finite and positive", id="polylines_to_svg-nan-viewport"),
    pytest.param(lambda: polylines_to_svg([_CURVE], viewport=math.inf), ValueError,
                 "viewport must be finite and positive", id="polylines_to_svg-inf-viewport"),
    pytest.param(lambda: polylines_to_svg([_CURVE, CurvePolyline((), "F1", (1.0, 0.0))]),
                 ValueError, "curve 1 has no points", id="polylines_to_svg-no-points"),
    pytest.param(lambda: polylines_to_svg([CurvePolyline(_CURVE.points, "F3", (1.0, 0.0))]),
                 ValueError, "curve 0 has field label 'F3', not 'F1' or 'F2'",
                 id="polylines_to_svg-unknown-field"),
])
def test_input_guards_reject_inputs_outside_their_domain(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
