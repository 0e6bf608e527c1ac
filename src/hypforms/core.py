"""Exact arithmetic for homogeneous binary forms over the rationals.

A binary form of degree D is stored densely as the coefficient tuple
(a_0, ..., a_D) of

    f(x, y) = sum_i a_i * x^(D-i) * y^i.

Coefficients are exact rationals (fractions.Fraction), but every product,
derivative and exact evaluation runs in the integer kernel below, on the
integer list that clears the coefficients over one common denominator;
Fraction appears only where a result leaves the kernel.  UniPoly and
BinaryForm share its arithmetic and its one derivative.  Floats only appear
in the float term sum, which has one rule and lives here: a form's nonzero
terms BinaryForm.float_terms, built on first use and cached on the instance
(forms never evaluated in floats pay nothing), summed left to right from
0.0.  BinaryForm.eval_float sums one form; eval_float3 compiles three such
sums into one straight-line function, bit for bit as eval_float does, for
the callers that read three forms at each of many points: the gamma and
alpha windings, the lift and the curve stepper.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm


class ParseError(ValueError):
    """Raised when a polynomial text cannot be read."""


class NotHyperbolicError(ValueError):
    """Raised when an operation requires a hyperbolic form and the input is not."""


def _rat(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


# ---------------------------------------------------------------------------
# integer polynomial kernel
#
# Dense lists of ints.  A polynomial is sum c[i] * t^i and a form of degree n
# is sum c[i] * x^(n-i) * y^i, so one product serves both, and one derivative
# serves d/dt and d/dy.  Rationals enter through _cleared (ints over the lcm
# of the denominators) and leave through _over; everything between runs on
# ints, free of Fraction normalisation.
# ---------------------------------------------------------------------------


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _mul_int(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def _dx(c: list[int]) -> list[int]:
    n = len(c) - 1
    return [(n - i) * c[i] for i in range(n)]


def _rot(c: list[int]) -> list[int]:
    """x*c_y - y*c_x, the same degree as c."""
    xcy = _deriv(c) + [0]
    ycx = [0] + _dx(c)
    return [u - v for u, v in zip(xcy, ycx)]


def _hom_eval(c: list[int], u: int, v: int) -> int:
    """sum c[i] * u^(n-i) * v^i for n = len(c) - 1, by Horner in v with the
    powers of u carried along; 0 for the empty list."""
    if not c:
        return 0
    acc = c[-1]
    up = 1
    for i in range(len(c) - 2, -1, -1):
        up *= u
        acc = acc * v + c[i] * up
    return acc


def _cleared(cs) -> tuple[list[int], int]:
    """(ints, den) with cs[i] == ints[i] / den and den the lcm of the
    denominators: the integer model of a Fraction coefficient sequence."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _over(c: list[int], den: int) -> tuple[Fraction, ...]:
    """The coefficients c[i] / den, leaving the kernel."""
    if den == 1:
        return tuple(map(Fraction, c))
    return tuple(Fraction(v, den) for v in c)


class _Arithmetic:
    """Negation, difference, products and the zero test of UniPoly and
    BinaryForm, which each build a result of their own type with _new."""

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __neg__(self):
        return self._new(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            a, da = _cleared(self.coeffs)
            b, db = _cleared(other.coeffs)
            return self._new(_over(_mul_int(a, b), da * db))
        return self._new(tuple(c * _rat(other) for c in self.coeffs))

    __rmul__ = __mul__


def _power(var: str, e: int) -> str:
    return "" if e == 0 else (var if e == 1 else f"{var}^{e}")


def _signed_sum(terms) -> str:
    """Text of a sum of (coefficient, monomial text) pairs in order: zero
    terms are skipped, a unit coefficient is dropped before a monomial, an
    empty monomial prints the bare constant, and no term at all prints 0."""
    parts = []
    for c, mono in terms:
        if c == 0:
            continue
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniPoly(_Arithmetic):
    """Dense univariate polynomial: coeffs[i] multiplies t^i, no trailing zeros."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = [_rat(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        # the zero polynomial reports degree -1
        return len(self.coeffs) - 1

    def __add__(self, other: UniPoly) -> UniPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(tuple(out))

    def _new(self, cs):
        return UniPoly(cs)

    def derivative(self) -> UniPoly:
        c, den = _cleared(self.coeffs)
        return UniPoly(_over(_deriv(c), den))

    def __call__(self, t) -> Fraction:
        # p(a/b) = (sum c_i * a^i * b^(n-i)) / b^n
        t = _rat(t)
        c, den = _cleared(self.coeffs)
        b = t.denominator
        return Fraction(_hom_eval(c, b, t.numerator), den * b ** max(self.degree, 0))

    def __str__(self) -> str:
        return _signed_sum((self.coeffs[i], _power("t", i))
                           for i in range(self.degree, -1, -1))


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryForm(_Arithmetic):
    """Homogeneous polynomial in x, y; the zero form keeps its nominal degree."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        cs = tuple(_rat(c) for c in self.coeffs)
        if len(cs) != self.degree + 1:
            raise ValueError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, got {len(cs)}"
            )
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def zero(degree: int) -> BinaryForm:
        return BinaryForm(degree, (Fraction(0),) * (degree + 1))

    @staticmethod
    def monomial(degree: int, y_power: int) -> BinaryForm:
        if not 0 <= y_power <= degree:
            raise ValueError("y_power out of range")
        cs = [Fraction(0)] * (degree + 1)
        cs[y_power] = Fraction(1)
        return BinaryForm(degree, tuple(cs))

    def eval(self, x, y) -> Fraction:
        # f(p/q, r/s) = (sum c_i * (p*s)^(D-i) * (r*q)^i) / (q*s)^D
        x, y = _rat(x), _rat(y)
        c, den = _cleared(self.coeffs)
        q, s = x.denominator, y.denominator
        return Fraction(_hom_eval(c, x.numerator * s, y.numerator * q),
                        den * (q * s) ** self.degree)

    @cached_property
    def float_terms(self) -> tuple[tuple[float, int, int], ...]:
        """The nonzero terms (float(a_i), D - i, i) of the float sum, built
        on first use and kept on the instance: most forms of the exact
        kernel are never evaluated in floats.  Raises OverflowError when a
        coefficient has no float value."""
        d = self.degree
        return tuple((float(c), d - i, i) for i, c in enumerate(self.coeffs) if c)

    def eval_float(self, x: float, y: float) -> float:
        # Terms are summed left to right without Horner, so every result is
        # the plain term-by-term float sum; eval_float3 sums by this rule.
        acc = 0.0
        for c, px, py in self.float_terms:
            acc += c * x ** px * y ** py
        return acc

    def __add__(self, other: BinaryForm) -> BinaryForm:
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return BinaryForm(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def _new(self, cs):
        return BinaryForm(len(cs) - 1, cs)

    def __pow__(self, n: int) -> BinaryForm:
        if n < 0:
            raise ValueError("negative power")
        out = BinaryForm(0, (Fraction(1),))
        for _ in range(n):
            out = out * self
        return out

    def partial_x(self) -> BinaryForm:
        if self.degree == 0:
            raise ValueError("partial derivative needs degree >= 1")
        c, den = _cleared(self.coeffs)
        return BinaryForm(self.degree - 1, _over(_dx(c), den))

    def partial_y(self) -> BinaryForm:
        if self.degree == 0:
            raise ValueError("partial derivative needs degree >= 1")
        c, den = _cleared(self.coeffs)
        return BinaryForm(self.degree - 1, _over(_deriv(c), den))

    def restrict(self, chart: str) -> UniPoly:
        """Dehomogenize: chart "x=1" gives f(1, t), chart "y=1" gives f(t, 1)."""
        if chart == "x=1":
            return UniPoly(self.coeffs)
        if chart == "y=1":
            return UniPoly(tuple(reversed(self.coeffs)))
        raise ValueError('chart must be "x=1" or "y=1"')

    def __str__(self) -> str:
        return format_form(self)


def rotational_derivative(f: BinaryForm) -> BinaryForm:
    """x*f_y - y*f_x; restricting to the unit circle differentiates in the angle."""
    if f.degree < 1:
        raise ValueError("rotational derivative needs degree >= 1")
    c, den = _cleared(f.coeffs)
    return BinaryForm(f.degree, _over(_rot(c), den))


def second_partials(f: BinaryForm) -> tuple[BinaryForm, BinaryForm, BinaryForm]:
    """(f_xx, f_xy, f_yy), built anew on each call.  A caller that evaluates
    them at many points builds them once and keeps them, as
    classify._second_partials_float and the curve stepper do through
    eval_float3."""
    fx = f.partial_x()
    fy = f.partial_y()
    return fx.partial_x(), fx.partial_y(), fy.partial_y()


def eval_float3(p: BinaryForm, q: BinaryForm, r: BinaryForm):
    """at(x, y) -> (p, q, r evaluated at (x, y)) in floats, bit for bit what
    eval_float gives.  The three sums are compiled into one straight-line
    function: one statement acc += k * x ** px * y ** py per term of
    float_terms, in order, each sum from 0.0.  A factor ** 0 is dropped (its
    value is 1.0, and * 1.0 is exact) and ** 1 is written as the bare
    variable.  The coefficients are bound by name (k0, k1, ...), never
    formatted into the source; the exponents are the form's own ints.  One
    statement per term, not one expression, keeps the compiler's recursion
    shallow at any degree."""
    ns: dict = {}
    lines = ["def at(x, y):"]
    for acc, form in zip("uvw", (p, q, r)):
        lines.append(f"    {acc} = 0.0")
        for c, px, py in form.float_terms:
            k = f"k{len(ns)}"
            ns[k] = c
            factors = [k] + [var if e == 1 else f"{var} ** {e}"
                             for var, e in (("x", px), ("y", py)) if e]
            lines.append(f"    {acc} += {' * '.join(factors)}")
    lines.append("    return u, v, w")
    exec("\n".join(lines), ns)
    return ns["at"]


# ---------------------------------------------------------------------------
# text input / output
# ---------------------------------------------------------------------------

class _Lexer:
    def __init__(self, text: str):
        self.tokens: list[str] = re.findall(r"\d+|\S", text)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok


# Largest degree parse_form accepts, for every exponent, every product and
# the coefficient-vector form alone.  It bounds the parser's work, and the
# work of an exact certificate, which grows about as D^6.  The largest degree
# any suite, test or benchmark parses is 41.
MAX_DEGREE = 100

# Most decimal digits parse_form accepts in a numeral, and in the numerator
# and the denominator of every coefficient it builds: the default limit of
# int() and str() on ints (sys.int_info.default_max_str_digits), so every
# form parse_form accepts prints, and its text parses back.  parse_form
# checks every numeral itself, as any code may lift the interpreter's limit
# (and Python before 3.10.7 has none).  It also bounds the parser's work:
# "((2^100)^100)^100" stops at its first coefficient past the limit instead
# of building one of 301,030 digits.
MAX_COEFF_DIGITS = 4300
_COEFF_BOUND = 10 ** MAX_COEFF_DIGITS

# Deepest nesting of parentheses parse_form accepts.  Each level costs the
# recursive-descent parser five Python frames, so this keeps it well inside
# the default recursion limit of 1000 wherever it is called from.
MAX_NESTING = 100

# parser works on sparse bivariate dicts {(x_power, y_power): coeff} so that
# homogeneity can be checked once at the end.  Cancelled monomials stay in
# with coefficient 0, so "0*x^3" keeps its degree 3; a zero constant term is
# homogeneous of every degree and is dropped from a sum with other monomials.


def _degree(a) -> int:
    return max(i + j for i, j in a)


def _coeff(v: Fraction) -> Fraction:
    """v, once its numerator and denominator are within MAX_COEFF_DIGITS."""
    if abs(v.numerator) >= _COEFF_BOUND or v.denominator >= _COEFF_BOUND:
        raise ParseError(f"coefficient above the limit of {MAX_COEFF_DIGITS} digits")
    return v


def _bv_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = _coeff(out.get(k, Fraction(0)) + v)
    if len(out) > 1 and out.get((0, 0), 1) == 0:
        del out[(0, 0)]
    return out


def _bv_mul(a, b):
    if _degree(a) + _degree(b) > MAX_DEGREE:
        raise ParseError(f"degree above the limit of {MAX_DEGREE}")
    # factors of m and n bits multiply to at least m + n - 1 bits, so two
    # numerators (or denominators) past this bound multiply past the limit
    # before any common factor cancels.  Within it, a product has at most one
    # bit more than the limit; parse_form checks the coefficients it returns
    # exactly.
    bits = _COEFF_BOUND.bit_length() + 1
    out: dict = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            if (u.numerator.bit_length() + v.numerator.bit_length() > bits
                    or u.denominator.bit_length() + v.denominator.bit_length() > bits):
                raise ParseError(f"coefficient above the limit of {MAX_COEFF_DIGITS} digits")
            key = (i + k, j + l)
            out[key] = out.get(key, Fraction(0)) + u * v
    return out


def _bv_scale(a, s):
    return {k: v * s for k, v in a.items()}


def _parse_expr(lx: _Lexer):
    acc = _parse_product(lx)
    while lx.peek() in ("+", "-"):
        op = lx.next()
        rhs = _parse_product(lx)
        acc = _bv_add(acc, rhs if op == "+" else _bv_scale(rhs, Fraction(-1)))
    return acc


def _parse_product(lx: _Lexer):
    acc = _parse_signed(lx)
    while lx.peek() == "*":
        lx.next()
        acc = _bv_mul(acc, _parse_signed(lx))
    return acc


def _parse_signed(lx: _Lexer):
    sign = 1
    while lx.peek() in ("+", "-"):
        if lx.next() == "-":
            sign = -sign
    val = _parse_power(lx)
    return val if sign > 0 else _bv_scale(val, Fraction(-1))


def _parse_power(lx: _Lexer):
    base = _parse_atom(lx)
    if lx.peek() == "^":
        lx.next()
        tok = lx.next()
        if not tok.isdecimal():
            raise ParseError(f"exponent must be a nonnegative integer, got {tok!r}")
        n = int(tok)
        if n > MAX_DEGREE:
            raise ParseError(f"exponent {n} is above the limit of {MAX_DEGREE}")
        (i, j), c = next(iter(base.items()))
        if len(base) == 1 and abs(c) == 1:  # a monomial such as x or -y
            if (i + j) * n > MAX_DEGREE:
                raise ParseError(f"degree above the limit of {MAX_DEGREE}")
            return {(i * n, j * n): c**n}
        out = {(0, 0): Fraction(1)}
        for bit in bin(n)[2:]:  # square and multiply
            out = _bv_mul(out, out)
            if bit == "1":
                out = _bv_mul(out, base)
        return out
    return base


def _parse_atom(lx: _Lexer):
    tok = lx.next()
    if tok == "(":
        inner = _parse_expr(lx)
        if lx.next() != ")":
            raise ParseError("missing closing parenthesis")
        return inner
    if tok == "x":
        return {(1, 0): Fraction(1)}
    if tok == "y":
        return {(0, 1): Fraction(1)}
    if tok.isdecimal():
        num = int(tok)
        if lx.peek() == "/":
            lx.next()
            den = lx.next()
            if not den.isdecimal() or int(den) == 0:
                raise ParseError("denominator must be a positive integer")
            return {(0, 0): Fraction(num, int(den))}
        return {(0, 0): Fraction(num)}
    raise ParseError(f"unexpected token {tok!r}")


_VECTOR_RE = re.compile(r"^\s*(\d+)\s*:(.*)$", re.S)
# a run of digits, with the underscores that int() and Fraction() allow
_NUMERAL_RE = re.compile(r"\d[\d_]*")
_EXPONENT_RE = re.compile(r"e([-+]?\d[\d_]*)\s*$", re.I)


def _vector_coeff(text: str) -> Fraction:
    # Fraction("1e999999999") would build a billion-digit numerator
    e = _EXPONENT_RE.search(text)
    if e and abs(int(e.group(1))) > MAX_COEFF_DIGITS:
        raise ParseError(f"decimal exponent above the limit of {MAX_COEFF_DIGITS}")
    return _coeff(Fraction(text))


def parse_form(text: str) -> BinaryForm:
    """Read a form from expression text ("x^3 - x*y^2") or a coefficient
    vector ("3: 1, 0, -1, 0").

    The expression must be homogeneous, cancelled monomials included: "x + y^2"
    and "x^2 - x^2 + y^3" are rejected, and "0*x^3" is the zero form of
    degree 3.  Degrees above MAX_DEGREE are rejected, and so is a numeral,
    or a numerator or denominator of a coefficient built from the text,
    of more than MAX_COEFF_DIGITS digits, and so are parentheses nested
    more than MAX_NESTING levels deep.
    """
    for run in _NUMERAL_RE.findall(text):
        digits = len(run) - run.count("_")
        if digits > MAX_COEFF_DIGITS:
            raise ParseError(f"numeral of {digits} digits is too long")
    m = _VECTOR_RE.match(text)
    if m:
        degree = int(m.group(1))
        if degree > MAX_DEGREE:
            raise ParseError(f"degree {degree} is above the limit of {MAX_DEGREE}")
        parts = [p.strip() for p in m.group(2).split(",")]
        if len(parts) != degree + 1:
            raise ParseError(
                f"coefficient vector for degree {degree} needs {degree + 1} entries"
            )
        try:
            return BinaryForm(degree, tuple(_vector_coeff(p) for p in parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient: {exc}") from None
    lx = _Lexer(text)
    if lx.peek() is None:
        raise ParseError("empty input")
    depth = 0
    for tok in lx.tokens:
        depth += (tok == "(") - (tok == ")")
        if depth > MAX_NESTING:
            raise ParseError(f"parentheses nested above the limit of {MAX_NESTING} levels")
    bv = _parse_expr(lx)
    if lx.peek() is not None:
        raise ParseError(f"trailing input at {lx.peek()!r}")
    degrees = {i + j for (i, j) in bv}
    if len(degrees) > 1:
        raise ParseError(f"not homogeneous: monomial degrees {sorted(degrees)}")
    d = degrees.pop()
    cs = [Fraction(0)] * (d + 1)
    for (i, j), v in bv.items():
        cs[j] = _coeff(v)
    return BinaryForm(d, tuple(cs))


def format_form(f: BinaryForm) -> str:
    """Canonical text; parse_form(format_form(f)) == f for every nonzero
    form parse_form accepts."""
    d = f.degree
    return _signed_sum(
        (c, "*".join(m for m in (_power("x", d - i), _power("y", i)) if m))
        for i, c in enumerate(f.coeffs)
    )
