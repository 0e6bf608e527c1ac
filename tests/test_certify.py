"""Certification engine: root counting, negativity decisions, witnesses.

sympy is used as an independent oracle for real-root counting and for the
definiteness decisions; the package itself never imports it.  Where sympy
is too slow for thousands of polynomials, a reference Sturm count written
here, which shares no code with the package, is the oracle.
"""

import collections
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from functools import partial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hypforms import certify
from hypforms import (
    BinaryForm,
    NotHyperbolicError,
    UniPoly,
    admissible_indices,
    count_real_linear_factors,
    hess_linear_product,
    hessian,
    is_hyperbolic,
    is_hyperbolic_polar,
    is_negative_form,
    is_nonpositive_on_unit_interval,
    linear_extension_is_hyperbolic,
    num_components,
    p_factorized,
    parse_form,
    polar_form,
    representatives,
    require_hyperbolic,
    rotational_derivative,
    sturm_count,
)

T = sympy.Symbol("t")
X, Y = sympy.symbols("x y")


def to_sympy_uni(p: UniPoly):
    return sum(sympy.Rational(c) * T**i for i, c in enumerate(p.coeffs))


def to_sympy_form(f: BinaryForm):
    d = f.degree
    return sum(
        sympy.Rational(c) * X ** (d - i) * Y**i for i, c in enumerate(f.coeffs)
    )


def distinct_real_roots(p: UniPoly):
    expr = to_sympy_uni(p)
    return sorted(set(sympy.real_roots(sympy.Poly(expr, T))))


small_rats = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def unipolys(max_degree=7):
    return st.lists(small_rats, min_size=1, max_size=max_degree + 1).map(
        lambda cs: UniPoly(tuple(cs))
    )


# ------------------------------------------------------ reference Sturm count
#
# Integer polynomials are lists of ints, lowest degree first.  The reference
# takes the squarefree part p / gcd(p, p') by one remainder sequence, and
# counts on the Sturm sequence of that part: p, p', then the negated
# remainders.  Every remainder is made primitive, a positive factor, which
# keeps its signs.  ref_isolate and ref_halve bisect on such a count, so the
# oracles of walks and witnesses share no walk with the package either.


def ref_sign(p: list[int], t: Fraction) -> int:
    """The sign of d^deg(p) p(n/d) for t = n/d, by Horner."""
    v, dk = 0, 1
    for c in reversed(p):
        v = v * t.numerator + c * dk
        dk *= t.denominator
    return (v > 0) - (v < 0)


def ref_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b, primitive."""
    r = list(a)
    lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(r) >= len(b):
        top, shift = sign * r[-1], len(r) - len(b)
        r = [lead * c for c in r]
        for j, c in enumerate(b):
            r[shift + j] -= top * c
        while r and r[-1] == 0:
            r.pop()
        g = math.gcd(*r)
        r = [c // g for c in r] if g > 1 else r
    return r


def ref_sequence(p: list[int]) -> list[list[int]]:
    seq = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(seq[-1]) > 1:
        r = ref_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return seq


def ref_sturm(p: list[int]) -> list[list[int]]:
    """The Sturm sequence of the squarefree part of the nonzero p."""
    p = list(p)
    while p[-1] == 0:
        p.pop()
    if len(p) == 1:
        return [p]
    g = [Fraction(c) for c in ref_sequence(p)[-1]]  # gcd(p, p'), up to a factor
    r, q = [Fraction(c) for c in p], []
    while len(r) >= len(g):
        q.append(r[-1] / g[-1])
        shift = len(r) - len(g)
        for j, c in enumerate(g):
            r[shift + j] -= q[-1] * c
        r.pop()
    assert not any(r)
    den = math.lcm(*(c.denominator for c in q))
    return ref_sequence([int(c * den) for c in reversed(q)])


def ref_variations(seq: list[list[int]], t) -> int:
    """The sign variations of the Sturm sequence seq at t, rational or
    +-math.inf.  They drop by one at each distinct real root."""
    def sign(c: list[int]) -> int:
        if isinstance(t, float):
            return (1 if c[-1] > 0 else -1) * (-1 if t < 0 and len(c) % 2 == 0 else 1)
        return ref_sign(c, t)

    signs = [x for x in map(sign, seq) if x]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def ref_counter(p: list[int]):
    return partial(ref_variations, ref_sturm(p))


def ref_cauchy_bound(p: list[int]) -> Fraction:
    """1 + max |p[i] / lead(p)|: every root of p lies inside (-bound, bound]."""
    return 1 + max(Fraction(abs(c), abs(p[-1])) for c in p)


def ref_isolate(counter, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """The pieces (a, b] of the bisection of (lo, hi] that hold one root
    counted by counter, ascending; a piece with more is halved again."""
    def split(a, va, b, vb):
        if va == vb:
            return []
        if va - vb == 1:
            return [(a, b)]
        m = (a + b) / 2
        vm = counter(m)
        return split(a, va, m, vm) + split(m, vm, b, vb)
    return split(lo, counter(lo), hi, counter(hi))


def ref_halve(counter, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """The half (a, m] or (m, b] of (a, b] that holds its one root."""
    m = (a + b) / 2
    return (a, m) if counter(a) - counter(m) else (m, b)


# ------------------------------------------------------------------ sturm


@given(unipolys())
@settings(max_examples=50, deadline=None)
def test_sturm_count_matches_sympy_total(p):
    if p.is_zero():
        return
    assert sturm_count(p) == len(distinct_real_roots(p))


@given(unipolys(), st.integers(min_value=-6, max_value=5))
@settings(max_examples=50, deadline=None)
def test_sturm_count_matches_sympy_window(p, a):
    if p.is_zero():
        return
    lo, hi = Fraction(a), Fraction(a + 3)
    roots = distinct_real_roots(p)
    expected = sum(1 for r in roots if lo < r <= hi)
    assert sturm_count(p, lo, hi) == expected


def linear_power(root: Fraction, m: int) -> UniPoly:
    """(q*t - p)^m for root = p/q."""
    lin = UniPoly((Fraction(-root.numerator), Fraction(root.denominator)))
    out = UniPoly((1,))
    for _ in range(m):
        out = out * lin
    return out


halves = st.integers(min_value=-6, max_value=6).map(lambda k: Fraction(k, 2))


@pytest.mark.parametrize(
    "lo, hi",
    [(0, 1), (Fraction(-2), Fraction(1, 2)), (-2, 1), (Fraction(1, 2), 1), (-3, -2),
     (Fraction(-1, 2), Fraction(1, 2)), (1, 2), (None, None)],
)
def test_sturm_count_repeated_roots_on_window_ends(lo, hi):
    # (2t - 1)^2 (t - 1)^3 (t + 2): every root is a window end somewhere
    p = linear_power(Fraction(1, 2), 2) * linear_power(Fraction(1), 3) * linear_power(Fraction(-2), 1)
    lo = None if lo is None else Fraction(lo)
    hi = None if hi is None else Fraction(hi)
    roots = distinct_real_roots(p)
    expected = sum(1 for r in roots if (lo is None or lo < r) and (hi is None or r <= hi))
    assert sturm_count(p, lo, hi) == expected


@given(
    st.lists(st.tuples(halves, st.integers(1, 3)), min_size=1, max_size=4),
    st.booleans(),
    halves,
    halves,
)
@settings(max_examples=60, deadline=None)
def test_sturm_count_matches_sympy_window_repeated_roots(factors, complex_pair, a, b):
    # repeated rational roots on a grid of halves, so that window ends and
    # the bisection midpoints of the walk land on roots of every multiplicity
    p = UniPoly((Fraction(1), Fraction(0), Fraction(1))) if complex_pair else UniPoly((1,))
    for root, m in factors:
        p = p * linear_power(root, m)
    roots = distinct_real_roots(p)
    assert sturm_count(p) == len(roots)
    if a < b:
        assert sturm_count(p, a, b) == sum(1 for r in roots if a < r <= b)
    ints = certify._int_coeffs(p.coeffs)
    walk = ref_isolate(ref_counter(ints), Fraction(-4), Fraction(4))
    for lo, hi in walk:
        assert sum(1 for r in roots if lo < r <= hi) == 1
    # the isolation ranks as the reference Sturm sequence counts at every
    # point of the walk, a root at t = 0 included
    q, _, entries = certify._isolation(ints)
    assert ref_isolate(lambda t: -certify._rank(q, entries, t), Fraction(-4), Fraction(4)) == walk
    assert certify.float_roots(p) == [float(r) for r in roots]


# roots in (-4, 4] at several multiplicities, two of them closer than the
# first bisection steps can separate
ISOLATE_ROOTS = {Fraction(-3): 1, Fraction(-1, 2): 2, Fraction(1, 3): 1,
                 Fraction(3, 8): 3, Fraction(1): 1, Fraction(4): 2}


def _splits(roots, a: Fraction, b: Fraction) -> int:
    """Bisection points a walk needs until each piece of (a, b] holds one root."""
    if sum(1 for r in roots if a < r <= b) <= 1:
        return 0
    m = (a + b) / 2
    return 1 + _splits(roots, a, m) + _splits(roots, m, b)


def test_root_witness_ranks_once_per_bisection_point(monkeypatch):
    p = UniPoly((1,))
    for root, m in ISOLATE_ROOTS.items():
        p = p * linear_power(root, m)
    q, g, roots = certify._isolation(certify._int_coeffs(p.coeffs))
    rank, points, intervals = certify._rank, [], []

    def counted(q, roots, t):
        points.append(t)
        return rank(q, roots, t)

    def touch(g, a, b):
        intervals.append((a, b))

    monkeypatch.setattr(certify, "_rank", counted)
    monkeypatch.setattr(certify, "_rational_root", touch)
    # a target negative at every end, whose touches are all irrational, so
    # that the walk reaches every piece and finds no witness
    assert certify._root_witness([-1], q, g, roots) is None
    bound = ref_cauchy_bound(q)
    splits = _splits(ISOLATE_ROOTS, -bound, bound)
    assert splits >= 5
    assert len(points) == splits
    assert len(set(points)) == len(points)
    assert -bound not in points and bound not in points
    # ascending, one root in each, every root covered
    assert intervals == sorted(intervals)
    assert [sum(1 for r in ISOLATE_ROOTS if a < r <= b) for a, b in intervals] == [1] * 6
    assert all(b1 <= a2 for (_, b1), (a2, _) in zip(intervals, intervals[1:]))


@pytest.mark.parametrize("root, at_one, narrowed, at_most", [
    (Fraction(1, 3), False, (Fraction(0), Fraction(1, 2)), True),
    (Fraction(1, 2), False, (Fraction(1, 2), Fraction(1, 2)), True),  # t is the root
    (Fraction(2, 3), False, (Fraction(1, 2), Fraction(1)), False),
    (Fraction(3, 4), True, (Fraction(1, 2), Fraction(1)), False),
])
def test_narrow_keeps_the_side_with_the_root(root, at_one, narrowed, at_most):
    # the entry (0, 1) of one root of the squarefree q, which has another at
    # -5 and, with at_one, one at the end b = 1; s is the sign of q just
    # left of b, read between the root and 1
    p = linear_power(root, 1) * linear_power(Fraction(-5), 1)
    if at_one:
        p = p * linear_power(Fraction(1), 1)
    q = certify._int_coeffs(p.coeffs)
    s = ref_sign(q, (root + 1) / 2)
    entry = [Fraction(0), Fraction(1), s]
    assert certify._narrow(q, entry, Fraction(1, 2)) == at_most
    assert entry == [*narrowed, 0 if narrowed[0] == narrowed[1] else s]


def test_sturm_count_half_open_convention():
    # roots of t(t-1)(t-2) in (0, 2] -> {1, 2}, the left endpoint excluded
    p = UniPoly((Fraction(0), Fraction(2), Fraction(-3), Fraction(1)))
    assert sturm_count(p, Fraction(0), Fraction(2)) == 2
    assert sturm_count(p, Fraction(-1), Fraction(0)) == 1


def test_sturm_handles_repeated_roots():
    # (t-1)^3 (t+2): two distinct real roots
    cube = UniPoly((Fraction(-1), Fraction(1)))
    p = cube * cube * cube * UniPoly((Fraction(2), Fraction(1)))
    assert sturm_count(p) == 2


def test_divexact_rejects_an_inexact_division():
    with pytest.raises(ValueError, match="inexact"):
        certify._divexact([1, 0, 1], [1, 2])  # a quotient coefficient 1/2
    with pytest.raises(ValueError, match="inexact"):
        certify._divexact([1, 0, 1], [1, 1])  # t^2 + 1 = (t + 1)(t - 1) + 2


def test_squarefree_part_of_repeated_roots():
    # (t - 1)^3 (t + 2)^2 / 5 has the primitive squarefree part (t - 1)(t + 2)
    # and gcd(p, p') = (t - 1)^2 (t + 2)
    p = Fraction(1, 5) * (linear_power(Fraction(1), 3) * linear_power(Fraction(-2), 2))
    assert certify._squarefree(certify._int_coeffs(p.coeffs)) == ([-2, 1, 1], [2, -3, 0, 1])
    assert certify._squarefree([-2, 0, 1]) == ([-2, 0, 1], [1])  # t^2 - 2


@pytest.mark.parametrize("root", [
    Fraction(2**53 + 1, 2**53),   # halfway between 1 and the next float: rounds to even 1.0
    Fraction(2**53 + 3, 2**53),   # halfway again: rounds to the even neighbour above
    Fraction(2**53 + 2, 2**53),   # a float
    Fraction(1, 3),
    Fraction(-10**20 - 1, 7),
    Fraction(2**53 + 1, 2**53) + Fraction(1, 2**120),  # just above halfway: rounds up
    Fraction(2**53 + 1, 2**53) - Fraction(1, 2**120),  # just below halfway: rounds down
    Fraction(1, 2**1074),         # the least subnormal
    Fraction(-1, 2**1074),
    Fraction(3, 2**1076),         # between subnormals: rounds to the least one
])
def test_float_roots_round_rational_roots_to_nearest(root):
    # (t - root)(t^2 + 1): one real root, rounded as float(Fraction) rounds it
    p = linear_power(root, 1) * UniPoly((Fraction(1), Fraction(0), Fraction(1)))
    assert certify.float_roots(p) == [float(root)]


def test_float_roots_round_irrational_roots_to_nearest():
    # 2t^3 - 10t = 2t(t^2 - 5); sqrt is correctly rounded
    p = UniPoly((Fraction(0), Fraction(-10), Fraction(0), Fraction(2)))
    assert certify.float_roots(p) == [-math.sqrt(5), 0.0, math.sqrt(5)]
    assert certify.float_roots(UniPoly((3,))) == []


# ------------------------------------------------------------ target forms


def sympy_poly(f: BinaryForm) -> sympy.Poly:
    return sympy.Poly(to_sympy_form(f), X, Y, domain="QQ")


def from_sympy_poly(poly: sympy.Poly, degree: int) -> BinaryForm:
    rats = (poly.coeff_monomial((degree - i, i)) for i in range(degree + 1))
    return BinaryForm(degree, tuple(Fraction(int(r.p), int(r.q)) for r in rats))


def sympy_rot(poly: sympy.Poly) -> sympy.Poly:
    return sympy.Poly(X, X, Y) * poly.diff(Y) - sympy.Poly(Y, X, Y) * poly.diff(X)


# The references run on sympy, not on BinaryForm, whose products and
# derivatives share the integer kernel with hessian and polar_form.
def reference_hessian(f: BinaryForm) -> BinaryForm:
    F = sympy_poly(f)
    h = F.diff((X, 2)) * F.diff((Y, 2)) - F.diff(X, Y) ** 2
    return from_sympy_poly(h, 2 * f.degree - 4)


def reference_polar(f: BinaryForm) -> BinaryForm:
    d = f.degree
    F = sympy_poly(f)
    r1 = sympy_rot(F)
    r2 = sympy_rot(r1)
    return from_sympy_poly(d * d * F**2 + d * F * r2 - (d - 1) * r1**2, 2 * d)


def test_integer_targets_match_fraction_reference():
    rng = random.Random(2718)
    for k in range(150):
        d = rng.randint(1, 9)
        # zero coefficients and denominators up to 12, the zero form included
        cs = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(d + 1)
        )
        f = BinaryForm(d, cs if k else (Fraction(0),) * (d + 1))
        assert polar_form(f) == reference_polar(f)
        if d >= 2:
            assert hessian(f) == reference_hessian(f)


def test_kernel_matches_sympy():
    # products, derivatives, the rotational derivative and exact evaluation
    # of BinaryForm and UniPoly, and certify._sign_at, on seeded forms with
    # zero and non-integer coefficients, degree 0 and the zero form included
    rng = random.Random(1618)
    points = [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
              (Fraction(-3, 2), Fraction(5, 7)), (Fraction(-1), Fraction(-2)),
              (Fraction(2, 3), Fraction(-4))]

    def form(d: int) -> BinaryForm:
        return BinaryForm(d, tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(d + 1)
        ))

    for k in range(80):
        d, e = rng.randint(0, 6), rng.randint(0, 6)
        f = form(d) if k % 8 else BinaryForm.zero(d)
        g = form(e)
        F, G = sympy_poly(f), sympy_poly(g)
        assert f * g == from_sympy_poly(F * G, d + e)
        assert f ** 2 == from_sympy_poly(F**2, 2 * d)
        if d >= 1:
            assert f.partial_x() == from_sympy_poly(F.diff(X), d - 1)
            assert f.partial_y() == from_sympy_poly(F.diff(Y), d - 1)
            assert rotational_derivative(f) == from_sympy_poly(sympy_rot(F), d)
        for x, y in points:
            want = F.eval({X: sympy.Rational(x), Y: sympy.Rational(y)})
            assert f.eval(x, y) == Fraction(int(want.p), int(want.q))

        p, q = f.restrict("x=1"), g.restrict("y=1")
        P, Q = to_sympy_uni(p), to_sympy_uni(q)
        assert to_sympy_uni(p * q) == sympy.expand(P * Q)
        assert to_sympy_uni(p.derivative()) == sympy.diff(P, T)
        den = math.lcm(*(c.denominator for c in p.coeffs))
        ints = [int(c * den) for c in p.coeffs]
        for t, _ in points:
            want = sympy.Rational(sympy.sympify(P).subs(T, sympy.Rational(t)))
            assert p(t) == Fraction(int(want.p), int(want.q))
            assert certify._sign_at(ints, t) == sympy.sign(want)


def certificate_digest(forms) -> str:
    rows = []
    for f in forms:
        for cert in (is_hyperbolic(f), is_hyperbolic_polar(f)):
            w = cert.witness
            rows.append([cert.verdict, None if w is None else [str(w[0]), str(w[1])]])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_certificates_are_pinned():
    # verdicts and witnesses of both routes on every representative with
    # D <= 21, and on l^2 * g forms whose Hessian vanishes on the line l;
    # recorded with the Fraction-built targets and the two-pass Sturm chain
    # (gcd sequence, then a second sequence on the squarefree part)
    reps = [m.form for d in range(3, 22) if d != 4 for m in representatives(d)]
    repeated = []
    for s in (Fraction(1), Fraction(-2), Fraction(1, 3)):
        line = BinaryForm(1, (Fraction(1), -s))
        for d in (3, 5, 6, 7, 9):
            repeated += [line * line * m.form for m in representatives(d)]
    assert len(reps) == 107 and len(repeated) == 39
    assert certificate_digest(reps) == (
        "0bad3a1a7e8e1a7edeeee4076dfe13a9198027cad4af65861491f8e6f712e70d"
    )
    assert certificate_digest(repeated) == (
        "d18dac3622121d24c75e4f6e26a99f5beb1f0d6ffcff386000e9adfedcd864fe"
    )


@pytest.mark.parametrize(
    "text, witness_t",
    [
        # -(repeated line)^2 * (two lines) [* a definite quadratic]: a sign
        # change inside, so the witness is an end of an isolating interval,
        # which the Cauchy bound of the squarefree part places
        ("-32*x^6 - 392*x^5*y - 1688*x^4*y^2 - 3146*x^3*y^3 - 3114*x^2*y^4"
         " - 2754*x*y^5 - 1458*y^6", Fraction(-56, 81)),
        ("-72*x^4 - 582*x^3*y - 1649*x^2*y^2 - 1840*x*y^3 - 576*y^4", Fraction(-275, 144)),
        ("-48*x^4 - 592*x^3*y - 2240*x^2*y^2 - 3392*x*y^3 - 1792*y^4", Fraction(-67, 112)),
    ],
)
def test_non_squarefree_rejection_witness_is_pinned(text, witness_t):
    h = parse_form(text)
    assert is_negative_form(h) == (False, (Fraction(1), witness_t))
    assert h.eval(1, witness_t) > 0


def test_certify_calls_the_traced_module_globals(monkeypatch):
    # the benchmark's tracer times hessian, polar_form and is_negative_form
    # by rebinding these module attributes; _certify must go through them
    calls = []
    for name in ("hessian", "polar_form", "is_negative_form"):
        inner = getattr(certify, name)

        def wrapper(*args, _inner=inner, _name=name):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(certify, name, wrapper)
    certify._certify.cache_clear()
    f = parse_form("x^3 - 7*x*y^2 + y^3")
    assert is_hyperbolic(f).is_hyperbolic
    assert is_hyperbolic_polar(f).is_hyperbolic
    assert calls == ["hessian", "is_negative_form", "polar_form", "is_negative_form"]


# --------------------------------------------------------------- negativity


def hyperbolic_oracle(f: BinaryForm) -> bool:
    """sympy decision: Hess f < 0 everywhere off the origin."""
    if f.degree < 2:
        return False
    h = hessian(f)
    if h.eval(1, 0) >= 0 or h.eval(0, 1) >= 0:
        return False
    slice_ = sympy.Poly(to_sympy_form(h).subs(X, T).subs(Y, 1), T)
    return len(sympy.real_roots(slice_)) == 0


def random_form(rng: random.Random, degree: int) -> BinaryForm:
    return BinaryForm(
        degree, tuple(Fraction(rng.randint(-9, 9)) for _ in range(degree + 1))
    )


def test_is_hyperbolic_matches_sympy_oracle():
    rng = random.Random(1302)
    for _ in range(120):
        f = random_form(rng, rng.randint(2, 6))
        if f.is_zero():
            continue
        assert is_hyperbolic(f).is_hyperbolic == hyperbolic_oracle(f)


def test_known_hyperbolic_forms():
    for text in ("x^3 - x*y^2", "x*y", "x^2 - y^2", "x^3*y - x*y^3"):
        cert = is_hyperbolic(parse_form(text))
        assert cert.is_hyperbolic
        assert cert.witness is None


def test_known_rejections_carry_valid_witness():
    for text in ("x^2 + y^2", "x^4 - y^4", "x^4 + x^2*y^2", "x^3"):
        f = parse_form(text)
        cert = is_hyperbolic(f)
        assert not cert.is_hyperbolic
        w = cert.witness
        assert w is not None
        assert (w[0], w[1]) != (0, 0)
        assert hessian(f).eval(w[0], w[1]) >= 0


def test_polar_rejections_carry_valid_witness():
    for text in ("x^2 + y^2", "x^4 - y^4", "x^4 + x^2*y^2"):
        f = parse_form(text)
        cert = is_hyperbolic_polar(f)
        assert not cert.is_hyperbolic
        w = cert.witness
        assert w is not None
        assert polar_form(f).eval(w[0], w[1]) >= 0


def test_methods_agree_on_random_corpus():
    rng = random.Random(77)
    for _ in range(120):
        f = random_form(rng, rng.randint(2, 7))
        if f.is_zero():
            continue
        assert is_hyperbolic(f).verdict == is_hyperbolic_polar(f).verdict


def test_is_negative_form_definite():
    ok, w = is_negative_form(parse_form("-1*x^2 - y^2"))
    assert ok and w is None


def test_is_negative_form_rational_touch_gives_witness():
    # -(x^2-y^2)^2 (x^2+y^2) vanishes on the rational lines y = +-x
    q = parse_form("(x^2 - y^2)^2")
    f = Fraction(-1) * (q * parse_form("x^2 + y^2"))
    ok, w = is_negative_form(f)
    assert not ok
    assert w is not None
    assert f.eval(w[0], w[1]) == 0


def test_is_negative_form_irrational_touch_witnessless():
    # -(x^2-2y^2)^2 (x^2+y^2) vanishes only on irrational lines: no rational
    # witness exists, and the decision must still be "not negative"
    q = parse_form("(x^2 - 2*y^2)^2")
    f = Fraction(-1) * (q * parse_form("x^2 + y^2"))
    ok, w = is_negative_form(f)
    assert not ok
    assert w is None


def sympy_slice(h: BinaryForm):
    return sympy.Poly(to_sympy_form(h).subs(X, 1).subs(Y, T), T)


DEFINITE = ("x^2 + y^2", "3*x^2 + x*y + 2*y^2", "x^4 + y^4", "(10^12 + 1)*x^2 - x*y + 7*y^2")


@pytest.mark.parametrize("u, v", [
    (10**9 + 7, 10**9 + 9),
    (-(2**61 - 1), 3**40),
    (5**30, 10**12 + 39),
    (1, 10**15 + 37),
])
@pytest.mark.parametrize("k", DEFINITE)
def test_is_negative_form_returns_a_large_rational_touch(monkeypatch, u, v, k):
    # -(v*y - u*x)^2 * k with k definite touches zero only on the line of
    # slope u/v, whose numerator and denominator are past 10^9
    refined = []
    inner = certify._rational_root

    def spy(g, a, b):
        refined.append(g)
        return inner(g, a, b)

    monkeypatch.setattr(certify, "_rational_root", spy)
    line = BinaryForm(1, (Fraction(-u), Fraction(v)))
    h = Fraction(-1) * (line * line * parse_form(k))
    assert is_negative_form(h) == (False, (Fraction(1), Fraction(u, v)))
    p = sympy_slice(h)
    assert p.eval(sympy.Rational(u, v)) == 0
    # the touch is refined on gcd(h, h'), not on the squarefree part of h
    (g,) = refined
    assert sympy.Poly(list(reversed(g)), T).monic() == sympy.gcd(p, p.diff(T)).monic()


@pytest.mark.parametrize("a, b", [(2, 1), (3, 2), (10**10 + 1, 3), (3**21, 2**31), (7 * 10**12, 10**9 + 7)])
@pytest.mark.parametrize("k", DEFINITE)
def test_is_negative_form_irrational_touches_give_no_witness(a, b, k):
    # -(b*x^2 - a*y^2)^2 * k touches zero on the lines of slope +-sqrt(b/a)
    assert not sympy.sqrt(sympy.Rational(b, a)).is_rational
    q = parse_form(f"{b}*x^2 - {a}*y^2")
    h = Fraction(-1) * (q * q * parse_form(k))
    assert is_negative_form(h) == (False, None)
    assert len(sympy.real_roots(sympy_slice(h))) == 4  # +-sqrt(b/a), each twice
    assert sympy_slice(h).ground_roots() == {}


@pytest.mark.parametrize("d, k", [(21, 4), (21, 5), (31, 4), (31, 5)])
def test_repeated_line_rejections_carry_the_touch_as_witness(d, k):
    # l^2 * g for l = x - s*y and g a representative of degree d - 2: the
    # Hessian and the polar form both touch zero on l, and the leading
    # coefficients of their squarefree parts are past 10^9
    s = (1, 2)[k % 2]
    line = BinaryForm(1, (Fraction(1), Fraction(-s)))
    f = line * line * representatives(d - 2)[k].form
    for cert, target in ((is_hyperbolic(f), hessian(f)), (is_hyperbolic_polar(f), polar_form(f))):
        assert not cert.is_hyperbolic
        assert cert.witness == (Fraction(1), Fraction(1, s))
        assert target.eval(*cert.witness) == 0
        ps = certify._squarefree(certify._int_coeffs(target.coeffs))[0]
        assert abs(ps[-1]) > 10**9


# ------------------------------------------------------ Descartes accept test


def descartes_accepts(ints: list[int]) -> bool:
    """The accept test of is_negative_form on h(1, t), both half-lines."""
    alternated = [-c if i % 2 else c for i, c in enumerate(ints)]
    return certify._descartes_negative(ints) and certify._descartes_negative(alternated)


def sturm_accepts(ints: list[int]) -> bool:
    counter = ref_counter(ints)
    return counter(-math.inf) == counter(math.inf)


def test_descartes_and_sturm_agree_on_seeded_targets():
    # Hessian and polar targets: every representative with D <= 41, seeded
    # random forms, and l^2 * g forms whose h(1, t) has a double root at the
    # dyadic t = 1/s, which the bisection meets as a midpoint.  Sturm runs on
    # the representatives up to D = 21; above that its verdict is their
    # known one, hyperbolic, at a cost of about 40 s here.
    rng = random.Random(1212)
    reps = [m.form for d in range(3, 42) if d != 4 for m in representatives(d)]
    rand = [f for f in (random_form(rng, rng.randint(2, 12)) for _ in range(1500))
            if not f.is_zero()]
    dyadic = [BinaryForm(1, (Fraction(1), Fraction(-s))) ** 2 * m.form
              for s in (1, 2) for d in range(3, 12) if d != 4 for m in representatives(d)]
    bisected = rejected = 0
    for forms, known in ((reps, True), (rand, None), (dyadic, False)):
        for f in forms:
            for target in (hessian(f), polar_form(f)):
                if target.is_zero():
                    continue
                ints = certify._int_coeffs(target.coeffs)
                if ints[0] >= 0 or ints[-1] >= 0:
                    assert known is not True
                    continue
                bisected += 1
                want = sturm_accepts(ints) if f.degree <= 21 or known is None else known
                assert known is None or want == known
                got = descartes_accepts(ints)
                assert got == want, (str(f), target.degree)
                rejected += not got
    assert bisected >= 2000 and rejected >= 100


def test_conjugate_pair_near_the_axis_is_accepted_by_the_isolation(monkeypatch):
    # h(1, t) = -((a t - 1)^2 + t^12) has no real root; a pair of roots lies
    # about a^-7 (near 2^-56) off the axis at t = 1/a, far nearer than a
    # quadratic with 16-bit coefficients can put one, so the bisection stops
    # at its depth cap (every midpoint is negative), and the isolation of the
    # squarefree part, which has no cap, finds no root and accepts
    a = 255
    h = Fraction(-1) * (parse_form(f"x^10*(x - {a}*y)^2") + parse_form("y^12"))
    ints = certify._int_coeffs(h.coeffs)
    assert ints[1] == 2 * a and max(map(int.bit_length, ints)) == 16
    assert sympy_slice(h).count_roots() == 0
    assert not certify._descartes_negative(ints)
    isolated = []
    inner = certify._isolation

    def spy(p, unit=False):
        q, g, roots = inner(p, unit)
        isolated.append((p, unit, q, g, roots))
        return q, g, roots

    monkeypatch.setattr(certify, "_isolation", spy)
    assert is_negative_form(h) == (True, None)
    assert isolated == [(ints, False, ints, [1], [])]  # ints is squarefree


def test_accepting_pfact_81_runs_no_isolation(monkeypatch):
    # D = 81: both targets are accepted by the capped walk alone
    def no_isolation(p):
        raise AssertionError("a squarefree part was built")

    monkeypatch.setattr(certify, "_squarefree", no_isolation)
    certify._certify.cache_clear()
    f = p_factorized(40).form
    assert f.degree == 81
    assert is_hyperbolic(f).is_hyperbolic
    assert is_hyperbolic_polar(f).is_hyperbolic
    certify._certify.cache_clear()


def descartes_variations(c: list[int]) -> int:
    """min(2, the sign variations of (x+1)^n c(1/(x+1))), read off the
    transform itself."""
    signs = [x for x in certify._shift_one(c[::-1]) if x]
    return min(2, sum(x * y < 0 for x, y in zip(signs, signs[1:])))


def test_descartes_count_matches_its_definition_on_seeded_lists():
    # lengths 1 to 40, both signs of c[0], zero entries inside.  Half of
    # the lists are drawn as c, and half as the transform, which is then
    # shifted back by -1 and reversed, so that every count comes up.
    # Length 1 is the node left when a midpoint root of a linear q is
    # divided out.
    rng = random.Random(1515)
    seen, zeros = collections.Counter(), 0
    for trial in range(2400):
        n = trial % 40
        s, size, flip = rng.choice((-1, 1)), rng.choice((1, 9, 10**6)), rng.random() / 2
        c = [s * rng.randint(1, size)]
        for _ in range(n):
            s = -s if rng.random() < flip else s
            c.append(s * rng.randint(0, size))
        if trial % 2:
            t = c[::-1]  # the transform, led by c[0]
            c = [sum(t[i] * math.comb(i, m) * (-1) ** (i - m) for i in range(m, n + 1))
                 for m in range(n, -1, -1)]
            assert certify._shift_one(c[::-1]) == t
        got = certify._descartes_count(c)
        assert got == descartes_variations(c), c
        seen[got, c[0] > 0] += 1
        zeros += 0 in c
    assert min(seen[v, s] for v in (0, 1, 2) for s in (False, True)) >= 100, seen
    assert zeros >= 500


def test_capped_walk_ends_at_its_depth_cap_on_a_non_dyadic_touch(monkeypatch):
    # h(1, t) = -(3t - 1)^2 (t^2 + 1) touches zero at t = 1/3, which no
    # bisection midpoint meets, so one node of every depth keeps its
    # variations until the cap k + tau
    q = certify._mul_int([-1, 6, -9], [1, 0, 1])
    n, k, tau = len(q) - 1, certify._fujiwara_exponent(q), max(map(int.bit_length, q))
    nodes = []
    count = certify._descartes_count

    def spy(c):
        nodes.append(c)
        return count(c)

    monkeypatch.setattr(certify, "_descartes_count", spy)
    assert list(certify._positive_roots(q, capped=True)) == [None]
    assert len(nodes) <= 1 + 2 * n * (k + tau)
    # the node that met the cap is q on the interval of width 2^-tau around
    # 1/3, that is depth k + tau, up to a positive factor
    j = (1 << tau) // 3
    want = [sum(Fraction(c, 1 << (tau * i)) * math.comb(i, m) * j ** (i - m)
                for i, c in enumerate(q) if i >= m) for m in range(n + 1)]
    last = nodes[-1]
    assert last[0] * want[0] > 0
    assert all(a * want[0] == b * last[0] for a, b in zip(last, want))
    assert not certify._descartes_negative(q)
    # uncapped, on the squarefree part: one interval, around 1/3
    [(a, b)] = certify._positive_roots(certify._squarefree(q)[0])
    assert a < Fraction(1, 3) < b
    # a touch at the midpoint t = 1/2 is met exactly
    half = Fraction(1, 2)
    q = certify._mul_int([-1, 4, -4], [1, 0, 1])
    assert next(certify._positive_roots(q, capped=True)) == (half, half)


def sturm_decision(ints: list[int]) -> tuple[bool, tuple | None]:
    """is_negative_form after its accept test, decided on reference Sturm
    sequences: that of ints counts, isolates and refines its roots, and
    that of gcd(ints, ints') refines a touch."""
    seq = ref_sturm(ints)
    if ref_variations(seq, -math.inf) == ref_variations(seq, math.inf):
        return True, None
    bound = ref_cauchy_bound(seq[0])
    touch = ref_sturm(ref_sequence(ints)[-1])
    lead = abs(touch[0][-1])
    for a, b in ref_isolate(partial(ref_variations, seq), -bound, bound):
        if ref_sign(ints, b) >= 0:
            return False, (Fraction(1), b)
        while (b - a) * lead * lead >= 1:
            a, b = ref_halve(partial(ref_variations, touch), a, b)
        c = ((a + b) / 2).limit_denominator(lead)
        if ref_sign(touch[0], c) == 0:
            return False, (Fraction(1), c)
    return False, None


def negative_definite(rng: random.Random, degree: int) -> list[int]:
    """-(a product of quadratics with no real root), of the given even degree."""
    out = [-1]
    for _ in range(degree // 2):
        b = rng.randint(-9, 9)
        c = rng.randint(b * b // 4 + 1, b * b // 4 + 20)
        out = certify._mul_int(out, [c, b, 1])
    return out


def test_isolation_and_sturm_walk_agree_on_seeded_rejection_targets():
    # h(1, t) for touches (v t - u)^2 and (b t^2 - a)^2 times a negative
    # definite factor, for Hessian and polar targets of l^2 * g with the
    # touch at t = 1, 1/2, 1/3 and 5/7, and for seeded random forms: every
    # target with a real root, whose verdict and witness come from the
    # isolation after the accept test of is_negative_form
    rng = random.Random(1414)
    targets = []
    for _ in range(900):
        u, v = rng.randint(-40, 40), rng.randint(1, 40)
        touch = certify._mul_int([-u, v], [-u, v])
        if rng.random() < 0.3:  # two sign changes
            w = rng.randint(1, 9)
            touch = certify._mul_int(touch, [w * rng.randint(1, 81), -10 * w, 1])
        targets.append(certify._mul_int(touch, negative_definite(rng, 2 * rng.randint(0, 4))))
    for _ in range(600):
        a, b = rng.randint(1, 60), rng.randint(1, 60)
        square = certify._mul_int([-a, 0, b], [-a, 0, b])
        targets.append(certify._mul_int(square, negative_definite(rng, 2 * rng.randint(0, 3))))
    forms = [BinaryForm(1, (Fraction(s.numerator), Fraction(-s.denominator))) ** 2 * m.form
             for s in map(Fraction, ("1", "1/2", "1/3", "5/7"))
             for d in range(3, 14) if d != 4 for m in representatives(d)]
    forms += [random_form(rng, rng.randint(2, 10)) for _ in range(500)]
    for f in forms:
        for target in (hessian(f), polar_form(f)):
            if not target.is_zero() and target.degree % 2 == 0:
                targets.append(certify._int_coeffs(target.coeffs))
    rejected = witnessless = 0
    for ints in targets:
        ints = certify._primitive(certify._trim(ints))
        if len(ints) < 2 or ints[0] >= 0 or ints[-1] >= 0:
            continue
        want = sturm_decision(ints)
        if want[0]:
            continue
        h = BinaryForm(len(ints) - 1, tuple(map(Fraction, ints)))
        assert is_negative_form(h) == want, ints
        rejected += 1
        witnessless += want[1] is None
    assert rejected >= 2000 and witnessless >= 100


def test_heuristic_gcd_matches_sympy_on_seeded_pairs(monkeypatch):
    # a = g * u and b = g * w for random g, u and w, and _hgcd returns
    # (g, a/g, b/g); seed 0 gives a pair whose first xi leaves an extra
    # factor, so that xi grows
    steps = []
    digits = certify._digits

    def spy(h, k):
        steps.append(k)
        return digits(h, k)

    monkeypatch.setattr(certify, "_digits", spy)
    grown = 0
    for seed in range(200):
        rng = random.Random(seed)

        def poly(degree, size):
            return [rng.randint(-size, size) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, size)]

        g = poly(rng.randint(0, 3), 9)
        a = certify._primitive(certify._mul_int(g, poly(rng.randint(1, 6), 9)))
        b = certify._primitive(certify._mul_int(g, poly(rng.randint(1, 6), 9)))
        steps.clear()
        got, a_over, b_over = certify._hgcd(a, b)
        want = sympy.Poly(list(reversed(a)), T).gcd(sympy.Poly(list(reversed(b)), T))
        want = [int(c) for c in reversed(want.all_coeffs())]
        if want[-1] < 0:
            want = [-c for c in want]
        assert got == want, seed
        # the cofactors are the quotients of the divisions that prove g
        assert certify._mul_int(got, a_over) == a and certify._mul_int(got, b_over) == b, seed
        grown += len(steps) > 1
        if seed == 0:
            assert len(steps) == 2
    assert grown >= 5


def test_repeated_line_rejections_of_the_certify_workload():
    # the D = 31 l^2 * g forms of the certify workload: both routes reject
    # on the isolation of the squarefree part, with the touch as witness
    certify._certify.cache_clear()
    bases = representatives(29)
    for k in range(6):
        s = (1, 2)[k % 2]
        line = BinaryForm(1, (Fraction(1), Fraction(-s)))
        f = line * line * bases[k * len(bases) // 6].form
        for cert in (is_hyperbolic(f), is_hyperbolic_polar(f)):
            assert not cert.is_hyperbolic
            assert cert.witness == (Fraction(1), Fraction(1, s))
    certify._certify.cache_clear()


def int_poly(factors) -> list[int]:
    """Integer coefficient list, lowest degree first, of a product of UniPolys."""
    out = UniPoly((1,))
    for f in factors:
        out = out * f
    return certify._int_coeffs(out.coeffs)


def rational_root_oracle(g: list[int], a: Fraction, b: Fraction):
    """The rational root of g in (a, b], from sympy, or None."""
    rats = [r for r in sympy.Poly(list(reversed(g)), T, domain="QQ").ground_roots()
            if a < Fraction(int(r.p), int(r.q)) <= b]
    assert len(rats) <= 1
    return Fraction(int(rats[0].p), int(rats[0].q)) if rats else None


QUAD_2 = UniPoly((Fraction(-2), Fraction(0), Fraction(1)))      # t^2 - 2
QUAD_1 = UniPoly((Fraction(1), Fraction(0), Fraction(1)))       # t^2 + 1


@pytest.mark.parametrize("factors, a, b, root", [
    # roots at the points that bisecting (0, 1] reaches
    ([linear_power(Fraction(1, 2), 2)], Fraction(0), Fraction(1), Fraction(1, 2)),
    ([linear_power(Fraction(3, 4), 2), QUAD_1], Fraction(0), Fraction(1), Fraction(3, 4)),
    ([linear_power(Fraction(3, 8), 3)], Fraction(0), Fraction(1), Fraction(3, 8)),
    ([linear_power(Fraction(1), 2), linear_power(Fraction(-3), 1)], Fraction(0), Fraction(1), Fraction(1)),
    ([linear_power(Fraction(0), 2), QUAD_1], Fraction(-1), Fraction(1), Fraction(0)),
    # the denominator equals the leading coefficient of the squarefree part
    ([linear_power(Fraction(3, 7), 2)], Fraction(0), Fraction(1), Fraction(3, 7)),
    ([linear_power(Fraction(3, 7), 2), linear_power(Fraction(5, 11), 1)], Fraction(2, 5), Fraction(4, 9), Fraction(3, 7)),
    # an irrational root
    ([QUAD_2, QUAD_2], Fraction(1), Fraction(2), None),
], ids=["1/2", "3/4", "3/8", "at-b", "zero", "3/7", "3/7-narrow", "sqrt2"])
def test_rational_root_on_chosen_intervals(factors, a, b, root):
    g = int_poly(factors)
    assert rational_root_oracle(g, a, b) == root
    assert certify._rational_root(g, a, b) == root


def test_rational_root_matches_sympy_on_seeded_polynomials():
    # every isolating interval of products of (q*t - p)^m and quadratics with
    # irrational or no real roots, numerators and denominators up to 10^6
    rng = random.Random(2718)
    checked = rational = 0
    for _ in range(60):
        bits = rng.choice((3, 10, 20))
        factors = [
            linear_power(Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits)),
                         rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.5:
            c = rng.randint(1, 2**bits)
            r = rng.choice((2, 3, 5, 6, 7)) * c * c + rng.choice((0, c))
            factors.append(UniPoly((Fraction(-r), Fraction(0), Fraction(rng.choice((1, 4, 9))))))
        g = int_poly(factors)
        bound = ref_cauchy_bound(ref_sturm(g)[0])
        for a, b in ref_isolate(ref_counter(g), -bound, bound):
            want = rational_root_oracle(g, a, b)
            assert certify._rational_root(g, a, b) == want
            checked += 1
            rational += want is not None
    assert rational >= 60 and checked - rational >= 10


def test_require_hyperbolic_raises():
    with pytest.raises(NotHyperbolicError):
        require_hyperbolic(parse_form("x^2 + y^2"))
    require_hyperbolic(parse_form("x*y"))  # no raise


# ------------------------------------------------------------ unit interval


def test_unit_interval_strict_cases():
    minus_one = UniPoly((Fraction(-1),))
    assert is_nonpositive_on_unit_interval(minus_one, strict=True)
    # -(t - 1/2)^2 - 0: touches zero inside -> nonpositive but not strict
    bump = UniPoly((Fraction(-1, 4), Fraction(1), Fraction(-1)))
    assert is_nonpositive_on_unit_interval(bump, strict=False)
    assert not is_nonpositive_on_unit_interval(bump, strict=True)


def test_unit_interval_sign_change_detected():
    p = UniPoly((Fraction(-1, 2), Fraction(1)))  # t - 1/2
    assert not is_nonpositive_on_unit_interval(p, strict=False)
    assert not is_nonpositive_on_unit_interval(p, strict=True)


def test_unit_interval_boundary_zeros_ok_nonstrict():
    # t(t-1) is <= 0 on [0,1] with zeros exactly at the endpoints
    p = UniPoly((Fraction(0), Fraction(-1), Fraction(1)))
    q = Fraction(-1) * p  # -t(1-t) <= 0? sign: -t^2 + t >= 0 on [0,1]
    assert is_nonpositive_on_unit_interval(p, strict=False)
    assert not is_nonpositive_on_unit_interval(p, strict=True)
    assert not is_nonpositive_on_unit_interval(q, strict=False)


@given(unipolys(max_degree=6))
@settings(max_examples=40, deadline=None)
def test_unit_interval_matches_sympy(p):
    if p.is_zero():
        return
    got = is_nonpositive_on_unit_interval(p, strict=False)
    expr = to_sympy_uni(p)
    # the maximum on [0,1] sits at an endpoint or a critical point
    candidates = [sympy.Integer(0), sympy.Integer(1)]
    dp = p.derivative()
    if not dp.is_zero() and dp.degree >= 1:
        for r in distinct_real_roots(dp):
            if bool(0 < r) and bool(r < 1):
                candidates.append(r)
    positive_somewhere = False
    for r in candidates:
        val = sympy.simplify(expr.subs(T, r))
        is_pos = val.is_positive
        if is_pos is None:
            is_pos = val.evalf(60) > 0
        if is_pos:
            positive_somewhere = True
            break
    assert got == (not positive_somewhere)


# Roots at the bisection points of [0, 1], at its ends (0 is also the first
# interval's left end), at 1/3 (never a bisection point) and outside [0, 1].
UNIT_ROOTS = tuple(map(Fraction, ("0", "1/4", "1/2", "3/4", "1", "1/3", "-1/2", "3/2")))


def unit_interval_products():
    """(p, roots) for each product of one to three factors (q*t - r)^m with
    distinct roots r/q from UNIT_ROOTS and m = 1, 2, 3."""
    for k in (1, 2, 3):
        for roots in itertools.combinations(UNIT_ROOTS, k):
            for mults in itertools.product((1, 2, 3), repeat=k):
                p = UniPoly((1,))
                for r, m in zip(roots, mults):
                    line = UniPoly((Fraction(-r.numerator), Fraction(r.denominator)))
                    for _ in range(m):
                        p = p * line
                yield p, roots


def unit_interval_oracle(p: UniPoly, roots, strict: bool) -> bool:
    """p <= 0 (strict: p < 0) on [0, 1], from the values of p at 0, at 1 and
    at the midpoints between its known roots there: p keeps one sign between
    two neighbouring ones."""
    marks = sorted({Fraction(0), Fraction(1)} | {r for r in roots if 0 <= r <= 1})
    values = [p(t) for t in marks + [(a + b) / 2 for a, b in zip(marks, marks[1:])]]
    return all(v < 0 if strict else v <= 0 for v in values)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("strict", [False, True])
def test_unit_interval_matches_root_oracle(strict, sign):
    wrong, accepted = [], 0
    for p, roots in unit_interval_products():
        p = sign * p
        got = is_nonpositive_on_unit_interval(p, strict=strict)
        accepted += got
        if got != unit_interval_oracle(p, roots, strict):
            wrong.append(str(p))
    assert wrong == []
    assert accepted > 0


def test_unit_interval_isolates_once_and_on_the_unit_interval_only(monkeypatch):
    calls, narrowed = [], []
    isolation, narrow = certify._isolation, certify._narrow

    def spy(ints, unit=False):
        calls.append(unit)
        return isolation(ints, unit)

    def narrow_spy(q, r, t):
        narrowed.append(t)
        return narrow(q, r, t)

    def walk(*args):
        raise AssertionError("a bound ranked or walked the isolation")

    monkeypatch.setattr(certify, "_isolation", spy)
    monkeypatch.setattr(certify, "_narrow", narrow_spy)
    monkeypatch.setattr(certify, "_rank", walk)
    monkeypatch.setattr(certify, "_root_witness", walk)
    reached = 0
    for p, _ in unit_interval_products():
        for q, strict in itertools.product((p, -p), (False, True)):
            calls.clear()
            is_nonpositive_on_unit_interval(q, strict=strict)
            p0, p1 = q(0), q(1)
            ends_pass = p0 < 0 and p1 < 0 if strict else p0 <= 0 and p1 <= 0
            # one isolation on [0, 1] once both ends pass
            assert calls == [True] * ends_pass, (str(q), strict)
            reached += ends_pass
    assert reached > 0
    # entries touch at a root met exactly, such as 1/2 next to (0, 1/2)
    # around 1/3, and the other entry is narrowed until they part
    assert narrowed


def seeded_root_products(rng: random.Random):
    """(p, roots, pairs): a product of (q*t - r)^m, m = 1, 2, 3, for distinct roots
    r/q, mostly at 0, 1/3, 1/2 and 1, times at most two factors (a t - b)^2 + 1,
    whose conjugate pair lies 1/a off the axis at b/a, with a up to 2^20,
    times a nonzero rational; pairs counts those factors."""
    grid = tuple(map(Fraction, ("0", "1/3", "1/2", "1")))
    while True:
        roots = set()
        for _ in range(rng.randint(0, 4)):
            roots.add(rng.choice(grid) if rng.random() < 0.7
                      else Fraction(rng.randint(-12, 12), rng.randint(1, 7)))
        p = UniPoly((Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)),))
        for r in roots:
            p = p * linear_power(r, rng.randint(1, 3))
        pairs = rng.randint(0, 2)
        for _ in range(pairs):
            a = 1 << rng.choice((1, 4, 10, 20))
            b = rng.randint(-a // 2, 3 * a // 2)
            p = p * UniPoly(tuple(map(Fraction, (b * b + 1, -2 * a * b, a * a))))
        yield p, sorted(roots), pairs


def test_root_counts_floats_and_unit_bounds_match_the_reference():
    # sturm_count on windows whose ends are roots or not, float_roots, and
    # both bounds on [0, 1] of p and -p, on 2,000 seeded products
    rng = random.Random(1616)
    windows = [(Fraction(a), Fraction(b)) for a, b in itertools.combinations(
        ("-1", "0", "1/3", "2/5", "1/2", "1", "3"), 2)]
    near_axis = touching = 0
    for p, roots, pairs in itertools.islice(seeded_root_products(rng), 2000):
        counter = ref_counter(certify._int_coeffs(p.coeffs))
        assert counter(-math.inf) - counter(math.inf) == len(roots) == sturm_count(p)
        for a, b in rng.sample(windows, 4):
            assert sturm_count(p, a, b) == counter(a) - counter(b), (str(p), a, b)
        assert sturm_count(p, None, Fraction(1, 2)) == counter(-math.inf) - counter(Fraction(1, 2))
        assert sturm_count(p, Fraction(1, 3)) == counter(Fraction(1, 3)) - counter(math.inf)
        assert certify.float_roots(p) == [float(r) for r in roots]
        for q, strict in itertools.product((p, -p), (False, True)):
            got = is_nonpositive_on_unit_interval(q, strict=strict)
            assert got == unit_interval_oracle(q, roots, strict), (str(q), strict)
        near_axis += pairs > 0
        touching += any(r in (0, 1) for r in roots)
    assert near_axis >= 500 and touching >= 500


# ------------------------------------------------------------ product lemma


@given(
    st.tuples(small_rats, small_rats),
    st.integers(min_value=2, max_value=6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=50, deadline=None)
def test_hess_linear_product_identity(ab, deg, rng):
    a, b = ab
    if a == 0 and b == 0:
        return
    f = random_form(rng, deg)
    if f.is_zero():
        return
    l = BinaryForm(1, (Fraction(a), Fraction(b)))
    assert hess_linear_product(l, f) == hessian(l * f)


def test_linear_extension_matches_direct_certification():
    rng = random.Random(5150)
    checked = 0
    while checked < 40:
        # products of distinct lines through rational slopes are hyperbolic
        slopes = rng.sample(range(-6, 7), rng.randint(2, 5))
        f = BinaryForm(0, (Fraction(1),))
        for s in slopes:
            f = f * BinaryForm(1, (Fraction(1), Fraction(-s)))
        if not is_hyperbolic(f).is_hyperbolic:
            continue
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        if a == 0 and b == 0:
            continue
        l = BinaryForm(1, (Fraction(a), Fraction(b)))
        assert linear_extension_is_hyperbolic(l, f) == is_hyperbolic(l * f).is_hyperbolic
        checked += 1


_LINE = UniPoly((Fraction(0), Fraction(1)))  # t


@pytest.mark.parametrize("entry, args, message", [
    pytest.param(sturm_count, (UniPoly(()),), "root counting on the zero polynomial",
                 id="sturm_count-zero"),
    pytest.param(sturm_count, (_LINE, Fraction(1), Fraction(1)), "need a < b",
                 id="sturm_count-empty-window"),
    pytest.param(sturm_count, (_LINE, Fraction(2), Fraction(1)), "need a < b",
                 id="sturm_count-reversed-window"),
    pytest.param(certify.float_roots, (UniPoly(()),), "root isolation on the zero polynomial",
                 id="float_roots-zero"),
    pytest.param(is_nonpositive_on_unit_interval, (UniPoly(()), True), "zero polynomial",
                 id="unit_interval-zero"),
    pytest.param(is_negative_form, (BinaryForm.zero(4),), "negativity test on the zero form",
                 id="is_negative_form-zero"),
    pytest.param(is_negative_form, (parse_form("x^3 - y^3"),),
                 "negativity test needs even degree", id="is_negative_form-odd"),
    pytest.param(hessian, (parse_form("x"),), "hessian needs degree >= 2", id="hessian"),
    pytest.param(polar_form, (BinaryForm(0, (Fraction(1),)),), "polar form needs degree >= 1",
                 id="polar_form"),
    pytest.param(is_hyperbolic, (parse_form("x"),), "hyperbolicity is defined for degree >= 2",
                 id="is_hyperbolic"),
    pytest.param(is_hyperbolic_polar, (parse_form("x"),),
                 "hyperbolicity is defined for degree >= 2", id="is_hyperbolic_polar"),
    pytest.param(hess_linear_product, (parse_form("x"), parse_form("x")), "needs deg f >= 2",
                 id="hess_linear_product"),
    # the line is checked before f is read: f = x would fail with a message
    # of its own
    pytest.param(hess_linear_product, (BinaryForm(1, (0, 0)), parse_form("x")),
                 "line must be a nonzero form of degree 1", id="hess_linear_product-zero-line"),
    pytest.param(hess_linear_product, (parse_form("x^2"), parse_form("x")),
                 "line must be a nonzero form of degree 1", id="hess_linear_product-quadratic"),
    pytest.param(linear_extension_is_hyperbolic, (BinaryForm(1, (0, 0)), parse_form("x")),
                 "line must be a nonzero form of degree 1",
                 id="linear_extension_is_hyperbolic-zero-line"),
    pytest.param(linear_extension_is_hyperbolic, (parse_form("x^2"), parse_form("x")),
                 "line must be a nonzero form of degree 1",
                 id="linear_extension_is_hyperbolic-quadratic"),
    pytest.param(count_real_linear_factors, (BinaryForm.zero(3),), "zero form",
                 id="count_real_linear_factors-zero"),
    pytest.param(admissible_indices, (2,), "admissible index list needs degree >= 3",
                 id="admissible_indices"),
    pytest.param(num_components, (2,), "component count needs degree >= 3",
                 id="num_components"),
])
def test_exact_entry_points_reject_inputs_outside_their_domain(entry, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry(*args)
