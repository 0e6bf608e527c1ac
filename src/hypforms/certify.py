"""Exact certification of hyperbolicity.

A form f of degree D >= 2 is hyperbolic when the quadratic form of its
second partials is indefinite at every point away from the origin,
equivalently when f_xx*f_yy - f_xy^2 is negative there.  Everything in
this module decides signs exactly, on integers: hessian and polar_form run
on the integer multiple of f that clears its denominators, and every root
count and sign decision reads the real roots of a squarefree part
ps = p / gcd(p, p'), isolated by one Descartes walk.  The heuristic GCD
_hgcd(a, b) returns (g, a/g, b/g) for g = gcd(a, b), so it gives gcd(p, p')
and ps with no remainder sequence.  _isolation is the one
entry point: each of its entries [a, b, s] holds one root, and _narrow
refines an entry by one sign of ps at a point inside it, for float
rounding, rational touches and the [0, 1] bound.  The rank of t, the
number of entries whose root is at most t, narrows the entry that t falls
inside; rank(b) - rank(a) counts the roots in (a, b].  It serves the
windows of sturm_count and the bisection whose path from the Cauchy bound
places a rejection witness.  float_roots halves each entry until both its
ends round to one float.  A bound p <= 0 on [0, 1] isolates the roots in
[0, 1] only and reads one sign of p between each pair of adjacent entries;
the strict bound p < 0 fails at the first entry.  Fraction appears only
where forms and polynomials enter and leave.

Negativity of an even form reduces by homogeneity to one chart plus one
extra point.  There one walk decides, bisection by Descartes' rule of signs
on each half-line from a power-of-two Fujiwara root bound.  Capped, it is
the accept test: it proves most negative forms cheaply, and only accepts.
A form it cannot prove is decided by one isolation: the same walk uncapped
isolates the roots of ps, and the ranks on that isolation, one sign of ps
per point, place the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, inf
from operator import lshift, neg
from typing import Iterator

from .core import (
    BinaryForm, LinearForm, NotHyperbolicError, Rat, UniPoly,
    _cleared, _deriv, _dx, _hom_eval, _mul_int, _over, _rot, _trim,
)

# ---------------------------------------------------------------------------
# integer polynomials on the kernel of core
#
# Polynomials are dense lists of ints, coeffs[i] * t^i, trailing zeros
# stripped.
# ---------------------------------------------------------------------------


def _content(p: list[int]) -> int:
    # math.gcd stops reading its arguments once the gcd is 1
    return gcd(*p) or 1


def _primitive(p: list[int]) -> list[int]:
    g = _content(p)
    return [c // g for c in p] if g > 1 else list(p)


def _divexact(a: list[int], b: list[int]) -> list[int]:
    """Exact division of integer polynomials (raises if not exact)."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1) if len(a) >= len(b) else []
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        top = r[k + len(b) - 1]
        if top % lead != 0:
            raise ValueError("inexact polynomial division")
        c = top // lead
        q[k] = c
        if c:
            for j, bc in enumerate(b):
                r[k + j] -= c * bc
    if any(r):
        raise ValueError("inexact polynomial division")
    return _trim(q)


def _sign_at(p: list[int], t: Fraction) -> int:
    """Sign of p at the rational t = num/den: the sign of den^n * p(t)."""
    v = _hom_eval(p, t.denominator, t.numerator)
    return (v > 0) - (v < 0)


def _int_coeffs(cs) -> list[int]:
    """Primitive integer model of the coefficients cs (a positive rational
    multiple, trailing zeros kept)."""
    return _primitive(_cleared(cs)[0])


def _cauchy_bound(ps: list[int]) -> Fraction:
    """Every root of ps lies strictly inside (-bound, bound).  Rejection
    witnesses are endpoints of the intervals isolated from this bound, so
    they depend on its exact value."""
    lead = abs(ps[-1])
    return Fraction(1) + max(Fraction(abs(c), lead) for c in ps)


# ---------------------------------------------------------------------------
# Descartes bisection and the squarefree part, with no remainder sequence
#
# Vincent-Collins-Akritas bisection (Collins and Akritas, SYMSAC 1976;
# Rouillier and Zimmermann, J. Comput. Appl. Math. 162, 2004) on integer
# lists.  A node Q of degree n is q on one dyadic interval of (0, 2^k),
# mapped onto (0, 1) and scaled by a power of two.  The sign variations of
# (x+1)^n Q(1/(x+1)) bound the number of roots of Q in (0, 1) and have its
# parity, so none proves there are none and one that there is one; a node
# with more splits into 2^n Q(x/2) and its shift by 1, whose constant term
# is the sign of q at the midpoint.  One walk, _positive_roots, runs capped
# as the accept test and uncapped as the isolation.  The heuristic GCD of
# Char, Geddes and Gonnet (J. Symb. Comput. 7, 1989) gives the squarefree
# part that the isolation needs.  _rank counts the entries of the
# isolation up to a point.
# ---------------------------------------------------------------------------


def _fujiwara_exponent(q: list[int]) -> int:
    """k with every root of q inside |z| < 2^k: Fujiwara's bound
    2 * max_i |q[n-i] / q[n]|^(1/i), rounded up to a power of two from bit
    lengths.  The i-th roots keep it near the largest root when the leading
    coefficient is small; Cauchy's bound 1 + max |q[i] / q[n]| reaches
    about 2^234 on representatives with x and y swapped, and the bisection
    below then halves through about 230 levels that hold no root."""
    top = q[-1].bit_length()
    return 1 + max(-((top - 1 - c.bit_length()) // i)
                   for i, c in enumerate(reversed(q[:-1]), 1) if c)


def _on_unit_interval(q: list[int], k: int) -> list[int]:
    """q(2^k x), times 2^(-k n) when k < 0: the roots of q in (0, 2^k) as
    those of an integer list in (0, 1)."""
    n = len(q) - 1
    return [c << (k * i - min(k, 0) * n) for i, c in enumerate(q)]


def _shift_one(c: list[int]) -> list[int]:
    """c(x + 1), by n passes of running sums; each pass fixes one more
    coefficient, lowest first."""
    b = c[::-1]
    out = []
    while b:
        b = list(accumulate(b))
        out.append(b.pop())
    return out


def _hgcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a/g, b/g) for g = gcd(a, b) of nonzero integer polynomials,
    primitive with a positive lead, by the heuristic GCD.

    At xi = 2^k >= 2 min(|a|, |b|) + 2 (max norms) the symmetric xi-adic
    digits of the integer gcd(a(xi), b(xi)) are a candidate.  By the
    theorem of Char, Geddes and Gonnet a candidate whose primitive part
    divides a and b is their gcd.  Otherwise the integer gcd carried an
    extra factor, which divides res(a/g, b/g); once xi is large enough the
    candidate is that factor times g, so the loop ends as k grows."""
    k = (2 * min(max(map(abs, a)), max(map(abs, b))) + 2).bit_length()
    while True:
        # h > 0, so its top digit and the lead of g are positive
        h = gcd(_eval_pow2(a, k), _eval_pow2(b, k))
        g = _primitive(_digits(h, k))
        try:
            return g, _divexact(a, g), _divexact(b, g)
        except ValueError:
            k *= 2


def _eval_pow2(p: list[int], k: int) -> int:
    """p(2^k), by Horner with shifts."""
    v = 0
    for c in reversed(p):
        v = (v << k) + c
    return v


def _digits(h: int, k: int) -> list[int]:
    """The digits of h in base xi = 2^k, each in (-xi/2, xi/2], lowest first."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while h:
        d = h & mask
        if d > half:
            d -= 1 << k
        out.append(d)
        h = (h - d) >> k
    return out


def _squarefree(p: list[int]) -> tuple[list[int], list[int]]:
    """(p / g, g) for a primitive p of degree >= 1 and g = gcd(p, p'): the
    squarefree part of p, and the part of p that holds its repeated
    roots."""
    g, ps, _ = _hgcd(p, _primitive(_deriv(p)))
    return ps, g


def _dyadic(c: int, e: int) -> Fraction:
    """c * 2^e."""
    return Fraction(c << e) if e >= 0 else Fraction(c, 1 << -e)


def _descartes_count(c: list[int]) -> int:
    """The sign variations of (x+1)^n c(1/(x+1)), for c[0] != 0, capped at 2:
    0 or 1 is the number of roots of c in (0, 1), and 2 means the node must
    split.  The transform is _shift_one(c[::-1]), with c negated, which
    keeps the count, so that c[0] < 0.  Its passes fix c(1) first and c[0]
    last, and c[0] stays in every pass.  So once no entry is positive, the
    later coefficients, sums of entries, are <= 0 and the count is 1 if a
    positive one came before, else 0; and a positive coefficient after a
    negative one makes two, as c[0] adds another.  These two exits halve
    the bisection's time on the targets of the benchmark."""
    if c[0] > 0:
        c = list(map(neg, c))
    negative = positive = False  # a coefficient of that sign fixed so far
    while True:
        c = list(accumulate(c))
        x = c.pop()
        if x > 0:
            if negative:
                return 2
            positive = True
        elif x:
            negative = True
        if not c or max(c) <= 0:
            return int(positive)


def _positive_roots(q: list[int], capped: bool = False,
                    unit: bool = False) -> Iterator[tuple[Fraction, Fraction] | None]:
    """The roots t > 0 of q with q(0) != 0, or with unit those in (0, 1), in
    the order the walk finds them: (a, b) holds one root strictly inside,
    and (m, m) is a root met exactly at a bisection midpoint m.

    Bisection from the Fujiwara bound 2^k, or from 2^0 with unit, with
    nodes q(2^e (j + x)) for x in (0, 1); a node of depth k - e spans 2^e.
    Uncapped, it is the isolation of a squarefree q, which leaves 0 or 1
    variations on every node narrow enough, so the walk ends.  Capped, it is the accept test: a
    node of depth k + tau, tau the bit size of q, that still has variations
    yields None and ends the walk.  A conjugate pair of an integer
    quadratic with tau-bit coefficients lies more than 2^(-tau-1) off the
    real axis (its discriminant is a nonzero integer), so by the one-circle
    theorem it leaves every node of depth k + tau without variations.  A
    pair nearer the axis than that, or a real root of even multiplicity at
    a t that is no midpoint (any non-dyadic t, rational or irrational),
    keeps one node of every depth down to k + tau.  At most n nodes of a
    depth have variations, since their circles are disjoint and each holds
    a root, so the capped walk visits at most 1 + 2n(k + tau) nodes."""
    if max(q) <= 0 if q[0] < 0 else min(q) >= 0:  # no sign variation on (0, infinity)
        return
    k = 0 if unit else _fujiwara_exponent(q)
    cap = k + max(map(int.bit_length, q)) if capped else inf
    stack = [(_on_unit_interval(q, k), 0, k)]
    while stack:
        node, j, e = stack.pop()  # the node spans (j 2^e, (j + 1) 2^e)
        # q has variations on (0, infinity), and so nearly always on the
        # Fujiwara interval (0, 2^k): that node is split without a test,
        # while (0, 1) is tested as any other
        if e < k or unit:
            v = _descartes_count(node)
            if v == 1:
                yield _dyadic(j, e), _dyadic(j + 1, e)
            if v < 2:
                continue
            if k - e >= cap:
                yield None
                return
        left = list(map(lshift, node, range(len(node) - 1, -1, -1)))  # 2^n Q(x/2)
        right = _shift_one(left)
        if not right[0]:  # q at the midpoint
            m = _dyadic(2 * j + 1, e - 1)
            yield m, m
            right.pop(0)
        stack.append((right, 2 * j + 1, e - 1))
        stack.append((left, 2 * j, e - 1))


def _descartes_negative(q: list[int]) -> bool:
    """True when the capped walk proves q < 0 for all t > 0, for q negative
    at 0 and at infinity; False leaves the decision to the isolation.  A
    midpoint where q > 0 leaves a child with an odd count, which yields, so
    a walk that yields nothing met only negative midpoints."""
    return next(_positive_roots(q, capped=True), False) is False


def _narrow(q: list[int], r: list, t: Fraction) -> bool:
    """Narrow the entry r = [a, b, s] of the roots of q, a < t < b, to the
    side of t that holds its root, by one sign of q; True when the root is
    at most t."""
    st = _sign_at(q, t)
    if st == 0:
        r[:] = t, t, 0
    elif st == r[2]:  # t lies right of the root
        r[1] = t
    else:
        r[0] = t
        return False
    return True


def _rank(q: list[int], roots: list[list], t: Fraction) -> int:
    """The number of entries of roots, the isolation of q, whose root is at
    most t; the entry that t falls strictly inside is narrowed by _narrow."""
    for n, r in enumerate(roots):
        if t < r[1]:
            return n + _narrow(q, r, t) if r[0] < t else n
    return len(roots)


# ---------------------------------------------------------------------------
# root counts, floats and sign bounds of univariate polynomials
# ---------------------------------------------------------------------------

def _isolation(ints: list[int], unit: bool = False) -> tuple[list[int], list[int], list[list]]:
    """(q, g, roots) for the nonzero ints = t^z r with r(0) != 0: q = r / g
    is the squarefree part of r and g = gcd(r, r'), and roots are the
    distinct real roots of ints, or with unit those in [0, 1], ascending, as
    entries [a, b, s]: a == b is a root, else one root lies strictly inside
    (a, b) and s is the sign of q just left of b.  b may itself be the root
    of the next entry, where q is 0, so s is read there on q'.  A root t = 0
    is the entry [0, 0, 0].  Signs of an entry are read on q: q and t q
    differ in sign on t < 0."""
    zeros = next(i for i, c in enumerate(ints) if c)
    q, g = ints[zeros:], [1]
    if len(q) > 1:
        q, g = _squarefree(q)
    if unit:
        found = list(_positive_roots(q, unit=True))
        if not sum(q):  # q(1)
            found.append((Fraction(1), Fraction(1)))
    else:
        alternated = list(q)
        alternated[1::2] = map(neg, q[1::2])  # q(-t)
        found = [(-b, -a) for a, b in _positive_roots(alternated)] + list(_positive_roots(q))
    if zeros:
        found.append((Fraction(0), Fraction(0)))
    roots = []
    for a, b in sorted(found):
        s = 0 if a == b else _sign_at(q, b) or -_sign_at(_deriv(q), b)
        roots.append([a, b, s])
    return q, g, roots


def sturm_count(p: UniPoly, a: Fraction | None = None, b: Fraction | None = None) -> int:
    """Number of distinct real roots of p in (a, b]; a=None and b=None mean
    -infinity and +infinity.  Multiple roots count once.  It counts on the
    isolation; the name is historical."""
    if p.is_zero():
        raise ValueError("root counting on the zero polynomial")
    if a is not None and b is not None and a >= b:
        raise ValueError("need a < b")
    q, _, roots = _isolation(_int_coeffs(p.coeffs))
    return ((len(roots) if b is None else _rank(q, roots, b))
            - (0 if a is None else _rank(q, roots, a)))


def float_roots(p: UniPoly) -> list[float]:
    """The distinct real roots of p, ascending, each rounded to the nearest
    float.  Each isolating interval (a, b) is halved exactly until both ends
    round to the same float, or until it is the root itself.  float of a
    Fraction is correctly rounded, so monotone, and a root between a and b
    rounds to that same float."""
    if p.is_zero():
        raise ValueError("root isolation on the zero polynomial")
    q, _, roots = _isolation(_int_coeffs(p.coeffs))
    for r in roots:
        while r[0] != r[1] and float(r[0]) != float(r[1]):
            _narrow(q, r, (r[0] + r[1]) / 2)
    return [float(r[1]) for r in roots]


def is_nonpositive_on_unit_interval(p: UniPoly, strict: bool) -> bool:
    """Exact decision of p <= 0 (strict: p < 0) everywhere on [0, 1]."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    ints = _int_coeffs(p.coeffs)
    top = max(ints[0], sum(ints))  # the larger of p(0) and p(1), up to a factor
    if top > 0 or strict and top == 0:
        return False
    ps, _, roots = _isolation(ints, unit=True)
    if strict:
        return not roots
    # p keeps one sign in each gap between its roots in [0, 1], so one
    # sign per gap decides.  A gap at an end of [0, 1] holds that end, no
    # root, so p < 0 there by the test above; the other gaps are read at
    # the midpoint between two adjacent entries.  Two entries share an end
    # only where the walk split a node, and it is a root only when one of
    # them is that root exactly: the other is narrowed until they part.
    for r, u in zip(roots, roots[1:]):
        while not (s := _sign_at(ints, (r[1] + u[0]) / 2)):
            v = u if r[0] == r[1] else r
            _narrow(ps, v, (v[0] + v[1]) / 2)
        if s > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# negativity of even forms
# ---------------------------------------------------------------------------

def is_negative_form(h: BinaryForm) -> tuple[bool, tuple[Rat, Rat] | None]:
    """Decide h(x, y) < 0 for all (x, y) != (0, 0).

    h must be nonzero of even degree.  By homogeneity it is enough that
    h(1, t) stays negative on the whole line and that h(0, 1) < 0.  On
    rejection a rational witness point with h(witness) >= 0 is returned
    if and only if one exists; None means that every zero of h off the
    origin is an even-order touch on a line of irrational slope.

    The Descartes walk, capped, accepts h when it proves h(1, t) < 0 on
    both half-lines; otherwise the same walk, uncapped, isolates the roots
    of the squarefree part of h(1, t), and every rejection and its witness
    come from that isolation.
    """
    if h.is_zero():
        raise ValueError("negativity test on the zero form")
    if h.degree % 2 == 1:
        raise ValueError("negativity test needs even degree")
    # ints is h(1, t) up to a positive factor: every sign below is read on it
    ints = _int_coeffs(h.coeffs)
    if ints[0] >= 0:  # h(1, 0)
        return False, (Fraction(1), Fraction(0))
    if ints[-1] >= 0:  # h(0, 1)
        return False, (Fraction(0), Fraction(1))
    alternated = list(ints)
    alternated[1::2] = map(neg, ints[1::2])  # h(1, -t)
    # h(1, 1) and h(1, -1) first, a sum each: many rejections show there
    # before any bisection
    if (sum(ints) < 0 and sum(alternated) < 0
            and _descartes_negative(ints) and _descartes_negative(alternated)):
        return True, None
    ps, g, roots = _isolation(ints)
    if not roots:
        return True, None
    return False, _root_witness(ints, ps, g, roots)


def _root_witness(ints: list[int], ps: list[int], g: list[int],
                  roots: list[list]) -> tuple[Rat, Rat] | None:
    """The witness of a rejection, from ints, its squarefree part ps, the
    gcd g = ints / ps and the isolation roots of ps.

    The walk bisects (-bound, bound], bound the Cauchy bound of ps, until
    each piece (a, b] holds one root, ascending, with the ranks of both ends
    on the stack, so that it ranks once per bisection point.  Every root
    lies strictly inside the bound, so the ranks of -bound and bound are 0
    and len(roots) with no read."""
    bound = _cauchy_bound(ps)
    stack = [(-bound, 0, bound, len(roots))]
    while stack:
        a, ra, b, rb = stack.pop()
        if rb - ra > 1:
            m = (a + b) / 2
            rm = _rank(ps, roots, m)
            stack.append((m, rm, b, rb))
            stack.append((a, ra, m, rm))
        elif rb - ra == 1:
            # h(1, t) is negative at both ends of the line, and the walk is
            # ascending and returns at the first sign change, so h < 0 at
            # every left end a it reaches: a root of odd multiplicity, or
            # one that sits exactly at b, gives h >= 0 at b
            if _sign_at(ints, b) >= 0:
                return (Fraction(1), b)
            # both ends negative: an even-multiplicity touch of zero
            # strictly inside (a, b), the one root there of g = gcd(h, h');
            # a rational witness exists only if that root is rational
            r = _rational_root(g, a, b)
            if r is not None:
                return (Fraction(1), r)
    return None


def _rational_root(g: list[int], a: Fraction, b: Fraction) -> Fraction | None:
    """The single root of g in (a, b] if it is rational, else None.

    A rational root of the squarefree part gs has a denominator dividing
    L = |lead(gs)|, and two distinct rationals with denominators <= L lie at
    least 1/L^2 apart.  Once (a, b] is narrower than 1/L^2, the root is the
    rational with denominator <= L nearest to its midpoint, or is irrational.
    _narrow halves (a, b] by one sign of gs per step.
    """
    gs = _squarefree(g)[0]
    lead = abs(gs[-1])
    s = _sign_at(gs, b)
    r = [a, b, s] if s else [b, b, 0]
    while (r[1] - r[0]) * lead * lead >= 1:
        _narrow(gs, r, (r[0] + r[1]) / 2)
    c = ((r[0] + r[1]) / 2).limit_denominator(lead)
    return c if _sign_at(gs, c) == 0 else None


# ---------------------------------------------------------------------------
# hyperbolicity certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Outcome of an exact hyperbolicity decision.

    witness is a rational point where the certifying form fails to be
    negative; it is present only for (some) rejections.
    """

    verdict: str                     # "hyperbolic" | "not_hyperbolic"
    method: str                      # "hessian" | "polar"
    degree: int
    witness: tuple[Rat, Rat] | None = None

    @property
    def is_hyperbolic(self) -> bool:
        return self.verdict == "hyperbolic"


# hessian and polar_form are quadratic in f, so they run on the integer form
# den*f and divide by den^2 once at the end.


def hessian(f: BinaryForm) -> BinaryForm:
    """f_xx*f_yy - f_xy^2, a form of degree 2*deg(f) - 4."""
    if f.degree < 2:
        raise ValueError("hessian needs degree >= 2")
    c, den = _cleared(f.coeffs)
    cx = _dx(c)
    cxy = _deriv(cx)
    h = _mul_int(_dx(cx), _deriv(_deriv(c)))
    for i, v in enumerate(_mul_int(cxy, cxy)):
        h[i] -= v
    return BinaryForm(2 * f.degree - 4, _over(h, den * den))


def polar_form(f: BinaryForm) -> BinaryForm:
    """The degree-2D form whose circle restriction is
    D^2*F^2 + D*F*F'' - (D-1)*F'^2 for F the circle restriction of f."""
    if f.degree < 1:
        raise ValueError("polar form needs degree >= 1")
    d = f.degree
    c, den = _cleared(f.coeffs)
    r1 = _rot(c)
    pol = [d * d * u + d * v - (d - 1) * w for u, v, w in
           zip(_mul_int(c, c), _mul_int(c, _rot(r1)), _mul_int(r1, r1))]
    return BinaryForm(2 * d, _over(pol, den * den))


@lru_cache(maxsize=8192)
def _certify(f: BinaryForm, method: str) -> Certificate:
    target = hessian(f) if method == "hessian" else polar_form(f)
    if target.is_zero():
        # happens exactly for f = 0 and for powers of a single linear form;
        # every point is then a witness against strict negativity
        return Certificate(
            "not_hyperbolic", method, f.degree, (Fraction(1), Fraction(0))
        )
    ok, wit = is_negative_form(target)
    return Certificate(
        verdict="hyperbolic" if ok else "not_hyperbolic",
        method=method,
        degree=f.degree,
        witness=None if ok else wit,
    )


def is_hyperbolic(f: BinaryForm) -> Certificate:
    """Certify via negativity of the hessian form (degree >= 2)."""
    if f.degree < 2:
        raise ValueError("hyperbolicity is defined for degree >= 2")
    return _certify(f, "hessian")


def is_hyperbolic_polar(f: BinaryForm) -> Certificate:
    """Certify via negativity of the polar form; agrees with is_hyperbolic."""
    if f.degree < 2:
        raise ValueError("hyperbolicity is defined for degree >= 2")
    return _certify(f, "polar")


def require_hyperbolic(f: BinaryForm) -> Certificate:
    cert = is_hyperbolic(f)
    if not cert.is_hyperbolic:
        raise NotHyperbolicError(f"form is not hyperbolic: {f}")
    return cert


# ---------------------------------------------------------------------------
# products with a linear factor
# ---------------------------------------------------------------------------

def hess_linear_product(l: LinearForm, f: BinaryForm) -> BinaryForm:
    """Hessian of l*f assembled without differentiating the product:
    ((D+1)/(D-1)) * l^2 * hessian(f) - (a*f_y - b*f_x)^2 for l = a*x + b*y."""
    d = f.degree
    if d < 2:
        raise ValueError("needs deg f >= 2")
    lf = l.to_form()
    g = l.a * f.partial_y() - l.b * f.partial_x()
    return Fraction(d + 1, d - 1) * (lf * lf * hessian(f)) - g * g


def linear_extension_is_hyperbolic(l: LinearForm, f: BinaryForm) -> bool:
    """For hyperbolic f: l*f is hyperbolic iff l does not divide
    a*f_y - b*f_x.  Divisibility is read off at the root direction of l."""
    require_hyperbolic(f)
    g = l.a * f.partial_y() - l.b * f.partial_x()
    return g.eval(l.b, -l.a) != 0
