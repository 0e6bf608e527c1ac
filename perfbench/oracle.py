"""Exact and float arithmetic on integer coefficient vectors, written apart
from hypforms so that the benchmark can build inputs and check answers
without trusting the code it measures.

A form of degree D is a list c of D + 1 integers standing for
sum(c[i] * x^(D - i) * y^i), the order hypforms uses for BinaryForm.coeffs.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, sqrt


def swap_xy(c: list[int]) -> list[int]:
    return c[::-1]


def neg_y(c: list[int]) -> list[int]:
    return [-v if i % 2 else v for i, v in enumerate(c)]


def neg_x(c: list[int]) -> list[int]:
    d = len(c) - 1
    return [-v if (d - i) % 2 else v for i, v in enumerate(c)]


# Changes of variables that keep coefficient size, the number of real lines
# and hence the index.  They do not keep the cost of certification: the
# chart polynomial changes t to -t, which moves root isolation and the
# witness search, and by up to a third for the forms near a pass's median.
SIGN_CHANGES = (neg_y, neg_x)


def shear(c: list[int]) -> list[int]:
    """f(x + y, y): same index, larger coefficients."""
    d = len(c) - 1
    out = [0] * (d + 1)
    for i, v in enumerate(c):
        if v:
            n = d - i
            for k in range(n + 1):
                out[i + k] += v * comb(n, k)
    return out


def mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def int_coeffs(coeffs) -> list[int]:
    out = []
    for v in coeffs:
        v = Fraction(v)
        if v.denominator != 1:
            raise ValueError(f"coefficient {v} is not an integer")
        out.append(v.numerator)
    return out


def to_text(c: list[int]) -> str:
    """Expression text such as "x^3 - 3*x*y^2", as a user would type it."""
    d = len(c) - 1
    terms = []
    for i, v in enumerate(c):
        if v == 0:
            continue
        factors = [] if abs(v) == 1 and d > 0 else [str(abs(v))]
        for var, p in (("x", d - i), ("y", i)):
            if p == 1:
                factors.append(var)
            elif p > 1:
                factors.append(f"{var}^{p}")
        body = "*".join(factors)
        if not terms:
            terms.append(body if v > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(terms) if terms else "0"


def _first_partials(c):
    d = len(c) - 1
    fx = [c[i] * (d - i) for i in range(d)]
    fy = [c[i + 1] * (i + 1) for i in range(d)]
    return fx, fy


def second_partials(c):
    """f_xx, f_xy, f_yy as coefficient vectors of degree D - 2."""
    d = len(c) - 1
    fxx = [c[i] * (d - i) * (d - i - 1) for i in range(d - 1)]
    fxy = [c[i + 1] * (d - i - 1) * (i + 1) for i in range(d - 1)]
    fyy = [c[i + 2] * (i + 2) * (i + 1) for i in range(d - 1)]
    return fxx, fxy, fyy


def evaluate(c, x, y):
    """Value at (x, y) in the arithmetic of x and y (exact for Fractions)."""
    n = len(c) - 1
    acc = 0
    yp = 1
    xs = [1] * (n + 1)
    for k in range(1, n + 1):
        xs[k] = xs[k - 1] * x
    for i, v in enumerate(c):
        if v:
            acc += v * xs[n - i] * yp
        yp *= y
    return acc


def hessian_at(c, x, y) -> Fraction:
    fxx, fxy, fyy = second_partials(c)
    a, b, e = (evaluate(p, x, y) for p in (fxx, fxy, fyy))
    return a * e - b * b


def polar_at(c, x, y) -> Fraction:
    """D^2 f^2 + D f R(R(f)) - (D - 1) R(f)^2 at (x, y), with R(f) = x f_y - y f_x
    and R(R(f)) = x^2 f_yy - 2 x y f_xy + y^2 f_xx - D f."""
    d = len(c) - 1
    f = evaluate(c, x, y)
    fx, fy = (evaluate(p, x, y) for p in _first_partials(c))
    fxx, fxy, fyy = (evaluate(p, x, y) for p in second_partials(c))
    r1 = x * fy - y * fx
    r2 = x * x * fyy - 2 * x * y * fxy + y * y * fxx - d * f
    return d * d * f * f + d * f * r2 - (d - 1) * r1 * r1


def worst_residual(c, curves) -> float:
    """Largest |q(u)| / |q| over the segments of the polylines, where q is the
    second fundamental form at a vertex and u the unit direction of the
    segment leaving it; an asymptotic curve keeps this at rounding level."""
    fxx, fxy, fyy = ([float(v) for v in p] for p in second_partials(c))
    worst = 0.0
    for curve in curves:
        pts = curve.points
        for k in range(len(pts) - 1):
            x, y = pts[k]
            dx, dy = pts[k + 1][0] - x, pts[k + 1][1] - y
            seg = sqrt(dx * dx + dy * dy)
            if seg == 0.0:
                continue
            u, v = dx / seg, dy / seg
            a = evaluate(fxx, x, y)
            b = evaluate(fxy, x, y)
            e = evaluate(fyy, x, y)
            r = abs(a * u * u + 2.0 * b * u * v + e * v * v) / sqrt(a * a + 4.0 * b * b + e * e)
            if r > worst:
                worst = r
    return worst
