"""Connected-component classification of hyperbolic forms.

The exact invariant is the count m of distinct real linear factors; the
index of the second-derivative curve is 2 - m, and two hyperbolic forms
of equal degree lie in the same component exactly when their indexes
agree.  Two float winding numbers cross-check the exact index: one for
the triple of second partials along the unit circle, one for the jet
(value, first and second angular derivative) projected into the plane
2*D*u + w = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BinaryForm, eval_float3, rotational_derivative, second_partials
from .certify import require_hyperbolic, sturm_count


class RefinementError(RuntimeError):
    """Adaptive sampling hit its bisection budget or a residual bound."""


_MAX_DEPTH = 24
_RESIDUAL = 0.1  # accepted distance to the nearest whole revolution


def _not_indefinite(disc: float, x: float, y: float) -> Exception:
    """The error for a discriminant b*b - a*c of the second partials at
    (x, y) outside (0, inf): RefinementError when it is finite (the form is
    not indefinite there), OverflowError when it has no float value."""
    if math.isfinite(disc):
        return RefinementError(f"second partials not indefinite at ({x!r}, {y!r})")
    return OverflowError(f"second partials out of the float range at ({x!r}, {y!r})")


def _second_partials_float(f: BinaryForm):
    """at(x, y) -> (f_xx, f_xy, f_yy) in floats, the checked float evaluation
    of the second partials behind the gamma winding and the direction lift.
    The three sums are core.eval_float3's, so each value is bit for bit its
    partial's eval_float.  A discriminant b*b - a*c outside (0, inf) raises
    _not_indefinite's error, so that no caller reads a degenerate or
    overflowed form.  The curve stepper makes the same check inline."""
    ev = eval_float3(*second_partials(f))

    def at(x: float, y: float) -> tuple[float, float, float]:
        a, b, c = abc = ev(x, y)
        disc = b * b - a * c
        if 0.0 < disc < math.inf:
            return abc
        raise _not_indefinite(disc, x, y)

    return at


def count_real_linear_factors(f: BinaryForm) -> int:
    """Number of distinct real lines in the zero set of f."""
    if f.is_zero():
        raise ValueError("zero form")
    line = f.restrict("x=1")
    # the line x = 0 is a factor exactly when the y^D coefficient vanishes
    return sturm_count(line) + (1 if f.coeffs[-1] == 0 else 0)


def index_gamma(f: BinaryForm) -> int:
    """Index of the closed curve of second partials; equals 2 - m for a
    hyperbolic form with m distinct real linear factors."""
    require_hyperbolic(f)
    return 2 - count_real_linear_factors(f)


def admissible_indices(degree: int) -> list[int]:
    """Indexes realized by hyperbolic forms of the given degree, descending."""
    if degree < 3:
        raise ValueError("admissible index list needs degree >= 3")
    start = 0 if degree % 2 == 0 else -1
    return list(range(start, 1 - degree, -2))


def num_components(degree: int) -> int:
    """(D-1)/2 components for odd D, D/2 for even D: the number of
    admissible indexes.

    For degree 4 this returns 2, but no hyperbolic quartic has index 0.
    Such a quartic would be l1*l2*Q with Q definite, and a real linear
    change of variables, a scaling and a sign, none of which changes
    hyperbolicity, take it to f_b = xy(x^2 + bxy + y^2) with -2 < b < 2.
    Hess f_b(1, 1) = -12b(b + 2) is >= 0 for b in [-2, 0], and
    Hess f_b(1, -1) = -12b(b - 2) is >= 0 for b in [0, 2], so no f_b is
    hyperbolic.  Every hyperbolic quartic has index -2.
    """
    if degree < 3:
        raise ValueError("component count needs degree >= 3")
    return len(admissible_indices(degree))


@dataclass(frozen=True)
class ComponentReport:
    degree: int
    index: int
    component_rank: int

    @property
    def factor_count(self) -> int:
        """The number of real lines of the form, 2 - index."""
        return 2 - self.index


def classify_form(f: BinaryForm) -> ComponentReport:
    """Certify, compute index and rank among the admissible indexes."""
    idx = index_gamma(f)
    ranks = admissible_indices(f.degree)
    return ComponentReport(
        degree=f.degree,
        index=idx,
        component_rank=ranks.index(idx),
    )


# ---------------------------------------------------------------------------
# numeric winding cross-checks
# ---------------------------------------------------------------------------

def _arg_delta(u: tuple[float, float], v: tuple[float, float]) -> float:
    return math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])


def _winding(vec, degree: int) -> int:
    """Winding number of the closed plane curve vec over [0, 2*pi], sampled
    at 64 + 16*degree points.  Segments with an argument step of pi/2 or
    more are bisected, at most _MAX_DEPTH times each, and the accumulated
    argument must lie within _RESIDUAL of a whole number of revolutions."""

    def accum(a: float, b: float, va, vb, depth: int) -> float:
        d = _arg_delta(va, vb)
        if abs(d) < math.pi / 2:
            return d
        if depth >= _MAX_DEPTH:
            raise RefinementError("winding bisection budget exhausted")
        m = 0.5 * (a + b)
        vm = vec(m)
        return accum(a, m, va, vm, depth + 1) + accum(m, b, vm, vb, depth + 1)

    samples = 64 + 16 * degree
    total = 0.0
    prev_t = 0.0
    prev_v = vec(0.0)
    for k in range(1, samples + 1):
        t = 2.0 * math.pi * k / samples
        v = vec(t)
        total += accum(prev_t, t, prev_v, v, 0)
        prev_t, prev_v = t, v
    turns = total / (2.0 * math.pi)
    n = round(turns)
    if abs(turns - n) >= _RESIDUAL:
        raise RefinementError(f"winding residual too large: {turns}")
    return int(n)


def winding_gamma_numeric(f: BinaryForm) -> int:
    """Winding of (f_xx - f_yy, 2*f_xy) along the unit circle; must equal
    index_gamma exactly after rounding.

    Validated on every representative with D <= 25 (the winding suite checks
    D <= 16).  From D = 26 its 64 + 16D samples miss turns: it returns -22
    on P_26 (index -24) and on the three lowest representatives at D = 30.
    """
    require_hyperbolic(f)
    at = _second_partials_float(f)

    def vec(phi: float) -> tuple[float, float]:
        a, b, c = at(math.cos(phi), math.sin(phi))
        return (a - c, 2.0 * b)

    return _winding(vec, f.degree)


def winding_alpha_numeric(f: BinaryForm) -> int:
    """Winding of the circle jet (value, angular derivative, second angular
    derivative) projected to the plane 2*D*u + w = 0; equals index_gamma - 2.

    Validated on every representative with D <= 23 (the winding suite checks
    D <= 16).  From D = 24 its 64 + 16D samples miss turns: it returns -20
    on Q_2 P_22, whose index is -20, where -22 is due.
    """
    require_hyperbolic(f)
    d = f.degree
    r1 = rotational_derivative(f)
    jet = eval_float3(f, r1, rotational_derivative(r1))

    def vec(phi: float) -> tuple[float, float]:
        u, v, w = jet(math.cos(phi), math.sin(phi))
        if d * d * u * u + d * u * w - (d - 1) * v * v >= 0.0:
            raise RefinementError("sample left the hyperbolicity cone")
        # in-plane coordinates: component along (1, 0, -2D) and along (0, 1, 0)
        return (u - 2.0 * d * w, v)

    return _winding(vec, d)


def zeros_vs_critical_points(f: BinaryForm) -> tuple[int, int]:
    """Circle-zero count of f and critical-point count of its circle
    restriction; both equal twice a linear-factor count and must agree for
    hyperbolic f."""
    require_hyperbolic(f)
    zeros = 2 * count_real_linear_factors(f)
    crit = 2 * count_real_linear_factors(rotational_derivative(f))
    return zeros, crit
