"""Asymptotic direction fields of saddle-type binary forms.

A hyperbolic form has a sign-indefinite second fundamental form at every
point away from the origin, so two transverse null-direction line fields
live on the punctured plane.  This module evaluates that quadratic form,
extracts the two direction fields, measures their half-integer turning
index around the origin, proves positivity of the discriminants that
arise when a line-product form is multiplied by an even rotational
padding, and integrates/renders the fields' integral curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .certify import hessian, is_hyperbolic, is_negative_form, require_hyperbolic
from .classify import (
    _MAX_DEPTH, RefinementError, _not_indefinite, _second_partials_float,
    count_real_linear_factors,
)
from .core import BinaryForm, eval_float3, second_partials
from .families import even_pad


@dataclass(frozen=True)
class CurvePolyline:
    """Integral curve of one null-direction field, as an ordered polyline.

    Every vertex except the last satisfies: the segment leaving it points
    along a null direction of the quadratic form evaluated at that vertex.
    """

    points: tuple[tuple[float, float], ...]
    field_choice: str
    seed: tuple[float, float]


@dataclass(frozen=True)
class IsotopyCheck:
    """Verdict for one deformation family over all t in [0, 1].

    A family's discriminant is strictly positive off the origin on all of
    [0, 1] exactly when it is at both ends (see check_isotopies), so
    failed_ts lists the ends, 0 and 1, where it was not certified.
    """

    kind: str
    failed_ts: tuple[Fraction, ...] = ()

    @property
    def verdict(self) -> bool:
        """True iff the certification held on all of [0, 1]."""
        return not self.failed_ts


def _null_vectors(a: float, b: float, c: float) -> tuple[tuple[float, float], tuple[float, float]]:
    # Solutions (u, v) of a u^2 + 2b uv + c v^2 = 0; the caller has checked
    # that the discriminant b^2 - ac is positive.  The large-magnitude root
    # numerator s avoids cancellation; the second root comes from the root
    # product c/a.
    r = math.sqrt(b * b - a * c)
    if a == 0.0:
        return (1.0, 0.0), (-c, 2.0 * b)
    s = -(b + r) if b >= 0.0 else -b + r
    return (s, a), (c, s)


def poincare_index_origin(f: BinaryForm) -> Fraction:
    """Total turning, in revolutions, of one null-direction field along the
    unit circle: a half-integer (line directions live modulo pi).  Equals
    half the winding of the degenerate-cone curve of f.

    The hyperbolicity of f is certified exactly; the second partials are
    then evaluated in floats at each sample point of the circle.

    Validated on every representative with D <= 17 (the poincare suite
    checks D <= 12).  It raises RefinementError on P_18 and P_20, and from
    D = 24 its 256 + 64D samples miss turns without an error: it returns -10
    on P_24, whose index is -22.
    """
    require_hyperbolic(f)
    at = _second_partials_float(f)

    def dirs(phi: float) -> tuple[float, float]:
        v1, v2 = _null_vectors(*at(math.cos(phi), math.sin(phi)))
        return math.atan2(v1[1], v1[0]), math.atan2(v2[1], v2[0])

    def jumps(theta: float, cands: tuple[float, float]) -> tuple[float, float]:
        # Signed angle from theta to each candidate direction, modulo pi,
        # ordered by magnitude.
        ds = []
        for cand in cands:
            d = (cand - theta) % math.pi
            if d > math.pi / 2.0:
                d -= math.pi
            ds.append(d)
        ds.sort(key=abs)
        return ds[0], ds[1]

    def unambiguous(d_near: float, d_far: float) -> bool:
        return abs(d_near) < math.pi / 8.0 and abs(d_far) >= 2.0 * abs(d_near) + 1e-3

    def advance(theta: float, phi0: float, phi1: float, depth: int) -> float:
        # A step is accepted only when the nearest candidate clearly beats
        # the other root AND the jump composed through the midpoint agrees,
        # which rules out a fast near-pi swing aliasing to a small jump.
        dirs1 = dirs(phi1)
        d1, d2 = jumps(theta, dirs1)
        if unambiguous(d1, d2):
            mid = 0.5 * (phi0 + phi1)
            m1, m2 = jumps(theta, dirs(mid))
            if unambiguous(m1, m2):
                e1, _ = jumps(theta + m1, dirs1)
                if abs(m1 + e1 - d1) < 1e-9:
                    return theta + d1
        if depth >= _MAX_DEPTH:
            raise RefinementError(
                f"direction lift failed to converge at phi = {phi0!r}, depth {depth}"
            )
        mid = 0.5 * (phi0 + phi1)
        theta_mid = advance(theta, phi0, mid, depth + 1)
        return advance(theta_mid, mid, phi1, depth + 1)

    n = 256 + 64 * f.degree
    start = min(d % math.pi for d in dirs(0.0))
    theta = start
    for i in range(n):
        phi0 = 2.0 * math.pi * i / n
        phi1 = 2.0 * math.pi * (i + 1) / n
        theta = advance(theta, phi0, phi1, 0)
    half_units = (theta - start) / math.pi
    k = round(half_units)
    if abs(half_units - k) >= 0.2:
        raise RefinementError(
            f"direction turning {half_units:.3f} half-revolutions is not near a half-integer"
        )
    return Fraction(k, 2)


def _unit(u: float, v: float) -> tuple[float, float]:
    n = math.hypot(u, v)
    return u / n, v / n


# The most steps an integral curve takes in one sense from its seed.
MAX_ARM_STEPS = 100_000
# The radius of the disk around the origin (the only singular point) at
# which an integral curve's arm stops.
STANDOFF = 1e-3


def integrate_curve(
    f: BinaryForm,
    seed: tuple[float, float],
    field_choice: str = "F1",
    step: float = 1e-3,
    max_len: float = 10.0,
    viewport: float = 2.0,
) -> CurvePolyline:
    """Integral curve of one null-direction field through `seed`, grown in
    both senses and emitted as a single polyline.

    The field label is fixed at the seed: F1 is the null direction with the
    smaller angle in [0, pi), F2 the larger.  Each arm stops on leaving the
    square |x|, |y| <= viewport, on entering the disk of radius STANDOFF
    around the origin (the only singular point), or at arc length
    max_len / 2.  Every vertex's outgoing segment points along a null
    direction evaluated at that vertex, so the per-vertex form residual is
    at rounding level.  An arm of more than MAX_ARM_STEPS steps
    (max_len / 2 / step) is a ValueError.
    """
    require_hyperbolic(f)
    sx, sy = float(seed[0]), float(seed[1])
    if not all(map(math.isfinite, (sx, sy))):
        raise ValueError("seed must be finite")
    if sx == 0.0 and sy == 0.0:
        raise ValueError("seed must differ from the origin")
    if field_choice not in ("F1", "F2"):
        raise ValueError("field_choice must be 'F1' or 'F2'")
    if not all(0.0 < v < math.inf for v in (step, max_len, viewport)):
        raise ValueError("step, max_len and viewport must be finite and positive")
    if max_len / 2.0 / step > MAX_ARM_STEPS:
        raise ValueError(f"max_len / 2 / step is above the limit of {MAX_ARM_STEPS} steps")
    ev = eval_float3(*second_partials(f))
    min_dot = math.cos(math.pi / 4.0)  # consecutive directions turn by under 45 degrees

    def aligned(x: float, y: float, ref: tuple[float, float]) -> tuple[float, float]:
        # Null direction at (x, y) closest to ref, sign-matched to ref: the
        # checked second partials of _second_partials_float and the unit
        # vectors of _null_vectors, written out in one frame.
        a, b, c = ev(x, y)
        disc = b * b - a * c
        if not 0.0 < disc < math.inf:
            raise _not_indefinite(disc, x, y)
        if a == 0.0:
            u1, v1, u2, v2 = 1.0, 0.0, -c, 2.0 * b
        else:
            r = math.sqrt(disc)
            s = -(b + r) if b >= 0.0 else -b + r
            u1, v1, u2, v2 = s, a, c, s
        n = math.hypot(u1, v1)
        u1, v1 = u1 / n, v1 / n
        n = math.hypot(u2, v2)
        u2, v2 = u2 / n, v2 / n
        rx, ry = ref
        dot = u1 * rx + v1 * ry
        dot2 = u2 * rx + v2 * ry
        if abs(dot2) > abs(dot):  # the first vector wins a tie
            u1, v1, dot = u2, v2, dot2
        if dot < 0.0:
            u1, v1, dot = -u1, -v1, -dot
        if dot <= min_dot:
            raise RefinementError(
                f"direction lift broke at ({x!r}, {y!r}), "
                f"{math.hypot(x, y):.3g} from the origin"
            )
        return u1, v1

    a, b, c = ev(sx, sy)
    disc = b * b - a * c
    if not 0.0 < disc < math.inf:
        raise _not_indefinite(disc, sx, sy)
    by_angle = sorted((_unit(*v) for v in _null_vectors(a, b, c)),
                      key=lambda w: math.atan2(w[1], w[0]) % math.pi)
    d0 = by_angle[0] if field_choice == "F1" else by_angle[1]
    arm_steps = int((max_len / 2.0) / step)

    def grow(forward: bool) -> list[tuple[float, float]]:
        # The forward arm steps along the direction at each vertex.  The
        # backward arm builds predecessors of the seed so that, in final
        # order, each vertex's outgoing segment is the null direction at
        # that vertex: it solves prev + step * dir(prev) = cur by fixed-point
        # iteration.  Negation is exact, so x + (-step) * u rounds as
        # x - step * u does.
        h = step if forward else -step
        pts = [(sx, sy)] if forward else []
        x, y = sx, sy
        d = d0
        for _ in range(arm_steps):
            if not forward:
                d = aligned(x + h * d[0], y + h * d[1], d)
                for _ in range(7):
                    prev, d = d, aligned(x + h * d[0], y + h * d[1], d)
                    if math.hypot(d[0] - prev[0], d[1] - prev[1]) < 1e-15:
                        break
            nx, ny = x + h * d[0], y + h * d[1]
            if math.hypot(nx, ny) < STANDOFF:
                break
            pts.append((nx, ny))
            if abs(nx) > viewport or abs(ny) > viewport:
                break
            x, y = nx, ny
            if forward:
                d = aligned(x, y, d)
        return pts

    back = grow(False)
    points = tuple(reversed(back)) + tuple(grow(True))
    return CurvePolyline(points=points, field_choice=field_choice, seed=(sx, sy))


def _cross_blocks(p: BinaryForm, q: BinaryForm):
    """The cross-term form (a, b, c) = (q pxx + 2 px qx, q pxy + px qy + py qx,
    q pyy + 2 py qy): the second derivatives of p*q without p * (second
    partials of q).  Validates the pair and verifies the mixed
    second-derivative identity of discriminant_omega first."""
    n = q.degree // 2
    if n < 1 or q != even_pad(n):
        raise ValueError("padding factor must be x^(2n) + y^(2n) with n >= 1")
    if p.degree < 2:
        raise ValueError("line-product factor must have degree >= 2")
    if count_real_linear_factors(p) != p.degree:
        raise ValueError("first factor must be a product of distinct real linear forms")
    px, py = p.partial_x(), p.partial_y()
    qx, qy = q.partial_x(), q.partial_y()
    pxx, pxy, pyy = second_partials(p)
    sb = px * qy + py * qx
    t_comb = pxx * py * qy + pyy * px * qx - pxy * sb
    expected = Fraction(2 * n, p.degree - 1) * (q * hessian(p))
    if t_comb != expected:
        raise ValueError("mixed second-derivative identity failed")
    return q * pxx + 2 * px * qx, q * pxy + sb, q * pyy + 2 * py * qy


def discriminant_omega(p: BinaryForm, q: BinaryForm) -> BinaryForm:
    """Exact discriminant b^2 - a*c of the cross-term quadratic form built
    from a distinct-real-lines factor p and an even padding q = x^(2n) + y^(2n).

    Before assembling the discriminant this verifies, as an exact polynomial
    identity, that the mixed second-derivative combination
    p_xx p_y q_y + p_yy p_x q_x - p_xy (p_x q_y + p_y q_x) equals
    (2n / (deg p - 1)) * q * (Hessian of p)."""
    a, b, c = _cross_blocks(p, q)
    return b * b - a * c


def check_isotopies(p: BinaryForm, q: BinaryForm) -> list[IsotopyCheck]:
    """Certify, for every t in [0, 1], three deformation families joining
    quadratic forms built from p (distinct real lines) and
    q = x^(2n) + y^(2n):

    - phi: cross-term form plus t times p * (second fundamental form of q);
      at t = 1 this is the full second fundamental form of p*q.
    - psi: q * (second fundamental form of p) plus 2t times the symmetrized
      first-derivative product; at t = 1 this is the cross-term form.
    - gamma_t: the scalar (t + (1-t) q) times the second fundamental form
      of p; the scalar is positive away from the origin for t in [0, 1].

    A family holds when its discriminant is strictly positive off the origin
    for every t in [0, 1] (proved exactly), and the two ends of [0, 1]
    decide that.  Write A = q^2 hess(p), k = 2n / (deg p - 1) and
    C = -(px qy - py qx)^2 <= 0.
    - phi's a*c - b^2 has t^2 coefficient p^2 hess(q) >= 0, so it is convex
      in t and negative on [0, 1] when it is at both ends: the cross-term
      form at t = 0 and hess(p*q), the certificate of p*q, at t = 1.
    - psi's a*c - b^2 is A (1 + 2kt) + C t^2 by the mixed-derivative
      identity, so it is negative on [0, 1] exactly when A is, which is its
      t = 0 end: the certificate of p.  Its t = 1 end is the cross-term form.
    - gamma_t's sign does not depend on t: the certificate of p.
    Each failed_ts lists the ends, 0 and 1, where its family fails.  The
    pair is validated, and the mixed-derivative identity verified, as in
    discriminant_omega."""
    a, b, c = _cross_blocks(p, q)
    omega, _ = is_negative_form(a * c - b * b)
    p_ok = is_hyperbolic(p).is_hyperbolic
    pq_ok = is_hyperbolic(p * q).is_hyperbolic

    def failed_ends(at_0: bool, at_1: bool) -> tuple[Fraction, ...]:
        return tuple(Fraction(t) for t, ok in ((0, at_0), (1, at_1)) if not ok)

    return [IsotopyCheck("phi", failed_ends(omega, pq_ok)),
            IsotopyCheck("psi", failed_ends(p_ok, omega)),
            IsotopyCheck("gamma_t", failed_ends(p_ok, p_ok))]


_FIELD_COLORS = {"F1": "#1f77b4", "F2": "#d62728"}
SVG_SIZE = 640  # width and height of the SVG canvas, in pixels


def _svg_path(points, viewport: float) -> str:
    scale = SVG_SIZE / (2.0 * viewport)
    coords = []
    stride = max(1, len(points) // 800)
    sampled = list(points[::stride])
    if sampled[-1] != points[-1]:
        sampled.append(points[-1])
    for x, y in sampled:
        coords.append(f"{(x + viewport) * scale:.4f},{(viewport - y) * scale:.4f}")
    return "M " + " L ".join(coords)


def polylines_to_svg(curves: list[CurvePolyline], viewport: float = 2.0) -> str:
    """Deterministic SVG document with one path per polyline; paths carry
    their seed and field label as data attributes and are colored by field.
    The viewport must be finite and positive, and every polyline needs a
    point and the field label F1 or F2."""
    if not 0.0 < viewport < math.inf:
        raise ValueError("viewport must be finite and positive")
    for i, curve in enumerate(curves):
        if not curve.points:
            raise ValueError(f"curve {i} has no points")
        if curve.field_choice not in _FIELD_COLORS:
            raise ValueError(
                f"curve {i} has field label {curve.field_choice!r}, not 'F1' or 'F2'")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        f'<line x1="0" y1="{SVG_SIZE / 2:.1f}" x2="{SVG_SIZE}" y2="{SVG_SIZE / 2:.1f}" '
        'stroke="#dddddd" stroke-width="1"/>',
        f'<line x1="{SVG_SIZE / 2:.1f}" y1="0" x2="{SVG_SIZE / 2:.1f}" y2="{SVG_SIZE}" '
        'stroke="#dddddd" stroke-width="1"/>',
    ]
    for curve in curves:
        color = _FIELD_COLORS[curve.field_choice]
        seed_attr = f"{curve.seed[0]!r},{curve.seed[1]!r}"
        parts.append(
            f'<path d="{_svg_path(curve.points, viewport)}" fill="none" '
            f'stroke="{color}" stroke-width="1" data-seed="{seed_attr}" '
            f'data-field="{curve.field_choice}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def polylines_to_csv(curves: list[CurvePolyline]) -> str:
    """CSV rendering with columns curve_id, field, x, y (full resolution)."""
    lines = ["curve_id,field,x,y"]
    for i, curve in enumerate(curves):
        for x, y in curve.points:
            lines.append(f"{i},{curve.field_choice},{x!r},{y!r}")
    return "\n".join(lines) + "\n"
