"""Null-direction fields: pointwise data, index halving, ray-field parity,
curve integration, cross-term discriminants, and deformation checks."""

import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from hypforms import asymptotics, classify, verify
from hypforms import (
    Certificate,
    RefinementError,
    check_isotopies,
    discriminant_omega,
    hessian,
    index_gamma,
    integrate_curve,
    is_hyperbolic,
    is_negative_form,
    p_factorized,
    parse_form,
    poincare_index_origin,
    polylines_to_csv,
    polylines_to_svg,
    representatives,
)
from hypforms.asymptotics import _null_vectors
from hypforms.classify import _second_partials_float
from hypforms.core import eval_float3, second_partials
from hypforms.families import even_pad

F3 = parse_form("x^3 - x*y^2")        # three lines: x=0, y=+-x
F4 = parse_form("x^3*y - x*y^3")      # four lines: x=0, y=0, y=+-x


# ------------------------------------------------------ pointwise quadratic
# The second fundamental form at a point is read by _second_partials_float
# (the lift and the gamma winding) and, inline, by the curve stepper; its
# null directions are _null_vectors'.


def test_second_fundamental_form_values():
    a, b, c = _second_partials_float(F3)(1.0, 0.0)
    assert (a, b, c) == (6.0, 0.0, -2.0)
    assert b * b - a * c > 0


def test_second_fundamental_form_rejects_origin():
    with pytest.raises(RefinementError,
                       match=r"^second partials not indefinite at \(0\.0, 0\.0\)$"):
        _second_partials_float(F3)(0.0, 0.0)
    with pytest.raises(ValueError, match="^seed must differ from the origin$"):
        integrate_curve(F3, (0.0, 0.0))


def test_asymptotic_directions_are_null():
    at = _second_partials_float(F4)
    for x, y in ((1.0, 0.0), (0.7, -1.3), (2.0, 0.5)):
        a, b, c = at(x, y)
        angles = []
        for u, v in _null_vectors(a, b, c):
            n = math.hypot(u, v)
            u, v = u / n, v / n
            # the form on the unit vector, over the coefficient norm
            residual = abs(a * u * u + 2.0 * b * u * v + c * v * v)
            assert residual / math.sqrt(a * a + 4.0 * b * b + c * c) < 1e-12, (x, y)
            angles.append(math.atan2(v, u) % math.pi)
        th1, th2 = sorted(angles)
        assert 0.0 <= th1 < th2 < math.pi


def test_asymptotic_directions_need_positive_discriminant():
    with pytest.raises(RefinementError,
                       match=r"^second partials not indefinite at \(1\.0, 0\.0\)$"):
        _second_partials_float(parse_form("x^2 + y^2"))(1.0, 0.0)


_OUT_OF_RANGE = "second partials out of the float range at (1.0, 0.0)"
_NOT_INDEFINITE = "second partials not indefinite at (1.0, 0.0)"


@pytest.mark.parametrize("a, b, c, error, message", [
    pytest.param(math.nan, 0.0, 0.0, OverflowError, _OUT_OF_RANGE, id="nan-a"),
    pytest.param(1.0, math.nan, -1.0, OverflowError, _OUT_OF_RANGE, id="nan-b"),
    pytest.param(math.inf, 1.0, -1.0, OverflowError, _OUT_OF_RANGE, id="inf-a"),
    pytest.param(0.0, -math.inf, 0.0, OverflowError, _OUT_OF_RANGE, id="inf-b"),
    pytest.param(math.inf, 0.0, 0.0, OverflowError, _OUT_OF_RANGE, id="inf-times-zero"),
    pytest.param(1.0, 0.0, 1.0, RefinementError, _NOT_INDEFINITE, id="negative"),
    pytest.param(0.0, 0.0, 0.0, RefinementError, _NOT_INDEFINITE, id="zero"),
])
def test_asymptotic_directions_reject_a_discriminant_that_is_not_positive_and_finite(
        monkeypatch, a, b, c, error, message):
    # the lift's checked read and the stepper's inline check refuse the same
    # second partials with the same error, before any null direction is formed
    def fixed(*forms):
        return lambda x, y: (a, b, c)

    monkeypatch.setattr(classify, "eval_float3", fixed)
    monkeypatch.setattr(asymptotics, "eval_float3", fixed)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _second_partials_float(F3)(1.0, 0.0)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        integrate_curve(F3, (1.0, 0.0))


@pytest.mark.parametrize("d", [5, 9, 13])
def test_second_fundamental_form_is_the_form_the_stepper_reads(d):
    # the stepper reads eval_float3 of the second partials, the lift reads
    # _second_partials_float: both give eval_float's floats, not a nearby
    # rounding
    rng = random.Random(2200 + d)
    for member in representatives(d):
        partials = second_partials(member.form)
        ev = eval_float3(*partials)
        at = _second_partials_float(member.form)
        for _ in range(20):
            x, y = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            want = tuple(p.eval_float(x, y) for p in partials)
            assert at(x, y) == ev(x, y) == want, (member.label, x, y)


# ----------------------------------------------------------- index halving


def test_poincare_index_small_cases():
    assert poincare_index_origin(F3) == Fraction(-1, 2)
    assert poincare_index_origin(F4) == Fraction(-1)
    assert poincare_index_origin(parse_form("x*y")) == 0


def test_poincare_index_halves_gamma_index():
    for text in ("x^3 - x*y^2", "x^3*y - x*y^3", "x^2 - 5*y^2"):
        f = parse_form(text)
        assert poincare_index_origin(f) == Fraction(index_gamma(f), 2)


@pytest.mark.parametrize("d", range(13, 18))
def test_poincare_index_halves_the_stored_index_through_degree_17(d):
    # the docstring validates the lift on every representative with D <= 17
    for member in representatives(d):
        assert poincare_index_origin(member.form) == Fraction(member.expected_index, 2), \
            member.label


@pytest.mark.parametrize("d, turning", [(18, "-15.458"), (20, "-17.441")])
def test_poincare_lift_refuses_p18_and_p20(d, turning):
    # the docstring's validated range ends at D = 17: the 256 + 64D samples
    # lose turns on P_18 and P_20, and the half-integer check refuses them
    form = next(m.form for m in representatives(d) if m.label == f"P_{d}")
    message = f"direction turning {turning} half-revolutions is not near a half-integer"
    t0 = time.perf_counter()
    with pytest.raises(RefinementError, match=f"^{re.escape(message)}$"):
        poincare_index_origin(form)
    assert time.perf_counter() - t0 < 5.0


def test_poincare_rejects_non_hyperbolic():
    from hypforms import NotHyperbolicError

    with pytest.raises(NotHyperbolicError):
        poincare_index_origin(parse_form("x^4 + y^4"))


def test_poincare_lift_failure_names_phi_and_depth(monkeypatch):
    # P_10 needs a bisection on the first arc of its lift
    p10 = next(m.form for m in representatives(10) if m.label == "P_10")
    monkeypatch.setattr(asymptotics, "_MAX_DEPTH", 0)
    with pytest.raises(RefinementError,
                       match=r"^direction lift failed to converge at phi = 0\.23\d*, depth 0$"):
        poincare_index_origin(p10)


# ----------------------------------------------------- ray-field parity law


def _null_angles(at, phi: float) -> list[float]:
    """The two null directions of the second partials at angle phi on the
    unit circle, as angles in [0, pi), ascending."""
    return sorted(math.atan2(v, u) % math.pi
                  for u, v in _null_vectors(*at(math.cos(phi), math.sin(phi))))


def _transport_half_loop(at, phi0: float, theta0: float, steps: int = 4096) -> float:
    """Continue a null direction mod pi along the half circle phi0 ->
    phi0 + pi and return the lifted angle at the antipode."""
    theta = theta0
    for i in range(1, steps + 1):
        cands = _null_angles(at, phi0 + math.pi * i / steps)
        best = None
        for c in cands:
            for lift in (c, c + math.pi, c - math.pi, c + 2 * math.pi, c - 2 * math.pi):
                d = lift - theta
                if best is None or abs(d) < abs(best[0]):
                    best = (d, lift)
        assert abs(best[0]) < math.pi / 4, "transport step too coarse"
        theta = theta + best[0]
    return theta


def _ray_field_swap(f, line_angle: float) -> bool:
    """True when transporting the line's own null direction to the antipodal
    ray lands on the other field."""
    at = _second_partials_float(f)
    th1, th2 = _null_angles(at, line_angle)
    radial = line_angle % math.pi
    start = min((th1, th2), key=lambda t: min(abs(t - radial), math.pi - abs(t - radial)))
    end = _transport_half_loop(at, line_angle, start)
    other = th2 if start == th1 else th1
    dist_same = min(abs((end - start) % math.pi), math.pi - abs((end - start) % math.pi))
    dist_other = min(abs((end - other) % math.pi), math.pi - abs((end - other) % math.pi))
    assert min(dist_same, dist_other) < 1e-6
    return dist_other < dist_same


def test_even_degree_rays_share_a_field():
    # the two rays of each zero line of an even form belong to one field
    for angle in (0.0, math.pi / 2, math.pi / 4, -math.pi / 4):
        assert not _ray_field_swap(F4, angle)


def test_odd_degree_rays_swap_fields():
    for angle in (math.pi / 2, math.pi / 4, -math.pi / 4):
        assert _ray_field_swap(F3, angle)


# ------------------------------------------------------------- integration


def test_integrate_stays_on_zero_line():
    # seeds exactly on a zero line: the polyline must stay on the line
    for f, seed, normal in (
        (F3, (1.0, 1.0), (1.0, -1.0)),
        (F3, (0.0, 1.2), (1.0, 0.0)),
        (F4, (-0.8, 0.8), (1.0, 1.0)),
        (F4, (1.1, 0.0), (0.0, 1.0)),
    ):
        found = False
        for field in ("F1", "F2"):
            c = integrate_curve(f, seed, field_choice=field, step=1e-3)
            off = max(abs(p[0] * normal[0] + p[1] * normal[1]) for p in c.points)
            if off == 0.0:
                found = True
        assert found, f"no field keeps {seed} on its line for {f}"


def test_integrate_residual_invariant():
    f = F4
    fxx = f.partial_x().partial_x()
    fxy = f.partial_x().partial_y()
    fyy = f.partial_y().partial_y()
    c = integrate_curve(f, (0.9, 0.3), field_choice="F2", step=1e-3, max_len=2.0)
    assert len(c.points) > 100
    worst = 0.0
    for i in range(len(c.points) - 1):
        x, y = c.points[i]
        dx = c.points[i + 1][0] - x
        dy = c.points[i + 1][1] - y
        n = math.hypot(dx, dy)
        u, v = dx / n, dy / n
        a = fxx.eval_float(x, y)
        b = fxy.eval_float(x, y)
        cc = fyy.eval_float(x, y)
        r = abs(a * u * u + 2 * b * u * v + cc * v * v) / math.sqrt(
            a * a + 4 * b * b + cc * cc
        )
        worst = max(worst, r)
    assert worst < 1e-9


def test_integrate_termination_modes():
    # viewport exit: at most one vertex beyond the box on each arm
    c = integrate_curve(F3, (1.0, 1.0), viewport=1.5, max_len=50.0)
    outside = sum(1 for p in c.points if abs(p[0]) > 1.5 or abs(p[1]) > 1.5)
    assert outside <= 2
    # origin standoff: the arm along the zero line x = 0 approaches the
    # origin and stops within one step (1e-3) outside radius STANDOFF
    c2 = integrate_curve(F3, (0.0, 0.5), field_choice="F2")
    nearest = min(math.hypot(*p) for p in c2.points)
    assert asymptotics.STANDOFF <= nearest <= asymptotics.STANDOFF + 1e-3
    # arc-length cap
    c3 = integrate_curve(F3, (1.0, 1.0), max_len=0.5, viewport=50.0)
    length = sum(
        math.hypot(c3.points[i + 1][0] - c3.points[i][0], c3.points[i + 1][1] - c3.points[i][1])
        for i in range(len(c3.points) - 1)
    )
    assert length <= 0.5 + 2e-3


def test_integrate_break_names_the_vertex():
    # a curve along the zero line at 30 degrees, where the step is too
    # coarse for this form near the origin
    f = parse_form("(x^2 + y^2)*(x^3 - 3*x*y^2)")
    seed = (0.43301270189221935, 0.25)
    with pytest.raises(RefinementError) as info:
        integrate_curve(f, seed, field_choice="F1", step=0.01, max_len=6.0, viewport=1.0)
    m = re.fullmatch(r"direction lift broke at \((\S+), (\S+)\), (\S+) from the origin",
                     str(info.value))
    assert m is not None, str(info.value)
    x, y = float(m.group(1)), float(m.group(2))
    assert f"{math.hypot(x, y):.3g}" == m.group(3)
    assert math.hypot(x, y) < 0.02


def test_integrate_raises_overflow_at_the_first_vertex_past_the_float_range():
    # the discriminant 12x^2 + 4y^2 of F3's second partials is finite at the
    # seed and overflows some 35 steps out: the stepper names that vertex
    with pytest.raises(OverflowError, match=re.escape(
            "second partials out of the float range at "
            "(3.486143753624015e+153, 2.9969800072825735e+153)")):
        integrate_curve(F3, (1e153, 0.0), step=1e152, max_len=2e154, viewport=1e155)


def test_integrate_validates_arguments():
    with pytest.raises(ValueError):
        integrate_curve(F3, (0.0, 0.0))
    with pytest.raises(ValueError):
        integrate_curve(F3, (1.0, 0.0), field_choice="F3")
    with pytest.raises(ValueError):
        integrate_curve(F3, (1.0, 0.0), step=-1.0)
    for bad in ({"step": math.nan}, {"step": math.inf}, {"max_len": math.inf},
                {"viewport": math.nan}, {"viewport": 0.0}):
        with pytest.raises(ValueError, match="finite and positive"):
            integrate_curve(F3, (1.0, 0.0), **bad)


def test_integrate_rejects_an_arm_above_the_step_limit():
    # 5e9 planned steps per arm: refused before the first step
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="above the limit of 100000 steps"):
        integrate_curve(F3, (0.9, 0.3), step=1e-9)
    assert time.perf_counter() - t0 < 1.0
    # exactly the limit is allowed; the viewport ends the arms early
    c = integrate_curve(F3, (0.9, 0.3), step=0.5, max_len=float(asymptotics.MAX_ARM_STEPS),
                        viewport=1.0)
    assert len(c.points) > 1


def test_fields_are_transverse_at_seed():
    seed = (0.5, 0.25)

    def seed_direction(field):
        c = integrate_curve(F4, seed, field_choice=field, max_len=0.2)
        i = c.points.index(seed)
        return (c.points[i + 1][0] - seed[0], c.points[i + 1][1] - seed[1])

    d1 = seed_direction("F1")
    d2 = seed_direction("F2")
    cross = abs(d1[0] * d2[1] - d1[1] * d2[0])
    assert cross > 1e-4 * math.hypot(*d1) * math.hypot(*d2)


# ---------------------------------------------------------------- emission


def test_svg_and_csv_emission():
    curves = [
        integrate_curve(F3, (1.0, 1.0), field_choice="F1", max_len=1.0),
        integrate_curve(F3, (1.0, 1.0), field_choice="F2", max_len=1.0),
    ]
    svg = polylines_to_svg(curves, viewport=2.0)
    assert svg.startswith("<svg")
    assert svg.count("<path") == 2
    assert 'data-field="F1"' in svg and 'data-field="F2"' in svg
    csv = polylines_to_csv(curves)
    lines = csv.strip().splitlines()
    assert lines[0] == "curve_id,field,x,y"
    assert len(lines) == 1 + sum(len(c.points) for c in curves)


# ------------------------------------------------------- cross-term algebra


def test_discriminant_omega_positive_small_pair():
    p = parse_form("x^3 - x*y^2")
    q = parse_form("x^2 + y^2")
    disc = discriminant_omega(p, q)
    ok, _ = is_negative_form(Fraction(-1) * disc)
    assert ok


def test_discriminant_omega_positive_larger_pair():
    p = parse_form("x*(x^2 - y^2)*(x^2 - 4*y^2)")
    q = parse_form("x^4 + y^4")
    disc = discriminant_omega(p, q)
    ok, _ = is_negative_form(Fraction(-1) * disc)
    assert ok


def test_discriminant_omega_rejects_repeated_factor():
    p = parse_form("x^2*(x^2 - y^2)")
    q = parse_form("x^2 + y^2")
    with pytest.raises(ValueError):
        discriminant_omega(p, q)


def test_discriminant_omega_rejects_wrong_q():
    p = parse_form("x^3 - x*y^2")
    with pytest.raises(ValueError):
        discriminant_omega(p, parse_form("x^2 + 2*y^2"))


def test_discriminant_omega_checks_the_mixed_derivative_identity(monkeypatch):
    # a Hessian off by a factor of 2 breaks the identity that the cross-term
    # algebra rests on, and discriminant_omega refuses the pair
    hessian = asymptotics.hessian
    monkeypatch.setattr(asymptotics, "hessian", lambda f: Fraction(2) * hessian(f))
    with pytest.raises(ValueError, match="^mixed second-derivative identity failed$"):
        discriminant_omega(parse_form("x^3 - x*y^2"), parse_form("x^2 + y^2"))


@pytest.mark.parametrize("p, q", [
    ("x^2*(x^2 - y^2)", "x^2 + y^2"),    # repeated factor
    ("x^3 - x*y^2", "x^2 + 2*y^2"),      # not x^(2n) + y^(2n)
    ("x*(x^2 + y^2)", "x^4 + y^4"),      # lines not all real
])
def test_check_isotopies_rejects_what_discriminant_omega_rejects(p, q):
    for check in (discriminant_omega, check_isotopies):
        with pytest.raises(ValueError):
            check(parse_form(p), parse_form(q))


def test_check_isotopies_clean_pair():
    p = parse_form("x^3 - x*y^2")
    q = parse_form("x^4 + y^4")
    checks = {c.kind: c for c in check_isotopies(p, q)}
    assert set(checks) == {"phi", "psi", "gamma_t"}
    for c in checks.values():
        assert c.verdict
        assert c.failed_ts == ()


def test_check_isotopies_boundary_pair_fails_only_at_endpoint():
    # the endpoint of the phi family for this pair is the quadratic data of
    # a non-hyperbolic quintic, so the check must flag exactly t = 1
    p = parse_form("x^3 - x*y^2")
    q = parse_form("x^2 + y^2")
    checks = {c.kind: c for c in check_isotopies(p, q)}
    assert checks["phi"].verdict is False
    assert checks["phi"].failed_ts == (Fraction(1),)
    assert checks["psi"].verdict
    assert checks["gamma_t"].verdict


def test_check_isotopies_decides_the_cross_term_form_once(monkeypatch):
    # phi at t = 0 and psi at t = 1 are both the cross-term form of
    # discriminant_omega: one decision of it sets both verdicts, and the
    # certificates of p and p*q go through certify
    p, q = F3, parse_form("x^4 + y^4")
    omega = -discriminant_omega(p, q)
    decided = []

    def not_negative_at_omega(h):
        decided.append(h == omega)
        return (False, None) if h == omega else is_negative_form(h)

    monkeypatch.setattr(asymptotics, "is_negative_form", not_negative_at_omega)
    checks = {c.kind: c for c in check_isotopies(p, q)}
    assert decided == [True]
    assert checks["phi"].failed_ts == (Fraction(0),)
    assert checks["psi"].failed_ts == (Fraction(1),)
    assert checks["gamma_t"].verdict


def _rejecting(monkeypatch, *forms):
    # certify each of forms as not hyperbolic, every other form as before
    def certificate(f):
        return Certificate("not_hyperbolic", "hessian", f.degree) if f in forms else is_hyperbolic(f)
    monkeypatch.setattr(asymptotics, "is_hyperbolic", certificate)


def test_check_isotopies_lists_each_failing_end(monkeypatch):
    # phi's ends are the cross-term form and p*q, psi's are p and the
    # cross-term form, and gamma_t's are both p
    p, q = F3, parse_form("x^4 + y^4")
    omega = -discriminant_omega(p, q)
    monkeypatch.setattr(asymptotics, "is_negative_form",
                        lambda h: (False, None) if h == omega else is_negative_form(h))
    _rejecting(monkeypatch, p * q)
    assert [(k.kind, k.verdict, k.failed_ts) for k in check_isotopies(p, q)] == [
        ("phi", False, (Fraction(0), Fraction(1))),
        ("psi", False, (Fraction(1),)),
        ("gamma_t", True, ()),
    ]
    monkeypatch.setattr(asymptotics, "is_negative_form", is_negative_form)
    _rejecting(monkeypatch, p)
    assert [(k.kind, k.verdict, k.failed_ts) for k in check_isotopies(p, q)] == [
        ("phi", True, ()),
        ("psi", False, (Fraction(0),)),
        ("gamma_t", False, (Fraction(0), Fraction(1))),
    ]


# the eight pairs of the isotopies suite, then its boundary pair
ISOTOPY_PAIRS = [*verify.ISOTOPY_PAIRS, (1, False, 1)]


def _phi(p, q, t):
    # (pq)'' - (1 - t) p q'', built from the second partials alone
    return tuple(w - (1 - t) * p * v for w, v in zip(second_partials(p * q), second_partials(q)))


def _psi(p, q, t):
    # q p'' + t ((pq)'' - p q'' - q p''), built from the second partials alone
    return tuple(q * u + t * (w - p * v - q * u) for w, u, v in
                 zip(second_partials(p * q), second_partials(p), second_partials(q)))


def _disc(a, b, c):
    return a * c - b * b


def _in_t(family, p, q):
    # (h0, h1, h2) with _disc(*family(p, q, t)) = h0 + h1 t + h2 t^2: each
    # entry is affine in t, so the values at t = 0, 1 and -1 decide them
    h0, hp, hm = (_disc(*family(p, q, Fraction(t))) for t in (0, 1, -1))
    return h0, Fraction(1, 2) * (hp - hm), Fraction(1, 2) * (hp + hm) - h0


@pytest.mark.parametrize("k, even, n", ISOTOPY_PAIRS)
def test_check_isotopies_decides_the_family_discriminants(monkeypatch, k, even, n):
    # the identities by which the two ends of [0, 1] decide each family
    p, q = p_factorized(k, even=even).form, even_pad(n)
    ratio = Fraction(q.degree, p.degree - 1)  # the k of the identity, 2n / (deg p - 1)
    px, py, qx, qy = p.partial_x(), p.partial_y(), q.partial_x(), q.partial_y()
    A = q * q * hessian(p)
    C = -(px * qy - py * qx) ** 2
    # psi: A (1 + 2 ratio t) + C t^2, negative on [0, 1] exactly when A is
    assert _in_t(_psi, p, q) == (A, 2 * ratio * A, C)
    # phi: convex in t, and its t = 1 end is the Hessian of p*q
    assert _in_t(_phi, p, q)[2] == p * p * hessian(q)
    assert _disc(*_phi(p, q, 1)) == hessian(p * q)
    # the cross-term form is phi at t = 0 and psi at t = 1
    omega = _disc(*_phi(p, q, 0))
    assert omega == _disc(*_psi(p, q, 1)) == (1 + 2 * ratio) * A + C == -discriminant_omega(p, q)
    decided = []

    def recording(h):
        decided.append(h)
        return is_negative_form(h)

    monkeypatch.setattr(asymptotics, "is_negative_form", recording)
    check_isotopies(p, q)
    assert decided == [omega]


# every product of 2 or 3 distinct lines among y, x + y, x, x - y, x - 2y,
# padded with n = 1 and 2
CENSUS_LINES = [parse_form(t) for t in ("y", "x + y", "x", "x - y", "x - 2*y")]
CENSUS_PAIRS = [(math.prod(ls[1:], start=ls[0]), even_pad(n))
                for r in (2, 3) for ls in itertools.combinations(CENSUS_LINES, r)
                for n in (1, 2)]
# twelve values of t in [0, 1], three of them not dyadic
GATE_TS = tuple(Fraction(j, 8) for j in range(9)) + (Fraction(1, 3), Fraction(2, 3), Fraction(5, 7))


def test_check_isotopies_agrees_with_direct_decisions_inside_the_interval():
    # each family's verdict on [0, 1] against phi and psi decided directly at
    # twelve values of t; the pairs include many whose phi fails
    failing = 0
    suite_pairs = [(p_factorized(k, even=even).form, even_pad(n)) for k, even, n in ISOTOPY_PAIRS]
    for p, q in suite_pairs + CENSUS_PAIRS:
        checks = {c.kind: c for c in check_isotopies(p, q)}
        for kind, family in (("phi", _phi), ("psi", _psi)):
            failed = [t for t in GATE_TS if not is_negative_form(_disc(*family(p, q, t)))[0]]
            assert checks[kind].verdict == (not failed), (kind, p, q)
            assert checks[kind].failed_ts == tuple(t for t in failed if t in (0, 1)), (kind, p, q)
        failing += not all(c.verdict for c in checks.values())
    assert (len(CENSUS_PAIRS), failing) == (40, 34)
