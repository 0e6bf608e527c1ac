"""Verification suites for every machine-checkable claim the package rests on.

Each suite runs its independent cases as it declares them, one at a time,
and returns a SuiteReport whose cases, sorted by id, record what was
expected, what was computed, and whether they match.
Comparisons are exact (integer/rational/polynomial equality) unless a case
is explicitly tagged with a tolerance.  Case lists are deterministic; the
random corpora draw from a seeded generator whose seed appears in the case
ids.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from .asymptotics import check_isotopies, poincare_index_origin
from .certify import (
    hessian,
    hess_linear_product,
    is_hyperbolic,
    is_hyperbolic_polar,
    is_nonpositive_on_unit_interval,
    linear_extension_is_hyperbolic,
    polar_form,
    sturm_count,
)
from .classify import (
    admissible_indices,
    index_gamma,
    num_components,
    winding_alpha_numeric,
    winding_gamma_numeric,
    zeros_vs_critical_points,
)
from .core import BinaryForm, UniPoly, parse_form
from .families import (
    FamilyMember,
    even_pad,
    f_family,
    g_even,
    p_factorized,
    representatives,
    table1,
)
from .suites import SUITE_NAMES, _SUITES, _check_range

DEFAULT_SEED = 20260816


@dataclass
class SuiteReport:
    suite: str
    cases: list[dict]
    wall_time: float

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c["pass"])

    @property
    def failed(self) -> int:
        return len(self.cases) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed, "failed": self.failed, "ok": self.ok}

    def summary_line(self) -> str:
        state = "ok" if self.ok else "FAILED"
        return (
            f"suite {self.suite}: {self.passed}/{len(self.cases)} passed "
            f"in {self.wall_time:.2f}s [{state}]"
        )


class _Cases:
    """The cases of one suite, each run as it is declared; the clock starts
    once the suite's override, if it has one, is range-checked."""

    def __init__(self, suite: str, value: int | None = None):
        if value is not None:
            _check_range(suite, value)
        self.suite = suite
        self.cases: list[dict] = []
        self.t0 = time.perf_counter()

    def add(self, cid: str, fn, *args) -> None:
        try:
            case = fn(*args)
        except Exception as exc:
            case = {
                "expected": "case evaluates without error",
                "got": f"{type(exc).__name__}: {exc}",
                "pass": False,
                "comparison": "exact",
            }
        case["id"] = cid
        self.cases.append(case)

    def report(self) -> SuiteReport:
        self.cases.sort(key=lambda c: c["id"])
        return SuiteReport(self.suite, self.cases, time.perf_counter() - self.t0)


def _rep_degrees(d_max: int) -> list[int]:
    """The degrees 3..d_max that have a representative set: all but 4."""
    return [d for d in range(3, d_max + 1) if d != 4]


def _reps(d_max: int) -> list[FamilyMember]:
    """Every representative of the degrees _rep_degrees(d_max), by degree."""
    return [m for d in _rep_degrees(d_max) for m in representatives(d)]


def _exact(expected, got) -> dict:
    return {
        "expected": str(expected),
        "got": str(got),
        "pass": expected == got,
        "comparison": "exact",
    }


def _holds(claim: str, ok: bool, otherwise: str) -> dict:
    """A case whose got-text repeats the claim when it holds."""
    return _exact(claim, claim if ok else otherwise)


# ---------------------------------------------------------------- table1


def suite_table1(d_max: int = 16) -> SuiteReport:
    """Every rotationally-padded harmonic-power member up to degree d_max is
    certified hyperbolic and its winding index matches the stored value."""
    cases = _Cases("table1", d_max)

    def fn(mem: FamilyMember):
        cert = is_hyperbolic(mem.form)
        if not cert.is_hyperbolic:
            return _exact(f"hyperbolic, index {mem.expected_index}", cert.verdict)
        return _exact(
            f"hyperbolic, index {mem.expected_index}",
            f"hyperbolic, index {index_gamma(mem.form)}",
        )
    for mem in table1(d_max):
        cases.add(f"table1/D={mem.form.degree:02d}/{mem.label}", fn, mem)
    return cases.report()


# ------------------------------------------------------------- conjecture


def suite_conjecture(d_max: int = 20) -> SuiteReport:
    """Per degree: the representative set is certified hyperbolic, its index
    list enumerates the admissible indexes exactly once each, and every
    index respects the parity and range bounds."""
    cases = _Cases("conjecture", d_max)

    def fn(d: int):
        reps = representatives(d)
        idxs = [index_gamma(m.form) for m in reps]
        want = admissible_indices(d)
        bounds_ok = all(
            2 - d <= i <= (0 if d % 2 == 0 else -1) and (i - d) % 2 == 0
            for i in idxs
        )
        stored_ok = all(m.expected_index == i for m, i in zip(reps, idxs))
        return _exact(
            f"indexes {want}, {num_components(d)} components, bounds/parity hold",
            f"indexes {idxs}, {len(set(idxs))} components, bounds/parity "
            f"{'hold' if bounds_ok and stored_ok else 'violated'}",
        )
    for d in _rep_degrees(d_max):
        cases.add(f"conjecture/D={d:02d}", fn, d)

    def spotlight():
        members = [p_factorized(4), f_family(1, 3), f_family(2, 2), f_family(3, 1)]
        got = [index_gamma(m.form) for m in members]
        return _exact([-7, -5, -3, -1], got)
    cases.add("conjecture/D=09 spotlight quadruple", spotlight)
    return cases.report()


# ----------------------------------------------------------------- lemmas


def _mono(e: int, c: int = 1) -> UniPoly:
    """The monomial c * x^e."""
    return UniPoly(tuple([Fraction(0)] * e + [Fraction(c)]))


def _bump_poly(n: int) -> UniPoly:
    # (1 - x^2)^2 * x^(2n-2)
    sq = UniPoly((Fraction(1), Fraction(0), Fraction(-1)))
    return sq * sq * _mono(2 * n - 2)


def _expansion_terms(n: int) -> list[tuple[int, int]]:
    # Exponent/coefficient pairs of the degree-(2n+2) product form's Hessian
    # restricted to y = 1; exponents may collide for small n and then add.
    return [
        (0, -4 - 12 * n - 8 * n * n),
        (2, -4 * n - 8 * n * n),
        (2 * n - 2, 16 * n**4 + 16 * n**3 - 4 * n * n - 4 * n),
        (2 * n, -(32 * n**4 + 32 * n**3 + 24 * n * n + 24 * n + 8)),
        (2 * n + 2, 16 * n**4 + 16 * n**3 - 4 * n * n - 4 * n),
        (4 * n - 2, -4 * n - 8 * n * n),
        (4 * n, -4 - 12 * n - 8 * n * n),
    ]


def _terms_to_poly(terms: list[tuple[int, int]]) -> UniPoly:
    return sum((_mono(exp, coeff) for exp, coeff in terms), UniPoly(()))


def _critical_point_case(n: int) -> dict:
    """Certify the bump polynomial (1-x^2)^2 x^(2n-2): its derivative factors
    exactly, it has one interior critical point on (0,1), and its maximum
    there equals 4(n-1)^(n-1)/(n+1)^(n+1)."""
    gp = _bump_poly(n).derivative()
    # exact factorization of the derivative
    lead = _mono(2 * n - 3)
    quad = UniPoly((Fraction(2 * n - 2), Fraction(0), Fraction(-(2 * n + 2))))
    one_minus = UniPoly((Fraction(1), Fraction(0), Fraction(-1)))
    factored_ok = gp == lead * one_minus * quad
    interior = sturm_count(gp, Fraction(0), Fraction(1))
    if gp(Fraction(1)) == 0:
        interior -= 1
    s = Fraction(n - 1, n + 1)
    # evaluate the bump as a polynomial in u = x^2 at u = s
    lin = UniPoly((Fraction(1), Fraction(-1)))
    gu = lin * lin * _mono(n - 1)
    max_direct = gu(s)
    max_closed = Fraction(4 * (n - 1) ** (n - 1), (n + 1) ** (n + 1))
    return _exact(
        "derivative factors exactly; 1 interior critical point; "
        f"maximum {max_closed}",
        f"derivative factors {'exactly' if factored_ok else 'WRONG'}; "
        f"{interior} interior critical point; maximum {max_direct}",
    )


def _critical_point_cases(cases: _Cases, n_max: int) -> None:
    for n in range(2, n_max + 1):
        cases.add(f"{cases.suite}/critical-point/n={n:02d}", _critical_point_case, n)


def suite_lemma1(n_max: int = 40) -> SuiteReport:
    """Critical-point certification of the bump polynomial alone, for every
    n from 2 up to n_max."""
    cases = _Cases("lemma1", n_max)
    _critical_point_cases(cases, n_max)
    return cases.report()


def suite_lemmas(n_max: int = 40) -> SuiteReport:
    """Exact verification of the inequality lemmas behind the even-degree
    rotational-pad family: the bump polynomial's unique interior critical
    point and maximum, two strict-negativity bounds for n >= 11, and the
    non-strict middle-block bound for 2 <= n <= 11."""
    cases = _Cases("lemmas", n_max)
    _critical_point_cases(cases, n_max)

    def strict_bound(n: int, c0: int, c2: int, scale: int):
        # c0 + c2*t^2 + scale * (1 - t^2)^2 * t^(2n-2) < 0 on [0, 1]
        p = UniPoly((Fraction(c0), Fraction(0), Fraction(c2))) + Fraction(scale) * _bump_poly(n)
        return _holds("strictly negative on [0,1]",
                      is_nonpositive_on_unit_interval(p, strict=True),
                      "NOT strictly negative")
    for n in range(11, n_max + 1):
        cases.add(f"lemmas/quartic-bound/n={n:02d}",
                  strict_bound, n, -8 * n * n, -8 * n * n, 16 * n**4)
        cases.add(f"lemmas/cubic-bound/n={n:02d}",
                  strict_bound, n, -12 * n, -4 * n, 16 * n**3)

    def middle_block(n: int):
        terms = [t for t in _expansion_terms(n) if t[0] not in (4 * n - 2, 4 * n)]
        s_poly = _terms_to_poly(terms)
        return _holds("nonpositive on [0,1]",
                      is_nonpositive_on_unit_interval(s_poly, strict=False),
                      "POSITIVE somewhere")
    for n in range(2, 12):
        cases.add(f"lemmas/middle-block/n={n:02d}", middle_block, n)
    return cases.report()


# ----------------------------------------------------- hessian_expansion


def suite_hessian_expansion(n_max: int = 10) -> SuiteReport:
    """The Hessian of (x^2-y^2)(x^2n+y^2n) restricted to y=1 equals the
    seven-term closed expansion exactly; the one-coefficient variant with
    16n^2 in place of 16n^3 is shown to disagree by exactly 16n^2(n-1) at
    exponent 2n+2.  Includes the degree-4 rejection and acceptance range of
    the even family."""
    cases = _Cases("hessian_expansion", n_max)

    def expansion(n: int):
        g = g_even(n).form
        direct = hessian(g).restrict("y=1")
        rebuilt = _terms_to_poly(_expansion_terms(n))
        return _holds("exact match", direct == rebuilt, "mismatch")

    def variant(n: int):
        g = g_even(n).form
        direct = hessian(g).restrict("y=1")
        # swap only the fifth slot (exponent 2n+2); at n=2 that exponent
        # collides with 4n-2, so selecting by exponent would be wrong
        terms = list(_expansion_terms(n))
        terms[4] = (2 * n + 2, 16 * n**4 + 16 * n**2 - 4 * n * n - 4 * n)
        diff = _terms_to_poly(terms) - direct
        gaps = [(i, c) for i, c in enumerate(diff.coeffs) if c != 0]
        return _exact(
            f"single gap at exponent {2 * n + 2} of size {-16 * n * n * (n - 1)}",
            f"single gap at exponent {gaps[0][0]} of size {gaps[0][1]}"
            if len(gaps) == 1
            else f"{len(gaps)} gaps",
        )
    for n in range(2, n_max + 1):
        cases.add(f"hessian_expansion/exact/n={n:02d}", expansion, n)
        cases.add(f"hessian_expansion/variant-coefficient/n={n:02d}", variant, n)

    def degree4():
        g4 = parse_form("(x^2 - y^2)*(x^2 + y^2)")
        hess_ok = hessian(g4) == parse_form("-144*x^2*y^2")
        cert = is_hyperbolic(g4)
        w = cert.witness
        witness_ok = (
            not cert.is_hyperbolic
            and w is not None
            and hessian(g4).eval(w[0], w[1]) >= 0
            and (w[0], w[1]) != (0, 0)
        )
        return _exact(
            "hessian matches -144*x^2*y^2; rejected with valid witness",
            f"hessian {'matches -144*x^2*y^2' if hess_ok else 'differs'}; "
            f"{'rejected with valid witness' if witness_ok else 'bad rejection'}",
        )
    cases.add("hessian_expansion/degree-4 exclusion", degree4)

    def accepted(n: int):
        return _exact(
            "hyperbolic",
            is_hyperbolic(g_even(n).form).verdict,
        )
    for n in range(2, 13):
        cases.add(f"hessian_expansion/accepted/n={n:02d}", accepted, n)
    return cases.report()


# ------------------------------------------------------------ equivalence


def _random_form(rng: random.Random, degree: int) -> BinaryForm:
    while True:
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(degree + 1)]
        if any(coeffs):
            return BinaryForm(degree, tuple(coeffs))


def _random_line_product(rng: random.Random, degree: int) -> BinaryForm:
    slopes = rng.sample(range(-6, 7), degree)
    out = BinaryForm(0, (Fraction(1),))
    for t in slopes:
        out = out * BinaryForm(1, (Fraction(1), Fraction(-t)))
    return out


def _random_linear(rng: random.Random) -> BinaryForm:
    while True:
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if a or b:
            return BinaryForm(1, (a, b))


def suite_equivalence(d_max: int = 16, seed: int = DEFAULT_SEED) -> SuiteReport:
    """The Hessian-negativity and circle-restriction certification methods
    agree on every family member and on a seeded random corpus, rejection
    witnesses actually witness, and the product-with-a-line Hessian identity
    holds with the extension criterion matching direct certification."""
    cases = _Cases("equivalence", d_max)
    members = table1(min(d_max, 16)) + _reps(d_max)

    def fam(mem: FamilyMember):
        h = is_hyperbolic(mem.form).verdict
        p = is_hyperbolic_polar(mem.form).verdict
        return _holds(f"{h} == {h}", h == p, f"{h} != {p}")
    for i, mem in enumerate(members):
        cases.add(f"equivalence/family/{i:03d}/{mem.label}", fam, mem)

    def rand(form: BinaryForm):
        h = is_hyperbolic(form)
        p = is_hyperbolic_polar(form)
        ok = h.verdict == p.verdict
        details = [f"verdicts {'agree' if ok else 'disagree'}"]
        for cert, target in ((h, hessian), (p, polar_form)):
            if not cert.is_hyperbolic and cert.witness is not None:
                good = target(form).eval(*cert.witness) >= 0
                ok = ok and good
                details.append(f"{cert.method} witness {'valid' if good else 'INVALID'}")
        return _holds("verdicts agree (witnesses valid)", ok, "; ".join(details))
    # the corpus is drawn as the cases are declared; no case reads rng
    rng = random.Random(seed)
    for i in range(200):
        cases.add(f"equivalence/random[seed={seed}]/{i:03d}",
                  rand, _random_form(rng, rng.randint(2, 8)))

    def identity(line: BinaryForm, form: BinaryForm):
        lhs = hess_linear_product(line, form)
        rhs = hessian(line * form)
        return _holds("identical forms", lhs == rhs, "differ")
    for i in range(100):
        line = _random_linear(rng)
        form = _random_form(rng, rng.randint(2, 8))
        cases.add(f"equivalence/line-product-identity[seed={seed}]/{i:03d}",
                  identity, line, form)

    def extension(line: BinaryForm, base: BinaryForm):
        predicted = linear_extension_is_hyperbolic(line, base)
        direct = is_hyperbolic(line * base).is_hyperbolic
        return _exact(direct, predicted)
    for i in range(100):
        line = _random_linear(rng)
        base = _random_line_product(rng, rng.randint(2, 7))
        cases.add(f"equivalence/line-extension[seed={seed}]/{i:03d}",
                  extension, line, base)
    return cases.report()


# ---------------------------------------------------------------- winding


def suite_winding(d_max: int = 12) -> SuiteReport:
    """Numeric winding of the degenerate-cone curve equals the factor-count
    index and sits two above the winding of the circle-restriction jet curve;
    circle zero counts equal circle critical-point counts."""
    cases = _Cases("winding", d_max)
    members = _reps(d_max)

    def windings(mem: FamilyMember):
        idx = index_gamma(mem.form)
        wg = winding_gamma_numeric(mem.form)
        wa = winding_alpha_numeric(mem.form)
        return {
            **_exact(f"gamma winding {idx}, jet winding {idx - 2}",
                     f"gamma winding {wg}, jet winding {wa}"),
            "comparison": "winding rounded from < 0.1 rev residual",
        }
    for mem in members:
        cases.add(f"winding/D={mem.form.degree:02d}/{mem.label}", windings, mem)

    def zvc(mem: FamilyMember):
        z, c = zeros_vs_critical_points(mem.form)
        return _holds("zeros == critical points", z == c, f"{z} != {c}")
    zvc_members = list(table1(min(d_max, 12))) + [
        m for m in members if m.form.degree <= 12
    ]
    for i, mem in enumerate(zvc_members):
        cases.add(f"winding/zeros-vs-critical/{i:03d}/{mem.label}", zvc, mem)
    return cases.report()


# ------------------------------------------------------------- obs_arnold


def suite_obs_arnold(d_max: int = 16) -> SuiteReport:
    """For odd degrees 9 and up the harmonic-power table reaches no index -1
    entry while the representative set does; for odd degrees 3..7 the table
    still contains index -1."""
    cases = _Cases("obs_arnold", d_max)
    rows: dict[int, set[int]] = {}
    for mem in table1(d_max):
        rows.setdefault(mem.form.degree, set()).add(mem.expected_index)

    def gap(d: int):
        table_has = -1 in rows.get(d, set())
        reps_have = -1 in {m.expected_index for m in representatives(d)}
        return _exact(
            "table misses -1, representatives reach it",
            f"table {'has' if table_has else 'misses'} -1, representatives "
            f"{'reach' if reps_have else 'miss'} it",
        )

    def nogap(d: int):
        return _holds("table contains -1", -1 in rows.get(d, set()), "missing")
    for d in range(3, d_max + 1, 2):
        if d >= 9:
            cases.add(f"obs_arnold/gap/D={d:02d}", gap, d)
        else:
            cases.add(f"obs_arnold/covered/D={d:02d}", nogap, d)
    return cases.report()


# --------------------------------------------------------------- poincare


def suite_poincare(d_max: int = 12) -> SuiteReport:
    """The turning index of a null-direction field at the origin is half the
    degenerate-cone winding on every representative, and matches the closed
    forms for the generated families."""
    cases = _Cases("poincare", d_max)

    def halving(mem: FamilyMember):
        want = Fraction(index_gamma(mem.form), 2)
        return _exact(want, poincare_index_origin(mem.form))
    for mem in _reps(d_max):
        cases.add(f"poincare/halving/D={mem.form.degree:02d}/{mem.label}", halving, mem)

    def closed(mem: FamilyMember, want: Fraction):
        return _exact(want, poincare_index_origin(mem.form))
    for k in range(1, 5):
        cases.add(f"poincare/closed-form/line-product odd k={k}",
                  closed, p_factorized(k), Fraction(1 - k) - Fraction(1, 2))
        cases.add(f"poincare/closed-form/line-product even k={k}",
                  closed, p_factorized(k, even=True), Fraction(-k))
    for n, k in ((1, 2), (1, 3), (2, 1), (2, 2), (3, 1)):
        cases.add(f"poincare/closed-form/padded odd n={n},k={k}",
                  closed, f_family(n, k), Fraction(1 - k) - Fraction(1, 2))
    for n, k in ((1, 1), (1, 2), (2, 1)):
        cases.add(f"poincare/closed-form/padded even n={n},k={k}",
                  closed, f_family(n, k, even=True), Fraction(-k))
    for n in (2, 3, 4):
        cases.add(f"poincare/closed-form/even-pad pair n={n}", closed, g_even(n), Fraction(0))
    return cases.report()


# -------------------------------------------------------------- isotopies


# The pairs of the isotopies suite as (k, even, n): the lines
# p_factorized(k, even=even) and the padding even_pad(n).
ISOTOPY_PAIRS = ((1, False, 2), (1, False, 3), (1, True, 1), (1, True, 2),
                 (2, False, 1), (2, False, 2), (2, True, 1), (3, False, 1))


def suite_isotopies() -> SuiteReport:
    """The mixed-derivative identity holds exactly, the cross-term form's
    discriminant is strictly positive off the origin, and the three
    deformation families certify positive on all of [0, 1] for every pair
    whose product is hyperbolic; the boundary pair (degree-3 lines,
    n=1) fails exactly at the endpoint that equals the non-hyperbolic
    degree-5 product."""
    cases = _Cases("isotopies")

    def discriminant(checks) -> str:
        _, psi, _ = checks
        pos = Fraction(1) not in psi.failed_ts  # psi(1) is the cross-term form
        return f"discriminant {'positive' if pos else 'NOT positive'}"

    def pair_case(p: BinaryForm, q: BinaryForm, n: int):
        ratio = Fraction(2 * n, p.degree - 1)
        checks = check_isotopies(p, q)  # raises if the identity fails
        failures = "; ".join(f"{c.kind} fails at t in {list(c.failed_ts)}"
                             for c in checks if not c.verdict)
        return _exact(
            f"identity ratio {ratio}; discriminant positive; phi/psi/gamma_t all true",
            f"identity ratio {ratio}; {discriminant(checks)}; "
            + (failures or "phi/psi/gamma_t all true"),
        )
    for k, even, n in ISOTOPY_PAIRS:
        p = p_factorized(k, even=even).form
        cases.add(f"isotopies/pair/degP={p.degree},n={n}", pair_case, p, even_pad(n), n)

    def boundary():
        checks = check_isotopies(p_factorized(1).form, even_pad(1))
        phi, psi, gamma_t = checks
        failed = list(phi.failed_ts)
        return _exact(
            "discriminant positive; phi fails only at t=1; psi true; gamma_t true",
            f"{discriminant(checks)}; "
            f"phi fails only at t={failed[0] if failed == [1] else failed}; "
            f"psi {str(psi.verdict).lower()}; gamma_t {str(gamma_t.verdict).lower()}",
        )
    cases.add("isotopies/boundary-pair degP=3,n=1", boundary)

    def repeated():
        p = parse_form("x^2*(x^2 - y^2)")
        try:
            check_isotopies(p, even_pad(1))
            return _exact("rejected (repeated factor)", "accepted")
        except ValueError:
            return _exact("rejected (repeated factor)", "rejected (repeated factor)")
    cases.add("isotopies/repeated-factor rejection", repeated)
    return cases.report()


# ---------------------------------------------------------------- driver


def run_suite(
    name: str,
    d_max: int | None = None,
    n_max: int | None = None,
    seed: int | None = None,
) -> list[SuiteReport]:
    """Run one named suite (or 'all') with optional range overrides; returns
    the reports in execution order.  A suite gets each override that is set
    and that its signature names; the others are ignored.  The overrides of
    every selected suite are range-checked before the first one runs."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    overrides = {"d_max": d_max, "n_max": n_max, "seed": seed}
    calls = []
    for sub in SUITE_NAMES if name == "all" else (name,):
        # looked up at call time, so a rebound suite_<name> attribute is the one run
        fn = globals()[f"suite_{sub}"]
        accepted = inspect.signature(fn).parameters
        kwargs = {k: v for k, v in overrides.items() if v is not None and k in accepted}
        limits = _SUITES[sub]
        if limits and limits[0] in kwargs:
            _check_range(sub, kwargs[limits[0]])
        calls.append((fn, kwargs))
    return [fn(**kwargs) for fn, kwargs in calls]
