"""Constructors for the standard hyperbolic families.

Every constructor returns the exact expanded form together with the
index its component is known to carry; certification is still done by
the caller (the verification suites re-certify every member).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .core import MAX_DEGREE, BinaryForm


@dataclass(frozen=True)
class FamilyMember:
    form: BinaryForm
    family_tag: str          # "arnold" | "pfact" | "g" | "f" | "representative"
    params: tuple[int, ...]
    expected_index: int
    label: str


def _check_degree(d: int) -> None:
    """Reject a member above MAX_DEGREE before any of it is built."""
    if d > MAX_DEGREE:
        raise ValueError(f"degree {d} is above the limit of {MAX_DEGREE}")


def even_pad(n: int) -> BinaryForm:
    """x^(2n) + y^(2n), the padding factor of the g and f families."""
    return BinaryForm.monomial(2 * n, 0) + BinaryForm.monomial(2 * n, 2 * n)


def _sum_of_squares_power(k: int) -> BinaryForm:
    return BinaryForm(2, (Fraction(1), Fraction(0), Fraction(1))) ** k


def _real_part_power(m: int) -> BinaryForm:
    # Re (x + i y)^m expanded by the binomial theorem; only even y-powers
    # survive, with alternating sign
    cs = [Fraction(0)] * (m + 1)
    for j in range(0, m + 1, 2):
        cs[j] = Fraction((-1) ** (j // 2) * comb(m, j))
    return BinaryForm(m, tuple(cs))


def arnold(d: int, m: int) -> FamilyMember:
    """(x^2+y^2)^((d-m)/2) * Re (x+iy)^m, hyperbolic exactly when
    3 <= m <= d < m^2 with d - m even; its index is 2 - m."""
    if m < 3:
        raise ValueError("m must be >= 3")
    if (d - m) % 2 != 0:
        raise ValueError("d - m must be even")
    if not m <= d < m * m:
        raise ValueError(f"need m <= d < m^2, got m={m}, d={d}")
    _check_degree(d)
    form = _sum_of_squares_power((d - m) // 2) * _real_part_power(m)
    label = f"P_{m}" if d == m else f"P_{m} Q_{d - m}"
    return FamilyMember(form, "arnold", (d, m), 2 - m, label)


def _line_product(k: int, even: bool) -> BinaryForm:
    # x * (x - 2y)(x + 2y)...(x - ky)(x + ky), optionally * (x - (k+1)y)
    out = BinaryForm(1, (Fraction(1), Fraction(0)))  # x
    for i in range(1, k + 1):
        out = out * BinaryForm(2, (Fraction(1), Fraction(0), Fraction(-i * i)))
    if even:
        out = out * BinaryForm(1, (Fraction(1), Fraction(-(k + 1))))
    return out


def p_factorized(k: int, even: bool = False) -> FamilyMember:
    """Fully split member: x * prod_{i<=k} (x^2 - i^2 y^2), degree 2k+1,
    times (x - (k+1) y) for the even variant of degree 2k+2.  All lines are
    distinct, so the index is 2 - degree."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_degree(2 * k + (2 if even else 1))
    form = _line_product(k, even)
    d = form.degree
    return FamilyMember(form, "pfact", (k, 1 if even else 0), 2 - d, f"P_{d}")


def g_even(n: int) -> FamilyMember:
    """(x^2 - y^2)(x^{2n} + y^{2n}), hyperbolic for n >= 2 with index 0.
    n = 1 is rejected: the degree-4 product fails (its hessian form is
    -144 x^2 y^2, zero on two lines)."""
    if n < 2:
        raise ValueError("g family needs n >= 2")
    _check_degree(2 * n + 2)
    form = BinaryForm(2, (Fraction(1), Fraction(0), Fraction(-1))) * even_pad(n)
    return FamilyMember(form, "g", (n,), 0, f"g_{2 * n + 2}")


def f_family(n: int, k: int, even: bool = False) -> FamilyMember:
    """x (x^{2n} + y^{2n}) prod_{i<=k} (x^2 - i^2 y^2), degree 2n+2k+1
    (even variant appends (x - (k+1) y)); index 2 - (2k+1) resp. 2 - (2k+2)."""
    if n < 1:
        raise ValueError("f family needs n >= 1")
    if k < 1:
        raise ValueError("f family needs k >= 1")
    _check_degree(2 * n + 2 * k + (2 if even else 1))
    base = _line_product(k, even)
    form = even_pad(n) * base
    j = 2 if even else 1
    return FamilyMember(form, "f", (n, k, 1 if even else 0), 2 - (2 * k + j),
                        f"Q_{2 * n} P_{base.degree}")


def representatives(d: int) -> list[FamilyMember]:
    """One hyperbolic form per connected component in degree d, ordered by
    descending index.  Defined for d >= 3 except d = 4, where the even
    construction (which needs the degree-6 g member) does not apply."""
    if d < 3:
        raise ValueError("representatives need degree >= 3")
    if d == 4:
        raise ValueError("no representative set is constructed for degree 4")
    _check_degree(d)
    members: list[FamilyMember] = []
    if d % 2 == 1:
        for j in range((d - 3) // 2, 0, -1):
            k = (d - 2 * j - 1) // 2
            if j == 1 and k == 1:
                # x(x^2+y^2)(x^2-y^2) = x^5 - x*y^4 is NOT hyperbolic: its
                # Hessian -240x^4y^2 - 16y^6 vanishes on y = 0.  The padded
                # harmonic cubic (x^2+y^2)(x^3-3xy^2) fills the index -1
                # slot at degree 5 instead.
                members.append(arnold(5, 3))
            else:
                members.append(f_family(j, k, even=False))
        members.append(p_factorized((d - 1) // 2, even=False))
    else:
        members.append(g_even((d - 2) // 2))
        for j in range((d - 4) // 2, 0, -1):
            members.append(f_family(j, (d - 2 * j - 2) // 2, even=True))
        members.append(p_factorized((d - 2) // 2, even=True))
    return [replace(m, family_tag="representative") for m in members]


def table1(d_max: int = 16) -> list[FamilyMember]:
    """All valid (d, m) pairs of the arnold family for 3 <= d <= d_max,
    each row ordered by descending m."""
    if d_max < 3:
        raise ValueError("d_max must be >= 3")
    _check_degree(d_max)
    out = []
    for d in range(3, d_max + 1):
        m = d
        while m >= 3 and m * m > d:
            out.append(arnold(d, m))
            m -= 2
    return out
