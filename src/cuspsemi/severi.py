"""Codimension bookkeeping for Severi varieties of unicuspidal rational space curves.

The stratum of degree-d rational curves with one cusp of a fixed ramification
profile sits inside the Severi variety of genus-g curves; comparing its
codimension with the expected one, (n-2)g for curves in P^3, yields an excess
predicate.  A profile is its orders (r1, r2, r3), checked by
:class:`~cuspsemi.series.RamificationProfile`: the generic cusp's stratum has
codimension r1 + r2 + r3 - 7, and the supersymmetric cusp, whose orders are
(ab, ac, bc), adds 2 * rho(a, b, c) to it.  All comparisons are exact and
made on integers: the supersymmetric bounds are compared after scaling by
their denominators (12 for the bound polynomial, 4 for the rho cap).  Only
:func:`bound_polynomial` builds a Fraction, to report the polynomial's
rational value.  Each supersymmetric entry checks its triple once, with
:func:`~cuspsemi.supersym.pairwise_products`, and hands the products to the
unchecked kernels of :mod:`cuspsemi.supersym` (its checked-triple interface,
listed in that module's docstring); the one public call below it is
:func:`~cuspsemi.supersym.rho`, which checks again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from cuspsemi.series import RamificationProfile
from cuspsemi.supersym import _frobenius, _genus, _members_below, pairwise_products, rho


class CodimReport(NamedTuple):
    """Excess-dimension verdict for one profile.

    ``excess`` is codim < genus: in P^3 the nodal codimension (n - 2) * genus
    is the genus.  ``checks`` maps the name of each sufficient inequality the
    verdict was tested against to whether it holds: ``rhobound1`` and
    ``f-polynomial`` for the supersymmetric cusp, ``rhobound2`` for the generic
    one.  A named tuple: immutable, and cheap to build once per sweep row.
    """

    genus: int
    codim: int
    excess: bool
    checks: dict[str, bool]


def generic_codim(orders: Sequence[int]) -> int:
    """Expected codimension sum(r_i - i) - 1 of the cuspidal stratum (1-indexed).

    For a three-order profile (r1, r2, r3) this is r1 + r2 + r3 - 7.
    """
    checked = RamificationProfile.of(orders).orders
    return sum(r - i for i, r in enumerate(checked, start=1)) - 1


def _bound_polynomial_12(a: int, b: int, c: int, pairs: int) -> int:
    """12 times the bound polynomial, 4abc - 7(ab+ac+bc) - 2(a+b+c) + 47, of a checked triple.

    ``pairs`` is ab + ac + bc.
    """
    return 4 * a * b * c - 7 * pairs - 2 * (a + b + c) + 47


def bound_polynomial(a: int, b: int, c: int) -> Fraction:
    """Exact value of abc/3 - 7(ab+ac+bc)/12 - (a+b+c)/6 + 47/12.

    Nonnegative exactly when the sufficient inequality behind the supersymmetric
    excess predicate holds on polynomial grounds alone.
    """
    pairs = sum(pairwise_products(a, b, c))  # raises ValueError for a bad triple
    return Fraction(_bound_polynomial_12(a, b, c, pairs), 12)


def excess_supersym(a: int, b: int, c: int) -> CodimReport:
    """Excess verdict for the semigroup <ab, ac, bc> itself as the cusp semigroup.

    The triple is checked here; the genus comes from the unchecked closed
    forms on its products, and rho from :func:`~cuspsemi.supersym.rho`.
    """
    ab, ac, bc = pairwise_products(a, b, c)
    g = _genus(a, b, c, _frobenius(a, b, c, ab, ac, bc))
    r = rho(a, b, c)
    pairs = ab + ac + bc
    codim = 2 * r + pairs - 7
    # rhobound1: rho < abc/2 - 3(ab+ac+bc)/4 + 15/4, compared times 4
    rhobound1 = 4 * r < 2 * a * b * c - 3 * pairs + 15
    fpoly_nonneg = _bound_polynomial_12(a, b, c, pairs) >= 0
    checks = {"rhobound1": rhobound1, "f-polynomial": fpoly_nonneg}
    return CodimReport(g, codim, codim < g, checks)


def excess_generic_supersym(a: int, b: int, c: int) -> CodimReport:
    """Excess verdict for the generic cusp with profile (ab, ac, bc).

    The generic stratum has codimension ab + ac + bc - 7; the genus is the
    exact lower bound abc - #{members of <ab, ac, bc> below abc} (a smaller
    genus only strengthens a negative verdict, so the sufficient inequality
    rhobound2 is checked alongside).
    That member count is :func:`~cuspsemi.supersym.members_below`, the Apery
    count checked against the lattice count, run as its kernel on the triple
    checked here.
    """
    ab, ac, bc = pairwise_products(a, b, c)
    abc = a * b * c
    below = _members_below(a, b, c, ab, ac, bc, abc)
    g = abc - below
    codim = generic_codim((ab, ac, bc))
    # rhobound2: members below abc < abc - (ab+ac+bc) + 7
    rhobound2 = below < abc - (ab + ac + bc) + 7
    return CodimReport(g, codim, codim < g, {"rhobound2": rhobound2})
