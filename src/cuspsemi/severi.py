"""Codimension bookkeeping for Severi varieties of unicuspidal rational space curves.

The stratum of degree-d rational curves with one cusp of a fixed ramification
profile sits inside the Severi variety of genus-g curves; comparing its
codimension with the expected one, (n-2)g for curves in P^3, yields an excess
predicate.  All comparisons are exact and made on integers: the
supersymmetric bounds are compared after scaling by their denominators (12
for the bound polynomial, 4 for the rho cap), and a Fraction is built only
to report a rational value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from cuspsemi.supersym import (
    SupersymTriple,
    genus_formula,
    rho,
    supersym_semigroup,
)


@dataclass(frozen=True)
class TraceEntry:
    """One named exact comparison; ``holds`` is None for informational entries."""

    name: str
    detail: str
    holds: bool | None


@dataclass(frozen=True)
class CodimReport:
    """Excess-dimension verdict for one profile, with its full predicate trace."""

    profile: tuple[int, ...]
    genus: int
    codim: int
    nodal_codim: int
    excess: bool
    predicate_trace: tuple[TraceEntry, ...]

    def holds(self, name: str) -> bool | None:
        for entry in self.predicate_trace:
            if entry.name == name:
                return entry.holds
        raise KeyError(name)


def _validate_orders(orders: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(r) for r in orders)
    if not out or out[0] < 1:
        raise ValueError("orders must be positive")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("orders must be strictly increasing")
    return out


def ramification_codim(orders: Sequence[int]) -> int:
    """Codimension sum((r_i - i)) imposed by a ramification profile (1-indexed)."""
    out = _validate_orders(orders)
    return sum(r - i for i, r in enumerate(out, start=1))


def generic_codim(orders: Sequence[int]) -> int:
    """Expected codimension of the cuspidal stratum: sum(r_i - i) - 1.

    Negative for the unramified profile (1, 2, ..., n), which is degenerate.
    """
    return ramification_codim(orders) - 1


def reducibility_threshold(orders: Sequence[int]) -> int:
    """Degree bound r1 + r2 + r3 - 6 past which the nodal count argument applies."""
    out = _validate_orders(orders)
    if len(out) != 3:
        raise ValueError("the threshold is defined for three-order profiles")
    return sum(out) - 6


def supersym_codim(a: int, b: int, c: int) -> int:
    """Codimension 2*rho + ab + ac + bc - 7 of the supersymmetric cuspidal stratum."""
    t = SupersymTriple(a, b, c)
    return 2 * rho(a, b, c) + sum(t.pairwise_products) - 7


def _bound_polynomial_12(t: SupersymTriple) -> int:
    """12 times the bound polynomial: 4abc - 7(ab+ac+bc) - 2(a+b+c) + 47."""
    return 4 * t.product - 7 * sum(t.pairwise_products) - 2 * (t.a + t.b + t.c) + 47


def bound_polynomial(a: int, b: int, c: int) -> Fraction:
    """Exact value of abc/3 - 7(ab+ac+bc)/12 - (a+b+c)/6 + 47/12.

    Nonnegative exactly when the sufficient inequality behind the supersymmetric
    excess predicate holds on polynomial grounds alone.
    """
    return Fraction(_bound_polynomial_12(SupersymTriple(a, b, c)), 12)


def excess_supersym(a: int, b: int, c: int) -> CodimReport:
    """Excess verdict for the semigroup <ab, ac, bc> itself as the cusp semigroup."""
    t = SupersymTriple(a, b, c)
    g = genus_formula(a, b, c)
    r = rho(a, b, c)
    codim = 2 * r + sum(t.pairwise_products) - 7
    nodal = g  # (n - 2) * g for curves in P^3
    # rhobound1: rho < abc/2 - 3(ab+ac+bc)/4 + 15/4, compared times 4
    rho_cap_4 = 2 * t.product - 3 * sum(t.pairwise_products) + 15
    fpoly_12 = _bound_polynomial_12(t)
    fpoly_nonneg = fpoly_12 >= 0
    trace = (
        TraceEntry("codim-vs-nodal", f"{codim} < {nodal}", codim < nodal),
        TraceEntry("rhobound1", f"rho {r} < {Fraction(rho_cap_4, 4)}", 4 * r < rho_cap_4),
        TraceEntry(
            "f-polynomial",
            f"{Fraction(fpoly_12, 12)} {'>= 0' if fpoly_nonneg else '< 0'}",
            fpoly_nonneg,
        ),
        TraceEntry("degree-threshold", f"applies for degree d >= {2 * g}", None),
    )
    return CodimReport(
        profile=t.pairwise_products,
        genus=g,
        codim=codim,
        nodal_codim=nodal,
        excess=codim < nodal,
        predicate_trace=trace,
    )


def excess_generic_supersym(a: int, b: int, c: int, empirical_genus: int | None = None) -> CodimReport:
    """Excess verdict for the generic cusp with profile (ab, ac, bc).

    The generic stratum has codimension ab + ac + bc - 7; the genus defaults to
    the exact lower bound :func:`surrogate_generic_genus` when no Monte-Carlo
    value is supplied (a smaller genus only strengthens a negative verdict, so
    the sufficient inequality rhobound2 is traced alongside).
    """
    t = SupersymTriple(a, b, c)
    members_below = supersym_semigroup(a, b, c).member_count_below(t.product)
    g = t.product - members_below if empirical_genus is None else empirical_genus
    codim = sum(t.pairwise_products) - 7
    cap = t.product - sum(t.pairwise_products) + 7
    trace = (
        TraceEntry("codim-vs-genus", f"{codim} < {g}", codim < g),
        TraceEntry(
            "rhobound2",
            f"members below abc: {members_below} < {cap}",
            members_below < cap,
        ),
        TraceEntry("degree-threshold", f"applies for degree d >= {2 * g}", None),
    )
    return CodimReport(
        profile=t.pairwise_products,
        genus=g,
        codim=codim,
        nodal_codim=g,
        excess=codim < g,
        predicate_trace=trace,
    )
