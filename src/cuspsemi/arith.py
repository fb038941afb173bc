"""Closed forms for ramification profiles in arithmetic progression (ml, ml+m, ml+2m).

The generic value semigroup of such a profile contains an explicitly generated
approximating semigroup; this module builds it, evaluates the closed-form gap
set for m = 2, predicts Apery table entries per residue family, and computes
the genus bounds and forbidden valuation windows used by the Monte-Carlo
verifiers.  A profile is its orders tuple, as :func:`profile_orders` returns
it; the lower bounds and windows take any three orders (r1, r2, r3) =
(m, m+a, m+b) and check them through
:class:`~cuspsemi.series.RamificationProfile`.  All values are exact
(integers, or Fractions where a stated bound is not integral).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from cuspsemi.semigroup import NumericalSemigroup
from cuspsemi.series import RamificationProfile


def profile_orders(m: int, ell: int) -> tuple[int, int, int]:
    """Orders (ml, ml+m, ml+2m) of the profile of three consecutive multiples of m."""
    if m < 2 or ell < 2:
        raise ValueError("need m >= 2 and ell >= 2")
    return (m * ell, m * ell + m, m * ell + 2 * m)


def _check_parameters(m: int, ell: int) -> tuple[int, int, int]:
    """:func:`profile_orders`, with a warning when ell < 2m leaves the closed forms' hypotheses."""
    orders = profile_orders(m, ell)
    if ell < 2 * m:
        warnings.warn(
            f"ell={ell} is below 2*m={2 * m}; the closed forms are outside their hypotheses",
            stacklevel=3,
        )
    return orders


def approximation_generators(m: int, ell: int, branch: str = "general") -> tuple[int, ...]:
    """Generators of the approximating semigroup contained in the generic value semigroup.

    ``branch`` selects between the general construction (valid for every m) and
    the sharper five-generator variant available only for m = 2; the two differ
    for odd ell, where the m = 2 branch omits one generator and keeps one more
    gap.
    """
    if branch not in ("general", "m2"):
        raise ValueError("branch must be 'general' or 'm2'")
    if branch == "m2" and m != 2:
        raise ValueError("the m2 branch requires m = 2")
    base = _check_parameters(m, ell) + (2 * m * (ell + 1) + 1,)
    if ell % 2 == 0:
        extra: tuple[int, ...] = (m * ell * (ell // 2 + 1) + 1,)
    elif branch == "m2":
        extra = ((ell + 3) * ell + 1,)
    else:
        extra = (
            m * (ell + 1) * (ell + 2) // 2 + 1,
            m * ell * (ell + 3) // 2 + 1,
        )
    return base + extra


def approximating_semigroup(m: int, ell: int, branch: str = "general") -> NumericalSemigroup:
    """The approximating semigroup as an exact sieve-backed object."""
    return NumericalSemigroup(approximation_generators(m, ell, branch))


def gap_set_m2(ell: int) -> tuple[int, ...]:
    """Closed-form gap set of the m = 2 approximating semigroup.

    Even ell needs ell >= 4, odd ell needs ell >= 5.  The cardinality is
    ceil(ell**2 / 2) + 2*ell.
    """
    out: set[int] = set()
    if ell % 2 == 0:
        if ell < 4:
            raise ValueError("even ell must be at least 4")
        out |= set(range(1, 2 * ell))
        out |= set(range(2 * ell + 1, 4 * ell + 4, 2))
        for i in range(1, ell // 2):
            out |= set(range(2 * (i * ell + 2 * i + 1), 2 * ((i + 1) * ell - 1) + 1, 2))
        for i in range(1, ell // 2 - 1):
            out |= set(range(2 * (i + 1) * ell + 4 * i + 3, 2 * (i + 2) * ell + 4, 2))
        out |= {ell * ell + 2 * ell - 1, ell * ell + 2 * ell + 3}
    else:
        if ell < 5:
            raise ValueError("odd ell must be at least 5")
        half = (ell - 1) // 2
        out |= set(range(1, 2 * ell))
        out |= set(range(2 * ell + 1, 4 * ell + 4, 2))
        for i in range(1, half):
            out |= set(range(2 * (i * ell + 2 * i + 1), 2 * ((i + 1) * ell - 1) + 1, 2))
        for i in range(1, half):
            out |= set(range(2 * (i + 1) * ell + 4 * i + 3, 2 * (i + 2) * ell + 4, 2))
        out |= {ell * ell + 3 * ell + 3}
    return tuple(sorted(out))


@dataclass(frozen=True)
class AperyPrediction:
    """One predicted Apery entry: least member in class ``residue`` mod ml."""

    residue: int
    value: int
    family: str


@dataclass(frozen=True)
class AperyFormulaResult:
    """Residue-by-residue Apery predictions with provenance labels.

    ``uncovered`` lists the nonzero residues no family reaches; ``findings``
    records internal range inconsistencies of the stated formulas.
    """

    predictions: tuple[AperyPrediction, ...]
    uncovered: tuple[int, ...]
    findings: tuple[str, ...]


def apery_predictions(m: int, ell: int) -> AperyFormulaResult:
    """Predicted Apery entries of the approximating semigroup, by formula family.

    The stated nonspecial family ranges j up to ell - 1, but indices 2mj + k
    stay inside [1, ml - 1] only for j up to ell/2 - 1 (even ell; the odd case
    is analogous), which is also the range the genus identity sums over.  The
    larger stated range is recorded as a finding and the consistent range is
    used.
    """
    _check_parameters(m, ell)
    n = m * ell
    g1 = m * ell + 2 * m
    g2 = m * ell + m
    gb = 2 * m * (ell + 1) + 1

    predictions: dict[int, AperyPrediction] = {}
    findings: list[str] = [
        "nonspecial family: stated index range j up to ell-1 leaves residues"
        " [1, m*ell-1]; using the genus-identity range instead"
    ]

    def add(residue: int, value: int, family: str) -> None:
        if not 1 <= residue <= n - 1:
            findings.append(
                f"{family} family produced residue {residue} outside [1, {n - 1}]; skipped"
            )
            return
        if residue in predictions:
            other = predictions[residue]
            findings.append(
                f"residue {residue} predicted twice: {other.family}={other.value},"
                f" {family}={value}; keeping the first"
            )
            return
        predictions[residue] = AperyPrediction(residue, value, family)

    if ell % 2 == 0:
        for k in range(m):
            for j in range(k, ell // 2):
                if 2 * m * j + k:
                    add(2 * m * j + k, (j - k) * g1 + k * gb, "nonspecial")
                add(2 * m * j + m + k, g2 + (j - k) * g1 + k * gb, "nonspecial")
        gt = m * ell * (ell // 2 + 1) + 1
        for j in range(m - 1):
            add(2 * m * j + j + 1, j * gb + gt, "special")
        for j in range(m - 1):
            for k in range(j + 2, m):
                add(2 * m * j + k, (j + ell // 2 - k) * g1 + k * gb, "special-bis")
    else:
        for k in range(m):
            for j in range(k, (ell - 1) // 2 + 1):
                if 2 * m * j + k:
                    add(2 * m * j + k, (j - k) * g1 + k * gb, "nonspecial")
            for j in range(k, (ell - 3) // 2 + 1):
                add(2 * m * j + m + k, g2 + (j - k) * g1 + k * gb, "nonspecial")
        go = m * ell * (ell + 3) // 2 + 1
        for j in range(m - 1):
            add(2 * m * j + j + 1, go + j * gb, "special")
        for j in range(m - 1):
            for k in range(j + 2, m):
                add(2 * m * j + k, g2 + (j + (ell - 1) // 2 - k) * g1 + k * gb, "special-bis")

    uncovered = tuple(i for i in range(1, n) if i not in predictions)
    ordered = tuple(predictions[i] for i in sorted(predictions))
    return AperyFormulaResult(ordered, uncovered, tuple(findings))


@dataclass(frozen=True)
class ArithGenusBound:
    """Genus upper bound for the generic value semigroup of the orders (ml, ml+m, ml+2m).

    For even ell the stated and proof-derived values coincide.  For odd ell the
    stated closed form uses (ell+1)(ell-2)/4 (not always integral) while the
    derivation it rests on yields (ell+1)(ell-1)/4; both are reported.
    """

    stated: Fraction
    proof_derived: int


def genus_upper(m: int, ell: int) -> ArithGenusBound:
    """Upper bound for the genus, realized with equality by the approximating semigroup."""
    _check_parameters(m, ell)
    tail = m * (m - 1) * ell + (m - 1) * (m - 2)
    if ell % 2 == 0:
        value = m * ell * ell // 4 + tail
        return ArithGenusBound(Fraction(value), value)
    stated = Fraction(m * (ell + 1) * (ell - 2), 4) + tail
    derived = m * (ell + 1) * (ell - 1) // 4 + tail
    return ArithGenusBound(stated, derived)


# The bounds below hold for any three-order profile (r1, r2, r3) = (m, m+a, m+b),
# not only for the arithmetic family; they depend on r1 = m and r3 - r1 = b.


def _three_orders(orders: Sequence[int]) -> tuple[int, int, int]:
    """The checked orders (r1, r2, r3) of a three-order profile."""
    checked = RamificationProfile.of(orders).orders
    if len(checked) != 3:
        raise ValueError("the bounds are stated for three-order profiles")
    return checked


def _lower(m: int, b: int, k: int) -> int:
    return m * (k + 1) - b * math.comb(k + 1, 2) - math.comb(k + 3, 3)


def genus_lower_bound(orders: Sequence[int], k: int) -> int:
    """Lower bound m(k+1) - b*C(k+1,2) - C(k+3,3) for the genus of orders (m, m+a, m+b)."""
    m, _, r3 = _three_orders(orders)
    if k < 0:
        raise ValueError("need k >= 0")
    return _lower(m, r3 - m, k)


class BestLowerBound(NamedTuple):
    k: int
    bound: int


def best_genus_lower(orders: Sequence[int]) -> BestLowerBound:
    """Best k for :func:`genus_lower_bound` on orders (m, m+a, m+b), up to ceil(2*sqrt(m)) + b."""
    m, _, r3 = _three_orders(orders)
    b = r3 - m
    k_max = math.isqrt(4 * m)
    if k_max * k_max < 4 * m:
        k_max += 1
    k_max += b
    best = BestLowerBound(0, _lower(m, b, 0))
    for k in range(1, k_max + 1):
        value = _lower(m, b, k)
        if value > best.bound:
            best = BestLowerBound(k, value)
    return best


def forbidden_window(orders: Sequence[int], d: int) -> range | None:
    """Valuations in [d(m+b) + C(d+2,2), (d+1)m) that orders (m, m+a, m+b) cannot achieve.

    Applies when b*d + C(d+2,2) <= m; returns None otherwise.  The top endpoint
    (d+1)*m is excluded: the (d+1)-st power of the lowest-order coordinate
    achieves it.
    """
    m, _, r3 = _three_orders(orders)
    if d < 0:
        raise ValueError("need d >= 0")
    if (r3 - m) * d + math.comb(d + 2, 2) > m:
        return None
    return range(d * r3 + math.comb(d + 2, 2), (d + 1) * m)


def window_gap_bound(orders: Sequence[int], d: int) -> int:
    """Guaranteed gap count m - (b*d + C(d+2,2)) in [d*m, (d+1)*m] for orders (m, m+a, m+b)."""
    m, _, r3 = _three_orders(orders)
    if d < 0:
        raise ValueError("need d >= 0")
    return m - ((r3 - m) * d + math.comb(d + 2, 2))


def asymptotic_check(m: int, ell: int, eps: float) -> bool:
    """True when the best lower bound beats ((2m)^(3/2)/3 - eps) * ell^(3/2).

    Informational: the target is an asymptotic statement for ell much larger
    than m, so small ell can evaluate to False.  A non-finite ``eps`` is rejected.
    """
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    bound = best_genus_lower(profile_orders(m, ell)).bound
    return bound > ((2 * m) ** 1.5 / 3 - eps) * ell**1.5
