"""Closed forms for ramification profiles in arithmetic progression (ml, ml+m, ml+2m).

The generic value semigroup of such a profile contains an explicitly generated
approximating semigroup; this module builds it, evaluates the closed-form gap
set for m = 2, predicts Apery table entries per residue family, and computes
the genus bounds and forbidden valuation windows used by the Monte-Carlo
verifiers.  All values are exact (integers, or Fractions where a stated bound
is not integral).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from cuspsemi.semigroup import NumericalSemigroup


@dataclass(frozen=True)
class ArithProfile:
    """Profile (ml, ml+m, ml+2m) of three consecutive multiples of m."""

    m: int
    ell: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.ell < 2:
            raise ValueError("ell must be at least 2")

    @property
    def orders(self) -> tuple[int, int, int]:
        m, ell = self.m, self.ell
        return (m * ell, m * ell + m, m * ell + 2 * m)


def _check_parameters(m: int, ell: int) -> None:
    if m < 2 or ell < 2:
        raise ValueError("need m >= 2 and ell >= 2")
    if ell < 2 * m:
        warnings.warn(
            f"ell={ell} is below 2*m={2 * m}; the closed forms are outside their hypotheses",
            stacklevel=3,
        )


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
    _check_parameters(m, ell)
    base = (m * ell, m * ell + m, m * ell + 2 * m, 2 * m * (ell + 1) + 1)
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

    modulus: int
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
    return AperyFormulaResult(n, ordered, uncovered, tuple(findings))


@dataclass(frozen=True)
class ArithGenusBound:
    """Genus upper bound for the generic value semigroup of an ArithProfile.

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


def genus_lower_bound(m: int, a: int, b: int, k: int) -> int:
    """Lower bound m(k+1) - b*C(k+1,2) - C(k+3,3) for the genus of profile (m, m+a, m+b)."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    if m < 2 or k < 0:
        raise ValueError("need m >= 2 and k >= 0")
    return m * (k + 1) - b * math.comb(k + 1, 2) - math.comb(k + 3, 3)


class BestLowerBound(NamedTuple):
    k: int
    bound: int


def best_genus_lower(m: int, a: int, b: int) -> BestLowerBound:
    """Best choice of k for :func:`genus_lower_bound`, scanned up to ceil(2*sqrt(m)) + b."""
    k_max = math.isqrt(4 * m)
    if k_max * k_max < 4 * m:
        k_max += 1
    k_max += b
    best = BestLowerBound(0, genus_lower_bound(m, a, b, 0))
    for k in range(1, k_max + 1):
        value = genus_lower_bound(m, a, b, k)
        if value > best.bound:
            best = BestLowerBound(k, value)
    return best


@dataclass(frozen=True)
class ForbiddenWindow:
    """Valuation window [lo, hi] free of achieved values except the top endpoint.

    ``hi`` itself equals (d+1)*m and is achieved by the (d+1)-st power of the
    lowest-order coordinate, so the degrees that must be gaps are [lo, hi).
    """

    lo: int
    hi: int

    def excluded(self) -> range:
        return range(self.lo, self.hi)


def forbidden_window(m: int, a: int, b: int, d: int) -> ForbiddenWindow | None:
    """Window of valuations the profile (m, m+a, m+b) cannot achieve, if applicable.

    Applies when b*d + C(d+2,2) <= m; returns None otherwise.
    """
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    if m < 2 or d < 0:
        raise ValueError("need m >= 2 and d >= 0")
    if b * d + math.comb(d + 2, 2) > m:
        return None
    return ForbiddenWindow(d * (m + b) + math.comb(d + 2, 2), (d + 1) * m)


def window_gap_bound(m: int, a: int, b: int, d: int) -> int:
    """Guaranteed number of gaps of the value semigroup inside [d*m, (d+1)*m]."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    if m < 2 or d < 0:
        raise ValueError("need m >= 2 and d >= 0")
    return m - (b * d + math.comb(d + 2, 2))


def asymptotic_check(m: int, ell: int, eps: float) -> bool:
    """True when the best lower bound beats ((2m)^(3/2)/3 - eps) * ell^(3/2).

    Informational: the target is an asymptotic statement for ell much larger
    than m, so small ell can evaluate to False.
    """
    bound = best_genus_lower(m * ell, m, 2 * m).bound
    return bound > ((2 * m) ** 1.5 / 3 - eps) * ell**1.5
