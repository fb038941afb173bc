"""Closed forms for ramification profiles in arithmetic progression (ml, ml+m, ml+2m).

The generic value semigroup of such a profile contains an explicitly generated
approximating semigroup; this module builds it, evaluates the closed-form gap
set for m = 2, predicts Apery table entries per residue family, and computes
the genus upper bound, the best genus lower bound and the forbidden valuation
windows used by the Monte-Carlo verifiers.  The gap set and the Apery
predictions are each one formula for both parities of ell: parity enters
through range bounds such as ell // 2 and a few named terms.

The closed forms hold for ell >= 2m.  :func:`profiles` is the one sweep over
that hypothesis, and the closed-form entry points warn below it.  The
lower bound and the windows take any three orders (r1, r2, r3) = (m, m+a, m+b)
and check them through :class:`~cuspsemi.series.RamificationProfile`.  Results
are plain values: integers, tuples, and a Fraction for the stated genus bound,
which is not always integral.
"""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction
from typing import Iterator, Sequence

from cuspsemi.semigroup import NumericalSemigroup
from cuspsemi.series import RamificationProfile


def profile_orders(m: int, ell: int) -> tuple[int, int, int]:
    """Orders (ml, ml+m, ml+2m) of the profile of three consecutive multiples of m."""
    if m < 2 or ell < 2:
        raise ValueError("need m >= 2 and ell >= 2")
    return (m * ell, m * ell + m, m * ell + 2 * m)


def profiles(m: range, l: range) -> Iterator[tuple[int, int]]:
    """The (m, ell) in m x l with ell >= 2m, the closed forms' hypothesis, m outer."""
    return ((mm, ell) for mm in m for ell in l if ell >= 2 * mm)


def _check_parameters(m: int, ell: int) -> tuple[int, int, int]:
    """:func:`profile_orders`, with a warning when ell < 2m leaves the closed forms' hypotheses."""
    orders = profile_orders(m, ell)
    if ell < 2 * m:
        # the warning names the first caller outside this module
        frame, level = sys._getframe(), 1
        while frame.f_back is not None and frame.f_code.co_filename == __file__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"ell={ell} is below 2*m={2 * m}; the closed forms are outside their hypotheses",
            stacklevel=level,
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
    """Closed-form gap set of the m = 2 approximating semigroup, for ell >= 4.

    Only the two largest gaps depend on the parity of ell.  The cardinality is
    ceil(ell**2 / 2) + 2*ell.
    """
    if ell < 4:
        raise ValueError(f"ell must be at least 4, got ell={ell}")
    out = set(range(1, 2 * ell)) | set(range(2 * ell + 1, 4 * ell + 4, 2))
    for i in range(1, ell // 2):
        out |= set(range(2 * (i * ell + 2 * i + 1), 2 * ((i + 1) * ell - 1) + 1, 2))
    for i in range(1, (ell - 1) // 2):
        out |= set(range(2 * (i + 1) * ell + 4 * i + 3, 2 * (i + 2) * ell + 4, 2))
    if ell % 2 == 0:
        out |= {ell * ell + 2 * ell - 1, ell * ell + 2 * ell + 3}
    else:
        out.add(ell * ell + 3 * ell + 3)
    return tuple(sorted(out))


def apery_predictions(m: int, ell: int) -> list[tuple[int, int, str]]:
    """Predicted Apery entries of the approximating semigroup, as (residue, value, family).

    The triples are sorted by residue; residues no family reaches are absent.
    The stated nonspecial family ranges j up to ell - 1, but its indices
    2mj + k and 2mj + m + k stay inside [1, ml - 1] only for j < ceil(ell/2)
    and j < floor(ell/2), which is also the range the genus identity sums over;
    that range is used.  For ell >= 2m every family then lands in [1, ml - 1]
    on distinct residues; below 2m a residue outside that range or already
    predicted is skipped.  The parity of ell enters only through the last
    generator ``top`` (the special family) and the g2 term of the special-bis
    family.
    """
    n, g2, g1, gb, *_, top = approximation_generators(m, ell)
    predictions: dict[int, tuple[int, int, str]] = {}

    def add(residue: int, value: int, family: str) -> None:
        if 1 <= residue <= n - 1:
            predictions.setdefault(residue, (residue, value, family))

    for k in range(m):
        for j in range(k, (ell + 1) // 2):
            if 2 * m * j + k:
                add(2 * m * j + k, (j - k) * g1 + k * gb, "nonspecial")
        for j in range(k, ell // 2):
            add(2 * m * j + m + k, g2 + (j - k) * g1 + k * gb, "nonspecial")
    for j in range(m - 1):
        add(2 * m * j + j + 1, top + j * gb, "special")
    for j in range(m - 1):
        for k in range(j + 2, m):
            add(2 * m * j + k, (ell % 2) * g2 + (j + ell // 2 - k) * g1 + k * gb, "special-bis")
    return sorted(predictions.values())


def genus_upper(m: int, ell: int) -> int:
    """Upper bound for the genus, realized with equality by the approximating semigroup.

    This is the value the proof's count yields: m*ell^2/4 for even ell and
    m*(ell+1)(ell-1)/4 for odd ell, plus a tail common to both parities.
    """
    _check_parameters(m, ell)
    return m * (ell * ell - ell % 2) // 4 + m * (m - 1) * ell + (m - 1) * (m - 2)


def genus_upper_stated(m: int, ell: int) -> Fraction:
    """The genus upper bound in the paper's stated closed form.

    For even ell it equals :func:`genus_upper`.  For odd ell the stated form
    uses (ell+1)(ell-2)/4, not always integral, where the derivation it rests
    on yields (ell+1)(ell-1)/4, so it falls short of :func:`genus_upper` by m(ell+1)/4.
    """
    _check_parameters(m, ell)
    tail = m * (m - 1) * ell + (m - 1) * (m - 2)
    if ell % 2 == 0:
        return Fraction(m * ell * ell, 4) + tail
    return Fraction(m * (ell + 1) * (ell - 2), 4) + tail


# The bounds below hold for any three-order profile (r1, r2, r3) = (m, m+a, m+b),
# not only for the arithmetic family; they depend on r1 = m and r3 - r1 = b.


def _three_orders(orders: Sequence[int]) -> tuple[int, int, int]:
    """The checked orders (r1, r2, r3) of a three-order profile."""
    checked = RamificationProfile.of(orders).orders
    if len(checked) != 3:
        raise ValueError("the bounds are stated for three-order profiles")
    return checked


def best_genus_lower(orders: Sequence[int]) -> tuple[int, int]:
    """Best genus lower bound for orders (m, m+a, m+b), as (k, bound) at the least such k.

    Each k >= 0 gives the bound m(k+1) - b*C(k+1,2) - C(k+3,3).  Raising k by
    one adds m - b(k+1) - C(k+3,2), which strictly falls as k grows, so the
    first k at which that step is not positive is the smallest maximiser.
    """
    m, _, r3 = _three_orders(orders)
    b = r3 - m
    k, bound = 0, m - 1
    while (step := m - b * (k + 1) - math.comb(k + 3, 2)) > 0:
        k, bound = k + 1, bound + step
    return k, bound


def forbidden_window(orders: Sequence[int], d: int) -> range | None:
    """Valuations in [d(m+b) + C(d+2,2), (d+1)m) that orders (m, m+a, m+b) cannot achieve.

    Applies when b*d + C(d+2,2) <= m; returns None otherwise.  The top endpoint
    (d+1)*m is excluded: the (d+1)-st power of the lowest-order coordinate
    achieves it.  Every valuation in the window is a gap, so [d*m, (d+1)*m]
    holds at least len(window) = m - (b*d + C(d+2,2)) gaps.
    """
    m, _, r3 = _three_orders(orders)
    if d < 0:
        raise ValueError("need d >= 0")
    if (r3 - m) * d + math.comb(d + 2, 2) > m:
        return None
    return range(d * r3 + math.comb(d + 2, 2), (d + 1) * m)


def asymptotic_check(m: int, ell: int, eps: float) -> bool:
    """True when the best lower bound beats ((2m)^(3/2)/3 - eps) * ell^(3/2).

    Informational: the target is an asymptotic statement for ell much larger
    than m, so small ell can evaluate to False.  A non-finite ``eps`` is rejected.
    """
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    _, bound = best_genus_lower(profile_orders(m, ell))
    return bound > ((2 * m) ** 1.5 / 3 - eps) * ell**1.5
