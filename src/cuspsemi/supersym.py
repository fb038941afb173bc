"""Supersymmetric numerical semigroups generated by the pairwise products ab, ac, bc.

For pairwise coprime 2 <= a < b < c the semigroup S = <ab, ac, bc> has closed
forms for its Frobenius number and genus, a unique-factorization zone below
abc, and a residue-triple description of its elements congruent to 1 mod abc.
Its Apery set with respect to ab is {y*ac + z*bc : 0 <= y < b, 0 <= z < a},
so the members below any t are counted without building S
(:func:`apery_count_below`).  :func:`members_below` checks that count against
a floor-sum count of the lattice points of ab*x + ac*y + bc*z <= t - 1, one
per member for t <= abc, and rho, the number of gaps above abc, is its count
below abc - (ab + ac + bc).  :func:`abc_normal_forms` reduces any n with the
inverses of :func:`residue_triple`.  The membership sieve of
:func:`supersym_semigroup` is the oracle the checks in :mod:`cuspsemi.verify`
hold these routes to.  Every public function takes the plain integers a, b, c
and checks them with :func:`pairwise_products`.

The checked-triple interface: behind some public functions sits a kernel that
takes the already checked triple and its products ab, ac, bc and checks
nothing.  The kernels are ``_frobenius``, ``_genus``, ``_apery_count_below``,
``_members_below``, ``_residue_triple``, ``_min_congruent_one`` and
``_s_prime_invariants``.  Outside this module exactly three callers use them,
each on a triple it has just checked: :func:`cuspsemi.severi.excess_supersym`
and :func:`cuspsemi.severi.excess_generic_supersym` (after their own
:func:`pairwise_products`) and ``cuspsemi.cli._supersym_row`` (after
``severi.excess_supersym``).  A sweep row so checks its triple twice, in
``severi.excess_supersym`` and in :func:`rho`, and takes one residue triple.
Any other caller goes through the public functions.

Everything is exact and nothing is random (Monte Carlo lives in
:mod:`cuspsemi.series`); Fractions are only the values of the Yau-Zhang
bounds.  A guarded result that fails its own check raises
:class:`MethodMismatchError`, which ``python -O`` keeps.  The extension
<ab, ac, bc, abc + 1> exists only where abc + 1 is a gap; elsewhere
:func:`s_prime` and :func:`s_prime_invariants` return None, and nothing
raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from cuspsemi.semigroup import NumericalSemigroup


class MethodMismatchError(RuntimeError):
    """Two supposedly equivalent computations disagreed, or a guarded result
    failed its own check; an implementation bug.
    """


def pairwise_products(a: int, b: int, c: int) -> tuple[int, int, int]:
    """(ab, ac, bc) for pairwise coprime 2 <= a < b < c; ValueError otherwise."""
    if not 2 <= a < b < c:
        raise ValueError("need 2 <= a < b < c")
    if gcd(a, b) != 1 or gcd(a * b, c) != 1:
        raise ValueError("a, b, c must be pairwise coprime")
    return (a * b, a * c, b * c)


def coprime_triples(max_abc: int, min_a: int = 2) -> Iterator[tuple[int, int, int]]:
    """All pairwise coprime triples min_a <= a < b < c with abc <= max_abc, ascending.

    Raises ValueError when called with min_a < 2, before any triple is asked for.
    """
    if min_a < 2:
        raise ValueError(f"min_a must be at least 2, got min_a={min_a}")
    return _coprime_triples(max_abc, min_a)


def _coprime_triples(max_abc: int, a: int) -> Iterator[tuple[int, int, int]]:
    """:func:`coprime_triples` from a checked ``min_a``, here ``a``."""
    while a * (a + 1) * (a + 2) <= max_abc:
        b = a + 1
        while a * b * (b + 1) <= max_abc:
            if gcd(a, b) == 1:
                for c in range(b + 1, max_abc // (a * b) + 1):
                    if gcd(a, c) == 1 and gcd(b, c) == 1:
                        yield (a, b, c)
            b += 1
        a += 1


def supersym_semigroup(a: int, b: int, c: int) -> NumericalSemigroup:
    """The semigroup <ab, ac, bc>, sieve-backed."""
    return NumericalSemigroup(pairwise_products(a, b, c))


def frobenius_formula(a: int, b: int, c: int) -> int:
    """Closed form 2abc - (ab + ac + bc) for the Frobenius number of <ab, ac, bc>."""
    return _frobenius(a, b, c, *pairwise_products(a, b, c))


def _frobenius(a: int, b: int, c: int, ab: int, ac: int, bc: int) -> int:
    """:func:`frobenius_formula` of a checked triple and its products."""
    return 2 * a * b * c - (ab + ac + bc)


def genus_formula(a: int, b: int, c: int) -> int:
    """Closed form (F + 1) / 2 for the genus; the semigroup is symmetric."""
    return _genus(a, b, c, frobenius_formula(a, b, c))


def _genus(a: int, b: int, c: int, f: int) -> int:
    """:func:`genus_formula` of a checked triple from its Frobenius number f."""
    if f % 2 == 0:
        raise MethodMismatchError(f"genus_formula({a},{b},{c}): Frobenius number {f} is even")
    return (f + 1) // 2


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of (a*i + b) // m over 0 <= i < n, for n, a, b >= 0 and m >= 1.

    The AtCoder Library ``floor_sum``: split off the whole parts of a/m and
    b/m, then count the remaining points under the line with the roles of a
    and m swapped, as in Euclid's algorithm, so it takes O(log m) steps.
    """
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def lattice_count(u: int, v: int, w: int, bound: int) -> int:
    """Exact number of nonnegative integer points with u*x + v*y + w*z <= bound.

    The weights must be positive (ValueError otherwise).  With them sorted so
    that u >= v >= w, the loop runs over x, whose weight is the largest, so it
    takes bound // u + 1 steps, none for a negative bound.  For each x, with
    rest = bound - u*x and top = rest // v, the points (y, z) are counted by
    one floor sum: writing y = top - j, they number the sum over 0 <= j <= top
    of (v*j + rest % v) // w + 1, which is ``_floor_sum`` plus top + 1.  The
    direct scan over x and y is kept as the test oracle.
    """
    if u <= 0 or v <= 0 or w <= 0:
        raise ValueError("weights must be positive")
    u, v, w = sorted((u, v, w), reverse=True)
    count = 0
    for x in range(bound // u + 1):
        top, low = divmod(bound - u * x, v)
        count += _floor_sum(top + 1, w, v, low) + top + 1
    return count


def rho_simplex(a: int, b: int, c: int) -> tuple[int, int, int, int] | None:
    """The simplex ab*x + ac*y + bc*z <= d, d = abc - (ab + ac + bc), as (ab, ac, bc, d).

    Its lattice points index the members of <ab, ac, bc> below d.  Returns
    None when d is not positive (the simplex is empty).
    """
    ab, ac, bc = pairwise_products(a, b, c)
    d = a * b * c - (ab + ac + bc)
    if d <= 0:
        return None
    return (ab, ac, bc, d)


def apery_count_below(a: int, b: int, c: int, t: int) -> int:
    """Number of members of <ab, ac, bc> in [0, t), counted from the Apery set.

    Every member is w + k*ab for exactly one w = y*ac + z*bc of Ap(S, ab)
    (0 <= y < b, 0 <= z < a) and one k >= 0, so the count is the sum of
    ceil((t - w) / ab) over the w < t.  The double loop runs y inside z, both
    in increasing order, and breaks once w >= t.
    """
    return _apery_count_below(a, b, c, *pairwise_products(a, b, c), t)


def _apery_count_below(a: int, b: int, c: int, ab: int, ac: int, bc: int, t: int) -> int:
    """:func:`apery_count_below` of a checked triple and its products."""
    count = 0
    for z in range(a):
        r = t - 1 - z * bc  # t - 1 - w, so that ceil((t - w) / ab) = r // ab + 1
        if r < 0:
            break
        for _ in range(b):
            count += r // ab + 1
            r -= ac
            if r < 0:
                break
    return count


def members_below(a: int, b: int, c: int, t: int) -> int:
    """Number of members of <ab, ac, bc> in [0, t) for t <= abc, counted two independent ways.

    The Apery count (:func:`apery_count_below`) is checked against the lattice
    points of ab*x + ac*y + bc*z <= t - 1 (:func:`lattice_count`), one per
    member because factorization is unique below abc; no semigroup is built.
    Raises ValueError for t > abc, and :class:`MethodMismatchError` when the
    two counts disagree.
    """
    return _members_below(a, b, c, *pairwise_products(a, b, c), t)


def _members_below(a: int, b: int, c: int, ab: int, ac: int, bc: int, t: int) -> int:
    """:func:`members_below` of a checked triple and its products."""
    if t > a * b * c:
        raise ValueError(f"members_below({a},{b},{c},{t}): t exceeds abc = {a * b * c}")
    by_apery = _apery_count_below(a, b, c, ab, ac, bc, t)
    by_lattice = lattice_count(ab, ac, bc, t - 1)
    if by_apery != by_lattice:
        raise MethodMismatchError(
            f"members_below({a},{b},{c},{t}): Apery count {by_apery} != lattice count {by_lattice}"
        )
    return by_apery


def rho(a: int, b: int, c: int) -> int:
    """Number of gaps of <ab, ac, bc> exceeding abc, by :func:`members_below`.

    By symmetry this equals the number of members below d = abc - (ab + ac +
    bc): n > abc is a gap exactly when F - n = d - (n - abc) < d is a member.
    """
    ab, ac, bc = pairwise_products(a, b, c)
    return _members_below(a, b, c, ab, ac, bc, a * b * c - (ab + ac + bc))


def yz_hypothesis(u: int, v: int, w: int, bound: int) -> bool:
    """True when alpha >= beta >= gamma >= 1, the hypothesis of the Yau-Zhang bounds.

    They are stated in the intercepts alpha = bound/u, beta = bound/v, gamma =
    bound/w (bound > 0) and eta = 1/alpha + 1/beta + 1/gamma.
    """
    return u <= v <= w <= bound


def yz_weak_bound(u: int, v: int, w: int, bound: int) -> Fraction:
    """Yau-Zhang bound alpha*beta*gamma * (1 + eta)**3 / 6 on the lattice count."""
    return Fraction((bound + u + v + w) ** 3, 6 * u * v * w)


def yz_strong_bound(u: int, v: int, w: int, bound: int) -> Fraction:
    """Sharper Yau-Zhang bound, the product of (intercept*(1 + eta) - 1) over 6."""
    return Fraction((bound + v + w) * (bound + u + w) * (bound + u + v), 6 * u * v * w)


def abc_normal_forms(a: int, b: int, c: int, ns: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """For each n of ns, the unique n = x*ab + y*ac + z*bc with 0 <= x < c, 0 <= y < b, z integer.

    n is a member of <ab, ac, bc> exactly when z >= 0.  The triple is checked
    once, by :func:`residue_triple`, whose beta_hat = (ac)^-1 mod b and
    gamma_hat = (ab)^-1 mod c give y and x.  A nonzero Chinese-remainder
    remainder raises :class:`MethodMismatchError`.
    """
    _, beta_hat, gamma_hat = residue_triple(a, b, c)
    ab, ac, bc = a * b, a * c, b * c
    for n in ns:
        x = n * gamma_hat % c
        y = n * beta_hat % b
        z, r = divmod(n - x * ab - y * ac, bc)
        if r != 0:
            raise MethodMismatchError(
                f"abc_normal_forms({a},{b},{c}): Chinese-remainder reduction of {n} leaves {r}"
            )
        yield (x, y, z)


def abc_all_factorizations(a: int, b: int, c: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """All nonnegative (x, y, z) with x*ab + y*ac + z*bc = n, in ascending order.

    Every solution is the normal form shifted by (k1*c, k2*b, k3*a) with
    k1 + k2 + k3 = 0, and nonnegativity confines the shifts to a finite box.
    """
    if n < 0:
        return ()
    x0, y0, z0 = next(abc_normal_forms(a, b, c, (n,)))
    ab, ac = a * b, a * c
    out = []
    k1 = 0
    while (x0 + k1 * c) * ab <= n:
        x = x0 + k1 * c
        rem = n - x * ab
        k2 = 0
        while (y0 + k2 * b) * ac <= rem:
            z = z0 - (k1 + k2) * a
            if z >= 0:
                out.append((x, y0 + k2 * b, z))
            k2 += 1
        k1 += 1
    return tuple(sorted(out))


def residue_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    """(alpha_hat, beta_hat, gamma_hat): (bc)^-1 mod a, (ac)^-1 mod b, (ab)^-1 mod c, each >= 1."""
    return _residue_triple(a, b, c, *pairwise_products(a, b, c))


def _residue_triple(a: int, b: int, c: int, ab: int, ac: int, bc: int) -> tuple[int, int, int]:
    """:func:`residue_triple` of a checked triple and its products."""
    return (pow(bc, -1, a), pow(ac, -1, b), pow(ab, -1, c))


def min_congruent_one(a: int, b: int, c: int) -> int:
    """Least member of <ab, ac, bc> congruent to 1 mod abc; always abc+1 or 2abc+1."""
    residues = residue_triple(a, b, c)
    return _min_congruent_one(a, b, c, a * b, a * c, b * c, residues)


def _min_congruent_one(a: int, b: int, c: int, ab: int, ac: int, bc: int,
                       residues: tuple[int, int, int]) -> int:
    """:func:`min_congruent_one` of a checked triple, its products and its residue triple."""
    alpha_hat, beta_hat, gamma_hat = residues
    value = gamma_hat * ab + beta_hat * ac + alpha_hat * bc
    abc = a * b * c
    if value not in (abc + 1, 2 * abc + 1):
        raise MethodMismatchError(
            f"min_congruent_one({a},{b},{c}): {value} is neither abc + 1 nor 2abc + 1"
        )
    return value


def s_prime(a: int, b: int, c: int) -> NumericalSemigroup | None:
    """The extension <ab, ac, bc, abc + 1>, or None where abc + 1 is already a member."""
    abc = a * b * c
    if min_congruent_one(a, b, c) == abc + 1:
        return None
    return NumericalSemigroup(pairwise_products(a, b, c) + (abc + 1,))


def s_prime_invariants(a: int, b: int, c: int) -> tuple[int, int] | None:
    """Closed-form (genus, Frobenius number) of the extension by abc + 1; None where it has none."""
    ab, ac, bc = pairwise_products(a, b, c)
    return _s_prime_invariants(a, b, c, ab, ac, bc, _genus(a, b, c, _frobenius(a, b, c, ab, ac, bc)))


def _s_prime_invariants(a: int, b: int, c: int, ab: int, ac: int, bc: int,
                        genus: int) -> tuple[int, int] | None:
    """:func:`s_prime_invariants` of a checked triple, its products and its genus.

    Returns None where abc + 1 is a member; the residue triple is taken once,
    for both the membership question and the closed forms.
    """
    residues = _residue_triple(a, b, c, ab, ac, bc)
    if _min_congruent_one(a, b, c, ab, ac, bc, residues) == a * b * c + 1:
        return None
    alpha_hat, beta_hat, gamma_hat = residues
    sprime_genus = genus - (a - alpha_hat) * (b - beta_hat) * (c - gamma_hat)
    frobenius = max(
        (gamma_hat - 1) * ab + (b - 1) * ac - bc,
        (c - 1) * ab + (beta_hat - 1) * ac - bc,
        (c - 1) * ab + (b - 1) * ac + (alpha_hat - a - 1) * bc,
    )
    return sprime_genus, frobenius
