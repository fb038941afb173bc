"""Monte-Carlo value semigroups of generic space-curve cusps.

A ramification profile (r1 < ... < rn) fixes the vanishing orders of the
coordinate series of a cusp parameterization.  Genericity is emulated by
drawing the higher coefficients uniformly from a large prime field: each
coordinate is a truncated power series with leading coefficient 1.  The set of
valuations achieved by the generated algebra below a precision horizon equals
the pivot-degree set of the echelon form of the monomial coefficient matrix,
with rows reduced in increasing valuation so a single sweep suffices.  The
result is exact for the drawn instance; agreement across independent seeds is
the evidence that the instance is generic.  Once the conductor is captured and
the achieved set is checked to be additively closed, the value semigroup is a
:class:`~cuspsemi.semigroup.NumericalSemigroup` like any other.

Both kernels run on Python integers that pack one fixed-width slot per degree
(Kronecker substitution).  A product of two series truncated to n terms is one
big-integer multiply with slots of 2 * bits(p) + bits(n) bits, rounded up to
whole bytes, because each exact product coefficient is below n * p**2.  An
echelon row keeps its slots unreduced while it is reduced; at most one pivot
per degree meets it, so slots of 2 * bits(p) + bits(precision) + 1 bits, again
rounded up to bytes, hold it without a carry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from cuspsemi.semigroup import NumericalSemigroup

DEFAULT_PRIME = (1 << 61) - 1  # Mersenne prime, 61 bits
_MIN_PRIME = 1 << 30
# Miller-Rabin with the first twelve primes as bases is deterministic below
# 3.3 * 10**24, so every modulus below 2**64 is decided exactly.
_MAX_PRIME = 1 << 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Horizons tried per seed: start_precision, then up to eight doublings.
_HORIZON_ATTEMPTS = 9


class PrecisionTooSmallError(ValueError):
    """The precision horizon is too small to capture the conductor."""


class SeedDisagreementError(RuntimeError):
    """Independent random trials produced different value semigroups."""


@dataclass(frozen=True)
class RamificationProfile:
    """Strictly increasing vanishing orders (r1, ..., rn), with r1 >= 2 and n >= 2."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(int(r) for r in self.orders)
        object.__setattr__(self, "orders", orders)
        if len(orders) < 2:
            raise ValueError("a profile needs at least two orders")
        if orders[0] < 2:
            raise ValueError("the smallest order must be at least 2")
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValueError("orders must be strictly increasing")

    @classmethod
    def of(cls, value: "RamificationProfile | Sequence[int]") -> "RamificationProfile":
        if isinstance(value, cls):
            return value
        return cls(tuple(value))

    def __iter__(self):
        return iter(self.orders)

    def __len__(self) -> int:
        return len(self.orders)


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series over F_p known on degrees [valuation, precision).

    ``coefficients[k]`` is the coefficient of t**(valuation + k); the leading
    coefficient is nonzero.
    """

    valuation: int
    coefficients: tuple[int, ...]
    precision: int
    prime: int

    def __post_init__(self) -> None:
        if not 0 < self.valuation < self.precision:
            raise ValueError("need 0 < valuation < precision")
        if len(self.coefficients) != self.precision - self.valuation:
            raise ValueError("coefficient count must equal precision - valuation")
        if self.coefficients[0] % self.prime == 0:
            raise ValueError("leading coefficient must be nonzero")
        if any(not 0 <= x < self.prime for x in self.coefficients):
            raise ValueError("coefficients must be reduced mod the prime")

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.precision != other.precision or self.prime != other.prime:
            raise ValueError("series must share precision and prime")
        p = self.prime
        v = self.valuation + other.valuation
        if v >= self.precision:
            raise PrecisionTooSmallError(
                f"product valuation {v} is at or beyond precision {self.precision}"
            )
        n = self.precision - v
        # both operands truncate to n coefficients, so an exact product
        # coefficient is below n * p**2 and fits its slot without a carry
        width = (2 * p.bit_length() + n.bit_length() + 7) // 8
        product = _pack(self.coefficients[:n], width) * _pack(other.coefficients[:n], width)
        return TruncatedSeries(v, tuple(_unpack(product, width, n, p)), self.precision, p)


def _pack(values: Sequence[int], width: int) -> int:
    """One int holding ``values[k]`` in bytes [k * width, (k + 1) * width)."""
    return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in values), "little")


def _unpack(packed: int, width: int, count: int, prime: int) -> list[int]:
    """The lowest ``count`` slots of ``packed``, each reduced mod ``prime``."""
    raw = packed.to_bytes(max(count * width, (packed.bit_length() + 7) // 8), "little")
    return [int.from_bytes(raw[k : k + width], "little") % prime for k in range(0, count * width, width)]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 37 < n < ``_MAX_PRIME``; base 2 rejects even n."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(prime: int) -> None:
    """Raise ValueError unless ``prime`` is a prime in (2**30, 2**64)."""
    if prime <= _MIN_PRIME:
        raise ValueError("prime must exceed 2**30")
    if prime >= _MAX_PRIME:
        raise ValueError("prime must be below 2**64, where primality is checked exactly")
    if not _is_prime(prime):
        raise ValueError(f"modulus {prime} is not prime")


def _draw_series(rng: random.Random, valuation: int, precision: int, prime: int) -> TruncatedSeries:
    coeffs = [1] + [rng.randrange(prime) for _ in range(precision - valuation - 1)]
    return TruncatedSeries(valuation, tuple(coeffs), precision, prime)


def random_series(valuation: int, precision: int, prime: int = DEFAULT_PRIME, seed: int = 0) -> TruncatedSeries:
    """Random truncated series: leading coefficient 1, higher ones uniform in F_p."""
    _check_prime(prime)
    if valuation < 1:
        raise ValueError("valuation must be positive")
    if valuation >= precision:
        raise PrecisionTooSmallError("precision must exceed the valuation")
    return _draw_series(random.Random(seed), valuation, precision, prime)


def _exponents_below(orders: tuple[int, ...], precision: int) -> list[tuple[int, ...]]:
    """Nonzero exponent tuples with weighted degree below ``precision``, sorted by degree."""
    n = len(orders)
    found: list[tuple[int, tuple[int, ...]]] = []
    vec = [0] * n

    def descend(i: int, deg: int) -> None:
        if i == n:
            if deg:
                found.append((deg, tuple(vec)))
            return
        r = orders[i]
        e = 0
        while deg + e * r < precision:
            vec[i] = e
            descend(i + 1, deg + e * r)
            e += 1
        vec[i] = 0

    descend(0, 0)
    found.sort()
    return [exp for _, exp in found]


def _row_width(prime: int, precision: int) -> int:
    """Bytes per slot of an echelon row: room for (precision + 1) * prime**2."""
    return (2 * prime.bit_length() + precision.bit_length() + 1 + 7) // 8


def _insert_row(pivots: dict[int, int], valuation: int, coeffs: Sequence[int], prime: int) -> int | None:
    """Reduce a row against the pivot rows; record a new pivot at its leading degree.

    ``coeffs`` covers degrees [valuation, precision).  Returns the new pivot
    degree, or None when the row reduces to zero below the horizon.

    Rows and pivots are packed ints with one slot of :func:`_row_width` bytes
    per degree, the lowest slot holding the leading degree.  A pivot covers
    [degree, precision) with reduced slots and leading slot 1, so one
    reduction is ``row += (p - c) * pivot`` and adds less than p**2 to each
    slot.  Row slots stay unreduced; a row meets at most one pivot per degree,
    so each slot stays below (precision + 1) * p**2 and never carries into
    the next one.
    """
    precision = valuation + len(coeffs)
    width = _row_width(prime, precision)
    bits = 8 * width
    mask = (1 << bits) - 1
    row = _pack(coeffs, width)
    degree = valuation
    while row:
        c = (row & mask) % prime
        if not c:
            row >>= bits
            degree += 1
            continue
        pivot = pivots.get(degree)
        if pivot is None:
            inv = pow(c, -1, prime)
            slots = _unpack(row, width, precision - degree, prime)
            pivots[degree] = _pack([inv * x % prime for x in slots], width)
            return degree
        row += (prime - c) * pivot
    return None


def detect_conductor(achieved: Sequence[int], run_length: int) -> int | None:
    """Start of the first run of ``run_length`` consecutive values, if present."""
    run = 0
    prev: int | None = None
    for x in achieved:
        run = run + 1 if prev is not None and x == prev + 1 else 1
        if run == run_length:
            return x - run_length + 1
        prev = x
    return None


def value_semigroup(
    profile: RamificationProfile | Sequence[int],
    precision: int,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
) -> tuple[int, ...]:
    """Achieved valuations in [0, precision) for one random instance of the profile.

    Every monomial in the coordinate series with weighted degree below
    ``precision`` contributes a coefficient row; the pivot degrees of the
    echelon form, together with 0, are exactly the valuations achieved by the
    algebra below the horizon.  Raises :class:`PrecisionTooSmallError` when no
    run of r1 consecutive achieved values fits below the horizon, since the
    conductor is then not captured.
    """
    prof = RamificationProfile.of(profile)
    orders = prof.orders
    _check_prime(prime)
    if precision <= orders[-1]:
        raise PrecisionTooSmallError("precision must exceed every order in the profile")

    rng = random.Random(seed)
    base = [_draw_series(rng, r, precision, prime) for r in orders]

    memo: dict[tuple[int, ...], TruncatedSeries] = {}
    for i in range(len(orders)):
        unit = tuple(1 if j == i else 0 for j in range(len(orders)))
        memo[unit] = base[i]

    pivots: dict[int, int] = {}
    for exp in _exponents_below(orders, precision):
        series = memo.get(exp)
        if series is None:
            j = next(idx for idx, e in enumerate(exp) if e)
            parent = exp[:j] + (exp[j] - 1,) + exp[j + 1 :]
            series = memo[parent] * base[j]
            memo[exp] = series
        _insert_row(pivots, series.valuation, series.coefficients, prime)

    achieved = sorted({0, *pivots})
    if detect_conductor(achieved, orders[0]) is None:
        raise PrecisionTooSmallError(
            f"no run of {orders[0]} consecutive achieved valuations below {precision}"
        )
    return tuple(achieved)


def start_precision(profile: RamificationProfile | Sequence[int]) -> int:
    """Initial precision horizon: twice the conductor scale of the profile's monoid.

    For orders with gcd d, the relevant scale is d times the conductor of the
    reduced semigroup generated by orders/d; for d = 1 this is twice the
    conductor of the generated numerical semigroup, plus a small margin.
    """
    orders = RamificationProfile.of(profile).orders
    d = 0
    for r in orders:
        d = gcd(d, r)
    reduced = NumericalSemigroup(r // d for r in orders)
    return max(2 * d * (reduced.frobenius + 1) + 2, 2 * orders[-1] + 2)


def capture_conductors(
    profile: RamificationProfile | Sequence[int],
    seeds: Sequence[int],
    prime: int = DEFAULT_PRIME,
) -> list[NumericalSemigroup]:
    """The value semigroup of each seed's instance.

    This is the only place that grows the precision horizon.  Each seed starts
    at :func:`start_precision` and doubles the horizon on every
    :class:`PrecisionTooSmallError`, for at most ``_HORIZON_ATTEMPTS`` horizons.
    The achieved set must be closed above the conductor it shows, and the
    members below it must be closed under addition: the semigroup generated by
    them and the r1 values from the conductor has no other member below it.
    """
    prof = RamificationProfile.of(profile)
    r1 = prof.orders[0]
    start = start_precision(prof)
    results: list[NumericalSemigroup] = []
    for seed in seeds:
        precision = start
        for _ in range(_HORIZON_ATTEMPTS):
            try:
                achieved = value_semigroup(prof, precision, prime, seed)
                break
            except PrecisionTooSmallError:
                precision *= 2
        else:
            raise PrecisionTooSmallError(
                f"conductor not captured for {prof.orders} after {_HORIZON_ATTEMPTS} horizons"
            )
        conductor = detect_conductor(achieved, r1)
        assert conductor is not None
        members = set(achieved)
        if any(x not in members for x in range(conductor, precision)):
            raise RuntimeError("achieved set is not closed above its conductor")
        below = [x for x in achieved if x < conductor]
        if below[0] != 0:
            raise RuntimeError("achieved set must contain 0")
        semigroup = NumericalSemigroup(below[1:] + list(range(conductor, conductor + r1)))
        if semigroup.member_count_below(conductor) != len(below):
            raise RuntimeError("achieved set is not additively closed")
        results.append(semigroup)
    return results


def empirical_generic_semigroup(
    profile: RamificationProfile | Sequence[int],
    trials: int = 3,
    prime: int = DEFAULT_PRIME,
    base_seed: int = 0,
) -> NumericalSemigroup:
    """Value semigroup of a generic cusp, as agreed by ``trials`` independent seeds.

    Each trial is one instance from :func:`capture_conductors`.  All trials
    must give the same semigroup, otherwise :class:`SeedDisagreementError` is
    raised.
    """
    prof = RamificationProfile.of(profile)
    if trials < 3:
        raise ValueError("at least 3 trials are required for agreement evidence")
    results = capture_conductors(prof, range(base_seed, base_seed + trials), prime)

    semigroup = results[0]
    if any(s != semigroup for s in results[1:]):
        raise SeedDisagreementError(
            f"trials disagree for profile {prof.orders} with base seed {base_seed}"
        )
    if any(not semigroup.contains(r) for r in prof.orders):
        raise RuntimeError("achieved set must contain every profile order")
    return semigroup


def combination_valuation_probe(
    series_list: Sequence[TruncatedSeries], coefficients: Sequence[int]
) -> int | None:
    """Valuation of a linear combination, or None when it vanishes below precision.

    All series must share the precision horizon and prime; the coefficients
    must be nonzero mod p.
    """
    if not series_list or len(series_list) != len(coefficients):
        raise ValueError("need one nonzero coefficient per series")
    precision = series_list[0].precision
    prime = series_list[0].prime
    if any(s.precision != precision or s.prime != prime for s in series_list):
        raise ValueError("series must share precision and prime")
    coeffs = [a % prime for a in coefficients]
    if any(a == 0 for a in coeffs):
        raise ValueError("coefficients must be nonzero mod the prime")

    base = min(s.valuation for s in series_list)
    acc = [0] * (precision - base)
    for s, a in zip(series_list, coeffs):
        off = s.valuation - base
        for i, c in enumerate(s.coefficients):
            if c:
                acc[off + i] = (acc[off + i] + a * c) % prime
    for i, x in enumerate(acc):
        if x:
            return base + i
    return None
