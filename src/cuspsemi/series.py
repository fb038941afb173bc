"""Monte-Carlo value semigroups of generic space-curve cusps.

A ramification profile (r1 < ... < rn) fixes the vanishing orders of the
coordinate series of a cusp parameterization.  Genericity is emulated by
drawing the higher coefficients uniformly from a large prime field: each
coordinate is a truncated power series with leading coefficient 1, drawn from
its own stream, seeded by the seed and the coordinate's index.  A series drawn
at one horizon is therefore the truncation of the same series drawn at any
longer one, so every horizon sees one instance per seed.  The set of
valuations achieved by the generated algebra below a precision horizon equals
the pivot-degree set of the echelon form of the monomial coefficient matrix.
Rows go in by increasing monomial degree and a row only makes pivots at or
above its own degree, so the achieved set below a degree is final once every
monomial below it is in; the echelon stops at the first degree below which
that set holds a run of r1 values, the conductor's.  That stop degree is the
least monomial degree at or above conductor + r1, and every horizon at or
above it gives the same result.  The result is exact for the drawn instance;
agreement across independent seeds is the evidence that the instance is
generic.

The horizon rule: the first seed starts at :func:`start_precision`, which
provably captures every profile with gcd 1, and every later seed at the first
seed's stop degree, where a seed with the same semigroup is captured at once.
A horizon that falls short, as start_precision can for gcd > 1, grows by half,
to no less than start_precision.  Once the achieved set is checked to be
additively closed, the value semigroup is a
:class:`~cuspsemi.semigroup.NumericalSemigroup` like any other.

Every series is one Python integer with a fixed-width slot per degree
(Kronecker substitution), in one layout per (prime, precision) horizon that
the series, their products, the echelon rows and the pivots all share.  With
b = bits(p) and L = bits(precision + 1), a slot has 2b + 2L + 2 bits, rounded
up to whole bytes.  That holds every value the kernels form without a carry:
a product of two series truncated to n slots has slots below n * p**2, and an
echelon row, which meets at most one pivot per degree, below
(precision + 1) * p**2.  Both are below 2**(2b + L).  Such slots are reduced
mod p all at once by whole-integer operations: one Barrett step with
mu = 2**(2b + L) // p takes q = ((x >> (b - 1)) * mu) >> (b + L + 1) in every
slot, where both factors are below 2**(b + L + 1), so their product fits the
slot; q undershoots x // p by at most 2, and two slot-wise conditional
subtractions of p finish.  A product is then one multiply and one reduction,
and a new pivot is the row reduced once, kept with the inverse of its leading
slot; coefficients are unpacked only when they are read.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from math import gcd
from typing import Sequence

from cuspsemi.semigroup import NumericalSemigroup, _first_run_start

DEFAULT_PRIME = (1 << 61) - 1  # Mersenne prime, 61 bits
_MIN_PRIME = 1 << 30
# Miller-Rabin with the first twelve primes as bases is deterministic below
# 3.3 * 10**24, so every modulus below 2**64 is decided exactly.
_MAX_PRIME = 1 << 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Horizons tried per seed.  The first seed's are start_precision and up to
# sixteen steps of 3/2; with F the Frobenius number of the orders over their
# gcd d, the last is at least 256 times 2d(F + 1) + 2, about twice
# start_precision: as far as eight doublings from that value would reach.  A
# later seed starts at the first seed's stop degree and steps by 3/2 to no less
# than start_precision, so its k-th horizon is at least the first seed's
# (k - 1)-th and its last at least 128 times 2d(F + 1) + 2.
_HORIZON_ATTEMPTS = 17


class PrecisionTooSmallError(ValueError):
    """The precision horizon is too small to capture the conductor."""


class SeedDisagreementError(RuntimeError):
    """Independent random trials produced different value semigroups."""


class AchievedSetError(RuntimeError, ArithmeticError):
    """A Monte-Carlo achieved set is not a semigroup's value set, or its echelon overflowed a slot.

    As an ArithmeticError the command line maps it to the numeric-failure exit
    code 3; as a RuntimeError it is still caught by ``except RuntimeError``.
    """


class RamificationProfile:
    """Strictly increasing vanishing orders (r1, ..., rn), with r1 >= 2 and n >= 2.

    Immutable by convention, as :class:`~cuspsemi.semigroup.NumericalSemigroup` is.
    """

    __slots__ = ("orders",)

    def __init__(self, orders: Sequence[int]) -> None:
        orders = tuple(int(r) for r in orders)
        if len(orders) < 2:
            raise ValueError("a profile needs at least two orders")
        if orders[0] < 2:
            raise ValueError("the smallest order must be at least 2")
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValueError("orders must be strictly increasing")
        self.orders = orders

    # perfbench/tracer.py reads this name; it goes with ROADMAP item 5's tracer change
    @classmethod
    def of(cls, value: "RamificationProfile | Sequence[int]") -> "RamificationProfile":
        if isinstance(value, cls):
            return value
        return cls(tuple(value))


class _Layout:
    """The packed-int layout of one (prime, precision) horizon.

    Slot k of a packed int, bits [k * bits, (k + 1) * bits), holds the
    coefficient of the k-th degree above the lowest one.  Series, products,
    echelon rows and pivots of one horizon all share this layout.  The masks
    below repeat one pattern in each of ``precision`` slots, enough for any
    series of the horizon.
    """

    __slots__ = (
        "prime", "precision", "width", "bits", "slot_mask", "ones",
        "low_shift", "low_mask", "mu", "high_shift", "high_mask", "bias", "top",
    )

    def __init__(self, prime: int, precision: int) -> None:
        b = prime.bit_length()
        level = (precision + 1).bit_length()
        self.prime = prime
        self.precision = precision
        self.width = (2 * b + 2 * level + 2 + 7) // 8
        self.bits = slot = 8 * self.width
        self.slot_mask = (1 << slot) - 1
        self.ones = ones = int.from_bytes((b"\x01" + bytes(self.width - 1)) * precision, "little")
        # Barrett reduction of a slot value x < 2**bx: q1 = x >> (b - 1) is
        # below 2**(b + level + 1), and so is mu; their product fits a slot
        bx = 2 * b + level
        self.mu = (1 << bx) // prime
        self.low_shift = b - 1
        self.low_mask = ones * ((1 << (slot - b + 1)) - 1)
        self.high_shift = bx - b + 1
        self.high_mask = ones * ((1 << (slot - self.high_shift)) - 1)
        # adding 2**(bits - 1) - p sets a slot's top bit exactly when it is >= p
        self.bias = ones * ((1 << (slot - 1)) - prime)
        self.top = slot - 1

    def pack(self, values: Sequence[int]) -> int:
        """One int holding ``values[k]`` in slot k; each value must fit a slot."""
        width = self.width
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in values), "little")

    def unpack(self, packed: int, count: int) -> list[int]:
        """The lowest ``count`` slots of ``packed``, which must have no higher ones."""
        width = self.width
        raw = packed.to_bytes(count * width, "little")
        return [int.from_bytes(raw[k : k + width], "little") for k in range(0, count * width, width)]

    def reduce(self, x: int) -> int:
        """Every slot of ``x`` mod the prime; each slot must be below (precision + 1) * p**2.

        The Barrett quotient undershoots by at most 2, so the remainder is
        below 3p, and two slot-wise conditional subtractions of p finish.
        """
        p = self.prime
        q = ((((x >> self.low_shift) & self.low_mask) * self.mu) >> self.high_shift) & self.high_mask
        x -= q * p
        x -= (((x + self.bias) >> self.top) & self.ones) * p
        x -= (((x + self.bias) >> self.top) & self.ones) * p
        return x

    def is_reduced(self, x: int) -> bool:
        """Whether ``x`` is nonnegative and every slot is below the prime.

        A slot at or above 2**(bits - 1) shows in ``x`` itself; any other slot
        takes the bias without a carry, so its top bit reads slot >= p.
        """
        return x >= 0 and not ((((x + self.bias) | x) >> self.top) & self.ones)


@lru_cache(maxsize=16)
def _layout_of(prime: int, precision: int) -> _Layout:
    return _Layout(prime, precision)


class TruncatedSeries:
    """Power series over F_p known on degrees [valuation, precision).

    The series is one packed int (``packed``) in the layout of its horizon,
    slot k holding the coefficient of t**(valuation + k); the leading slot is
    nonzero mod p and every slot is reduced.  ``coefficients`` unpacks the
    slots when it is first read.  Two series are equal when their valuation,
    packed int, precision and prime are.  Immutable by convention, as
    :class:`~cuspsemi.semigroup.NumericalSemigroup` is.
    """

    def __init__(self, valuation: int, packed: int, layout: _Layout) -> None:
        precision = layout.precision
        if not 0 < valuation < precision:
            raise ValueError("need 0 < valuation < precision")
        if packed.bit_length() > (precision - valuation) * layout.bits:
            raise ValueError("coefficient count must equal precision - valuation")
        if (packed & layout.slot_mask) % layout.prime == 0:
            raise ValueError("leading coefficient must be nonzero")
        if not layout.is_reduced(packed):
            raise ValueError("coefficients must be reduced mod the prime")
        self.valuation = valuation
        self.packed = packed
        self.precision = precision
        self.prime = layout.prime
        self._layout = layout

    def _key(self) -> tuple[int, int, int, int]:
        return self.valuation, self.packed, self.precision, self.prime

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "TruncatedSeries(valuation={}, packed={}, precision={}, prime={})".format(*self._key())

    # perfbench/tracer.py reads this name; it goes with ROADMAP item 5's tracer change
    @cached_property
    def coefficients(self) -> tuple[int, ...]:
        return tuple(self._layout.unpack(self.packed, self.precision - self.valuation))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.precision != other.precision or self.prime != other.prime:
            raise ValueError("series must share precision and prime")
        v = self.valuation + other.valuation
        if v >= self.precision:
            raise PrecisionTooSmallError(
                f"product valuation {v} is at or beyond precision {self.precision}"
            )
        # both operands truncate to the n slots the product keeps; an exact
        # product slot is below n * p**2 and never carries
        layout = self._layout
        low = (1 << (self.precision - v) * layout.bits) - 1
        product = (self.packed & low) * (other.packed & low) & low
        return TruncatedSeries(v, layout.reduce(product), layout)


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
    """Leading coefficient 1, the higher ones drawn from ``rng`` in degree order and packed."""
    layout = _layout_of(prime, precision)
    coeffs = [1] + [rng.randrange(prime) for _ in range(precision - valuation - 1)]
    return TruncatedSeries(valuation, layout.pack(coeffs), layout)


def _draw_base(orders: Sequence[int], precision: int, prime: int, seed: int) -> list[TruncatedSeries]:
    """The coordinate series of instance ``seed``: coordinate i from the stream seeded by "seed/i".

    A string seed is hashed with SHA-512, so the streams are the same in every
    process and distinct for each (seed, i); coefficients are drawn in degree
    order, so a longer horizon only appends to each series.
    """
    return [_draw_series(random.Random(f"{seed}/{i}"), r, precision, prime) for i, r in enumerate(orders)]


def _exponents_below(orders: tuple[int, ...], precision: int) -> list[tuple[int, tuple[int, ...]]]:
    """(weighted degree, exponents) of the nonzero exponent tuples below ``precision``, sorted."""
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
    return found


def _insert_row(pivots: dict[int, tuple[int, int]], series: TruncatedSeries) -> int | None:
    """Reduce a series' row against the pivot rows; record a new pivot at its leading degree.

    Returns the new pivot degree, or None when the row reduces to zero below
    the horizon.

    Rows and pivots are packed ints in the series' layout, the lowest slot
    holding the leading degree.  A pivot is stored as (row, inverse): the row
    covers [degree, precision) with reduced slots, and the inverse is that of
    its leading slot mod p.  One reduction is ``row += s * pivot`` with the
    scalar s = (p - c) * inverse mod p, below p, so it adds less than p**2 to
    each slot.  Row slots stay unreduced; a row meets at most one pivot per
    degree, so each slot stays below (precision + 1) * p**2 and never carries
    into the next one.  A new pivot is the row reduced once.

    A reduction must leave the lowest slot at 0 mod p, and the row must be
    zero once its degree reaches the precision; a slot that overflowed breaks
    one or the other and raises :class:`AchievedSetError`, so the loop runs at
    most 2 * (precision - valuation) + 1 times.
    """
    layout = series._layout
    prime = layout.prime
    bits = layout.bits
    mask = layout.slot_mask
    precision = layout.precision
    row = series.packed
    degree = series.valuation
    while row:
        if degree >= precision:
            raise AchievedSetError(f"echelon row overflowed past the precision horizon {precision}")
        c = (row & mask) % prime
        if c:
            entry = pivots.get(degree)
            if entry is None:
                pivots[degree] = (layout.reduce(row), pow(c, -1, prime))
                return degree
            pivot, inverse = entry
            row += (prime - c) * inverse % prime * pivot
            if (row & mask) % prime:
                raise AchievedSetError(f"echelon reduction left degree {degree} nonzero: a slot overflowed")
        row >>= bits
        degree += 1
    return None


def _achieved_bits(achieved: Sequence[int]) -> int:
    """Bitmask with bit x set for each x in ``achieved``."""
    bits = 0
    for x in achieved:
        bits |= 1 << x
    return bits


# perfbench/tracer.py reads this name; it goes with ROADMAP item 5's tracer change
def detect_conductor(achieved: Sequence[int], run_length: int) -> int | None:
    """Start of the first run of ``run_length`` consecutive values, if present."""
    return _first_run_start(_achieved_bits(achieved), run_length)


def value_semigroup(
    profile: RamificationProfile | Sequence[int],
    precision: int,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
) -> tuple[int, ...]:
    """The achieved valuations below the degree where they are settled and hold a run of r1.

    The monomials in the coordinate series are inserted as coefficient rows in
    increasing weighted degree; the pivot degrees of the echelon form, together
    with 0, are exactly the valuations achieved by the algebra.  A row of
    degree D only makes pivots at D or above, so once every monomial below D
    is in, the achieved set below D is final.  The echelon stops at the first
    such D below which the achieved set holds a run of r1 consecutive values,
    which starts at the conductor, and returns the achieved set below D; rows
    at D and above are neither multiplied out nor reduced.  Raises
    :class:`PrecisionTooSmallError` when no such D fits below ``precision``,
    since the conductor is then not captured.
    """
    prof = RamificationProfile.of(profile)
    orders = prof.orders
    _check_prime(prime)
    if precision <= orders[-1]:
        raise PrecisionTooSmallError("precision must exceed every order in the profile")

    base = _draw_base(orders, precision, prime, seed)

    memo: dict[tuple[int, ...], TruncatedSeries] = {}
    for i in range(len(orders)):
        unit = tuple(1 if j == i else 0 for j in range(len(orders)))
        memo[unit] = base[i]

    r1 = orders[0]
    pivots: dict[int, tuple[int, int]] = {}
    achieved = 1  # bit x set for each achieved valuation x, 0 included
    settled = 0  # every row below this degree is in
    for degree, exp in _exponents_below(orders, precision):
        if degree > settled:
            if _first_run_start(achieved & ((1 << degree) - 1), r1) is not None:
                break
            settled = degree
        series = memo.get(exp)
        if series is None:
            j = next(idx for idx, e in enumerate(exp) if e)
            parent = exp[:j] + (exp[j] - 1,) + exp[j + 1 :]
            series = memo[parent] * base[j]
            memo[exp] = series
        pivot = _insert_row(pivots, series)
        if pivot is not None:
            achieved |= 1 << pivot
    else:
        degree = precision
        if _first_run_start(achieved, r1) is None:
            raise PrecisionTooSmallError(
                f"no run of {r1} consecutive achieved valuations below {precision}"
            )
    return (0, *sorted(d for d in pivots if d < degree))


def start_precision(profile: RamificationProfile | Sequence[int]) -> int:
    """Initial precision horizon: the conductor scale of the profile's monoid plus r1 + d.

    For orders with gcd d, the scale is d times the conductor c0 of the
    reduced semigroup generated by orders/d.  For d = 1 the start c0 + r1 + 1
    always captures the conductor: the monoid lies inside the value semigroup,
    so the conductor is at most c0 and its run of r1 values lies below
    c0 + r1, a monomial degree, where the echelon stops at the latest.  For
    d > 1 it is an estimate, and :func:`capture_conductors` retries when it
    falls short.
    The horizon also exceeds twice the largest order.
    """
    orders = RamificationProfile.of(profile).orders
    d = 0
    for r in orders:
        d = gcd(d, r)
    reduced = NumericalSemigroup(r // d for r in orders)
    return max(d * (reduced.frobenius + 1) + orders[0] + d, 2 * orders[-1] + 2)


def _horizon_at_least(orders: tuple[int, ...], bound: int) -> int:
    """The least monomial degree at or above ``bound`` and above the largest order.

    An instance whose conductor is at most bound - r1 stops by this degree, and
    :func:`value_semigroup` returns the same tuple at every horizon from its
    stop degree on.  A monomial degree plus r1 is another, so one lies below
    bound + r1.
    """
    bound = max(bound, orders[-1] + 1)
    return min(d for d, _ in _exponents_below(orders, bound + orders[0]) if d >= bound)


def capture_conductors(
    profile: RamificationProfile | Sequence[int],
    seeds: Sequence[int],
    prime: int = DEFAULT_PRIME,
) -> list[NumericalSemigroup]:
    """The value semigroup of each seed's instance.

    This is the only place that chooses the precision horizon.  The first seed
    starts at :func:`start_precision`, every later one at the first seed's stop
    degree.  A horizon that falls short is followed by one half as long again,
    but no shorter than :func:`start_precision`; at most ``_HORIZON_ATTEMPTS``
    horizons per seed.  A seed draws one instance at every
    horizon, so the semigroup it returns does not depend on the horizon that
    captured it.
    The achieved set must hold every value from the conductor it shows through
    its last value, and the members below the conductor must be closed under
    addition: the semigroup generated by them and the r1 values from the
    conductor has no other member below it.
    """
    prof = RamificationProfile.of(profile)
    orders = prof.orders
    r1 = orders[0]
    first = start = start_precision(prof)
    results: list[NumericalSemigroup] = []
    for seed in seeds:
        precision = start
        for _ in range(_HORIZON_ATTEMPTS):
            try:
                achieved = value_semigroup(prof, precision, prime, seed)
                break
            except PrecisionTooSmallError:
                precision = max(precision + precision // 2, first)
        else:
            raise PrecisionTooSmallError(
                f"conductor not captured for {orders} after {_HORIZON_ATTEMPTS} horizons"
            )
        bits = _achieved_bits(achieved)
        conductor = _first_run_start(bits, r1)
        if conductor is None:
            raise AchievedSetError(f"achieved set has no run of {r1} consecutive values")
        above = (1 << (achieved[-1] + 1 - conductor)) - 1
        if (bits >> conductor) & above != above:
            raise AchievedSetError("achieved set is not closed above its conductor")
        if not bits & 1:
            raise AchievedSetError("achieved set must contain 0")
        below = [x for x in achieved if x < conductor]
        semigroup = NumericalSemigroup(below[1:] + list(range(conductor, conductor + r1)))
        if semigroup.member_count_below(conductor) != len(below):
            raise AchievedSetError("achieved set is not additively closed")
        if not results:
            start = _horizon_at_least(orders, conductor + r1)
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
        raise AchievedSetError("achieved set must contain every profile order")
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

    # a shifted sum in the series' layout: every term adds below p**2 to a
    # slot, so reducing after each ``precision`` terms keeps slots in range
    layout = series_list[0]._layout
    base = min(s.valuation for s in series_list)
    acc = 0
    for k, (s, a) in enumerate(zip(series_list, coeffs), 1):
        acc += a * s.packed << (s.valuation - base) * layout.bits
        if k % precision == 0:
            acc = layout.reduce(acc)
    acc = layout.reduce(acc)
    if not acc:
        return None
    return base + ((acc & -acc).bit_length() - 1) // layout.bits
