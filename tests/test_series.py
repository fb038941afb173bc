import random

import pytest

from cuspsemi import series
from cuspsemi.semigroup import NumericalSemigroup
from cuspsemi.series import (
    DEFAULT_PRIME,
    PrecisionTooSmallError,
    RamificationProfile,
    TruncatedSeries,
    combination_valuation_probe,
    empirical_generic_semigroup,
    random_series,
    start_precision,
    value_semigroup,
)

BIG_PRIME = 18446744073709551557  # the largest prime below 2**64
PRIMES = (2**31 - 1, 2**61 - 1, BIG_PRIME)


def schoolbook_product(f, g):
    """Reference product: one multiply per pair of coefficients, truncated at the horizon."""
    p, v = f.prime, f.valuation + g.valuation
    n = f.precision - v
    out = [0] * n
    for i, ai in enumerate(f.coefficients[:n]):
        for j, bj in enumerate(g.coefficients[: n - i]):
            out[i + j] += ai * bj
    return TruncatedSeries(v, tuple(x % p for x in out), f.precision, p)


def reduce_row_by_lists(pivots, valuation, coeffs, prime):
    """Reference echelon insertion on coefficient lists; mirrors ``series._insert_row``."""
    coeffs = list(coeffs)
    i = 0
    while True:
        while i < len(coeffs) and coeffs[i] == 0:
            i += 1
        if i == len(coeffs):
            return None
        degree = valuation + i
        pivot = pivots.get(degree)
        if pivot is None:
            inv = pow(coeffs[i], -1, prime)
            pivots[degree] = [inv * x % prime for x in coeffs[i:]]
            return degree
        f = coeffs[i]
        for k, pk in enumerate(pivot):
            coeffs[i + k] = (coeffs[i + k] - f * pk) % prime


def replay_rows(rows, prime):
    """Insert ``rows`` by both routes; return (degrees, pivot lists) of each."""
    packed, lists = {}, {}
    got = [series._insert_row(packed, v, c, prime) for v, c in rows]
    want = [reduce_row_by_lists(lists, v, c, prime) for v, c in rows]
    precision = rows[0][0] + len(rows[0][1])
    width = series._row_width(prime, precision)
    unpacked = {d: series._unpack(row, width, precision - d, prime) for d, row in packed.items()}
    return (got, unpacked), (want, lists)


def test_profile_validation():
    p = RamificationProfile.of((8, 10, 12))
    assert p.orders == (8, 10, 12)
    assert len(p) == 3
    with pytest.raises(ValueError):
        RamificationProfile.of((8,))  # need at least two orders
    with pytest.raises(ValueError):
        RamificationProfile.of((1, 5))  # smallest order must be >= 2
    with pytest.raises(ValueError):
        RamificationProfile.of((8, 8, 10))  # strictly increasing


def test_truncated_series_multiplication():
    # (t^2 + t^3) * (t^3 + 2 t^4) = t^5 + 3 t^6 + 2 t^7
    p = 2**31 - 1
    f = TruncatedSeries(2, (1, 1, 0, 0, 0, 0), 8, p)
    g = TruncatedSeries(3, (1, 2, 0, 0, 0), 8, p)
    h = f * g
    assert h.valuation == 5
    assert h.coefficients == (1, 3, 2)
    assert h.precision == 8


def test_series_draw_is_seeded():
    a = random_series(4, 40, DEFAULT_PRIME, seed=7)
    b = random_series(4, 40, DEFAULT_PRIME, seed=7)
    c = random_series(4, 40, DEFAULT_PRIME, seed=8)
    assert a == b
    assert a != c
    assert a.coefficients[0] == 1  # monic normalization


def test_value_semigroup_two_generator_profile():
    achieved = value_semigroup((2, 3), 16)
    assert achieved[:8] == (0, 2, 3, 4, 5, 6, 7, 8)


def test_value_semigroup_rejects_small_prime():
    with pytest.raises(ValueError):
        value_semigroup((2, 3), 16, prime=97)


def test_primality_check_matches_trial_division():
    def by_trial_division(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(38, 20000):
        assert series._is_prime(n) == by_trial_division(n), n
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the primes up to 23
    assert not series._is_prime(3215031751)
    assert not series._is_prime(3825123056546413051)
    assert series._is_prime((1 << 61) - 1)


@pytest.mark.parametrize("modulus", [4294967297, 2147483648, 1 << 64, (1 << 89) - 1])
def test_random_series_and_value_semigroup_reject_unchecked_moduli(modulus):
    with pytest.raises(ValueError, match="prime"):
        random_series(2, 16, prime=modulus)
    with pytest.raises(ValueError, match="prime"):
        value_semigroup((2, 3), 16, prime=modulus)


def test_value_semigroup_precision_guard():
    with pytest.raises(PrecisionTooSmallError):
        value_semigroup((8, 10, 12), 10)


def test_start_precision_covers_common_factor_profiles():
    # all-even profiles never reach a run of consecutive values at the
    # monomial level; the schedule scales the gcd-1 quotient conductor
    assert start_precision(RamificationProfile.of((8, 10, 12))) >= 26
    assert start_precision(RamificationProfile.of((2, 3))) >= 6


def test_empirical_semigroup_smallest_cusp():
    emp = empirical_generic_semigroup((2, 3))
    assert emp.conductor == 2
    assert emp.genus == 1
    assert emp.gaps() == [1]
    assert emp.contains(0)
    assert not emp.contains(1)
    assert emp.contains(999)


def test_empirical_semigroup_supersym_profile():
    emp = empirical_generic_semigroup((8, 10, 12))
    assert emp.conductor == 28
    assert emp.genus == 16
    assert emp.contains(21)
    assert emp.contains(25)


def test_empirical_semigroup_is_the_generated_semigroup():
    emp = empirical_generic_semigroup((8, 10, 12))
    assert emp == NumericalSemigroup((8, 10, 12, 21, 25))


def test_empirical_agreement_across_seed_banks():
    a = empirical_generic_semigroup((8, 10, 12), base_seed=0)
    b = empirical_generic_semigroup((8, 10, 12), base_seed=100)
    assert a == b


def test_empirical_gap_closure():
    emp = empirical_generic_semigroup((12, 14, 16))
    members = [x for x in range(emp.conductor) if emp.contains(x)]
    for x in members:
        for y in members:
            assert emp.contains(x + y)


def test_combination_valuation_probe():
    rng = random.Random(3)
    prec = 40
    fs = [series._draw_series(rng, v, prec, DEFAULT_PRIME) for v in (5, 9, 11)]
    v = combination_valuation_probe(fs, (1, 1, 1))
    assert v is not None
    assert v >= 5
    # generic coefficients cannot push the valuation past min + N - 1
    assert v <= 5 + 3 - 1


def test_combination_probe_validates_inputs():
    f = random_series(2, 20, DEFAULT_PRIME, seed=0)
    g = random_series(3, 30, DEFAULT_PRIME, seed=1)
    with pytest.raises(ValueError):
        combination_valuation_probe([f, g], (1, 1))  # mismatched precision
    h = random_series(3, 20, DEFAULT_PRIME, seed=1)
    with pytest.raises(ValueError):
        combination_valuation_probe([f, h], (1, 0))  # zero coefficient


def test_probe_detects_forced_cancellation():
    # two copies of the same series with opposite signs vanish entirely
    f = random_series(4, 24, DEFAULT_PRIME, seed=5)
    assert combination_valuation_probe([f, f], (1, DEFAULT_PRIME - 1)) is None


def _sparse_series(rng, valuation, precision, prime):
    coeffs = [rng.randrange(1, prime)] + [
        rng.randrange(prime) if rng.random() < 0.6 else 0 for _ in range(precision - valuation - 1)
    ]
    return TruncatedSeries(valuation, tuple(coeffs), precision, prime)


@pytest.mark.parametrize("prime", PRIMES)
def test_kronecker_product_matches_schoolbook(prime):
    rng = random.Random(prime)
    for precision in (3, 4, 9, 40, 157):
        for _ in range(25):
            va = rng.randrange(1, precision - 1)
            vb = rng.randrange(1, precision - va)  # va + vb < precision
            f = _sparse_series(rng, va, precision, prime)
            g = _sparse_series(rng, vb, precision, prime)
            assert f * g == schoolbook_product(f, g)
            assert g * f == f * g
        # length-1 result: only the leading coefficients meet
        f = _sparse_series(rng, 1, precision, prime)
        g = _sparse_series(rng, precision - 2, precision, prime)
        h = f * g
        assert len(h.coefficients) == 1
        assert h == schoolbook_product(f, g)
        assert h.coefficients[0] == f.coefficients[0] * g.coefficients[0] % prime


def test_kronecker_product_worst_case_slots():
    # every exact coefficient (k + 1) * (p - 1)**2 fills its slot; one byte
    # less and slot 1 already carries into slot 2
    p, precision = BIG_PRIME, 43
    f = TruncatedSeries(1, (p - 1,) * (precision - 1), precision, p)
    g = TruncatedSeries(2, (p - 1,) * (precision - 2), precision, p)
    h = f * g
    assert h == schoolbook_product(f, g)
    assert h.coefficients == tuple((k + 1) % p for k in range(precision - 3))


@pytest.mark.parametrize("prime", PRIMES)
def test_packed_rows_match_list_reduction(monkeypatch, prime):
    rows = []
    insert = series._insert_row

    def record(pivots, valuation, coeffs, p):
        rows.append((valuation, tuple(coeffs)))
        return insert(pivots, valuation, coeffs, p)

    monkeypatch.setattr(series, "_insert_row", record)
    # the horizon capture_conductors reaches: start_precision, doubled once
    achieved = value_semigroup((8, 10, 12), 2 * start_precision((8, 10, 12)), prime, seed=0)
    monkeypatch.undo()

    (got, packed), (want, lists) = replay_rows(rows, prime)
    assert got == want
    assert sum(d is not None for d in got) < len(rows)  # some rows reduce to zero
    assert set(packed) == set(lists) == set(achieved) - {0}
    assert packed == lists


def test_packed_row_worst_case_slots():
    # pivots 1, p-1, ..., p-1 at every degree but the last three; the row
    # 1, 0, ..., 0 meets each of them with a multiplier near p, so the slots
    # of the final three degrees collect about precision * p**2.  One byte
    # less and they carry after the second reduction.
    p, precision = BIG_PRIME, 60
    rows = [(d, (1,) + (p - 1,) * (precision - d - 1)) for d in range(1, precision - 3)]
    rows.append((1, (1,) + (0,) * (precision - 2)))
    (got, packed), (want, lists) = replay_rows(rows, p)
    assert got == want
    assert got[-1] == precision - 3
    assert packed == lists
    # the same row against a pivot at every degree reduces to zero
    full = [(d, (1,) + (p - 1,) * (precision - d - 1)) for d in range(1, precision)]
    (got, _), (want, _) = replay_rows(full + rows[-1:], p)
    assert got == want
    assert got[-1] is None
