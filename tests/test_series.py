import itertools
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

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
    start_precision,
    value_semigroup,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
BIG_PRIME = 18446744073709551557  # the largest prime below 2**64
PRIMES = (2**31 - 1, 2**61 - 1, BIG_PRIME)


def build(valuation, coeffs, precision, prime):
    """The series with coefficients ``coeffs``, packed in the layout of its horizon."""
    layout = series._layout_of(prime, precision)
    return TruncatedSeries(valuation, layout.pack(coeffs), layout)


def terms(f):
    """What a series holds: its valuation and its packed coefficients."""
    return f.valuation, f.packed


def schoolbook_product(f, g):
    """Reference product: one multiply per pair of coefficients, truncated at the horizon."""
    p, v = f.prime, f.valuation + g.valuation
    n = f.precision - v
    out = [0] * n
    for i, ai in enumerate(f.coefficients[:n]):
        for j, bj in enumerate(g.coefficients[: n - i]):
            out[i + j] += ai * bj
    return build(v, [x % p for x in out], f.precision, p)


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
    """Insert the series ``rows`` by both routes; return (degrees, pivot lists) of each.

    A packed pivot is kept reduced with the inverse of its leading slot; it is
    unpacked and multiplied by that inverse, to the list route's leading 1.
    """
    packed, lists = {}, {}
    got = [series._insert_row(packed, s) for s in rows]
    want = [reduce_row_by_lists(lists, s.valuation, s.coefficients, prime) for s in rows]
    precision = rows[0].precision
    layout = series._layout_of(prime, precision)
    assert all(layout.is_reduced(row) for row, _ in packed.values())
    unpacked = {
        d: [inverse * x % prime for x in layout.unpack(row, precision - d)]
        for d, (row, inverse) in packed.items()
    }
    return (got, unpacked), (want, lists)


def monomial_rows(orders, precision, prime, seed):
    """Every monomial of the instance ``value_semigroup`` draws, below the horizon, in degree order.

    A brute-force enumeration over all exponent tuples, apart from the walk
    under test; each monomial is its parent times its first coordinate.
    """
    base = series._draw_base(orders, precision, prime, seed)
    exponents = itertools.product(*(range(-(-precision // r)) for r in orders))
    weighted = sorted((sum(e * r for e, r in zip(exp, orders)), exp) for exp in exponents)
    built = {}
    for degree, exp in weighted:
        if 0 < degree < precision:
            j = next(i for i, e in enumerate(exp) if e)
            parent = exp[:j] + (exp[j] - 1,) + exp[j + 1 :]
            built[exp] = built[parent] * base[j] if any(parent) else base[j]
    return list(built.values())


def test_profile_validation():
    p = RamificationProfile.of((8, 10, 12))
    assert p.orders == (8, 10, 12)
    with pytest.raises(ValueError):
        RamificationProfile.of((8,))  # need at least two orders
    with pytest.raises(ValueError):
        RamificationProfile.of((1, 5))  # smallest order must be >= 2
    with pytest.raises(ValueError):
        RamificationProfile.of((8, 8, 10))  # strictly increasing


def test_truncated_series_multiplication():
    # (t^2 + t^3) * (t^3 + 2 t^4) = t^5 + 3 t^6 + 2 t^7
    p = 2**31 - 1
    f = build(2, (1, 1, 0, 0, 0, 0), 8, p)
    g = build(3, (1, 2, 0, 0, 0), 8, p)
    h = f * g
    assert h.valuation == 5
    assert h.coefficients == (1, 3, 2)
    assert h.precision == 8


def test_series_draw_is_seeded():
    a = series._draw_series(random.Random(7), 4, 40, DEFAULT_PRIME)
    b = series._draw_series(random.Random(7), 4, 40, DEFAULT_PRIME)
    c = series._draw_series(random.Random(8), 4, 40, DEFAULT_PRIME)
    assert terms(a) == terms(b)
    assert terms(a) != terms(c)
    assert a.coefficients[0] == 1  # monic normalization


def test_value_semigroup_two_generator_profile():
    # the rows of degree 2 and 3 settle {0, 2, 3}, whose run 2, 3 is the
    # conductor's; the echelon stops before degree 4
    assert value_semigroup((2, 3), 16) == (0, 2, 3)


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
        empirical_generic_semigroup((2, 3), prime=modulus)
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
    f = series._draw_series(random.Random(0), 2, 20, DEFAULT_PRIME)
    g = series._draw_series(random.Random(1), 3, 30, DEFAULT_PRIME)
    with pytest.raises(ValueError):
        combination_valuation_probe([f, g], (1, 1))  # mismatched precision
    h = series._draw_series(random.Random(1), 3, 20, DEFAULT_PRIME)
    with pytest.raises(ValueError):
        combination_valuation_probe([f, h], (1, 0))  # zero coefficient


def test_probe_detects_forced_cancellation():
    # two copies of the same series with opposite signs vanish entirely
    f = series._draw_series(random.Random(5), 4, 24, DEFAULT_PRIME)
    assert combination_valuation_probe([f, f], (1, DEFAULT_PRIME - 1)) is None


def _sparse_series(rng, valuation, precision, prime):
    coeffs = [rng.randrange(1, prime)] + [
        rng.randrange(prime) if rng.random() < 0.6 else 0 for _ in range(precision - valuation - 1)
    ]
    return build(valuation, coeffs, precision, prime)


@pytest.mark.parametrize("prime", PRIMES)
def test_kronecker_product_matches_schoolbook(prime):
    rng = random.Random(prime)
    for precision in (3, 4, 9, 40, 157):
        for _ in range(25):
            va = rng.randrange(1, precision - 1)
            vb = rng.randrange(1, precision - va)  # va + vb < precision
            f = _sparse_series(rng, va, precision, prime)
            g = _sparse_series(rng, vb, precision, prime)
            assert terms(f * g) == terms(schoolbook_product(f, g))
            assert terms(g * f) == terms(f * g)
        # length-1 result: only the leading coefficients meet
        f = _sparse_series(rng, 1, precision, prime)
        g = _sparse_series(rng, precision - 2, precision, prime)
        h = f * g
        assert len(h.coefficients) == 1
        assert terms(h) == terms(schoolbook_product(f, g))
        assert h.coefficients[0] == f.coefficients[0] * g.coefficients[0] % prime


def test_kronecker_product_worst_case_slots():
    # every exact coefficient (k + 1) * (p - 1)**2 lies near the top of the
    # reduction's range, where the Barrett product needs the whole slot; one
    # byte less and it carries into the next slot
    p, precision = BIG_PRIME, 43
    f = build(1, (p - 1,) * (precision - 1), precision, p)
    g = build(2, (p - 1,) * (precision - 2), precision, p)
    h = f * g
    assert terms(h) == terms(schoolbook_product(f, g))
    assert h.coefficients == tuple((k + 1) % p for k in range(precision - 3))


@pytest.mark.parametrize("prime", PRIMES)
def test_packed_rows_match_list_reduction(prime):
    # every monomial below twice start_precision: far past the early stop,
    # so that some rows reduce to zero
    orders = (8, 10, 12)
    precision = 2 * start_precision(orders)
    rows = monomial_rows(orders, precision, prime, seed=0)
    (got, packed), (want, lists) = replay_rows(rows, prime)
    assert got == want
    assert sum(d is not None for d in got) < len(rows)  # some rows reduce to zero
    assert set(packed) == set(lists)
    assert packed == lists
    achieved = value_semigroup(orders, precision, prime, seed=0)
    assert set(achieved) - {0} == {d for d in packed if d <= achieved[-1]}


def record_horizons(monkeypatch):
    """Patch ``series.value_semigroup`` to log (horizon, captured) per call; return the log."""
    drawn = series.value_semigroup
    tried = []

    def record(profile, precision, prime=DEFAULT_PRIME, seed=0):
        try:
            achieved = drawn(profile, precision, prime, seed)
        except PrecisionTooSmallError:
            tried.append((precision, False))
            raise
        tried.append((precision, True))
        return achieved

    monkeypatch.setattr(series, "value_semigroup", record)
    return tried


def full_echelon_stop(orders, precision, prime, seed):
    """The full-horizon achieved set below the first row degree where it holds a run of r1.

    None when no row degree, nor the horizon, has such a run below it.
    """
    rows = monomial_rows(orders, precision, prime, seed)
    pivots = {}
    achieved = {0} | {d for d in (series._insert_row(pivots, row) for row in rows) if d is not None}
    for stop in sorted({row.valuation for row in rows} | {precision}):
        below = sorted(x for x in achieved if x < stop)
        if series.detect_conductor(below, orders[0]) is not None:
            return tuple(below)
    return None


@pytest.mark.parametrize(
    "orders",
    [(2 * l, 2 * l + 2, 2 * l + 4) for l in range(4, 11)]
    + [(3 * l, 3 * l + 3, 3 * l + 6) for l in range(6, 9)]
    + [(32, 36, 40), (5, 7), (6, 9, 10, 15), (12, 15, 20)],
    ids=lambda orders: "-".join(map(str, orders)),
)
def test_early_stop_matches_the_full_horizon_echelon(monkeypatch, orders):
    # the horizons capture_conductors tries, each against the oracle that
    # inserts every monomial below the horizon: start_precision for the first
    # seed, its conductor + r1 (at least r_n + 1) for the second, and after a
    # short horizon a step of 3/2 to no less than start_precision
    tried = record_horizons(monkeypatch)
    r1 = orders[0]
    for prime in (2**31 - 1, BIG_PRIME):
        walked = []
        first = precision = start_precision(orders)
        for seed in (0, 1):
            while True:
                walked.append(precision)
                want = full_echelon_stop(orders, precision, prime, seed)
                if want is not None:
                    break
                with pytest.raises(PrecisionTooSmallError):
                    value_semigroup(orders, precision, prime, seed)
                precision = max(precision + precision // 2, first)
            assert value_semigroup(orders, precision, prime, seed) == want
            precision = max(series.detect_conductor(want, r1) + r1, orders[-1] + 1)
        tried.clear()
        series.capture_conductors(orders, [0, 1], prime)
        assert [h for h, _ in tried] == walked


def test_early_stop_inserts_85_rows_at_l_14(monkeypatch):
    # 518 rows reach the full horizon; the stop leaves 85, and 82 products,
    # one per row but the three coordinates: none at or above the stop degree
    rows = []
    products = []
    insert = series._insert_row
    multiply = TruncatedSeries.__mul__

    def record(pivots, row):
        rows.append(row)
        return insert(pivots, row)

    def record_product(f, g):
        products.append(f.valuation + g.valuation)
        return multiply(f, g)

    monkeypatch.setattr(series, "_insert_row", record)
    monkeypatch.setattr(TruncatedSeries, "__mul__", record_product)
    orders = (28, 30, 32)
    value_semigroup(orders, start_precision(orders), seed=0)
    assert len(rows) == 85
    assert len(products) == 82
    assert max(products) < 200  # the stop degree, conductor 172 + 28



@pytest.mark.parametrize("where", ["leading slot", "top slot"])
def test_insert_row_raises_on_an_overflowed_pivot(where):
    # a slot that carried into its neighbour once made the loop spin forever
    precision, valuation = 12, 3
    f = series._draw_series(random.Random(5), valuation, precision, DEFAULT_PRIME)
    layout = f._layout
    pivots = {}
    assert series._insert_row(pivots, f) == valuation
    pivot, inverse = pivots[valuation]
    if where == "leading slot":  # it reads 0 and the next slot 1 more
        pivot += (1 << layout.bits) - (pivot & layout.slot_mask)
    else:  # it spills past the horizon
        pivot += 1 << (precision - valuation) * layout.bits
    pivots[valuation] = (pivot, inverse)

    def too_slow(signum, frame):
        raise TimeoutError("_insert_row ran for a second")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(series.AchievedSetError):
            series._insert_row(pivots, f)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

def _tag(orders):
    return "-".join(map(str, orders))


@pytest.mark.parametrize(
    "orders", [(8, 10, 12), (28, 30, 32), (18, 21, 24), (12, 15, 20)], ids=_tag
)
def test_draws_and_semigroups_do_not_depend_on_the_horizon(monkeypatch, orders):
    drawn = series.value_semigroup
    tried = []

    def record(*args):
        tried.append(args[1])
        return drawn(*args)

    monkeypatch.setattr(series, "value_semigroup", record)
    r1 = orders[0]
    for seed in (0, 1):
        short_horizon = start_precision(orders)
        short = series._draw_base(orders, short_horizon, DEFAULT_PRIME, seed)
        long = series._draw_base(orders, 3 * short_horizon, DEFAULT_PRIME, seed)
        for f, g in zip(short, long, strict=True):
            assert f.valuation == g.valuation
            assert f.coefficients == g.coefficients[: short_horizon - f.valuation]

        tried.clear()
        (captured,) = series.capture_conductors(orders, [seed])
        achieved = drawn(orders, 2 * tried[-1], DEFAULT_PRIME, seed)
        assert achieved == drawn(orders, tried[-1], DEFAULT_PRIME, seed)
        conductor = series.detect_conductor(achieved, r1)
        below = [x for x in achieved[1:] if x < conductor]
        assert captured == NumericalSemigroup(below + list(range(conductor, conductor + r1)))


def test_coordinate_streams_are_distinct_and_fixed_across_processes():
    orders, precision = (12, 15, 20), 40
    firsts = [
        f.coefficients[1]
        for seed in (0, 1, 2)
        for f in series._draw_base(orders, precision, DEFAULT_PRIME, seed)
    ]
    assert len(set(firsts)) == len(firsts)
    script = (
        "from cuspsemi import series; "
        f"print([f.coefficients[1] for seed in (0, 1, 2) "
        f"for f in series._draw_base({orders}, {precision}, {DEFAULT_PRIME}, seed)])"
    )
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == f"{firsts}\n"


@pytest.mark.parametrize(
    "orders", [(5, 7), (6, 9, 10, 15), (7, 9, 11), (12, 15, 20), (15, 21, 35)], ids=_tag
)
def test_gcd_one_profiles_capture_at_the_start(orders):
    # the monoid's conductor c0 bounds the stop degree by c0 + r1
    start = start_precision(orders)
    assert start > NumericalSemigroup(orders).conductor + orders[0]
    for seed in range(4):
        assert value_semigroup(orders, start, seed=seed)


def least_monomial_degree(orders, bound):
    """The least sum of orders at or above ``bound`` and above the largest order, from a table of sums."""
    sums, degree = {0}, 0
    while True:
        degree += 1
        if any(degree - r in sums for r in orders):
            sums.add(degree)
            if degree >= bound and degree > orders[-1]:
                return degree


@pytest.mark.parametrize(
    "orders, horizons",
    [((28, 30, 32), [226, 200, 200]), ((2, 3, 4), [10, 5, 5])],
    ids=["28-30-32", "2-3-4"],
)
def test_later_seeds_start_at_the_first_seeds_stop_degree(monkeypatch, orders, horizons):
    # (28, 30, 32): seed 0 stops at 200 = 5 * 28 + 2 * 30, its conductor + 28.
    # (2, 3, 4): conductor + r1 = 4 is r3, and a horizon must exceed every
    # order.  Later seeds start at conductor + r1, at least r_n + 1, which here
    # is the stop degree; they have the same semigroup and are captured at once.
    tried = record_horizons(monkeypatch)
    first, *later = series.capture_conductors(orders, range(3))
    assert tried == [(h, True) for h in horizons]
    assert horizons[0] == start_precision(orders)
    assert max(first.conductor + orders[0], orders[-1] + 1) == horizons[1]
    assert least_monomial_degree(orders, first.conductor + orders[0]) == horizons[1]
    assert later == [first, first]


@pytest.mark.parametrize("l", range(4, 11))
def test_short_first_horizon_takes_one_step_of_three_halves(monkeypatch, l):
    # the m = 2 profiles have gcd 2, so start_precision is an estimate; it
    # falls short for seed 0, one step of 3/2 captures it, and seeds 1 and 2
    # are captured at seed 0's conductor + r1
    tried = record_horizons(monkeypatch)
    orders = (2 * l, 2 * l + 2, 2 * l + 4)
    start = start_precision(orders)
    first, *later = series.capture_conductors(orders, range(3))
    later_start = first.conductor + orders[0]
    assert tried == [(start, False), (start + start // 2, True)] + [(later_start, True)] * 2
    assert later == [first, first]


def test_later_seeds_of_2_4_6_start_at_r3_plus_one(monkeypatch):
    # seed 0 is <2, 5>: conductor 4, stop degree 6.  Later seeds start at
    # r3 + 1 = 7 rather than at 8, the next monomial degree; no monomial
    # degree lies between, so 7 inserts the rows that 8 does
    orders = (2, 4, 6)
    tried = record_horizons(monkeypatch)
    assert series.capture_conductors(orders, range(3)) == [NumericalSemigroup((2, 5))] * 3
    assert tried == [(start_precision(orders), True), (7, True), (7, True)]

    rows = []
    insert = series._insert_row

    def record(pivots, row):
        rows.append(row)
        return insert(pivots, row)

    monkeypatch.setattr(series, "_insert_row", record)
    for seed in (1, 2):
        achieved = {}
        inserted = {}
        for horizon in (7, 8):
            rows.clear()
            achieved[horizon] = value_semigroup(orders, horizon, seed=seed)
            inserted[horizon] = [(row.valuation, row.coefficients) for row in rows]
        assert achieved[7] == achieved[8] == (0, 2, 4, 5)
        assert [v for v, _ in inserted[7]] == [v for v, _ in inserted[8]]
        assert all(short == long[:-1] for (_, short), (_, long) in zip(inserted[7], inserted[8]))


def test_later_seed_short_at_the_stop_degree_keeps_its_own_semigroup(monkeypatch):
    # profile (6, 9), whose monomial degrees are the multiples of 3 but 3.
    # Seeds 0 and 2 are the instance <6, 9, 11>, conductor 26, stop degree 33;
    # seed 1 is <6, 9, 14>, conductor 32, stop degree 39.  Seed 0 is short at
    # start_precision 20 and at 30 and captured at 45; later seeds start at
    # 26 + 6 = 32, where seed 1 is short, and it is captured at 48
    instances = {0: (6, 9, 11), 1: (6, 9, 14), 2: (6, 9, 11)}
    tried = []

    def instance(profile, precision, prime=DEFAULT_PRIME, seed=0):
        # the echelon's contract: the values below the stop degree or the
        # horizon, short while they hold no run of r1
        semigroup = NumericalSemigroup(instances[seed])
        stop = least_monomial_degree((6, 9), semigroup.conductor + 6)
        values = tuple(x for x in range(min(precision, stop)) if semigroup.contains(x))
        tried.append((seed, precision))
        if series.detect_conductor(values, 6) is None:
            raise PrecisionTooSmallError("short")
        return values

    monkeypatch.setattr(series, "value_semigroup", instance)
    got = series.capture_conductors((6, 9), range(3))
    assert got == [NumericalSemigroup(instances[seed]) for seed in range(3)]
    assert tried == [(0, 20), (0, 30), (0, 45), (1, 32), (1, 48), (2, 32)]
    with pytest.raises(series.SeedDisagreementError):
        empirical_generic_semigroup((6, 9))


def test_later_seed_ladder_keeps_to_the_first_seeds(monkeypatch):
    # a stub seed 0 of (28, 30, 32) with conductor 28 stops at 56 = 2 * 28,
    # far below start_precision 226.  A later seed never captured starts at 56
    # and steps by 3/2 to no less than 226, so each of its horizons is at
    # least the one before it on seed 0's ladder
    orders = (28, 30, 32)
    tried = []

    def only_seed_zero(profile, precision, prime=DEFAULT_PRIME, seed=0):
        tried.append(precision)
        if seed == 0:
            return (0, *range(28, 56))
        raise PrecisionTooSmallError("stub")

    monkeypatch.setattr(series, "value_semigroup", only_seed_zero)
    with pytest.raises(PrecisionTooSmallError):
        series.capture_conductors(orders, [0, 1])
    ladder = [start_precision(orders)]
    while len(ladder) < series._HORIZON_ATTEMPTS:
        ladder.append(ladder[-1] + ladder[-1] // 2)
    first, *later = tried
    assert first == ladder[0] == 226
    assert later[:3] == [56, 226, 339]
    assert len(later) == series._HORIZON_ATTEMPTS
    assert all(h >= ladder[k - 1] for k, h in enumerate(later) if k)
    frobenius = NumericalSemigroup((14, 15, 16)).frobenius
    assert later[-1] >= (2 * 2 * (frobenius + 1) + 2) * 128


def test_packed_row_worst_case_slots():
    # pivots 1, p-1, ..., p-1 at every degree but the last three; the row
    # 1, 0, ..., 0 meets each of them with a multiplier near p, so the slots
    # of the final three degrees collect about precision * p**2.  One byte
    # less and the Barrett step that makes the new pivot carries.
    p, precision = BIG_PRIME, 60
    def pivot_row(d):
        return build(d, (1,) + (p - 1,) * (precision - d - 1), precision, p)

    rows = [pivot_row(d) for d in range(1, precision - 3)]
    rows.append(build(1, (1,) + (0,) * (precision - 2), precision, p))
    (got, packed), (want, lists) = replay_rows(rows, p)
    assert got == want
    assert got[-1] == precision - 3
    assert packed == lists
    # the same row against a pivot at every degree reduces to zero
    full = [pivot_row(d) for d in range(1, precision)]
    (got, _), (want, _) = replay_rows(full + rows[-1:], p)
    assert got == want
    assert got[-1] is None


def reduction_edges(prime, precision):
    """Slot values at the ends of the reduction's range and of each Barrett correction."""
    p = prime
    return [0, p - 1, p, 2 * p, 3 * p - 1, p * p, (precision + 1) * p * p - 1]


@pytest.mark.parametrize("prime", PRIMES)
def test_slotwise_reduction_matches_mod(prime):
    rng = random.Random(prime + 1)
    for precision in (3, 4, 9, 40, 157, 394, 1000):
        layout = series._layout_of(prime, precision)
        edges = reduction_edges(prime, precision)
        top = (precision + 1) * prime**2
        vectors = [[e] * precision for e in edges]
        for _ in range(20):
            count = rng.randint(1, precision)
            vectors.append([rng.choice(edges) if rng.random() < 0.3 else rng.randrange(top) for _ in range(count)])
        for xs in vectors:
            packed = layout.pack(xs)
            reduced = layout.reduce(packed)
            assert layout.unpack(reduced, len(xs)) == [x % prime for x in xs]
            assert layout.is_reduced(reduced)
            assert layout.is_reduced(packed) == all(x < prime for x in xs)


@pytest.mark.parametrize(
    "prime, precision",
    [(2**31 + 11, 3), (2**31 + 11, 40), (2**63 + 29, 3), (2**63 + 29, 40), (2**32 - 5789, 1022)],
)
def test_slotwise_reduction_at_the_top_of_its_range(prime, precision):
    # the Barrett quotient falls furthest short of x // p for slots near
    # (precision + 1) * p**2 whose low b - 1 bits are all set: by 2 for a
    # prime just above a power of two, so both conditional subtractions are
    # needed, and by 3 if mu were one smaller for a prime whose
    # 2**(2b + L) / p has a fractional part near 1, as 2**32 - 5789 at 1022
    b = prime.bit_length()
    layout = series._layout_of(prime, precision)
    top = (precision + 1) * prime**2
    highest = top >> (b - 1)
    xs = [x for x in (((k + 1) << (b - 1)) - 1 for k in range(highest - 3000, highest + 1)) if x < top]
    for start in range(0, len(xs), precision):
        chunk = xs[start : start + precision]
        assert layout.unpack(layout.reduce(layout.pack(chunk)), len(chunk)) == [x % prime for x in chunk]


@pytest.mark.parametrize("prime", PRIMES)
def test_reduced_check_reads_every_slot(prime):
    # slots at or above 2**(bits - 1) would carry when biased; they must
    # still read as unreduced, next to reduced neighbours on either side
    precision = 9
    layout = series._layout_of(prime, precision)
    for bad in (prime, 2 * prime, 1 << (layout.bits - 1), (1 << layout.bits) - 1):
        for k in range(precision):
            xs = [prime - 1] * precision
            xs[k] = bad
            assert not layout.is_reduced(layout.pack(xs))
    assert layout.is_reduced(layout.pack([prime - 1] * precision))
    assert not layout.is_reduced(-1)


@pytest.mark.parametrize("prime", PRIMES)
def test_products_and_constructed_series_agree_on_eq_and_hash(prime):
    rng = random.Random(prime + 2)
    for precision in (4, 40, 157):
        for _ in range(10):
            va = rng.randrange(1, precision - 1)
            vb = rng.randrange(1, precision - va)
            f = _sparse_series(rng, va, precision, prime)
            g = _sparse_series(rng, vb, precision, prime)
            product = f * g  # coefficients not read yet
            built = schoolbook_product(f, g)
            assert terms(product) == terms(built)
            assert product.coefficients == built.coefficients
            rebuilt = build(product.valuation, product.coefficients, precision, prime)
            assert terms(product) == terms(rebuilt)


def probe_by_lists(series_list, coefficients):
    """Reference valuation probe on coefficient lists; mirrors ``combination_valuation_probe``."""
    precision, prime = series_list[0].precision, series_list[0].prime
    base = min(s.valuation for s in series_list)
    acc = [0] * (precision - base)
    for s, a in zip(series_list, coefficients):
        off = s.valuation - base
        for i, c in enumerate(s.coefficients):
            acc[off + i] = (acc[off + i] + a % prime * c) % prime
    return next((base + i for i, x in enumerate(acc) if x), None)


@pytest.mark.parametrize("prime", PRIMES)
def test_valuation_probe_matches_list_sums(prime):
    rng = random.Random(prime + 3)
    for precision in (3, 10, 44):
        for count in (1, 2, 6, precision, 2 * precision + 3):
            for _ in range(5):
                valuations = [rng.randrange(1, precision) for _ in range(count)]
                fs = [_sparse_series(rng, v, precision, prime) for v in valuations]
                coeffs = [rng.randrange(1, prime) for _ in fs]
                assert combination_valuation_probe(fs, coeffs) == probe_by_lists(fs, coeffs)
        # m copies of the all-(p - 1) series times p - 1 are m mod p in every
        # slot, cancelled by one more copy times m; with m above precision + 1
        # the sum leaves the reduction's range unless it is reduced on the way
        m = 3 * precision + 1
        f = build(1, (prime - 1,) * (precision - 1), precision, prime)
        fs = [f] * (m + 1)
        coeffs = [prime - 1] * m + [m]
        assert combination_valuation_probe(fs, coeffs) is None
        assert probe_by_lists(fs, coeffs) is None


def scanned_conductor(achieved, run_length):
    """Reference run finder: the linear scan over the sorted achieved values."""
    run = 0
    prev = None
    for x in achieved:
        run = run + 1 if prev is not None and x == prev + 1 else 1
        if run == run_length:
            return x - run_length + 1
        prev = x
    return None


def test_detect_conductor_matches_linear_scan():
    rng = random.Random(5)
    for _ in range(2000):
        limit = rng.randint(1, 80)
        density = rng.random()
        achieved = [x for x in range(limit) if rng.random() < density]
        run_length = rng.randint(1, 9)
        assert series.detect_conductor(achieved, run_length) == scanned_conductor(achieved, run_length)
    assert series.detect_conductor((0, 4, 6, 8, 9, 10, 11), 4) == 8
    assert series.detect_conductor((0, 4, 6, 7, 8, 10, 11, 12), 4) is None
    assert series.detect_conductor((), 2) is None


@pytest.mark.parametrize(
    "achieved, message",
    [
        (lambda precision: (0, 4, 6, 8), "no run of 4 consecutive values"),
        (lambda precision: (0, 4, 6, 8, 9, 10, 11, 13), "not closed above"),
        (lambda precision: (4, 6) + tuple(range(8, precision)), "must contain 0"),
        (lambda precision: (0, 4, 6, 7) + tuple(range(9, precision)), "not additively closed"),
        (lambda precision: (0,) + tuple(range(5, precision)), "every profile order"),
    ],
    ids=["no-run", "hole-above", "no-zero", "not-closed", "missing-order"],
)
def test_achieved_set_failures_are_typed(monkeypatch, achieved, message):
    def stub(profile, precision, prime=DEFAULT_PRIME, seed=0):
        return achieved(precision)

    monkeypatch.setattr(series, "value_semigroup", stub)
    with pytest.raises(series.AchievedSetError, match=message) as raised:
        empirical_generic_semigroup((4, 6))
    assert isinstance(raised.value, RuntimeError)
    assert isinstance(raised.value, ArithmeticError)
