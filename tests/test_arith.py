import math
import random
import time
import warnings
from fractions import Fraction

import pytest

from cuspsemi import arith, series, severi
from cuspsemi.semigroup import NumericalSemigroup


def test_generator_tuples():
    assert arith.approximation_generators(2, 4) == (8, 10, 12, 21, 25)
    assert arith.approximation_generators(3, 6) == (18, 21, 24, 43, 73)
    assert arith.approximation_generators(2, 5) == (10, 12, 14, 25, 43, 41)
    assert arith.approximation_generators(2, 5, branch="m2") == (10, 12, 14, 25, 41)


def test_branches_agree_for_even_ell():
    for ell in (4, 6, 8, 10):
        general = NumericalSemigroup(arith.approximation_generators(2, ell))
        short = NumericalSemigroup(arith.approximation_generators(2, ell, branch="m2"))
        assert general == short


def test_m2_branch_requires_m_equal_two():
    with pytest.raises(ValueError):
        arith.approximation_generators(3, 7, branch="m2")


def test_small_ell_warns():
    # every entry point's warning names the line that called it, not one in arith.py
    entries = (
        arith.approximation_generators,
        arith.approximating_semigroup,
        arith.apery_predictions,
        arith.genus_upper,
        arith.genus_upper_stated,
    )
    for entry in entries:
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            entry(4, 6)
        assert any("ell" in str(w.message) for w in record), entry.__name__
        assert record[0].filename == __file__, entry.__name__


@pytest.mark.parametrize("ell", range(4, 41))
def test_m2_gap_set_matches_sieve(ell):
    s = NumericalSemigroup(arith.approximation_generators(2, ell, branch="m2"))
    predicted = arith.gap_set_m2(ell)
    assert predicted == tuple(s.gaps())
    assert len(predicted) == (ell * ell + 1) // 2 + 2 * ell


def test_gap_set_m2_rejects_tiny_ell():
    with pytest.raises(ValueError, match="ell must be at least 4, got ell=3$"):
        arith.gap_set_m2(3)


@pytest.mark.parametrize("ell", (-1, 0, 1, 2))
def test_gap_set_m2_rejection_names_ell(ell):
    with pytest.raises(ValueError, match=f"ell must be at least 4, got ell={ell}$"):
        arith.gap_set_m2(ell)


def test_genus_values():
    assert NumericalSemigroup(arith.approximation_generators(2, 4)).genus == 16
    assert NumericalSemigroup(arith.approximation_generators(2, 5)).genus == 22
    assert NumericalSemigroup(arith.approximation_generators(2, 5, branch="m2")).genus == 23


def test_genus_upper_even_is_exact():
    for m in (2, 3, 4):
        for ell in range(2 * m, 21, 2):
            s = arith.approximating_semigroup(m, ell)
            assert arith.genus_upper(m, ell) == s.genus
            assert arith.genus_upper_stated(m, ell) == Fraction(s.genus)


def test_genus_upper_odd_derived_is_exact():
    # the stated odd-case closed form disagrees with the sieve; the
    # derived variant is the one the proof's count actually produces
    for m in (2, 3, 4):
        for ell in range(2 * m + 1, 21, 2):
            s = arith.approximating_semigroup(m, ell)
            assert arith.genus_upper(m, ell) == s.genus
            assert arith.genus_upper_stated(m, ell) != Fraction(s.genus)


def test_apery_predictions_even():
    predictions = arith.apery_predictions(2, 4)
    s = arith.approximating_semigroup(2, 4)
    table = s.apery()
    for residue, value, family in predictions:
        assert table[residue] == value, (residue, value, family)
    assert set(range(1, 8)) - {residue for residue, _, _ in predictions} == {3}


def test_apery_predictions_larger_even():
    predictions = arith.apery_predictions(3, 6)
    table = arith.approximating_semigroup(3, 6).apery()
    for residue, value, family in predictions:
        assert table[residue] == value, (residue, value, family)
    assert set(range(1, 18)) - {residue for residue, _, _ in predictions} == {4, 5, 11}


@pytest.mark.parametrize("m,ell", [(2, 5), (2, 7), (3, 7), (3, 9), (4, 9)])
def test_apery_predictions_odd(m, ell):
    table = arith.approximating_semigroup(m, ell).apery()
    for residue, value, family in arith.apery_predictions(m, ell):
        assert table[residue] == value, (residue, value, family)


def test_apery_predictions_match_the_sieve_for_both_parities():
    for m, ell in arith.profiles(range(2, 7), range(4, 32)):
        table = arith.approximating_semigroup(m, ell).apery()
        for residue, value, family in arith.apery_predictions(m, ell):
            assert table[residue] == value, (m, ell, residue, family)


def test_apery_predictions_land_on_distinct_residues_in_range():
    # For ell >= 2m the index ranges give m*ceil(l/2) - C(m,2) - 1 plus
    # m*floor(l/2) - C(m,2) nonspecial terms, m - 1 special and C(m-1,2)
    # special-bis terms: ml - 1 - C(m,2) in all.  Every one of them is kept, so
    # none left [1, ml-1] and no two shared a residue.
    for m, ell in arith.profiles(range(2, 12), range(4, 60)):
        residues = [residue for residue, _, _ in arith.apery_predictions(m, ell)]
        assert residues == sorted(set(residues)), (m, ell)
        assert all(1 <= r <= m * ell - 1 for r in residues), (m, ell)
        assert len(residues) == m * ell - 1 - math.comb(m, 2), (m, ell)


def test_profiles_sweep_the_hypothesis_with_m_outer():
    pairs = list(arith.profiles(range(2, 4), range(3, 8)))
    assert pairs == [(2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (3, 7)]
    assert list(arith.profiles(range(2, 4), range(9, 4))) == []
    assert list(arith.profiles(range(5, 2), range(4, 9))) == []


def test_profile_orders():
    assert arith.profile_orders(2, 4) == (8, 10, 12)
    assert arith.profile_orders(3, 7) == (21, 24, 27)
    for m, ell in ((1, 4), (2, 1)):
        with pytest.raises(ValueError):
            arith.profile_orders(m, ell)


def test_best_genus_lower():
    assert arith.best_genus_lower((8, 10, 12)) == (1, 8)


def _brute_best_lower(m, b):
    """Smallest k in [0, m] maximising m(k+1) - b*C(k+1,2) - C(k+3,3)."""
    values = [m * (k + 1) - b * math.comb(k + 1, 2) - math.comb(k + 3, 3) for k in range(m + 1)]
    best = max(values)
    return values.index(best), best


def test_best_genus_lower_is_the_smallest_maximiser():
    rng = random.Random(20231)
    for _ in range(1000):
        m = rng.randint(2, 200)
        a, b = sorted(rng.sample(range(1, 41), 2))
        best = arith.best_genus_lower((m, m + a, m + b))
        assert tuple(best) == _brute_best_lower(m, b), (m, a, b)


def test_best_genus_lower_stops_at_its_maximum():
    # a scan linear in b = r3 - r1 would take minutes at this size
    start = time.perf_counter()
    assert arith.best_genus_lower((8, 10, 10**9)) == (0, 7)
    assert time.perf_counter() - start < 1.0


def test_forbidden_windows():
    assert arith.forbidden_window((8, 10, 12), 0) == range(1, 8)
    assert arith.forbidden_window((8, 10, 12), 1) == range(15, 16)
    assert arith.forbidden_window((8, 10, 12), 3) is None


def test_window_gap_bound():
    assert len(arith.forbidden_window((8, 10, 12), 0)) == 7
    assert len(arith.forbidden_window((8, 10, 12), 1)) == 1


def test_asymptotic_check():
    assert arith.asymptotic_check(2, 10**4, 0.1)
    assert arith.asymptotic_check(2, 10**5, 0.1)
    assert arith.asymptotic_check(3, 10**5, 0.1)
    # the correction term 2 m^2 / sqrt(l) still exceeds eps = 0.1 here
    assert not arith.asymptotic_check(3, 10**4, 0.1)


_BAD_ORDERS = [(8,), (1, 3, 5), (8, 8, 10), (8, 12, 10)]
_PROFILE_ENTRY_POINTS = {
    "value_semigroup": lambda orders: series.value_semigroup(orders, 40),
    "start_precision": series.start_precision,
    "generic_codim": severi.generic_codim,
    "best_genus_lower": arith.best_genus_lower,
    "forbidden_window": lambda orders: arith.forbidden_window(orders, 0),
}
# Case numbers are fixed, not positional, so that a case keeps its test id
# when entry points are added to or taken from the table.
_FIRST_CASE_NUMBER = {
    "value_semigroup": 0,
    "start_precision": 4,
    "generic_codim": 8,
    "best_genus_lower": 16,
    "forbidden_window": 20,
}
_FOUR_ORDERS_CASE_NUMBER = {"best_genus_lower": 29, "forbidden_window": 30}


@pytest.mark.parametrize(
    "name, orders",
    [
        pytest.param(name, orders, id=f"{name}-orders{first + i}")
        for name, first in _FIRST_CASE_NUMBER.items()
        for i, orders in enumerate(_BAD_ORDERS)
    ]
    + [
        pytest.param(name, (8, 10, 12, 14), id=f"{name}-orders{number}")
        for name, number in _FOUR_ORDERS_CASE_NUMBER.items()
    ],
)
def test_profile_entry_points_reject_malformed_orders(name, orders):
    with pytest.raises(ValueError):
        _PROFILE_ENTRY_POINTS[name](orders)
