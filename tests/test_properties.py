"""Property tests: every query of a numerical semigroup agrees with a brute-force
membership list, the sieve, the Apery set and the normal form agree on
<ab, ac, bc>, the floor-sum lattice count agrees with the direct scan, and the
slot-wise reduction of packed series agrees with ``%``."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cuspsemi import series, supersym  # noqa: E402
from cuspsemi.semigroup import NumericalSemigroup  # noqa: E402
from test_semigroup import enumeration_betti  # noqa: E402
from test_series import PRIMES, reduction_edges  # noqa: E402
from test_supersym import scan_lattice_count, simplex_weights  # noqa: E402

triples = (
    st.lists(st.integers(2, 16), min_size=3, max_size=3, unique=True)
    .map(sorted)
    .filter(lambda t: gcd(t[0], t[1]) == gcd(t[0], t[2]) == gcd(t[1], t[2]) == 1)
)

generator_sets = st.lists(st.integers(1, 40), min_size=2, max_size=5, unique=True).filter(
    lambda g: gcd(*g) == 1
)


def brute_members(gens, limit):
    """Membership of each x < limit, one addition at a time (reference)."""
    member = [True] + [False] * (limit - 1)
    for x in range(1, limit):
        member[x] = any(g <= x and member[x - g] for g in gens)
    return member


@settings(max_examples=150, deadline=None)
@given(generator_sets)
def test_queries_match_brute_force_membership(gens):
    s = NumericalSemigroup(gens)
    m, top = min(gens), max(gens)
    # F < m * top (Schur), so the list runs past the conductor + top + m
    member = brute_members(gens, m * top + top + m)
    conductor = max((x + 1 for x, ok in enumerate(member) if not ok), default=0)
    assert s.conductor == conductor
    width = conductor + top + m
    member = member[:width]
    assert s._bits < 2**conductor
    assert [s.contains(x) for x in range(-2, width)] == [False, False, *member]
    assert [x in s for x in range(width)] == member
    assert [s.member_count_below(t) for t in range(-1, width + 1)] == [0, 0] + [
        sum(member[:t]) for t in range(1, width + 1)
    ]
    gaps = [x for x in range(width) if not member[x]]
    assert s.gaps() == gaps and s.genus == len(gaps)
    apery = tuple(next(x for x in range(i, width, m) if member[x]) for i in range(m))
    assert s.apery() == apery
    assert s.betti_elements() == enumeration_betti(s, max(apery) + top)
    if conductor == 0:
        with pytest.raises(ValueError):
            s.is_symmetric()
    else:
        f = conductor - 1
        assert s.is_symmetric() == all(member[x] != member[f - x] for x in range(conductor))
    # the same semigroup from more generators, and one with its Frobenius number added
    same = NumericalSemigroup([*gens, conductor + 1, conductor + top, m + top])
    assert same == s and hash(same) == hash(s)
    if conductor > 1:
        filled = NumericalSemigroup([*gens, conductor - 1])
        assert filled != s and filled.conductor < conductor


@settings(max_examples=60, deadline=None)
@given(triples)
def test_sieve_apery_and_normal_form_membership_agree(t):
    a, b, c = t
    s = supersym.supersym_semigroup(a, b, c)
    apery = s.apery()
    m = s.multiplicity
    xs = range(s.conductor + s.generators[-1])
    for x, (_, _, z) in zip(xs, supersym.abc_normal_forms(a, b, c, xs)):
        by_sieve = x in s
        assert by_sieve == (x >= apery[x % m])
        assert by_sieve == (z >= 0)


@settings(max_examples=60, deadline=None)
@given(triples, st.lists(st.integers(0, 2 * 16**3), min_size=1, max_size=20))
def test_factorizations_equal_normal_form_shifts(t, ns):
    a, b, c = t
    s = supersym.supersym_semigroup(a, b, c)
    for n in ns:
        assert tuple(s.factorizations(n)) == supersym.abc_all_factorizations(a, b, c, n)


intercepts = st.builds(Fraction, st.integers(1, 400), st.integers(1, 16))


@settings(max_examples=200, deadline=None)
@given(intercepts, intercepts, intercepts)
def test_lattice_count_equals_scan(alpha, beta, gamma):
    simplex = simplex_weights(alpha, beta, gamma)
    assert supersym.lattice_count(*simplex) == scan_lattice_count(*simplex)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(3, 1000), st.data())
def test_slotwise_reduction_equals_mod(prime, precision, data):
    top = (precision + 1) * prime**2
    slot = st.one_of(st.sampled_from(reduction_edges(prime, precision)), st.integers(0, top - 1))
    xs = data.draw(st.lists(slot, min_size=1, max_size=min(precision, 64)))
    layout = series._layout_of(prime, precision)
    assert layout.unpack(layout.reduce(layout.pack(xs)), len(xs)) == [x % prime for x in xs]
