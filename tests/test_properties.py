"""Property tests: the sieve, the Apery set and the normal form agree on <ab, ac, bc>,
the floor-sum lattice count agrees with the direct scan, and the slot-wise
reduction of packed series agrees with ``%``."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cuspsemi import series, supersym  # noqa: E402
from test_series import PRIMES, reduction_edges  # noqa: E402
from test_supersym import scan_lattice_count, simplex_weights  # noqa: E402

triples = (
    st.lists(st.integers(2, 16), min_size=3, max_size=3, unique=True)
    .map(sorted)
    .filter(lambda t: gcd(t[0], t[1]) == gcd(t[0], t[2]) == gcd(t[1], t[2]) == 1)
)


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
