import random
from math import gcd

import pytest

from cuspsemi import arith, semigroup, series, supersym
from cuspsemi.semigroup import (
    GcdNotOneError,
    NumericalSemigroup,
    _first_run_start,
    _reach,
)


def fixpoint_reach(gens, limit):
    """The monoid bitmask by adding each generator until nothing changes (reference)."""
    mask = (1 << limit) - 1
    bits = 1
    for g in gens:
        if g >= limit:
            continue
        prev = 0
        while bits != prev:
            prev = bits
            bits = (bits | (bits << g)) & mask
    return bits


def brauer_bound(gens):
    """Brauer's bound sum g_{i+1} d_i / d_{i+1} - sum g_i, d_i = gcd(g_1..g_i) (reference)."""
    gens = sorted(set(gens))
    ds = [gens[0]]
    for g in gens[1:]:
        ds.append(gcd(ds[-1], g))
    return sum(gens[i + 1] * ds[i] // ds[i + 1] for i in range(len(gens) - 1)) - sum(gens)


def erdos_graham_bound(gens):
    """Erdos-Graham bound 2 g_{k-1} floor(g_k / k) - g_k for k >= 2 generators (reference)."""
    gens = sorted(set(gens))
    k = len(gens)
    return 2 * gens[-2] * (gens[-1] // k) - gens[-1]


def linear_run_start(bits, run_length):
    """First run of ``run_length`` set bits by shifting one place at a time (reference)."""
    y = bits
    for _ in range(run_length - 1):
        y &= y >> 1
        if not y:
            return None
    if not y:
        return None
    return (y & -y).bit_length() - 1


def factorization_counts(gens, limit):
    """Number of factorizations of each x <= limit, by the coin-change table (reference)."""
    count = [1] + [0] * limit
    for g in gens:
        for x in range(g, limit + 1):
            count[x] += count[x - g]
    return count


def assert_every_factorization(gens, x, facs, count):
    # valid, distinct and as many as there are factorizations: so all of them
    for f in facs:
        assert len(f) == len(gens) and min(f) >= 0, (gens, x, f)
        assert sum(e * g for e, g in zip(f, gens)) == x, (gens, x, f)
    assert all(p < q for p, q in zip(facs, facs[1:])), (gens, x)
    assert len(facs) == count, (gens, x)


def enumeration_betti(s, bound):
    """Betti elements from the supports of the factorizations of each x <= bound (reference).

    S(x), the set of supports of the factorizations of x, is built up from
    S(0) = {{}} by S(x) = {T | {i} : n_i <= x, T in S(x - n_i)}.  x is a Betti
    element when S(x) splits into more than one component under "two supports
    share a generator".  A support is held as a bitmask over generator indices.
    """
    gens = s.generators
    supports = [{0}]
    out = []
    for x in range(1, bound + 1):
        here = {t | 1 << i for i, g in enumerate(gens) if g <= x for t in supports[x - g]}
        supports.append(here)
        comps = []
        for merged in here:
            rest = []
            for comp in comps:
                if comp & merged:
                    merged |= comp
                else:
                    rest.append(comp)
            comps = rest + [merged]
        if len(comps) > 1:
            out.append(x)
    return out


def residue_walk_apery(s):
    """Apery set by walking each residue class up to its first member (reference)."""
    n = s.multiplicity
    entries = []
    for i in range(n):
        x = i
        while not s.contains(x):
            x += n
        entries.append(x)
    return tuple(entries)


def test_basic_invariants():
    s = NumericalSemigroup((6, 10, 15))
    assert s.multiplicity == 6
    assert s.conductor == 30
    assert s.frobenius == 29
    assert s.genus == 15
    assert s.is_symmetric()


def test_generators_normalized_and_sorted():
    s = NumericalSemigroup([15, 6, 10, 6])
    assert s.generators == (6, 10, 15)


def test_gcd_rejected():
    with pytest.raises(GcdNotOneError):
        NumericalSemigroup((4, 6))
    with pytest.raises(ValueError):
        NumericalSemigroup(())
    with pytest.raises(ValueError):
        NumericalSemigroup((0, 3))


def test_whole_line_semigroup():
    n = NumericalSemigroup((1,))
    assert n.conductor == 0
    assert n.frobenius == -1
    assert n.genus == 0
    assert n.gaps() == []
    # symmetry is not defined when there are no gaps
    with pytest.raises(ValueError):
        n.is_symmetric()


def test_membership_and_gaps():
    s = NumericalSemigroup((12, 15, 20))
    assert s.frobenius == 73
    assert s.genus == 37
    assert 35 in s
    assert 73 not in s
    assert all(x in s for x in range(74, 200))
    assert [x for x in s.gaps() if x > 60] == [61, 73]
    assert len(s.gaps()) == s.genus


def test_member_count_below():
    s = NumericalSemigroup((6, 10, 15))
    assert s.member_count_below(30) == 15
    assert s.member_count_below(36) == 21
    # past the conductor every integer is a member
    assert s.member_count_below(1000) == 1000 - s.genus


@pytest.mark.parametrize(
    "gens,expected",
    [
        ((6, 10, 15), (0, 25, 20, 15, 10, 35)),
        ((2, 3), (0, 3)),
    ],
)
def test_apery_entries(gens, expected):
    assert NumericalSemigroup(gens).apery() == expected


def test_apery_gap_count_identity():
    # Selmer: the genus is the sum of (w - i) / m over the Apery entries w = i mod m
    for gens in [(6, 10, 15), (8, 10, 12, 21, 25), (12, 15, 20), (3, 5, 7)]:
        s = NumericalSemigroup(gens)
        m = s.multiplicity
        assert sum((w - i) // m for i, w in enumerate(s.apery())) == s.genus


def test_apery_is_the_least_member_of_each_class_on_random_semigroups():
    rng = random.Random(12)
    seen = 0
    while seen < 200:
        gens = tuple(sorted({rng.randint(1, 60) for _ in range(rng.randint(1, 5))}))
        if gcd(*gens) != 1:
            continue
        seen += 1
        s = NumericalSemigroup(gens)
        m = s.multiplicity
        apery = s.apery()
        assert len(apery) == m and apery[0] == 0, gens
        for i, w in enumerate(apery):
            assert w % m == i and w in s and w - m not in s, (gens, i, w)


def test_factorizations_match_membership():
    s = NumericalSemigroup((6, 10, 15))
    for x in range(0, s.conductor + 16):
        facs = s.factorizations(x)
        assert (len(facs) > 0) == (x in s)
        for f in facs:
            assert sum(e * g for e, g in zip(f, s.generators)) == x


def test_factorizations_of_betti_element():
    s = NumericalSemigroup((6, 10, 15))
    assert set(s.factorizations(30)) == {(5, 0, 0), (0, 3, 0), (0, 0, 2)}
    assert s.betti_elements(60) == [30]


def test_betti_generic_five_generators():
    s = NumericalSemigroup((8, 10, 12, 21, 25))
    betti = s.betti_elements(s.conductor + max(s.generators))
    # every betti element has at least two factorizations
    for b in betti:
        assert len(s.factorizations(b)) >= 2


def test_apery_and_betti_match_the_enumeration_on_random_semigroups():
    rng = random.Random(24)
    seen = 0
    while seen < 1000:
        gens = [rng.randint(1, 45) for _ in range(rng.randint(1, 6))]
        if gcd(*gens) != 1:
            continue
        seen += 1
        s = NumericalSemigroup(gens)
        apery = s.apery()
        assert apery == residue_walk_apery(s), gens
        b = max(apery) + s.generators[-1]
        # the enumeration scans 1..bound, so one scan at the largest bound serves all five
        betti = enumeration_betti(s, b + 17)
        for bound in (0, 1, b // 2, b, b + 17):
            assert s.betti_elements(bound) == [x for x in betti if x <= bound], (gens, bound)
        # the default bound misses no Betti element up to b + 17
        assert s.betti_bound() == b, gens
        assert s.betti_elements() == betti, gens


def test_betti_elements_beyond_the_enumeration():
    # Herzog: the Betti elements of <n1, n2, n3> are the c_i * n_i, here
    # 3 * 1000 = 2 * 1500 and 500 * 1001
    s = NumericalSemigroup((1000, 1001, 1500))
    assert s.betti_elements(max(s.apery()) + 1500) == [3000, 500500]


def test_betti_elements_and_apery_enumerate_nothing(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("enumerated factorizations or walked membership")

    s = NumericalSemigroup((8, 10, 12, 21, 25))
    monkeypatch.setattr(NumericalSemigroup, "factorizations", forbidden)
    monkeypatch.setattr(NumericalSemigroup, "contains", forbidden)
    assert s.apery() == (0, 25, 10, 35, 12, 21, 22, 31)
    assert s.betti_elements(60) == [20, 24, 33, 37, 42, 46, 50]


def test_symmetry_versus_gap_count():
    # symmetric iff 2g = F + 1, checked on a mixed bag
    for gens in [(6, 10, 15), (12, 15, 20), (4, 5), (8, 10, 12, 21, 25), (3, 5, 7)]:
        s = NumericalSemigroup(gens)
        assert s.is_symmetric() == (2 * s.genus == s.frobenius + 1)


def test_semantic_equality():
    assert NumericalSemigroup((4, 5)) == NumericalSemigroup((4, 5, 13))
    # 31 = 6 + 10 + 15 is already a member; 29 is the frobenius number
    assert NumericalSemigroup((6, 10, 15)) == NumericalSemigroup((6, 10, 15, 31))
    assert NumericalSemigroup((6, 10, 15)) != NumericalSemigroup((6, 10, 15, 29))
    assert hash(NumericalSemigroup((4, 5))) == hash(NumericalSemigroup((4, 5, 13)))


def test_closure_sample():
    s = NumericalSemigroup((7, 11, 13))
    members = [x for x in range(0, 2 * s.conductor) if x in s]
    for x in members[:40]:
        for y in members[:40]:
            assert (x + y) in s


def test_contains_negative():
    s = NumericalSemigroup((4, 5))
    assert -3 not in s
    assert 0 in s


def test_reach_matches_fixpoint_on_random_inputs():
    rng = random.Random(20261018)
    for _ in range(2000):
        gens = tuple(sorted({rng.randint(1, 80) for _ in range(rng.randint(1, 5))}))
        limit = rng.randint(1, 600)
        assert _reach(gens, limit) == fixpoint_reach(gens, limit), (gens, limit)


@pytest.mark.parametrize(
    "gens,limit",
    [((5, 7), 5), ((3, 10), 10), ((4, 9), 9), ((2, 3), 1), ((1,), 1), ((7,), 8), ((1, 50), 64)],
)
def test_reach_edge_cases(gens, limit):
    # generators at or above the limit, limit 1, a shift just below the limit
    assert _reach(gens, limit) == fixpoint_reach(gens, limit)
    assert _reach(gens, limit) >> limit == 0


def test_reach_returns_only_bits_below_limit():
    assert _reach((2, 3), 0) == 0


def test_first_run_start_matches_linear_scan_on_random_inputs():
    rng = random.Random(7)
    for _ in range(3000):
        bits = rng.getrandbits(rng.randint(0, 400))
        # plant a run so long run lengths have something to find
        bits |= ((1 << rng.randint(0, 70)) - 1) << rng.randint(0, 300)
        r = rng.randint(1, 80)
        assert _first_run_start(bits, r) == linear_run_start(bits, r), (bits, r)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64])
def test_first_run_start_edge_lengths(r):
    # run lengths 1, 2^k and 2^k +- 1 against runs one shorter, exact and one longer
    assert _first_run_start(0, r) is None
    for length in (r - 1, r, r + 1):
        for lead in (0, 1, 5):
            run = ((1 << length) - 1) << lead
            for bits in (run, run | 1 << (lead + length + 3)):
                assert _first_run_start(bits, r) == linear_run_start(bits, r)
    # two runs of r - 1 separated by one gap never count as a run of r
    split = ((1 << (r - 1)) - 1) | (((1 << (r - 1)) - 1) << r)
    assert _first_run_start(split, r) == linear_run_start(split, r)


def test_factorizations_match_recursion_on_random_semigroups():
    rng = random.Random(11)
    seen = 0
    while seen < 150:
        gens = tuple(sorted({rng.randint(2, 40) for _ in range(rng.randint(2, 5))}))
        if gcd(*gens) != 1:
            continue
        seen += 1
        s = NumericalSemigroup(gens)
        limit = s.conductor + 2 * gens[-1]
        counts = factorization_counts(gens, limit)
        for x in rng.choices(range(limit), k=25):
            assert_every_factorization(gens, x, s.factorizations(x), counts[x])


@pytest.mark.parametrize(
    "gens",
    [
        (5, 6, 9),
        (4, 6, 9),
        (6, 10, 15),
        (8, 10, 12, 21, 25),
        (7, 9, 11, 12, 15),
        (2, 3),
        (12, 20, 30, 45),
        (30, 42, 70, 105),
        (15, 21, 35),
    ],
)
def test_factorizations_edge_cases(gens):
    # last two generators sharing a factor (6, 9), five generators, two generators,
    # later generators with a common factor at several levels (12, 20, 30, 45) and
    # (30, 42, 70, 105), and the supersymmetric <15, 21, 35> = (3, 5, 7)
    s = NumericalSemigroup(gens)
    k = len(s.generators)
    assert s.factorizations(0) == [(0,) * k]
    limit = s.conductor + 3 * s.generators[-1]
    counts = factorization_counts(s.generators, limit)
    for x in range(limit):
        assert_every_factorization(s.generators, x, s.factorizations(x), counts[x])


def test_factorizations_single_generator():
    n = NumericalSemigroup((1,))
    for x in range(20):
        assert n.factorizations(x) == [(x,)]


def one_pass_cases():
    """Random gcd-1 sets with k = 1..8, intervals, sets with 1, triples with no coprime pair."""
    rng = random.Random(20261019)
    cases = [(1,), (2, 3), (6, 10, 15), (10, 12, 15), (1, 7, 9), tuple(range(5, 10))]
    while len(cases) < 160:
        k = rng.randint(1, 8)
        gens = {rng.randint(1, rng.choice((12, 40, 150))) for _ in range(k)}
        if gcd(*gens) == 1:
            cases.append(tuple(gens))
    for _ in range(20):
        lo = rng.randint(2, 60)
        cases.append(tuple(range(lo, lo + rng.randint(2, 12))))
        cases.append((1, *(rng.randint(2, 100) for _ in range(rng.randint(0, 4)))))
    while len(cases) < 220:
        t = tuple(rng.randint(4, 150) for _ in range(3))
        if gcd(*t) == 1 and min(gcd(t[0], t[1]), gcd(t[0], t[2]), gcd(t[1], t[2])) > 1:
            cases.append(t)
    return cases


def test_one_pass_build_matches_the_fixpoint_oracle():
    for gens in one_pass_cases():
        s = NumericalSemigroup(gens)
        limit = min(gens) * max(gens) + max(gens) + 1  # past Schur's (g_1 - 1)(g_k - 1)
        oracle = fixpoint_reach(sorted(set(gens)), limit)
        holes = ((1 << limit) - 1) ^ oracle
        assert s.conductor == holes.bit_length(), gens
        assert s.gaps() == [x for x in range(s.conductor) if holes >> x & 1], gens
        assert all(x in s for x in range(s.conductor, s.conductor + max(gens) + 2)), gens


def test_conductor_is_within_both_frobenius_bounds():
    for gens in one_pass_cases():
        f = NumericalSemigroup(gens).frobenius
        assert f <= brauer_bound(gens), gens
        if len(set(gens)) >= 2:
            assert f <= erdos_graham_bound(gens), gens
    # Brauer's bound is exact on the telescopic <ab, ac, bc>
    for a, b, c in [(2, 3, 5), (3, 4, 5), (4, 5, 9), (5, 7, 11)]:
        gens = supersym.pairwise_products(a, b, c)
        assert brauer_bound(gens) == NumericalSemigroup(gens).frobenius


def record_sieve_limits(monkeypatch):
    limits = []
    reach = semigroup._reach

    def counted(gens, limit):
        limits.append(limit)
        return reach(gens, limit)

    monkeypatch.setattr(semigroup, "_reach", counted)
    return limits


@pytest.mark.parametrize(
    "build",
    [
        lambda: supersym.supersym_semigroup(3, 5, 7),
        lambda: supersym.s_prime(3, 4, 5),
        lambda: arith.approximating_semigroup(3, 9),
        lambda: series.capture_conductors((6, 8, 9), [0])[0],
    ],
    ids=["supersym", "s_prime", "approximating", "capture_conductors"],
)
def test_each_build_sieves_once(monkeypatch, build):
    builds = []
    init = NumericalSemigroup.__init__

    def counted_init(self, generators):
        generators = tuple(generators)
        builds.append(generators)
        init(self, generators)

    monkeypatch.setattr(NumericalSemigroup, "__init__", counted_init)
    limits = record_sieve_limits(monkeypatch)
    build()
    assert builds and len(limits) == len(builds)
    # each pass runs to the Frobenius bound + 1 + the multiplicity
    for gens, limit in zip(builds, limits):
        assert limit == min(brauer_bound(gens), erdos_graham_bound(gens)) + 1 + min(gens), gens


def test_many_generators_are_sieved_below_twice_the_conductor_plus_multiplicity(monkeypatch):
    limits = record_sieve_limits(monkeypatch)
    gens = range(300, 600)
    s = NumericalSemigroup(gens)
    assert s.conductor == 300
    assert limits == [erdos_graham_bound(gens) + 1 + 300]
    assert limits[0] < 2 * (s.conductor + s.multiplicity)


def test_supersymmetric_semigroups_are_sieved_to_the_conductor_plus_ab(monkeypatch):
    limits = record_sieve_limits(monkeypatch)
    for a, b, c in [(2, 3, 5), (3, 4, 5), (4, 5, 9), (5, 7, 11)]:
        s = supersym.supersym_semigroup(a, b, c)
        assert limits[-1] == s.conductor + a * b
    # the extension by abc + 1 keeps Brauer's bound of <ab, ac, bc>
    for a, b, c in [(2, 3, 7), (2, 5, 7), (3, 4, 5), (5, 7, 11)]:
        supersym.s_prime(a, b, c)
        assert limits[-1] == supersym.frobenius_formula(a, b, c) + 1 + a * b
    assert len(limits) == 8


def test_a_sieve_that_misses_a_member_raises(monkeypatch):
    reach = semigroup._reach
    # (6, 10, 15) has conductor 30, which Brauer's bound meets exactly
    monkeypatch.setattr(semigroup, "_reach", lambda gens, limit: reach(gens, limit) & ~(1 << 30))
    with pytest.raises(RuntimeError, match="Frobenius bound"):
        NumericalSemigroup((6, 10, 15))
    # a sieve cut short, as a bound below the Frobenius number would cut it
    monkeypatch.setattr(semigroup, "_reach", lambda gens, limit: reach(gens, limit - 10))
    with pytest.raises(RuntimeError, match="Frobenius bound"):
        NumericalSemigroup((6, 10, 15))
