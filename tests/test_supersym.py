import ast
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cuspsemi import cli, series, severi, supersym, verify
from cuspsemi.semigroup import NumericalSemigroup
from cuspsemi.supersym import MethodMismatchError, pairwise_products


def test_triple_validation():
    assert pairwise_products(3, 4, 5) == (12, 15, 20)
    with pytest.raises(ValueError, match="need 2 <= a < b < c"):
        pairwise_products(1, 2, 3)
    with pytest.raises(ValueError, match="need 2 <= a < b < c"):
        pairwise_products(3, 3, 5)
    with pytest.raises(ValueError, match="pairwise coprime"):
        pairwise_products(2, 4, 5)


def test_coprime_triples_enumeration():
    triples = list(supersym.coprime_triples(200))
    assert (2, 3, 5) in triples
    assert (2, 3, 33) not in triples  # gcd(3, 33) > 1
    assert all(a * b * c <= 200 for a, b, c in triples)
    assert triples == sorted(triples)
    assert list(supersym.coprime_triples(90, min_a=3)) == [(3, 4, 5), (3, 4, 7)]


@pytest.mark.parametrize("min_a", [-3, 0, 1])
def test_coprime_triples_rejects_min_a_below_two(min_a):
    with pytest.raises(ValueError, match="min_a must be at least 2"):
        supersym.coprime_triples(10, min_a=min_a)  # the call raises, before any next()
    with pytest.raises(ValueError, match="min_a must be at least 2"):
        next(supersym.coprime_triples(10, min_a=min_a))


def test_closed_forms_match_sieve():
    for a, b, c in supersym.coprime_triples(900):
        s = supersym.supersym_semigroup(a, b, c)
        assert s.frobenius == supersym.frobenius_formula(a, b, c)
        assert s.genus == supersym.genus_formula(a, b, c)
        assert s.is_symmetric()


def test_rho_spot_values():
    assert supersym.rho(2, 3, 5) == 0
    assert supersym.rho(3, 4, 5) == 2
    assert supersym.rho(4, 5, 7) == 8


def test_rho_two_routes_agree():
    for a, b, c in supersym.coprime_triples(1200):
        assert supersym.rho(a, b, c) >= 0  # raises MethodMismatchError on split


def test_apery_count_matches_sieve():
    for a, b, c in supersym.coprime_triples(3000):
        s = supersym.supersym_semigroup(a, b, c)
        abc = a * b * c
        d = abc - (a * b + a * c + b * c)
        for t in (0, 1, d, s.conductor + 3, abc - 1, abc):
            assert supersym.apery_count_below(a, b, c, t) == s.member_count_below(t), (a, b, c, t)


def test_members_below_matches_sieve():
    for a, b, c in supersym.coprime_triples(3000):
        s = supersym.supersym_semigroup(a, b, c)
        abc = a * b * c
        d = abc - (a * b + a * c + b * c)
        for t in (0, 1, d, abc):
            assert supersym.members_below(a, b, c, t) == s.member_count_below(t), (a, b, c, t)
        # symmetry: n < abc is a gap exactly when F - n > abc is a gap, and rho counts those
        gaps_below_abc = abc - supersym.members_below(a, b, c, abc)
        assert gaps_below_abc == supersym.genus_formula(a, b, c) - supersym.rho(a, b, c), (a, b, c)
        with pytest.raises(ValueError, match="exceeds abc"):
            supersym.members_below(a, b, c, abc + 1)


# rho counts below d = abc - (ab + ac + bc), 57 for (4,5,7); the generic
# verdict counts below abc, 180 for (4,5,9)
@pytest.mark.parametrize(
    "caller, triple, t",
    [(supersym.rho, (4, 5, 7), 57), (severi.excess_generic_supersym, (4, 5, 9), 180)],
    ids=["rho", "excess_generic_supersym"],
)
# the Apery route runs as the kernel behind apery_count_below, on the checked triple
@pytest.mark.parametrize(
    "route", [pytest.param("_apery_count_below", id="apery_count_below"), "lattice_count"]
)
def test_member_count_routes_that_disagree_raise(monkeypatch, route, caller, triple, t):
    original = getattr(supersym, route)
    monkeypatch.setattr(supersym, route, lambda *args: original(*args) + 1)
    a, b, c = triple
    message = rf"members_below\({a},{b},{c},{t}\): Apery count \d+ != lattice count \d+"
    with pytest.raises(MethodMismatchError, match=message):
        caller(*triple)


def test_sweep_row_builds_no_semigroup_and_counts_rho_once(monkeypatch):
    def no_sieve(self, *args, **kwargs):
        raise AssertionError("a sweep row built a NumericalSemigroup")

    counted = []
    original = supersym.rho

    def counted_rho(*args):
        counted.append(args)
        return original(*args)

    triples = list(supersym.coprime_triples(1500))
    expected = {t: original(*t) for t in triples}
    monkeypatch.setattr(NumericalSemigroup, "__init__", no_sieve)
    # severi imports rho by name, so both bindings are counted
    monkeypatch.setattr(supersym, "rho", counted_rho)
    monkeypatch.setattr(severi, "rho", counted_rho)
    rho_column = cli._SUPERSYM_COLUMNS.index("rho")
    for t in triples:
        assert cli._supersym_row(*t)[rho_column] == expected[t]
    assert counted == triples


def test_apery_count_matches_sieve_near_abc_1e5():
    triples = [t for t in supersym.coprime_triples(100_000) if t[0] * t[1] * t[2] > 50_000]
    for a, b, c in random.Random(0).sample(triples, 2000):
        s = supersym.supersym_semigroup(a, b, c)
        abc = a * b * c
        for t in (abc - (a * b + a * c + b * c), abc):
            assert supersym.apery_count_below(a, b, c, t) == s.member_count_below(t), (a, b, c, t)


def test_rho_simplex_empty_when_gapless():
    assert supersym.rho_simplex(2, 3, 5) is None
    assert supersym.rho_simplex(4, 5, 7) == (20, 28, 35, 57)


def test_lattice_count_examples():
    assert supersym.lattice_count(1, 1, 1, 1) == 4
    assert supersym.lattice_count(12, 15, 20, 13) == 2
    assert supersym.lattice_count(3, 5, 7, 0) == 1
    assert supersym.lattice_count(3, 5, 7, -1) == 0
    for weights in ((1, 0, 1), (1, 1, -2), (-3, 1, 1)):
        with pytest.raises(ValueError, match="weights must be positive"):
            supersym.lattice_count(*weights, 5)


def simplex_weights(alpha: Fraction, beta: Fraction, gamma: Fraction) -> tuple[int, int, int, int]:
    """x/alpha + y/beta + z/gamma <= 1 cross-multiplied into (u, v, w, bound)."""
    pa, qa = alpha.numerator, alpha.denominator
    pb, qb = beta.numerator, beta.denominator
    pc, qc = gamma.numerator, gamma.denominator
    return (qa * pb * pc, qb * pa * pc, qc * pa * pb, pa * pb * pc)


def scan_lattice_count(u: int, v: int, w: int, bound: int) -> int:
    """Oracle: the direct scan over x and y, one division per (x, y)."""
    count = 0
    x = 0
    while u * x <= bound:
        rx = bound - u * x
        y = 0
        while v * y <= rx:
            count += (rx - v * y) // w + 1
            y += 1
        x += 1
    return count


@pytest.mark.parametrize(
    "n, m, a, b",
    [(0, 5, 3, 2), (1, 5, 3, 2), (1, 3, 7, 11), (6, 4, 0, 9), (6, 4, 0, 3), (9, 4, 10, 1),
     (9, 7, 3, 20), (5, 1, 1, 0), (100, 97, 89, 96), (1000, 10**9 + 7, 10**12, 10**15)],
)
def test_floor_sum_named_cases(n, m, a, b):
    assert supersym._floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_matches_direct_sum():
    rng = random.Random(6)
    for _ in range(2000):
        n = rng.randrange(1, 60)
        m = rng.randrange(1, 50)
        a = rng.randrange(0, 3 * m)  # a >= m about two times in three
        b = rng.randrange(0, 3 * m)
        assert supersym._floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_lattice_count_matches_scan_on_random_specs():
    rng = random.Random(7)
    below_one = 0
    for _ in range(600):
        intercepts = []
        for _ in range(3):
            q = rng.randrange(2, 13)
            p = rng.randrange(1, 25 * q)
            if p % q == 0:
                p += 1
            intercepts.append(Fraction(p, q))  # never an integer
        below_one += sum(i < 1 for i in intercepts)
        simplex = simplex_weights(*intercepts)
        assert supersym.lattice_count(*simplex) == scan_lattice_count(*simplex), intercepts
    assert below_one > 0


def test_lattice_count_matches_scan_on_rho_simplices():
    checked = 0
    for a, b, c in supersym.coprime_triples(3000):
        simplex = supersym.rho_simplex(a, b, c)
        if simplex is None:
            continue
        checked += 1
        assert supersym.lattice_count(*simplex) == scan_lattice_count(*simplex), (a, b, c)
    assert checked == 1965


def test_lattice_count_loops_over_the_smallest_intercept(monkeypatch):
    # one floor sum per value of the outer variable, which must be the one
    # with the fewest values: floor(min intercept) + 1 of them
    calls = []
    floor_sum = supersym._floor_sum

    def counted(*args):
        calls.append(args)
        return floor_sum(*args)

    monkeypatch.setattr(supersym, "_floor_sum", counted)
    for intercepts in (
        (Fraction(1000), Fraction(2), Fraction(1)),
        (Fraction(1000), Fraction(1, 2), Fraction(3)),
        (Fraction(7, 2), Fraction(1000), Fraction(999)),
    ):
        calls.clear()
        simplex = simplex_weights(*intercepts)
        assert supersym.lattice_count(*simplex) == scan_lattice_count(*simplex)
        assert len(calls) == int(min(intercepts)) + 1


def test_yz_bounds_on_rho_simplex():
    simplex = supersym.rho_simplex(4, 5, 7)
    assert supersym.yz_hypothesis(*simplex)
    count = supersym.lattice_count(*simplex)
    weak = supersym.yz_weak_bound(*simplex)
    strong = supersym.yz_strong_bound(*simplex)
    assert count <= strong <= weak or count <= strong  # weak may be looser
    assert strong == Fraction(12)
    # out-of-hypothesis simplex is flagged, not rejected
    small = supersym.rho_simplex(3, 4, 5)
    assert not supersym.yz_hypothesis(*small)
    assert supersym.yz_weak_bound(*small) > 0


def intercept_form_yz(u: int, v: int, w: int, bound: int) -> tuple[bool, Fraction, Fraction]:
    """Oracle: the Yau-Zhang hypothesis and bounds as stated, in the intercepts and eta."""
    alpha, beta, gamma = Fraction(bound, u), Fraction(bound, v), Fraction(bound, w)
    eta = 1 / alpha + 1 / beta + 1 / gamma
    return (
        alpha >= beta >= gamma >= 1,
        alpha * beta * gamma * (1 + eta) ** 3 / 6,
        (alpha * (1 + eta) - 1) * (beta * (1 + eta) - 1) * (gamma * (1 + eta) - 1) / 6,
    )


def test_yz_integer_forms_match_intercept_form():
    simplices = [supersym.rho_simplex(*t) for t in supersym.coprime_triples(3000)]
    simplices = [s for s in simplices if s is not None]
    assert len(simplices) == 1965
    rng = random.Random(10)
    for _ in range(600):  # small ranges, so that ties such as w == bound occur
        simplices.append(tuple(rng.randrange(1, 8) for _ in range(3)) + (rng.randrange(1, 16),))
    in_hypothesis = 0
    for simplex in simplices:
        hypothesis, weak, strong = intercept_form_yz(*simplex)
        assert supersym.yz_hypothesis(*simplex) == hypothesis, simplex
        assert supersym.yz_weak_bound(*simplex) == weak, simplex
        assert supersym.yz_strong_bound(*simplex) == strong, simplex
        in_hypothesis += hypothesis
    assert 0 < in_hypothesis < len(simplices)


def test_normal_form_and_membership():
    assert list(supersym.abc_normal_forms(3, 4, 5, (0, 1, 61, 60))) == [
        (0, 0, 0), (3, 3, -4), (3, 3, -1), (0, 0, 3)
    ]
    s = NumericalSemigroup((12, 15, 20))
    zs = [z for _, _, z in supersym.abc_normal_forms(3, 4, 5, range(160))]
    assert [z >= 0 for z in zs] == [n in s for n in range(160)]


def test_normal_form_bounds():
    ns = range(-5, 200, 7)
    for n, (x, y, z) in zip(ns, supersym.abc_normal_forms(3, 5, 7, ns)):
        assert 0 <= x < 7 and 0 <= y < 5
        assert 15 * x + 21 * y + 35 * z == n


def test_normal_form_raises_on_inexact_reduction(monkeypatch):
    # a broken inverse leaves a remainder; the check survives python -O
    monkeypatch.setattr(supersym, "pow", lambda *args: 0, raising=False)
    with pytest.raises(MethodMismatchError, match="Chinese-remainder"):
        next(supersym.abc_normal_forms(3, 4, 5, (1,)))


def test_members_below_match_the_normal_form():
    # one scan over many n equals one call per n, and checks its triple
    for a, b, c in [(2, 3, 5), (3, 4, 5), (3, 5, 7), (4, 5, 9)]:
        ns = range(2 * a * b * c)
        expected = [next(supersym.abc_normal_forms(a, b, c, (n,))) for n in ns]
        assert list(supersym.abc_normal_forms(a, b, c, ns)) == expected, (a, b, c)
    assert list(supersym.abc_normal_forms(3, 4, 5, range(0))) == []
    with pytest.raises(ValueError):
        list(supersym.abc_normal_forms(3, 6, 7, range(10)))


def test_members_below_raise_on_inexact_reduction(monkeypatch):
    monkeypatch.setattr(supersym, "pow", lambda *args: 0, raising=False)
    with pytest.raises(MethodMismatchError, match="Chinese-remainder reduction of 1 "):
        list(supersym.abc_normal_forms(3, 4, 5, range(2)))


def test_all_factorizations():
    facs = supersym.abc_all_factorizations(3, 4, 5, 60)
    assert set(facs) == {(5, 0, 0), (0, 4, 0), (0, 0, 3)}
    s = NumericalSemigroup((12, 15, 20))
    for n in (0, 12, 27, 47, 60, 120):
        direct = set(s.factorizations(n))
        shifted = set(supersym.abc_all_factorizations(3, 4, 5, n))
        assert direct == shifted


def test_unique_factorization_below_abc():
    for a, b, c in [(2, 3, 5), (3, 4, 5), (3, 5, 7)]:
        s = supersym.supersym_semigroup(a, b, c)
        for n in range(a * b * c):
            if n in s:
                assert len(s.factorizations(n)) == 1, (a, b, c, n)


def test_residue_triples():
    assert supersym.residue_triple(3, 5, 7) == (2, 1, 1)
    assert supersym.residue_triple(3, 4, 5) == (2, 3, 3)


def test_min_congruent_one():
    assert supersym.min_congruent_one(3, 5, 7) == 106  # = abc + 1
    assert supersym.min_congruent_one(3, 4, 5) == 121  # = 2 abc + 1
    for a, b, c in supersym.coprime_triples(800):
        value = supersym.min_congruent_one(a, b, c)
        abc = a * b * c
        assert value in (abc + 1, 2 * abc + 1)
        assert next(supersym.abc_normal_forms(a, b, c, (value,)))[2] >= 0


def test_min_congruent_one_raises_on_wrong_residue_triple(monkeypatch):
    monkeypatch.setattr(supersym, "residue_triple", lambda a, b, c: (1, 1, 1))
    with pytest.raises(MethodMismatchError, match="neither abc \\+ 1 nor 2abc \\+ 1"):
        supersym.min_congruent_one(3, 4, 5)


def test_genus_formula_raises_on_even_frobenius(monkeypatch):
    monkeypatch.setattr(supersym, "frobenius_formula", lambda a, b, c: 58)
    with pytest.raises(MethodMismatchError, match="Frobenius number 58 is even"):
        supersym.genus_formula(3, 4, 5)


def test_s_prime_formulas():
    sp = supersym.s_prime(3, 4, 5)
    assert sp.generators == (12, 15, 20, 61)
    assert supersym.s_prime_invariants(3, 4, 5) == (35, 58)
    assert (sp.genus, sp.frobenius) == (35, 58)
    sp2 = supersym.s_prime(4, 5, 7)
    assert (sp2.genus, sp2.frobenius) == (96, 177)
    assert supersym.s_prime_invariants(4, 5, 7) == (96, 177)


def test_s_prime_is_none_when_abc_plus_one_inside():
    # 106 = abc + 1 is already a member for (3,5,7)
    assert supersym.min_congruent_one(3, 5, 7) == 106
    assert supersym.s_prime(3, 5, 7) is None
    assert supersym.s_prime_invariants(3, 5, 7) is None


def test_s_prime_is_none_exactly_where_abc_plus_one_is_a_member():
    for a, b, c in supersym.coprime_triples(2000):
        sp = supersym.s_prime(a, b, c)
        invariants = supersym.s_prime_invariants(a, b, c)
        member = supersym.supersym_semigroup(a, b, c).contains(a * b * c + 1)
        assert (sp is None) == (invariants is None) == member, (a, b, c)
        if sp is not None:
            assert (sp.genus, sp.frobenius) == invariants, (a, b, c)


def test_generic_contains_abc_plus():
    result = verify.check_supersym_generic_contains(trials=1)
    assert [(row.label, row.detail) for row in result.rows] == [
        ("(3, 4, 5) seed 0 achieves abc+1, abc+2", "got (True, True)"),
        ("(2, 3, 5) seed 0 achieves abc+1, abc+2", "got (True, True)"),
    ]
    assert result.passed


def test_supersym_imports_nothing_from_series():
    # Monte Carlo stays in series; supersym is the exact closed forms only
    tree = ast.parse(Path(supersym.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name("." * node.level + (node.module or ""), "cuspsemi")
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert "cuspsemi.series" not in imported


def test_monte_carlo_drivers_share_one_horizon_limit(monkeypatch):
    # both drivers try the same horizons for the profile (12, 15, 20) of the
    # triple (3, 4, 5): start_precision, then steps of 3/2, the last one at or
    # above the former last horizon, eight doublings of twice the conductor + 2
    attempts = []

    def never_captured(profile, precision, prime=series.DEFAULT_PRIME, seed=0):
        attempts.append(precision)
        raise series.PrecisionTooSmallError("stub")

    monkeypatch.setattr(series, "value_semigroup", never_captured)
    with pytest.raises(series.PrecisionTooSmallError):
        series.empirical_generic_semigroup((12, 15, 20))
    generic_attempts = list(attempts)
    attempts.clear()
    with pytest.raises(series.PrecisionTooSmallError):
        verify.check_supersym_generic_contains(trials=1)
    assert generic_attempts == attempts
    ladder = [series.start_precision((12, 15, 20))]
    while len(ladder) < series._HORIZON_ATTEMPTS:
        ladder.append(ladder[-1] + ladder[-1] // 2)
    assert attempts == ladder
    assert attempts[-1] >= (2 * NumericalSemigroup((12, 15, 20)).conductor + 2) * 2**8


@pytest.mark.parametrize(
    "driver, achieved_below, conductor",
    [
        (lambda: series.empirical_generic_semigroup((4, 6)), (0, 4, 6, 7), 9),
        (lambda: verify.check_supersym_generic_contains(trials=1), (0, 6, 10, 11), 13),
    ],
    ids=["empirical_generic_semigroup", "generic_contains_abc_plus"],
)
def test_monte_carlo_drivers_reject_sets_not_closed_under_addition(
    monkeypatch, driver, achieved_below, conductor
):
    # closed above the conductor, but 4 + 4 = 8 and 6 + 6 = 12 are missing below it
    def not_closed(profile, precision, prime=series.DEFAULT_PRIME, seed=0):
        return achieved_below + tuple(range(conductor, precision))

    monkeypatch.setattr(series, "value_semigroup", not_closed)
    with pytest.raises(RuntimeError, match="additively closed"):
        driver()


def test_start_precision_captures_supersym_conductors():
    # the monoid <ab, ac, bc> lies inside the value semigroup, so the echelon
    # stops by its conductor + ab; abc + 1 and abc + 2 are then asked of the
    # captured semigroup, which holds every value from its conductor on
    for a, b, c in supersym.coprime_triples(5000):
        orders = pairwise_products(a, b, c)
        monoid = supersym.supersym_semigroup(a, b, c)
        assert series.start_precision(orders) >= monoid.conductor + orders[0] + 1
    for triple in ((2, 3, 5), (3, 4, 5), (2, 5, 7), (3, 5, 7)):
        orders = pairwise_products(*triple)
        assert series.value_semigroup(orders, series.start_precision(orders), seed=1)


def test_betti_full_sweep():
    assert verify.check_betti_supersym(max_abc=2000).passed
