from fractions import Fraction

import pytest

from cuspsemi import severi, supersym


def test_generic_codim():
    # sum of r_i - i over the profile, 1-indexed, minus one: r1 + r2 + r3 - 7
    assert severi.generic_codim((12, 15, 20)) == 11 + 13 + 17 - 1
    assert severi.generic_codim((12, 15, 20)) == 12 + 15 + 20 - 7
    for orders in ((3, 3, 5), (0, 2, 3), (1, 2, 3)):  # (1, 2, 3) is unramified
        with pytest.raises(ValueError):
            severi.generic_codim(orders)


def test_bound_polynomial_signs():
    assert severi.bound_polynomial(4, 5, 7) == Fraction(-1, 2)
    assert severi.bound_polynomial(4, 7, 9) == Fraction(21, 2)
    assert severi.bound_polynomial(5, 6, 7) == Fraction(17, 2)
    with pytest.raises(ValueError, match="pairwise coprime"):
        severi.bound_polynomial(2, 4, 5)


def fraction_bound_checks(a, b, c, r):
    """Oracle: the bound polynomial, and the rhobound1 and f-polynomial checks, in Fractions."""
    pairs = a * b + a * c + b * c
    fpoly = Fraction(a * b * c, 3) - Fraction(7 * pairs, 12) - Fraction(a + b + c, 6) + Fraction(47, 12)
    rho_cap = Fraction(a * b * c, 2) - Fraction(3 * pairs, 4) + Fraction(15, 4)
    return fpoly, {"rhobound1": Fraction(r) < rho_cap, "f-polynomial": fpoly >= 0}


def test_integer_bound_checks_match_fractions():
    signs = set()
    for a, b, c in supersym.coprime_triples(5000):
        rep = severi.excess_supersym(a, b, c)
        r = (rep.codim - (a * b + a * c + b * c) + 7) // 2
        fpoly, checks = fraction_bound_checks(a, b, c, r)
        assert severi.bound_polynomial(a, b, c) == fpoly
        assert rep.checks == checks, (a, b, c)
        signs.add((checks["rhobound1"], checks["f-polynomial"]))
    assert signs == {(True, True), (True, False), (False, False)}


def test_excess_supersym_reports():
    rep = severi.excess_supersym(4, 5, 9)
    assert rep.genus == 130
    assert rep.codim == 114
    assert rep.excess
    assert rep.checks["rhobound1"] is True

    rep2 = severi.excess_supersym(4, 7, 9)
    assert (rep2.codim, rep2.genus, rep2.excess) == (152, 189, True)

    rep3 = severi.excess_supersym(5, 6, 7)
    assert (rep3.codim, rep3.genus) == (128, 157)


def test_excess_boundary_case():
    # the one coprime triple with a >= 4 where the polynomial criterion
    # fails; the direct count still shows the stratum is excess
    rep = severi.excess_supersym(4, 5, 7)
    assert rep.codim == 92
    assert rep.genus == 99
    assert rep.excess
    assert severi.bound_polynomial(4, 5, 7) < 0


def test_excess_trace_lookup():
    rep = severi.excess_supersym(4, 5, 9)
    with pytest.raises(KeyError):
        rep.checks["no-such-predicate"]
    assert set(rep.checks) == {"rhobound1", "f-polynomial"}
    assert set(severi.excess_generic_supersym(4, 5, 9).checks) == {"rhobound2"}


def test_excess_generic_supersym():
    rep = severi.excess_generic_supersym(4, 5, 9)
    assert rep.codim == 4 * 5 + 4 * 9 + 5 * 9 - 7
    # the default genus is the gap count below abc, here counted by the normal form
    assert rep.genus == 180 - sum(z >= 0 for _, _, z in supersym.abc_normal_forms(4, 5, 9, range(180)))
    assert rep.excess == (rep.codim < rep.genus)
    assert rep.checks["rhobound2"] is True
    # the bound is strict: 192 members below abc against a cap of 192, then 205 against 206
    assert severi.excess_generic_supersym(2, 9, 29).checks == {"rhobound2": False}
    assert severi.excess_generic_supersym(2, 9, 31).checks == {"rhobound2": True}


def test_small_triples_not_excess():
    rep = severi.excess_supersym(2, 3, 5)
    assert not rep.excess
