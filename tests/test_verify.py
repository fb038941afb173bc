import inspect

from cuspsemi import verify
from cuspsemi.verify import CheckResult, CheckRow


def test_registry_shape():
    assert len(verify.THEOREMS) == 18
    for name, (description, func) in verify.THEOREMS.items():
        assert name == name.lower()
        assert " " not in name
        assert description
        assert callable(func)


def test_registry_checkers_have_defaults():
    # the CLI calls checkers with only the flags the user passed, so every
    # parameter needs a usable default
    for _, func in verify.THEOREMS.values():
        for param in inspect.signature(func).parameters.values():
            assert param.default is not inspect.Parameter.empty, func.__name__


def test_passed_semantics():
    ok = CheckRow("x", True)
    bad = CheckRow("y", False)
    info = CheckRow("z", None)
    assert CheckResult("t", [ok, info]).passed
    assert not CheckResult("t", [ok, bad]).passed
    # informational rows alone do not fail a result
    assert CheckResult("t", [info]).passed
    # a check that checked nothing does not pass
    assert not CheckResult("t").passed


def test_row_appender():
    res = CheckResult("t")
    res.row("alpha", True, "d")
    assert res.rows == [CheckRow("alpha", True, "d")]


def test_small_sweep_checkers_pass():
    assert verify.check_supersym_invariants(max_abc=400).passed
    assert verify.check_rho_simplex(max_abc=400).passed
    assert verify.check_min_congruent_one(max_abc=400).passed
    assert verify.check_m2_gaps(l_lo=4, l_hi=8).passed


def test_factorization_checkers_default_bounds():
    assert verify.check_unique_factorization().passed
    assert verify.check_betti_supersym().passed


def test_apery_checkers():
    assert verify.check_apery_even(l_max=12).passed
    assert verify.check_apery_odd(l_max=13).passed
    assert verify.check_apery_product_lemma(l_max=12).passed


def test_excess_and_extension_checkers():
    assert verify.check_excess_supersym(max_abc=1500).passed
    assert verify.check_excess_generic(max_abc=1500).passed
    assert verify.check_sprime(max_abc=1200).passed


def test_asymptotic_checker_is_informational():
    res = verify.check_asymptotic_lower()
    assert res.passed
    assert all(r.ok is None for r in res.rows)


def test_yz_checker_reports_skips():
    res = verify.check_yz_bounds(max_abc=500)
    assert res.passed
    assert any("skipped" in note for note in res.findings)


def test_arith_genus_checker_notes_stated_form():
    res = verify.check_arith_genus_upper(m_lo=2, m_hi=3, l_max=12)
    assert res.passed
    assert any("stated" in note for note in res.findings)


def test_valuation_checker_is_seeded():
    a = verify.check_valuation_lemma(instances=25, seed=9)
    b = verify.check_valuation_lemma(instances=25, seed=9)
    assert a.passed and b.passed
    assert [r.detail for r in a.rows] == [r.detail for r in b.rows]


def test_generic_montecarlo_checker_small():
    res = verify.check_generic_montecarlo(l_lo=4, l_hi=6)
    assert res.passed
    labels = [r.label for r in res.rows]
    assert "three seeds agree" in labels
    assert "lower <= genus <= upper" in labels
