import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from cuspsemi import arith, cli, series, supersym, verify
from cuspsemi.semigroup import NumericalSemigroup
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
    assert verify.check_m2_gaps(l=range(4, 9)).passed


def test_factorization_checkers_default_bounds():
    assert verify.check_unique_factorization().passed
    assert verify.check_betti_supersym().passed


def test_apery_checkers():
    assert verify.check_apery_even(l=range(4, 13)).passed
    assert verify.check_apery_odd(l=range(4, 14)).passed
    assert verify.check_apery_product_lemma(l=range(4, 13)).passed


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
    res = verify.check_arith_genus_upper(m=range(2, 4), l=range(4, 13))
    assert res.passed
    assert any("stated" in note for note in res.findings)


def test_valuation_checker_is_seeded():
    a = verify.check_valuation_lemma(instances=25, seed=9)
    b = verify.check_valuation_lemma(instances=25, seed=9)
    assert a.passed and b.passed
    assert [r.detail for r in a.rows] == [r.detail for r in b.rows]


def test_generic_montecarlo_checker_small():
    res = verify.check_generic_montecarlo(l=range(4, 7))
    assert res.passed
    labels = [r.label for r in res.rows]
    assert "three seeds agree" in labels
    assert "lower <= genus <= upper" in labels


# The sweep runner: one row per label, each counting the instances it took.


def test_sweep_leaves_none_outcomes_out_of_their_row():
    outcomes = {
        0: (True, None, None),
        1: (None, False, None),
        2: (True, True, None),
        3: (None, ["3 once", "3 twice"], None),
    }
    res = CheckResult("t")
    counts = verify._sweep(res, ("a", "b", "c"), outcomes, outcomes.get, name="x={}".format)
    assert counts == [2, 3, 0]
    assert res.rows == [
        CheckRow("a", True, "2 instances"),
        CheckRow("b", False, "failed at x=1, 3 once, 3 twice"),
        CheckRow("c", False, "no instances in range"),
    ]


@pytest.mark.parametrize("outcomes", [(True,), (True, True, True)], ids=["short", "long"])
def test_sweep_rejects_a_probe_with_the_wrong_number_of_outcomes(outcomes):
    with pytest.raises(ValueError):
        verify._sweep(CheckResult("t"), ("a", "b"), [0], lambda x: outcomes)


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (
            ("arith-genus-upper", "--l", "4..4"),
            1,
            "theorem: arith-genus-upper\n"
            "  PASS even ell: formula = sieve genus  [1 instances]\n"
            "  FAIL odd ell: derived value = sieve genus  [no instances in range]\n"
            "  PASS apery gap identity  [1 instances]\n"
            "  FINDING: odd ell: the stated (l+1)(l-2)/4 form matched the sieve on 0 of 0"
            " instances; the derived (l+1)(l-1)/4 form matched all\n"
            "result: FAIL\n",
        ),
        (
            # the simplification row takes only the 744 simplices with abc <= 1500
            ("yz-bounds", "--max-abc", "1600"),
            0,
            "theorem: yz-bounds\n"
            "  PASS count <= weak bound  [492 instances]\n"
            "  PASS count <= strong bound  [492 instances]\n"
            "  PASS strong bound simplification  [744 instances]\n"
            "  FINDING: 328 triples skipped: simplex empty or intercepts below the hypothesis\n"
            "result: PASS\n",
        ),
    ],
    ids=["arith-genus-upper", "yz-bounds"],
)
def test_sweep_rows_count_the_instances_each_took(capsys, argv, code, expected):
    assert cli.main(["verify", *argv]) == code
    assert capsys.readouterr().out == expected


# Failure paths: each test injects one fault and pins the exact row it yields.


def test_sweep_row_shows_first_five_failures(monkeypatch):
    frobenius = supersym.frobenius_formula
    monkeypatch.setattr(supersym, "frobenius_formula", lambda a, b, c: frobenius(a, b, c) + 2)
    res = verify.check_supersym_invariants(max_abc=400)
    assert res.rows[0] == CheckRow(
        "frobenius formula = sieve",
        False,
        "failed at (2,3,5), (2,3,7), (2,3,11), (2,3,13), (2,3,17)",
    )
    assert res.rows[2] == CheckRow("symmetry", True, "101 instances")
    assert not res.passed


def test_rho_row_carries_the_mismatch_text(monkeypatch):
    lattice_count = supersym.lattice_count
    # (10, 14, 35) are the weights of (2,5,7), whose d = 11
    monkeypatch.setattr(
        supersym,
        "lattice_count",
        lambda u, v, w, bound: 0 if (u, v, w) == (10, 14, 35) else lattice_count(u, v, w, bound),
    )
    res = verify.check_rho_simplex(max_abc=100)
    assert res.rows[0] == CheckRow(
        "sieve count = lattice count",
        False,
        "failed at members_below(2,5,7,11): Apery count 2 != lattice count 0",
    )
    assert all(row.ok for row in res.rows[1:])


def test_rho_row_holds_rho_to_the_sieve(monkeypatch):
    rho = supersym.rho
    monkeypatch.setattr(supersym, "rho", lambda a, b, c: rho(a, b, c) + ((a, b, c) == (2, 5, 7)))
    res = verify.check_rho_simplex(max_abc=100)
    assert res.rows[0] == CheckRow(
        "sieve count = lattice count",
        False,
        "failed at rho(2,5,7): sieve count 2 != rho 3",
    )


def test_membership_mismatch_ends_the_scan_of_its_triple(monkeypatch):
    normal_forms = supersym.abc_normal_forms
    # flips the sign of z, and so the membership, at (2,3,7) n=6
    monkeypatch.setattr(
        supersym,
        "abc_normal_forms",
        lambda a, b, c, ns: (
            (x, y, -1 - z if (a, b, c, n) == (2, 3, 7, 6) else z)
            for n, (x, y, z) in zip(ns, normal_forms(a, b, c, ns))
        ),
    )
    res = verify.check_unique_factorization(max_abc=120, samples=3)
    assert res.rows == [
        CheckRow("normal-form membership = sieve", False, "failed at (2,3,7) n=6"),
        CheckRow("unique factorization below abc", True, "13 instances"),
        CheckRow("shifted enumeration = brute force", True, "3 instances"),
    ]


def test_betti_element_below_abc_fails_the_uniqueness_row(monkeypatch):
    betti = NumericalSemigroup.betti_elements
    monkeypatch.setattr(
        NumericalSemigroup,
        "betti_elements",
        lambda self, bound: [6] if self.generators == (6, 14, 21) else betti(self, bound),
    )
    res = verify.check_unique_factorization(max_abc=120, samples=3)
    assert res.rows == [
        CheckRow("normal-form membership = sieve", True, "13 instances"),
        CheckRow("unique factorization below abc", False, "failed at (2,3,7) n=6"),
        CheckRow("shifted enumeration = brute force", True, "3 instances"),
    ]


def test_montecarlo_row_tags_each_failing_branch(monkeypatch):
    approximating = arith.approximating_semigroup
    monkeypatch.setattr(
        arith,
        "approximating_semigroup",
        lambda m, ell, branch="general": (
            NumericalSemigroup((1,)) if m == 2 else approximating(m, ell, branch)
        ),
    )
    res = verify.check_generic_montecarlo(l=range(4, 6))
    assert res.rows[1] == CheckRow(
        "approximating semigroup contained",
        False,
        "failed at ell=4 [general], ell=5 [general], ell=5 [m2]",
    )
    assert [row.ok for row in res.rows] == [True, False, True, True, True, True]


def test_montecarlo_row_tags_name_m_above_two(monkeypatch):
    # odd l at m = 3 takes only the general branch; l = 5 < 2m is skipped
    approximating = arith.approximating_semigroup
    monkeypatch.setattr(
        arith,
        "approximating_semigroup",
        lambda m, ell, branch="general": (
            NumericalSemigroup((1,)) if m == 3 else approximating(m, ell, branch)
        ),
    )
    res = verify.check_generic_montecarlo(m=range(2, 4), l=range(5, 8))
    assert res.rows[1] == CheckRow(
        "approximating semigroup contained",
        False,
        "failed at m=3 ell=6 [general], m=3 ell=7 [general]",
    )
    assert res.rows[0] == CheckRow("three seeds agree", True, "5 instances")


def _fake_montecarlo(monkeypatch, fake):
    """Make ``check_generic_montecarlo`` see ``fake(real)`` for the l = 4 profile (8, 10, 12)."""
    empirical = series.empirical_generic_semigroup

    def patched(orders, *args):
        s = empirical(orders, *args)
        return fake(s) if tuple(orders) == (8, 10, 12) else s

    monkeypatch.setattr(series, "empirical_generic_semigroup", patched)
    return verify.check_generic_montecarlo(l=range(4, 6))


def test_montecarlo_row_tags_forbidden_window_value(monkeypatch):
    # 15 lies in the d = 1 window [15, 16) of (8, 10, 12); 9 stays a gap in [8, 16]
    res = _fake_montecarlo(monkeypatch, lambda s: NumericalSemigroup(s.generators + (15,)))
    assert res.rows[3] == CheckRow(
        "forbidden windows avoid achieved values", False, "failed at ell=4 d=1"
    )
    assert [row.ok for row in res.rows] == [True, True, True, False, True, True]


def test_montecarlo_row_tags_window_with_too_few_gaps(monkeypatch):
    # <8, ..., 15> has no gap in [8, 16], where (8, 10, 12) guarantees one
    res = _fake_montecarlo(monkeypatch, lambda s: NumericalSemigroup(range(8, 16)))
    assert res.rows[4] == CheckRow("window gap counts", False, "failed at ell=4 d=1")
    assert res.rows[3] == CheckRow(
        "forbidden windows avoid achieved values", False, "failed at ell=4 d=1"
    )
    assert res.rows[2] == CheckRow(
        "lower <= genus <= upper", False, "failed at ell=4 (genus 7 not in [8, 16])"
    )
    assert [row.ok for row in res.rows] == [True, True, False, False, False, True]


def test_montecarlo_row_tags_missing_profile_order(monkeypatch):
    # dropping the generator 10 leaves 10 a gap; no sum of 8 reaches it
    res = _fake_montecarlo(
        monkeypatch, lambda s: NumericalSemigroup(g for g in s.generators if g != 10)
    )
    assert res.rows[5] == CheckRow("profile monoid contained", False, "failed at ell=4")
    assert res.rows[1] == CheckRow(
        "approximating semigroup contained", False, "failed at ell=4 [general]"
    )
    assert res.rows[2] == CheckRow(
        "lower <= genus <= upper", False, "failed at ell=4 (genus 17 not in [8, 16])"
    )
    assert [row.ok for row in res.rows] == [True, False, False, True, True, False]


def test_apery_row_tags_profile_residue_and_family(monkeypatch):
    predictions = arith.apery_predictions

    def shifted(m, ell):
        entries = predictions(m, ell)
        if (m, ell) == (2, 6):
            residue, value, family = entries[2]
            entries[2] = (residue, value + m * ell, family)
        return entries

    monkeypatch.setattr(arith, "apery_predictions", shifted)
    res = verify.check_apery_even(m=range(2, 3), l=range(4, 9))
    assert res.rows == [
        CheckRow(
            "formula entries = table entries", False, "failed at (m=2,l=6) residue 4 [nonspecial]"
        ),
        CheckRow(
            "coverage", None, "3 residue classes uncovered by the stated families across 3 profiles"
        ),
    ]


_RANGE_FINDING = (
    "nonspecial family: stated index range j up to ell-1 leaves residues"
    " [1, m*ell-1]; using the genus-identity range instead"
)


def test_apery_range_finding_is_noted_once_and_only_when_a_profile_ran():
    assert verify.check_apery_even(m=range(2, 3), l=range(4, 9)).findings == [_RANGE_FINDING]
    assert verify.check_apery_even(l=range(9, 4)).findings == []


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "arith-genus-upper", "--m", "2..2", "--l", "4..5"),
        ("verify", "apery-even", "--m", "2..2", "--l", "4..5"),
        ("verify", "apery-odd", "--m", "2..2", "--l", "4..5"),
        ("verify", "apery-product-lemma", "--m", "2..2", "--l", "4..5"),
        ("verify", "generic-montecarlo", "--m", "2..2", "--l", "4..5"),
        ("sweep", "--family", "arith", "--m", "2..2", "--l", "4..5"),
    ],
    ids=lambda argv: argv[1] if argv[0] == "verify" else "sweep-arith",
)
def test_arithmetic_sweeps_take_their_profiles_from_arith(monkeypatch, capsys, argv):
    calls = []
    profiles = arith.profiles

    def recorded(m, l):
        calls.append((m, l))
        return profiles(m, l)

    monkeypatch.setattr(arith, "profiles", recorded)
    assert cli.main(list(argv)) == 0
    capsys.readouterr()
    assert calls == [(range(2, 3), range(4, 6))]


def _load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads():
    return _load_perfbench("workloads")


@pytest.mark.parametrize("workload", _load_workloads().NAMES)
def test_registry_output_matches_benchmark_reference(capsys, workload):
    # Acceptance 9 for every benchmark workload: each call prints the bytes
    # the benchmark's reference digests were recorded from.
    workloads = _load_workloads()
    reference = workloads.load_reference()[workload]
    argvs = workloads.argv_list(workload, 0)
    assert len(argvs) == len(reference)
    for argv, expected in zip(argvs, reference):
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        assert workloads.digest(workloads.normalise(argv, 0, out)) == expected, argv


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # The traced benchmark wraps these entry points by name and reads profile
    # orders through series.RamificationProfile; a rename breaks it here first.
    monkeypatch.setitem(sys.modules, "workloads", _load_workloads())
    tracer = _load_perfbench("tracer")
    for name, owner, attr in tracer._TARGETS:
        assert callable(getattr(owner, attr, None)), name
    achieved = series.value_semigroup((8, 10, 12), 40)
    assert tracer._horizon((((8, 10, 12), 40), {}, achieved)) == (40, 28)
    # the product capture reads each operand's and the result's slot count
    f, g, _ = series._draw_base((8, 10, 12), 40, series.DEFAULT_PRIME, 0)
    product = f * g
    assert tracer._mul_capture((f, g), {}, product) == (40 - 8, 40 - 10, 40 - 18)


# Work per instance: each checker builds a triple's objects once.


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "kwargs, triples", [({}, 2913), ({"max_abc": 1500}, 745)], ids=["defaults", "max_abc=1500"]
)
def test_yz_bounds_builds_each_simplex_once(monkeypatch, kwargs, triples):
    calls = _count_calls(monkeypatch, supersym, "rho_simplex")
    assert verify.check_yz_bounds(**kwargs).passed
    assert len(calls) == len(set(calls)) == triples


def test_unique_factorization_builds_each_semigroup_once(monkeypatch):
    calls = _count_calls(monkeypatch, supersym, "supersym_semigroup")
    assert verify.check_unique_factorization().passed
    assert len(calls) == len(set(calls)) == 192


def test_unique_factorization_takes_one_normal_form_per_element(monkeypatch):
    # one per n < abc over the 192 triples, in one abc_normal_forms scan per
    # triple, and one one-n abc_normal_forms call per sample
    calls = _count_calls(monkeypatch, supersym, "abc_normal_forms")
    assert verify.check_unique_factorization().passed
    scans = [(a, b, c, ns) for a, b, c, ns in calls if len(ns) > 1]
    assert len(scans) == 192
    assert sum(len(ns) for a, b, c, ns in scans) == 71_039
    assert all(ns == range(a * b * c) for a, b, c, ns in scans)
    assert len([ns for a, b, c, ns in calls if len(ns) == 1]) == 40
    assert len(calls) == 232


def test_sprime_enumerates_the_triples_once(monkeypatch):
    calls = _count_calls(monkeypatch, supersym, "coprime_triples")
    res = verify.check_sprime(max_abc=1200)
    assert len(calls) == 1
    assert res.findings == ["268 of 538 triples have abc + 1 as a gap"]


def test_sprime_asks_membership_once_per_triple(monkeypatch):
    # once in s_prime for each triple, once more in s_prime_invariants where
    # abc + 1 is a gap, and once for each of the two spot rows; both ask
    # through the least member congruent to 1
    asked = _count_calls(monkeypatch, supersym, "_min_congruent_one")
    res = verify.check_sprime()
    assert res.passed
    assert res.findings == ["1987 of 3949 triples have abc + 1 as a gap"]
    assert len(asked) == 3949 + 1987 + 2


def test_supersym_generic_contains_draws_each_triple_once(monkeypatch):
    starts = _count_calls(monkeypatch, series, "start_precision")
    res = verify.check_supersym_generic_contains(seed=5, trials=4)
    assert res.passed
    assert [row.label for row in res.rows] == [
        f"{triple} seed {seed} achieves abc+1, abc+2"
        for triple in ((3, 4, 5), (2, 3, 5))
        for seed in range(5, 9)
    ]
    assert len(starts) == 2  # one horizon search per triple, shared by its seeds
