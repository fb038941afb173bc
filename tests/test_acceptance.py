"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines as
they complete.  Each criterion is exact (integer or rational comparisons); the
only tolerances are the stated runtime budgets.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

from cuspsemi import verify


@contextmanager
def _verdict(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def _assert_passed(result):
    for row in result.rows:
        assert row.ok is not False, f"{result.theorem}: {row.label} [{row.detail}]"


def test_acceptance_1_supersym_invariants():
    with _verdict(1, "supersymmetric invariants"):
        t0 = time.perf_counter()
        result = verify.check_supersym_invariants(max_abc=5000)
        elapsed = time.perf_counter() - t0
        _assert_passed(result)
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_acceptance_2_rho_equivalence():
    with _verdict(2, "rho equals the lattice count"):
        t0 = time.perf_counter()
        result = verify.check_rho_simplex(max_abc=5000)
        elapsed = time.perf_counter() - t0
        _assert_passed(result)
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_acceptance_3_yau_zhang_bounds():
    with _verdict(3, "lattice-point upper bounds"):
        result = verify.check_yz_bounds(max_abc=5000)
        _assert_passed(result)


def test_acceptance_4_excess_predicates():
    with _verdict(4, "excess-dimension predicates"):
        result = verify.check_excess_supersym(max_abc=4000)
        _assert_passed(result)


def test_acceptance_5_extension_formulas():
    with _verdict(5, "extension genus and frobenius"):
        result = verify.check_sprime(max_abc=5000)
        _assert_passed(result)


def test_acceptance_6_arithmetic_approximations():
    with _verdict(6, "arithmetic approximations"):
        t0 = time.perf_counter()
        gaps = verify.check_m2_gaps(l=range(4, 17))
        genus = verify.check_arith_genus_upper(m=range(2, 5), l=range(4, 21))
        elapsed = time.perf_counter() - t0
        _assert_passed(gaps)
        _assert_passed(genus)
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_acceptance_7_generic_monte_carlo():
    with _verdict(7, "generic-semigroup Monte Carlo"):
        t0 = time.perf_counter()
        montecarlo = verify.check_generic_montecarlo(l=range(4, 11))
        contains = verify.check_supersym_generic_contains()
        elapsed = time.perf_counter() - t0
        _assert_passed(montecarlo)
        _assert_passed(contains)
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_acceptance_8_valuation_bound():
    with _verdict(8, "valuation bound property suite"):
        result = verify.check_valuation_lemma(instances=200)
        _assert_passed(result)
        row = result.rows[0]
        assert "200" in row.detail


def _run(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cuspsemi", *argv], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_acceptance_9_determinism():
    with _verdict(9, "byte-identical reports"):
        for argv in (
            ("sweep", "--family", "supersym", "--max-abc", "600"),
            ("sweep", "--family", "generic", "--l", "4..6", "--seed", "11"),
            ("generic", "--profile", "12,15,20", "--seed", "5"),
            ("info", "--gens", "6,10,15"),
        ):
            assert _run(*argv) == _run(*argv), f"output drifted for {argv}"
        payload = json.loads(_run("generic", "--profile", "12,15,20", "--seed", "5"))
        assert payload["base_seed"] == 5
