import csv
import functools
import hashlib
import inspect
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cuspsemi
from cuspsemi import cli, series, severi, supersym, verify
from cuspsemi.semigroup import NumericalSemigroup
from cuspsemi.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_json(capsys):
    code, out, _ = run_cli(capsys, "info", "--gens", "6,10,15")
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == [6, 10, 15]
    assert payload["frobenius"] == 29
    assert payload["genus"] == 15
    assert payload["symmetric"] is True
    assert payload["apery"] == [0, 25, 20, 15, 10, 35]
    assert payload["betti_bound"] == 50
    assert payload["betti_up_to"] == [30]


@pytest.mark.parametrize(
    "gens, bound, betti",
    [("3,5,7", 14, [10, 12, 14]), ("5,7,9", 27, [14, 25, 27])],
)
def test_info_default_betti_bound_reaches_every_betti_element(capsys, gens, bound, betti):
    # max(Apery set of n1) + largest generator bounds every Betti element; the
    # conductor plus the largest generator (12 and 23 here) misses 14, 25 and 27
    code, out, _ = run_cli(capsys, "info", "--gens", gens)
    assert code == 0
    payload = json.loads(out)
    assert payload["betti_bound"] == bound
    assert payload["betti_up_to"] == betti


def test_info_whole_line_has_null_symmetry(capsys):
    code, out, _ = run_cli(capsys, "info", "--gens", "1")
    assert code == 0
    assert json.loads(out)["symmetric"] is None


def test_info_gcd_usage_error(capsys):
    code, _, err = run_cli(capsys, "info", "--gens", "4,6")
    assert code == 2
    assert "gcd" in err


def test_generic_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "generic", "--profile", "8,10,12", "--seed", "3")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "generic", "--profile", "8,10,12", "--seed", "3")
    assert code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["conductor"] == 28
    assert payload["genus"] == 16
    assert payload["seeds"] == [3, 4, 5]


def test_generic_env_prime(capsys, monkeypatch):
    # CUSPSEMI_PRIME is not read: the prime comes from --prime or the default.
    monkeypatch.setenv("CUSPSEMI_PRIME", "2147483647")
    code, out, _ = run_cli(capsys, "generic", "--profile", "4,6")
    assert code == 0
    payload = json.loads(out)
    assert payload["prime"] == cuspsemi.series.DEFAULT_PRIME
    assert payload["conductor"] == 16
    monkeypatch.setenv("CUSPSEMI_PRIME", "abc")
    code, out, _ = run_cli(capsys, "generic", "--profile", "4,6", "--prime", "2147483647")
    assert code == 0
    assert json.loads(out)["prime"] == 2147483647


def test_generic_rejects_small_prime(capsys):
    code, _, err = run_cli(capsys, "generic", "--profile", "4,6", "--prime", "97")
    assert code == 2
    assert "prime" in err


@pytest.mark.parametrize("modulus", [4294967297, 2147483648, (1 << 89) - 1])
def test_generic_rejects_modulus_that_is_not_a_checked_prime(capsys, modulus):
    # 641 * 6700417, 2**31, and a prime too large for the exact primality check
    code, out, err = run_cli(capsys, "generic", "--profile", "4,6", "--prime", str(modulus))
    assert code == 2
    assert out == ""
    assert "prime" in err


@pytest.mark.parametrize("prime", [(1 << 31) - 1, (1 << 61) - 1])
def test_generic_accepts_mersenne_primes(capsys, prime):
    code, out, _ = run_cli(capsys, "generic", "--profile", "4,6", "--prime", str(prime))
    assert code == 0
    payload = json.loads(out)
    assert payload["prime"] == prime
    assert payload["conductor"] == 16


def test_generic_rejects_prime_zero(capsys):
    code, out, err = run_cli(capsys, "generic", "--profile", "4,6", "--prime", "0")
    assert code == 2
    assert out == ""
    assert "prime" in err


def test_verify_reads_prime(capsys):
    code, out, err = run_cli(capsys, "verify", "supersym-generic-contains", "--prime", "4294967297")
    assert code == 2
    assert "prime" in err


def test_generic_sweep_reads_prime(capsys):
    code, out, err = run_cli(capsys, "sweep", "--family", "generic", "--l", "4..4", "--prime", "2147483647")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == ["4,8,10,12,28,16,8,16,true"]
    code, _, err = run_cli(capsys, "sweep", "--family", "generic", "--l", "4..4", "--prime", "4294967297")
    assert code == 2
    assert "prime" in err


@pytest.mark.parametrize(
    "argv, text",
    [(("generic", "--profile", "4,6", "--prime"), "abc"), (("info", "--gens", "6,10,15", "--betti-bound"), "7")],
    ids=["prime-abc", "betti-bound"],
)
def test_malformed_or_removed_flag_is_a_usage_error(capsys, argv, text):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, text])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-1] in captured.err


def test_info_unwritable_out_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "info", "--gens", "6,10,15", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not target.exists()


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_out_that_is_a_directory_is_a_usage_error(capsys, monkeypatch, tmp_path):
    rows = _count_calls(monkeypatch, cli, "_supersym_row")
    code, out, err = run_cli(
        capsys, "sweep", "--family", "supersym", "--max-abc", "60", "--out", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Is a directory" in err
    assert rows == []  # the file is opened before the first row


def test_generic_out_that_is_a_directory_is_a_usage_error(capsys, monkeypatch, tmp_path):
    draws = _count_calls(monkeypatch, series, "empirical_generic_semigroup")
    code, out, err = run_cli(capsys, "generic", "--profile", "8,10,12", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Is a directory" in err
    assert draws == []  # the file is opened before the first draw


def test_supersym_sweep_asks_membership_once_per_row(capsys, monkeypatch):
    # a row asks whether abc + 1 is a member through the least member congruent to 1
    asked = _count_calls(monkeypatch, supersym, "_min_congruent_one")
    code, out, _ = run_cli(capsys, "sweep", "--family", "supersym", "--max-abc", "300")
    assert code == 0
    lines = out.splitlines()[2:]
    assert {line.split(",")[11] for line in lines} == {"true", "false"}
    assert sorted(args[:3] for args in asked) == sorted(tuple(map(int, line.split(",")[:3])) for line in lines)


def test_supersym_sweep_row_call_budget(capsys, monkeypatch):
    # one row: the triple checked by excess_supersym and again by rho, one
    # residue triple (three pow), one Apery count and one lattice count
    counted = {name: _count_calls(monkeypatch, supersym, name)
               for name in ("pairwise_products", "_apery_count_below", "lattice_count")}
    # severi imports pairwise_products by name; both bindings are counted
    monkeypatch.setattr(severi, "pairwise_products", supersym.pairwise_products)
    counted["pow"] = []

    def counted_pow(*args):
        counted["pow"].append(args)
        return pow(*args)

    monkeypatch.setattr(supersym, "pow", counted_pow, raising=False)
    per_row = []
    row = cli._supersym_row

    def budgeted_row(*t):
        before = {name: len(calls) for name, calls in counted.items()}
        out = row(*t)
        per_row.append({name: len(calls) - before[name] for name, calls in counted.items()})
        return out

    monkeypatch.setattr(cli, "_supersym_row", budgeted_row)
    code, _, _ = run_cli(capsys, "sweep", "--family", "supersym", "--max-abc", "1500")
    assert code == 0
    assert len(per_row) == len(list(supersym.coprime_triples(1500)))
    assert max(calls["pairwise_products"] for calls in per_row) <= 2
    assert all(calls["pow"] == 3 for calls in per_row)
    assert all(calls["_apery_count_below"] == calls["lattice_count"] == 1 for calls in per_row)


def test_supersym_sweep_rows_match_their_oracles():
    # every column against the membership sieve of <ab, ac, bc> and of the extension
    columns = cli._SUPERSYM_COLUMNS
    for a, b, c in supersym.coprime_triples(2000):
        row = dict(zip(columns, cli._supersym_row(a, b, c), strict=True))
        s = supersym.supersym_semigroup(a, b, c)
        abc, pairs = a * b * c, a * b + a * c + b * c
        rho = s.member_count_below(abc - pairs)
        codim = 2 * rho + pairs - 7
        applicable = not s.contains(abc + 1)
        expected = {
            "a": a, "b": b, "c": c, "genus": s.genus, "frobenius": s.frobenius, "rho": rho,
            "codim": codim, "nodal_codim": s.genus, "excess": codim < s.genus,
            "rhobound1_holds": Fraction(rho) < Fraction(abc, 2) - Fraction(3 * pairs, 4) + Fraction(15, 4),
            "F_poly_sign": "nonnegative" if severi.bound_polynomial(a, b, c) >= 0 else "negative",
            "sprime_applicable": applicable, "sprime_genus": None, "sprime_frobenius": None,
        }
        if applicable:
            extension = NumericalSemigroup((a * b, a * c, b * c, abc + 1))
            expected["sprime_genus"], expected["sprime_frobenius"] = extension.genus, extension.frobenius
        assert row == expected, (a, b, c)


def test_generic_sweep_rejects_a_bad_profile_before_any_draw(capsys, monkeypatch):
    draws = _count_calls(monkeypatch, series, "empirical_generic_semigroup")
    code, out, err = run_cli(capsys, "sweep", "--family", "generic", "--l", "1..1")
    assert code == 2
    assert out == ""
    assert err == "error: need m >= 2 and ell >= 2\n"
    assert draws == []


@pytest.mark.parametrize(
    "argv",
    [
        ("m2-gaps", "--l", "9..4"),
        ("rho-simplex", "--max-abc", "20"),
        ("supersym-generic-contains", "--trials", "0"),
    ],
)
def test_verify_that_checks_nothing_fails(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert "result: FAIL" in out


@pytest.mark.parametrize(
    "argv, rows",
    [
        (
            ("valuation-lemma", "--instances", "-1"),
            ["FAIL valuation <= min + N - 1 over -1 draws  [no instances in range]"],
        ),
        (
            ("unique-factorization", "--samples", "-3"),
            [
                "PASS normal-form membership = sieve  [192 instances]",
                "FAIL shifted enumeration = brute force  [no instances in range]",
            ],
        ),
        (
            ("unique-factorization", "--max-abc", "20"),
            [
                "FAIL normal-form membership = sieve  [no instances in range]",
                "FAIL unique factorization below abc  [no instances in range]",
                "FAIL shifted enumeration = brute force  [no instances in range]",
            ],
        ),
    ],
)
def test_verify_rows_count_the_instances_that_ran(capsys, argv, rows):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert err == ""
    for row in rows:
        assert f"  {row}\n" in out
    assert out.endswith("result: FAIL\n")


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "m2-gaps")
    assert code == 0
    assert "result: PASS" in out


@pytest.mark.parametrize("trials, label", [("5", "five seeds agree"), ("11", "11 seeds agree")])
def test_verify_generic_montecarlo_names_its_trial_count(capsys, trials, label):
    code, out, _ = run_cli(capsys, "verify", "generic-montecarlo", "--l", "4..4", "--trials", trials)
    assert code == 0
    assert f"PASS {label}  [1 instances]" in out
    assert "three" not in out


def test_verify_generic_montecarlo_reads_m(capsys):
    # m = 3 at l = 6..10 and m = 4 at l = 8..10; l < 2m is skipped without a warning
    code, out, err = run_cli(capsys, "verify", "generic-montecarlo", "--m", "3..4", "--l", "6..10")
    assert code == 0
    assert out.count("  [8 instances]\n") == 6
    assert out.endswith("result: PASS\n")
    assert err == ""


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, "verify", "not-a-theorem")
    assert code == 2
    assert "unknown theorem" in err


def test_verify_requires_theorem(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "theorem id" in err


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list-theorems")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(verify.THEOREMS)
    assert lines == sorted(lines)


@pytest.mark.parametrize(
    "argv, unread",
    [
        (("sprime", "--list-theorems"), "theorem id, got 'sprime'"),
        (("--list-theorems", "--m", "3..4"), "--m"),
        (("--list-theorems", "--max-abc", "300", "--trials", "9"), "--max-abc, --trials"),
    ],
    ids=["id", "m", "max-abc-trials"],
)
def test_verify_list_takes_no_id_and_no_flag(capsys, argv, unread):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: verify --list-theorems takes no {unread}\n"


def test_verify_list_accepts_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list-theorems", "--seed", "3")
    assert code == 0
    assert len(out.splitlines()) == len(verify.THEOREMS)


def test_verify_failure_exit_one(capsys, monkeypatch):
    def broken():
        res = CheckResult("broken")
        res.row("always fails", False, "synthetic")
        return res

    monkeypatch.setitem(verify.THEOREMS, "broken", ("synthetic failure", broken))
    code, out, _ = run_cli(capsys, "verify", "broken")
    assert code == 1
    assert "FAIL always fails" in out
    assert "result: FAIL" in out



@pytest.mark.parametrize("argv", [("--max-abc", "500", "--seed", "3"), ("--l", "4..5")])
def test_verify_reads_flags_through_a_wraps_wrapper(capsys, monkeypatch, argv):
    # perfbench/tracer.py wraps every checker this way; its parameters are read through __wrapped__
    plain = run_cli(capsys, "verify", "sprime", *argv)
    description, func = verify.THEOREMS["sprime"]

    @functools.wraps(func)
    def wrapped(*args, **kwargs):
        return func(*args, **kwargs)

    monkeypatch.setitem(verify.THEOREMS, "sprime", (description, wrapped))
    assert run_cli(capsys, "verify", "sprime", *argv) == plain
    assert plain[0] == (0 if "--seed" in argv else 2)


def test_cli_import_loads_neither_inspect_nor_dataclasses():
    # either one pulls in ast, dis and tokenize: about 1 MB and several ms per start
    src = str(Path(cuspsemi.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); import cuspsemi.cli; "
        "print(sorted({'inspect', 'dataclasses'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"

def test_verify_flag_passthrough(capsys):
    code, out, _ = run_cli(capsys, "verify", "supersym-invariants", "--max-abc", "300")
    assert code == 0
    assert "result: PASS" in out


def test_verify_flags_reach_every_checker_parameter():
    # every verify flag set to its own value; a flag is the checker parameter
    # of the same name, so a renamed parameter loses its flag here
    flag_values = {
        "max_abc": ("101", 101), "l": ("102..103", range(102, 104)), "m": ("104", range(104, 105)),
        "trials": ("107", 107), "seed": ("108", 108), "prime": ("109", 109),
        "instances": ("110", 110), "samples": ("111", 111), "eps": ("0.25", 0.25),
    }
    parser = cli.build_parser()
    defaults = vars(parser.parse_args(["verify"]))
    flags = {dest for dest in defaults if dest not in ("command", "func", "theorem", "list_theorems")}
    params = {
        name: list(inspect.signature(func).parameters) for name, (_, func) in verify.THEOREMS.items()
    }
    assert flags == set(flag_values) == set().union(*params.values())
    for name, (_, func) in verify.THEOREMS.items():
        # each checker gets its own flags, and --seed, which every id accepts
        argv = ["verify", name]
        for dest in sorted({*params[name], "seed"}):
            argv += ["--" + dest.replace("_", "-"), flag_values[dest][0]]
        args = parser.parse_args(argv)
        assert cli._flag_kwargs(func, args, name) == {p: flag_values[p][1] for p in params[name]}, name

    # every sweep flag but --family, --format and --out is a parameter of some family
    sweep_flags = set(vars(parser.parse_args(["sweep", "--family", "arith"])))
    sweep_flags -= {"command", "func", "family", "format", "out"}
    families = cli._SWEEPS.values()
    assert sweep_flags == set().union(*(inspect.signature(rows).parameters for _, rows in families))


@pytest.mark.parametrize(
    "argv, unread",
    [
        (("supersym", "--max-abc", "200", "--l", "4..5", "--m", "3", "--trials", "9"), "--m, --l, --trials"),
        (("arith", "--l", "4..6", "--max-abc", "7", "--min-a", "5", "--trials", "9"),
         "--max-abc, --min-a, --trials"),
        (("generic", "--max-abc", "9", "--l", "4..4"), "--max-abc"),
        (("supersym", "--max-abc", "60", "--prime", "2147483647"), "--prime"),
    ],
    ids=["supersym-m-l-trials", "arith-max-abc-min-a-trials", "generic-max-abc", "supersym-prime"],
)
def test_sweep_rejects_a_flag_its_family_does_not_read(capsys, tmp_path, argv, unread):
    target = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "sweep", "--family", *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: sweep --family {argv[0]} takes no {unread}\n"
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [("supersym", "--max-abc", "60"), ("arith", "--m", "2", "--l", "4"), ("generic", "--l", "4")],
    ids=["supersym", "arith", "generic"],
)
def test_sweep_accepts_seed_for_every_family(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", "--family", *argv, "--seed", "3")
    assert (code, err) == (0, "")
    assert out.startswith(f"# cuspsemi {cuspsemi.__version__} family={argv[0]} seed=3\n")
    assert len(out.splitlines()) > 2


def test_small_ell_warnings_are_one_line_each(capsys):
    # the message alone, not the source line that raised it
    code, out, err = run_cli(capsys, "sweep", "--family", "generic", "--l", "2..3")
    assert code == 0
    assert out.splitlines()[2:] == ["2,4,6,8,12,6,3,6,true", "3,6,8,10,16,10,5,10,true"]
    assert err == (
        "warning: ell=2 is below 2*m=4; the closed forms are outside their hypotheses\n"
        "warning: ell=3 is below 2*m=4; the closed forms are outside their hypotheses\n"
    )


@pytest.mark.parametrize(
    "argv, unread",
    [
        (("m2-gaps", "--m", "3..4"), "--m"),
        (("rho-simplex", "--trials", "9"), "--trials"),
        (("rho-simplex", "--max-abc", "300", "--trials", "9", "--l", "4..5"), "--l, --trials"),
        (("m2-gaps", "--prime", "2147483647"), "--prime"),
    ],
    ids=["m2-gaps-m", "rho-simplex-trials", "rho-simplex-l-trials", "m2-gaps-prime"],
)
def test_verify_rejects_a_flag_its_checker_does_not_read(capsys, argv, unread):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: verify {argv[0]} takes no {unread}\n"


def test_verify_accepts_seed_for_every_id(capsys):
    code, out, _ = run_cli(capsys, "verify", "rho-simplex", "--seed", "3")
    assert code == 0
    assert out.endswith("result: PASS\n")


@pytest.mark.parametrize("text, parsed", [("4..9", range(4, 10)), ("7", range(7, 8)), ("9..4", range(9, 5))])
def test_range_flag_is_a_range(text, parsed):
    assert cli.build_parser().parse_args(["verify", "--l", text]).l == parsed


@pytest.mark.parametrize("text", ["4..", "..5", "1..2..3", "a..b"])
@pytest.mark.parametrize("command", [("verify", "m2-gaps", "--l"), ("sweep", "--family", "arith", "--m")])
def test_malformed_range_is_a_usage_error(capsys, command, text):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, text])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected N or LO..HI, got '{text}'" in captured.err


@pytest.mark.parametrize("flag, text", [("--m", "5..2"), ("--l", "12..4")])
def test_arith_sweep_over_an_empty_range_has_no_rows(capsys, flag, text):
    # an empty range is given, not absent: the default ranges do not replace it
    code, out, _ = run_cli(capsys, "sweep", "--family", "arith", flag, text)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("# cuspsemi ") and lines[1].startswith("m,l,genus,")


def test_verify_has_no_l_max_flag(capsys):
    # the top of the l range is --l LO..HI
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "apery-even", "--l-max", "12"])
    assert exc.value.code == 2
    assert "--l-max" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_verify_rejects_a_non_finite_eps(capsys, eps):
    code, out, err = run_cli(capsys, "verify", "asymptotic-lower", f"--eps={eps}")
    assert code == 2
    assert out == ""
    assert err == f"error: eps must be finite, got {eps}\n"


def test_sweep_supersym_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "supersym", "--max-abc", "300")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# cuspsemi ")
    assert lines[1].split(",")[:4] == ["a", "b", "c", "genus"]
    first = lines[2].split(",")
    assert first[:3] == ["2", "3", "5"]
    # rows come out in ascending (a, b, c) order
    keys = [tuple(map(int, ln.split(",")[:3])) for ln in lines[2:]]
    assert keys == sorted(keys)


def test_supersym_sweep_nodal_codim_is_the_genus(capsys):
    # (n - 2) * genus in P^3
    code, out, _ = run_cli(capsys, "sweep", "--family", "supersym", "--max-abc", "2000", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and all(row["nodal_codim"] == row["genus"] for row in rows)


def test_sweep_failures_keep_their_order(capsys, monkeypatch, tmp_path):
    target = tmp_path / "rows.csv"
    # a bad --min-a fails before --out is opened
    code, _, err = run_cli(capsys, "sweep", "--family", "supersym", "--min-a", "1", "--out", str(target))
    assert code == 2 and "min_a must be at least 2" in err
    assert not target.exists()

    # every row is computed before any output, so a failing second row writes nothing
    rows = []
    original = cli._supersym_row

    def second_row_fails(a, b, c):
        rows.append((a, b, c))
        if len(rows) == 2:
            raise ArithmeticError("row failed")
        return original(a, b, c)

    monkeypatch.setattr(cli, "_supersym_row", second_row_fails)
    code, out, err = run_cli(capsys, "sweep", "--family", "supersym", "--max-abc", "200", "--out", str(target))
    assert (code, out, err) == (3, "", "error: row failed\n")
    assert rows == [(2, 3, 5), (2, 3, 7)]
    assert target.read_text() == ""



# SHA-256 of sweep stdout, recorded before the rows were kept as text; the
# first line carries the toolkit version, so a version bump moves every pin
SWEEP_SHA256 = [
    (("--family", "supersym", "--max-abc", "2000"),
     "865c9b418352cb7fed07ae25c0b3c64bf53d961899f3e837a9817d1cb92ee785"),
    (("--family", "supersym", "--max-abc", "2000", "--format", "json"),
     "3941dc9a86073eca1fbb4ba04b8cb4d052e15d3a8e1b05eb18417e1cab74e9ea"),
    (("--family", "arith"), "92b5ce3f2734933284b2d5a00129c6090bffc2f2a7e97ffeb27dd2d5f2911727"),
    (("--family", "generic", "--l", "4..6"), "3bd7cd6683b24a039b65536752acbcf96570f28befa6dac875f515ee4483da88"),
]


@pytest.mark.parametrize("argv, digest", SWEEP_SHA256, ids=lambda x: "_".join(x) if isinstance(x, tuple) else "")
def test_sweep_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "supersym", "--max-abc", "2000", "--seed", "7"),
        ("--family", "supersym", "--max-abc", "10"),
        ("--family", "arith"),
        ("--family", "generic", "--l", "4..5"),
    ],
    ids=["supersym", "supersym-no-rows", "arith", "generic"],
)
def test_json_sweep_is_json_dumps_of_its_payload(capsys, argv):
    # the rows are written as text one at a time; the bytes are those of one
    # json.dumps(indent=2) over the whole payload
    args = cli.build_parser().parse_args(["sweep", *argv])
    columns, rows_fn = cli._SWEEPS[args.family]
    payload = {
        "toolkit_version": cuspsemi.__version__, "family": args.family, "seed": args.seed,
        "rows": [dict(zip(columns, row)) for row in rows_fn(**cli._flag_kwargs(rows_fn, args, "sweep"))],
    }
    code, out, err = run_cli(capsys, "sweep", *argv, "--format", "json")
    assert (code, err) == (0, "")
    # lists of lines: a failing string comparison would be diffed line by line, slowly
    assert out.split("\n") == (json.dumps(payload, indent=2) + "\n").split("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "supersym", "--max-abc", "2000"),
        ("--family", "arith"),
        ("--family", "generic", "--l", "4..5"),
    ],
    ids=["supersym", "arith", "generic"],
)
def test_csv_sweep_rows_are_what_csv_writer_writes(capsys, argv):
    # the rows are joined with commas; csv.writer, with bools as true/false,
    # writes the same line for each
    args = cli.build_parser().parse_args(["sweep", *argv])
    columns, rows_fn = cli._SWEEPS[args.family]
    rows = list(rows_fn(**cli._flag_kwargs(rows_fn, args, "sweep")))
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    lines = out.split("\n")
    assert lines[0].startswith("# cuspsemi ") and lines[-1] == ""
    assert len(lines) == len(rows) + 3
    for line, row in zip(lines[1:-1], [columns, *rows]):
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerow(
            [("true" if v else "false") if type(v) is bool else v for v in row]
        )
        assert line + "\n" == text.getvalue()


def test_sweep_deterministic(capsys):
    args = ("sweep", "--family", "supersym", "--max-abc", "400")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_sweep_supersym_spot_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "supersym", "--max-abc", "200")
    assert code == 0
    rows = out.splitlines()[2:]
    spot = next(ln for ln in rows if ln.startswith("4,5,7,"))
    assert spot == "4,5,7,99,197,8,92,99,true,true,negative,true,96,177"


@pytest.mark.parametrize("min_a", ["0", "1"])
def test_sweep_supersym_rejects_min_a_below_two(capsys, min_a):
    code, out, err = run_cli(capsys, "sweep", "--family", "supersym", "--min-a", min_a, "--max-abc", "10")
    assert code == 2
    assert out == ""
    assert f"min_a must be at least 2, got min_a={min_a}" in err


def test_sweep_arith_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "arith", "--m", "2..2", "--l", "4..8")
    assert code == 0
    lines = out.splitlines()
    header = lines[1].split(",")
    assert header[:3] == ["m", "l", "genus"]
    genus_at = header.index("genus")
    upper_at = header.index("genus_upper")
    for ln in lines[2:]:
        cells = ln.split(",")
        assert cells[genus_at] == cells[upper_at]
    assert lines[2].split(",")[:3] == ["2", "4", "16"]


def test_sweep_generic_requires_three_trials(capsys):
    code, _, err = run_cli(capsys, "sweep", "--family", "generic", "--l", "4..4", "--trials", "2")
    assert code == 2
    assert "trials" in err


def test_sweep_generic_json(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "generic", "--l", "4..5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "generic"
    rows = payload["rows"]
    assert [r["l"] for r in rows] == [4, 5]
    assert all(r["in_bounds"] for r in rows)


def test_sweep_generic_reads_m(capsys):
    argv = ("sweep", "--family", "generic", "--m", "3..3", "--l", "6..6", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (row["l"], row["r1"], row["r2"], row["r3"]) == (6, 18, 21, 24)
    assert row["in_bounds"] is True


def test_sweep_file_output(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--family", "supersym", "--max-abc", "200", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_bytes()
    assert text.startswith(b"# cuspsemi ")
    assert b"\r" not in text  # plain LF line endings


# the exit code README gives for each exception class the package exports
README_EXIT_CODES = {
    "GcdNotOneError": 2,
    "MethodMismatchError": 1,
    "PrecisionTooSmallError": 3,
    "AchievedSetError": 3,
    "SeedDisagreementError": 4,
}
EXPORTED_EXCEPTIONS = [
    name for name in cuspsemi.__all__
    if isinstance(getattr(cuspsemi, name), type) and issubclass(getattr(cuspsemi, name), BaseException)
]


def test_exported_exception_classes_are_the_ones_readme_maps():
    assert sorted(EXPORTED_EXCEPTIONS) == sorted(README_EXIT_CODES)


@pytest.mark.parametrize("name", EXPORTED_EXCEPTIONS)
def test_exported_exception_reaches_its_exit_code(capsys, monkeypatch, name):
    def failing(args):
        raise getattr(cuspsemi, name)(f"{name} raised")

    monkeypatch.setattr(cli, "cmd_info", failing)
    code, out, err = run_cli(capsys, "info", "--gens", "3,5")
    assert (code, out, err) == (README_EXIT_CODES[name], "", f"error: {name} raised\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cuspsemi", "info", "--gens", "12,15,20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["frobenius"] == 73


def test_console_script_parity():
    a = subprocess.run(
        [sys.executable, "-m", "cuspsemi", "sweep", "--family", "supersym", "--max-abc", "200"],
        capture_output=True,
    )
    b = subprocess.run(
        [sys.executable, "-m", "cuspsemi", "sweep", "--family", "supersym", "--max-abc", "200"],
        capture_output=True,
    )
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_generic_achieved_set_error_exits_three(capsys, monkeypatch):
    # closed above the conductor 9, but 4 + 4 = 8 is missing below it
    def not_closed(profile, precision, prime=series.DEFAULT_PRIME, seed=0):
        return (0, 4, 6, 7) + tuple(range(9, precision))

    monkeypatch.setattr(series, "value_semigroup", not_closed)
    code, out, err = run_cli(capsys, "generic", "--profile", "4,6")
    assert code == 3
    assert out == ""
    assert err == "error: achieved set is not additively closed\n"
