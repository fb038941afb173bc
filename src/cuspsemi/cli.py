"""Command-line interface: info, generic, verify, sweep.

Exit codes: 0 success, 1 verification failure, 2 usage error (an unwritable
``--out`` too), 3 numeric error, 4 seed disagreement.  All output is
deterministic for fixed arguments; sweep files carry a provenance comment line
with the toolkit version and seed.  A sweep keeps its output in memory as a
list of lines, one rendered row each, and writes the list after the last row.

The module imports neither ``inspect`` nor ``dataclasses``, which would load
``ast``, ``dis`` and ``tokenize`` at every start: flag names are read from a
checker's code object.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import warnings
from collections.abc import Iterator
from typing import TextIO

import cuspsemi
from cuspsemi import arith, series, severi, supersym, verify
from cuspsemi.semigroup import NumericalSemigroup
from cuspsemi.series import PrecisionTooSmallError, SeedDisagreementError
from cuspsemi.supersym import MethodMismatchError


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_range(text: str) -> range:
    """``LO..HI`` as ``range(LO, HI + 1)``, ``N`` as ``range(N, N + 1)``."""
    try:
        lo, hi = text.split("..") if ".." in text else (text, text)
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}")


def _open_out(out: str | None) -> contextlib.AbstractContextManager[TextIO]:
    """``--out`` opened for writing, or stdout, which is left open."""
    if out:
        return open(out, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def cmd_info(args: argparse.Namespace) -> int:
    # an unwritable --out fails here, before any work; a failing run writes nothing
    with _open_out(args.out) as fh:
        s = NumericalSemigroup(args.gens)
        betti_bound = s.betti_bound()
        payload = {
            "toolkit_version": cuspsemi.__version__,
            "generators": list(s.generators),
            "multiplicity": s.multiplicity,
            "conductor": s.conductor,
            "frobenius": s.frobenius,
            "genus": s.genus,
            "symmetric": s.is_symmetric() if s.conductor > 0 else None,
            "apery": list(s.apery()),
            "betti_bound": betti_bound,
            "betti_up_to": s.betti_elements(betti_bound),
        }
        fh.write(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_generic(args: argparse.Namespace) -> int:
    # an unwritable --out fails here, before the first draw; a failing run writes nothing
    with _open_out(args.out) as fh:
        emp = series.empirical_generic_semigroup(
            args.profile, trials=args.trials, prime=args.prime, base_seed=args.seed
        )
        payload = {
            "toolkit_version": cuspsemi.__version__,
            "profile": list(args.profile),
            "prime": args.prime,
            "trials": args.trials,
            "base_seed": args.seed,
            "seeds": list(range(args.seed, args.seed + args.trials)),
            "conductor": emp.conductor,
            "genus": emp.genus,
            "achieved_below_conductor": [x for x in range(emp.conductor) if emp.contains(x)],
            "gaps": emp.gaps(),
        }
        fh.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _flag_kwargs(func: object, args: argparse.Namespace, command: str) -> dict:
    """The flags the user passed, by ``func``'s own parameter names.

    A flag ``func`` has no parameter for is a usage error, except ``--seed``,
    which every verify id and sweep family accepts so that one seed can be
    passed to all of them.  The names are read from the code object, after
    any ``__wrapped__`` of a ``functools.wraps`` wrapper; ``func`` takes no
    ``*args`` or ``**kwargs``.
    """
    while hasattr(func, "__wrapped__"):
        func = func.__wrapped__
    code = func.__code__  # type: ignore[attr-defined]
    params = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    skip = {*params, "command", "theorem", "list_theorems", "func", "seed", "family", "format", "out"}
    unread = [f"--{name.replace('_', '-')}" for name, value in vars(args).items()
              if value is not None and name not in skip]
    if unread:
        raise ValueError(f"{command} takes no {', '.join(unread)}")
    return {name: value for name in params if (value := getattr(args, name)) is not None}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.list_theorems:
        if args.theorem:
            raise ValueError(f"verify --list-theorems takes no theorem id, got {args.theorem!r}")
        _flag_kwargs(lambda: None, args, "verify --list-theorems")
        for name in sorted(verify.THEOREMS):
            description, _ = verify.THEOREMS[name]
            sys.stdout.write(f"{name}: {description}\n")
        return 0
    if not args.theorem:
        sys.stderr.write("error: a theorem id is required (see --list-theorems)\n")
        return 2
    if args.theorem not in verify.THEOREMS:
        sys.stderr.write(f"error: unknown theorem {args.theorem!r} (see --list-theorems)\n")
        return 2
    _, func = verify.THEOREMS[args.theorem]
    result = func(**_flag_kwargs(func, args, f"verify {args.theorem}"))
    sys.stdout.write(f"theorem: {result.theorem}\n")
    for row in result.rows:
        status = "INFO" if row.ok is None else ("PASS" if row.ok else "FAIL")
        detail = f"  [{row.detail}]" if row.detail else ""
        sys.stdout.write(f"  {status} {row.label}{detail}\n")
    for note in result.findings:
        sys.stdout.write(f"  FINDING: {note}\n")
    sys.stdout.write(f"result: {'PASS' if result.passed else 'FAIL'}\n")
    return 0 if result.passed else 1


_SUPERSYM_COLUMNS = (
    "a,b,c,genus,frobenius,rho,codim,nodal_codim,excess,rhobound1_holds,"
    "F_poly_sign,sprime_applicable,sprime_genus,sprime_frobenius"
).split(",")


def _supersym_row(a: int, b: int, c: int) -> tuple:
    # excess_supersym checks the triple; the rest runs on supersym's checked-triple interface
    genus, codim, excess, checks = severi.excess_supersym(a, b, c)
    ab, ac, bc = a * b, a * c, b * c
    # codim = 2 * rho + ab + ac + bc - 7: rho is read back, not computed again
    rho = (codim - (ab + ac + bc) + 7) // 2
    sprime = supersym._s_prime_invariants(a, b, c, ab, ac, bc, genus)
    sprime_genus, sprime_frobenius = sprime or (None, None)
    return (
        a, b, c, genus, supersym._frobenius(a, b, c, ab, ac, bc), rho, codim,
        genus,  # nodal_codim: (n - 2) * genus in P^3
        excess, checks["rhobound1"], "nonnegative" if checks["f-polynomial"] else "negative",
        sprime is not None, sprime_genus, sprime_frobenius,
    )


def _supersym_rows(max_abc: int = 2000, min_a: int = 2) -> Iterator[tuple]:
    # coprime_triples checks min_a when called, so a bad --min-a fails before --out is opened
    return itertools.starmap(_supersym_row, supersym.coprime_triples(max_abc, min_a=min_a))


def _arith_rows(m: range = range(2, 5), l: range = range(4, 13)) -> Iterator[tuple]:
    for mult, ell in arith.profiles(m, l):
        s = arith.approximating_semigroup(mult, ell)
        upper, stated = arith.genus_upper(mult, ell), arith.genus_upper_stated(mult, ell)
        stated = int(stated) if stated.denominator == 1 else str(stated)
        best = arith.best_genus_lower(arith.profile_orders(mult, ell))
        yield mult, ell, s.genus, s.frobenius, s.conductor, upper, stated, *best


def _generic_rows(
    m: range = range(2, 3), l: range = range(4, 9), trials: int = 3,
    prime: int = series.DEFAULT_PRIME, seed: int = 0,
) -> Iterator[tuple]:
    # no m column: r1 = m * l.  Every l is swept, not only arith.profiles: the
    # Monte-Carlo semigroup needs no hypothesis, and README documents the
    # warning genus_upper gives for each l below 2m.
    for mult, ell in itertools.product(m, l):
        orders = arith.profile_orders(mult, ell)
        emp = series.empirical_generic_semigroup(orders, trials=trials, prime=prime, base_seed=seed)
        _, lower = arith.best_genus_lower(orders)
        upper = arith.genus_upper(mult, ell)
        yield ell, *orders, emp.conductor, emp.genus, lower, upper, lower <= emp.genus <= upper


# family: (columns, a function whose parameters are named after the family's flags)
_SWEEPS = {
    "supersym": (_SUPERSYM_COLUMNS, _supersym_rows),
    "arith": (
        "m,l,genus,frobenius,conductor,genus_upper,genus_upper_stated,best_lower_k,best_lower".split(","),
        _arith_rows,
    ),
    "generic": ("l,r1,r2,r3,conductor,genus,genus_lower,genus_upper,in_bounds".split(","), _generic_rows),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    columns, rows_fn = _SWEEPS[args.family]
    rows = rows_fn(**_flag_kwargs(rows_fn, args, f"sweep --family {args.family}"))
    # an unwritable --out fails here, before the first row.  The rendered
    # rows are kept as a list of lines and written after the last row, so a
    # failing row writes nothing
    with _open_out(args.out) as fh:
        if args.format == "json":
            # the bytes of json.dumps(payload, indent=2), a row at a time: with
            # no indent json's C encoder renders a flat row dict, and its item
            # separator carries the row's line breaks and indent
            head = {
                "toolkit_version": cuspsemi.__version__, "family": args.family, "seed": args.seed, "rows": [],
            }
            lines = [json.dumps(head, indent=2)[: -len("[]\n}")]]
            encode = json.JSONEncoder(separators=(",\n      ", ": ")).encode
            sep = "[\n"
            for row in rows:
                lines.append(f"{sep}    {{\n      {encode(dict(zip(columns, row)))[1:-1]}\n    }}")
                sep = ",\n"
            lines.append("[]\n}\n" if sep == "[\n" else "\n  ]\n}\n")
        else:
            # no cell holds a comma, quote or line break, so none is quoted
            lines = [f"# cuspsemi {cuspsemi.__version__} family={args.family} seed={args.seed}\n"]
            for row in itertools.chain([columns], rows):
                cells = ("" if v is None else ("true" if v else "false") if type(v) is bool else str(v)
                         for v in row)
                lines.append(",".join(cells) + "\n")
        fh.writelines(lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspsemi",
        description="numerical semigroups, generic value semigroups, and excess-dimension predicates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="invariants of a numerical semigroup")
    p_info.add_argument("--gens", type=_parse_ints, required=True, help="generators, comma separated")
    p_info.add_argument("--out", default=None)
    p_info.set_defaults(func=cmd_info)

    p_gen = sub.add_parser("generic", help="Monte-Carlo value semigroup of a profile")
    p_gen.add_argument("--profile", type=_parse_ints, required=True, help="orders, comma separated")
    p_gen.add_argument("--trials", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--prime", type=int, default=series.DEFAULT_PRIME)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_generic)

    p_ver = sub.add_parser("verify", help="check a published statement over a sweep")
    p_ver.add_argument("theorem", nargs="?", default=None)
    p_ver.add_argument("--list-theorems", action="store_true")
    p_ver.add_argument("--max-abc", type=int, default=None)
    p_ver.add_argument("--l", type=_parse_range, default=None, help="LO..HI")
    p_ver.add_argument("--m", type=_parse_range, default=None, help="LO..HI")
    p_ver.add_argument("--trials", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--prime", type=int, default=None)
    p_ver.add_argument("--instances", type=int, default=None)
    p_ver.add_argument("--samples", type=int, default=None)
    p_ver.add_argument("--eps", type=float, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="tabulate a parameter family")
    p_sweep.add_argument("--family", choices=("supersym", "arith", "generic"), required=True)
    p_sweep.add_argument("--max-abc", type=int, default=None)
    p_sweep.add_argument("--min-a", type=int, default=None)
    p_sweep.add_argument("--m", type=_parse_range, default=None, help="LO..HI")
    p_sweep.add_argument("--l", type=_parse_range, default=None, help="LO..HI")
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--prime", type=int, default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(f"warning: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # the message alone: Python's default echoes the calling source line
            warnings.showwarning = _show_warning
            return args.func(args)
    except SeedDisagreementError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except MethodMismatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (PrecisionTooSmallError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except MemoryError:
        # raised without a message, e.g. by a sieve sized by a huge Frobenius bound
        sys.stderr.write("error: out of memory: the input is too large to compute with\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    raise SystemExit(main())
