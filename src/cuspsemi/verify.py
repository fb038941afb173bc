"""Sweep verifiers: each checks one published statement against the exact machinery.

Every checker returns a :class:`CheckResult` whose rows aggregate one logical
sub-claim over a parameter sweep; a row fails only when an in-hypothesis
instance contradicts the claim.  Findings are informational notes (range
inconsistencies of stated formulas, out-of-hypothesis instances) that never
affect the pass verdict.

A sweep is one call of :func:`_sweep`: it streams the instances, calls the
checker's probe once per instance and writes one row per label.  The probe
returns one outcome per label: ``True`` passes, ``False`` fails the instance
under its name, a list holds the instance's own failure tags, for a row that
can fail more than once per instance, and ``None`` leaves the instance out of
that row.  Each row counts the instances it took, so a row that took none
fails, and :func:`_sweep` returns those per-row counts.  ``@_theorem``
registers each checker.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from typing import NamedTuple

from cuspsemi import arith, series, severi, supersym
from cuspsemi.semigroup import NumericalSemigroup


class CheckRow(NamedTuple):
    label: str
    ok: bool | None
    detail: str = ""


class CheckResult:
    """A checker's rows and findings; equal when theorem, rows and findings are."""

    def __init__(
        self, theorem: str, rows: list[CheckRow] | None = None, findings: list[str] | None = None
    ) -> None:
        self.theorem = theorem
        self.rows = [] if rows is None else rows
        self.findings = [] if findings is None else findings

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.theorem, self.rows, self.findings) == (other.theorem, other.rows, other.findings)

    def __repr__(self) -> str:
        return f"CheckResult(theorem={self.theorem!r}, rows={self.rows!r}, findings={self.findings!r})"

    @property
    def passed(self) -> bool:
        return bool(self.rows) and all(r.ok for r in self.rows if r.ok is not None)

    def row(self, label: str, ok: bool | None, detail: str = "") -> None:
        self.rows.append(CheckRow(label, ok, detail))


_COUNT_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten")


def _count_word(n: int) -> str:
    """``n`` spelled as a word up to ten, in digits above."""
    return _COUNT_WORDS[n] if 0 <= n < len(_COUNT_WORDS) else str(n)


THEOREMS: dict[str, tuple[str, object]] = {}


def _theorem(name: str, description: str) -> Callable:
    """Decorator: enter the checker in :data:`THEOREMS` as ``name``, in definition order."""
    def register(func: Callable[..., CheckResult]) -> Callable[..., CheckResult]:
        THEOREMS[name] = (description, func)
        return func
    return register


# Failure tags: an instance's first three entries as (a,b,c), a profile as (m=..,l=..).
_triple_tag = "({0[0]},{0[1]},{0[2]})".format
_profile_tag = "(m={0[0]},l={0[1]})".format


def _sweep(result: CheckResult, labels: Sequence[str], instances: Iterable, probe: Callable,
           name: Callable[..., str] = _triple_tag) -> list[int]:
    """Probe every instance once, write one sweep row per label, return each row's count."""
    failures: list[list[str]] = [[] for _ in labels]
    counts = [0] * len(labels)
    for x in instances:
        for i, (bad, outcome) in enumerate(zip(failures, probe(x), strict=True)):
            if outcome is None:
                continue
            counts[i] += 1
            if isinstance(outcome, list):
                bad.extend(outcome)
            elif not outcome:
                bad.append(name(x))
    for label, bad, count in zip(labels, failures, counts):
        if bad:
            result.row(label, False, f"failed at {', '.join(bad[:5])}")
        elif count == 0:
            result.row(label, False, "no instances in range")
        else:
            result.row(label, True, f"{count} instances")
    return counts


@_theorem("supersym-invariants", "frobenius/genus closed forms and symmetry of <ab, ac, bc>")
def check_supersym_invariants(max_abc: int = 5000) -> CheckResult:
    """Frobenius and genus closed forms match the sieve and the semigroup is symmetric."""
    def probe(t: tuple[int, int, int]) -> tuple[bool, ...]:
        s = supersym.supersym_semigroup(*t)
        frobenius, genus = supersym.frobenius_formula(*t), supersym.genus_formula(*t)
        return frobenius == s.frobenius, genus == s.genus, s.is_symmetric()

    result = CheckResult("supersym-invariants")
    labels = ("frobenius formula = sieve", "genus formula = sieve", "symmetry")
    _sweep(result, labels, supersym.coprime_triples(max_abc), probe)
    return result


@_theorem("rho-simplex", "two-route agreement for the gap count above abc")
def check_rho_simplex(max_abc: int = 5000) -> CheckResult:
    """The sieve count, the lattice count and rho agree on a full sweep plus pinned spot values.

    The membership sieve is the oracle: ``rho`` counts from the Apery set and
    the lattice and builds no semigroup.  It returns a count only when those
    two agree, so the sieve count equal to ``rho`` is equal to both.
    """
    def probe(t: tuple[int, int, int]) -> tuple[bool | list[str]]:
        a, b, c = t
        d = a * b * c - (a * b + a * c + b * c)
        by_sieve = supersym.supersym_semigroup(*t).member_count_below(d)
        try:
            by_rho = supersym.rho(*t)
        except supersym.MethodMismatchError as exc:
            return ([str(exc)],)
        if by_sieve == by_rho:
            return (True,)
        return ([f"rho({a},{b},{c}): sieve count {by_sieve} != rho {by_rho}"],)

    result = CheckResult("rho-simplex")
    _sweep(result, ("sieve count = lattice count",), supersym.coprime_triples(max_abc), probe)
    for triple, expected in (((2, 3, 5), 0), ((3, 4, 5), 2), ((4, 5, 7), 8)):
        got = supersym.rho(*triple)
        result.row(f"rho{triple} = {expected}", got == expected, f"got {got}")
    return result


@_theorem("yz-bounds", "Yau-Zhang lattice-point bounds on the rho simplex")
def check_yz_bounds(max_abc: int = 4000) -> CheckResult:
    """Lattice counts respect both Yau-Zhang bounds on in-hypothesis simplices."""
    def probe(t: tuple[int, int, int]) -> tuple[bool | None, ...]:
        simplex = supersym.rho_simplex(*t)
        if simplex is None:
            return None, None, None
        a, b, c = t
        # The strong bound collapses to a polynomial in a, b, c on these simplices.
        simplified = None
        if a * b * c <= 1500:
            closed = Fraction(a * b * c - (a * b + a * c + b * c) + (a + b + c) - 1, 6)
            simplified = supersym.yz_strong_bound(*simplex) == closed
        if not supersym.yz_hypothesis(*simplex):
            return None, None, simplified
        q = supersym.lattice_count(*simplex)
        weak, strong = supersym.yz_weak_bound(*simplex), supersym.yz_strong_bound(*simplex)
        return q <= weak, q <= strong, simplified

    result = CheckResult("yz-bounds")
    triples = list(supersym.coprime_triples(max_abc))
    labels = ("count <= weak bound", "count <= strong bound", "strong bound simplification")
    skipped = len(triples) - _sweep(result, labels, triples, probe)[0]
    if skipped:
        result.findings.append(
            f"{skipped} triples skipped: simplex empty or intercepts below the hypothesis"
        )
    return result


@_theorem("excess-supersym", "excess dimension of the supersymmetric cuspidal stratum")
def check_excess_supersym(max_abc: int = 4000) -> CheckResult:
    """Excess holds for every coprime 4 <= a < b < c with abc <= max_abc except (4,5,7)."""
    result = CheckResult("excess-supersym")
    triples = (t for t in supersym.coprime_triples(max_abc, min_a=4) if t != (4, 5, 7))
    _sweep(
        result, ("codim < nodal codim",), triples, lambda t: (severi.excess_supersym(*t).excess,)
    )

    report = severi.excess_supersym(4, 5, 7)
    result.row(
        "(4,5,7) excess via rho",
        report.excess and report.checks["rhobound1"],
        f"codim {report.codim} < genus {report.genus}, rho bound holds",
    )
    for triple, expect_nonneg in (((4, 5, 7), False), ((4, 7, 9), True), ((5, 6, 7), True)):
        value = severi.bound_polynomial(*triple)
        ok = (value >= 0) == expect_nonneg
        result.row(
            f"bound polynomial sign at {triple}",
            ok,
            f"value {value} expected {'>= 0' if expect_nonneg else '< 0'}",
        )
    return result


@_theorem("excess-generic", "excess dimension of the generic cuspidal stratum")
def check_excess_generic(max_abc: int = 4000) -> CheckResult:
    """The generic-cusp stratum shows excess for coprime 4 <= a < b < c."""
    def probe(t: tuple[int, int, int]) -> tuple[bool, bool]:
        report = severi.excess_generic_supersym(*t)
        return report.excess, report.checks["rhobound2"]

    result = CheckResult("excess-generic")
    labels = ("codim < surrogate genus", "member count below abc within bound")
    _sweep(result, labels, supersym.coprime_triples(max_abc, min_a=4), probe)
    return result


@_theorem("sprime", "genus/frobenius closed forms for the extension by abc + 1")
def check_sprime(max_abc: int = 5000) -> CheckResult:
    """Genus and Frobenius closed forms for the extension by abc + 1 match the sieve."""
    # only the triples where abc + 1 is a gap have an extension
    def probe(t: tuple[int, int, int]) -> tuple[bool | None, bool | None]:
        s = supersym.s_prime(*t)
        if s is None:
            return None, None
        genus, frobenius = supersym.s_prime_invariants(*t)
        return genus == s.genus, frobenius == s.frobenius

    result = CheckResult("sprime")
    labels = ("extension genus formula = sieve", "extension frobenius formula = sieve")
    triples = list(supersym.coprime_triples(max_abc))
    gaps = _sweep(result, labels, triples, probe)[0]
    result.findings.append(f"{gaps} of {len(triples)} triples have abc + 1 as a gap")
    for triple, expected in (((3, 4, 5), (35, 58)), ((4, 5, 7), (96, 177))):
        got = supersym.s_prime_invariants(*triple)
        result.row(f"extension invariants at {triple}", got == expected, f"got {got}")
    return result


@_theorem("min-congruent-one", "least member congruent to 1 mod abc via residue triples")
def check_min_congruent_one(max_abc: int = 5000) -> CheckResult:
    """The residue-triple combination is the least member congruent to 1 mod abc."""
    def probe(t: tuple[int, int, int]) -> tuple[bool, bool]:
        value = supersym.min_congruent_one(*t)
        abc = t[0] * t[1] * t[2]
        # Direct scan: members congruent to 1 mod abc below value.
        s = supersym.supersym_semigroup(*t)
        least = s.contains(value) and not any(s.contains(x) for x in range(1, value, abc))
        return value in (abc + 1, 2 * abc + 1), least

    result = CheckResult("min-congruent-one")
    labels = ("value is abc+1 or 2abc+1", "value is the least such member")
    _sweep(result, labels, supersym.coprime_triples(max_abc), probe)
    return result


@_theorem("unique-factorization", "unique factorization below abc and the shifted enumeration")
def check_unique_factorization(max_abc: int = 600, samples: int = 40, seed: int = 0) -> CheckResult:
    """Members below abc factor uniquely; the shifted enumeration matches brute force.

    Three routes: normal-form membership (z >= 0 in one ``abc_normal_forms``
    scan of n < abc per triple) against the sieve, uniqueness from the sieve's
    Betti elements below abc, and the shifted enumeration of one normal form
    against brute-force ``factorizations`` at sampled n < 3abc.
    """
    def scan(t: tuple[int, int, int]) -> tuple[bool | list[str], bool | list[str]]:
        a, b, c = t
        s = semigroups[t] = supersym.supersym_semigroup(a, b, c)
        # The least member x with two factorizations is a Betti element: were
        # its factorization graph connected, two factorizations sharing some
        # generator n_i would give x - n_i two factorizations.
        betti = s.betti_elements(a * b * c - 1)
        unique = not betti or [f"({a},{b},{c}) n={betti[0]}"]
        for n, (_, _, z) in enumerate(supersym.abc_normal_forms(a, b, c, range(a * b * c))):
            if (z >= 0) != s.contains(n):
                return [f"({a},{b},{c}) n={n}"], unique
        return True, unique

    # Each sample draws a triple, then n; the scan built every triple's semigroup.
    def cross(t: tuple[int, int, int]) -> tuple[bool | list[str]]:
        a, b, c = t
        n = rng.randrange(3 * a * b * c)
        direct = {tuple(f) for f in semigroups[t].factorizations(n)}
        shifted = set(supersym.abc_all_factorizations(a, b, c, n))
        return (direct == shifted or [f"({a},{b},{c}) n={n}"],)

    result = CheckResult("unique-factorization")
    semigroups: dict[tuple[int, int, int], NumericalSemigroup] = {}
    triples = list(supersym.coprime_triples(max_abc))
    labels = ("normal-form membership = sieve", "unique factorization below abc")
    _sweep(result, labels, triples, scan)
    rng = random.Random(seed)
    draws = (triples[rng.randrange(len(triples))] for _ in range(samples if triples else 0))
    _sweep(result, ("shifted enumeration = brute force",), draws, cross)
    return result


@_theorem("betti-supersym", "abc is the only element with a disconnected factorization graph")
def check_betti_supersym(max_abc: int = 600) -> CheckResult:
    """The only element with a disconnected factorization graph is abc."""
    def probe(t: tuple[int, int, int]) -> tuple[bool]:
        return (supersym.supersym_semigroup(*t).betti_elements() == [t[0] * t[1] * t[2]],)

    result = CheckResult("betti-supersym")
    _sweep(result, ("betti elements = {abc}",), supersym.coprime_triples(max_abc), probe)
    return result


@_theorem("m2-gaps", "closed-form gap set of the m = 2 approximating semigroup")
def check_m2_gaps(l: range = range(4, 17)) -> CheckResult:
    """The closed-form gap set matches the sieve for the m = 2 approximating semigroup."""
    def probe(ell: int) -> tuple[bool, bool]:
        formula = arith.gap_set_m2(ell)
        sieve = tuple(arith.approximating_semigroup(2, ell, branch="m2").gaps())
        expected = (ell * ell + 1) // 2 + 2 * ell
        return formula == sieve, len(formula) == expected

    result = CheckResult("m2-gaps")
    labels = ("gap set = sieve gaps", "cardinality ceil(l^2/2) + 2l")
    _sweep(result, labels, l, probe, name="ell={}".format)
    return result


@_theorem("arith-genus-upper", "genus closed form of the approximating semigroup")
def check_arith_genus_upper(m: range = range(2, 5), l: range = range(4, 21)) -> CheckResult:
    """Genus closed form matches the sieve for even ell; odd ell is adjudicated."""
    stated_matches = 0

    def probe(profile: tuple[int, int]) -> tuple[bool | None, bool | None, bool]:
        nonlocal stated_matches
        s = arith.approximating_semigroup(*profile)
        derived, stated = arith.genus_upper(*profile), arith.genus_upper_stated(*profile)
        # Selmer: the genus is the sum of (w - i) / n over the Apery entries w = i mod n
        n = s.multiplicity
        selmer = sum((w - i) // n for i, w in enumerate(s.apery())) == s.genus
        if profile[1] % 2 == 0:
            return s.genus == derived == stated, None, selmer
        stated_matches += stated == s.genus
        return None, s.genus == derived, selmer

    result = CheckResult("arith-genus-upper")
    labels = (
        "even ell: formula = sieve genus", "odd ell: derived value = sieve genus",
        "apery gap identity",
    )
    total_odd = _sweep(result, labels, arith.profiles(m, l), probe, _profile_tag)[1]
    result.findings.append(
        f"odd ell: the stated (l+1)(l-2)/4 form matched the sieve on {stated_matches}"
        f" of {total_odd} instances; the derived (l+1)(l-1)/4 form matched all"
    )
    return result


def _check_apery(parity: str, ms: range, ells: range) -> CheckResult:
    result = CheckResult(f"apery-{parity}")
    odd = parity == "odd"
    profiles = [(m, ell) for m, ell in arith.profiles(ms, ells) if ell % 2 == odd]
    classes: list[tuple] = []
    uncovered_total = 0
    for m, ell in profiles:
        apery = arith.approximating_semigroup(m, ell).apery()
        predictions = arith.apery_predictions(m, ell)
        classes.extend((m, ell, apery, *p) for p in predictions)
        uncovered_total += m * ell - 1 - len(predictions)
    if profiles:
        result.findings.append(
            "nonspecial family: stated index range j up to ell-1 leaves residues"
            " [1, m*ell-1]; using the genus-identity range instead"
        )

    def probe(x: tuple) -> tuple[bool | list[str]]:
        m, ell, apery, residue, value, family = x
        ok = apery[residue] == value
        return (ok or [f"(m={m},l={ell}) residue {residue} [{family}]"],)

    _sweep(result, ("formula entries = table entries",), classes, probe)
    result.row(
        "coverage",
        None,
        f"{uncovered_total} residue classes uncovered by the stated families"
        f" across {len(profiles)} profiles",
    )
    return result


@_theorem("apery-even", "Apery formula families, even ell")
def check_apery_even(m: range = range(2, 5), l: range = range(4, 21)) -> CheckResult:
    """Even-ell Apery formula families agree with the direct table where they apply."""
    return _check_apery("even", m, l)


@_theorem("apery-odd", "Apery formula families, odd ell")
def check_apery_odd(m: range = range(2, 5), l: range = range(4, 22)) -> CheckResult:
    """Odd-ell Apery formula families agree with the direct table where they apply."""
    return _check_apery("odd", m, l)


@_theorem("apery-product-lemma", "product form of the four-generator Apery set (even ell)")
def check_apery_product_lemma(m: range = range(2, 5), l: range = range(4, 17)) -> CheckResult:
    """Apery set of <ml, ml+m, ml+2m, 2m(l+1)+1> is the stated product set (even ell)."""
    def probe(profile: tuple[int, int]) -> tuple[bool]:
        m, ell = profile
        ml, g2, g1, gb, *_ = arith.approximation_generators(m, ell)
        t = NumericalSemigroup((ml, g2, g1, gb))
        product = {
            x * g2 + y * g1 + z * gb
            for x in range(2)
            for y in range(ell // 2)
            for z in range(m)
        }
        return (product == set(t.apery()),)

    result = CheckResult("apery-product-lemma")
    profiles = ((mm, ell) for mm, ell in arith.profiles(m, l) if ell % 2 == 0)
    _sweep(result, ("apery set = product set",), profiles, probe, _profile_tag)
    return result


@_theorem("valuation-lemma", "valuation bound for N-term random combinations")
def check_valuation_lemma(instances: int = 200, seed: int = 0) -> CheckResult:
    """Random N-term combinations have valuation at most min(orders) + N - 1."""
    def probe(i: int) -> tuple[bool | list[str]]:
        n = rng.randint(1, 6)
        valuations = sorted(rng.randint(1, 30) for _ in range(n))
        precision = valuations[-1] + n + 8
        draw = random.Random(rng.randrange(1 << 30))
        members = [
            series._draw_series(draw, v, precision, prime) for v in valuations
        ]
        coeffs = [rng.randrange(1, prime) for _ in range(n)]
        got = series.combination_valuation_probe(members, coeffs)
        ok = got is not None and got <= valuations[0] + n - 1
        return (ok or [f"instance {i} (valuations {valuations}, got {got})"],)

    result = CheckResult("valuation-lemma")
    rng = random.Random(seed)
    prime = series.DEFAULT_PRIME
    _sweep(result, (f"valuation <= min + N - 1 over {instances} draws",), range(instances), probe)
    return result


@_theorem("generic-montecarlo", "Monte-Carlo value semigroups of m(l, l+1, l+2) profiles")
def check_generic_montecarlo(
    m: range = range(2, 3),
    l: range = range(4, 11),
    trials: int = 3,
    prime: int = series.DEFAULT_PRIME,
    seed: int = 0,
) -> CheckResult:
    """Monte-Carlo sweep for profiles m(l, l+1, l+2), l >= 2m: agreement, containment, bounds.

    Failure tags name l alone at m = 2 and m and l otherwise.  The "seeds
    agree" row cannot fail: a disagreement raises
    :class:`~cuspsemi.series.SeedDisagreementError` (exit 4) before it is written.
    Nor can "profile monoid contained": a profile order missing from the agreed
    semigroup raises :class:`~cuspsemi.series.AchievedSetError` (exit 3) first.
    """
    def name(profile: tuple[int, int]) -> str:
        m, ell = profile
        return f"ell={ell}" if m == 2 else f"m={m} ell={ell}"

    def probe(profile: tuple[int, int]) -> tuple[bool | list[str], ...]:
        m, ell = profile
        tag = name(profile)
        orders = arith.profile_orders(m, ell)
        emp = series.empirical_generic_semigroup(orders, trials, prime, seed)

        # emp is additively closed, so it contains a semigroup when it contains its generators
        bad_contain = []
        branches = ["general", "m2"] if m == 2 and ell % 2 else ["general"]
        for branch in branches:
            approx = arith.approximating_semigroup(m, ell, branch=branch)
            if not all(emp.contains(g) for g in approx.generators):
                bad_contain.append(f"{tag} [{branch}]")

        _, lower = arith.best_genus_lower(orders)
        upper = arith.genus_upper(m, ell)
        within = lower <= emp.genus <= upper
        bounds = within or [f"{tag} (genus {emp.genus} not in [{lower}, {upper}])"]

        bad_windows, bad_gapwin = [], []
        r1 = orders[0]
        d = 0
        while (window := arith.forbidden_window(orders, d)) is not None:
            if emp.member_count_below(window.stop) > emp.member_count_below(window.start):
                bad_windows.append(f"{tag} d={d}")
            # gaps in [d*r1, (d+1)*r1], both ends included
            have = r1 + 1 - (
                emp.member_count_below((d + 1) * r1 + 1) - emp.member_count_below(d * r1)
            )
            if have < len(window):
                bad_gapwin.append(f"{tag} d={d}")
            d += 1

        monoid = all(emp.contains(r) for r in orders)
        return True, bad_contain, bounds, bad_windows, bad_gapwin, monoid

    result = CheckResult("generic-montecarlo")
    labels = (
        f"{_count_word(trials)} seeds agree", "approximating semigroup contained",
        "lower <= genus <= upper", "forbidden windows avoid achieved values",
        "window gap counts", "profile monoid contained",
    )
    _sweep(result, labels, arith.profiles(m, l), probe, name)
    return result


@_theorem("supersym-generic-contains", "generic supersymmetric cusps achieve abc + 1 and abc + 2")
def check_supersym_generic_contains(
    prime: int = series.DEFAULT_PRIME, seed: int = 0, trials: int = 3
) -> CheckResult:
    """Generic cusps with supersymmetric profiles achieve abc + 1 and abc + 2."""
    result = CheckResult("supersym-generic-contains")
    seeds = range(seed, seed + trials)
    for triple in ((3, 4, 5), (2, 3, 5)):
        abc = triple[0] * triple[1] * triple[2]
        found = series.capture_conductors(supersym.pairwise_products(*triple), seeds, prime)
        for drawn, s in zip(seeds, found, strict=True):
            got = (s.contains(abc + 1), s.contains(abc + 2))
            result.row(
                f"{triple} seed {drawn} achieves abc+1, abc+2", got == (True, True), f"got {got}"
            )
    return result


@_theorem("asymptotic-lower", "asymptotic strength of the genus lower bound (informational)")
def check_asymptotic_lower(eps: float = 0.1) -> CheckResult:
    """Informational: where the cubic-root lower bound already beats its asymptote."""
    result = CheckResult("asymptotic-lower")
    for m, ell in ((2, 10**4), (2, 10**5), (3, 10**4), (3, 10**5)):
        value = arith.asymptotic_check(m, ell, eps)
        result.row(f"m={m}, l={ell}, eps={eps}", None, f"bound exceeded: {value}")
    result.findings.append(
        "asymptotic in ell: small ell (relative to m) can evaluate to False"
    )
    return result
