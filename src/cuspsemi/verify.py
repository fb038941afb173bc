"""Sweep verifiers: each checks one published statement against the exact machinery.

Every checker returns a :class:`CheckResult` whose rows aggregate one logical
sub-claim over a parameter sweep; a row fails only when an in-hypothesis
instance contradicts the claim.  Findings are informational notes (range
inconsistencies of stated formulas, out-of-hypothesis instances) that never
affect the pass verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from cuspsemi import arith, series, severi, supersym
from cuspsemi.semigroup import NumericalSemigroup, monoid_members


@dataclass(frozen=True)
class CheckRow:
    label: str
    ok: bool | None
    detail: str = ""


@dataclass
class CheckResult:
    theorem: str
    rows: list[CheckRow] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.rows) and all(r.ok for r in self.rows if r.ok is not None)

    def row(self, label: str, ok: bool | None, detail: str = "") -> None:
        self.rows.append(CheckRow(label, ok, detail))


_COUNT_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten")


def _count_word(n: int) -> str:
    """``n`` spelled as a word up to ten, in digits above."""
    return _COUNT_WORDS[n] if 0 <= n < len(_COUNT_WORDS) else str(n)


def _sweep_row(result: CheckResult, label: str, failures: list[str], total: int) -> None:
    if failures:
        result.row(label, False, f"failed at {', '.join(failures[:5])}")
    elif total == 0:
        result.row(label, False, "no instances in range")
    else:
        result.row(label, True, f"{total} instances")


def check_supersym_invariants(max_abc: int = 5000) -> CheckResult:
    """Frobenius and genus closed forms match the sieve and the semigroup is symmetric."""
    result = CheckResult("supersym-invariants")
    bad_f: list[str] = []
    bad_g: list[str] = []
    bad_sym: list[str] = []
    total = 0
    for a, b, c in supersym.coprime_triples(max_abc):
        total += 1
        s = supersym.supersym_semigroup(a, b, c)
        if supersym.frobenius_formula(a, b, c) != s.frobenius:
            bad_f.append(f"({a},{b},{c})")
        if supersym.genus_formula(a, b, c) != s.genus:
            bad_g.append(f"({a},{b},{c})")
        if not s.is_symmetric():
            bad_sym.append(f"({a},{b},{c})")
    _sweep_row(result, "frobenius formula = sieve", bad_f, total)
    _sweep_row(result, "genus formula = sieve", bad_g, total)
    _sweep_row(result, "symmetry", bad_sym, total)
    return result


def check_rho_simplex(max_abc: int = 5000) -> CheckResult:
    """The two rho routes agree on a full sweep plus pinned spot values."""
    result = CheckResult("rho-simplex")
    failures: list[str] = []
    total = 0
    for a, b, c in supersym.coprime_triples(max_abc):
        total += 1
        try:
            supersym.rho(a, b, c)
        except supersym.MethodMismatchError as exc:
            failures.append(str(exc))
    _sweep_row(result, "sieve count = lattice count", failures, total)
    for triple, expected in (((2, 3, 5), 0), ((3, 4, 5), 2), ((4, 5, 7), 8)):
        got = supersym.rho(*triple)
        result.row(f"rho{triple} = {expected}", got == expected, f"got {got}")
    return result


def check_yz_bounds(max_abc: int = 4000) -> CheckResult:
    """Lattice counts respect both Yau-Zhang bounds on in-hypothesis simplices."""
    result = CheckResult("yz-bounds")
    bad_weak: list[str] = []
    bad_strong: list[str] = []
    in_hyp = 0
    skipped = 0
    for a, b, c in supersym.coprime_triples(max_abc):
        spec = supersym.rho_simplex(a, b, c)
        if spec is None or not supersym.yz_hypothesis(spec):
            skipped += 1
            continue
        in_hyp += 1
        q = Fraction(supersym.lattice_count(spec))
        if q > supersym.yz_weak_bound(spec):
            bad_weak.append(f"({a},{b},{c})")
        if q > supersym.yz_strong_bound(spec):
            bad_strong.append(f"({a},{b},{c})")
    _sweep_row(result, "count <= weak bound", bad_weak, in_hyp)
    _sweep_row(result, "count <= strong bound", bad_strong, in_hyp)
    if skipped:
        result.findings.append(
            f"{skipped} triples skipped: simplex empty or intercepts below the hypothesis"
        )
    # The strong bound collapses to a polynomial in a, b, c on these simplices.
    bad_simpl: list[str] = []
    checked = 0
    for a, b, c in supersym.coprime_triples(min(max_abc, 1500)):
        spec = supersym.rho_simplex(a, b, c)
        if spec is None:
            continue
        checked += 1
        closed = Fraction(
            a * b * c - (a * b + a * c + b * c) + (a + b + c) - 1, 6
        )
        if supersym.yz_strong_bound(spec) != closed:
            bad_simpl.append(f"({a},{b},{c})")
    _sweep_row(result, "strong bound simplification", bad_simpl, checked)
    return result


def check_excess_supersym(max_abc: int = 4000) -> CheckResult:
    """Excess holds for every coprime 4 <= a < b < c with abc <= max_abc except (4,5,7)."""
    result = CheckResult("excess-supersym")
    failures: list[str] = []
    total = 0
    for a, b, c in supersym.coprime_triples(max_abc, min_a=4):
        if (a, b, c) == (4, 5, 7):
            continue
        total += 1
        if not severi.excess_supersym(a, b, c).excess:
            failures.append(f"({a},{b},{c})")
    _sweep_row(result, "codim < nodal codim", failures, total)

    report = severi.excess_supersym(4, 5, 7)
    result.row(
        "(4,5,7) excess via rho",
        report.excess and report.holds("rhobound1") is True,
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


def check_excess_generic(max_abc: int = 4000) -> CheckResult:
    """The generic-cusp stratum shows excess for coprime 4 <= a < b < c."""
    result = CheckResult("excess-generic")
    bad_excess: list[str] = []
    bad_rho2: list[str] = []
    total = 0
    for a, b, c in supersym.coprime_triples(max_abc, min_a=4):
        total += 1
        report = severi.excess_generic_supersym(a, b, c)
        if not report.excess:
            bad_excess.append(f"({a},{b},{c})")
        if report.holds("rhobound2") is not True:
            bad_rho2.append(f"({a},{b},{c})")
    _sweep_row(result, "codim < surrogate genus", bad_excess, total)
    _sweep_row(result, "member count below abc within bound", bad_rho2, total)
    return result


def check_sprime(max_abc: int = 5000) -> CheckResult:
    """Genus and Frobenius closed forms for the extension by abc + 1 match the sieve."""
    result = CheckResult("sprime")
    bad_g: list[str] = []
    bad_f: list[str] = []
    applicable = 0
    total = 0
    for a, b, c in supersym.coprime_triples(max_abc):
        total += 1
        if supersym.abc_plus_one_is_member(a, b, c):
            continue
        applicable += 1
        s = supersym.s_prime(a, b, c)
        if supersym.genus_s_prime(a, b, c) != s.genus:
            bad_g.append(f"({a},{b},{c})")
        if supersym.frobenius_s_prime(a, b, c) != s.frobenius:
            bad_f.append(f"({a},{b},{c})")
    _sweep_row(result, "extension genus formula = sieve", bad_g, applicable)
    _sweep_row(result, "extension frobenius formula = sieve", bad_f, applicable)
    result.findings.append(f"{applicable} of {total} triples have abc + 1 as a gap")
    for triple, expected in (((3, 4, 5), (35, 58)), ((4, 5, 7), (96, 177))):
        got = (supersym.genus_s_prime(*triple), supersym.frobenius_s_prime(*triple))
        result.row(f"extension invariants at {triple}", got == expected, f"got {got}")
    return result


def check_min_congruent_one(max_abc: int = 5000) -> CheckResult:
    """The residue-triple combination is the least member congruent to 1 mod abc."""
    result = CheckResult("min-congruent-one")
    bad_value: list[str] = []
    bad_min: list[str] = []
    total = 0
    for a, b, c in supersym.coprime_triples(max_abc):
        total += 1
        value = supersym.min_congruent_one(a, b, c)
        abc = a * b * c
        if value not in (abc + 1, 2 * abc + 1):
            bad_value.append(f"({a},{b},{c})")
        # Direct scan: members congruent to 1 mod abc below value.
        s = supersym.supersym_semigroup(a, b, c)
        if not s.contains(value) or any(
            s.contains(x) for x in range(1, value, abc) if x != value
        ):
            bad_min.append(f"({a},{b},{c})")
    _sweep_row(result, "value is abc+1 or 2abc+1", bad_value, total)
    _sweep_row(result, "value is the least such member", bad_min, total)
    return result


def check_unique_factorization(max_abc: int = 600, samples: int = 40, seed: int = 0) -> CheckResult:
    """Members below abc factor uniquely; the shifted enumeration matches brute force."""
    result = CheckResult("unique-factorization")
    bad_unique: list[str] = []
    bad_member: list[str] = []
    total = 0
    for a, b, c in supersym.coprime_triples(max_abc):
        total += 1
        s = supersym.supersym_semigroup(a, b, c)
        abc = a * b * c
        for n in range(abc):
            member = supersym.abc_member(a, b, c, n)
            if member != s.contains(n):
                bad_member.append(f"({a},{b},{c}) n={n}")
                break
            if member and len(supersym.abc_all_factorizations(a, b, c, n)) != 1:
                bad_unique.append(f"({a},{b},{c}) n={n}")
                break
    _sweep_row(result, "normal-form membership = sieve", bad_member, total)
    _sweep_row(result, "unique factorization below abc", bad_unique, total)

    rng = random.Random(seed)
    triples = list(supersym.coprime_triples(max_abc))
    bad_cross: list[str] = []
    for _ in range(samples):
        a, b, c = triples[rng.randrange(len(triples))]
        s = supersym.supersym_semigroup(a, b, c)
        n = rng.randrange(3 * a * b * c)
        direct = {tuple(f) for f in s.factorizations(n)}
        shifted = set(supersym.abc_all_factorizations(a, b, c, n))
        if direct != shifted:
            bad_cross.append(f"({a},{b},{c}) n={n}")
    _sweep_row(result, "shifted enumeration = brute force", bad_cross, samples)
    return result


def check_betti_supersym(max_abc: int = 600) -> CheckResult:
    """The only element with a disconnected factorization graph is abc."""
    result = CheckResult("betti-supersym")
    failures: list[str] = []
    total = 0
    for a, b, c in supersym.coprime_triples(max_abc):
        total += 1
        s = supersym.supersym_semigroup(a, b, c)
        bound = s.conductor + max(s.generators)
        if s.betti_elements(bound) != [a * b * c]:
            failures.append(f"({a},{b},{c})")
    _sweep_row(result, "betti elements = {abc}", failures, total)
    return result


def check_m2_gaps(l_lo: int = 4, l_hi: int = 16) -> CheckResult:
    """The closed-form gap set matches the sieve for the m = 2 approximating semigroup."""
    result = CheckResult("m2-gaps")
    bad_set: list[str] = []
    bad_count: list[str] = []
    total = 0
    for ell in range(l_lo, l_hi + 1):
        total += 1
        formula = arith.gap_set_m2(ell)
        sieve = tuple(arith.approximating_semigroup(2, ell, branch="m2").gaps())
        if formula != sieve:
            bad_set.append(f"ell={ell}")
        expected = (ell * ell + 1) // 2 + 2 * ell
        if len(formula) != expected:
            bad_count.append(f"ell={ell}")
    _sweep_row(result, "gap set = sieve gaps", bad_set, total)
    _sweep_row(result, "cardinality ceil(l^2/2) + 2l", bad_count, total)
    return result


def check_arith_genus_upper(m_lo: int = 2, m_hi: int = 4, l_max: int = 20) -> CheckResult:
    """Genus closed form matches the sieve for even ell; odd ell is adjudicated."""
    result = CheckResult("arith-genus-upper")
    bad_even: list[str] = []
    bad_gs: list[str] = []
    total_even = 0
    for m in range(m_lo, m_hi + 1):
        for ell in range(2 * m, l_max + 1, 2):
            total_even += 1
            s = arith.approximating_semigroup(m, ell)
            bound = arith.genus_upper(m, ell)
            if s.genus != bound.proof_derived or bound.stated != bound.proof_derived:
                bad_even.append(f"(m={m},l={ell})")
            if s.apery().gap_count() != s.genus:
                bad_gs.append(f"(m={m},l={ell})")
    _sweep_row(result, "even ell: formula = sieve genus", bad_even, total_even)

    bad_odd: list[str] = []
    stated_matches = 0
    total_odd = 0
    for m in range(m_lo, m_hi + 1):
        start = 2 * m + 1
        for ell in range(start, l_max + 1, 2):
            total_odd += 1
            s = arith.approximating_semigroup(m, ell)
            bound = arith.genus_upper(m, ell)
            if s.genus != bound.proof_derived:
                bad_odd.append(f"(m={m},l={ell})")
            if bound.stated == s.genus:
                stated_matches += 1
            if s.apery().gap_count() != s.genus:
                bad_gs.append(f"(m={m},l={ell})")
    _sweep_row(result, "odd ell: derived value = sieve genus", bad_odd, total_odd)
    _sweep_row(result, "apery gap identity", bad_gs, total_even + total_odd)
    result.findings.append(
        f"odd ell: the stated (l+1)(l-2)/4 form matched the sieve on {stated_matches}"
        f" of {total_odd} instances; the derived (l+1)(l-1)/4 form matched all"
    )
    return result


def _check_apery(parity: str, m_lo: int, m_hi: int, l_max: int) -> CheckResult:
    result = CheckResult(f"apery-{parity}")
    bad: list[str] = []
    uncovered_total = 0
    classes = 0
    total = 0
    for m in range(m_lo, m_hi + 1):
        start = 2 * m if parity == "even" else 2 * m + 1
        for ell in range(start, l_max + 1, 2):
            total += 1
            s = arith.approximating_semigroup(m, ell)
            table = s.apery()
            formulas = arith.apery_predictions(m, ell)
            for p in formulas.predictions:
                classes += 1
                if table.entries[p.residue] != p.value:
                    bad.append(f"(m={m},l={ell}) residue {p.residue} [{p.family}]")
            uncovered_total += len(formulas.uncovered)
            for note in formulas.findings:
                if note not in result.findings:
                    result.findings.append(note)
    _sweep_row(result, "formula entries = table entries", bad, classes)
    result.row(
        "coverage",
        None,
        f"{uncovered_total} residue classes uncovered by the stated families"
        f" across {total} profiles",
    )
    return result


def check_apery_even(m_lo: int = 2, m_hi: int = 4, l_max: int = 20) -> CheckResult:
    """Even-ell Apery formula families agree with the direct table where they apply."""
    return _check_apery("even", m_lo, m_hi, l_max)


def check_apery_odd(m_lo: int = 2, m_hi: int = 4, l_max: int = 21) -> CheckResult:
    """Odd-ell Apery formula families agree with the direct table where they apply."""
    return _check_apery("odd", m_lo, m_hi, l_max)


def check_apery_product_lemma(m_lo: int = 2, m_hi: int = 4, l_max: int = 16) -> CheckResult:
    """Apery set of <ml, ml+m, ml+2m, 2m(l+1)+1> is the stated product set (even ell)."""
    result = CheckResult("apery-product-lemma")
    failures: list[str] = []
    total = 0
    for m in range(m_lo, m_hi + 1):
        for ell in range(2 * m, l_max + 1, 2):
            total += 1
            t = NumericalSemigroup(
                (m * ell, m * ell + m, m * ell + 2 * m, 2 * m * (ell + 1) + 1)
            )
            g2, g1, gb = m * ell + m, m * ell + 2 * m, 2 * m * (ell + 1) + 1
            product = {
                x * g2 + y * g1 + z * gb
                for x in range(2)
                for y in range(ell // 2)
                for z in range(m)
            }
            if product != set(t.apery().entries):
                failures.append(f"(m={m},l={ell})")
    _sweep_row(result, "apery set = product set", failures, total)
    return result


def check_valuation_lemma(instances: int = 200, seed: int = 0) -> CheckResult:
    """Random N-term combinations have valuation at most min(orders) + N - 1."""
    result = CheckResult("valuation-lemma")
    failures: list[str] = []
    rng = random.Random(seed)
    prime = series.DEFAULT_PRIME
    for i in range(instances):
        n = rng.randint(1, 6)
        valuations = sorted(rng.randint(1, 30) for _ in range(n))
        precision = valuations[-1] + n + 8
        draw = random.Random(rng.randrange(1 << 30))
        members = [
            series._draw_series(draw, v, precision, prime) for v in valuations
        ]
        coeffs = [rng.randrange(1, prime) for _ in range(n)]
        got = series.combination_valuation_probe(members, coeffs)
        limit = valuations[0] + n - 1
        if got is None or got > limit:
            failures.append(f"instance {i} (valuations {valuations}, got {got})")
    _sweep_row(result, f"valuation <= min + N - 1 over {instances} draws", failures, instances)
    return result


def check_generic_montecarlo(
    l_lo: int = 4,
    l_hi: int = 10,
    trials: int = 3,
    prime: int = series.DEFAULT_PRIME,
    base_seed: int = 0,
) -> CheckResult:
    """Monte-Carlo sweep for profiles (2l, 2l+2, 2l+4): agreement, containment, bounds.

    The "seeds agree" row cannot fail: a disagreement raises
    :class:`~cuspsemi.series.SeedDisagreementError` (exit 4) before it is written.
    """
    result = CheckResult("generic-montecarlo")
    bad_contain: list[str] = []
    bad_bounds: list[str] = []
    bad_windows: list[str] = []
    bad_gapwin: list[str] = []
    bad_monoid: list[str] = []
    total = 0
    for ell in range(l_lo, l_hi + 1):
        total += 1
        orders = arith.ArithProfile(2, ell).orders
        emp = series.empirical_generic_semigroup(orders, trials, prime, base_seed)

        branches = ["general"] if ell % 2 == 0 else ["general", "m2"]
        for branch in branches:
            approx = arith.approximating_semigroup(2, ell, branch=branch)
            if any(
                approx.contains(x) and not emp.contains(x)
                for x in range(emp.conductor)
            ):
                bad_contain.append(f"ell={ell} [{branch}]")

        lower = arith.best_genus_lower(2 * ell, 2, 4).bound
        upper = arith.genus_upper(2, ell).proof_derived
        if not lower <= emp.genus <= upper:
            bad_bounds.append(f"ell={ell} (genus {emp.genus} not in [{lower}, {upper}])")

        d = 0
        while True:
            window = arith.forbidden_window(2 * ell, 2, 4, d)
            if window is None:
                break
            if any(emp.contains(x) for x in window.excluded()):
                bad_windows.append(f"ell={ell} d={d}")
            d += 1

        m = 2 * ell
        d = 0
        while arith.window_gap_bound(m, 2, 4, d) > 0:
            need = arith.window_gap_bound(m, 2, 4, d)
            have = sum(
                1
                for x in range(d * m, (d + 1) * m + 1)
                if not emp.contains(x)
            )
            if have < need:
                bad_gapwin.append(f"ell={ell} d={d}")
            d += 1

        generated = monoid_members(orders, emp.conductor)
        if any(not emp.contains(x) for x in generated):
            bad_monoid.append(f"ell={ell}")
    _sweep_row(result, f"{_count_word(trials)} seeds agree", [], total)
    _sweep_row(result, "approximating semigroup contained", bad_contain, total)
    _sweep_row(result, "lower <= genus <= upper", bad_bounds, total)
    _sweep_row(result, "forbidden windows avoid achieved values", bad_windows, total)
    _sweep_row(result, "window gap counts", bad_gapwin, total)
    _sweep_row(result, "profile monoid contained", bad_monoid, total)
    return result


def check_supersym_generic_contains(
    prime: int = series.DEFAULT_PRIME, base_seed: int = 0, trials: int = 3
) -> CheckResult:
    """Generic cusps with supersymmetric profiles achieve abc + 1 and abc + 2."""
    result = CheckResult("supersym-generic-contains")
    for triple in ((3, 4, 5), (2, 3, 5)):
        for offset in range(trials):
            got = supersym.generic_contains_abc_plus(
                *triple, prime=prime, seed=base_seed + offset
            )
            result.row(
                f"{triple} seed {base_seed + offset} achieves abc+1, abc+2",
                got == (True, True),
                f"got {got}",
            )
    return result


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


THEOREMS: dict[str, tuple[str, object]] = {
    "supersym-invariants": (
        "frobenius/genus closed forms and symmetry of <ab, ac, bc>",
        check_supersym_invariants,
    ),
    "rho-simplex": ("two-route agreement for the gap count above abc", check_rho_simplex),
    "yz-bounds": ("Yau-Zhang lattice-point bounds on the rho simplex", check_yz_bounds),
    "excess-supersym": (
        "excess dimension of the supersymmetric cuspidal stratum",
        check_excess_supersym,
    ),
    "excess-generic": (
        "excess dimension of the generic cuspidal stratum",
        check_excess_generic,
    ),
    "sprime": ("genus/frobenius closed forms for the extension by abc + 1", check_sprime),
    "min-congruent-one": (
        "least member congruent to 1 mod abc via residue triples",
        check_min_congruent_one,
    ),
    "unique-factorization": (
        "unique factorization below abc and the shifted enumeration",
        check_unique_factorization,
    ),
    "betti-supersym": (
        "abc is the only element with a disconnected factorization graph",
        check_betti_supersym,
    ),
    "m2-gaps": ("closed-form gap set of the m = 2 approximating semigroup", check_m2_gaps),
    "arith-genus-upper": (
        "genus closed form of the approximating semigroup",
        check_arith_genus_upper,
    ),
    "apery-even": ("Apery formula families, even ell", check_apery_even),
    "apery-odd": ("Apery formula families, odd ell", check_apery_odd),
    "apery-product-lemma": (
        "product form of the four-generator Apery set (even ell)",
        check_apery_product_lemma,
    ),
    "valuation-lemma": (
        "valuation bound for N-term random combinations",
        check_valuation_lemma,
    ),
    "generic-montecarlo": (
        "Monte-Carlo value semigroups of (2l, 2l+2, 2l+4) profiles",
        check_generic_montecarlo,
    ),
    "supersym-generic-contains": (
        "generic supersymmetric cusps achieve abc + 1 and abc + 2",
        check_supersym_generic_contains,
    ),
    "asymptotic-lower": (
        "asymptotic strength of the genus lower bound (informational)",
        check_asymptotic_lower,
    ),
}
