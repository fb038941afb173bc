"""Exact numerical semigroups: membership sieve, classical invariants, factorizations.

A numerical semigroup is an additively closed subset of the nonnegative integers
that contains 0 and has a finite complement (the gaps).  Everything here is exact
integer arithmetic; the members below the conductor are stored as a bitmask, and
every integer at or above the conductor is a member by construction.

The kernels take logarithmically many big-integer steps.  The sieve ORs in
each generator shifted by g, 2g, 4g, ... (each shift doubles the multiples of
g already present), and the conductor search finds a run of r set bits by
ANDing with shifts by 1, 2, 4, ... and one last shift.  Each semigroup is
sieved in one pass, to a bound on its Frobenius number plus 1 plus the
multiplicity: far enough for the run of multiplicity-many members that starts
at the conductor.  The bound is the smaller of Brauer's (Amer. J. Math. 64, 1942),
exact on <ab, ac, bc>, and Erdos and Graham's (Acta Arith. 21, 1972), the
smaller one for many generators.  The conductor is the sieve's first run
of m members, never the bound, so a bound that fell short would raise instead
of giving a wrong semigroup.  The Apery set and the Betti elements are read
from the membership bitmask by shifts, ANDs and ORs over whole masks: one
shift for the Apery set, k^3 for the Betti elements of k generators.
Factorizations are a brute-force recursion, for cross-checks.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable


class GcdNotOneError(ValueError):
    """Raised when a generating set has gcd != 1, so the complement would be infinite."""


def _reach(gens: tuple[int, ...], limit: int) -> int:
    """Bitmask of the additive monoid generated by ``gens`` over [0, limit).

    After ORing in the shifts g, 2g, ..., 2^j g the mask holds every multiple
    of g below 2^(j+1) g, so log2(limit / g) steps per generator suffice.
    """
    if limit < 1:
        return 0
    mask = (1 << limit) - 1
    bits = 1
    for g in gens:
        shift = g
        while shift < limit:
            bits = (bits | (bits << shift)) & mask
            shift <<= 1
    return bits


def _first_run_start(bits: int, run_length: int) -> int | None:
    """Index of the first run of ``run_length`` consecutive set bits, if any.

    Bit i of ``y`` is set when bits i .. i + k - 1 all are; ANDing with
    ``y >> k`` doubles k, and one shift by ``run_length - k <= k`` ends it.
    """
    y = bits
    k = 1
    while y and 2 * k <= run_length:
        y &= y >> k
        k *= 2
    if k < run_length:
        y &= y >> (run_length - k)
    if not y:
        return None
    return (y & -y).bit_length() - 1


def _set_bits(x: int) -> list[int]:
    """Indices of the set bits of ``x >= 0``, in increasing order."""
    digits = f"{x:b}"[::-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


# byte i with its eight bits in reverse order, a translate table for is_symmetric
_REV = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


class NumericalSemigroup:
    """Numerical semigroup generated by positive integers with gcd 1.

    The conductor is detected as the first index starting a run of
    ``min(generators)`` consecutive members: once that many consecutive elements
    are present, adding the multiplicity repeatedly fills in everything beyond.
    One sieve pass, to a Frobenius bound + 1 + the multiplicity, covers that
    run; the table keeps the members below the conductor.
    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("generators", "conductor", "_bits")

    def __init__(self, generators: Iterable[int]) -> None:
        gens = tuple(sorted({int(g) for g in generators}))
        if not gens:
            raise ValueError("at least one generator is required")
        if gens[0] < 1:
            raise ValueError("generators must be positive")
        mult = gens[0]
        top = gens[-1]
        k = len(gens)
        # Brauer's bound (Amer. J. Math. 64, 1942): with d_i the gcd of the
        # first i generators, F <= sum over i < k of g_{i+1} * (d_i / d_{i+1} - 1),
        # minus g_1.  It is exact on telescopic sequences such as <ab, ac, bc>.
        bound = -mult
        d = mult
        for n in gens[1:]:
            e = gcd(d, n)
            bound += n * (d // e - 1)
            d = e
        if d != 1:
            raise GcdNotOneError(f"gcd of generators {gens} is {d}, not 1")
        if k >= 2:
            # Erdos and Graham (Acta Arith. 21, 1972): F <= 2 * g_{k-1} * floor(g_k / k) - g_k
            bound = min(bound, 2 * gens[-2] * (top // k) - top)
        # One sieve pass: the run of mult members at the conductor lies below bound + 1 + mult
        bits = _reach(gens, bound + 1 + mult)
        start = _first_run_start(bits, mult)
        if start is None:
            raise RuntimeError(f"conductor of {gens} exceeds the Frobenius bound {bound} + 1")

        self.generators = gens
        self.conductor = start
        self._bits = bits & ((1 << start) - 1)

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def frobenius(self) -> int:
        """Largest gap; -1 when the semigroup is all of N."""
        return self.conductor - 1

    @property
    def genus(self) -> int:
        """Number of gaps."""
        return self.conductor - self._bits.bit_count()

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        if x >= self.conductor:
            return True
        return bool(self._bits >> x & 1)

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def gaps(self) -> list[int]:
        """All gaps, in increasing order."""
        bits = self._bits
        return [x for x in range(self.conductor) if not bits >> x & 1]

    def member_count_below(self, t: int) -> int:
        """Number of members in [0, t)."""
        if t <= 0:
            return 0
        if t <= self.conductor:
            return (self._bits & ((1 << t) - 1)).bit_count()
        return self._bits.bit_count() + (t - self.conductor)

    def is_symmetric(self) -> bool:
        """True when exactly one of x, F - x is a member for every 0 <= x <= F."""
        if self.conductor == 0:
            raise ValueError("symmetry is undefined for the full semigroup N")
        width = self.conductor  # F + 1
        bits = self._bits
        n = (width + 7) // 8
        # bit i moves to bit width - 1 - i: bytes in reverse order, each byte's bits reversed
        rev = int.from_bytes(bits.to_bytes(n, "little").translate(_REV), "big") >> (8 * n - width)
        return bits ^ rev == (1 << width) - 1

    def apery(self) -> tuple[int, ...]:
        """Apery set with respect to the multiplicity m, as a tuple.

        Entry i is the least member congruent to i mod m, so entry 0 is 0.
        A member w is the least of its class exactly when w - m is not a
        member (Rosales and Garcia-Sanchez, *Numerical Semigroups*, 2009, the
        chapter on notable elements), so Ap(S, m) is the set bits of
        ``bits & ~(bits << m)``.  Every entry is at most F + m = conductor - 1 + m,
        so the bitmask is widened with ones to conductor + m bits.
        """
        m = self.multiplicity
        c = self.conductor
        bits = self._bits | ((1 << (c + m)) - (1 << c))
        entries = [0] * m
        for w in _set_bits(bits & ~(bits << m)):
            entries[w % m] = w
        return tuple(entries)

    def factorizations(self, s: int) -> list[tuple[int, ...]]:
        """All nonnegative coefficient vectors over the generators summing to ``s``.

        Returned in lexicographic order; empty exactly when ``s`` is not a member.
        Each level tries every coefficient from 0 up, and the last generator
        takes the remainder when it divides it.
        """
        if s < 0:
            raise ValueError("element must be nonnegative")
        gens = self.generators
        last = len(gens) - 1
        out: list[tuple[int, ...]] = []
        vec = [0] * len(gens)

        def descend(i: int, rem: int) -> None:
            g = gens[i]
            if i == last:
                q, r = divmod(rem, g)
                if r == 0:
                    vec[i] = q
                    out.append(tuple(vec))
                return
            for a in range(rem // g + 1):
                vec[i] = a
                descend(i + 1, rem - a * g)

        descend(0, s)
        return out

    def betti_bound(self) -> int:
        """max(Ap(S, n1)) + the largest generator, at or above every Betti element.

        A Betti element b has a factorization component without n1 but with
        some n_i, so b - n_i lies in Ap(S, n1) (Rosales and Garcia-Sanchez,
        *Numerical Semigroups*, 2009, the chapter on presentations).
        """
        return max(self.apery()) + self.generators[-1]

    def betti_elements(self, bound: int | None = None) -> list[int]:
        """Members s <= bound whose factorization graph is disconnected.

        Without a bound, every Betti element: the bound is :meth:`betti_bound`.

        Vertices are the factorizations of s; edges join factorizations whose
        supports share a generator.  An empty or singleton factorization set
        counts as connected.  The components of that graph match one to one
        the components of the graph G_s whose vertices are the i with
        s - n_i in S, with i and j joined when s - n_i - n_j is in S (Rosales
        and Garcia-Sanchez, *Numerical Semigroups*, 2009, the chapter on
        presentations): the support of a factorization is a clique of G_s,
        and both ends of an edge ij lie in the support of one factorization.
        So every s <= bound is decided at once, one bit each:
        V_i = members << n_i, E_ij = members << (n_i + n_j), Floyd-Warshall
        over the k x k masks, and s is a Betti element when some V_i & V_j
        has no path from i to j.  Nothing is enumerated.
        """
        if bound is None:
            bound = self.betti_bound()
        width = max(bound + 1, 0)
        mask = (1 << width) - 1
        # membership of every s <= bound: the bitmask, then ones from the conductor
        members = self._bits | (mask >> self.conductor << self.conductor)
        gens = self.generators
        k = len(gens)
        reach = [[(members << (gi + gj)) & mask for gj in gens] for gi in gens]
        for l in range(k):
            row_l = reach[l]
            for row_i in reach:
                r_il = row_i[l]
                if r_il:
                    for j in range(k):
                        row_i[j] |= r_il & row_l[j]
        vertex = [(members << g) & mask for g in gens]
        split = 0
        for i in range(k):
            for j in range(i + 1, k):
                split |= vertex[i] & vertex[j] & ~reach[i][j]
        return _set_bits(split)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.conductor == other.conductor and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.conductor, self._bits))

    def __repr__(self) -> str:
        return f"NumericalSemigroup({list(self.generators)})"
