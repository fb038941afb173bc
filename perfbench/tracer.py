"""Outside-in tracing of cuspsemi: wrappers on each layer's entry points.

The program has no spans of its own, so the traced run replaces the entry
points of every module (``semigroup``, ``supersym``, ``severi``, ``arith``,
``series``, ``verify``, ``cli``) with wrappers that record a span per call:
id, parent id, name, start, end, whether it raised, and a capture of the call
(the generator tuple of a build, the operand lengths of a product, ...).  Spans
are kept in memory and written out at the end.  Derived figures such as the
schoolbook term count are computed from the captures after the run, so that
their cost is not charged to any span.

A function imported by name into another module is a second binding of the
same object, so every module of the package that holds the original is
rebound; otherwise calls through that binding would go uncounted.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import defaultdict

from cuspsemi import arith, cli, semigroup, series, severi, supersym, verify
from workloads import VERIFY_IDS

# (span name, owner, attribute).  A class owner has its method replaced; a
# module owner has every binding of the function in the package replaced.
_TARGETS = (
    ("cli", cli, "main"),
    ("semigroup.build", semigroup.NumericalSemigroup, "__init__"),
    ("semigroup.sieve", semigroup, "_reach"),
    ("semigroup.factorizations", semigroup.NumericalSemigroup, "factorizations"),
    ("semigroup.betti", semigroup.NumericalSemigroup, "betti_elements"),
    ("semigroup.apery", semigroup.NumericalSemigroup, "apery"),
    ("supersym.rho", supersym, "rho"),
    ("supersym.lattice_count", supersym, "lattice_count"),
    ("supersym.abc_all_factorizations", supersym, "abc_all_factorizations"),
    ("severi.excess_supersym", severi, "excess_supersym"),
    ("arith.approximating_semigroup", arith, "approximating_semigroup"),
    ("series.mul", series.TruncatedSeries, "__mul__"),
    ("series.echelon", series, "_insert_row"),
    ("series.value_semigroup", series, "value_semigroup"),
    ("series.start_precision", series, "start_precision"),
)


def schoolbook_terms(la: int, lb: int, n: int) -> int:
    """Coefficient products of a schoolbook product truncated to ``n`` terms.

    Counts the pairs (i, j) with i < la, j < lb and i + j < n.
    """
    k = min(la, n)
    full = max(0, min(k, n - lb + 1))  # rows i that use all lb coefficients
    return full * lb + (k - full) * (2 * n - full - k + 1) // 2


# What a wrapper keeps of a call, taken after the span's end stamp.  Each
# capture only reads lengths or keeps references, because its time falls in
# the parent's span; the figures are derived from it in ``layer_metrics``.
def _build_capture(args, kwargs, result):
    return args[0].generators


def _mul_capture(args, kwargs, result):
    a, b = args
    return len(a.coefficients), len(b.coefficients), len(result.coefficients)


def _echelon_capture(args, kwargs, result):
    return result is not None


def _horizon_capture(args, kwargs, result):
    return args, kwargs, result


_CAPTURES = {
    "semigroup.build": _build_capture,
    "series.mul": _mul_capture,
    "series.echelon": _echelon_capture,
    "series.value_semigroup": _horizon_capture,
}

_VALUE_SEMIGROUP_SIGNATURE = inspect.signature(series.value_semigroup)


def _horizon(captured) -> tuple[int, int]:
    """(precision used, conductor found) of one ``value_semigroup`` call."""
    args, kwargs, result = captured
    bound = _VALUE_SEMIGROUP_SIGNATURE.bind(*args, **kwargs)
    r1 = series.RamificationProfile.of(bound.arguments["profile"]).orders[0]
    return bound.arguments["precision"], series.detect_conductor(result, r1)


class Tracer:
    """Records spans from wrappers installed on cuspsemi's entry points."""

    def __init__(self) -> None:
        # (id, parent id, name, start ns, end ns, capture, raised)
        self.spans: list[tuple] = []
        self._stack = [-1]
        self._ids = itertools.count()

    def _wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        capture = _CAPTURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, None, True))
                raise
            end = clock()
            stack.pop()
            spans.append(
                (sid, parent, name, start, end, capture(args, kwargs, result) if capture else None, False)
            )
            return result

        return traced

    def install(self) -> None:
        """Replace the entry points for the rest of the process."""
        modules = [m for n, m in sys.modules.items() if n == "cuspsemi" or n.startswith("cuspsemi.")]
        for name, owner, attr in _TARGETS:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapped)
        for theorem, (description, func) in list(verify.THEOREMS.items()):
            verify.THEOREMS[theorem] = (description, self._wrap(f"verify.{theorem}", func))

    def write(self, path: str) -> None:
        """Write the spans as tab-separated rows, times in ns from the first start."""
        origin = min((s[3] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\traised\n")
            for sid, parent, name, start, end, _, raised in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start - origin}\t{end - origin}\t{int(raised)}\n")


SELF_TIME_SPANS = (
    "semigroup.build",
    "semigroup.sieve",
    "semigroup.factorizations",
    "semigroup.betti",
    "semigroup.apery",
    "supersym.rho",
    "supersym.lattice_count",
    "supersym.abc_all_factorizations",
    "severi.excess_supersym",
    "arith.approximating_semigroup",
    "series.mul",
    "series.echelon",
    "series.value_semigroup",
    "cli",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit).  A ratio with base 0 reads 0.

    Every metric whose unit is not ``s`` is a count or a ratio of counts, which
    repeats exactly for one seed.
    """
    count: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, name, start, end, _, _ in spans:
        count[name] += 1
        total_ns[name] += end - start
        child_ns[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    for sid, _, name, start, end, _, _ in spans:
        self_ns[name] += end - start - child_ns[sid]

    def captures(name):
        return [s[5] for s in spans if s[2] == name and not s[6]]

    builds = count["semigroup.build"]
    passes = count["semigroup.sieve"]
    rows = count["series.echelon"]
    pivots = sum(captures("series.echelon"))
    horizons = [_horizon(c) for c in captures("series.value_semigroup")]
    out: dict[str, tuple[float, str]] = {
        "semigroup.build.count": (builds, "count"),
        "semigroup.build.distinct_ratio": (_ratio(len(set(captures("semigroup.build"))), builds), "ratio"),
        "semigroup.sieve.passes": (passes, "count"),
        "semigroup.sieve.passes_per_build": (_ratio(passes, builds), "ratio"),
        "semigroup.factorizations.count": (count["semigroup.factorizations"], "count"),
        "supersym.rho.count": (count["supersym.rho"], "count"),
        "supersym.lattice_count.count": (count["supersym.lattice_count"], "count"),
        "arith.approximating_semigroup.count": (count["arith.approximating_semigroup"], "count"),
        "series.mul.count": (count["series.mul"], "count"),
        "series.mul.terms": (sum(schoolbook_terms(*c) for c in captures("series.mul")), "count"),
        "series.echelon.rows": (rows, "count"),
        "series.echelon.pivots": (pivots, "count"),
        "series.echelon.useful_ratio": (_ratio(pivots, rows), "ratio"),
        "series.horizon.attempts": (count["series.value_semigroup"], "count"),
        "series.horizon.retries": (count["series.value_semigroup"] - len(horizons), "count"),
        "series.horizon.overshoot": (
            _ratio(sum(h for h, _ in horizons), sum(c for _, c in horizons)),
            "ratio",
        ),
    }
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    for theorem in VERIFY_IDS:
        out[f"verify.{theorem}.wall_s"] = (total_ns[f"verify.{theorem}"] / 1e9, "s")
    return out
