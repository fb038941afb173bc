"""Numerical-semigroup toolkit for space-curve cusps.

Exact arithmetic throughout: big-int bitmask sieves for semigroup membership,
Monte-Carlo valuation computations over a large prime field, and the
excess-dimension predicates built on top of both.

The package exports the quick-start names and the exception classes that the
command line maps to exit codes; everything else is imported from its module
(``cuspsemi.semigroup``, ``cuspsemi.series``, ``cuspsemi.supersym``,
``cuspsemi.arith``, ``cuspsemi.severi``, ``cuspsemi.verify``).
"""

from cuspsemi.semigroup import GcdNotOneError, NumericalSemigroup
from cuspsemi.series import (
    AchievedSetError,
    PrecisionTooSmallError,
    SeedDisagreementError,
    empirical_generic_semigroup,
)
from cuspsemi.supersym import MethodMismatchError, rho

__version__ = "0.1.0"

__all__ = [
    "AchievedSetError",
    "GcdNotOneError",
    "MethodMismatchError",
    "NumericalSemigroup",
    "PrecisionTooSmallError",
    "SeedDisagreementError",
    "empirical_generic_semigroup",
    "rho",
]
