"""Core domain types, validation, and shared numeric helpers.

Conventions for two-list (dual-record) count data
--------------------------------------------------
A stratum's observed capture history is an incomplete 2x2 table holding

* ``x11`` -- individuals recorded by both lists,
* ``x10`` -- individuals recorded by List 1 only,
* ``x01`` -- individuals recorded by List 2 only.

The (0, 0) cell is structurally unobservable, so the derived margins

* ``x1dot = x11 + x10`` (List 1 total),
* ``xdot1 = x11 + x01`` (List 2 total),
* ``x0 = x11 + x10 + x01`` (distinct individuals seen at all)

are functions of the three observed cells only.  Every estimator in this
package consumes these tables, one per stratum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class DualrecError(Exception):
    """Base class for every error raised by this package."""


class NegativeCount(DualrecError):
    """A cell count is negative."""


class EmptyTable(DualrecError):
    """All observed cells of a table are zero."""


class DomainError(DualrecError):
    """A parameter lies outside its mathematical domain."""


class OutOfRange(DualrecError):
    """A derived quantity fell outside its admissible interval."""


class DivisionByZero(DualrecError):
    """A required denominator evaluated to zero."""


class DegenerateDependence(DualrecError):
    """The dependence parameter sits at the degenerate value alpha = 1."""


class InfeasibleN(DualrecError):
    """A population size below the number of distinct observed individuals."""


class Infeasible(DualrecError):
    """A method's feasibility condition failed on the given data."""


class ConditionViolated(DualrecError):
    """A method's applicability condition failed on the given data."""


class DidNotConverge(DualrecError):
    """An iterative fit stopped before meeting its tolerance."""


class AllReplicatesFailed(DualrecError):
    """Every replicate of a simulation study failed for an estimator."""


class AllResamplesFailed(DualrecError):
    """Fewer than two bootstrap resamples produced an estimate, too few for
    a standard error."""


# ---------------------------------------------------------------------------
# Observed-data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrsTable:
    """Observed cells of one stratum's incomplete 2x2 capture table."""

    x11: int
    x10: int
    x01: int

    def __post_init__(self) -> None:
        for name in ("x11", "x10", "x01"):
            value = getattr(self, name)
            try:
                count = int(value)
            except (TypeError, ValueError, OverflowError):
                count = None  # non-numeric, NaN or infinite
            if count is None or count != value or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if count < 0:
                raise NegativeCount(f"{name} must be nonnegative, got {count}")
            object.__setattr__(self, name, count)

    @property
    def x1dot(self) -> int:
        """List 1 total: x11 + x10."""
        return self.x11 + self.x10

    @property
    def xdot1(self) -> int:
        """List 2 total: x11 + x01."""
        return self.x11 + self.x01

    @property
    def x0(self) -> int:
        """Distinct individuals observed: x11 + x10 + x01."""
        return self.x11 + self.x10 + self.x01


def validate_table(t: DrsTable) -> DrsTable:
    """Return ``t`` unchanged if it is a usable observed table.

    Counts are already forced nonnegative by construction; this adds the
    emptiness check that estimators need (at least one individual seen).
    """
    if t.x0 == 0:
        raise EmptyTable("all observed cells are zero")
    return t


@dataclass(frozen=True)
class StratumPair:
    """Two strata observed by the same pair of lists.

    Stratum ``a`` is the one modelled as behaviourally dependent; stratum
    ``b`` is the reference stratum.  Labels are carried for reporting.
    """

    a: DrsTable
    b: DrsTable
    label_a: str = "A"
    label_b: str = "B"


# ---------------------------------------------------------------------------
# Parameter types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BbmParams:
    """Parameters of one stratum's dependent-capture (bivariate Bernoulli) model.

    ``p1`` is the List 1 capture probability, ``p2`` the latent List 2
    capture probability, ``alpha`` the probability that an individual's
    List 2 outcome is copied from its List 1 outcome rather than drawn
    independently, and ``n`` the stratum population size.

    ``p2 = 1.0`` is admitted (closed right end) so that marginal-specified
    designs sitting exactly on the boundary remain simulable.
    """

    p1: float
    p2: float
    alpha: float
    n: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p1 < 1.0:
            raise DomainError(f"p1 must be in (0,1), got {self.p1}")
        if not 0.0 < self.p2 <= 1.0:
            raise DomainError(f"p2 must be in (0,1], got {self.p2}")
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must be in [0,1], got {self.alpha}")
        # the multinomial draw takes sizes as int64
        if not 0.0 < self.n < 2.0**63:
            raise DomainError(f"n must be positive and below 2**63, got {self.n}")


@dataclass(frozen=True)
class CellProbabilities:
    """Cell probabilities (p11, p10, p01, p00) of the full 2x2 table."""

    p11: float
    p10: float
    p01: float
    p00: float

    def __post_init__(self) -> None:
        for name in ("p11", "p10", "p01", "p00"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"{name} must be in [0,1], got {p}")
        total = self.p11 + self.p10 + self.p01 + self.p00
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"cell probabilities sum to {total}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p11, self.p10, self.p01, self.p00)


@dataclass(frozen=True)
class MtbParams:
    """Behavioural-response parameterisation equivalent to one dependent stratum.

    ``p1dot`` is the first-list capture probability, ``p`` the initial
    second-list capture probability, ``c`` the recapture probability and
    ``phi = c / p`` the behavioural-response ratio (``phi = 1`` is
    independence; ``phi`` grows without bound as dependence saturates).
    """

    p1dot: float
    p: float
    c: float
    phi: float

    def __post_init__(self) -> None:
        if not self.phi > 0:
            raise DomainError(f"phi must be positive, got {self.phi}")
        if abs(self.c - self.phi * self.p) > 1e-12:
            raise DomainError("c must equal phi * p")


# ---------------------------------------------------------------------------
# Result type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateResult:
    """A fitted estimate with optional uncertainty and fit diagnostics.

    ``estimates`` maps parameter names (``n_a``, ``n_b``, ``n``, ``p1``,
    ``p2a``, ``p2b``, ``alpha`` as applicable) to reported values;
    population sizes are reported integerised under each method's
    convention, with the unrounded values kept in ``diagnostics`` under
    ``<name>_unrounded``.  ``se`` and ``ci`` are filled by the bootstrap.
    """

    method: str
    estimates: dict[str, float]
    se: dict[str, float] | None = None
    ci: dict[str, tuple[float, float]] | None = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Numeric helpers
# ---------------------------------------------------------------------------

def log_factorial(n: float, mode: str = "exact") -> float:
    """Natural log of ``n!`` for real ``n >= 0``.

    Parameters
    ----------
    n : float
        Argument; need not be an integer (the factorial is read as
        ``gamma(n + 1)``).
    mode : str
        ``"exact"`` evaluates ``lgamma(n + 1)``; ``"stirling1"`` is the
        first-order approximation ``n ln n - n``; ``"stirling3"`` adds the
        ``0.5 ln(2 pi n)`` correction term.  ``n = 0`` returns 0.0 in every
        mode.

    Returns
    -------
    float
    """
    if n < 0:
        raise DomainError(f"log_factorial requires n >= 0, got {n}")
    if mode == "exact":
        return math.lgamma(n + 1.0)
    if n == 0:
        return 0.0
    if mode == "stirling1":
        return n * math.log(n) - n
    if mode == "stirling3":
        return n * math.log(n) - n + 0.5 * math.log(2.0 * math.pi * n)
    raise DomainError(f"unknown log-factorial mode {mode!r}")


def check_integer(name: str, value) -> int:
    """``value`` as an int; a DomainError naming ``name`` if it is not one
    (a bool is not, though ``operator.index`` reads it as 0 or 1)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def clamp(x: float, lo: float, hi: float) -> float:
    """Clamp ``x`` into the closed interval [lo, hi]."""
    return lo if x < lo else hi if x > hi else x


def floor_int(x: float) -> int:
    """Integer-part report of a population-size estimate."""
    return math.floor(x)


def round_half_up(x: float) -> int:
    """Round to nearest integer, ties away from zero (for x >= 0)."""
    return math.floor(x + 0.5)


def round_half_even(x: float) -> int:
    """Round to nearest integer, ties to even."""
    return int(round(x))


def empirical_ci(values, lo: float = 2.5, hi: float = 97.5) -> tuple[float, float]:
    """Empirical percentile interval of a sample (default 2.5th/97.5th)."""
    import numpy as np

    q = np.percentile(np.asarray(values, dtype=float), [lo, hi])
    return (float(q[0]), float(q[1]))
