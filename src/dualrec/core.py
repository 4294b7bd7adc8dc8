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
import numbers
import operator
import sys
from dataclasses import dataclass, field

import numpy as np


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

# neither type can be subclassed, so a count's exact type says if it is one
_BOOL_TYPES = frozenset((bool, np.bool_))


@dataclass(frozen=True)
class DrsTable:
    """Observed cells of one stratum's incomplete 2x2 capture table."""

    x11: int
    x10: int
    x01: int

    def __init__(self, x11, x10, x01):
        # ints in [0, 2**63), as draws give, pass as they are: their OR is in range iff all are
        if not (type(x11) is type(x10) is type(x01) is int and 0 <= x11 | x10 | x01 < 2**63):
            x11, x10, x01 = _count("x11", x11), _count("x10", x10), _count("x01", x01)
        # one write, not the generated frozen __init__'s three object.__setattr__
        # calls; a study builds two tables a replicate
        self.__dict__.update(x11=x11, x10=x10, x01=x01)

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


def _count(name: str, value) -> int:
    """``value`` as a cell count: an int in [0, 2**63), or a DomainError
    (a NegativeCount below 0) naming ``name``."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None  # non-numeric, NaN or infinite
    if count is None or count != value or type(value) in _BOOL_TYPES:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not 0 <= count < 2**63:
        if count < 0:
            raise NegativeCount(f"{name} must be nonnegative" + _got(count))
        # the int64 bound that BbmParams puts on n; below it no
        # estimator overflows a float (the count may be too long to print)
        raise DomainError(f"{name} must be below 2**63")
    return count


def validate_table(t: DrsTable) -> DrsTable:
    """Return ``t`` unchanged if it is a usable observed table.

    Counts are already forced nonnegative by construction; this adds the
    emptiness check that estimators need (at least one individual seen).
    Anything but a :class:`DrsTable` raises :class:`DomainError`.
    """
    if not isinstance(t, DrsTable):
        raise DomainError(f"a table must be a DrsTable, got {t!r}")
    if not (t.x11 or t.x10 or t.x01):  # x0 == 0, without the property's call
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

    def __init__(self, a, b, label_a="A", label_b="B"):
        # one write, not the generated frozen __init__'s four object.__setattr__
        # calls; a study builds one pair a replicate
        self.__dict__.update(a=a, b=b, label_a=label_a, label_b=label_b)


def check_pair(data) -> StratumPair:
    """``data`` unchanged; a DomainError where it is not a :class:`StratumPair`
    of two :class:`DrsTable` strata."""
    if not (isinstance(data, StratumPair) and isinstance(data.a, DrsTable)
            and isinstance(data.b, DrsTable)):
        raise DomainError(f"data must be a StratumPair of two DrsTables, got {data!r}")
    return data


def validate_pair(data) -> tuple[DrsTable, DrsTable]:
    """The two strata of ``data``, each a usable table: :func:`check_pair`,
    then :func:`validate_table`'s emptiness check on each, written inline
    since every estimator of a pair runs it."""
    a, b = check_pair(data).a, data.b
    if not (a.x11 or a.x10 or a.x01) or not (b.x11 or b.x10 or b.x01):
        raise EmptyTable("all observed cells are zero")
    return a, b


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
        check_real("p1", self.p1, "(0,1)")
        check_real("p2", self.p2, "(0,1]")
        check_real("alpha", self.alpha, "[0,1]")
        # the multinomial draw takes sizes as int64
        if not 0.0 < check_real("n", self.n) < 2.0**63:
            raise DomainError("n must be positive and below 2**63" + _got(self.n))


@dataclass(frozen=True)
class CellProbabilities:
    """Cell probabilities (p11, p10, p01, p00) of the full 2x2 table."""

    p11: float
    p10: float
    p01: float
    p00: float

    def __post_init__(self) -> None:
        for name in ("p11", "p10", "p01", "p00"):
            check_real(name, getattr(self, name), "[0,1]")
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
        check_real("p1dot", self.p1dot, "(0,1)")
        check_real("p", self.p, "(0,1]")
        check_real("c", self.c, "(0,1]")
        check_real("phi", self.phi, "(0,inf)")
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

    def __init__(self, method, estimates, se=None, ci=None, diagnostics=None):
        # one write, not the generated frozen __init__'s five object.__setattr__
        # calls; a study builds several a replicate.  No diagnostics is a new {}
        self.__dict__.update(method=method, estimates=estimates, se=se, ci=ci,
                             diagnostics={} if diagnostics is None else diagnostics)


# ---------------------------------------------------------------------------
# Numeric helpers
# ---------------------------------------------------------------------------

_LOGFAC_MODES = ("exact", "stirling1", "stirling3")


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

    Raises :class:`DomainError` for a negative, infinite or NaN ``n``, an
    ``n`` whose log-factorial has no float (from about 2.56e305), or an
    unknown mode.
    """
    if type(n) is not float:  # the likelihood's floats skip the type check
        check_real("n", n)
    # one comparison on the likelihood's path: n - n is 0 for a finite n and
    # NaN for an infinite or NaN one, and 0 >= -n holds just when n >= 0
    if not n - n >= -n:
        raise DomainError(f"log_factorial requires a finite n >= 0, got {n}")
    check_name("log-factorial mode", mode, _LOGFAC_MODES)
    try:  # free on the likelihood's path until something overflows
        if mode == "exact":
            return math.lgamma(n + 1.0)
        if n == 0:
            return 0.0
        v = n * math.log(n) - n
        if mode == "stirling3":
            v += 0.5 * math.log(2.0 * math.pi * n)
        if v != math.inf:
            return v
    except OverflowError:
        pass
    # lgamma or n ln n from about 2.56e305 on, or an int too large for a float
    raise DomainError("n is too large for log_factorial" + _got(n))


def stirling1_ratio(n: float, x0: int) -> float:
    """``log(n! / (n - x0)!)`` at first Stirling order, -inf below ``n = x0``.

    The bits of ``log_factorial(n, "stirling1") - log_factorial(n - x0,
    "stirling1")``, with the checks and calls left out for a finite float
    ``n``, as a likelihood evaluation passes; any other ``n`` goes through
    :func:`log_factorial`, which refuses an infinite or NaN one.
    """
    m = n - x0
    if m < 0.0:
        return -math.inf
    if type(n) is not float or n - n != 0.0:
        return log_factorial(n, "stirling1") - log_factorial(m, "stirling1")
    return (n * math.log(n) - n if n else 0.0) - (m * math.log(m) - m if m else 0.0)


def _exact_ratio(n: float, x0: int) -> float:
    # log(n! / (n - x0)!) via log-gamma, defined down to n > x0 - 1; -inf where
    # n - x0 + 1 underflows to 0, as when a fit pins n at its transform floor
    v = n - x0 + 1.0
    return -math.inf if v <= 0.0 else math.lgamma(n + 1.0) - math.lgamma(v)


def digamma(x: float) -> float:
    """``psi(x)``, the derivative of ``lgamma``, for real ``x > 0``: AS 103
    (Bernardo, Appl. Statist. 25, 1976).  ``psi(x) = psi(x + 1) - 1/x`` lifts
    ``x`` to 6 or more, where the asymptotic series is good to about 1e-11."""
    if x < 6.0:
        return digamma(x + 1.0) - 1.0 / x
    f = 1.0 / (x * x)
    series = f * (1 / 12 - f * (1 / 120 - f * (1 / 252 - f * (1 / 240 - f / 132))))
    return math.log(x) - 0.5 / x - series


def _stirling1_dratio(n: float, x0: int) -> float:
    return math.log(n) - math.log(max(n - x0, 1e-12))


def lfac_ratio(mode: str):
    """``(ratio, dratio)``: ``ratio(n, x0) = log(n! / (n - x0)!)``, ``n``
    continuous, and its derivative in ``n``, in ``mode``'s form (as in
    :func:`log_factorial`).  The Stirling ratios are -inf below ``n = x0``;
    each derivative floors its lower argument at 1e-12 to stay finite at
    that wall.  An unknown mode raises :class:`DomainError`."""
    check_name("log-factorial mode", mode, _LOGFAC_MODES)
    if mode == "exact":
        return _exact_ratio, lambda n, x0: digamma(n + 1.0) - digamma(max(n - x0 + 1.0, 1e-12))
    if mode == "stirling1":
        return stirling1_ratio, _stirling1_dratio

    def ratio(n: float, x0: int) -> float:
        m = n - x0
        return -math.inf if m < 0.0 else log_factorial(n, mode) - log_factorial(m, mode)

    def dratio(n: float, x0: int) -> float:
        v = max(n - x0, 1e-12)
        return math.log(n) + 0.5 / n - math.log(v) - 0.5 / v

    return ratio, dratio


def check_integer(name: str, value, minimum: int) -> int:
    """``value`` as an int; a DomainError naming ``name`` if it is not one
    (a bool is not, though ``operator.index`` reads it as 0 or 1) or if it
    is below ``minimum``."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if n < minimum:
        raise DomainError(f"{name} must be at least {minimum}" + _got(n))
    return n


_FLOAT_MAX = sys.float_info.max
# NaN fails every test; an int compares with _FLOAT_MAX exactly
_INTERVALS = {
    "(0,1)": lambda v: 0.0 < v < 1.0,
    "(0,1]": lambda v: 0.0 < v <= 1.0,
    "[0,1]": lambda v: 0.0 <= v <= 1.0,
    "(0,inf)": lambda v: 0.0 < v <= _FLOAT_MAX,
    "[0,inf)": lambda v: 0.0 <= v <= _FLOAT_MAX,
    "(-inf,inf)": lambda v: -_FLOAT_MAX <= v <= _FLOAT_MAX,
}


def check_real(name: str, value, interval: str | None = None):
    """``value`` unchanged; a DomainError naming ``name`` if it is not a real
    number (a bool is not) or lies outside ``interval``, a key of
    ``_INTERVALS``, whose ``inf`` ends also refuse an int with no float."""
    v = value
    # a float skips the abstract-class check, which costs several times more
    if type(v) is not float:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        if isinstance(v, np.floating):  # numpy would cast the bound to a narrower float
            v = float(v)
    if interval is not None and not _INTERVALS[interval](v):
        bound = " and the float range" if "inf" in interval else ""
        raise DomainError(f"{name} must be in {interval}{bound}" + _got(value))
    return value


def check_type(name: str, value, cls: type, noun: str | None = None):
    """``value`` unchanged; a DomainError naming ``name`` if it is not an
    instance of ``cls``, described as ``noun`` (``"a <cls name>"`` by
    default), as ``"rng must be a numpy Generator, got None"``."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be {noun or 'a ' + cls.__name__}, got {value!r}")
    return value


def check_name(kind: str, value, names):
    """``value`` unchanged if it is one of the strings ``names``; else, an
    unhashable value included, a DomainError naming ``kind`` that lists
    ``names``, as ``"unknown scheme 'x'; valid: parametric, nonparametric"``."""
    if not (isinstance(value, str) and value in names):
        raise DomainError(f"unknown {kind} {value!r}; valid: {', '.join(names)}")
    return value


def _got(value) -> str:
    """``", got <value>"``, or nothing for an int too long to print."""
    try:
        return f", got {value}"
    except ValueError:
        return ""


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
    q = np.percentile(np.asarray(values, dtype=float), [lo, hi])
    return (float(q[0]), float(q[1]))
