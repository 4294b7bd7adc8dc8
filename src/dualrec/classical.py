"""Classical comparator estimators for two-list count data.

These are the standard single-stratum and ratio-linked estimators the
dependent-capture fits are benchmarked against.  All treat the table as a
closed population observed by two lists.

References
----------
Lincoln (1930) / Petersen (1896): the classic two-sample size estimate.
Nour (1982), Biometrika 69(2): an estimator that tolerates positive list
dependence.  Wolter (1990), Survey Methodology 16: ratio-linked two-stratum
estimators assuming a known stratum size ratio.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConditionViolated,
    DivisionByZero,
    DrsTable,
    EstimateResult,
    Infeasible,
    StratumPair,
    check_real,
    floor_int,
    round_half_up,
    validate_pair,
    validate_table,
)


def lincoln_petersen(t: DrsTable) -> EstimateResult:
    """Two-list size estimate ``[x1dot * xdot1 / x11]`` for one stratum.

    Valid under independent lists; the integer-part report is never below
    the observed count ``x0`` because ``x1dot*xdot1/x11 = x0 + x10*x01/x11``.
    """
    validate_table(t)
    if t.x11 == 0:
        raise DivisionByZero("x11 is zero")
    n = _lp_size(t.x11, t.x10, t.x01)
    return EstimateResult(
        method="LP",
        estimates={"n": float(floor_int(n))},
        diagnostics={"n_unrounded": n},
    )


def nour(t: DrsTable) -> EstimateResult:
    """Dependence-tolerant single-stratum estimate (Nour's closed form).

        n = round( x0 + x10*x01*x1dot*xdot1 / (x11 * (x11^2 - x10*x01)) )

    Requires ``x11^2 > x10*x01`` (a positive-association diagnostic); tables
    failing it raise :class:`ConditionViolated`.  Rounding is half-up, which
    is what reproduces the published reference values.
    """
    validate_table(t)
    x11, x10, x01 = t.x11, t.x10, t.x01
    if x11 == 0:
        raise DivisionByZero("x11 is zero")
    if x11 * x11 <= x10 * x01:
        raise ConditionViolated(f"requires x11^2 > x10*x01, got {x11}^2 <= {x10}*{x01}")
    n = _nour_size(x11, x10, x01)
    return EstimateResult(
        method="NOUR",
        estimates={"n": float(round_half_up(n))},
        diagnostics={"n_unrounded": n},
    )


def wolter_model1(data: StratumPair, r: float) -> EstimateResult:
    """Ratio-linked estimator with stratum-specific catchabilities.

    With ``r = n_a / n_b`` assumed known,

        K   = x11B*(x1dotA - x11A)*(xdot1A - x11A)
              / (x11A*(x1dotB - x11B)*(xdot1B - x11B))
        n_b = (K*x0B - x0A) / (K - r),    n_a = r * n_b

    Infeasible when ``K <= r`` (nonpositive denominator).
    """
    A, B = validate_pair(data)
    check_real("r", r, "(0,inf)")
    den = A.x11 * (B.x1dot - B.x11) * (B.xdot1 - B.x11)
    if den == 0:
        raise DivisionByZero("x11A*(x1dotB - x11B)*(xdot1B - x11B) is zero")
    K = B.x11 * (A.x1dot - A.x11) * (A.xdot1 - A.x11) / den
    if K <= r:
        raise Infeasible(f"K = {K} must exceed r = {r}")
    n_b = (K * B.x0 - A.x0) / (K - r)
    n_a = r * n_b
    return EstimateResult(
        method="WOLTER-1",
        estimates={"n_a": float(floor_int(n_a)), "n_b": float(floor_int(n_b))},
        diagnostics={"K": K, "n_a_unrounded": n_a, "n_b_unrounded": n_b},
    )


def wolter_model2(data: StratumPair, r: float) -> EstimateResult:
    """Ratio-linked estimator with an independence-valid reference stratum.

    Stratum B is sized by the two-list classic (unfloored) and stratum A by
    the known ratio: ``n_b = x1dotB*xdot1B/x11B``, ``n_a = r*n_b``; both are
    reported with the integer part taken.  Infeasible when ``r*n_b``
    overflows the float range.
    """
    _, B = validate_pair(data)
    check_real("r", r, "(0,inf)")
    if B.x11 == 0:
        raise DivisionByZero("x11B is zero")
    n_b = _lp_size(B.x11, B.x10, B.x01)
    n_a = r * n_b
    if math.isinf(n_a):
        raise Infeasible(f"n_a = r * n_b overflows the float range at r = {r}")
    return EstimateResult(
        method="WOLTER-2",
        estimates={"n_a": float(floor_int(n_a)), "n_b": float(floor_int(n_b))},
        diagnostics={"n_a_unrounded": n_a, "n_b_unrounded": n_b},
    )


# ---------------------------------------------------------------------------
# Formulas shared by the scalar estimators and their columnar kernels
# ---------------------------------------------------------------------------
#
# Each helper takes Python ints, which a scalar estimator passes once it has
# ruled out every zero denominator, or float64 columns, which a kernel masks
# afterwards.  While every integer a formula forms stays below 2**53, float64
# sees the same operands and rounds each quotient as int / int does.


def _lp_size(x11, x10, x01):
    """The two-list size ``x1dot * xdot1 / x11``, unrounded."""
    return (x11 + x10) * (x11 + x01) / x11


def _nour_size(x11, x10, x01):
    """Nour's size ``x0 + x10*x01*x1dot*xdot1 / (x11 * (x11^2 - x10*x01))``,
    unrounded."""
    det = x11 * x11 - x10 * x01
    return x11 + x10 + x01 + x10 * x01 * (x11 + x10) * (x11 + x01) / (x11 * det)


def _stratum_kernel(size, usable, counts: np.ndarray):
    """A single-stratum estimator on both strata of each row of a ``(b, 6)``
    float64 count array: the ``n_a``, ``n_b`` and (NaN) ``alpha`` columns,
    and the mask of rows on which the estimator raises on neither stratum."""
    a, b = counts.T[:3], counts.T[3:]
    with np.errstate(divide="ignore", invalid="ignore"):
        n_a, n_b = size(*a), size(*b)
    return n_a, n_b, np.full(len(counts), np.nan), usable(*a) & usable(*b)


def lincoln_petersen_kernel(counts: np.ndarray):
    """:func:`lincoln_petersen` on both strata of each count row."""
    # x11 > 0 also rules out an empty table
    return _stratum_kernel(_lp_size, lambda x11, x10, x01: x11 > 0, counts)


def nour_kernel(counts: np.ndarray):
    """:func:`nour` on both strata of each count row."""
    # x11^2 > x10*x01 >= 0 also rules out x11 = 0
    return _stratum_kernel(_nour_size, lambda x11, x10, x01: x11 * x11 > x10 * x01, counts)
