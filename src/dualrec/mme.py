"""Method-of-moments estimators for the two-stratum dependent-capture models.

Model I exploits the independent reference stratum B: with a shared List 1
probability, ``p1`` is estimated from B alone and the dependent stratum's
size follows from its own List 1 total.  Model II solves the full
six-equation moment system in closed form; that system is frequently
infeasible on real tables (estimates escaping their domains), which is
surfaced as an :class:`~dualrec.core.Infeasible` error rather than patched.

Known discrepancy
-----------------
On the bundled encephalitis data (A = Adult (39, 290, 39), B = Children
(20, 78, 15)) the Model I formulas give ``n_a = floor(575.75) = 575``, a
raw dependence estimate of about ``-0.0395`` that clamps to 0, and a
reference-stratum two-list size of ``floor(171.5) = 171``.  Previously
published applications of the same estimator to this data report 574,
0.190, and 156 instead.  The source of that difference is unexplained
upstream; this implementation keeps the formula-faithful values (575,
clamped 0, 171) and does not patch them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import _lp_size
from .core import (
    DivisionByZero,
    DomainError,
    DrsTable,
    EstimateResult,
    Infeasible,
    StratumPair,
    check_real,
    clamp,
    floor_int,
    validate_table,
)


@dataclass(frozen=True)
class AsymptoticMoments:
    """Approximate sampling mean and variance of a size estimator."""

    mean: float
    variance: float
    ratio_r: float


def mme_model_i(data: StratumPair) -> EstimateResult:
    """Moment estimates under Model I.

    With stratum B independent and ``p1`` shared across strata:

        p1    = x11B / xdot1B
        p2b   = x11B / x1dotB
        n_b   = [x1dotB * xdot1B / x11B]        (the two-list classic on B)
        n_a   = [x1dotA * xdot1B / x11B]
        p2a   = x01A*x11B / (x10A*x01B + x01A*x11B)
        alpha = xdot1A/x1dotA - x01A*xdot1B / (x01B*x1dotA), clamped to [0, 1]

    ``[.]`` is the integer part; unrounded sizes are kept in diagnostics.
    When the dependence estimate clamps at 0, ``p2a`` is recomputed from the
    moment equation it came from with the clamped value; diagnostics carry
    both the clamped and unclamped versions.
    """
    A = validate_table(data.a)
    B = validate_table(data.b)
    a11, a10, a01, b11, b10, b01 = A.x11, A.x10, A.x01, B.x11, B.x10, B.x01
    if b11 == 0:
        raise DivisionByZero("x11B is zero")
    if b01 == 0:
        raise DivisionByZero("x01B is zero")
    if a11 + a10 == 0:
        raise DivisionByZero("x1dotA is zero")

    p1 = b11 / (b11 + b01)
    p2b = b11 / (b11 + b10)
    n_a, n_b, alpha_raw, p2a_den = _model_i_terms(a11, a10, a01, b11, b10, b01)
    if p2a_den == 0:
        raise DivisionByZero("x10A*x01B + x01A*x11B is zero")
    p2a = a01 * b11 / p2a_den

    alpha = clamp(alpha_raw, 0.0, 1.0)
    clamped = None if alpha == alpha_raw else ("low" if alpha_raw < 0.0 else "high")

    diagnostics = {
        "n_a_unrounded": n_a,
        "n_b_unrounded": n_b,
        "alpha_clamped": clamped,
        "alpha_unclamped": alpha_raw,
        "p2a_unclamped": p2a,
    }
    if clamped == "low":
        # keep the (1-alpha)*p2a moment product intact at the boundary
        p2a = a01 * b11 / (b01 * (a11 + a10))

    return EstimateResult(
        method="MME-I",
        estimates={
            "n_a": float(floor_int(n_a)),
            "n_b": float(floor_int(n_b)),
            "p1": p1,
            "p2a": p2a,
            "p2b": p2b,
            "alpha": alpha,
        },
        diagnostics=diagnostics,
    )


def mme_model_ii(data: StratumPair) -> EstimateResult:
    """Moment estimates under Model II (both strata dependent, shared alpha).

    Solves the six moment equations in closed form.  The closed form is
    often infeasible — a probability escaping (0, 1), a nonpositive or
    impossible size — in which case :class:`Infeasible` names the violated
    condition.  Even when feasible the estimator is high-variance, so the
    result is flagged as not recommended relative to the likelihood fit.
    """
    A = validate_table(data.a)
    B = validate_table(data.b)
    a11, a10, a01, b11, b10, b01 = A.x11, A.x10, A.x01, B.x11, B.x10, B.x01
    if a01 * b10 == a10 * b01:
        raise DivisionByZero("x01A*x10B - x10A*x01B is zero")
    if a11 + a10 == 0 or b11 + b10 == 0 or a10 == 0:
        raise DivisionByZero("a required margin (x1dotA, x1dotB, x10A) is zero")

    p2a, p2b = _model_ii_p2(a11, a10, a01, b11, b10, b01)
    if not 0.0 < p2a < 1.0:
        raise Infeasible(f"p2a = {p2a} outside (0, 1)")
    if not 0.0 < p2b < 1.0:
        raise Infeasible(f"p2b = {p2b} outside (0, 1)")

    alpha0, p1, n_a, n_b = _model_ii_given_p2a(a11, a10, a01, b11, b10, p2a)
    if not 0.0 <= alpha0 <= 1.0:
        raise Infeasible(f"alpha0 = {alpha0} outside [0, 1]")
    # once p2a, p2b and alpha0 pass, the checks on p1, n_a and n_b hold in
    # exact arithmetic; they stay as float guards of the n >= x0 contract
    if not 0.0 < p1 < 1.0:
        raise Infeasible(f"p1 = {p1} outside (0, 1)")
    if n_a < A.x0:
        raise Infeasible(f"n_a = {n_a} below observed x0A = {A.x0}")
    if n_b < B.x0:
        raise Infeasible(f"n_b = {n_b} below observed x0B = {B.x0}")

    return EstimateResult(
        method="MME-II",
        estimates={
            "n_a": float(floor_int(n_a)),
            "n_b": float(floor_int(n_b)),
            "p1": p1,
            "p2a": p2a,
            "p2b": p2b,
            "alpha": alpha0,
        },
        diagnostics={
            "n_a_unrounded": n_a,
            "n_b_unrounded": n_b,
            "recommended": False,
            "note": "closed-form moment solution; prefer the likelihood fit",
        },
    )


# ---------------------------------------------------------------------------
# Formulas shared by the scalar estimators and their columnar kernels
# ---------------------------------------------------------------------------
#
# Each helper takes Python ints, past the scalar estimator's checks, or
# float64 columns, as in ``classical``.


def _model_i_terms(a11, a10, a01, b11, b10, b01):
    """Model I's unrounded ``n_a`` and ``n_b``, unclamped alpha, and the
    denominator of ``p2a``; ints need nonzero x11B, x01B and x1dotA."""
    a1, bd1 = a11 + a10, b11 + b01
    n_a = a1 * bd1 / b11
    alpha_raw = (a11 + a01) / a1 - a01 * bd1 / (b01 * a1)
    return n_a, _lp_size(b11, b10, b01), alpha_raw, a10 * b01 + a01 * b11


def _model_ii_p2(a11, a10, a01, b11, b10, b01):
    """Model II's ``p2a`` and ``p2b``; ints need x01A*x10B != x10A*x01B and
    nonzero x1dotA and x1dotB."""
    a1, b1 = a11 + a10, b11 + b10
    shared_den = a01 * b10 - a10 * b01
    cross = a1 * b10 - b1 * a10
    return a01 * cross / (a1 * shared_den), b01 * cross / (b1 * shared_den)


def _model_ii_given_p2a(a11, a10, a01, b11, b10, p2a):
    """Model II's ``alpha0``, ``p1``, ``n_a`` and ``n_b`` from ``p2a``; ints
    need ``p2a`` in (0, 1) and nonzero x10A and x1dotA."""
    a1 = a11 + a10
    alpha0 = 1.0 - (a10 / a1) / (1.0 - p2a)
    p1 = 1.0 / (1.0 + (a01 / a10) * (1.0 / p2a - 1.0))
    return alpha0, p1, a1 / p1, (b11 + b10) / p1


def mme_model_i_kernel(counts: np.ndarray):
    """:func:`mme_model_i` on each count row (see :class:`~dualrec.sim.Kernel`)."""
    a11, a10, a01, b11, b10, b01 = counts.T
    with np.errstate(divide="ignore", invalid="ignore"):
        n_a, n_b, alpha_raw, p2a_den = _model_i_terms(a11, a10, a01, b11, b10, b01)
    # x11B > 0 and x1dotA > 0 also rule out an empty table
    ok = (b11 > 0) & (b01 > 0) & (a11 + a10 > 0) & (p2a_den != 0)
    return n_a, n_b, np.clip(alpha_raw, 0.0, 1.0), ok


def mme_model_ii_kernel(counts: np.ndarray):
    """:func:`mme_model_ii` on each count row (see :class:`~dualrec.sim.Kernel`)."""
    a11, a10, a01, b11, b10, b01 = counts.T
    with np.errstate(divide="ignore", invalid="ignore"):
        p2a, p2b = _model_ii_p2(a11, a10, a01, b11, b10, b01)
        alpha0, p1, n_a, n_b = _model_ii_given_p2a(a11, a10, a01, b11, b10, p2a)
    # x01A*x10B != x10A*x01B also rules out an empty table; a NaN fails
    # every comparison
    ok = (
        (a01 * b10 != a10 * b01) & (a11 + a10 > 0) & (b11 + b10 > 0) & (a10 > 0)
        & (0.0 < p2a) & (p2a < 1.0) & (0.0 < p2b) & (p2b < 1.0)
        & (0.0 <= alpha0) & (alpha0 <= 1.0) & (0.0 < p1) & (p1 < 1.0)
        & (n_a >= a11 + a10 + a01) & (n_b >= b11 + b10 + b01)
    )
    return n_a, n_b, alpha0, ok


def _check_moment_inputs(n_a: float, r: float, p1: float, p_dot1b: float, p01b: float) -> None:
    check_real("n_a", n_a, "(0,inf)")
    check_real("r", r, "(0,inf)")
    for name, p in (("p1", p1), ("p_dot1b", p_dot1b), ("p01b", p01b)):
        check_real(name, p, "(0,1)")


def _finite(name: str, evaluate) -> float:
    """``evaluate()``; a DomainError naming ``name`` where it overflows the
    float range: to inf, in a ``**`` past it, or over a divisor that
    underflows to 0."""
    try:
        value = evaluate()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} overflows the float range")
    return value


def mme_asymptotic_mean_variance(
    n_a: float, r: float, p1: float, p_dot1b: float, p01b: float
) -> AsymptoticMoments:
    """Large-sample mean and variance approximation of the Model I size estimate.

    Evaluates, verbatim, the first-order expansion

        E(n_a_hat) ~ n_a + r * p01B / (p1 * pdot1B^2)
        V(n_a_hat) ~ n_a*(1 - p1) + r * p01B*(1 + p1) / (p1^2 * pdot1B^2)

    with ``r = n_a / n_b``.  The mean term is accurate; the variance term
    understates the true sampling variance because it drops the squared
    expectation factors of the product decomposition — see
    :func:`delta_method_mean_variance` for the corrected composition that
    simulated dispersions actually follow.
    """
    _check_moment_inputs(n_a, r, p1, p_dot1b, p01b)
    mean = _finite("the mean", lambda: n_a + r * p01b / (p1 * p_dot1b**2))
    variance = _finite(
        "the variance",
        lambda: n_a * (1.0 - p1) + r * p01b * (1.0 + p1) / (p1**2 * p_dot1b**2),
    )
    return AsymptoticMoments(mean=mean, variance=variance, ratio_r=r)


def delta_method_mean_variance(
    n_a: float, r: float, p1: float, p_dot1b: float, p01b: float
) -> AsymptoticMoments:
    """Delta-method moments of the Model I size estimate, exact product form.

    The estimator is a product ``S * R`` of the independent quantities
    ``S = x1dotA`` (binomial) and ``R = xdot1B / x11B``.  Using the same
    second-order expansions of ``E(R)`` and ``V(R)`` as the displayed
    approximation but composing the product exactly,

        V(S*R) = E(S)^2 V(R) + V(S) E(R)^2 + V(S) V(R),

    which is roughly ``(1/p1)`` to ``4`` times the displayed variance and
    matches Monte Carlo dispersion to within a few percent.
    """
    _check_moment_inputs(n_a, r, p1, p_dot1b, p01b)
    n_b = _finite("n_b = n_a / r", lambda: n_a / r)
    p11b = p1 * p_dot1b
    e_s = n_a * p1
    v_s = n_a * p1 * (1.0 - p1)
    e_r = _finite("E(R)", lambda: p_dot1b / p11b + p01b / (n_b * p11b**2))
    v_r = _finite("V(R)", lambda: p_dot1b * p01b / (n_b * p11b**3))
    mean = _finite("the mean", lambda: e_s * e_r)
    variance = _finite("the variance", lambda: e_s**2 * v_r + v_s * e_r**2 + v_s * v_r)
    return AsymptoticMoments(mean=mean, variance=variance, ratio_r=r)
