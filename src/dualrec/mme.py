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
    if B.x11 == 0:
        raise DivisionByZero("x11B is zero")
    if B.x01 == 0:
        raise DivisionByZero("x01B is zero")
    if A.x1dot == 0:
        raise DivisionByZero("x1dotA is zero")

    p1 = B.x11 / B.xdot1
    p2b = B.x11 / B.x1dot
    n_b = B.x1dot * B.xdot1 / B.x11
    n_a = A.x1dot * B.xdot1 / B.x11

    p2a_den = A.x10 * B.x01 + A.x01 * B.x11
    if p2a_den == 0:
        raise DivisionByZero("x10A*x01B + x01A*x11B is zero")
    p2a = A.x01 * B.x11 / p2a_den

    alpha_raw = A.xdot1 / A.x1dot - A.x01 * B.xdot1 / (B.x01 * A.x1dot)
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
        p2a = A.x01 * B.x11 / (B.x01 * A.x1dot)

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
    shared_den = A.x01 * B.x10 - A.x10 * B.x01
    if shared_den == 0:
        raise DivisionByZero("x01A*x10B - x10A*x01B is zero")
    if A.x1dot == 0 or B.x1dot == 0 or A.x10 == 0:
        raise DivisionByZero("a required margin (x1dotA, x1dotB, x10A) is zero")

    cross = A.x1dot * B.x10 - B.x1dot * A.x10
    p2a = A.x01 * cross / (A.x1dot * shared_den)
    p2b = B.x01 * cross / (B.x1dot * shared_den)
    if not 0.0 < p2a < 1.0:
        raise Infeasible(f"p2a = {p2a} outside (0, 1)")
    if not 0.0 < p2b < 1.0:
        raise Infeasible(f"p2b = {p2b} outside (0, 1)")

    alpha0 = 1.0 - (A.x10 / A.x1dot) / (1.0 - p2a)
    if not 0.0 <= alpha0 <= 1.0:
        raise Infeasible(f"alpha0 = {alpha0} outside [0, 1]")

    # once p2a, p2b and alpha0 pass, the checks on p1, n_a and n_b hold in
    # exact arithmetic; they stay as float guards of the n >= x0 contract
    p1 = 1.0 / (1.0 + (A.x01 / A.x10) * (1.0 / p2a - 1.0))
    if not 0.0 < p1 < 1.0:
        raise Infeasible(f"p1 = {p1} outside (0, 1)")

    n_a = A.x1dot / p1
    n_b = B.x1dot / p1
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


def _check_moment_inputs(n_a: float, r: float, p1: float, p_dot1b: float, p01b: float) -> None:
    for name, value in (("n_a", n_a), ("r", r)):
        if not 0.0 < check_real(name, value) < math.inf:
            raise DomainError(f"{name} must be finite and positive, got {value}")
    for name, p in (("p1", p1), ("p_dot1b", p_dot1b), ("p01b", p01b)):
        check_real(name, p, "(0,1)")


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
    mean = n_a + r * p01b / (p1 * p_dot1b**2)
    variance = n_a * (1.0 - p1) + r * p01b * (1.0 + p1) / (p1**2 * p_dot1b**2)
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
    n_b = n_a / r
    p11b = p1 * p_dot1b
    e_s = n_a * p1
    v_s = n_a * p1 * (1.0 - p1)
    e_r = p_dot1b / p11b + p01b / (n_b * p11b**2)
    v_r = p_dot1b * p01b / (n_b * p11b**3)
    mean = e_s * e_r
    variance = e_s**2 * v_r + v_s * e_r**2 + v_s * v_r
    return AsymptoticMoments(mean=mean, variance=variance, ratio_r=r)
