"""Dependent-capture probability model for one stratum, and joint likelihoods.

Model
-----
Each individual carries latent Bernoulli draws ``X1 ~ Bern(p1)`` and
``X2 ~ Bern(p2)``.  With probability ``alpha`` the List 2 outcome is tied
to the List 1 outcome, otherwise the two lists act independently:

* positive dependence: ``(Y, Z) = (X1, X1)`` w.p. ``alpha``, else ``(X1, X2)``
* negative dependence: ``(Y, Z) = (X1, 1 - X1)`` w.p. ``alpha``, else ``(X1, X2)``

``alpha = 0`` recovers two independent lists.  Under positive dependence the
cell probabilities are

    p11 = alpha*p1 + (1-alpha)*p1*p2        p10 = (1-alpha)*p1*(1-p2)
    p01 = (1-alpha)*(1-p1)*p2               p00 = alpha*(1-p1) + (1-alpha)*(1-p1)*(1-p2)

with marginals ``P(Y=1) = p1``, ``P(Z=1) = alpha*p1 + (1-alpha)*p2`` and
covariance ``+alpha*p1*(1-p1)``; the negative variant flips the tied outcome,
giving covariance ``-alpha*p1*(1-p1)``.

Two-stratum structures
----------------------
* Model I: stratum A follows the dependent model, stratum B has independent
  lists (``alpha = 0``), and both strata share the List 1 probability ``p1``.
* Model II: both strata follow the dependent model with a shared ``p1`` and a
  shared dependence parameter ``alpha0``; the List 2 probabilities ``p2a``,
  ``p2b`` remain stratum-specific.

Model I is Model II with stratum B's dependence fixed at 0, so one kernel,
``_loglik_kernel``, serves both: ``tied=False`` is Model I.
The log-likelihoods treat the population sizes as continuous via
log-gamma, which is what the fitting routines optimise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core import (
    BbmParams,
    CellProbabilities,
    DegenerateDependence,
    DomainError,
    DrsTable,
    InfeasibleN,
    MtbParams,
    OutOfRange,
    StratumPair,
    log_factorial,
)


class DependenceSign(Enum):
    """Direction of the list dependence induced by the tied outcome."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


class Marginals(NamedTuple):
    p_y: float
    p_z: float
    cov: float


def cell_probabilities(
    params: BbmParams, sign: DependenceSign = DependenceSign.POSITIVE
) -> CellProbabilities:
    """Cell probabilities of the full 2x2 table for one stratum."""
    return CellProbabilities(*_cells(params.p1, params.p2, params.alpha, sign))


def _cells(p1: float, p2: float, a: float, sign: DependenceSign = DependenceSign.POSITIVE):
    """The cells ``(p11, p10, p01, p00)``, unchecked, so ``p1`` may be 0 or 1."""
    if sign is DependenceSign.POSITIVE:
        return (
            a * p1 + (1.0 - a) * p1 * p2,
            (1.0 - a) * p1 * (1.0 - p2),
            (1.0 - a) * (1.0 - p1) * p2,
            a * (1.0 - p1) + (1.0 - a) * (1.0 - p1) * (1.0 - p2),
        )
    return (
        (1.0 - a) * p1 * p2,
        a * p1 + (1.0 - a) * p1 * (1.0 - p2),
        a * (1.0 - p1) + (1.0 - a) * (1.0 - p1) * p2,
        (1.0 - a) * (1.0 - p1) * (1.0 - p2),
    )


def marginals_and_covariance(
    params: BbmParams, sign: DependenceSign = DependenceSign.POSITIVE
) -> Marginals:
    """List-inclusion marginals and the between-list covariance."""
    p1, p2, a = params.p1, params.p2, params.alpha
    if sign is DependenceSign.POSITIVE:
        return Marginals(p1, a * p1 + (1.0 - a) * p2, a * p1 * (1.0 - p1))
    return Marginals(p1, a * (1.0 - p1) + (1.0 - a) * p2, -a * p1 * (1.0 - p1))


def to_mtb(params: BbmParams) -> MtbParams:
    """Map a positively dependent stratum to its behavioural-response form.

    The dependent model with ``alpha < 1`` is observationally equivalent to
    a first-capture probability ``p = (1-alpha)*p2`` and recapture
    probability ``c = p11 / p1``, i.e. a response ratio
    ``phi = 1 + alpha / ((1-alpha)*p2) >= 1``.
    """
    if params.alpha >= 1.0:
        raise DegenerateDependence("alpha = 1 has no finite response ratio")
    p = (1.0 - params.alpha) * params.p2
    phi = 1.0 + params.alpha / p
    return MtbParams(p1dot=params.p1, p=p, c=phi * p, phi=phi)


def p2_from_marginal(p_dot1: float, p1: float, alpha: float) -> float:
    """Recover the latent List 2 probability from a target List 2 marginal.

    Inverts ``p_dot1 = alpha*p1 + (1-alpha)*p2`` (positive dependence).
    Raises :class:`DomainError` for ``alpha`` outside ``[0, 1]``,
    :class:`DegenerateDependence` at ``alpha = 1``, and :class:`OutOfRange`
    when the implied ``p2`` is not in ``(0, 1]``, which signals an
    infeasible (marginal, alpha) combination.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must be in [0,1], got {alpha}")
    if alpha == 1.0:
        raise DegenerateDependence("alpha = 1 leaves p2 unidentified")
    p2 = (p_dot1 - alpha * p1) / (1.0 - alpha)
    if p2 > 1.0 and p2 <= 1.0 + 1e-12:  # float fuzz on an exact boundary
        p2 = 1.0
    if not 0.0 < p2 <= 1.0:
        raise OutOfRange(
            f"marginal {p_dot1} with p1={p1}, alpha={alpha} implies p2={p2}, "
            "outside (0, 1]"
        )
    return p2


# ---------------------------------------------------------------------------
# Joint parameter types
# ---------------------------------------------------------------------------


def _validate_joint(theta, alpha_name: str) -> None:
    for name in ("p1", "p2a", "p2b"):
        p = getattr(theta, name)
        if not 0.0 < p < 1.0:
            raise DomainError(f"{name} must be in (0,1), got {p}")
    alpha = getattr(theta, alpha_name)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"{alpha_name} must be in [0,1], got {alpha}")
    if not (0.0 < theta.n_a < math.inf and 0.0 < theta.n_b < math.inf):
        raise DomainError(
            f"population sizes must be finite and positive, got {theta.n_a}, {theta.n_b}"
        )


@dataclass(frozen=True)
class ModelIParams:
    """Model I parameters: dependent stratum A, independent stratum B."""

    n_a: float
    n_b: float
    alpha_a: float
    p1: float
    p2a: float
    p2b: float

    def __post_init__(self) -> None:
        _validate_joint(self, "alpha_a")


@dataclass(frozen=True)
class ModelIIParams:
    """Model II parameters: both strata dependent with shared alpha0."""

    n_a: float
    n_b: float
    alpha0: float
    p1: float
    p2a: float
    p2b: float

    def __post_init__(self) -> None:
        _validate_joint(self, "alpha0")


# ---------------------------------------------------------------------------
# Log-likelihoods
# ---------------------------------------------------------------------------


def _xlog(coef: float, x: float) -> float:
    # coef * log(x) with the 0 * log(0) = 0 convention
    if coef == 0.0:
        return 0.0
    if x <= 0.0:
        return -math.inf
    return coef * math.log(x)


def _lfac_ratio(n: float, x0: int, mode: str) -> float:
    # log( n! / (n - x0)! ), n treated as continuous.  Exact mode goes via
    # log-gamma directly so the continuous extension stays defined on the
    # open region n > x0 - 1 that the optimiser's transform exposes; the
    # Stirling forms have no continuation below n = x0, so that region is
    # walled off.
    if mode == "exact":
        v = n - x0 + 1.0
        if v <= 0.0:
            # n - x0 + 1 underflows to 0 when the optimiser pins n at its
            # transform floor; the likelihood limit there is -inf
            return -math.inf
        return math.lgamma(n + 1.0) - math.lgamma(v)
    if n - x0 < 0.0:
        return -math.inf
    return log_factorial(n, mode) - log_factorial(n - x0, mode)


def _dlfac_ratio(n: float, x0: int, mode: str) -> float:
    # d/dn of _lfac_ratio, matching each mode's own functional form; the
    # Stirling branches floor n - x0 away from zero so the derivative keeps
    # pointing away from the wall instead of overflowing.
    if mode == "exact":
        from scipy.special import digamma
        return float(digamma(n + 1.0) - digamma(max(n - x0 + 1.0, 1e-12)))
    v = max(n - x0, 1e-12)
    if mode == "stirling1":
        return math.log(n) - math.log(v)
    if mode == "stirling3":
        return math.log(n) + 0.5 / n - math.log(v) - 0.5 / v
    raise DomainError(f"unknown log-factorial mode {mode!r}")


def _checked_fields(theta: ModelIParams | ModelIIParams, data: StratumPair) -> tuple:
    """``theta``'s fields in declaration order, which is the kernel's
    argument order (n_a, n_b, alpha, p1, p2a, p2b), once its sizes are
    checked against the observed counts."""
    if theta.n_a < data.a.x0:
        raise InfeasibleN(f"n_a = {theta.n_a} < observed x0A = {data.a.x0}")
    if theta.n_b < data.b.x0:
        raise InfeasibleN(f"n_b = {theta.n_b} < observed x0B = {data.b.x0}")
    return tuple(vars(theta).values())


def _loglik_kernel(pair: StratumPair, mode: str, tied: bool):
    # pair's log-likelihood and its gradient as functions of (n_a, n_b,
    # alpha, p1, p2a, p2b), counts bound once.  Model II term for term;
    # tied=False (Model I) sets alpha_b = 0.0 and w = 0, which are exact, so
    # Model II keeps its bits.  The integer count sums are exact too.
    A, B = pair.a, pair.b
    a11, a10, a01, x0a = A.x11, A.x10, A.x01, A.x0
    b11, b10, b01, x0b = B.x11, B.x10, B.x01, B.x0
    w = 1 if tied else 0
    c10, c01, c_alpha = a10 + b10, a01 + b01, a10 + a01 + w * (b10 + b01)
    c_p1 = a11 + b11 + a10 + b10
    lfac, dlfac, xlog = _lfac_ratio, _dlfac_ratio, _xlog

    def loglik(n_a: float, n_b: float, alpha: float, p1: float, p2a: float, p2b: float) -> float:
        alpha_b = alpha if tied else 0.0
        r11a = alpha + (1.0 - alpha) * p2a
        r00a = alpha + (1.0 - alpha) * (1.0 - p2a)
        r11b = alpha_b + (1.0 - alpha_b) * p2b
        r00b = alpha_b + (1.0 - alpha_b) * (1.0 - p2b)
        out = lfac(n_a, x0a, mode) + lfac(n_b, x0b, mode)
        out += xlog(a11, p1 * r11a) + xlog(b11, p1 * r11b)
        out += xlog(c10, p1)
        out += xlog(c01, 1.0 - p1)
        out += xlog(a01, p2a) + xlog(b01, p2b)
        out += xlog(a10, 1.0 - p2a) + xlog(b10, 1.0 - p2b)
        out += xlog(c_alpha, 1.0 - alpha)
        out += xlog(n_a - x0a, (1.0 - p1) * r00a)
        out += xlog(n_b - x0b, (1.0 - p1) * r00b)
        return out

    def grad(n_a: float, n_b: float, alpha: float, p1: float, p2a: float, p2b: float) -> list[float]:
        # ordered like the arguments, on the natural scale; the size
        # derivatives follow mode's own functional form
        alpha_b = alpha if tied else 0.0
        r11a = alpha + (1.0 - alpha) * p2a
        r00a = alpha + (1.0 - alpha) * (1.0 - p2a)
        r11b = alpha_b + (1.0 - alpha_b) * p2b
        r00b = alpha_b + (1.0 - alpha_b) * (1.0 - p2b)
        d_na = dlfac(n_a, x0a, mode) + math.log((1.0 - p1) * r00a)
        d_nb = dlfac(n_b, x0b, mode) + math.log((1.0 - p1) * r00b)
        d_alpha = (
            a11 * (1.0 - p2a) / r11a
            + w * b11 * (1.0 - p2b) / r11b
            - c_alpha / (1.0 - alpha)
            + (n_a - x0a) * p2a / r00a
            + w * (n_b - x0b) * p2b / r00b
        )
        d_p1 = c_p1 / p1 - (c01 + n_a - x0a + n_b - x0b) / (1.0 - p1)
        d_p2a = (
            a11 * (1.0 - alpha) / r11a
            + a01 / p2a
            - a10 / (1.0 - p2a)
            - (n_a - x0a) * (1.0 - alpha) / r00a
        )
        d_p2b = (
            b11 * (1.0 - alpha_b) / r11b
            + b01 / p2b
            - b10 / (1.0 - p2b)
            - (n_b - x0b) * (1.0 - alpha_b) / r00b
        )
        return [float(d_na), float(d_nb), float(d_alpha), float(d_p1), float(d_p2a), float(d_p2b)]

    return loglik, grad


def loglik_model_i(
    theta: ModelIParams, data: StratumPair, logfac: str = "exact"
) -> float:
    """Joint log-likelihood of Model I at ``theta`` for the observed pair.

    Population sizes are treated as continuous (log-gamma factorials); the
    ``logfac`` mode selects exact, first-order or three-term approximations
    of the log-factorial terms.
    """
    return _loglik_kernel(data, logfac, False)[0](*_checked_fields(theta, data))


def loglik_model_ii(
    theta: ModelIIParams, data: StratumPair, logfac: str = "exact"
) -> float:
    """Joint log-likelihood of Model II at ``theta`` for the observed pair."""
    return _loglik_kernel(data, logfac, True)[0](*_checked_fields(theta, data))


def loglik_model_i_grad(
    theta: ModelIParams, data: StratumPair, logfac: str = "exact"
) -> list[float]:
    """Gradient of the Model I log-likelihood at ``theta``.

    Components follow the order ``(n_a, n_b, alpha_a, p1, p2a, p2b)`` on the
    natural parameter scale; the size derivatives match the ``logfac`` mode
    used for the objective.
    """
    return _loglik_kernel(data, logfac, False)[1](*_checked_fields(theta, data))


def loglik_model_ii_grad(
    theta: ModelIIParams, data: StratumPair, logfac: str = "exact"
) -> list[float]:
    """Gradient of the Model II log-likelihood, ordered like Model I's."""
    return _loglik_kernel(data, logfac, True)[1](*_checked_fields(theta, data))
