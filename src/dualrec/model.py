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
    check_pair,
    check_real,
    check_type,
    lfac_ratio,
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
    # other params fail as a bare AttributeError; another sign picks the negative formulas
    check_type("params", params, BbmParams)
    check_type("sign", sign, DependenceSign)
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
    check_type("params", params, BbmParams)
    check_type("sign", sign, DependenceSign)
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
    check_type("params", params, BbmParams)
    if params.alpha >= 1.0:
        raise DegenerateDependence("alpha = 1 has no finite response ratio")
    p = (1.0 - params.alpha) * params.p2
    # a subnormal p2 can take p to 0, or alpha / p past the largest float
    phi = 1.0 + params.alpha / p if p > 0.0 else math.inf
    if phi == math.inf:
        raise DegenerateDependence(f"p2 = {params.p2} has no finite response ratio")
    # c = p + alpha <= 1, but phi * p can round one ulp above 1 when p2 = 1
    return MtbParams(p1dot=params.p1, p=p, c=min(phi * p, 1.0), phi=phi)


def p2_from_marginal(p_dot1: float, p1: float, alpha: float) -> float:
    """Recover the latent List 2 probability from a target List 2 marginal.

    Inverts ``p_dot1 = alpha*p1 + (1-alpha)*p2`` (positive dependence).
    Raises :class:`DomainError` for a non-number argument or one outside
    its interval (``p_dot1`` in ``(0, 1]``, ``p1`` in ``(0, 1)``, ``alpha``
    in ``[0, 1]``), :class:`DegenerateDependence` at ``alpha = 1``, and
    :class:`OutOfRange` when the implied ``p2`` is not in ``(0, 1]``, which
    signals an infeasible (marginal, alpha) combination.
    """
    check_real("p_dot1", p_dot1, "(0,1]")
    check_real("p1", p1, "(0,1)")
    if check_real("alpha", alpha, "[0,1]") == 1.0:
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
        check_real(name, getattr(theta, name), "(0,1)")
    check_real(alpha_name, getattr(theta, alpha_name), "[0,1]")
    check_real("n_a", theta.n_a, "(0,inf)")
    check_real("n_b", theta.n_b, "(0,inf)")


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


def _checked_fields(theta: ModelIParams | ModelIIParams, data: StratumPair, mode: str) -> tuple:
    """``theta``'s fields in declaration order, which is the kernel's
    argument order (n_a, n_b, alpha, p1, p2a, p2b), once its sizes are
    checked against the observed counts and against the float range: a
    size whose log-factorial in ``mode`` (a mode the kernel took) has no
    float would make the likelihood overflow, or take ``inf - inf``."""
    if theta.n_a < data.a.x0:
        raise InfeasibleN(f"n_a = {theta.n_a} < observed x0A = {data.a.x0}")
    if theta.n_b < data.b.x0:
        raise InfeasibleN(f"n_b = {theta.n_b} < observed x0B = {data.b.x0}")
    for name, n in (("n_a", theta.n_a), ("n_b", theta.n_b)):
        try:
            log_factorial(n, mode)
        except DomainError:
            raise DomainError(f"{name} = {n} is too large: its {mode} log-factorial "
                              "overflows the float range") from None
    return tuple(vars(theta).values())


def _loglik_kernel(pair: StratumPair, mode: str, tied: bool):
    # pair's log-likelihood and its gradient as functions of (n_a, n_b,
    # alpha, p1, p2a, p2b), counts and the mode's size ratio bound once.
    # Model II term for term; tied=False (Model I) sets alpha_b = 0.0 and
    # w = 0, which are exact, so Model II keeps its bits.  The integer count
    # sums are exact too.  Each coef * log(x) term is written out inline,
    # with no call but the log, under the 0 * log(0) = 0 convention: 0.0
    # where coef is 0, else -inf where x <= 0.  The order of the additions,
    # pairs included, is pinned by tests/test_model.py.
    A, B = pair.a, pair.b
    a11, a10, a01, x0a = A.x11, A.x10, A.x01, A.x0
    b11, b10, b01, x0b = B.x11, B.x10, B.x01, B.x0
    w = 1 if tied else 0
    c10, c01, c_alpha = a10 + b10, a01 + b01, a10 + a01 + w * (b10 + b01)
    c_p1 = a11 + b11 + a10 + b10
    lfac, dlfac = lfac_ratio(mode)
    log, ninf = math.log, -math.inf

    def loglik(n_a: float, n_b: float, alpha: float, p1: float, p2a: float, p2b: float) -> float:
        alpha_b = alpha if tied else 0.0
        q1, q2a, q2b, q_alpha = 1.0 - p1, 1.0 - p2a, 1.0 - p2b, 1.0 - alpha
        x11a, x11b = p1 * (alpha + q_alpha * p2a), p1 * (alpha_b + (1.0 - alpha_b) * p2b)
        x00a, x00b = q1 * (alpha + q_alpha * q2a), q1 * (alpha_b + (1.0 - alpha_b) * q2b)
        m_a, m_b = n_a - x0a, n_b - x0b
        return (
            lfac(n_a, x0a) + lfac(n_b, x0b)
            + ((0.0 if not a11 else ninf if x11a <= 0.0 else a11 * log(x11a))
               + (0.0 if not b11 else ninf if x11b <= 0.0 else b11 * log(x11b)))
            + (0.0 if not c10 else ninf if p1 <= 0.0 else c10 * log(p1))
            + (0.0 if not c01 else ninf if q1 <= 0.0 else c01 * log(q1))
            + ((0.0 if not a01 else ninf if p2a <= 0.0 else a01 * log(p2a))
               + (0.0 if not b01 else ninf if p2b <= 0.0 else b01 * log(p2b)))
            + ((0.0 if not a10 else ninf if q2a <= 0.0 else a10 * log(q2a))
               + (0.0 if not b10 else ninf if q2b <= 0.0 else b10 * log(q2b)))
            + (0.0 if not c_alpha else ninf if q_alpha <= 0.0 else c_alpha * log(q_alpha))
            + (0.0 if m_a == 0.0 else ninf if x00a <= 0.0 else m_a * log(x00a))
            + (0.0 if m_b == 0.0 else ninf if x00b <= 0.0 else m_b * log(x00b))
        )

    def grad(n_a: float, n_b: float, alpha: float, p1: float, p2a: float, p2b: float) -> list[float]:
        # ordered like the arguments, on the natural scale; the size
        # derivatives follow mode's own functional form
        alpha_b = alpha if tied else 0.0
        r11a = alpha + (1.0 - alpha) * p2a
        r00a = alpha + (1.0 - alpha) * (1.0 - p2a)
        r11b = alpha_b + (1.0 - alpha_b) * p2b
        r00b = alpha_b + (1.0 - alpha_b) * (1.0 - p2b)
        d_na = dlfac(n_a, x0a) + math.log((1.0 - p1) * r00a)
        d_nb = dlfac(n_b, x0b) + math.log((1.0 - p1) * r00b)
        # at alpha = 1, c_alpha * log(1 - alpha) falls to -inf, so its
        # derivative is -inf where c_alpha > 0 and 0.0 where it is 0
        q_alpha = 1.0 - alpha
        d_alpha = (
            a11 * (1.0 - p2a) / r11a
            + w * b11 * (1.0 - p2b) / r11b
            - (c_alpha / q_alpha if q_alpha else math.inf if c_alpha else 0.0)
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


def _check_args(model: str, theta, data) -> None:
    """A DomainError where ``theta`` is not ``model``'s parameter type (a
    Model II ``alpha0`` would be read as Model I's ``alpha_a``, and the other
    way round) or ``data`` is not a pair of tables."""
    params = ModelIParams if model == "I" else ModelIIParams
    if not isinstance(theta, params):
        raise DomainError(f"model {model} takes {params.__name__}, got {type(theta).__name__}")
    check_pair(data)


def _at(model: str, which: int, theta, data, logfac: str):
    # the likelihood (which = 0) or its gradient (1) at theta
    _check_args(model, theta, data)
    # bound first, so that an unknown mode is named before any size check
    evaluate = _loglik_kernel(data, logfac, model == "II")[which]
    return evaluate(*_checked_fields(theta, data, logfac))


def loglik_model_i(
    theta: ModelIParams, data: StratumPair, logfac: str = "exact"
) -> float:
    """Joint log-likelihood of Model I at ``theta`` for the observed pair.

    Population sizes are treated as continuous (log-gamma factorials); the
    ``logfac`` mode selects exact, first-order or three-term approximations
    of the log-factorial terms.  Parameters of the other model, or a
    ``data`` that is not a :class:`StratumPair` of two tables, raise
    :class:`DomainError`, as in each likelihood function here.
    """
    return _at("I", 0, theta, data, logfac)


def loglik_model_ii(
    theta: ModelIIParams, data: StratumPair, logfac: str = "exact"
) -> float:
    """Joint log-likelihood of Model II at ``theta`` for the observed pair."""
    return _at("II", 0, theta, data, logfac)


def loglik_model_i_grad(
    theta: ModelIParams, data: StratumPair, logfac: str = "exact"
) -> list[float]:
    """Gradient of the Model I log-likelihood at ``theta``.

    Components follow the order ``(n_a, n_b, alpha_a, p1, p2a, p2b)`` on the
    natural parameter scale; the size derivatives match the ``logfac`` mode
    used for the objective.
    """
    return _at("I", 1, theta, data, logfac)


def loglik_model_ii_grad(
    theta: ModelIIParams, data: StratumPair, logfac: str = "exact"
) -> list[float]:
    """Gradient of the Model II log-likelihood, ordered like Model I's."""
    return _at("II", 1, theta, data, logfac)
