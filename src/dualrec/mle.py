"""Maximum-likelihood fitting of the two-stratum dependent-capture models.

Both models are fitted by derivative-free simplex search on an unconstrained
transform of the parameter space, optionally followed by a short gradient
polish:

* population sizes enter as ``n = (x0 - 1) + exp(u)``, which keeps the
  feasibility boundary open while letting the optimiser roam freely;
* probabilities enter through the logistic transform, clipped to
  ``(1e-8, 1 - 1e-8)`` so the log-likelihood stays finite.

A supplied start (``FitConfig.start``) runs alone, as does Model I's moment
solution under the default objective and no known ratio: that is the
maximiser, or lies next to it on the ``alpha = 0`` face.  Any other start is
a guess (Model II's neutral point, Model I's fallback, or the moment solution
under a known ratio or the exact objective) and is followed by four copies
jittered by up to 20% on sizes and 0.15 logit units on probabilities, seed 0.

The default objective approximates the size factorials to first Stirling
order, matching the method being implemented; its stationary points coincide
with the moment equations, which is what makes the fitted sizes agree with
the moment estimates on well-behaved data.  ``logfac="exact"`` switches to
the exact log-gamma objective.  Beware that on designs where the two strata
share their capture parameters, the exact-likelihood surface has no interior
maximum near the truth: it drains toward a zero-dependence mode with
understated sizes and, further out, an unbounded ridge on which the sizes
diverge.  The first-order objective is flat (stationary) at the moment
solution, so a locally-initialised simplex with a loose objective tolerance
stops there instead of sliding away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.optimize import minimize

from .core import (
    DivisionByZero,
    DomainError,
    DrsTable,
    EstimateResult,
    StratumPair,
    clamp,
    round_half_even,
    validate_table,
)
from .mme import mme_model_i
from .model import (
    ModelIIParams,
    ModelIParams,
    _grad_raw,
    _loglik_raw,
    loglik_model_i,
    loglik_model_ii,
)

_PROB_CLIP = 1e-8
_LOGIT_BOUND = 25.0
_U_BOUND = 35.0


@dataclass(frozen=True)
class FitConfig:
    """Optimiser settings for a likelihood fit.

    ``logfac`` selects the log-factorial evaluation of the objective:
    ``"stirling1"`` (the default — first-order Stirling, the form the
    method itself maximises, whose stationary points reproduce the moment
    equations) or ``"exact"`` (log-gamma; the true likelihood, whose
    maximiser can sit well away from the moment solution and, on
    equal-strata designs, away from the truth — see the module notes).

    ``start`` optionally replaces the model's default starts (see the
    module notes) with one explicit natural-scale start
    ``(n_a, n_b, alpha, p1, p2a, p2b)``, which is used alone; simulation
    studies of locally-identified fits typically pass the design parameters
    here.  ``polish`` enables the gradient refinement step after each
    simplex run; disabling it gives pure simplex semantics, which on flat
    objectives stop near their start instead of drifting along the plateau.

    ``logfac``, ``known_ratio`` and ``start`` are checked when the config is
    built, so a bad value raises ``DomainError`` before any fit runs.

    ``objective_tolerance`` is floored per start at four float spacings of
    the starting objective, which changes it only above ~2e6 in magnitude.
    """

    max_iterations: int = 2000
    objective_tolerance: float = 1e-9
    parameter_tolerance: float = 1e-8
    known_ratio: float | None = None
    logfac: str = "stirling1"
    start: tuple[float, float, float, float, float, float] | None = None
    polish: bool = True

    def __post_init__(self) -> None:
        if self.logfac not in ("exact", "stirling1"):
            # the three-term form diverges as n approaches the observed count,
            # so it is usable for likelihood evaluation but not as a fitting
            # objective
            raise DomainError(
                f"fitting supports logfac 'exact' or 'stirling1', got {self.logfac!r}"
            )
        if self.known_ratio is not None and not 0 < self.known_ratio < math.inf:
            raise DomainError(f"known_ratio must be finite and positive, got {self.known_ratio}")
        if self.start is not None:
            if len(self.start) != 6:
                raise DomainError(
                    f"start must supply (n_a, n_b, alpha, p1, p2a, p2b), got {len(self.start)} values"
                )
            if not all(math.isfinite(v) for v in self.start):
                raise DomainError("start values must be finite")


def _expit(v: float) -> float:
    if v >= 0.0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def _logit(p: float) -> float:
    p = clamp(p, _PROB_CLIP, 1.0 - _PROB_CLIP)
    return math.log(p / (1.0 - p))


def _prob(v: float) -> float:
    return clamp(_expit(v), _PROB_CLIP, 1.0 - _PROB_CLIP)


class _Space:
    """Transform between the free vector u and natural parameters.

    Natural order is (n_a, n_b, alpha, p1, p2a, p2b).  With a known ratio r
    the n_b coordinate is dropped and n_b = n_a / r.
    """

    def __init__(self, pair: StratumPair, known_ratio: float | None):
        self.r = known_ratio
        x0a, x0b = pair.a.x0, pair.b.x0
        if known_ratio is None:
            self.lo_a = x0a - 1.0
            self.lo_b = x0b - 1.0
            self.size = 6
        else:
            self.lo_a = max(x0a - 1.0, known_ratio * (x0b - 1.0))
            self.lo_b = None
            self.size = 5

    def to_natural(self, u) -> tuple[float, float, float, float, float, float]:
        ua = clamp(u[0], -_U_BOUND, _U_BOUND)
        n_a = self.lo_a + math.exp(ua)
        if self.r is None:
            ub = clamp(u[1], -_U_BOUND, _U_BOUND)
            n_b = self.lo_b + math.exp(ub)
            k = 2
        else:
            n_b = n_a / self.r
            k = 1
        alpha = _prob(clamp(u[k], -_LOGIT_BOUND, _LOGIT_BOUND))
        p1 = _prob(clamp(u[k + 1], -_LOGIT_BOUND, _LOGIT_BOUND))
        p2a = _prob(clamp(u[k + 2], -_LOGIT_BOUND, _LOGIT_BOUND))
        p2b = _prob(clamp(u[k + 3], -_LOGIT_BOUND, _LOGIT_BOUND))
        return n_a, n_b, alpha, p1, p2a, p2b

    def from_natural(self, n_a, n_b, alpha, p1, p2a, p2b) -> np.ndarray:
        n_a = max(n_a, self.lo_a + 1e-6)
        u = [math.log(n_a - self.lo_a)]
        if self.r is None:
            n_b = max(n_b, self.lo_b + 1e-6)
            u.append(math.log(n_b - self.lo_b))
        u.extend([_logit(alpha), _logit(p1), _logit(p2a), _logit(p2b)])
        return np.asarray(u, dtype=float)

    def chain_grad(self, natural, natural_grad) -> np.ndarray:
        # the decoded u and its gradient, ordered (n_a, n_b, alpha, p1, p2a, p2b)
        n_a, n_b, alpha, p1, p2a, p2b = natural
        g_na, g_nb, g_al, g_p1, g_p2a, g_p2b = natural_grad
        out = []
        if self.r is None:
            out.append(g_na * (n_a - self.lo_a))
            out.append(g_nb * (n_b - self.lo_b))
        else:
            out.append((g_na + g_nb / self.r) * (n_a - self.lo_a))
        out.append(g_al * alpha * (1.0 - alpha))
        out.append(g_p1 * p1 * (1.0 - p1))
        out.append(g_p2a * p2a * (1.0 - p2a))
        out.append(g_p2b * p2b * (1.0 - p2b))
        return np.asarray(out, dtype=float)


def _interior(pair: StratumPair, start) -> tuple[float, ...]:
    """``start`` with sizes raised to the observed counts and probabilities
    clamped into [1e-4, 1 - 1e-4], so every start lies inside the space."""
    n_a, n_b, *probs = start
    inner = 1e-4
    return (
        max(n_a, pair.a.x0),
        max(n_b, pair.b.x0),
        *(clamp(p, inner, 1.0 - inner) for p in probs),
    )


def _guessed(space: _Space, base) -> list[np.ndarray]:
    """A guessed start ``base`` and four jittered copies of it."""
    rng = np.random.default_rng(0)
    starts = [space.from_natural(*base)]
    for _ in range(4):
        fn_a = 1.0 + rng.uniform(-0.2, 0.2)
        fn_b = 1.0 + rng.uniform(-0.2, 0.2)
        dv = rng.uniform(-0.15, 0.15, size=4)
        jittered = space.from_natural(base[0] * fn_a, base[1] * fn_b, *base[2:])
        jittered[space.size - 4 :] += dv
        starts.append(jittered)
    return starts


def _starts_model_i(pair: StratumPair, space: _Space, logfac: str) -> list[np.ndarray]:
    try:
        fit = mme_model_i(pair)
    except DivisionByZero:
        return _guessed(space, (2.0 * pair.a.x0, 2.0 * pair.b.x0, 0.1, 0.5, 0.5, 0.5))
    e, d = fit.estimates, fit.diagnostics
    base = _interior(
        pair, (d["n_a_unrounded"], d["n_b_unrounded"], e["alpha"], e["p1"], e["p2a"], e["p2b"])
    )
    # the moment solution maximises only the first-order objective, and
    # ignores a known ratio; elsewhere it is a guess
    if space.r is None and logfac == "stirling1":
        return [space.from_natural(*base)]
    return _guessed(space, base)


def _starts_model_ii(pair: StratumPair, space: _Space, logfac: str) -> list[np.ndarray]:
    def lp_or_double(t: DrsTable) -> float:
        return t.x1dot * t.xdot1 / t.x11 if t.x11 else 2.0 * t.x0

    p1 = pair.b.x11 / pair.b.xdot1 if pair.b.xdot1 else 0.5
    base = _interior(pair, (lp_or_double(pair.a), lp_or_double(pair.b), 0.1, p1, 0.5, 0.5))
    return _guessed(space, base)


# per model: parameter type, public log-likelihood, whether alpha is tied
# across strata (the kernel's ``tied``), default starts
_MODELS = {
    "I": (ModelIParams, loglik_model_i, False, _starts_model_i),
    "II": (ModelIIParams, loglik_model_ii, True, _starts_model_ii),
}


def _fit(model: str, pair: StratumPair, config: FitConfig) -> EstimateResult:
    validate_table(pair.a)
    validate_table(pair.b)
    space = _Space(pair, config.known_ratio)
    _, _, tied, model_starts = _MODELS[model]

    def objective(u) -> float:
        return -_loglik_raw(*space.to_natural(u), pair, config.logfac, tied)

    def objective_grad(u) -> np.ndarray:
        natural = space.to_natural(u)
        g = _grad_raw(*natural, pair, config.logfac, tied)
        return -space.chain_grad(natural, g)

    if config.start is not None:
        starts = [space.from_natural(*_interior(pair, config.start))]
    else:
        starts = model_starts(pair, space, config.logfac)

    bounds = [(-_U_BOUND, _U_BOUND)] * (space.size - 4) + [
        (-_LOGIT_BOUND, _LOGIT_BOUND)
    ] * 4
    best = None
    # infeasible sizes probe as -inf log-likelihood; silence the resulting
    # inf-arithmetic warnings inside the simplex bookkeeping
    with np.errstate(invalid="ignore", over="ignore"):
        for u0 in starts:
            # below the objective's float spacing only bit-equal values meet fatol
            f0 = objective(u0)
            fatol = config.objective_tolerance
            if math.isfinite(f0):
                fatol = max(fatol, 4.0 * float(np.spacing(abs(f0))))
            res = minimize(
                objective,
                u0,
                method="Nelder-Mead",
                options={
                    "maxiter": config.max_iterations,
                    "maxfev": 4 * config.max_iterations,
                    "fatol": fatol,
                    "xatol": config.parameter_tolerance,
                },
            )
            cand_fun, cand_x = res.fun, res.x
            if config.polish:
                polish = minimize(
                    objective,
                    res.x,
                    jac=objective_grad,
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={"maxiter": 200},
                )
                if polish.fun <= cand_fun:
                    cand_fun, cand_x = polish.fun, polish.x
            record = (cand_fun, cand_x, bool(res.success), int(res.nit))
            if best is None or cand_fun < best[0]:
                best = record

    fun, u_opt, converged, iterations = best
    n_a, n_b, alpha, p1, p2a, p2b = space.to_natural(u_opt)
    grad_norm = float(np.linalg.norm(objective_grad(u_opt)))
    return EstimateResult(
        method=f"MLE-{model}",
        estimates={
            "n_a": float(round_half_even(n_a)),
            "n_b": float(round_half_even(n_b)),
            "p1": p1,
            "p2a": p2a,
            "p2b": p2b,
            "alpha": alpha,
        },
        diagnostics={
            "converged": converged,
            "iterations": iterations,
            "objective": -fun,
            "grad_norm": grad_norm,
            "n_a_unrounded": n_a,
            "n_b_unrounded": n_b,
            "multistart": len(starts),
            "logfac": config.logfac,
        },
    )


def mle_model_i(data: StratumPair, config: FitConfig | None = None) -> EstimateResult:
    """Maximum-likelihood fit of Model I.

    Reports integerised sizes (half-to-even) with the continuous optima in
    diagnostics, the achieved log-likelihood under ``objective``, and a
    convergence flag meaning the simplex met its tolerances (floored, see
    :class:`FitConfig`) within the iteration budget, not stationarity.  With
    ``config.known_ratio = r`` the fit is over five free parameters with
    ``n_b = n_a / r`` held exactly.
    """
    return _fit("I", data, config or FitConfig())


def mle_model_ii(data: StratumPair, config: FitConfig | None = None) -> EstimateResult:
    """Maximum-likelihood fit of Model II (shared p1 and alpha across strata)."""
    return _fit("II", data, config or FitConfig())


def profile_objective(
    model: str,
    data: StratumPair,
    theta: ModelIParams | ModelIIParams,
    component: str,
    grid,
    logfac: str = "exact",
) -> list[tuple[float, float]]:
    """Log-likelihood along a one-component slice through ``theta``.

    Returns ``(value, loglik)`` pairs for each grid value substituted into
    the named component, holding the rest of ``theta`` fixed.  Infeasible
    sizes on the grid raise rather than being skipped.
    """
    if model not in _MODELS:
        raise DomainError(f"model must be 'I' or 'II', got {model!r}")
    params, loglik = _MODELS[model][:2]
    allowed = tuple(f.name for f in fields(params))
    if component not in allowed:
        raise DomainError(f"unknown component {component!r}; expected one of {allowed}")
    out = []
    for value in grid:
        out.append((float(value), loglik(replace(theta, **{component: float(value)}), data, logfac)))
    return out
