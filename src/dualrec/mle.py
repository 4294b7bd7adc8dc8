"""Maximum-likelihood fitting of the two-stratum dependent-capture models.

Under the default first-order objective, with no known ratio and no supplied
start, Model I's maximiser is returned in closed form (``diagnostics["solver"]``):
``"interior"`` is the unrounded moment solution, used when its dependence does
not clamp and ``p1``, ``p2a``, ``p2b`` lie in (0, 1); it reproduces all six
cells, so it attains the saturated bound ``sum(x log x) - x0``.  ``"face"``,
used when the dependence clamps low, is the ``alpha = 0`` solution
``p1 = (x11A + x11B)/(x.1A + x.1B)``, ``n_k = x10k/p1 + x.1k``,
``p2k = x.1k/n_k``, kept when its probabilities lie in (0, 1) and the
likelihood does not rise in ``alpha`` there (the KKT condition).

Every other fit is ``"numeric"``: a derivative-free Nelder-Mead simplex on an
unconstrained transform of the parameter space, optionally followed by a
short L-BFGS-B gradient polish:

* population sizes enter as ``n = (x0 - 1) + exp(u)``, which keeps the
  feasibility boundary open while letting the optimiser roam freely;
* probabilities enter through the logistic transform, clipped to
  ``(1e-8, 1 - 1e-8)`` so the log-likelihood stays finite.

The simplex is in-package, scipy's bit for bit; scipy is imported only for
the polish (and ``digamma`` under ``exact``).  ``diagnostics["evaluations"]``
counts both steps' objective evaluations over all starts (0 in closed form).

A supplied start (``FitConfig.start``) runs alone, as does Model I's moment
solution where no closed form holds.  Any other start is a guess, jittered
into five (up to 20% on sizes, 0.15 logit units on probabilities, seed 0):
Model II's neutral point, Model I's ``2 x0`` where the moment equations
divide by zero, or the moment solution under a known ratio or ``exact``.

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
from types import SimpleNamespace

import numpy as np

from .core import (
    DivisionByZero,
    DomainError,
    DrsTable,
    EstimateResult,
    StratumPair,
    check_integer,
    clamp,
    round_half_even,
    validate_table,
)
from .mme import mme_model_i
from .model import ModelIIParams, ModelIParams, _checked_fields, _loglik_kernel


def minimize(fun, x0, method, **kwargs):
    """Nelder-Mead runs in-package (:func:`_nelder_mead`); any other method
    is ``scipy.optimize.minimize``, imported on first use."""
    if method == "Nelder-Mead":
        return _nelder_mead(fun, x0, **kwargs["options"])
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, method=method, **kwargs)


class _OutOfEvaluations(Exception):
    """The simplex's evaluation budget is spent (scipy's _MaxFuncCallError)."""


def _nelder_mead(fun, x0, maxiter: int, maxfev: int, xatol: float, fatol: float):
    """scipy's Nelder-Mead (``adaptive=False``, no bounds) on lists of floats:
    the same steps in the same float order, so the same result, bit for bit."""
    n = len(x0)
    sim = [[float(v) for v in x0]]
    for k in range(n):
        y = list(sim[0])
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim, keys, nfev = [math.inf] * (n + 1), np.empty(n + 1), 0

    def f(x: list[float]) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfEvaluations
        nfev += 1
        return fun(x)

    def reorder() -> None:
        # numpy's argsort, as in scipy: it is not stable on ties (such as
        # +inf plateaus) and puts NaN last, so Python's sort would diverge
        keys[:] = fsim
        order = keys.argsort().tolist()
        sim[:], fsim[:] = [sim[i] for i in order], [fsim[i] for i in order]

    def point(c: float) -> list[float]:
        # (1 + c) * xbar - c * worst: reflect c = 1, expand 2, contract 0.5
        # outside and -0.5 inside (x - (-y) is x + y exactly)
        return [(1 + c) * a - c * w for a, w in zip(xbar, worst)]

    for k in range(min(n + 1, maxfev)):  # as in scipy, maxfev <= n stops these early
        fsim[k] = f(sim[k])
    reorder()
    reorder()  # scipy sorts twice before its first iteration
    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            best, worst = sim[0], sim[-1]
            # scipy's max(...) <= tol, which NaN fails; the cheaper half first
            if all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:]) and all(
                abs(v - b) <= xatol for row in sim[1:] for v, b in zip(row, best)
            ):
                break
            xbar = best  # numpy sums the rows in order, from the first
            for row in sim[1:-1]:
                xbar = [a + v for a, v in zip(xbar, row)]
            xbar = [a / n for a in xbar]
            fxr = f(xr := point(1))
            if fxr < fsim[0]:
                fxe = f(xe := point(2))
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                inside = not fxr < fsim[-1]
                fxc = f(xc := point(-0.5 if inside else 0.5))
                if fxc < fsim[-1] if inside else fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                        fsim[j] = f(sim[j])
            nit += 1
        except _OutOfEvaluations:
            pass
        reorder()
    return SimpleNamespace(x=np.array(sim[0]), fun=np.min(fsim), nit=nit, nfev=nfev,
                           success=nfev < maxfev and nit < maxiter)


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
    ``max_iterations``, the tolerances and ``polish`` govern only numeric
    fits, not Model I's closed forms (see the module notes).  The simplex is
    in-package: only ``polish`` (and ``"exact"``'s ``digamma``) imports scipy.

    Every field but ``polish`` is checked when the config is built, so a
    bad value raises ``DomainError`` before any fit runs.

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
        if check_integer("max_iterations", self.max_iterations) < 1:
            raise DomainError(f"max_iterations must be positive, got {self.max_iterations}")
        for name in ("objective_tolerance", "parameter_tolerance"):
            tol = getattr(self, name)
            if not (isinstance(tol, (int, float)) and 0.0 <= tol < math.inf):
                raise DomainError(f"{name} must be finite and nonnegative, got {tol!r}")
        if self.known_ratio is not None and not 0 < self.known_ratio < math.inf:
            raise DomainError(f"known_ratio must be finite and positive, got {self.known_ratio}")
        if self.start is not None:
            if len(self.start) != 6:
                raise DomainError(
                    f"start must supply (n_a, n_b, alpha, p1, p2a, p2b), got {len(self.start)} values"
                )
            if not all(math.isfinite(v) for v in self.start):
                raise DomainError("start values must be finite")


def _logit(p: float) -> float:
    p = clamp(p, _PROB_CLIP, 1.0 - _PROB_CLIP)
    return math.log(p / (1.0 - p))


def _prob(v: float) -> float:
    # the inverse of _logit, from v clamped to the logit bound
    v = clamp(v, -_LOGIT_BOUND, _LOGIT_BOUND)
    if v >= 0.0:
        p = 1.0 / (1.0 + math.exp(-v))
    else:
        e = math.exp(v)
        p = e / (1.0 + e)
    return clamp(p, _PROB_CLIP, 1.0 - _PROB_CLIP)


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
        n_a = self.lo_a + math.exp(clamp(u[0], -_U_BOUND, _U_BOUND))
        if self.r is None:
            n_b = self.lo_b + math.exp(clamp(u[1], -_U_BOUND, _U_BOUND))
        else:
            n_b = n_a / self.r
        return (n_a, n_b, *map(_prob, u[self.size - 4 :]))

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


def _closed_model_i(pair: StratumPair, moment: tuple, clamped: str | None, grad) -> tuple | None:
    """``(solver, natural parameters)`` of Model I's first-order maximiser,
    from its unrounded ``moment`` solution and where that solution's
    dependence ``clamped`` (see the module notes), or None where neither
    closed form holds.  ``grad`` is the first-order Model I gradient."""
    A, B = pair.a, pair.b
    if clamped is None:
        natural, solver = moment, "interior"
    elif clamped == "low":
        p1 = (A.x11 + B.x11) / (A.xdot1 + B.xdot1)
        n_a, n_b = A.x10 / p1 + A.xdot1, B.x10 / p1 + B.xdot1
        natural, solver = (n_a, n_b, 0.0, p1, A.xdot1 / n_a, B.xdot1 / n_b), "face"
    else:
        return None
    inside = all(0.0 < p < 1.0 for p in natural[3:])
    if inside and (solver == "interior" or grad(*natural)[2] <= 0):
        return solver, natural
    return None


def _start(
    model: str, pair: StratumPair, config: FitConfig, grad
) -> tuple[tuple, bool, tuple | None]:
    """Where a fit starts: ``(base, guessed, closed)``.

    ``base`` is the natural-scale start: a supplied ``config.start``, Model
    II's neutral guess, Model I's moment solution, or Model I's ``2 x0``
    fallback where the moment equations divide by zero.
    ``guessed`` says it is jittered into five starts.  ``closed`` is Model
    I's closed form ``(solver, natural)`` where one holds, else None; only
    its face check reads ``grad``, the fit's bound gradient.
    """
    if config.start is not None:
        return config.start, False, None
    A, B = pair.a, pair.b
    if model == "II":
        def lp_or_double(t: DrsTable) -> float:
            return t.x1dot * t.xdot1 / t.x11 if t.x11 else 2.0 * t.x0

        p1 = B.x11 / B.xdot1 if B.xdot1 else 0.5
        return (lp_or_double(A), lp_or_double(B), 0.1, p1, 0.5, 0.5), True, None
    try:
        mm = mme_model_i(pair)
    except DivisionByZero:
        return (2.0 * A.x0, 2.0 * B.x0, 0.1, 0.5, 0.5, 0.5), True, None
    e, d = mm.estimates, mm.diagnostics
    moment = (d["n_a_unrounded"], d["n_b_unrounded"], e["alpha"], e["p1"], e["p2a"], e["p2b"])
    # the moment solution maximises only the first-order objective, and
    # ignores a known ratio; elsewhere it is a guess
    if config.known_ratio is None and config.logfac == "stirling1":
        return moment, False, _closed_model_i(pair, moment, d["alpha_clamped"], grad)
    return moment, True, None


# per model: parameter type, whether alpha is tied across strata (the
# kernel's ``tied``)
_MODELS = {"I": (ModelIParams, False), "II": (ModelIIParams, True)}


def _fit(model: str, pair: StratumPair, config: FitConfig) -> EstimateResult:
    validate_table(pair.a)
    validate_table(pair.b)
    space = _Space(pair, config.known_ratio)
    loglik, grad = _loglik_kernel(pair, config.logfac, _MODELS[model][1])
    base, guessed, closed = _start(model, pair, config, grad)
    if closed is not None:
        solver, natural = closed
        value, converged, iterations, starts, evaluations = loglik(*natural), True, 0, [], 0
    else:

        def objective(u) -> float:
            return -loglik(*space.to_natural(u))

        def objective_grad(u) -> np.ndarray:
            natural = space.to_natural(u)
            return -space.chain_grad(natural, grad(*natural))

        base = _interior(pair, base)
        starts = [space.from_natural(*base)]
        if guessed:  # four copies jittered by up to 20% on sizes, 0.15 logit units
            rng = np.random.default_rng(0)
            for _ in range(4):
                fn_a = 1.0 + rng.uniform(-0.2, 0.2)
                fn_b = 1.0 + rng.uniform(-0.2, 0.2)
                dv = rng.uniform(-0.15, 0.15, size=4)
                jittered = space.from_natural(base[0] * fn_a, base[1] * fn_b, *base[2:])
                jittered[space.size - 4 :] += dv
                starts.append(jittered)
        bounds = [(-_U_BOUND, _U_BOUND)] * (space.size - 4) + [(-_LOGIT_BOUND, _LOGIT_BOUND)] * 4
        best, evaluations = None, 0
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
            evaluations += res.nfev
            if config.polish:
                polish = minimize(
                    objective,
                    res.x,
                    jac=objective_grad,
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={"maxiter": 200},
                )
                evaluations += int(polish.nfev)
                if polish.fun <= cand_fun:
                    cand_fun, cand_x = polish.fun, polish.x
            record = (cand_fun, cand_x, bool(res.success), int(res.nit))
            if best is None or cand_fun < best[0]:
                best = record
        fun, u_opt, converged, iterations = best
        solver, natural, value = "numeric", space.to_natural(u_opt), -fun

    # grad_norm is taken on the free scale
    n_a, n_b, alpha, p1, p2a, p2b = natural
    return EstimateResult(
        method=f"MLE-{model}",
        estimates={"n_a": float(round_half_even(n_a)), "n_b": float(round_half_even(n_b)),
                   "p1": p1, "p2a": p2a, "p2b": p2b, "alpha": alpha},
        diagnostics={"converged": converged, "iterations": iterations, "objective": value,
                     "grad_norm": float(np.linalg.norm(space.chain_grad(natural, grad(*natural)))),
                     "n_a_unrounded": n_a, "n_b_unrounded": n_b, "multistart": len(starts),
                     "logfac": config.logfac, "solver": solver, "evaluations": evaluations},
    )


def mle_model_i(data: StratumPair, config: FitConfig | None = None) -> EstimateResult:
    """Maximum-likelihood fit of Model I.

    Reports integerised sizes (half-to-even) with the continuous optima in
    diagnostics, the achieved log-likelihood under ``objective``, the
    ``solver`` path and a convergence flag.  For a closed form the flag means
    its optimality condition holds exactly (the saturated bound, or KKT on the
    face); for a numeric fit, that the simplex met its tolerances (floored, see
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
    params, tied = _MODELS[model]
    if not isinstance(theta, params):
        raise DomainError(f"model {model} takes {params.__name__}, got {type(theta).__name__}")
    allowed = tuple(f.name for f in fields(params))
    if component not in allowed:
        raise DomainError(f"unknown component {component!r}; expected one of {allowed}")
    loglik = _loglik_kernel(data, logfac, tied)[0]
    out = []
    for value in grid:
        point = replace(theta, **{component: float(value)})
        out.append((float(value), loglik(*_checked_fields(point, data))))
    return out
