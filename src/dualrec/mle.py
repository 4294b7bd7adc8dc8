"""Maximum-likelihood fitting of the two-stratum dependent-capture models.

Under the default first-order objective, with no known ratio and no supplied
start, Model I's maximiser is returned in closed form (``diagnostics["solver"]``):
``"interior"`` is the unrounded moment solution, used when its dependence does
not clamp and ``p1``, ``p2a``, ``p2b`` lie in (0, 1); it reproduces all six
cells, so it attains the saturated bound ``sum(x log x) - x0``.  ``"face"``,
used when the dependence clamps low, is the ``alpha = 0`` solution
``p1 = (x11A + x11B)/(x.1A + x.1B)``, ``n_k = x10k/p1 + x.1k``,
``p2k = x.1k/n_k``, kept when its probabilities lie in (0, 1).  Its
alpha-derivative, ``-(p1 x.1A - x11A)(p1 x.1A + x10A)/(p1 x.1A)``, is then
negative, so the KKT condition of ``alpha >= 0`` holds without a test: the
dependence clamps low exactly when ``x11A/x.1A < x11B/x.1B`` (its two
quotients are correctly rounded, so a float clamp is an exact one), and
their mediant ``p1`` exceeds ``x11A/x.1A``.  The float derivative is not
used; on near-ties it can round positive from counts of about 10**6.

A closed form takes its diagnostics from the counts, not from the
likelihood: it binds no likelihood and evaluates neither it nor its
gradient.  ``objective`` is the value at the exact maximiser, summed by
``math.fsum`` with ``0 log 0 = 0``: on the interior the saturated bound
``sum(x log x) - x0A - x0B`` over the six cells; on the face, with
``S11 = x11A + x11B``, ``S01 = x01A + x01B`` and ``S.1 = S11 + S01``,
``sum_k (x.1k log x.1k + x10k log x10k) + S11 log S11 + S01 log S01
- S.1 log S.1 - x0A - x0B``, the first-order likelihood at the face point.
``grad_norm`` is 0.0, the exact free-scale gradient at both: the interior
is stationary, and the face maximises over every coordinate but alpha,
whose component is scaled by ``alpha = 0``.

Every other fit is ``"numeric"``: a derivative-free Nelder-Mead simplex
(:func:`minimize`, scipy 1.17.1's Nelder-Mead with a stable vertex order, to
the bit), run once per start on an unconstrained transform of the parameter
space:

* population sizes enter as ``n = (x0 - 1) + exp(u)``, which keeps the
  feasibility boundary open while letting the optimiser roam freely (past
  2**53, where ``x0 - 1.0`` rounds, from the smallest float not below
  ``x0``); the objective is +inf wherever a size is below its count, in
  every mode, so no fit reports one (the exact log-gamma ratio is finite
  down to ``x0 - 1``, the Stirling ratios are already -inf there);
* probabilities enter through the logistic transform, clipped to
  ``(1e-8, 1 - 1e-8)`` so the log-likelihood stays finite.

A fit given no config takes :data:`DEFAULT_CONFIG`, the one ``FitConfig()``,
built and checked once; a default Model I fit in closed form then costs its
moment solution (:func:`dualrec.mme._model_i_moments`, with no
``mme_model_i`` result) and a sum of at most seven ``x log x`` terms.

No fit imports scipy: the simplex is the package's own, and ``exact``
gradients take :func:`dualrec.core.digamma`.  ``diagnostics["evaluations"]``
counts the simplex's objective evaluations over all starts (0 in closed form).

A supplied start (``FitConfig.start``) runs alone, as does Model I's moment
solution where no closed form holds.  Any other start is a guess: Model II's
neutral point, Model I's ``2 x0`` where the moment equations divide by zero,
or the moment solution under a known ratio or ``exact``.  A guess runs with
up to four jittered copies (up to 20% on sizes, 0.15 logit units on
probabilities, seed 0); a copy that starts on the likelihood's wall (a size
below the observed count, where the objective is +inf) is dropped, though
the guess itself always runs.  ``diagnostics["multistart"]`` counts the
starts that run.

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
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from operator import add
from typing import NamedTuple

import numpy as np

from .core import (
    DivisionByZero,
    DomainError,
    DrsTable,
    EstimateResult,
    StratumPair,
    check_integer,
    check_name,
    check_real,
    check_type,
    clamp,
    round_half_even,
    validate_pair,
)
from .mme import _model_i_moments
from .model import ModelIIParams, ModelIParams, _check_args, _checked_fields, _loglik_kernel


class _Simplex(NamedTuple):
    x: list[float]
    fun: float
    nit: int
    nfev: int
    success: bool


class _Exhausted(Exception):
    """The evaluation budget ran out before a call."""


def _rank(v: float) -> tuple[bool, float]:
    """A vertex value's place in the order: by value, NaN last."""
    return v != v, v


def _sort(sim: list, fsim: list) -> tuple[list, list]:
    """The vertices in stable order of their values, NaN last: tied values,
    ``-0.0`` with ``0.0`` and NaN with NaN, keep their order."""
    order = sorted(range(len(fsim)), key=lambda i: _rank(fsim[i]))
    return [sim[i] for i in order], [fsim[i] for i in order]


def minimize(fun, x0, method: str, options: dict) -> _Simplex:
    """scipy 1.17.1's ``minimize(fun, x0, method="Nelder-Mead",
    options=options)``, non-adaptive, with a stable vertex order, reproduced
    on lists of floats: the same iterates as scipy's with ``np.argsort``
    made stable, so the same ``x``, ``fun``, ``nit``, ``nfev`` and
    ``success``.
    ``options`` holds ``maxiter``, ``maxfev``, ``fatol`` and ``xatol``;
    ``fun`` takes a vertex as a list, which it must not change.  Every fit
    calls the simplex through this one name, which the bench's tracer wraps
    and whose ``method`` argument it reads; the simplex is Nelder-Mead
    whatever ``method`` says.

    As in scipy, the budget is checked before each call, and a call it
    refuses abandons the iteration; a NaN value never meets a tolerance;
    and ``fun`` is NaN where any vertex's value is.  Float arithmetic gives
    inf and NaN without raising, so a simplex on the wall (+inf) computes
    ``inf - inf`` quietly.

    The vertices are kept in :func:`_sort`'s stable order, so ties are
    broken as Lagarias, Reeds, Wright and Wright (SIAM J. Optim. 9, 1998)
    break them, and the iterates depend on no sort's tie order.  The start
    simplex is sorted once; a reflect, expand or contract step inserts its
    new vertex after every kept vertex it ties, and only a shrink, or a step
    that the budget cut short, sorts again.
    """
    maxiter, maxfev = options["maxiter"], options["maxfev"]
    fatol, xatol = options["fatol"], options["xatol"]
    nfev = 0

    def call(x: list[float]) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return fun(x)

    x0 = [float(v) for v in x0]
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _Exhausted:
        pass
    sim, fsim = _sort(sim, fsim)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        new = None  # the worst vertex's replacement, (x, f)
        try:
            # fsim is in order, NaN last, so its last value is the one
            # farthest from the best, or NaN where any is
            best = sim[0]
            if abs(fsim[0] - fsim[-1]) <= fatol and all(
                abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best)
            ):
                break
            # np.add.reduce(sim[:-1], 0) / n: the rows summed in order,
            # never by sum(), which compensates floats from Python 3.12 on
            total = best
            for x in sim[1:-1]:
                total = map(add, total, x)
            xbar = [t / n for t in total]
            worst = sim[-1]
            xr = [2 * c - w for c, w in zip(xbar, worst)]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
                fxe = call(xe)
                new = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                new = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                    fxc = call(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    new = xc, fxc
                else:
                    # each vertex moves before its call, so a call the
                    # budget refuses leaves it moved with its old value
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                        fsim[j] = call(sim[j])
            iterations += 1
        except _Exhausted:
            pass
        if new is None:
            sim, fsim = _sort(sim, fsim)
        else:
            x, f = new
            k = bisect_right(fsim, _rank(f), 0, n, key=_rank)
            del sim[-1], fsim[-1]
            sim.insert(k, x)
            fsim.insert(k, f)

    f_min = fsim[0] if fsim[-1] == fsim[-1] else math.nan  # np.min(fsim)
    return _Simplex(sim[0], f_min, iterations, nfev, nfev < maxfev and iterations < maxiter)


_PROB_CLIP = 1e-8
_PROB_HI = 1.0 - _PROB_CLIP
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
    ``(n_a, n_b, alpha, p1, p2a, p2b)``, any sequence of six reals, kept as
    a tuple of floats and used alone; simulation studies of
    locally-identified fits typically pass the design parameters here.
    ``max_iterations`` and the tolerances govern only numeric fits, not
    Model I's closed forms (see the module notes); a numeric fit is the
    Nelder-Mead simplex alone (:func:`minimize`), which on flat objectives
    stops near its start instead of drifting along the plateau.

    Every field is checked when the config is built, so a bad value raises
    ``DomainError`` before any fit runs; ``known_ratio`` must also have a
    finite reciprocal, since a fit divides by it.

    ``objective_tolerance`` is floored per start at four float spacings of
    the starting objective, which changes it only above ~2e6 in magnitude.
    """

    max_iterations: int = 2000
    objective_tolerance: float = 1e-9
    parameter_tolerance: float = 1e-8
    known_ratio: float | None = None
    logfac: str = "stirling1"
    start: tuple[float, float, float, float, float, float] | None = None

    def __post_init__(self) -> None:
        # the three-term form diverges as n approaches the observed count, so
        # it is usable for likelihood evaluation but not as a fitting objective
        check_name("fitting logfac", self.logfac, ("exact", "stirling1"))
        check_integer("max_iterations", self.max_iterations, 1)
        check_real("objective_tolerance", self.objective_tolerance, "[0,inf)")
        check_real("parameter_tolerance", self.parameter_tolerance, "[0,inf)")
        if self.known_ratio is not None:
            # a fit divides by it; one that rounds to 0.0 has no float reciprocal
            r = float(check_real("known_ratio", self.known_ratio, "(0,inf)"))
            check_real("1/known_ratio", 1.0 / r if r else math.inf, "(0,inf)")
        start = self.start
        if start is not None:
            # a set or a generator has no order, a 0-d array no length
            if not isinstance(start, Sequence) and np.ndim(start) != 1:
                raise DomainError("start must be a sequence of six reals "
                                  f"(n_a, n_b, alpha, p1, p2a, p2b), got {start!r}")
            if len(start) != 6:
                raise DomainError(
                    f"start must supply (n_a, n_b, alpha, p1, p2a, p2b), got {len(start)} values"
                )
            for v in start:
                check_real("start", v, "(-inf,inf)")
            # kept as a tuple of floats, so that a config hashes and compares
            object.__setattr__(self, "start", tuple(map(float, start)))


# the config of every fit given none: built, and so checked, once
DEFAULT_CONFIG = FitConfig()


def _config(config, name: str = "config") -> FitConfig:
    """``config``, or :data:`DEFAULT_CONFIG` where it is None; a DomainError
    naming ``name`` where it is neither."""
    if config is None:
        return DEFAULT_CONFIG
    return check_type(name, config, FitConfig, "a FitConfig or None")


def _logit(p: float) -> float:
    p = clamp(p, _PROB_CLIP, _PROB_HI)
    return math.log(p / (1.0 - p))


def _log_excess(n: float, lo: float) -> float:
    # log(n - lo) with n floored at lo + 1e-6; where lo is so large that
    # lo + 1e-6 rounds to lo, the difference itself is floored at 1e-6
    return math.log((max(n, lo + 1e-6) - lo) or 1e-6)


def _size_floor(x0: int) -> float:
    # the float a size is measured from: x0 - 1, exact up to 2**53.  Past it
    # every float is an integer and x0 - 1.0 rounds, possibly below x0 - 1,
    # so the floor is the smallest float not below x0
    if x0 <= 2**53:
        return x0 - 1.0
    f = float(x0)
    return f if f >= x0 else math.nextafter(f, math.inf)


class _Space:
    """Transform between the free vector u and natural parameters.

    Natural order is (n_a, n_b, alpha, p1, p2a, p2b).  Sizes enter as
    ``n = lo + exp(u)`` from their :func:`_size_floor` ``lo``.  With a known
    ratio r the n_b coordinate is dropped and n_b = n_a / r.
    """

    def __init__(self, pair: StratumPair, known_ratio: float | None):
        self.r = known_ratio
        lo_a, lo_b = _size_floor(pair.a.x0), _size_floor(pair.b.x0)
        if known_ratio is None:
            self.lo_a, self.lo_b, self.size = lo_a, lo_b, 6
        else:
            self.lo_a, self.lo_b, self.size = max(lo_a, known_ratio * lo_b), None, 5

    def to_natural(self, u: list[float]) -> list[float]:
        # the inverse of from_natural, the objective's and the fit's one
        # decode; each bound is written inline, as core.clamp has it
        exp = math.exp
        v = u[0]
        n_a = self.lo_a + exp(-_U_BOUND if v < -_U_BOUND else _U_BOUND if v > _U_BOUND else v)
        if self.r is None:
            v = u[1]
            n_b = self.lo_b + exp(-_U_BOUND if v < -_U_BOUND else _U_BOUND if v > _U_BOUND else v)
        else:
            n_b = n_a / self.r
        out = [n_a, n_b]
        for v in u[self.size - 4 :]:
            if v >= 0.0:
                p = 1.0 / (1.0 + exp(-v))
            else:
                e = exp(v)
                p = e / (1.0 + e)
            out.append(_PROB_CLIP if p < _PROB_CLIP else _PROB_HI if p > _PROB_HI else p)
        return out

    def from_natural(self, n_a, n_b, alpha, p1, p2a, p2b) -> list[float]:
        u = [_log_excess(n_a, self.lo_a)]
        if self.r is None:
            u.append(_log_excess(n_b, self.lo_b))
        u.extend([_logit(alpha), _logit(p1), _logit(p2a), _logit(p2b)])
        return u

    def chain_grad(self, natural, natural_grad) -> list[float]:
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
        return out


def _interior(pair: StratumPair, start, known_ratio: float | None) -> tuple[float, ...]:
    """``start`` with sizes raised to the observed counts and probabilities
    clamped into [1e-4, 1 - 1e-4], so every start lies inside the space.
    Under a known ratio r, ``n_a`` is raised to ``r x0B`` too, since
    ``n_b = n_a / r`` below its count would start the fit on the wall."""
    n_a, n_b, *probs = start
    inner = 1e-4
    return (
        max(n_a, pair.a.x0, (known_ratio or 0.0) * pair.b.x0),
        max(n_b, pair.b.x0),
        *(clamp(p, inner, 1.0 - inner) for p in probs),
    )


def _closed_model_i(pair: StratumPair, moment: tuple, clamped: str | None) -> tuple | None:
    """``(solver, natural parameters, objective)`` of Model I's first-order
    maximiser, from its unrounded ``moment`` solution and where that
    solution's dependence ``clamped`` (see the module notes), or None where
    neither closed form holds.  The objective is the likelihood's value at
    the exact maximiser, summed from the counts."""
    A, B = pair.a, pair.b
    a11, a10, a01, b11, b10, b01 = A.x11, A.x10, A.x01, B.x11, B.x10, B.x01
    if clamped is None:
        natural, solver = moment, "interior"
        counts = (a11, a10, a01, b11, b10, b01)
    elif clamped == "low":
        s11, s01 = a11 + b11, a01 + b01
        p1 = s11 / (s11 + s01)
        da, db = a11 + a01, b11 + b01
        n_a, n_b = a10 / p1 + da, b10 / p1 + db
        natural, solver = (n_a, n_b, 0.0, p1, da / n_a, db / n_b), "face"
        counts = (da, a10, db, b10, s11, s01)
    else:
        return None
    if not all(0.0 < p < 1.0 for p in natural[3:]):
        return None
    log = math.log
    terms = [x * log(x) for x in counts if x]  # 0 log 0 = 0
    if solver == "face":
        terms.append(-(s11 + s01) * log(s11 + s01))
    terms += (-(a11 + a10 + a01), -(b11 + b10 + b01))
    return solver, natural, math.fsum(terms)


def _start(model: str, pair: StratumPair, config: FitConfig) -> tuple[tuple, bool, tuple | None]:
    """Where a fit starts: ``(base, guessed, closed)``.

    ``base`` is the natural-scale start: a supplied ``config.start``, Model
    II's neutral guess, Model I's moment solution, or Model I's ``2 x0``
    fallback where the moment equations divide by zero.
    ``guessed`` adds its jittered copies, those off the wall.  ``closed`` is
    Model I's closed form ``(solver, natural, objective)`` where one holds,
    else None.
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
        moment, clamped, _, _ = _model_i_moments(A.x11, A.x10, A.x01, B.x11, B.x10, B.x01)
    except DivisionByZero:
        return (2.0 * A.x0, 2.0 * B.x0, 0.1, 0.5, 0.5, 0.5), True, None
    # the moment solution maximises only the first-order objective, and
    # ignores a known ratio; elsewhere it is a guess
    if config.known_ratio is None and config.logfac == "stirling1":
        return moment, False, _closed_model_i(pair, moment, clamped)
    return moment, True, None


def _fit(model: str, pair: StratumPair, config: FitConfig) -> EstimateResult:
    validate_pair(pair)
    r = config.known_ratio
    # under a known ratio the fit's sizes reach x0A / r (n_b) and r x0B (n_a);
    # past the float range the likelihood has no value there
    if r is not None and max(pair.a.x0 / float(r), float(r) * pair.b.x0) == math.inf:
        raise DomainError(f"known_ratio = {r} takes x0A / known_ratio or "
                          "known_ratio * x0B past the float range")
    base, guessed, closed = _start(model, pair, config)
    if closed is not None:
        # the exact maximiser's free-scale gradient is 0: the interior is
        # stationary, and on the face the alpha component is scaled by alpha = 0
        solver, natural, value = closed
        converged, iterations, starts, evaluations, grad_norm = True, 0, [], 0, 0.0
    else:
        space = _Space(pair, r)
        # Model II ties alpha across strata
        loglik, grad = _loglik_kernel(pair, config.logfac, model == "II")
        x0a, x0b = pair.a.x0, pair.b.x0

        def objective(u) -> float:
            natural = space.to_natural(u)  # +inf below the counts: the wall
            return math.inf if natural[0] < x0a or natural[1] < x0b else -loglik(*natural)

        base = _interior(pair, base, config.known_ratio)
        u0 = space.from_natural(*base)
        starts = [(u0, objective(u0))]
        if guessed:  # four copies jittered by up to 20% on sizes, 0.15 logit units
            rng = np.random.default_rng(0)
            for _ in range(4):
                fn_a = 1.0 + rng.uniform(-0.2, 0.2)
                fn_b = 1.0 + rng.uniform(-0.2, 0.2)
                dv = rng.uniform(-0.15, 0.15, size=4).tolist()
                jittered = space.from_natural(base[0] * fn_a, base[1] * fn_b, *base[2:])
                k = space.size - 4
                jittered[k:] = [v + d for v, d in zip(jittered[k:], dv)]
                # a copy that starts on the wall (objective +inf) spends the
                # whole evaluation budget there, so it does not run
                if (f0 := objective(jittered)) != math.inf:
                    starts.append((jittered, f0))
        best, evaluations = None, 0
        for u0, f0 in starts:
            # below the objective's float spacing only bit-equal values meet fatol
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
            evaluations += res.nfev
            if best is None or res.fun < best[0]:
                best = (res.fun, res.x, res.success, res.nit)
        fun, u_opt, converged, iterations = best
        solver, natural, value = "numeric", space.to_natural(u_opt), -fun
        # grad_norm is taken on the free scale
        grad_norm = math.hypot(*space.chain_grad(natural, grad(*natural)))

    n_a, n_b, alpha, p1, p2a, p2b = natural
    return EstimateResult(
        method=f"MLE-{model}",
        estimates={"n_a": float(round_half_even(n_a)), "n_b": float(round_half_even(n_b)),
                   "p1": p1, "p2a": p2a, "p2b": p2b, "alpha": alpha},
        diagnostics={"converged": converged, "iterations": iterations, "objective": value,
                     "grad_norm": grad_norm,
                     "n_a_unrounded": n_a, "n_b_unrounded": n_b, "multistart": len(starts),
                     "logfac": config.logfac, "solver": solver, "evaluations": evaluations},
    )


def mle_model_i(data: StratumPair, config: FitConfig | None = None) -> EstimateResult:
    """Maximum-likelihood fit of Model I.

    Reports integerised sizes (half-to-even) with the continuous optima in
    diagnostics, the achieved log-likelihood under ``objective``, the norm
    of its free-scale gradient under ``grad_norm``, the ``solver`` path and
    a convergence flag.  For a closed form the flag means its optimality
    condition holds exactly (the saturated bound, or on the face the KKT
    condition that the clamp implies), ``objective`` is the likelihood at
    the exact maximiser, summed from the counts, and ``grad_norm`` is 0.0,
    the exact gradient there (see the module notes).  For a numeric fit the
    flag means that the simplex met its tolerances (floored, see
    :class:`FitConfig`) within the iteration budget, not stationarity, and
    ``objective`` and ``grad_norm`` are evaluated in floats at the fitted
    point.  With
    ``config.known_ratio = r`` the fit is over five free parameters with
    ``n_b = n_a / r`` held exactly; an ``r`` that takes ``x0A / r`` or
    ``r * x0B`` past the float range raises :class:`DomainError`.
    """
    return _fit("I", data, _config(config))


def mle_model_ii(data: StratumPair, config: FitConfig | None = None) -> EstimateResult:
    """Maximum-likelihood fit of Model II (shared p1 and alpha across strata)."""
    return _fit("II", data, _config(config))


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
    sizes on the grid raise rather than being skipped.  ``grid`` is an
    iterable of real numbers; anything else raises ``DomainError``.
    """
    check_name("model", model, ("I", "II"))
    _check_args(model, theta, data)
    check_name("component", component, [f.name for f in fields(theta)])
    try:
        grid = list(grid)
    except TypeError:
        raise DomainError(f"grid must be an iterable of real numbers, got {grid!r}") from None
    loglik = _loglik_kernel(data, logfac, model == "II")[0]
    out = []
    for value in grid:
        value = float(check_real("grid", value, "(-inf,inf)"))
        point = replace(theta, **{component: value})
        out.append((value, loglik(*_checked_fields(point, data, logfac))))
    return out
