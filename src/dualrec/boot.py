"""Bootstrap standard errors and percentile intervals for pair estimators.

Two resampling schemes are provided:

* ``parametric`` regenerates full tables from the fitted model and refits.
  The generating structure follows the estimator: the Model I fits draw
  stratum A from the dependent-capture model and stratum B with independent
  lists, the Model II fits draw both strata with the shared dependence, and
  the classical single-stratum methods draw each stratum under within-stratum
  independence at the fitted size with the observed list margins.
* ``nonparametric`` keeps each stratum's observed count fixed and
  redistributes those individuals over the three observed cells with their
  empirical proportions.

Each resample draws from its own child stream spawned from the seed, so
the collection of resamples does not depend on evaluation order.
Resamples whose refit fails (infeasible moment solution, violated
condition, non-convergence) are counted and excluded from the standard
error and interval; if fewer than two succeed, too few for a standard
error, the bootstrap itself fails.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .core import (
    AllResamplesFailed,
    BbmParams,
    DomainError,
    DrsTable,
    EstimateResult,
    StratumPair,
    check_integer,
    empirical_ci,
)
from .mle import FitConfig
from .model import _cells
from .sim import (
    ESTIMATORS, _draw_pair, _fit_values, _generator, _replicate_values, _successes, apply_method
)

_SCHEMES = ("parametric", "nonparametric")


def _generating_cells(method: str, data: StratumPair, point: EstimateResult):
    """Per-stratum (cell probabilities, size) of the parametric generator."""
    est = point.estimates
    n_a, n_b, _ = map(float, _fit_values(point))
    model = ESTIMATORS[method].model
    if model is not None:
        alpha_b = est["alpha"] if model == "II" else 0.0
        params_a = BbmParams(est["p1"], est["p2a"], est["alpha"], max(n_a, 1.0))
        params_b = BbmParams(est["p1"], est["p2b"], alpha_b, max(n_b, 1.0))
        return _generator(params_a), _generator(params_b)
    return _independence_cells(data.a, n_a), _independence_cells(data.b, n_b)


def _independence_cells(table: DrsTable, n_hat: float):
    """Independent-list cell probabilities at the fitted stratum size."""
    n = max(int(round(n_hat)), table.x0)
    # the model's cells at alpha = 0; the observed List 1 margin may be all n
    return _cells(table.x1dot / n, table.xdot1 / n, 0.0), n


def bootstrap(
    data: StratumPair,
    method: str,
    scheme: str = "parametric",
    b: int = 1000,
    seed: int = 0,
    ratio: float | None = None,
    fit_config: FitConfig | None = None,
) -> EstimateResult:
    """Bootstrap one estimator on one stratum pair.

    Returns the point fit augmented with a standard error (sample standard
    deviation over successful resamples) and an empirical 2.5/97.5
    percentile interval for each size estimate, plus the dependence
    estimate where the method produces one.  Sizes are resampled on their
    unrounded scale.  Diagnostics gain the scheme, the resample count, the
    failure count, and the seed.
    """
    if scheme not in _SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}; valid: {', '.join(_SCHEMES)}")
    if check_integer("b", b) < 2:
        raise DomainError(f"need at least 2 resamples for a standard error, got {b}")
    if check_integer("seed", seed) < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    point = apply_method(method, data, ratio=ratio, fit_config=fit_config)
    if scheme == "parametric":
        gens = _generating_cells(method, data, point)
    else:
        # observed proportions; the point fit has checked that neither x0 is 0
        gens = [((t.x11 / t.x0, t.x10 / t.x0, t.x01 / t.x0), t.x0) for t in (data.a, data.b)]
    draw = partial(_draw_pair, *gens)
    recs = _replicate_values(draw, seed, b, {method: ratio}, fit_config, 0, b)[method]
    *columns, failures = _successes(recs)
    if b - failures < 2:
        raise AllResamplesFailed(
            f"{method} failed on {failures} of {b} resamples; a standard error needs 2"
        )
    se = {}
    ci = {}
    for k, vals in zip(("n_a", "n_b", "alpha"), columns):
        if k in point.estimates:
            se[k] = float(np.std(vals, ddof=1))
            ci[k] = empirical_ci(vals)

    diagnostics = dict(point.diagnostics)
    diagnostics.update(
        {"scheme": scheme, "resamples": b, "failures": failures, "seed": seed}
    )
    return EstimateResult(
        method=point.method,
        estimates=dict(point.estimates),
        se=se,
        ci=ci,
        diagnostics=diagnostics,
    )
