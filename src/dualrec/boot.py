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

Resample ``i`` draws from the stream that is, bit for bit,
``np.random.default_rng(np.random.SeedSequence(seed).spawn(b)[i])``, so
the collection of resamples does not depend on evaluation order.  As for a
study's replicates, numpy computes the seed's entropy pool and the PCG64
seeding of each resample's generator, and :mod:`dualrec.sim` computes the
words in between: the spawn-key mix and the output hash.

Either scheme draws all ``b`` resample tables into one read-only ``(b, 6)``
int64 count array (:func:`dualrec.sim._replicate_counts`, which refuses a
size past int64).  The closed-form methods refit it at once with their
:class:`~dualrec.sim.Kernel`, in float64.  That is exact, and equal bit for
bit to refitting each table with Python ints, while every integer the
formulas form stays below 2**53.  Each count is at most its stratum's size,
so the kernel runs while the larger size squared (LP, MME-I), cubed (MME-II)
or to the fourth power (NOUR) is below 2**53; past that, and for the other
methods, :func:`apply_method` refits the table pair of each row.

A nonparametric draw depends only on the observed tables, ``b`` and the
seed, so the last one is cached: a nonparametric bootstrap of any method
on the same tables, ``b`` and seed refits it instead of drawing again
(``dualrec estimate --bootstrap`` bootstraps every method on one pair and
seed).  It holds one array (48 KB at b = 1000) until a nonparametric
bootstrap with another key replaces it.  Parametric draws are not shared:
their generator is the method's own point fit, which no other method has.

Resamples whose refit fails (infeasible moment solution, violated
condition, non-convergence) are counted and excluded from the standard
error and interval; if fewer than two succeed, too few for a standard
error, the bootstrap itself fails.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import (
    AllResamplesFailed,
    BbmParams,
    DrsTable,
    EstimateResult,
    StratumPair,
    check_integer,
    check_name,
)
from .mle import FitConfig
from .model import _cells
from .sim import ESTIMATORS, _fit_values, _generator, apply_method
from .sim import _replicate_counts, _replicate_values, _successes

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
    return np.array(_cells(table.x1dot / n, table.xdot1 / n, 0.0)), n


@lru_cache(maxsize=1)
def _nonparametric_counts(table_a: DrsTable, table_b: DrsTable, b: int, seed: int) -> np.ndarray:
    """The nonparametric resample tables: each stratum's ``x0`` individuals
    spread over its three observed cells with their observed proportions.
    The point fit has checked that neither ``x0`` is 0."""
    gens = [(np.array([t.x11 / t.x0, t.x10 / t.x0, t.x01 / t.x0]), t.x0) for t in (table_a, table_b)]
    return _replicate_counts(*gens, seed, 0, b)


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

    A nonparametric bootstrap refits the last such call's resample tables
    when it had the same tables, ``b`` and seed, so several methods on one
    pair draw once, with the same output.  Parametric draws come from the
    method's own fit and are never shared.
    """
    check_name("scheme", scheme, _SCHEMES)
    check_integer("b", b, 2)  # two resamples at least, for a standard error
    check_integer("seed", seed, 0)
    point = apply_method(method, data, ratio=ratio, fit_config=fit_config)
    if scheme == "parametric":
        gens = _generating_cells(method, data, point)
        size = max(n for _, n in gens)
        counts = _replicate_counts(*gens, seed, 0, b)
    else:
        size = max(data.a.x0, data.b.x0)
        counts = _nonparametric_counts(data.a, data.b, b, seed)
    kernel = ESTIMATORS[method].kernel
    if kernel is not None and size**kernel.degree < 2**53:
        n_a, n_b, alpha, ok = kernel.fn(counts.astype(float))
        columns = n_a[ok], n_b[ok], alpha[ok]
        failures = b - int(ok.sum())
    else:
        pairs = (StratumPair(DrsTable(*row[:3]), DrsTable(*row[3:])) for row in counts.tolist())
        recs = _replicate_values(pairs, {method: ratio}, fit_config)[method]
        *columns, failures = _successes(recs)
    if b - failures < 2:
        raise AllResamplesFailed(
            f"{method} failed on {failures} of {b} resamples; a standard error needs 2"
        )
    keys = [k for k in ("n_a", "n_b", "alpha") if k in point.estimates]
    stacked = np.stack([col for k, col in zip(("n_a", "n_b", "alpha"), columns) if k in keys])
    sd = np.std(stacked, axis=1, ddof=1)
    lo, hi = np.percentile(stacked, [2.5, 97.5], axis=1)
    se = {k: float(v) for k, v in zip(keys, sd)}
    ci = {k: (float(a), float(b)) for k, a, b in zip(keys, lo, hi)}

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
