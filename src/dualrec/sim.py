"""Simulation designs, data generation, and replicate studies.

Designs are specified by the two list-inclusion marginals ``(p1dot, pdot1)``
per stratum plus a dependence level ``alpha``; the latent List 2 probability
is recovered from the marginal, so infeasible (marginal, alpha) combinations
are rejected at design construction.  Six standard marginal pairs ship as
presets P1..P6.

Under a Model I design the reference stratum B is generated with independent
lists (``alpha = 0``); under Model II both strata share the design's alpha.

Replicates use one child stream per replicate index spawned from the design
seed, so results are bit-identical whether replicates run serially or across
worker processes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .classical import lincoln_petersen, nour, wolter_model1, wolter_model2
from .core import (
    AllReplicatesFailed,
    BbmParams,
    DidNotConverge,
    DomainError,
    DrsTable,
    DualrecError,
    EstimateResult,
    StratumPair,
    check_integer,
    empirical_ci,
)
from .mle import FitConfig, mle_model_i, mle_model_ii
from .mme import mme_model_i, mme_model_ii
from .model import DependenceSign, cell_probabilities, p2_from_marginal

PRESETS: dict[str, tuple[float, float]] = {
    "P1": (0.60, 0.80),
    "P2": (0.60, 0.70),
    "P3": (0.80, 0.55),
    "P4": (0.80, 0.70),
    "P5": (0.50, 0.75),
    "P6": (0.50, 0.60),
}


class Estimator(NamedTuple):
    """An estimator's CLI token, whether it needs the size ratio n_a / n_b,
    and the model it fits ("I" or "II"; None for classical comparators)."""

    token: str
    needs_ratio: bool
    model: str | None


ESTIMATORS: dict[str, Estimator] = {
    "LP": Estimator("lp", False, None),
    "NOUR": Estimator("nour", False, None),
    "MME-I": Estimator("mme1", False, "I"),
    "MLE-I": Estimator("mle1", False, "I"),
    "MME-II": Estimator("mme2", False, "II"),
    "MLE-II": Estimator("mle2", False, "II"),
    "WOLTER-1": Estimator("wolter1", True, None),
    "WOLTER-2": Estimator("wolter2", True, None),
}


@dataclass(frozen=True)
class DesignPoint:
    """One simulation design: marginals per stratum, dependence, sizes."""

    p1dot_a: float
    pdot1_a: float
    p1dot_b: float
    pdot1_b: float
    alpha: float
    n_a: int
    n_b: int
    model: str = "I"
    replicates: int = 5000
    seed: int = 0
    _gens: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.model not in ("I", "II"):
            raise DomainError(f"model must be 'I' or 'II', got {self.model!r}")
        if check_integer("n_a", self.n_a) <= 0 or check_integer("n_b", self.n_b) <= 0:
            raise DomainError("population sizes must be positive")
        if check_integer("replicates", self.replicates) <= 0:
            raise DomainError("replicates must be positive")
        if check_integer("seed", self.seed) < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        # each stratum's (cells, size) generator, A then B, built once; this
        # is also the feasibility check: p2 of each stratum must exist
        gens = (_generator(self.params_a()), _generator(self.params_b()))
        object.__setattr__(self, "_gens", gens)

    def params_a(self) -> BbmParams:
        p2 = p2_from_marginal(self.pdot1_a, self.p1dot_a, self.alpha)
        return BbmParams(p1=self.p1dot_a, p2=p2, alpha=self.alpha, n=self.n_a)

    def params_b(self) -> BbmParams:
        alpha_b = 0.0 if self.model == "I" else self.alpha
        p2 = p2_from_marginal(self.pdot1_b, self.p1dot_b, alpha_b)
        return BbmParams(p1=self.p1dot_b, p2=p2, alpha=alpha_b, n=self.n_b)


def design_from_preset(
    preset: str,
    model: str,
    n_a: int,
    n_b: int,
    alpha: float,
    replicates: int = 5000,
    seed: int = 0,
) -> DesignPoint:
    """Build a DesignPoint from one of the named marginal presets."""
    if preset not in PRESETS:
        raise DomainError(
            f"unknown preset {preset!r}; valid presets: {', '.join(sorted(PRESETS))}"
        )
    p1dot, pdot1 = PRESETS[preset]
    return DesignPoint(
        p1dot_a=p1dot,
        pdot1_a=pdot1,
        p1dot_b=p1dot,
        pdot1_b=pdot1,
        alpha=alpha,
        n_a=n_a,
        n_b=n_b,
        model=model,
        replicates=replicates,
        seed=seed,
    )


def generate_stratum(
    params: BbmParams,
    sign: DependenceSign = DependenceSign.POSITIVE,
    *,
    rng: np.random.Generator,
) -> DrsTable:
    """Draw one stratum's observed table from the dependent-capture model:
    one multinomial over its cells, the draw that studies and the bootstrap
    use."""
    return _draw_table(*_generator(params, sign), rng)


def generate_pair(design: DesignPoint, rng: np.random.Generator) -> StratumPair:
    """Draw both strata of one replicate under the design."""
    return _draw_pair(*design._gens, rng)


def _generator(params: BbmParams, sign: DependenceSign = DependenceSign.POSITIVE):
    """A stratum's ``(cells, size)`` generator: its cells and rounded size."""
    return cell_probabilities(params, sign).as_tuple(), int(round(params.n))


def _draw_table(cells, size: int, rng: np.random.Generator) -> DrsTable:
    """One stratum's observed table: ``size`` individuals spread over
    ``cells`` (x11, x10, x01 and, if given, the unobserved x00)."""
    x11, x10, x01 = rng.multinomial(size, cells)[:3]
    return DrsTable(x11, x10, x01)


def _draw_pair(gen_a, gen_b, rng: np.random.Generator) -> StratumPair:
    """Stratum A then stratum B, each from its ``(cells, size)`` generator."""
    return StratumPair(_draw_table(*gen_a, rng), _draw_table(*gen_b, rng))


# ---------------------------------------------------------------------------
# Method dispatch shared by studies, the bootstrap, and the CLI
# ---------------------------------------------------------------------------


def apply_method(
    method: str,
    pair: StratumPair,
    ratio: float | None = None,
    fit_config: FitConfig | None = None,
) -> EstimateResult:
    """Apply one estimator, named as in :data:`ESTIMATORS`, to a stratum pair.

    Single-stratum methods (LP, NOUR) are applied to each stratum and
    reported as ``n_a`` / ``n_b``.  Ratio-linked methods require ``ratio``.
    A likelihood fit that stops short of its tolerance raises
    :class:`DidNotConverge` so callers can count it as a failure.
    """
    spec = ESTIMATORS.get(method)
    if spec is None:
        raise DomainError(f"unknown estimator {method!r}; valid: {', '.join(ESTIMATORS)}")
    if spec.needs_ratio and ratio is None:
        raise DomainError(f"{method} requires a known size ratio")
    if method in ("LP", "NOUR"):
        fn = lincoln_petersen if method == "LP" else nour
        ra, rb = fn(pair.a), fn(pair.b)
        return EstimateResult(
            method=method,
            estimates={"n_a": ra.estimates["n"], "n_b": rb.estimates["n"]},
            diagnostics={
                "n_a_unrounded": ra.diagnostics["n_unrounded"],
                "n_b_unrounded": rb.diagnostics["n_unrounded"],
            },
        )
    if method == "MME-I":
        return mme_model_i(pair)
    if method == "MME-II":
        return mme_model_ii(pair)
    if method in ("MLE-I", "MLE-II"):
        cfg = fit_config or FitConfig()
        if ratio is not None:
            cfg = replace(cfg, known_ratio=ratio)
        fit = mle_model_i(pair, cfg) if method == "MLE-I" else mle_model_ii(pair, cfg)
        if not fit.diagnostics.get("converged", True):
            raise DidNotConverge(f"{method} stopped before meeting tolerance")
        return fit
    if method in ("WOLTER-1", "WOLTER-2"):
        fn = wolter_model1 if method == "WOLTER-1" else wolter_model2
        return fn(pair, ratio)
    raise NotImplementedError(f"{method} is registered but has no dispatch branch")


# ---------------------------------------------------------------------------
# Replicate studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorStudy:
    """Replicate aggregates for one estimator under one design."""

    mean_n_a: float
    rrmse_n_a: float
    ci_n_a: tuple[float, float]
    mean_n_b: float
    rrmse_n_b: float
    ci_n_b: tuple[float, float]
    mean_alpha: float | None
    failures: int
    used: int


@dataclass(frozen=True)
class StudySummary:
    """All estimator aggregates for one design."""

    design: DesignPoint
    estimators: dict[str, EstimatorStudy]


def _fit_values(fit: EstimateResult) -> tuple[float, float, float]:
    """A fit's unrounded sizes and its dependence estimate (NaN if it has none)."""
    d, e = fit.diagnostics, fit.estimates
    return (
        d.get("n_a_unrounded", e.get("n_a", math.nan)),
        d.get("n_b_unrounded", e.get("n_b", math.nan)),
        e.get("alpha", math.nan),
    )


def _replicate_values(draw, seed: int, count: int, ratios: dict, fit_config, lo: int, hi: int):
    """Refit each method on the pairs drawn from streams [lo, hi) of the
    ``count`` streams spawned from ``seed``.

    ``draw(rng)`` returns one stratum pair; ``ratios`` maps each method to the
    ratio it is applied with.  Returns per-method ``(n_a, n_b, alpha)``
    records in stream order, all NaN where the refit failed.
    """
    streams = np.random.SeedSequence(seed).spawn(count)
    out = {m: [] for m in ratios}
    for i in range(lo, hi):
        pair = draw(np.random.default_rng(streams[i]))
        for m, ratio in ratios.items():
            try:
                fit = apply_method(m, pair, ratio=ratio, fit_config=fit_config)
            except DualrecError:
                out[m].append((math.nan, math.nan, math.nan))
                continue
            out[m].append(_fit_values(fit))
    return out


def _successes(recs):
    """The n_a, n_b and alpha columns of the successful records, and the
    number of failed ones."""
    na, nb, al = np.array(recs, dtype=float).T
    ok = ~np.isnan(na)
    return na[ok], nb[ok], al[ok], int(len(recs) - ok.sum())


def run_study(
    design: DesignPoint,
    estimators=("MME-I", "NOUR"),
    fit_config: FitConfig | None = None,
    threads: int = 1,
) -> StudySummary:
    """Run the design's replicates and aggregate each estimator.

    Per estimator: means of the unrounded size estimates, relative root mean
    squared error against the design truth, empirical 2.5/97.5 percentile
    intervals, the mean dependence estimate where the method produces one,
    and the count of failed replicates (infeasible, condition-violating, or
    non-converged fits), which are excluded from all aggregates.

    ``threads`` caps the worker processes, at most one per CPU and replicate;
    it must be an integer of at least 1.
    """
    if check_integer("threads", threads) < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    methods = tuple(estimators)
    for m in methods:
        if m not in ESTIMATORS:
            raise DomainError(f"unknown estimator {m!r}; valid: {', '.join(ESTIMATORS)}")
    reps = design.replicates
    ratio = design.n_a / design.n_b
    ratios = {m: ratio if ESTIMATORS[m].needs_ratio else None for m in methods}
    # generate_pair is read from the module on each call, so that a wrapper
    # installed on the module attribute (a tracer, say) sees every draw
    job = (partial(generate_pair, design), design.seed, reps, ratios, fit_config)
    workers = min(threads, os.cpu_count() or 1, reps)
    if workers > 1:
        chunk = math.ceil(reps / workers)
        ranges = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_replicate_values, *job, lo, hi) for lo, hi in ranges]
            parts = [f.result() for f in futures]
        # ranges are ascending, so the parts concatenate in replicate order
        rows = {m: [rec for part in parts for rec in part[m]] for m in methods}
    else:
        rows = _replicate_values(*job, 0, reps)

    summaries = {}
    for m in methods:
        na, nb, al, failures = _successes(rows[m])
        if failures == reps:
            raise AllReplicatesFailed(f"{m} failed on all {reps} replicates")
        has_alpha = not bool(np.isnan(al).all())

        def agg(values: np.ndarray, truth: float):
            mean = float(math.fsum(values) / len(values))
            rrmse = float(math.sqrt(math.fsum((values - truth) ** 2) / len(values)) / truth)
            return mean, rrmse, empirical_ci(values)

        mean_a, rrmse_a, ci_a = agg(na, design.n_a)
        mean_b, rrmse_b, ci_b = agg(nb, design.n_b)
        summaries[m] = EstimatorStudy(
            mean_n_a=mean_a,
            rrmse_n_a=rrmse_a,
            ci_n_a=ci_a,
            mean_n_b=mean_b,
            rrmse_n_b=rrmse_b,
            ci_n_b=ci_b,
            mean_alpha=float(math.fsum(al) / len(al)) if has_alpha else None,
            failures=failures,
            used=reps - failures,
        )
    return StudySummary(design=design, estimators=summaries)
