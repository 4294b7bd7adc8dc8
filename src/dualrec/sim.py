"""Simulation designs, data generation, and replicate studies.

Designs are specified by the two list-inclusion marginals ``(p1dot, pdot1)``
per stratum plus a dependence level ``alpha``; the latent List 2 probability
is recovered from the marginal, so infeasible (marginal, alpha) combinations
are rejected at design construction.  Six standard marginal pairs ship as
presets P1..P6.

Under a Model I design the reference stratum B is generated with independent
lists (``alpha = 0``); under Model II both strata share the design's alpha.

Replicate ``i`` of a seeded study draws from the stream that is, bit for
bit, ``np.random.default_rng(np.random.SeedSequence(seed).spawn(replicates)[i])``,
so results are bit-identical whether replicates run serially or across worker
processes.  numpy computes the seed's entropy pool and seeds each replicate's
own ``default_rng``; the package mixes each child's spawn key into the pool
and hashes the output words, a block of children at a time.

A study still draws and refits one replicate at a time: each pair comes from
:func:`generate_pair`, and each refit goes through :func:`apply_method`,
which calls every estimator through its attribute of this module.  The
benchmark's traced pass (``bench/tracing.py``) wraps those attributes to
time each layer, so the bootstrap's columnar path (:func:`_replicate_counts`
and the estimators' kernels) waits for built-in spans (ROADMAP item 7)
before studies can take it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .classical import (
    lincoln_petersen, lincoln_petersen_kernel, nour, nour_kernel, wolter_model1, wolter_model2
)
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
    check_name,
    check_pair,
    check_real,
    check_type,
    empirical_ci,
)
from .mle import FitConfig, _config, mle_model_i, mle_model_ii
from .mme import mme_model_i, mme_model_i_kernel, mme_model_ii, mme_model_ii_kernel
from .model import DependenceSign, cell_probabilities, p2_from_marginal

PRESETS: dict[str, tuple[float, float]] = {
    "P1": (0.60, 0.80),
    "P2": (0.60, 0.70),
    "P3": (0.80, 0.55),
    "P4": (0.80, 0.70),
    "P5": (0.50, 0.75),
    "P6": (0.50, 0.60),
}


class Kernel(NamedTuple):
    """A closed-form estimator over many tables at once.

    ``fn(counts)`` takes a ``(b, 6)`` float64 array of rows (x11A, x10A,
    x01A, x11B, x10B, x01B) and returns the unrounded ``n_a`` and ``n_b``
    columns, the ``alpha`` column (NaN where the method has none) and a mask
    that is False exactly where the scalar estimator raises.  Each integer
    the formulas form is at most the larger stratum size to the power
    ``degree``; while that stays below 2**53 the columns equal the scalar
    estimator's values bit for bit.
    """

    fn: Callable
    degree: int


class Estimator(NamedTuple):
    """An estimator's CLI token, whether it needs the size ratio n_a / n_b,
    the model it fits ("I" or "II"; None for classical comparators), and its
    :class:`Kernel`, if it has one."""

    token: str
    needs_ratio: bool
    model: str | None
    kernel: Kernel | None = None


ESTIMATORS: dict[str, Estimator] = {
    "LP": Estimator("lp", False, None, Kernel(lincoln_petersen_kernel, 2)),
    "NOUR": Estimator("nour", False, None, Kernel(nour_kernel, 4)),
    "MME-I": Estimator("mme1", False, "I", Kernel(mme_model_i_kernel, 2)),
    "MLE-I": Estimator("mle1", False, "I"),
    "MME-II": Estimator("mme2", False, "II", Kernel(mme_model_ii_kernel, 3)),
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
        check_name("model", self.model, ("I", "II"))
        check_integer("n_a", self.n_a, 1)
        check_integer("n_b", self.n_b, 1)
        check_integer("replicates", self.replicates, 1)
        check_integer("seed", self.seed, 0)
        check_real("p1dot_a", self.p1dot_a, "(0,1)")
        check_real("pdot1_a", self.pdot1_a, "(0,1]")
        check_real("p1dot_b", self.p1dot_b, "(0,1)")
        check_real("pdot1_b", self.pdot1_b, "(0,1]")
        check_real("alpha", self.alpha, "[0,1]")
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
    p1dot, pdot1 = PRESETS[check_name("preset", preset, PRESETS)]
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
    gen = _generator(params, sign)
    try:
        return _draw_table(*gen, rng)
    except AttributeError:
        check_type("rng", rng, np.random.Generator, "a numpy Generator")
        raise


def generate_pair(design: DesignPoint, rng: np.random.Generator) -> StratumPair:
    """Draw both strata of one replicate under the design."""
    try:
        gen_a, gen_b = design._gens
        return StratumPair(_draw_table(*gen_a, rng), _draw_table(*gen_b, rng))
    except AttributeError:
        # the types are checked only here, off the per-replicate path
        check_type("design", design, DesignPoint)
        check_type("rng", rng, np.random.Generator, "a numpy Generator")
        raise


def _generator(params: BbmParams, sign: DependenceSign = DependenceSign.POSITIVE):
    """A stratum's ``(cells, size)`` generator: its cells, as the float64
    array the multinomial draw takes, and its rounded size."""
    return np.array(cell_probabilities(params, sign).as_tuple()), int(round(params.n))


def _draw_table(cells, size: int, rng: np.random.Generator) -> DrsTable:
    """One stratum's observed table: ``size`` individuals spread over
    ``cells`` (x11, x10, x01 and, if given, the unobserved x00)."""
    return DrsTable(*rng.multinomial(size, cells).tolist()[:3])


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
    ``fit_config`` must be None or a :class:`FitConfig`, whatever the method.
    """
    try:
        spec = ESTIMATORS.get(method)
    except TypeError:  # unhashable
        spec = None
    if spec is None:
        check_name("estimator", method, ESTIMATORS)
    if spec.needs_ratio and ratio is None:
        raise DomainError(f"{method} requires a known size ratio")
    if fit_config is not None:
        _config(fit_config, "fit_config")
    if method in ("LP", "NOUR"):
        fn = lincoln_petersen if method == "LP" else nour
        # the pair's type only: each call validates its stratum, so an error
        # in stratum A still comes before an empty stratum B
        ra, rb = fn(check_pair(pair).a), fn(pair.b)
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
        cfg = fit_config if ratio is None else replace(_config(fit_config), known_ratio=ratio)
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
    d = fit.diagnostics
    return d["n_a_unrounded"], d["n_b_unrounded"], fit.estimates.get("alpha", math.nan)


# numpy's SeedSequence hash constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_BLOCK = 1024  # child seeds hashed per pass


def _hasher(hc: int, mult: int):
    """SeedSequence's hashmix with hash constant ``hc``, advanced by ``mult``
    on every call: ``hashmix(v, calls)`` makes ``calls`` calls at once on
    uint32 words, whose products wrap at 2**32 as SeedSequence's do: row
    ``j`` of the ``(calls, k)`` result is call ``j`` on ``v``, or on row
    ``j`` of ``v``."""

    def hashmix(v, calls):
        nonlocal hc
        consts = [hc]
        for _ in range(calls):
            consts.append(consts[-1] * mult & _M32)
        hc = consts[-1]
        c = np.array(consts, dtype=np.uint32)[:, None]
        v = (v ^ c[:-1]) * c[1:]
        return v ^ v >> 16

    return hashmix


def _mix(x, y):
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``, uint32
    arrays whose products wrap at 2**32."""
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


def _child_words(seed: int, idx: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).spawn(count)[i].generate_state(4, np.uint64)``
    for each uint64 index ``i`` of ``idx``, one row per index.  numpy gives
    the parent's entropy pool; a child's pool is that pool with its spawn
    key ``(i,)`` mixed in, one 32-bit word, or two from ``i = 2**32`` on."""
    seed = int(seed)  # a numpy integer has no bit_length
    # the parent made four hash calls per seed word, over at least four words
    calls = 4 * max(4, (seed.bit_length() + 31) // 32)
    hashmix = _hasher(_INIT_A * pow(_MULT_A, calls, 1 << 32) & _M32, _MULT_A)
    # the index words go into all four pool words at once, a (4, k) array
    pool = np.random.SeedSequence(seed).pool[:, None]
    pool = _mix(pool, hashmix(idx.astype(np.uint32), 4))  # the low word
    high = (idx >> 32).astype(np.uint32)
    if high.any():
        pool = np.where(high > 0, _mix(pool, hashmix(high, 4)), pool)
    # the eight output words, each native uint64 two of them, low word first
    out = _hasher(_INIT_B, _MULT_B)(np.concatenate((pool, pool)), 8)
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@cache
def _seed_words():
    """A minimal ``ISeedSequence`` that hands PCG64 a child's words as its
    seed, built on first use: subclassing it imports ``numpy.random``."""

    @dataclass
    class SeedWords(np.random.bit_generator.ISeedSequence):
        words: np.ndarray

        def generate_state(self, n_words, dtype=None):
            return self.words

    return SeedWords


def _streams(seed: int, lo: int, hi: int):
    """Replicate ``i``'s own ``np.random.default_rng`` for ``i`` in ``[lo, hi)``."""
    for start in range(lo, hi, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, hi), dtype=np.uint64)
        yield from map(np.random.default_rng, map(_seed_words(), _child_words(seed, idx)))


def _replicate_values(pairs, ratios: dict, fit_config):
    """Refit each method on each stratum pair of the iterable ``pairs``.

    ``ratios`` maps each method to the ratio it is applied with.  Returns
    per-method ``(n_a, n_b, alpha)`` records in the order of ``pairs``, all
    NaN where the refit failed.
    """
    out = {m: [] for m in ratios}
    calls = [(m, ratio, out[m].append) for m, ratio in ratios.items()]
    failed = (math.nan, math.nan, math.nan)
    for pair in pairs:
        for m, ratio, append in calls:
            try:  # positional, as the bench tracer reads (method, pair, *_)
                fit = apply_method(m, pair, ratio, fit_config)
            except DualrecError:
                append(failed)
                continue
            append(_fit_values(fit))
    return out


def _study_values(design: DesignPoint, ratios: dict, fit_config, lo: int, hi: int):
    """:func:`_replicate_values` on the design's replicates [lo, hi), drawn by
    :func:`generate_pair`, read from the module on each call so that a wrapper
    installed on the attribute (a tracer, say) sees every draw."""
    pairs = (generate_pair(design, rng) for rng in _streams(design.seed, lo, hi))
    return _replicate_values(pairs, ratios, fit_config)


def _replicate_counts(gen_a, gen_b, seed: int, lo: int, hi: int) -> np.ndarray:
    """The tables :func:`generate_pair` draws from the ``(cells, size)``
    generators ``gen_a``, ``gen_b`` and replicate streams [lo, hi) of ``seed``,
    as a read-only ``(hi - lo, 6)`` int64 array of rows (x11A, x10A, x01A,
    x11B, x10B, x01B), exact since no size reaches 2**63."""
    (cells_a, size_a), (cells_b, size_b) = gen_a, gen_b
    rows = [
        rng.multinomial(size_a, cells_a).tolist()[:3]
        + rng.multinomial(size_b, cells_b).tolist()[:3]
        for rng in _streams(seed, lo, hi)
    ]
    counts = np.array(rows, dtype=np.int64).reshape(hi - lo, 6)
    counts.flags.writeable = False
    return counts


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

    Every estimator is refitted on each replicate's one draw, so its summary
    equals its single-estimator study.  One that failed on every replicate is
    left out of ``estimators``; :class:`AllReplicatesFailed` is raised only
    if none succeeded, naming each, as ``"MME-II failed on all 5 replicates"``.

    ``threads`` caps the worker processes, at most one per CPU and replicate;
    it must be an integer of at least 1.
    """
    check_type("design", design, DesignPoint)
    check_integer("threads", threads, 1)
    # a string is iterable too, letter by letter
    try:
        methods = None if isinstance(estimators, str) else tuple(estimators)
    except TypeError:
        methods = None
    if methods is None:
        raise DomainError(f"estimators must be a sequence of estimator names, got {estimators!r}")
    if not methods:
        raise DomainError("estimators must name at least one estimator, got none")
    for m in methods:
        check_name("estimator", m, ESTIMATORS)
    _config(fit_config, "fit_config")
    reps = design.replicates
    ratio = design.n_a / design.n_b
    ratios = {m: ratio if ESTIMATORS[m].needs_ratio else None for m in methods}
    job = (design, ratios, fit_config)
    workers = min(threads, os.cpu_count() or 1, reps)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only for a pool

        chunk = math.ceil(reps / workers)
        ranges = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_study_values, *job, lo, hi) for lo, hi in ranges]
            parts = [f.result() for f in futures]
        # ranges are ascending, so the parts concatenate in replicate order
        rows = {m: [rec for part in parts for rec in part[m]] for m in methods}
    else:
        rows = _study_values(*job, 0, reps)

    summaries = {}
    for m in ratios:  # each named estimator once, in order
        na, nb, al, failures = _successes(rows[m])
        if failures == reps:
            continue
        has_alpha = not bool(np.isnan(al).all())

        # fsum is exact, so summing the floats of tolist() changes no bit
        def agg(values: np.ndarray, truth: float):
            mean = math.fsum(values.tolist()) / len(values)
            rrmse = math.sqrt(math.fsum(((values - truth) ** 2).tolist()) / len(values)) / truth
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
            mean_alpha=float(math.fsum(al.tolist()) / len(al)) if has_alpha else None,
            failures=failures,
            used=reps - failures,
        )
    if not summaries:
        raise AllReplicatesFailed(f"{', '.join(ratios)} failed on all {reps} replicates")
    return StudySummary(design=design, estimators=summaries)
