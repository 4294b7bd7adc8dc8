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
computed without building either object, so results are bit-identical
whether replicates run serially or across worker processes.

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
from functools import partial
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
    check_real,
    empirical_ci,
)
from .mle import FitConfig, mle_model_i, mle_model_ii
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
        if self.model not in ("I", "II"):
            raise DomainError(f"model must be 'I' or 'II', got {self.model!r}")
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
    """A stratum's ``(cells, size)`` generator: its cells, as the float64
    array the multinomial draw takes, and its rounded size."""
    return np.array(cell_probabilities(params, sign).as_tuple()), int(round(params.n))


def _draw_table(cells, size: int, rng: np.random.Generator) -> DrsTable:
    """One stratum's observed table: ``size`` individuals spread over
    ``cells`` (x11, x10, x01 and, if given, the unobserved x00)."""
    return DrsTable(*rng.multinomial(size, cells).tolist()[:3])


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


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
_BLOCK = 1024  # child seeds hashed per pass


def _hasher(hc: int, mult: int):
    """SeedSequence's hashmix with hash constant ``hc``, advanced by ``mult``
    on every call; ``v`` is a Python int or a uint64 array of 32-bit words."""

    def hashmix(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * mult & _M32
        v = v * hc & _M32
        return v ^ v >> 16

    return hashmix


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    r = _MIX_L * x - _MIX_R * y & _M32
    return r ^ r >> 16


def _child_words(seed: int, idx: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).spawn(count)[i].generate_state(4, np.uint64)``
    for each uint64 index ``i`` of ``idx``, one row per index: the spawn
    key ``(i,)`` is one 32-bit word, or two from ``i = 2**32`` on."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    seed = int(seed)  # a numpy integer has no bit_length
    # the seed's words, zero-padded to the pool size 4 since a child has a key
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:] + [idx & _M32]:
        pool = [_mix(p, hashmix(w)) for p in pool]
    high = idx >> 32
    if high.any():
        pool = [np.where(high > 0, _mix(p, hashmix(high)), p) for p in pool]
    out = list(map(_hasher(_INIT_B, _MULT_B), pool + pool))
    return np.stack([out[k] | out[k + 1] << 32 for k in (0, 2, 4, 6)], axis=1)


def _streams(seed: int, lo: int, hi: int):
    """One generator, set in turn to replicate ``i``'s stream for ``i`` in
    ``[lo, hi)``: the PCG64 state that ``np.random.default_rng(child)``
    seeds from the child's words ``(s0, s1, i0, i1)``."""
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for start in range(lo, hi, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, hi), dtype=np.uint64)
        for s0, s1, i0, i1 in _child_words(seed, idx).tolist():
            # PCG64's seeding: state 0, inc = 2*initseq + 1, step, add, step
            inc = ((i0 << 64 | i1) << 1 | 1) & _M128
            pcg["state"] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
            pcg["inc"] = inc
            bits.state = state
            yield rng


def _replicate_values(draw, seed: int, ratios: dict, fit_config, lo: int, hi: int):
    """Refit each method on the pairs drawn from replicate streams [lo, hi)
    of ``seed`` (see :func:`_streams`).

    ``draw(rng)`` returns one stratum pair; ``ratios`` maps each method to the
    ratio it is applied with.  Returns per-method ``(n_a, n_b, alpha)``
    records in stream order, all NaN where the refit failed.
    """
    out = {m: [] for m in ratios}
    calls = [(m, ratio, out[m].append) for m, ratio in ratios.items()]
    failed = (math.nan, math.nan, math.nan)
    for rng in _streams(seed, lo, hi):
        pair = draw(rng)
        for m, ratio, append in calls:
            try:  # positional, as the bench tracer reads (method, pair, *_)
                fit = apply_method(m, pair, ratio, fit_config)
            except DualrecError:
                append(failed)
                continue
            append(_fit_values(fit))
    return out


def _replicate_counts(gen_a, gen_b, seed: int, lo: int, hi: int) -> np.ndarray:
    """The tables :func:`_draw_pair` draws from replicate streams [lo, hi) of
    ``seed``, as a ``(hi - lo, 6)`` float64 array of rows (x11A, x10A, x01A,
    x11B, x10B, x01B)."""
    (cells_a, size_a), (cells_b, size_b) = gen_a, gen_b
    rows = [
        rng.multinomial(size_a, cells_a).tolist()[:3]
        + rng.multinomial(size_b, cells_b).tolist()[:3]
        for rng in _streams(seed, lo, hi)
    ]
    return np.array(rows, dtype=float).reshape(hi - lo, 6)


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
    check_integer("threads", threads, 1)
    methods = tuple(estimators)
    for m in methods:
        if m not in ESTIMATORS:
            raise DomainError(f"unknown estimator {m!r}; valid: {', '.join(ESTIMATORS)}")
    reps = design.replicates
    ratio = design.n_a / design.n_b
    ratios = {m: ratio if ESTIMATORS[m].needs_ratio else None for m in methods}
    # generate_pair is read from the module on each call, so that a wrapper
    # installed on the module attribute (a tracer, say) sees every draw
    job = (partial(generate_pair, design), design.seed, ratios, fit_config)
    workers = min(threads, os.cpu_count() or 1, reps)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only for a pool

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
    return StudySummary(design=design, estimators=summaries)
