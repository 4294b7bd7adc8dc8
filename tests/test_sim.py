"""Tests for data generation, method dispatch, and replicate studies."""

import concurrent.futures
import inspect
import math
from collections import Counter
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import dualrec.sim as sim
from dualrec.boot import bootstrap
from dualrec.cli import _parse_methods
from dualrec.core import (
    AllReplicatesFailed,
    BbmParams,
    DidNotConverge,
    DomainError,
    DrsTable,
    DualrecError,
    OutOfRange,
    StratumPair,
)
from dualrec.datasets import MEADOW_VOLES
from dualrec.mle import FitConfig
from dualrec.mme import mme_model_ii
from dualrec.model import DependenceSign
from dualrec.sim import (
    ESTIMATORS,
    PRESETS,
    DesignPoint,
    apply_method,
    design_from_preset,
    generate_pair,
    generate_stratum,
    run_study,
)


def test_preset_marginals():
    assert PRESETS == {
        "P1": (0.60, 0.80),
        "P2": (0.60, 0.70),
        "P3": (0.80, 0.55),
        "P4": (0.80, 0.70),
        "P5": (0.50, 0.75),
        "P6": (0.50, 0.60),
    }


def test_unknown_preset_lists_valid_names():
    with pytest.raises(DomainError) as err:
        design_from_preset("P7", model="I", n_a=240, n_b=200, alpha=0.4)
    msg = str(err.value)
    for name in PRESETS:
        assert name in msg


def test_design_recovers_latent_probabilities():
    d = design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4)
    pa, pb = d.params_a(), d.params_b()
    assert pa.p1 == 0.6
    assert pa.p2 == pytest.approx((0.8 - 0.4 * 0.6) / 0.6, abs=1e-12)
    assert pa.alpha == 0.4
    assert pb.alpha == 0.0  # reference stratum independent under Model I
    assert pb.p2 == pytest.approx(0.8, abs=1e-12)
    d2 = design_from_preset("P1", model="II", n_a=240, n_b=200, alpha=0.4)
    assert d2.params_b().alpha == 0.4


def test_design_validation():
    with pytest.raises(DomainError):
        DesignPoint(0.6, 0.8, 0.6, 0.8, 0.4, 240, 200, model="X")
    with pytest.raises(DomainError):
        DesignPoint(0.6, 0.8, 0.6, 0.8, 0.4, -1, 200)
    with pytest.raises(DomainError):
        DesignPoint(0.6, 0.8, 0.6, 0.8, 0.4, 240, 200, replicates=0)
    with pytest.raises(DomainError, match="replicates must be an integer"):
        DesignPoint(0.6, 0.8, 0.6, 0.8, 0.4, 240, 200, replicates=2.5)
    with pytest.raises(DomainError, match="seed must be an integer"):
        DesignPoint(0.6, 0.8, 0.6, 0.8, 0.4, 240, 200, seed=1.5)
    # a bool is not an integer, though operator.index reads it as 0 or 1
    with pytest.raises(DomainError, match="replicates must be an integer, got True"):
        design_from_preset("P1", "I", 240, 200, 0.4, replicates=True, seed=False)
    with pytest.raises(DomainError, match="seed must be an integer, got False"):
        design_from_preset("P1", "I", 240, 200, 0.4, seed=False)
    with pytest.raises(DomainError, match="n_a must be an integer, got True"):
        DesignPoint(0.6, 0.8, 0.6, 0.8, 0.4, True, 200)
    # the marginals and alpha must be real numbers, not strings, None or bools
    with pytest.raises(DomainError, match="^alpha must be a real number, got '0.4'$"):
        design_from_preset("P1", "I", 240, 200, "0.4")
    with pytest.raises(DomainError, match="^alpha must be a real number, got None$"):
        design_from_preset("P1", "I", 240, 200, alpha=None)
    with pytest.raises(DomainError, match="^p1dot_a must be a real number, got '0.6'$"):
        DesignPoint("0.6", 0.8, 0.6, 0.8, 0.4, 240, 200)
    with pytest.raises(DomainError, match="^pdot1_b must be a real number, got True$"):
        DesignPoint(0.6, 0.8, 0.6, True, 0.4, 240, 200)
    # a marginal outside its interval is refused under its own name, where the
    # stratum's p1 or p2_from_marginal's OutOfRange once named it
    for args, message in (
        ((1.5, 0.8, 0.6, 0.8, 0.4), "p1dot_a must be in (0,1), got 1.5"),
        ((0.6, 1.2, 0.6, 0.8, 0.4), "pdot1_a must be in (0,1], got 1.2"),
        ((0.6, 0.8, 0.0, 0.8, 0.4), "p1dot_b must be in (0,1), got 0.0"),
        ((0.6, 0.8, 0.6, -0.1, 0.4), "pdot1_b must be in (0,1], got -0.1"),
        ((0.6, 0.8, 0.6, 0.8, 1.1), "alpha must be in [0,1], got 1.1"),
    ):
        with pytest.raises(DomainError) as err:
            DesignPoint(*args, 240, 200)
        assert str(err.value) == message
    assert DesignPoint(0.6, 1.0, 0.6, 1.0, 0.0, 240, 200).params_a().p2 == 1.0
    # each integer field names its minimum
    for kwargs, message in (
        (dict(n_a=0), "n_a must be at least 1, got 0"),
        (dict(n_b=-1), "n_b must be at least 1, got -1"),
        (dict(replicates=0), "replicates must be at least 1, got 0"),
        (dict(seed=-1), "seed must be at least 0, got -1"),
    ):
        with pytest.raises(DomainError) as err:
            DesignPoint(**{**dict(p1dot_a=0.6, pdot1_a=0.8, p1dot_b=0.6, pdot1_b=0.8, alpha=0.4,
                                  n_a=240, n_b=200), **kwargs})
        assert str(err.value) == message
    # the multinomial draw takes sizes as int64
    with pytest.raises(DomainError):
        design_from_preset("P1", model="I", n_a=10**20, n_b=100, alpha=0.3)
    with pytest.raises(DomainError):
        generate_stratum(BbmParams(p1=0.6, p2=0.8, alpha=0.4, n=1e20))
    with pytest.raises(DomainError):
        design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4, seed=-1)
    for size in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            design_from_preset("P1", model="I", n_a=size, n_b=200, alpha=0.4)
        with pytest.raises(DomainError):
            design_from_preset("P1", model="II", n_a=240, n_b=size, alpha=0.4)
    # a fractional size would be drawn rounded but scored unrounded
    with pytest.raises(DomainError, match="n_a must be an integer"):
        design_from_preset("P1", "I", 240.6, 200, 0.4)
    with pytest.raises(DomainError, match="n_b must be an integer"):
        design_from_preset("P1", "I", 240, 0.4, 0.4)
    with pytest.raises(DomainError, match="n_b must be an integer"):
        DesignPoint(0.6, 0.8, 0.6, 0.8, 0.4, 240, 200.0)
    # infeasible (marginal, alpha) combination caught at construction
    with pytest.raises(OutOfRange):
        design_from_preset("P6", model="I", n_a=240, n_b=200, alpha=0.9)


def test_generate_full_dependence_empties_off_diagonal():
    params = BbmParams(p1=0.6, p2=0.7, alpha=1.0, n=500)
    rng = np.random.default_rng(4)
    for _ in range(20):
        t = generate_stratum(params, rng=rng)
        assert t.x10 == 0
        assert t.x01 == 0
    # negative dependence at alpha = 1 empties the diagonal instead
    for _ in range(20):
        t = generate_stratum(params, DependenceSign.NEGATIVE, rng=rng)
        assert t.x11 == 0
        assert t.x0 == 500


def test_generate_concentrates_on_cell_probability():
    params = BbmParams(p1=0.6, p2=0.8, alpha=0.4, n=1_000_000)
    rng = np.random.default_rng(7)
    t = generate_stratum(params, rng=rng)
    tol = 3.0 * math.sqrt(0.528 * 0.472 / 1e6)
    assert t.x11 / 1e6 == pytest.approx(0.528, abs=tol)


def test_generate_negative_sign_shifts_mass_off_diagonal():
    params = BbmParams(p1=0.6, p2=0.8, alpha=0.4, n=100_000)
    rng = np.random.default_rng(8)
    pos = generate_stratum(params, DependenceSign.POSITIVE, rng=rng)
    neg = generate_stratum(params, DependenceSign.NEGATIVE, rng=rng)
    assert neg.x11 < pos.x11
    assert neg.x10 > pos.x10


def test_generate_refuses_a_sign_that_is_not_a_dependence_sign():
    params = BbmParams(p1=0.6, p2=0.5, alpha=0.4, n=100)
    with pytest.raises(DomainError, match="^sign must be a DependenceSign, got 'positive'$"):
        generate_stratum(params, "positive", rng=np.random.default_rng(0))


def test_generate_modes_and_determinism():
    params = BbmParams(p1=0.6, p2=0.8, alpha=0.4, n=240)
    t1 = generate_stratum(params, rng=np.random.default_rng(11))
    t2 = generate_stratum(params, rng=np.random.default_rng(11))
    assert t1 == t2
    with pytest.raises(TypeError):
        generate_stratum(params)  # every draw takes the caller's generator


def test_generation_modes_are_distributionally_equivalent():
    # pooled cell counts of the multinomial draw and of a simulation of each
    # individual's latent draws (the model's definition) pass a
    # goodness-of-fit check
    d = design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4)
    params = d.params_a()
    rng_m = np.random.default_rng(101)
    rng_i = np.random.default_rng(202)
    totals = np.zeros((2, 4), dtype=np.int64)
    for _ in range(10_000):
        t = generate_stratum(params, rng=rng_m)
        totals[0] += (t.x11, t.x10, t.x01, 240 - t.x0)
        tied = rng_i.random(240) < params.alpha
        y = rng_i.random(240) < params.p1
        z = np.where(tied, y, rng_i.random(240) < params.p2)
        totals[1] += (np.sum(y & z), np.sum(y & ~z), np.sum(~y & z), np.sum(~y & ~z))
    _, p, _, _ = stats.chi2_contingency(totals)
    assert p > 0.01


def test_generate_pair_uses_both_strata():
    d = design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4)
    pair = generate_pair(d, np.random.default_rng(3))
    again = generate_pair(d, np.random.default_rng(3))
    assert pair == again
    assert pair.a.x0 <= 240
    assert pair.b.x0 <= 200


def test_apply_method_dispatch():
    lp = apply_method("LP", MEADOW_VOLES)
    assert lp.estimates["n_a"] == 81.0  # two-list classic per stratum
    assert lp.estimates["n_b"] == 73.0
    nour = apply_method("NOUR", MEADOW_VOLES)
    assert nour.estimates["n_a"] == 86.0
    assert nour.estimates["n_b"] == 74.0
    mme2 = apply_method("MME-II", MEADOW_VOLES)
    assert mme2.estimates == mme_model_ii(MEADOW_VOLES).estimates
    w1 = apply_method("WOLTER-1", MEADOW_VOLES, ratio=1.147)
    assert w1.estimates["n_a"] == 84.0


def test_apply_method_argument_errors():
    with pytest.raises(DomainError):
        apply_method("WOLTER-1", MEADOW_VOLES)  # ratio required
    with pytest.raises(DomainError) as err:
        apply_method("MLE-III", MEADOW_VOLES)
    assert "MLE-II" in str(err.value)


def test_apply_method_raises_on_unconverged_fit():
    cfg = FitConfig(max_iterations=2)
    with pytest.raises(DidNotConverge):
        apply_method("MLE-II", MEADOW_VOLES, fit_config=cfg)


def test_study_reruns_bit_identically():
    d = design_from_preset(
        "P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=50, seed=9
    )
    s1 = run_study(d, estimators=("MME-I", "LP"))
    s2 = run_study(d, estimators=("MME-I", "LP"))
    assert s1 == s2


def test_study_parallel_matches_serial():
    d = design_from_preset(
        "P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=20, seed=3
    )
    serial = run_study(d, estimators=("MME-I",))
    parallel = run_study(d, estimators=("MME-I",), threads=2)
    assert serial.estimators["MME-I"] == parallel.estimators["MME-I"]


def _stream_draws(rng):
    """A generator's PCG64 state, then two multinomial draws from it."""
    state = rng.bit_generator.state
    return state, rng.multinomial(240, (0.3, 0.2, 0.1, 0.4)).tolist(), rng.multinomial(200, (0.5, 0.5)).tolist()


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**200 + 12345])
def test_replicate_streams_are_spawned_default_rng_streams(seed):
    # replicate i draws exactly what default_rng(SeedSequence(seed).spawn(n)[i])
    # draws, over a range longer than one hashing block and over the halves
    # that threads=2 gives each worker
    n = 1100
    expected = [_stream_draws(np.random.default_rng(s)) for s in np.random.SeedSequence(seed).spawn(n)]
    half = math.ceil(n / 2)
    for lo, hi in ((0, n), (0, half), (half, n)):
        assert [_stream_draws(rng) for rng in sim._streams(seed, lo, hi)] == expected[lo:hi]
    # each replicate's generator is its own: collected before any draw, each
    # still follows its replicate's stream
    collected = list(sim._streams(seed, 0, n))
    assert [_stream_draws(rng) for rng in collected] == expected
    # from index 2**32 on, numpy's spawn key is two 32-bit words; a child's
    # key is its index, so these are reached without spawning 2**32 children
    lo, hi = 2**32 - 2, 2**32 + 2
    wide = [
        _stream_draws(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))))
        for i in range(lo, hi)
    ]
    assert [_stream_draws(rng) for rng in sim._streams(seed, lo, hi)] == wide
    assert [_stream_draws(rng) for rng in sim._streams(seed, lo + 1, hi)] == wide[1:]


def test_study_takes_a_numpy_integer_seed():
    d = design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=30, seed=9)
    assert run_study(replace(d, seed=np.int64(9)), ("LP",)).estimators == run_study(d, ("LP",)).estimators


def test_design_builds_its_cells_once(monkeypatch):
    # a design builds each stratum's cells when it is made, A then B; its
    # replicates draw from those without building them again
    calls, cells = [], sim.cell_probabilities

    def counted(params, sign=DependenceSign.POSITIVE):
        calls.append(params)
        return cells(params, sign)

    monkeypatch.setattr(sim, "cell_probabilities", counted)
    d = design_from_preset("P1", model="II", n_a=240, n_b=200, alpha=0.4, replicates=50)
    assert calls == [d.params_a(), d.params_b()]
    run_study(d, estimators=("MME-I",))
    assert len(calls) == 2


def test_study_rejects_unknown_estimator():
    d = design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=5)
    with pytest.raises(DomainError):
        run_study(d, estimators=("MME-I", "BOGUS"))


@pytest.mark.parametrize("estimators", ["MME-I", None, 3])
def test_study_refuses_estimators_that_are_not_a_sequence_of_names(estimators):
    # a string was iterated letter by letter ("unknown estimator 'M'"), and
    # None let a bare TypeError out
    d = design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=5)
    with pytest.raises(DomainError, match="^estimators must be a sequence of estimator names"):
        run_study(d, estimators)


def test_study_counts_and_excludes_failures():
    d = design_from_preset(
        "P5", model="II", n_a=240, n_b=200, alpha=0.4, replicates=50, seed=5
    )
    st = run_study(d, estimators=("MME-II",)).estimators["MME-II"]
    assert st.failures == 28
    assert st.used == 22
    assert math.isfinite(st.mean_n_a)


def test_study_all_replicates_failed():
    # along this design the dependent model's miss-in-List-2 cell is empty,
    # so every replicate degenerates the Model II moment denominator
    d = design_from_preset(
        "P6", model="II", n_a=240, n_b=200, alpha=0.8, replicates=5, seed=0
    )
    with pytest.raises(AllReplicatesFailed):
        run_study(d, estimators=("MME-II",))


@pytest.mark.parametrize("estimators", [(), []])
def test_study_refuses_no_estimators_before_any_draw(estimators, monkeypatch):
    d = design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=5)
    monkeypatch.setattr(sim, "generate_pair", lambda *a: pytest.fail("a table was drawn"))
    with pytest.raises(DomainError, match="^estimators must name at least one estimator"):
        run_study(d, estimators)


@pytest.mark.parametrize("config", ["x", 0])
def test_study_refuses_a_fit_config_that_is_not_one_before_any_draw(config, monkeypatch):
    d = design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=5)
    monkeypatch.setattr(sim, "generate_pair", lambda *a: pytest.fail("a table was drawn"))
    with pytest.raises(DomainError, match=f"^fit_config must be a FitConfig or None, got {config!r}$"):
        run_study(d, ("MLE-I",), fit_config=config)


@pytest.mark.parametrize("method", ["MLE-I", "MLE-II", "MME-I", "LP"])
@pytest.mark.parametrize("config", ["x", 0])
def test_apply_method_refuses_a_fit_config_that_is_not_one(method, config):
    # whatever the method, though only the likelihood fits read it
    with pytest.raises(DomainError, match=f"^fit_config must be a FitConfig or None, got {config!r}$"):
        apply_method(method, MEADOW_VOLES, None, config)


@pytest.mark.parametrize("threads", [1, 2])
def test_study_leaves_out_an_estimator_that_failed_on_every_replicate(threads):
    # MME-II fails on every replicate of this design (as above); the others
    # are aggregated from the same draws, as their own studies would be
    d = design_from_preset("P6", model="II", n_a=240, n_b=200, alpha=0.8, replicates=60, seed=3)
    studies = run_study(d, ("MME-II", "LP", "NOUR"), threads=threads).estimators
    assert list(studies) == ["LP", "NOUR"]
    for m in ("LP", "NOUR"):
        assert studies[m] == run_study(d, (m,)).estimators[m]


def test_study_names_every_estimator_when_all_failed():
    d = design_from_preset("P6", model="II", n_a=240, n_b=200, alpha=0.8, replicates=5, seed=0)
    with pytest.raises(AllReplicatesFailed, match="^MME-II, WOLTER-1 failed on all 5 replicates$"):
        run_study(d, ("MME-II", "WOLTER-1", "MME-II"))
    with pytest.raises(AllReplicatesFailed, match="^MME-II failed on all 5 replicates$"):
        run_study(d, ("MME-II", "MME-II"))


def test_study_dependence_free_methods_report_no_alpha():
    d = design_from_preset(
        "P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=30, seed=2
    )
    s = run_study(d, estimators=("LP", "MME-I"))
    assert s.estimators["LP"].mean_alpha is None
    assert s.estimators["MME-I"].mean_alpha is not None


def test_study_interval_brackets_mean_when_failures_rare():
    d = design_from_preset(
        "P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=200, seed=6
    )
    st = run_study(d, estimators=("MME-I",)).estimators["MME-I"]
    assert st.failures == 0
    assert st.ci_n_a[0] <= st.mean_n_a <= st.ci_n_a[1]
    assert st.ci_n_b[0] <= st.mean_n_b <= st.ci_n_b[1]


def test_moment_estimator_mean_tracks_truth_across_presets():
    for preset in PRESETS:
        d = design_from_preset(
            preset, model="I", n_a=1200, n_b=1000, alpha=0.4, replicates=2000, seed=11
        )
        st = run_study(d, estimators=("MME-I",)).estimators["MME-I"]
        assert abs(st.mean_n_a - 1200.0) / 1200.0 < 0.01, preset


def test_dependence_tolerant_comparator_biased_down_under_dependence():
    d = design_from_preset(
        "P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=100, seed=0
    )
    st = run_study(d, estimators=("NOUR",)).estimators["NOUR"]
    assert st.mean_n_a < 240.0


def test_independence_estimator_degrades_with_dependence():
    base = design_from_preset(
        "P6", model="I", n_a=240, n_b=200, alpha=0.0, replicates=500, seed=21
    )
    dep = design_from_preset(
        "P6", model="I", n_a=240, n_b=200, alpha=0.8, replicates=500, seed=21
    )
    rrmse_base = run_study(base, estimators=("LP",)).estimators["LP"].rrmse_n_a
    rrmse_dep = run_study(dep, estimators=("LP",)).estimators["LP"].rrmse_n_a
    assert rrmse_base < rrmse_dep


def test_estimator_registry_is_complete():
    assert set(ESTIMATORS) == {
        "LP",
        "NOUR",
        "MME-I",
        "MLE-I",
        "MME-II",
        "MLE-II",
        "WOLTER-1",
        "WOLTER-2",
    }


@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_registry_token_parses_to_name(name):
    assert _parse_methods(ESTIMATORS[name].token) == [name]


class _Reached(Exception):
    """Raised by a stand-in estimator to show that dispatch reached it."""


@pytest.fixture
def estimator_spies(monkeypatch):
    """Replace every estimator function that dualrec.sim imports, under its
    own name, with a stand-in that records the name and raises; return the
    records."""
    reached = []

    def spy(attr):
        def stand_in(*args, **kwargs):
            reached.append(attr)
            raise _Reached(attr)

        return stand_in

    for attr, value in list(vars(sim).items()):
        if (
            inspect.isfunction(value)
            and value.__name__ == attr
            and value.__module__ in ("dualrec.classical", "dualrec.mme", "dualrec.mle")
        ):
            monkeypatch.setattr(sim, attr, spy(attr))
    return reached


@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_registry_ratio_requirement(name, estimator_spies):
    expected = DomainError if ESTIMATORS[name].needs_ratio else _Reached
    with pytest.raises(expected):
        apply_method(name, MEADOW_VOLES)


@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_apply_method_calls_estimator_through_module_attribute(name, estimator_spies):
    # bench/tracing.py times each layer by wrapping these module attributes,
    # so dispatch must look them up at call time, not hold function objects
    with pytest.raises(_Reached):
        apply_method(name, MEADOW_VOLES, ratio=1.147)
    assert len(estimator_spies) == 1


@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_every_estimator_reports_its_unrounded_sizes(name):
    # a study aggregates these diagnostics, with no fallback to the rounded sizes
    fit = apply_method(name, MEADOW_VOLES, ratio=1.147)
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(fit.estimates["n_a"], abs=1.0)
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(fit.estimates["n_b"], abs=1.0)


def test_study_threads_must_be_a_positive_integer():
    d = design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=5)
    for threads in (0, -1):
        with pytest.raises(DomainError, match="threads must be at least 1"):
            run_study(d, estimators=("LP",), threads=threads)
    for threads in (1.5, True):
        with pytest.raises(DomainError, match="threads must be an integer"):
            run_study(d, estimators=("LP",), threads=threads)


@pytest.mark.parametrize(
    "threads, cpus, reps, expected",
    [(4, 2, 40, [2]), (8, 16, 3, [3]), (3, 16, 40, [3]), (4, None, 40, []), (1, 16, 40, [])],
)
def test_study_caps_worker_processes(monkeypatch, threads, cpus, reps, expected):
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
    d = design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=reps, seed=2)
    parallel = run_study(d, estimators=("LP",), threads=threads)
    assert pools == expected
    assert parallel == run_study(d, estimators=("LP",))


# the module attributes bench/tracing.py wraps for a study's per-layer spans
_TRACED = ("generate_pair", "apply_method", "lincoln_petersen", "nour", "mme_model_i",
           "mme_model_ii")


def test_study_reaches_every_traced_call_site_once_per_replicate_and_method(monkeypatch):
    # a study may draw and refit its replicates by any route, so long as
    # each replicate still passes through these attributes, the tracer reads
    # (method, pair) from apply_method's positional arguments, and the
    # wrapped study returns the same summary
    d = design_from_preset("P3", model="II", n_a=240, n_b=200, alpha=0.4, replicates=300, seed=6)
    methods = ("LP", "NOUR", "MME-I", "MME-II")
    plain = run_study(d, methods)
    calls, dispatched = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "apply_method":
                dispatched.append(args[:2])
            return fn(*args, **kwargs)

        return wrapper

    for name in _TRACED:
        monkeypatch.setattr(sim, name, counted(name, getattr(sim, name)))
    assert run_study(d, methods) == plain
    # LP and NOUR each fit both strata; none of this design's tables makes
    # either fail on stratum A, which would skip stratum B
    reps = d.replicates
    assert calls == {"generate_pair": reps, "apply_method": reps * len(methods),
                     "lincoln_petersen": 2 * reps, "nour": 2 * reps, "mme_model_i": reps,
                     "mme_model_ii": reps}
    assert all(len(args) == 2 and type(args[1]) is StratumPair for args in dispatched)
    assert [args[0] for args in dispatched] == list(methods) * reps
    assert plain.estimators["MME-II"].failures > 0  # the failure path is reached too


@st.composite
def _designs(draw):
    preset = draw(st.sampled_from(sorted(PRESETS)))
    p1dot, pdot1 = PRESETS[preset]
    # p2 = (pdot1 - alpha * p1dot) / (1 - alpha) lies in (0, 1] below this
    bound = min(pdot1 / p1dot, (1.0 - pdot1) / (1.0 - p1dot), 1.0)
    return design_from_preset(
        preset,
        draw(st.sampled_from(("I", "II"))),
        draw(st.integers(20, 300)),
        draw(st.integers(20, 300)),
        draw(st.floats(0.0, 0.95)) * bound,
        replicates=draw(st.integers(100, 300)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _outcome(fn, *args, **kwargs):
    """A call's result as its repr (so NaN equals NaN), or its error's class
    and message."""
    try:
        return repr(fn(*args, **kwargs))
    except DualrecError as e:
        return type(e).__name__, str(e)


@settings(max_examples=8, deadline=None)
@given(design=_designs())
def test_seeded_studies_and_bootstraps_rerun_identically(design):
    # a seeded study is the same serially and over two worker processes, and
    # a seeded bootstrap is the same when rerun
    methods = ("MME-I", "LP", "NOUR") if design.model == "I" else ("MME-II", "MME-I", "LP")
    serial = _outcome(run_study, design, methods)
    assert _outcome(run_study, design, methods, threads=2) == serial
    pair = generate_pair(design, np.random.default_rng(design.seed))
    for method in ("MME-I", "LP"):
        for scheme in ("parametric", "nonparametric"):
            args = (pair, method, scheme, design.replicates, design.seed)
            assert _outcome(bootstrap, *args) == _outcome(bootstrap, *args)
