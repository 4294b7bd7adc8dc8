"""Tests for the likelihood fits of both two-stratum models."""

import numpy as np
import pytest

from dualrec.core import DomainError, DrsTable, InfeasibleN, StratumPair
from dualrec.datasets import CHILDREN_DEATH, ENCEPHALITIS, MEADOW_VOLES
from dualrec.mle import FitConfig, mle_model_i, mle_model_ii, profile_objective
from dualrec.mme import mme_model_i, mme_model_ii
from dualrec.model import (
    ModelIIParams,
    ModelIParams,
    loglik_model_i,
    loglik_model_ii,
)
import dualrec.sim as sim


def test_model_i_children_death_golden():
    fit = mle_model_i(CHILDREN_DEATH)
    assert abs(fit.estimates["n_a"] - 269) <= 1
    assert abs(fit.estimates["n_b"] - 275) <= 1
    assert fit.estimates["alpha"] == pytest.approx(0.070, abs=0.01)
    assert fit.diagnostics["converged"] is True
    assert fit.diagnostics["grad_norm"] <= 1e-3
    assert fit.diagnostics["logfac"] == "stirling1"


def test_model_i_children_death_tracks_moment_solution():
    # under the default first-order objective the fitted sizes sit on the
    # moment solution
    fit = mle_model_i(CHILDREN_DEATH)
    mm = mme_model_i(CHILDREN_DEATH)
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(
        mm.diagnostics["n_a_unrounded"], abs=1e-2
    )
    assert fit.estimates["alpha"] == pytest.approx(mm.estimates["alpha"], abs=1e-3)


def test_model_i_children_death_exact_objective():
    fit = mle_model_i(CHILDREN_DEATH, FitConfig(logfac="exact"))
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(254.32, abs=0.05)
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(262.46, abs=0.05)
    assert fit.estimates["alpha"] == pytest.approx(0.0518, abs=0.002)


def test_model_ii_voles_matches_moment_solution():
    fit = mle_model_ii(MEADOW_VOLES)
    mm = mme_model_ii(MEADOW_VOLES)
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(
        mm.diagnostics["n_a_unrounded"], abs=1e-2
    )
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(
        mm.diagnostics["n_b_unrounded"], abs=1e-2
    )
    assert fit.estimates["alpha"] == pytest.approx(mm.estimates["alpha"], abs=1e-3)
    assert fit.diagnostics["grad_norm"] <= 1e-3


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published reference point (85, 75, alpha 0.108) is not a stationary "
        "point of either likelihood mode on this data; both objectives are "
        "strictly higher at the moment solution (82.2, 73.5, alpha 0.019)"
    ),
)
def test_model_ii_voles_published_reference_point():
    fit = mle_model_ii(MEADOW_VOLES)
    assert abs(fit.estimates["n_a"] - 85) <= 2
    assert abs(fit.estimates["n_b"] - 75) <= 2
    assert fit.estimates["alpha"] == pytest.approx(0.108, abs=0.03)


def test_known_ratio_holds_exactly():
    fit = mle_model_i(MEADOW_VOLES, FitConfig(known_ratio=1.2))
    d = fit.diagnostics
    assert d["n_a_unrounded"] / d["n_b_unrounded"] == pytest.approx(1.2, rel=1e-12)
    fit = mle_model_ii(MEADOW_VOLES, FitConfig(known_ratio=1.147))
    d = fit.diagnostics
    assert d["n_a_unrounded"] / d["n_b_unrounded"] == pytest.approx(1.147, rel=1e-12)


def test_model_i_reduces_to_independence_at_alpha_zero():
    # expected-count tables generated with no dependence
    pair = StratumPair(DrsTable(600, 600, 400), DrsTable(630, 270, 420))
    fit = mle_model_i(pair)
    assert fit.estimates["alpha"] < 0.02
    lp_a = pair.a.x1dot * pair.a.xdot1 / pair.a.x11
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(lp_a, rel=0.01)


def test_model_ii_forward_oracle_recovers_parameters():
    # expected cells at p1=0.6, alpha0=0.4, p2a=0.8, p2b=0.55, sizes 12000/10000
    pair = StratumPair(DrsTable(6336, 864, 2304), DrsTable(4380, 1620, 1320))
    fit = mle_model_ii(pair)
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(12000.0, rel=1e-2)
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(10000.0, rel=1e-2)
    assert fit.estimates["p1"] == pytest.approx(0.6, rel=1e-2)
    assert fit.estimates["alpha"] == pytest.approx(0.4, rel=1e-2)
    assert fit.estimates["p2a"] == pytest.approx(0.8, rel=1e-2)
    assert fit.estimates["p2b"] == pytest.approx(0.55, rel=1e-2)


def test_fit_never_worse_than_supplied_start():
    start = (300.0, 250.0, 0.3, 0.5, 0.6, 0.7)
    cfg = FitConfig(start=start)
    fit = mle_model_i(MEADOW_VOLES, cfg)
    at_start = loglik_model_i(
        ModelIParams(*start), MEADOW_VOLES, logfac=cfg.logfac
    )
    assert fit.diagnostics["objective"] >= at_start - 1e-9

    fit = mle_model_ii(MEADOW_VOLES, cfg)
    at_start = loglik_model_ii(
        ModelIIParams(*start), MEADOW_VOLES, logfac=cfg.logfac
    )
    assert fit.diagnostics["objective"] >= at_start - 1e-9


def test_fit_never_worse_than_default_moment_start():
    fit = mle_model_i(CHILDREN_DEATH)
    mm = mme_model_i(CHILDREN_DEATH)
    theta = ModelIParams(
        n_a=mm.diagnostics["n_a_unrounded"],
        n_b=mm.diagnostics["n_b_unrounded"],
        alpha_a=mm.estimates["alpha"],
        p1=mm.estimates["p1"],
        p2a=mm.estimates["p2a"],
        p2b=mm.estimates["p2b"],
    )
    assert fit.diagnostics["objective"] >= loglik_model_i(
        theta, CHILDREN_DEATH, logfac="stirling1"
    ) - 1e-9


def test_unconverged_fit_is_flagged():
    fit = mle_model_i(
        MEADOW_VOLES, FitConfig(max_iterations=2, multistart=1, polish=False)
    )
    assert fit.diagnostics["converged"] is False


@pytest.mark.parametrize("pair", [CHILDREN_DEATH, ENCEPHALITIS, MEADOW_VOLES])
def test_explicit_moment_start_matches_default_start(pair):
    # the default Model I start is the moment solution, moved to the interior
    # the same way as an explicit start
    mm = mme_model_i(pair)
    e, d = mm.estimates, mm.diagnostics
    start = (d["n_a_unrounded"], d["n_b_unrounded"], e["alpha"], e["p1"], e["p2a"], e["p2b"])
    assert mle_model_i(pair, FitConfig(start=start)) == mle_model_i(pair)


def test_seed_swap_leaves_fit_invariant():
    for pair in (CHILDREN_DEATH, MEADOW_VOLES, ENCEPHALITIS):
        a = mle_model_i(pair, FitConfig(multistart=5, seed=0))
        b = mle_model_i(pair, FitConfig(multistart=5, seed=99))
        assert abs(a.diagnostics["objective"] - b.diagnostics["objective"]) <= 1e-6
        a = mle_model_ii(pair, FitConfig(multistart=5, seed=0))
        b = mle_model_ii(pair, FitConfig(multistart=5, seed=99))
        assert abs(a.diagnostics["objective"] - b.diagnostics["objective"]) <= 1e-6


def test_config_validation():
    with pytest.raises(DomainError):
        mle_model_i(MEADOW_VOLES, FitConfig(logfac="stirling3"))
    with pytest.raises(DomainError):
        mle_model_i(MEADOW_VOLES, FitConfig(known_ratio=-1.0))
    for ratio in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            mle_model_i(MEADOW_VOLES, FitConfig(known_ratio=ratio))
    with pytest.raises(DomainError):
        mle_model_i(MEADOW_VOLES, FitConfig(start=(100.0, 100.0, 0.3)))
    with pytest.raises(DomainError):
        mle_model_i(MEADOW_VOLES, FitConfig(seed=-1))
    with pytest.raises(DomainError):
        mle_model_i(
            MEADOW_VOLES,
            FitConfig(start=(float("nan"), 100.0, 0.3, 0.5, 0.5, 0.5)),
        )


@pytest.mark.parametrize(
    "a,b",
    [
        ((690693, 28640, 269061), (480494, 119741, 319145)),
        ((690762, 28865, 268184), (480616, 120373, 319639)),
    ],
)
def test_large_table_fit_converges_at_float_spacing(a, b):
    # Model I draws at n_b = 10^6: the objective is ~2e7, where doubles are
    # 3.7e-9 apart, so an unfloored 1e-9 simplex tolerance is met only by
    # seven bit-equal values and both fits would report non-convergence
    pair = StratumPair(DrsTable(*a), DrsTable(*b))
    fit = mle_model_i(pair)
    assert fit.diagnostics["converged"] is True
    mme = mme_model_i(pair).diagnostics["n_a_unrounded"]
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(mme, rel=1e-6)


def test_infeasible_start_is_clamped_to_feasibility():
    # sizes below the observed counts are lifted rather than rejected
    fit = mle_model_i(
        MEADOW_VOLES, FitConfig(start=(10.0, 10.0, 0.3, 0.5, 0.5, 0.5))
    )
    assert fit.diagnostics["n_a_unrounded"] >= MEADOW_VOLES.a.x0


def test_profile_slice_peaks_at_fitted_size():
    fit = mle_model_i(CHILDREN_DEATH)
    d, e = fit.diagnostics, fit.estimates
    theta = ModelIParams(
        n_a=d["n_a_unrounded"],
        n_b=d["n_b_unrounded"],
        alpha_a=e["alpha"],
        p1=e["p1"],
        p2a=e["p2a"],
        p2b=e["p2b"],
    )
    grid = [d["n_a_unrounded"] - 10.0, d["n_a_unrounded"], d["n_a_unrounded"] + 10.0]
    prof = profile_objective("I", CHILDREN_DEATH, theta, "n_a", grid, logfac="stirling1")
    values = [ll for _, ll in prof]
    assert values[1] >= max(values[0], values[2])


def test_profile_grid_argmax_matches_moment_size():
    mm = mme_model_i(CHILDREN_DEATH)
    e, d = mm.estimates, mm.diagnostics
    na = d["n_a_unrounded"]
    theta = ModelIParams(
        n_a=na,
        n_b=d["n_b_unrounded"],
        alpha_a=e["alpha"],
        p1=e["p1"],
        p2a=e["p2a"],
        p2b=e["p2b"],
    )
    grid = np.arange(na - 30.0, na + 30.0 + 0.25, 0.5)
    prof = profile_objective("I", CHILDREN_DEATH, theta, "n_a", grid, logfac="stirling1")
    best = max(prof, key=lambda t: t[1])[0]
    assert abs(best - na) <= 0.5


def test_profile_edge_cases():
    theta = ModelIParams(n_a=300, n_b=300, alpha_a=0.2, p1=0.5, p2a=0.5, p2b=0.5)
    assert profile_objective("I", MEADOW_VOLES, theta, "n_a", []) == []
    with pytest.raises(DomainError):
        profile_objective("I", MEADOW_VOLES, theta, "alpha0", [300.0])
    with pytest.raises(DomainError):
        profile_objective("III", MEADOW_VOLES, theta, "n_a", [300.0])
    with pytest.raises(InfeasibleN):
        profile_objective("I", MEADOW_VOLES, theta, "n_a", [10.0])
    for size in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            profile_objective("I", MEADOW_VOLES, theta, "n_a", [size])


def test_model_ii_replicate_band_with_local_start():
    design = sim.design_from_preset(
        "P1", model="II", n_a=1200, n_b=1000, alpha=0.4, replicates=100, seed=0
    )
    pa, pb = design.params_a(), design.params_b()
    cfg = FitConfig(
        multistart=1,
        max_iterations=500,
        objective_tolerance=1e-3,
        parameter_tolerance=10.0,
        polish=False,
        start=(design.n_a, design.n_b, design.alpha, pa.p1, pa.p2, pb.p2),
    )
    study = sim.run_study(design, estimators=("MLE-II",), fit_config=cfg)
    st = study.estimators["MLE-II"]
    assert 1180.0 <= st.mean_n_a <= 1220.0
    assert st.rrmse_n_a <= 0.02


def test_model_i_replicate_mean_band():
    design = sim.design_from_preset(
        "P1", model="I", n_a=1200, n_b=1000, alpha=0.4, replicates=200, seed=0
    )
    study = sim.run_study(design, estimators=("MLE-I",))
    st = study.estimators["MLE-I"]
    assert 1180.0 <= st.mean_n_a <= 1290.0
    assert st.failures <= 10
