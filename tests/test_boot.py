"""Tests for bootstrap standard errors and percentile intervals."""

import numpy as np
import pytest

from dualrec import boot
from dualrec.boot import bootstrap
from dualrec.core import (
    AllResamplesFailed,
    ConditionViolated,
    DomainError,
    DrsTable,
    DualrecError,
    StratumPair,
    empirical_ci,
)
from dualrec.datasets import CHILDREN_DEATH, ENCEPHALITIS, MEADOW_VOLES
from dualrec.sim import apply_method


def test_parametric_children_moment_se_band():
    res = bootstrap(CHILDREN_DEATH, "MME-I", scheme="parametric", b=1000, seed=0)
    # published standard error 48.12; the resampling scheme behind that
    # number is unstated, so the band is wide
    assert 48.12 * 0.65 <= res.se["n_a"] <= 48.12 * 1.35
    assert res.estimates["n_a"] == 268.0
    assert res.diagnostics["failures"] <= 50
    assert res.diagnostics["scheme"] == "parametric"
    assert res.diagnostics["resamples"] == 1000
    assert res.diagnostics["seed"] == 0
    # interval brackets the point estimate (failure fraction well under 5%)
    lo, hi = res.ci["n_a"]
    assert lo <= res.diagnostics["n_a_unrounded"] <= hi


def test_nonparametric_voles_lp_se_band():
    res = bootstrap(MEADOW_VOLES, "LP", scheme="nonparametric", b=1000, seed=0)
    # published standard error 1.30 for the reference stratum
    assert 1.30 * 0.5 <= res.se["n_b"] <= 1.30 * 1.5
    assert res.diagnostics["failures"] == 0
    lo, hi = res.ci["n_b"]
    assert lo <= res.diagnostics["n_b_unrounded"] <= hi
    lo, hi = res.ci["n_a"]
    assert lo <= res.diagnostics["n_a_unrounded"] <= hi


def test_degenerate_table_gives_zero_se():
    # fully-overlapping lists leave nothing to resample: every parametric
    # resample reproduces the observed table exactly
    pair = StratumPair(DrsTable(5, 0, 0), DrsTable(7, 0, 0))
    res = bootstrap(pair, "LP", scheme="parametric", b=2, seed=0)
    assert res.se["n_a"] == 0.0
    assert res.se["n_b"] == 0.0
    assert res.ci["n_a"] == (5.0, 5.0)


def test_bootstrap_reruns_bit_identically():
    # each call draws its own resamples: the cached nonparametric draw is
    # cleared before it, so the second call does not refit the first's array
    draws = boot._nonparametric_counts
    draws.cache_clear()
    a = bootstrap(MEADOW_VOLES, "LP", scheme="nonparametric", b=100, seed=42)
    assert draws.cache_info().currsize == 1
    draws.cache_clear()
    b = bootstrap(MEADOW_VOLES, "LP", scheme="nonparametric", b=100, seed=42)
    assert draws.cache_info()[:2] == (0, 1)  # (hits, misses): drawn again
    assert a == b


def test_bootstrap_seed_changes_draws():
    a = bootstrap(MEADOW_VOLES, "LP", scheme="nonparametric", b=100, seed=1)
    b = bootstrap(MEADOW_VOLES, "LP", scheme="nonparametric", b=100, seed=2)
    assert a.se["n_a"] != b.se["n_a"]


def test_bootstrap_dependence_estimate_gets_uncertainty():
    res = bootstrap(CHILDREN_DEATH, "MME-I", scheme="parametric", b=200, seed=0)
    assert "alpha" in res.se
    assert res.se["alpha"] > 0.0
    assert "alpha" in res.ci


def test_ratio_linked_method_resamples():
    res = bootstrap(MEADOW_VOLES, "WOLTER-1", scheme="parametric", b=50, seed=0, ratio=1.147)
    assert res.estimates["n_a"] == 84.0
    assert res.diagnostics["failures"] < 50
    assert res.se["n_a"] > 0.0


def test_all_resamples_failed():
    # the Model II moment solution is feasible on the observed voles pair but
    # collapses on resamples drawn from its own fit
    with pytest.raises(AllResamplesFailed):
        bootstrap(MEADOW_VOLES, "MME-II", scheme="parametric", b=3, seed=0)


def test_one_successful_resample_is_too_few():
    # one of the two resamples fails, which leaves no standard error: the
    # bootstrap raises rather than report se = NaN
    pair = StratumPair(DrsTable(3, 2, 1), DrsTable(2, 1, 2))
    with pytest.raises(AllResamplesFailed, match="failed on 1 of 2 resamples"):
        bootstrap(pair, "LP", b=2, seed=5)


def test_failed_resamples_are_excluded_from_se_and_ci():
    # many nonparametric resamples of the voles pair have no feasible Model II
    # moment solution; the rest must give the standard error and interval
    b, seed = 200, 0
    draws = {"n_a": [], "n_b": [], "alpha": []}
    failures = 0
    for stream in np.random.SeedSequence(seed).spawn(b):
        rng = np.random.default_rng(stream)
        tables = []
        for t in (MEADOW_VOLES.a, MEADOW_VOLES.b):
            x11, x10, x01 = rng.multinomial(t.x0, (t.x11 / t.x0, t.x10 / t.x0, t.x01 / t.x0))
            tables.append(DrsTable(int(x11), int(x10), int(x01)))
        try:
            fit = apply_method("MME-II", StratumPair(*tables))
        except DualrecError:
            failures += 1
            continue
        draws["n_a"].append(fit.diagnostics["n_a_unrounded"])
        draws["n_b"].append(fit.diagnostics["n_b_unrounded"])
        draws["alpha"].append(fit.estimates["alpha"])
    assert 0 < failures < b

    res = bootstrap(MEADOW_VOLES, "MME-II", scheme="nonparametric", b=b, seed=seed)
    assert res.diagnostics["failures"] == failures
    for k, values in draws.items():
        assert res.se[k] == float(np.std(values, ddof=1))
        assert res.ci[k] == empirical_ci(values)


def _hand_parametric_bootstrap(method, gens, b, seed, keys):
    """se and ci over the ``keys`` of ``method`` refitted on pairs drawn A then
    B, each by one multinomial over its ``(cells, size)``, from the child
    streams of ``seed``; failed refits are left out."""
    values = {k: [] for k in keys}
    for stream in np.random.SeedSequence(seed).spawn(b):
        rng = np.random.default_rng(stream)
        tables = []
        for cells, size in gens:
            x11, x10, x01, _ = rng.multinomial(size, cells)
            tables.append(DrsTable(int(x11), int(x10), int(x01)))
        try:
            fit = apply_method(method, StratumPair(*tables))
        except DualrecError:
            continue
        for k in keys:
            values[k].append(
                fit.estimates[k] if k == "alpha" else fit.diagnostics[f"{k}_unrounded"]
            )
    se = {k: float(np.std(v, ddof=1)) for k, v in values.items()}
    ci = {k: empirical_ci(v) for k, v in values.items()}
    return se, ci


def test_parametric_resamples_follow_the_fitted_model():
    b, seed = 300, 5
    # Model I moment fit: stratum A dependent, stratum B with independent lists
    point = apply_method("MME-I", CHILDREN_DEATH)
    e, d = point.estimates, point.diagnostics
    p1, p2a, p2b, a = e["p1"], e["p2a"], e["p2b"], e["alpha"]
    cells_a = (
        a * p1 + (1.0 - a) * p1 * p2a,
        (1.0 - a) * p1 * (1.0 - p2a),
        (1.0 - a) * (1.0 - p1) * p2a,
        a * (1.0 - p1) + (1.0 - a) * (1.0 - p1) * (1.0 - p2a),
    )
    cells_b = (p1 * p2b, p1 * (1.0 - p2b), (1.0 - p1) * p2b, (1.0 - p1) * (1.0 - p2b))
    gens = ((cells_a, round(d["n_a_unrounded"])), (cells_b, round(d["n_b_unrounded"])))
    se, ci = _hand_parametric_bootstrap("MME-I", gens, b, seed, ("n_a", "n_b", "alpha"))
    res = bootstrap(CHILDREN_DEATH, "MME-I", scheme="parametric", b=b, seed=seed)
    assert res.se == se
    assert res.ci == ci

    # a classical method: each stratum with independent lists, at its fitted
    # size and observed list totals
    point = apply_method("LP", MEADOW_VOLES)
    gens = []
    for t, k in ((MEADOW_VOLES.a, "n_a"), (MEADOW_VOLES.b, "n_b")):
        n = max(round(point.diagnostics[f"{k}_unrounded"]), t.x0)
        q1, q2 = (t.x11 + t.x10) / n, (t.x11 + t.x01) / n
        gens.append(((q1 * q2, q1 * (1.0 - q2), (1.0 - q1) * q2, (1.0 - q1) * (1.0 - q2)), n))
    se, ci = _hand_parametric_bootstrap("LP", gens, b, seed, ("n_a", "n_b"))
    res = bootstrap(MEADOW_VOLES, "LP", scheme="parametric", b=b, seed=seed)
    assert res.se == se
    assert res.ci == ci


def test_parametric_size_past_int64_is_refused():
    # LP sizes stratum A at 1.6e19, more than the multinomial can draw; the
    # classical branch refuses it as the model branch's BbmParams does
    pair = StratumPair(DrsTable(1, 4 * 10**9, 4 * 10**9), DrsTable(5, 3, 2))
    with pytest.raises(DomainError, match=r"^n must be positive and below 2\*\*63"):
        bootstrap(pair, "LP", b=5)


@pytest.mark.parametrize("method", ["LP", "NOUR", "MME-I", "MLE-I"])
def test_nonparametric_stratum_of_2_63_individuals_is_refused(method):
    # each cell is below 2**63, as DrsTable allows, but stratum A's x0 is
    # not, and the multinomial draw takes it as an int64
    pair = StratumPair(DrsTable(2**63 - 1, 2**63 - 1, 1), DrsTable(5, 3, 2))
    with pytest.raises(DomainError, match=r"^stratum A's x0 must be below 2\*\*63"):
        bootstrap(pair, method, scheme="nonparametric", b=3)


def test_point_estimate_preconditions_propagate():
    with pytest.raises(ConditionViolated):
        bootstrap(ENCEPHALITIS, "NOUR", scheme="parametric", b=10, seed=0)


@pytest.mark.parametrize("method", ["MLE-I", "MME-I"])
def test_bootstrap_refuses_a_fit_config_that_is_not_one(method):
    with pytest.raises(DomainError, match="^fit_config must be a FitConfig or None, got 'x'$"):
        bootstrap(MEADOW_VOLES, method, b=10, seed=0, fit_config="x")


def test_bootstrap_argument_validation():
    with pytest.raises(DomainError):
        bootstrap(MEADOW_VOLES, "LP", scheme="jackknife", b=10, seed=0)
    with pytest.raises(DomainError):
        bootstrap(MEADOW_VOLES, "LP", scheme="parametric", b=1, seed=0)
    with pytest.raises(DomainError):
        bootstrap(MEADOW_VOLES, "LP", scheme="parametric", b=10, seed=-1)
    with pytest.raises(DomainError, match="b must be an integer"):
        bootstrap(MEADOW_VOLES, "LP", scheme="parametric", b=2.5, seed=0)
    with pytest.raises(DomainError, match="seed must be an integer"):
        bootstrap(MEADOW_VOLES, "LP", scheme="parametric", b=10, seed=1.5)
    with pytest.raises(DomainError, match="seed must be an integer, got True"):
        bootstrap(MEADOW_VOLES, "LP", b=10, seed=True)
    with pytest.raises(DomainError, match="b must be an integer, got True"):
        bootstrap(MEADOW_VOLES, "LP", b=True, seed=0)
    with pytest.raises(DomainError, match="^b must be at least 2, got 1$"):
        bootstrap(MEADOW_VOLES, "LP", b=1, seed=0)
    with pytest.raises(DomainError, match="^seed must be at least 0, got -1$"):
        bootstrap(MEADOW_VOLES, "LP", b=10, seed=-1)
