"""Acceptance checks: the externally checkable claims this package commits to.

Each passing check prints one ``[acceptance] PASS`` line (surfaced by the
``-rP`` report).  Claims that formula-faithful code cannot reproduce are
strict expected failures whose reasons carry the matching
``[acceptance] FAIL (expected)`` line, so every claim shows up exactly once
in the run report either way.
"""

import math

import numpy as np
import pytest

import dualrec.mme
from dualrec.boot import bootstrap
from dualrec.classical import nour, wolter_model1, wolter_model2
from dualrec.core import (
    BbmParams,
    ConditionViolated,
    DivisionByZero,
    DrsTable,
    DualrecError,
    StratumPair,
)
from dualrec.datasets import CHILDREN_DEATH, ENCEPHALITIS, MEADOW_VOLES
from dualrec.mle import FitConfig, profile_objective
from dualrec.mme import (
    delta_method_mean_variance,
    mme_asymptotic_mean_variance,
    mme_model_i,
    mme_model_ii,
)
from dualrec.model import (
    DependenceSign,
    ModelIIParams,
    ModelIParams,
    cell_probabilities,
    loglik_model_i,
    loglik_model_i_grad,
    loglik_model_ii,
    loglik_model_ii_grad,
    marginals_and_covariance,
)
from dualrec.sim import design_from_preset, generate_pair, generate_stratum, run_study


def _pass(line: str) -> None:
    print(f"[acceptance] PASS: {line}")


# ---------------------------------------------------------------------------
# Golden real-data values
# ---------------------------------------------------------------------------


def test_golden_children_death_moment_fit():
    fit = mme_model_i(CHILDREN_DEATH)
    assert fit.estimates["n_a"] == 268.0
    assert fit.estimates["n_b"] == 275.0
    assert 0.069 <= fit.estimates["alpha"] <= 0.071
    _pass(
        "golden values - children-death moment fit gives (268, 275), "
        "dependence in [0.069, 0.071]"
    )


def test_golden_voles_reference_stratum():
    fit = mme_model_i(MEADOW_VOLES)
    assert fit.estimates["n_b"] == 73.0
    _pass("golden values - voles moment fit gives reference-stratum size 73")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "[acceptance] FAIL (expected): golden values - published voles male "
        "size 82 is the round-to-nearest of 81.889; the integer-part "
        "convention that the other golden rows require gives 81"
    ),
)
def test_golden_voles_dependent_stratum_published_value():
    fit = mme_model_i(MEADOW_VOLES)
    assert fit.estimates["n_a"] == 82.0


def test_golden_nour_values_and_refusals():
    assert nour(MEADOW_VOLES.a).estimates["n"] == 86.0
    assert nour(MEADOW_VOLES.b).estimates["n"] == 74.0
    for table in (ENCEPHALITIS.a, ENCEPHALITIS.b, CHILDREN_DEATH.a, CHILDREN_DEATH.b):
        with pytest.raises(ConditionViolated, match=r"x11\^2 > x10\*x01"):
            nour(table)
    _pass(
        "golden values - Nour gives (86, 74) on voles and refuses all four "
        "surveillance strata"
    )


# ---------------------------------------------------------------------------
# Ratio-linked comparators
# ---------------------------------------------------------------------------


def test_ratio_linked_comparators_match_published_within_one():
    w1 = wolter_model1(MEADOW_VOLES, 1.147)
    w2 = wolter_model2(MEADOW_VOLES, 1.147)
    assert abs(w1.estimates["n_a"] - 85.0) <= 1.0
    assert abs(w1.estimates["n_b"] - 74.0) <= 1.0
    assert abs(w2.estimates["n_a"] - 84.0) <= 1.0
    assert abs(w2.estimates["n_b"] - 73.0) <= 1.0
    _pass(
        "ratio comparators - behavioural-response fits at r = 1.147 match "
        "published voles values within +/-1"
    )


# ---------------------------------------------------------------------------
# Moment-estimator replicate study
# ---------------------------------------------------------------------------


def test_moment_study_reproduces_published_row():
    design = design_from_preset(
        "P1", model="I", n_a=240, n_b=200, alpha=0.4, replicates=5000, seed=0
    )
    study = run_study(design, estimators=("MME-I", "NOUR"))
    mme = study.estimators["MME-I"]
    assert abs(mme.mean_n_a - 241.0) <= 2.0
    assert abs(mme.rrmse_n_a - 0.084) <= 0.010
    assert abs(mme.ci_n_a[0] - 204.0) <= 6.0
    assert abs(mme.ci_n_a[1] - 284.0) <= 6.0
    nr = study.estimators["NOUR"]
    assert abs(nr.mean_n_a - 202.0) <= 4.0
    assert abs(nr.rrmse_n_a - 0.161) <= 0.015
    _pass(
        "moment study - 5000-replicate dependent-stratum run reproduces the "
        "published mean/RRMSE/interval rows for the moment and Nour estimators"
    )


# ---------------------------------------------------------------------------
# Likelihood-estimator replicate study
# ---------------------------------------------------------------------------


def test_likelihood_study_reproduces_published_row():
    design = design_from_preset(
        "P1", model="II", n_a=1200, n_b=1000, alpha=0.4, replicates=500, seed=0
    )
    pa, pb = design.params_a(), design.params_b()
    config = FitConfig(
        max_iterations=500,
        objective_tolerance=1e-3,
        parameter_tolerance=10.0,
        start=(design.n_a, design.n_b, design.alpha, pa.p1, pa.p2, pb.p2),
    )
    study = run_study(design, estimators=("MLE-II",), fit_config=config)
    fit = study.estimators["MLE-II"]
    assert abs(fit.mean_n_a - 1201.0) <= 8.0
    assert fit.rrmse_n_a <= 0.02
    assert fit.failures == 0
    _pass(
        "likelihood study - 500-replicate shared-dependence run keeps the "
        "mean size within 1201 +/- 8 at RRMSE <= 0.02 with no failures"
    )


# ---------------------------------------------------------------------------
# Asymptotic moments of the moment estimator
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def moment_estimator_draws():
    rng = np.random.default_rng(77)
    n_a, n_b, p1 = 1200, 1000, 0.6
    cells = cell_probabilities(BbmParams(p1=p1, p2=0.8, alpha=0.0, n=n_b)).as_tuple()
    x1dot_a = rng.binomial(n_a, p1, size=100_000)
    b = rng.multinomial(n_b, cells, size=100_000)
    return x1dot_a * (b[:, 0] + b[:, 2]) / b[:, 0]


def test_moment_estimator_mc_mean_matches_formula(moment_estimator_draws):
    nhat = moment_estimator_draws
    approx = mme_asymptotic_mean_variance(1200.0, 1.2, 0.6, 0.8, 0.32)
    mc_mean = float(nhat.mean())
    mc_se = float(nhat.std(ddof=1) / math.sqrt(len(nhat)))
    assert abs(mc_mean - approx.mean) <= 3.0 * mc_se
    _pass(
        "estimator moments - Monte Carlo mean of the unfloored size estimate "
        f"({mc_mean:.2f}) is within 3 standard errors of the formula "
        f"({approx.mean:.2f})"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "[acceptance] FAIL (expected): estimator moments - the displayed "
        "variance expression understates Monte Carlo dispersion about "
        "four-fold; it omits the squared-expectation factors of the product "
        "decomposition (see delta_method_mean_variance)"
    ),
)
def test_moment_estimator_mc_variance_matches_displayed_formula(
    moment_estimator_draws,
):
    nhat = moment_estimator_draws
    approx = mme_asymptotic_mean_variance(1200.0, 1.2, 0.6, 0.8, 0.32)
    mc_var = float(nhat.var(ddof=1))
    assert abs(mc_var - approx.variance) <= 0.10 * approx.variance


def test_moment_estimator_mc_variance_matches_product_composition(
    moment_estimator_draws,
):
    nhat = moment_estimator_draws
    delta = delta_method_mean_variance(1200.0, 1.2, 0.6, 0.8, 0.32)
    mc_var = float(nhat.var(ddof=1))
    assert abs(mc_var - delta.variance) <= 0.10 * delta.variance
    _pass(
        "estimator moments - Monte Carlo variance of the unfloored size "
        f"estimate ({mc_var:.0f}) is within 10% of the exact product-form "
        f"composition ({delta.variance:.0f})"
    )


# ---------------------------------------------------------------------------
# First-order likelihood peaks at the moment solution
# ---------------------------------------------------------------------------


def _grid_argmax(pair):
    fit = mme_model_i(pair)
    if fit.diagnostics["alpha_clamped"] is not None:
        return None, None
    na = fit.diagnostics["n_a_unrounded"]
    theta = ModelIParams(
        n_a=na,
        n_b=fit.diagnostics["n_b_unrounded"],
        alpha_a=fit.estimates["alpha"],
        p1=fit.estimates["p1"],
        p2a=fit.estimates["p2a"],
        p2b=fit.estimates["p2b"],
    )
    lo = max(pair.a.x0 + 0.5, na - 30.0)
    grid = np.arange(lo, na + 30.0 + 0.25, 0.5)
    profile = profile_objective("I", pair, theta, "n_a", grid, logfac="stirling1")
    best = max(profile, key=lambda point: point[1])[0]
    return best, na


def test_first_order_likelihood_grid_argmax_is_moment_estimate():
    best, na = _grid_argmax(CHILDREN_DEATH)
    assert abs(best - na) <= 0.5
    design = design_from_preset("P1", model="I", n_a=240, n_b=200, alpha=0.4)
    for s in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(1000 + s))
        pair = generate_pair(design, rng)
        best, na = _grid_argmax(pair)
        assert best is not None, f"seeded pair {s} clamped its dependence estimate"
        assert abs(best - na) <= 0.5, f"seeded pair {s}: argmax {best} vs moment {na}"
    _pass(
        "first-order argmax - the first-order-factorial likelihood peaks at "
        "the moment size estimate on children-death and 20 seeded pairs"
    )


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------


def test_property_cell_normalization_and_covariance():
    rng = np.random.default_rng(12345)
    for _ in range(10_000):
        params = BbmParams(
            p1=float(rng.uniform(0.01, 0.99)),
            p2=float(rng.uniform(0.01, 0.99)),
            alpha=float(rng.uniform(0.0, 1.0)),
            n=100.0,
        )
        expected_cov = params.alpha * params.p1 * (1.0 - params.p1)
        for sign, sign_value in (
            (DependenceSign.POSITIVE, 1.0),
            (DependenceSign.NEGATIVE, -1.0),
        ):
            cells = cell_probabilities(params, sign)
            marg = marginals_and_covariance(params, sign)
            assert math.isclose(sum(cells.as_tuple()), 1.0, abs_tol=1e-12)
            assert math.isclose(cells.p11 + cells.p10, marg.p_y, abs_tol=1e-12)
            assert math.isclose(cells.p11 + cells.p01, marg.p_z, abs_tol=1e-12)
            assert math.isclose(
                cells.p11 - marg.p_y * marg.p_z, sign_value * expected_cov, abs_tol=1e-12
            )
            assert math.isclose(marg.cov, sign_value * expected_cov, abs_tol=1e-12)
    _pass(
        "properties - cell normalization and covariance identities hold over "
        "10^4 random parameter draws, both dependence signs"
    )


def test_property_moment_equation_residuals():
    rng = np.random.default_rng(2024)
    checked_i = checked_ii = 0
    for _ in range(500):
        a = DrsTable(*(int(v) for v in rng.integers(5, 120, size=3)))
        b = DrsTable(*(int(v) for v in rng.integers(5, 120, size=3)))
        pair = StratumPair(a, b)
        try:
            fit = mme_model_i(pair)
        except DualrecError:
            fit = None
        if fit is not None and fit.diagnostics["alpha_clamped"] is None:
            e, d = fit.estimates, fit.diagnostics
            for table, n, p2, alpha in (
                (a, d["n_a_unrounded"], e["p2a"], e["alpha"]),
                (b, d["n_b_unrounded"], e["p2b"], 0.0),
            ):
                cells = cell_probabilities(BbmParams(p1=e["p1"], p2=p2, alpha=alpha, n=n))
                expected = np.array(cells.as_tuple()[:3]) * n
                observed = np.array([table.x11, table.x10, table.x01], dtype=float)
                assert np.max(np.abs(expected - observed)) < 1e-8
            checked_i += 1
        try:
            fit = mme_model_ii(pair)
        except DualrecError:
            continue
        e, d = fit.estimates, fit.diagnostics
        for table, n, p2 in (
            (a, d["n_a_unrounded"], e["p2a"]),
            (b, d["n_b_unrounded"], e["p2b"]),
        ):
            cells = cell_probabilities(BbmParams(p1=e["p1"], p2=p2, alpha=e["alpha"], n=n))
            expected = np.array(cells.as_tuple()[:3]) * n
            observed = np.array([table.x11, table.x10, table.x01], dtype=float)
            assert np.max(np.abs(expected - observed)) < 1e-8
        checked_ii += 1
    assert checked_i >= 50
    assert checked_ii >= 20
    _pass(
        "properties - unclamped moment solutions reproduce every observed "
        f"cell to < 1e-8 ({checked_i} dependent-stratum, {checked_ii} "
        "shared-dependence tables)"
    )


def test_property_dependence_estimate_two_forms_agree():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        x11a, x10a, x01a = (int(v) for v in rng.integers(1, 200, size=3))
        x11b, x10b, x01b = (int(v) for v in rng.integers(1, 200, size=3))
        x1dot_a = x11a + x10a
        xdot1_a = x11a + x01a
        xdot1_b = x11b + x01b
        # difference-of-ratios display
        form_one = xdot1_a / x1dot_a - x01a * xdot1_b / (x01b * x1dot_a)
        # single-fraction display
        form_two = (x01b * xdot1_a - x01a * xdot1_b) / (x01b * x1dot_a)
        assert abs(form_one - form_two) < 1e-12
    _pass(
        "properties - the two printed forms of the dependence estimate agree "
        "to < 1e-12 over 10^4 random tables"
    )


def _fd_gradient(fun, args, steps):
    grad = []
    for i, h in enumerate(steps):
        hi = list(args)
        lo = list(args)
        hi[i] += h
        lo[i] -= h
        grad.append((fun(hi) - fun(lo)) / (2.0 * h))
    return grad


def test_property_gradients_match_finite_differences():
    rng = np.random.default_rng(99)
    for model in ("I", "II"):
        for _ in range(100):
            n_a = float(rng.integers(200, 400))
            n_b = float(rng.integers(150, 350))
            alpha = float(rng.uniform(0.05, 0.9))
            p1, p2a, p2b = (float(v) for v in rng.uniform(0.2, 0.8, size=3))
            alpha_b = 0.0 if model == "I" else alpha
            a = generate_stratum(BbmParams(p1=p1, p2=p2a, alpha=alpha, n=n_a), rng=rng)
            b = generate_stratum(BbmParams(p1=p1, p2=p2b, alpha=alpha_b, n=n_b), rng=rng)
            pair = StratumPair(a, b)
            args = [n_a, n_b, alpha, p1, p2a, p2b]
            if model == "I":
                def fun(v):
                    return loglik_model_i(
                        ModelIParams(v[0], v[1], v[2], v[3], v[4], v[5]), pair
                    )

                analytic = loglik_model_i_grad(ModelIParams(*args), pair)
            else:
                def fun(v):
                    return loglik_model_ii(
                        ModelIIParams(v[0], v[1], v[2], v[3], v[4], v[5]), pair
                    )

                analytic = loglik_model_ii_grad(ModelIIParams(*args), pair)
            steps = [1e-4 * n_a, 1e-4 * n_b, 1e-6, 1e-6, 1e-6, 1e-6]
            numeric = _fd_gradient(fun, args, steps)
            for got, want in zip(analytic, numeric):
                assert got == pytest.approx(want, rel=1e-4, abs=1e-4)
    _pass(
        "properties - analytic gradients of both likelihoods match central "
        "differences at 100 random interior points each"
    )


def test_property_seeded_reruns_are_bit_identical():
    design = design_from_preset(
        "P2", model="I", n_a=240, n_b=200, alpha=0.3, replicates=300, seed=17
    )
    assert run_study(design, estimators=("MME-I", "LP")) == run_study(
        design, estimators=("MME-I", "LP")
    )
    first = bootstrap(CHILDREN_DEATH, "MME-I", scheme="parametric", b=100, seed=5)
    second = bootstrap(CHILDREN_DEATH, "MME-I", scheme="parametric", b=100, seed=5)
    assert first == second
    _pass(
        "properties - seeded study and bootstrap reruns are bit-identical"
    )


# ---------------------------------------------------------------------------
# Documented non-reproduction
# ---------------------------------------------------------------------------


def test_documented_discrepancy_encephalitis_row():
    fit = mme_model_i(ENCEPHALITIS)
    assert fit.estimates["n_a"] == 575.0
    assert fit.estimates["alpha"] == 0.0
    assert fit.diagnostics["alpha_clamped"] == "low"
    assert fit.estimates["n_b"] == 171.0
    note = dualrec.mme.__doc__
    for token in ("575", "574", "0.190", "171", "156"):
        assert token in note
    _pass(
        "documented discrepancy - encephalitis formula-faithful values "
        "(575, dependence clamped to 0, 171) assert and the unreproduced "
        "published row (574, 0.190, 156) is documented in the moment module"
    )
