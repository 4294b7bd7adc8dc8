"""Tests for the closed-form moment estimators and their asymptotic moments."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dualrec.mme
from dualrec.core import (
    DivisionByZero,
    DomainError,
    DrsTable,
    DualrecError,
    Infeasible,
    StratumPair,
)
from dualrec.datasets import CHILDREN_DEATH, ENCEPHALITIS, MEADOW_VOLES
from dualrec.mme import (
    delta_method_mean_variance,
    mme_asymptotic_mean_variance,
    mme_model_i,
    mme_model_ii,
)
from dualrec.model import BbmParams, cell_probabilities


def test_model_i_children_death_values():
    fit = mme_model_i(CHILDREN_DEATH)
    assert fit.estimates["n_a"] == 268.0
    assert fit.estimates["n_b"] == 275.0
    assert 0.069 <= fit.estimates["alpha"] <= 0.071
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(268.4, abs=1e-9)
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(4136.0 / 15.0, abs=1e-9)
    assert fit.diagnostics["alpha_clamped"] is None
    assert fit.estimates["p1"] == pytest.approx(15.0 / 22.0, abs=1e-12)
    assert fit.estimates["p2b"] == pytest.approx(15.0 / 188.0, abs=1e-12)


def test_model_i_voles_values():
    fit = mme_model_i(MEADOW_VOLES)
    assert fit.estimates["n_a"] == 81.0  # integer part of 81.889
    assert fit.estimates["n_b"] == 73.0
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(4422.0 / 54.0, abs=1e-9)
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(3953.0 / 54.0, abs=1e-9)
    assert fit.estimates["alpha"] == pytest.approx(0.004662, abs=1e-6)


def test_model_i_encephalitis_clamps_low_and_recomputes_p2a():
    fit = mme_model_i(ENCEPHALITIS)
    assert fit.estimates["n_a"] == 575.0  # integer part of 575.75
    assert fit.estimates["n_b"] == 171.0
    assert fit.estimates["alpha"] == 0.0
    assert fit.diagnostics["alpha_clamped"] == "low"
    assert fit.diagnostics["alpha_unclamped"] < 0.0
    # with the clamp in force, p2a is recomputed to keep the moment product
    assert fit.estimates["p2a"] == pytest.approx(39 * 20 / (15 * 329), abs=1e-12)
    assert fit.diagnostics["p2a_unclamped"] == pytest.approx(780.0 / 5130.0, abs=1e-12)


def test_model_i_identical_strata_reduce_to_independence():
    t = DrsTable(46, 20, 11)
    fit = mme_model_i(StratumPair(t, t))
    assert fit.estimates["alpha"] == pytest.approx(0.0, abs=1e-12)
    # n_a collapses to the two-list classic of the shared table
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(66 * 57 / 46, abs=1e-9)


def test_model_i_recovers_exact_expected_counts():
    # tables built from exact expected cells at known parameters
    a = DrsTable(19500, 10500, 7000)  # n_a=50000, p1=0.6, alpha=0.3, p2a=0.5
    b = DrsTable(16800, 7200, 11200)  # n_b=40000, p1=0.6, alpha=0,   p2b=0.7
    fit = mme_model_i(StratumPair(a, b))
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(50000.0, rel=1e-12)
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(40000.0, rel=1e-12)
    assert fit.estimates["p1"] == pytest.approx(0.6, abs=1e-12)
    assert fit.estimates["alpha"] == pytest.approx(0.3, abs=1e-12)
    assert fit.estimates["p2a"] == pytest.approx(0.5, abs=1e-12)
    assert fit.estimates["p2b"] == pytest.approx(0.7, abs=1e-12)


def _expected_cells_i(fit, pair):
    e, d = fit.estimates, fit.diagnostics
    cells_a = cell_probabilities(
        BbmParams(p1=e["p1"], p2=e["p2a"], alpha=e["alpha"], n=d["n_a_unrounded"])
    )
    cells_b = cell_probabilities(
        BbmParams(p1=e["p1"], p2=e["p2b"], alpha=0.0, n=d["n_b_unrounded"])
    )
    return (
        np.array(cells_a.as_tuple()[:3]) * d["n_a_unrounded"],
        np.array(cells_b.as_tuple()[:3]) * d["n_b_unrounded"],
    )


@pytest.mark.parametrize("pair", [CHILDREN_DEATH, MEADOW_VOLES])
def test_model_i_moment_residuals_vanish_when_unclamped(pair):
    fit = mme_model_i(pair)
    assert fit.diagnostics["alpha_clamped"] is None
    exp_a, exp_b = _expected_cells_i(fit, pair)
    obs_a = np.array([pair.a.x11, pair.a.x10, pair.a.x01], dtype=float)
    obs_b = np.array([pair.b.x11, pair.b.x10, pair.b.x01], dtype=float)
    assert np.max(np.abs(exp_a - obs_a)) < 1e-8
    assert np.max(np.abs(exp_b - obs_b)) < 1e-8


def test_model_i_division_by_zero_cases():
    with pytest.raises(DivisionByZero):
        mme_model_i(StratumPair(DrsTable(5, 4, 3), DrsTable(0, 4, 3)))  # x11B = 0
    with pytest.raises(DivisionByZero):
        mme_model_i(StratumPair(DrsTable(5, 4, 3), DrsTable(5, 4, 0)))  # x01B = 0
    with pytest.raises(DivisionByZero):
        mme_model_i(StratumPair(DrsTable(0, 0, 3), DrsTable(5, 4, 3)))  # x1dotA = 0
    with pytest.raises(DivisionByZero, match=r"x10A\*x01B \+ x01A\*x11B is zero"):
        mme_model_i(StratumPair(DrsTable(5, 0, 0), DrsTable(8, 6, 9)))


def _moments_outcome(solve, counts):
    """``solve(counts)``'s float.hex-exact values as ``(n_a, n_b, alpha, p1,
    p2a, p2b, alpha_unclamped, p2a_unclamped, clamped)``, or its error."""
    try:
        natural, clamped, alpha_raw, p2a_raw = solve(counts)
    except DualrecError as e:
        return type(e), str(e)
    return (*(float.hex(v) for v in (*natural, alpha_raw, p2a_raw)), clamped)


def _via_mme_model_i(counts):
    fit = mme_model_i(StratumPair(DrsTable(*counts[:3]), DrsTable(*counts[3:])))
    e, d = fit.estimates, fit.diagnostics
    natural = (d["n_a_unrounded"], d["n_b_unrounded"], e["alpha"], e["p1"], e["p2a"], e["p2b"])
    return natural, d["alpha_clamped"], d["alpha_unclamped"], d["p2a_unclamped"]


# tables that reach each outcome: interior, alpha clamped low (encephalitis)
# and high, and each division by zero.  Alpha's exact value is at most 1, so
# only rounding lifts it past 1, which needs counts far past 10**6
_CLAMPED = {
    (46, 20, 11, 54, 5, 13): None,
    (39, 290, 39, 20, 78, 15): "low",
    (2344292163667771358, 0, 2798385421330477985, 1, 3989199911753110843, 1189125638686188299): "high",
}
_NO_SOLUTION = ((5, 4, 3, 0, 4, 3), (5, 4, 3, 5, 4, 0), (0, 0, 3, 5, 4, 3), (5, 0, 0, 8, 6, 9))


def _with_each_outcome(test):
    for counts in (*_CLAMPED, *_NO_SOLUTION):
        test = example(counts=counts)(test)
    return test


@_with_each_outcome
@given(counts=st.tuples(*[st.integers(0, 10**6)] * 6))
@settings(max_examples=300, deadline=None)
def test_model_i_moment_helper_matches_mme_model_i_to_the_bit(counts):
    # the helper takes the counts of a checked pair, so neither table is empty
    assume(sum(counts[:3]) > 0 and sum(counts[3:]) > 0)
    helper = _moments_outcome(lambda c: dualrec.mme._model_i_moments(*c), counts)
    assert helper == _moments_outcome(_via_mme_model_i, counts)


def test_model_i_moment_helper_examples_reach_every_outcome():
    for counts, clamped in _CLAMPED.items():
        assert dualrec.mme._model_i_moments(*counts)[1] == clamped
    messages = set()
    for counts in _NO_SOLUTION:
        with pytest.raises(DivisionByZero) as e:
            dualrec.mme._model_i_moments(*counts)
        messages.add(str(e.value))
    assert len(messages) == 4


def test_model_ii_voles_values():
    fit = mme_model_ii(MEADOW_VOLES)
    assert fit.estimates["n_a"] == 82.0
    assert fit.estimates["n_b"] == 73.0
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(82.2282, abs=5e-4)
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(73.5071, abs=5e-4)
    assert fit.estimates["alpha"] == pytest.approx(0.019138, abs=1e-5)
    assert fit.estimates["p2a"] == pytest.approx(0.691057, abs=1e-5)
    assert fit.estimates["p2b"] == pytest.approx(0.913601, abs=1e-5)
    assert fit.diagnostics["recommended"] is False


def test_model_ii_recovers_exact_expected_counts():
    # expected cells at p1=0.6, alpha0=0.4, p2a=0.8, p2b=0.55, sizes 12000/10000
    pair = StratumPair(DrsTable(6336, 864, 2304), DrsTable(4380, 1620, 1320))
    fit = mme_model_ii(pair)
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(12000.0, rel=2e-2)
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(10000.0, rel=2e-2)
    assert fit.estimates["p1"] == pytest.approx(0.6, rel=2e-2)
    assert fit.estimates["alpha"] == pytest.approx(0.4, rel=2e-2)
    assert fit.estimates["p2a"] == pytest.approx(0.8, rel=2e-2)
    assert fit.estimates["p2b"] == pytest.approx(0.55, rel=2e-2)
    # the expected-count tables are exact, so recovery is in fact exact
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(12000.0, rel=1e-12)


def test_model_ii_reproduces_all_observed_cells():
    fit = mme_model_ii(MEADOW_VOLES)
    e, d = fit.estimates, fit.diagnostics
    for table, n, p2 in (
        (MEADOW_VOLES.a, d["n_a_unrounded"], e["p2a"]),
        (MEADOW_VOLES.b, d["n_b_unrounded"], e["p2b"]),
    ):
        cells = cell_probabilities(
            BbmParams(p1=e["p1"], p2=p2, alpha=e["alpha"], n=n)
        )
        expected = np.array(cells.as_tuple()[:3]) * n
        observed = np.array([table.x11, table.x10, table.x01], dtype=float)
        assert np.max(np.abs(expected - observed)) < 1e-8


def test_model_ii_degenerate_and_infeasible_cases():
    t = DrsTable(46, 20, 11)
    with pytest.raises(DivisionByZero):
        mme_model_ii(StratumPair(t, t))  # x01A*x10B == x10A*x01B
    # children-death data drives the shared dependence estimate negative
    with pytest.raises(Infeasible) as err:
        mme_model_ii(CHILDREN_DEATH)
    assert "alpha0" in str(err.value)
    with pytest.raises(DivisionByZero, match="required margin"):
        mme_model_ii(StratumPair(DrsTable(0, 0, 1), DrsTable(8, 6, 9)))  # x1dotA == 0
    with pytest.raises(Infeasible, match="p2b"):
        mme_model_ii(StratumPair(DrsTable(8, 6, 5), DrsTable(2, 3, 0)))  # x01B == 0


def test_model_ii_infeasible_on_sampled_small_population():
    # a single multinomial draw at a small dependent design lands the
    # closed-form solution outside its domain
    import dualrec.sim as sim

    design = sim.design_from_preset("P5", model="II", n_a=240, n_b=200, alpha=0.4)
    rng = np.random.default_rng(np.random.SeedSequence(1))
    pair = sim.generate_pair(design, rng)
    with pytest.raises(Infeasible):
        mme_model_ii(pair)


def test_asymptotic_moments_worked_example():
    m = mme_asymptotic_mean_variance(n_a=1200, r=1.2, p1=0.6, p_dot1b=0.8, p01b=0.32)
    assert m.mean == pytest.approx(1201.0, abs=1e-9)
    assert m.variance == pytest.approx(482.0 + 2.0 / 3.0, abs=1e-9)
    assert m.ratio_r == 1.2


def test_asymptotic_moments_limits():
    # vanishing-reference-noise limit: r -> 0 leaves only the direct terms
    m = mme_asymptotic_mean_variance(n_a=1200, r=1e-12, p1=0.6, p_dot1b=0.8, p01b=0.32)
    assert m.mean == pytest.approx(1200.0, abs=1e-6)
    assert m.variance == pytest.approx(1200.0 * 0.4, abs=1e-6)
    # p1 -> 1 limit of the variance expression
    m = mme_asymptotic_mean_variance(
        n_a=1200, r=1.2, p1=1.0 - 1e-9, p_dot1b=0.8, p01b=0.32
    )
    assert m.variance == pytest.approx(1.2 * 0.32 * 2.0 / 0.64, abs=1e-4)


def test_asymptotic_moments_domain_checks():
    with pytest.raises(DomainError):
        mme_asymptotic_mean_variance(n_a=-5, r=1.2, p1=0.6, p_dot1b=0.8, p01b=0.32)
    with pytest.raises(DomainError):
        mme_asymptotic_mean_variance(n_a=1200, r=0.0, p1=0.6, p_dot1b=0.8, p01b=0.32)
    with pytest.raises(DomainError):
        mme_asymptotic_mean_variance(n_a=1200, r=1.2, p1=1.5, p_dot1b=0.8, p01b=0.32)
    # an infinite size or ratio made delta_method_mean_variance's variance NaN
    for fn in (mme_asymptotic_mean_variance, delta_method_mean_variance):
        for name, value in (("n_a", math.inf), ("r", math.inf), ("n_a", math.nan)):
            kwargs = {**dict(n_a=1200, r=1.2, p1=0.6, p_dot1b=0.8, p01b=0.32), name: value}
            with pytest.raises(DomainError, match=rf"^{name} must be in \(0,inf\) and the float range, got {value}$"):
                fn(**kwargs)


@pytest.mark.parametrize(
    "fn, args, quantity",
    [
        # a bare OverflowError from e_s**2
        (delta_method_mean_variance, (1e308, 1.2, 0.6, 0.8, 0.32), "the variance"),
        # a bare ZeroDivisionError: n_b * p11b**2 underflows to 0
        (delta_method_mean_variance, (5e-324, 1.2, 0.6, 0.8, 0.32), "E(R)"),
        # mean=inf was returned
        (mme_asymptotic_mean_variance, (1e308, 1e308, 0.6, 0.8, 0.32), "the mean"),
    ],
)
def test_asymptotic_moments_name_the_quantity_that_overflows(fn, args, quantity):
    with pytest.raises(DomainError) as err:
        fn(*args)
    assert str(err.value) == f"{quantity} overflows the float range"


def test_delta_method_variance_dominates_displayed_form():
    kwargs = dict(n_a=1200, r=1.2, p1=0.6, p_dot1b=0.8, p01b=0.32)
    shown = mme_asymptotic_mean_variance(**kwargs)
    full = delta_method_mean_variance(**kwargs)
    assert full.mean == pytest.approx(shown.mean, rel=1e-3)
    assert full.variance == pytest.approx(2002.0, rel=1e-3)
    # the full product composition is roughly 1/p1-to-4 times larger
    assert full.variance > 2.0 * shown.variance


def test_discrepancy_note_documents_unreproduced_values():
    doc = dualrec.mme.__doc__
    assert "575" in doc and "574" in doc
    assert "171" in doc and "156" in doc
    assert "0.190" in doc
