"""Tests for the comparator estimators and their feasibility conditions."""

import math

import numpy as np
import pytest

from dualrec.boot import bootstrap
from dualrec.classical import lincoln_petersen, nour, wolter_model1, wolter_model2
from dualrec.core import (
    ConditionViolated,
    DivisionByZero,
    DomainError,
    DrsTable,
    Infeasible,
    StratumPair,
)
from dualrec.datasets import CHILDREN_DEATH, ENCEPHALITIS, MEADOW_VOLES
from dualrec.sim import apply_method


def test_lincoln_petersen_worked_examples():
    assert lincoln_petersen(DrsTable(54, 5, 13)).estimates["n"] == 73.0
    fit = lincoln_petersen(DrsTable(15, 173, 7))
    assert fit.estimates["n"] == 275.0
    assert fit.diagnostics["n_unrounded"] == pytest.approx(188 * 22 / 15, abs=1e-9)


def test_lincoln_petersen_no_one_missed():
    assert lincoln_petersen(DrsTable(9, 0, 0)).estimates["n"] == 9.0


def test_lincoln_petersen_never_below_observed_count():
    rng = np.random.default_rng(13)
    for _ in range(300):
        x11 = int(rng.integers(1, 60))
        x10 = int(rng.integers(0, 60))
        x01 = int(rng.integers(0, 60))
        t = DrsTable(x11, x10, x01)
        assert lincoln_petersen(t).estimates["n"] >= t.x0


def test_lincoln_petersen_zero_shared_cell():
    with pytest.raises(DivisionByZero):
        lincoln_petersen(DrsTable(0, 5, 5))


def test_nour_zero_shared_cell():
    with pytest.raises(DivisionByZero, match="x11 is zero"):
        nour(DrsTable(0, 3, 4))


def test_nour_worked_examples():
    assert nour(DrsTable(46, 20, 11)).estimates["n"] == 86.0
    assert nour(DrsTable(54, 5, 13)).estimates["n"] == 74.0


def test_nour_refuses_negatively_associated_tables():
    for table in (ENCEPHALITIS.a, ENCEPHALITIS.b, CHILDREN_DEATH.a, CHILDREN_DEATH.b):
        with pytest.raises(ConditionViolated) as err:
            nour(table)
        assert "x11^2 > x10*x01" in str(err.value)


def test_nour_boundary_is_refused():
    # x11^2 == x10*x01 sits exactly on the condition boundary
    with pytest.raises(ConditionViolated):
        nour(DrsTable(6, 4, 9))


def test_nour_dominates_lincoln_petersen_when_applicable():
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 200:
        x11 = int(rng.integers(5, 80))
        x10 = int(rng.integers(1, 20))
        x01 = int(rng.integers(1, 20))
        if x11 * x11 <= x10 * x01:
            continue
        t = DrsTable(x11, x10, x01)
        assert (
            nour(t).diagnostics["n_unrounded"]
            >= lincoln_petersen(t).diagnostics["n_unrounded"]
        )
        checked += 1


def test_wolter_model1_voles():
    fit = wolter_model1(MEADOW_VOLES, 1.147)
    assert fit.diagnostics["K"] == pytest.approx(3.9732, abs=5e-4)
    # formula-faithful integer parts; one below the published (85, 74) pair
    assert fit.estimates["n_a"] == 84.0
    assert fit.estimates["n_b"] == 73.0
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(73.976, abs=1e-3)


def test_wolter_model1_infeasible_cases():
    t = DrsTable(46, 20, 11)
    with pytest.raises(Infeasible):
        wolter_model1(StratumPair(t, t), 1.0)  # K = 1 <= r
    with pytest.raises(Infeasible):
        wolter_model1(MEADOW_VOLES, 4.5)  # K ~ 3.97 <= r
    # a ratio outside (0, inf), or with no float, is out of its domain
    for r in (-2.0, 0.0, float("nan"), float("inf"), 10**400):
        with pytest.raises(DomainError, match=r"^r must be in \(0,inf\) and the float range"):
            wolter_model1(MEADOW_VOLES, r)
    # a non-number, or a bool, is not a ratio
    for r in ("2", None, True):
        with pytest.raises(DomainError, match=f"^r must be a real number, got {r!r}$"):
            wolter_model1(MEADOW_VOLES, r)
    with pytest.raises(DomainError, match="^r must be a real number"):
        apply_method("WOLTER-1", MEADOW_VOLES, ratio="2")
    with pytest.raises(DomainError, match="^r must be a real number"):
        bootstrap(MEADOW_VOLES, "WOLTER-1", b=5, ratio="2")
    with pytest.raises(DivisionByZero):
        wolter_model1(StratumPair(DrsTable(5, 4, 3), DrsTable(5, 0, 3)), 1.2)


def test_wolter_model2_voles():
    fit = wolter_model2(MEADOW_VOLES, 1.147)
    assert fit.estimates["n_a"] == 83.0  # integer part of 1.147 * 73.2037
    assert fit.estimates["n_b"] == 73.0


def test_wolter_model2_ratio_behaviour():
    fit = wolter_model2(MEADOW_VOLES, 1.0)
    assert fit.estimates["n_a"] == fit.estimates["n_b"] == 73.0
    fit = wolter_model2(MEADOW_VOLES, 0.5)
    assert fit.estimates["n_a"] == 36.0
    # linear scaling in r before the integer part is taken
    base = wolter_model2(MEADOW_VOLES, 1.147).diagnostics["n_a_unrounded"]
    doubled = wolter_model2(MEADOW_VOLES, 2.294).diagnostics["n_a_unrounded"]
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_wolter_model2_errors():
    for r in (-2.0, 0.0, float("nan"), float("inf"), 10**400):
        with pytest.raises(DomainError, match=r"^r must be in \(0,inf\) and the float range"):
            wolter_model2(MEADOW_VOLES, r)
    for r in (None, "2", False):
        with pytest.raises(DomainError, match=f"^r must be a real number, got {r!r}$"):
            wolter_model2(MEADOW_VOLES, r)
    with pytest.raises(DivisionByZero):
        wolter_model2(StratumPair(DrsTable(5, 4, 3), DrsTable(0, 4, 3)), 1.2)


def test_wolter_model2_size_past_the_float_range_is_infeasible():
    # a finite ratio times n_b can overflow; floor_int(inf) then let a bare
    # OverflowError out
    for r in (1e308, 2.5e306):
        with pytest.raises(Infeasible) as err:
            wolter_model2(MEADOW_VOLES, r)
        assert str(err.value) == f"n_a = r * n_b overflows the float range at r = {r}"
    # n_b = 59 * 67 / 54; just below the overflow the size is reported
    assert wolter_model2(MEADOW_VOLES, 2e306).estimates["n_a"] == math.floor(2e306 * (59 * 67 / 54))
    # an int ratio with no float is out of the ratio's domain
    with pytest.raises(DomainError, match=r"^r must be in \(0,inf\) and the float range, got 1000"):
        apply_method("WOLTER-2", MEADOW_VOLES, ratio=10**400)
