"""Tests for the core table types, validation, and numeric helpers."""

import math

import numpy as np
import pytest

from dualrec.core import (
    BbmParams,
    CellProbabilities,
    DomainError,
    DrsTable,
    EmptyTable,
    NegativeCount,
    clamp,
    empirical_ci,
    floor_int,
    log_factorial,
    round_half_even,
    round_half_up,
    validate_table,
)


def test_table_margins_add_up():
    t = DrsTable(46, 20, 11)
    assert t.x1dot == 66
    assert t.xdot1 == 57
    assert t.x0 == 77
    # both list totals exceed the shared cell by the single-list counts
    assert t.x1dot + t.x01 == t.x0
    assert t.xdot1 + t.x10 == t.x0


def test_table_margin_identity_over_random_tables():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x11, x10, x01 = rng.integers(0, 500, size=3)
        t = DrsTable(int(x11), int(x10), int(x01))
        assert t.x1dot + t.x01 == t.xdot1 + t.x10 == t.x0


def test_table_rejects_negative_and_fractional_counts():
    with pytest.raises(NegativeCount):
        DrsTable(5, -1, 2)
    with pytest.raises(DomainError):
        DrsTable(5, 1.5, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "many", None, [1], True, False])
def test_table_rejects_non_finite_and_non_numeric_counts(bad):
    with pytest.raises(DomainError) as err:
        DrsTable(bad, 1, 1)
    assert str(err.value) == f"x11 must be an integer, got {bad!r}"


def test_validate_table_accepts_nonempty_and_rejects_empty():
    t = DrsTable(46, 20, 11)
    assert validate_table(t) is t
    with pytest.raises(EmptyTable):
        validate_table(DrsTable(0, 0, 0))


def test_model_params_domains():
    # closed right end on the latent second-list probability
    BbmParams(p1=0.5, p2=1.0, alpha=0.3, n=10)
    BbmParams(p1=0.5, p2=0.5, alpha=0.0, n=10)
    BbmParams(p1=0.5, p2=0.5, alpha=1.0, n=10)
    with pytest.raises(DomainError):
        BbmParams(p1=0.0, p2=0.5, alpha=0.3, n=10)
    with pytest.raises(DomainError):
        BbmParams(p1=1.0, p2=0.5, alpha=0.3, n=10)
    with pytest.raises(DomainError):
        BbmParams(p1=0.5, p2=0.0, alpha=0.3, n=10)
    with pytest.raises(DomainError):
        BbmParams(p1=0.5, p2=0.5, alpha=1.1, n=10)
    with pytest.raises(DomainError):
        BbmParams(p1=0.5, p2=0.5, alpha=0.3, n=0)
    for n in (math.nan, math.inf, 2.0**63, 10**20):
        with pytest.raises(DomainError):
            BbmParams(p1=0.5, p2=0.5, alpha=0.3, n=n)
    BbmParams(p1=0.5, p2=0.5, alpha=0.3, n=2**63 - 1024)


def test_cell_probabilities_must_sum_to_one():
    CellProbabilities(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(DomainError):
        CellProbabilities(0.5, 0.25, 0.25, 0.25)
    with pytest.raises(DomainError):
        CellProbabilities(1.2, -0.2, 0.0, 0.0)


def test_log_factorial_small_values_exact():
    assert log_factorial(0) == 0.0
    assert log_factorial(5) == pytest.approx(math.log(120), abs=1e-12)
    assert log_factorial(20) == pytest.approx(math.lgamma(21.0), rel=1e-12)


def test_log_factorial_matches_three_term_form_at_large_argument():
    exact = log_factorial(1000)
    three_term = 1000 * math.log(1000) - 1000 + 0.5 * math.log(2 * math.pi * 1000)
    assert exact == pytest.approx(three_term, rel=1e-6)
    assert log_factorial(1000, mode="stirling3") == pytest.approx(three_term, abs=1e-12)


def test_log_factorial_modes_and_domain():
    # first-order mode drops the half-log correction
    n = 500.0
    assert log_factorial(n, "stirling1") == pytest.approx(n * math.log(n) - n, abs=1e-9)
    assert log_factorial(0, "stirling1") == 0.0
    assert log_factorial(0, "stirling3") == 0.0
    with pytest.raises(DomainError):
        log_factorial(-0.5)
    with pytest.raises(DomainError):
        log_factorial(3, mode="stirling2")


def test_log_factorial_monotone_and_stepwise():
    values = [log_factorial(n) for n in range(0, 200)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    for n in range(1, 200):
        assert values[n] - values[n - 1] == pytest.approx(math.log(n), abs=1e-10)


def test_rounding_helpers():
    assert floor_int(81.889) == 81
    assert floor_int(575.75) == 575
    assert round_half_up(73.5) == 74
    assert round_half_up(73.4999) == 73
    assert round_half_even(0.5) == 0
    assert round_half_even(1.5) == 2
    assert clamp(-0.2, 0.0, 1.0) == 0.0
    assert clamp(1.7, 0.0, 1.0) == 1.0
    assert clamp(0.4, 0.0, 1.0) == 0.4


def test_empirical_ci_percentiles():
    values = np.arange(1, 1001, dtype=float)
    lo, hi = empirical_ci(values)
    assert lo == pytest.approx(np.percentile(values, 2.5))
    assert hi == pytest.approx(np.percentile(values, 97.5))
    assert lo < hi
