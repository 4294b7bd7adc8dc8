"""Tests for the core table types, validation, and numeric helpers."""

import math
import sys

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma

from dualrec.core import (
    BbmParams,
    CellProbabilities,
    DomainError,
    DrsTable,
    DualrecError,
    EmptyTable,
    NegativeCount,
    check_integer,
    check_real,
    clamp,
    digamma,
    empirical_ci,
    floor_int,
    lfac_ratio,
    log_factorial,
    round_half_even,
    round_half_up,
    validate_table,
)
from dualrec.classical import lincoln_petersen


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


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, "many", None, [1], True, False, np.True_, np.False_]
)
def test_table_rejects_non_finite_and_non_numeric_counts(bad):
    with pytest.raises(DomainError) as err:
        DrsTable(bad, 1, 1)
    assert str(err.value) == f"x11 must be an integer, got {bad!r}"


def test_negative_count_too_long_to_print_is_left_out_of_the_message():
    with pytest.raises(NegativeCount) as err:
        DrsTable(-5, 0, 0)
    assert str(err.value) == "x11 must be nonnegative, got -5"
    # past Python's int-to-str limit the message cannot print the count
    with pytest.raises(NegativeCount) as err:
        DrsTable(-(10**5000), 0, 0)
    assert str(err.value) == "x11 must be nonnegative"


def test_table_counts_stay_below_2_to_the_63():
    # the int64 bound BbmParams puts on n; below it the estimators stay finite
    top = 2**63 - 1
    assert math.isfinite(lincoln_petersen(DrsTable(1, top, top)).estimates["n"])
    for cells in ((2**63, 1, 1), (1, 2**600, 2**600)):
        with pytest.raises(DomainError, match=r"^x1[01] must be below 2\*\*63$"):
            DrsTable(*cells)


# (count, None if the table takes it, else the error class and message
# with the cell's name left as {})
_COUNT_CASES = {
    "int": (7, None),
    "np.int64": (np.int64(7), None),
    "True": (True, (DomainError, "{} must be an integer, got True")),
    "np.True_": (np.True_, (DomainError, "{} must be an integer, got np.True_")),
    "3.0": (3.0, None),
    "1.5": (1.5, (DomainError, "{} must be an integer, got 1.5")),
    "nan": (math.nan, (DomainError, "{} must be an integer, got nan")),
    "-1": (-1, (NegativeCount, "{} must be nonnegative, got -1")),
    "2**63": (2**63, (DomainError, "{} must be below 2**63")),
    "-(10**5000)": (-(10**5000), (NegativeCount, "{} must be nonnegative")),
    "2**63-1": (2**63 - 1, None),
}


@pytest.mark.parametrize("case", _COUNT_CASES)
@pytest.mark.parametrize("position", range(3))
def test_table_checks_a_count_alike_beside_plain_ints(case, position):
    # three ints in range skip the per-count checks; a count of any other
    # kind or range, beside two such ints, meets them as it always has
    value, error = _COUNT_CASES[case]
    cells = [5, 0, 9]
    cells[position] = value
    if error is None:
        t = DrsTable(*cells)
        stored = [t.x11, t.x10, t.x01]
        assert stored == cells
        assert all(type(c) is int for c in stored)
    else:
        cls, message = error
        with pytest.raises(DualrecError) as err:
            DrsTable(*cells)
        assert type(err.value) is cls
        assert str(err.value) == message.format(("x11", "x10", "x01")[position])


@pytest.mark.parametrize(
    "interval, inside, outside",
    [
        ("(0,1)", (1e-300, 0.5, np.float32(0.999)), (0.0, 1.0, 2, math.nan)),
        ("(0,1]", (1e-300, 1.0, 1), (0.0, -1e-300, 1.0 + 1e-15, math.nan)),
        ("[0,1]", (0.0, 0, 1.0, np.float16(0.5)), (-1e-300, 1.5, math.nan)),
        ("(0,inf)", (5e-324, 1, 1e308, np.float32(3e38), 2**1023), (0.0, -1, math.inf, math.nan,
                                                                    10**400, np.float32("inf"))),
        ("[0,inf)", (0.0, 0, 1e308, sys.float_info.max), (-5e-324, math.inf, 10**400)),
        ("(-inf,inf)", (-1e308, 0, -(2**1023), np.float64(1e308)), (math.inf, -math.inf, math.nan,
                                                                     10**400, -(10**400),
                                                                     np.longdouble(10) ** 400)),
    ],
)
def test_check_real_intervals(interval, inside, outside):
    for value in inside:
        assert check_real("x", value, interval) is value
    # an inf end is open and bounds the float range too, so an int with no
    # float is refused like inf; a value too long to print is left out
    bound = " and the float range" if "inf" in interval else ""
    for value in outside:
        with pytest.raises(DomainError) as err:
            check_real("x", value, interval)
        assert str(err.value) == f"x must be in {interval}{bound}, got {value}"
    with pytest.raises(DomainError, match=r"^x must be in \(0,inf\) and the float range$"):
        check_real("x", 10**5000, "(0,inf)")


def test_check_integer_minimum():
    assert check_integer("k", 3, 3) == 3
    assert check_integer("k", np.int64(7), 0) == 7
    for value, message in ((2, "k must be at least 3, got 2"), (-(10**5000), "k must be at least 3"),
                           (3.0, "k must be an integer, got 3.0"), (True, "k must be an integer, got True")):
        with pytest.raises(DomainError) as err:
            check_integer("k", value, 3)
        assert str(err.value) == message


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


@pytest.mark.parametrize("mode", ["exact", "stirling1", "stirling3"])
@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_log_factorial_refuses_non_finite_arguments(n, mode):
    # NaN passed the old n < 0 check, and inf * log(inf) - inf is NaN
    with pytest.raises(DomainError, match="^log_factorial requires a finite n >= 0"):
        log_factorial(n, mode)


@pytest.mark.parametrize(
    ("n", "mode"),
    [(1e308, "exact"), (10**400, "exact"), (10**400, "stirling1"), (10**400, "stirling3")],
)
def test_log_factorial_refuses_arguments_that_overflow(n, mode):
    # lgamma(1e308 + 1) overflows, and 10**400 has no float; both once let a
    # bare OverflowError out
    with pytest.raises(DomainError, match="^n is too large for log_factorial, got "):
        log_factorial(n, mode)


def test_digamma_matches_scipys():
    xs = np.logspace(-12, 15, 60001)
    for x, expected in zip(xs.tolist(), scipy_digamma(xs).tolist()):
        assert abs(digamma(x) - expected) <= 1e-10 * max(1.0, abs(expected)), x


def test_exact_ratio_derivative_matches_scipys_digamma_difference():
    dratio = lfac_ratio("exact")[1]
    rng = np.random.default_rng(21)
    x0 = rng.integers(1, 10**4, 20000)
    # sizes from just above the wall at x0 - 1 to about 3e6 past it
    n = x0 - 1.0 + np.exp(rng.uniform(-20.0, 15.0, 20000))
    expected = scipy_digamma(n + 1.0) - scipy_digamma(np.maximum(n - x0 + 1.0, 1e-12))
    for n_k, x0_k, e in zip(n.tolist(), x0.tolist(), expected.tolist()):
        assert dratio(n_k, x0_k) == pytest.approx(e, rel=1e-10), (n_k, x0_k)


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
