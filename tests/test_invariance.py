"""Two invariances of the models themselves, which hold for any correct
answer and so do not depend on a recorded one.

* Count scaling.  Multiplying all six counts by k multiplies LP's, NOUR's,
  MME-I's, MME-II's and the Wolter forms' sizes by exactly k, since each is
  homogeneous of degree 1 in the counts.  So does Model I's first-order
  closed form: the scaled data's first-order log-likelihood at
  ``(k n, p)`` is k times the original's at ``(n, p)`` plus a constant.
* Exchangeable strata.  Model II gives both strata the same ``p1`` and
  ``alpha``, so ``StratumPair(b, a)`` swaps MME-II's ``n_a`` and ``n_b``.

Each estimate is compared with the exact multiple, or the exact swap, of the
original's unrounded ``n_a`` as a relative error, over the benchmark's
fit-likelihood tables of seeds 0-9 (chunk 0, entries 0-17, built as
``bench/workloads.fit_table`` builds them).  The default MLE-II fit breaks
both invariances; its violations are pinned as counts.
"""

from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from dualrec.core import DrsTable, DualrecError, StratumPair
from dualrec.sim import apply_method, design_from_preset, generate_pair
from test_fit_digest import _ALPHA, _CELLS

_K = 10
_RATIO = 1.2  # the designs' n_a / n_b, which the Wolter forms take as known


@cache
def _tables(seeds: int = 10) -> tuple[StratumPair, ...]:
    tables = []
    for seed in range(seeds):
        for i in range(2 * len(_CELLS)):
            preset, n = _CELLS[i // 2]
            design = design_from_preset(preset, model=("I", "II")[i % 2], n_a=round(1.2 * n),
                                        n_b=n, alpha=_ALPHA, replicates=1, seed=0)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0, i]))
            tables.append(generate_pair(design, rng))
    return tuple(tables)


def _scaled(pair: StratumPair, k: int) -> StratumPair:
    return StratumPair(*(DrsTable(k * t.x11, k * t.x10, k * t.x01) for t in (pair.a, pair.b)))


def _sizes(method: str, pair: StratumPair):
    """``(outcome, n_a, n_b)``: the error class raised, or the solver
    (None but for a likelihood fit), with the unrounded sizes."""
    try:
        d = apply_method(method, pair, _RATIO if method.startswith("WOLTER") else None).diagnostics
    except DualrecError as e:
        return type(e).__name__, None, None
    return d.get("solver"), d["n_a_unrounded"], d["n_b_unrounded"]


def _relative(got: float, want: Fraction) -> float:
    return float(abs(Fraction(got) - want) / want)


@pytest.mark.parametrize("method, bound", [
    ("LP", 2**-52),
    ("NOUR", 2**-52),
    ("MME-I", 2**-52),
    ("MME-II", 2**-52),
    ("WOLTER-2", 2**-51),
    # n_b = (K x0B - x0A) / (K - r) cancels where K nears r
    ("WOLTER-1", 2**-42),
    ("MLE-I", 2**-52),
])
def test_closed_forms_scale_with_the_counts(method, bound):
    compared = 0
    for pair in _tables():
        outcome, n_a, _ = _sizes(method, pair)
        if outcome == "numeric":  # MLE-I's closed form only
            continue
        scaled, scaled_n_a, _ = _sizes(method, _scaled(pair, _K))
        assert scaled == outcome
        if n_a is not None:
            assert _relative(scaled_n_a, _K * Fraction(n_a)) <= bound
            compared += 1
    assert compared >= 40  # MME-II returns on 41 tables, WOLTER-1 on 43


def test_moment_model_ii_sizes_swap_with_the_strata():
    compared = 0
    for pair in _tables():
        _, n_a, n_b = _sizes("MME-II", pair)
        swapped = _sizes("MME-II", StratumPair(pair.b, pair.a))
        # both fail or both return, though not always by the same error: the
        # moment formula divides by x10A, so x10 = 0 in stratum A is a
        # DivisionByZero and in stratum B a p2 outside (0, 1)
        assert (swapped[1] is None) == (n_a is None)
        if n_a is not None:
            assert _relative(swapped[2], Fraction(n_a)) <= 2**-49
            assert _relative(swapped[1], Fraction(n_b)) <= 2**-49
            compared += 1
    assert compared == 41


# The default MLE-II fit's violations on the 18 seed-0 tables: fits whose
# outcome (a return or DidNotConverge) changes when the counts are scaled by
# 10 or the strata swapped, and fits that return both ways whose n_a moves
# by more than 1e-3 relative.  A global maximiser would make each 0.
_MLE_II_VIOLATIONS = {"scaled outcome": 0, "scaled n_a": 4, "swapped outcome": 0, "swapped n_a": 4}


def test_mle_ii_invariance_violations_are_pinned():
    found = dict.fromkeys(_MLE_II_VIOLATIONS, 0)
    for pair in _tables(1):
        outcome, n_a, _ = _sizes("MLE-II", pair)
        scaled, scaled_n_a, _ = _sizes("MLE-II", _scaled(pair, _K))
        swapped, _, swapped_n_b = _sizes("MLE-II", StratumPair(pair.b, pair.a))
        for kind, other, other_n_a, k in (("scaled", scaled, scaled_n_a, _K),
                                          ("swapped", swapped, swapped_n_b, 1)):
            found[f"{kind} outcome"] += other != outcome
            if n_a is not None and other_n_a is not None:
                found[f"{kind} n_a"] += _relative(other_n_a, k * Fraction(n_a)) > 1e-3
    assert found == _MLE_II_VIOLATIONS
