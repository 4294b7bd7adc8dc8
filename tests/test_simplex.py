"""The package's Nelder-Mead simplex against scipy's, iterate for iterate.

``dualrec.mle.minimize`` reproduces scipy 1.17.1's
``minimize(method="Nelder-Mead")`` on lists of floats.  Each case runs both
on one objective and requires the same ``x`` (to the bit), ``fun``, ``nit``,
``nfev`` and ``success``.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import dualrec.mle
from dualrec.core import DrsTable, StratumPair
from dualrec.datasets import MEADOW_VOLES
from dualrec.mle import FitConfig, minimize, mle_model_i, mle_model_ii
from test_mle import _MODEL_II_BITS

_OPTIONS = {"maxiter": 2000, "maxfev": 8000, "fatol": 1e-9, "xatol": 1e-8}


def _outcome(res) -> tuple:
    return ([float(v).hex() for v in res.x], float(res.fun).hex(), int(res.nit),
            int(res.nfev), bool(res.success))


def _same(fun, x0, options):
    """The package's simplex, after checking it against scipy's."""
    ours = minimize(fun, list(x0), method="Nelder-Mead", options=options)
    theirs = scipy_minimize(lambda u: fun(u.tolist()), np.asarray(x0, dtype=float),
                            method="Nelder-Mead", options=options)
    assert _outcome(ours) == _outcome(theirs)
    return ours


def _compared(monkeypatch) -> list:
    """Check every simplex a fit runs against scipy's; returns the list the
    calls are counted in."""
    calls = []

    def compared(fun, x0, method, options):
        calls.append(method)
        return _same(fun, x0, options)

    monkeypatch.setattr(dualrec.mle, "minimize", compared)
    return calls


@pytest.mark.parametrize("a, b", [row[:2] for row in _MODEL_II_BITS])
def test_pinned_model_ii_fits_take_scipys_iterates(monkeypatch, a, b):
    calls = _compared(monkeypatch)
    mle_model_ii(StratumPair(DrsTable(*a), DrsTable(*b)))
    assert calls and set(calls) == {"Nelder-Mead"}


@pytest.mark.parametrize("fit", [mle_model_i, mle_model_ii])
@pytest.mark.parametrize("config", [FitConfig(logfac="exact"), FitConfig(known_ratio=1.2)])
def test_voles_fits_take_scipys_iterates(monkeypatch, fit, config):
    calls = _compared(monkeypatch)
    fit(MEADOW_VOLES, config)
    assert calls


def _clip(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v


def flat(u):
    # constant in every coordinate beyond [-1, 1], as a fit's objective is
    # beyond the probability clip: vertices that differ only there tie
    centre = (0.5, -0.25, 0.75, 0.1, -0.6, 0.3)
    return sum((_clip(v, -1.0, 1.0) - c) ** 2 for v, c in zip(u, centre))


def wall(u):
    # +inf past a plane that cuts the start simplex, so six vertices tie at
    # +inf, as a fit's do when a start lies by a size's observed count
    if sum(u) > 6.04:
        return math.inf
    return sum((v - c) ** 2 for v, c in zip(u, (0.5, 1.5, 0.2, 0.9, 1.1, 0.7)))


def nan_beyond(u):
    # NaN on the far side of u[0] = 0.5, where the minimum would be
    if u[0] > 0.5:
        return math.nan
    return (u[0] - 0.7) ** 2 + sum((v - 0.2) ** 2 for v in u[1:])


def nan_corner(u):
    # NaN where u[5] > 2.05, which takes in one vertex of the start simplex
    if u[5] > 2.05:
        return math.nan
    return sum((v - 0.3) ** 2 for v in u)


def rounded(u):
    # a quadratic rounded to 0.001, so a new vertex's value often ties an
    # old one's exactly
    return round(sum((v - c) ** 2 for v, c in zip(u, (0.5, -1.5, 0.2, 2.0, -0.4, 1.1))), 3)


def signed_zero(u):
    # 0.0 or -0.0 within a ball, by the side of a plane through it: the two
    # zeros compare equal, so only the sort may order them
    q = sum((v - c) ** 2 for v, c in zip(u, (0.5, 1.5, 0.2, 0.9, 1.1, 0.7)))
    if q > 0.25:
        return q - 0.25
    return -0.0 if u[0] + u[3] < 1.4 else 0.0


def box(u):
    # +inf outside a box, which four vertices of the start simplex leave;
    # the simplex collapses against its wall, where new values tie old ones
    if any(v > 2.0 or v < -2.0 for v in u):
        return math.inf
    return sum((v - c) ** 2 for v, c in zip(u, (1.2, -0.3, 0.8, 1.9, 0.1, -1.1)))


_CASES = [
    (flat, [3.0, 0.2, 3.0, -4.0, 0.1, 5.0]),
    (wall, [1.0] * 6),
    (nan_beyond, [0.0, 1.0, 0.5, 0.3, 0.0, 2.0]),
    (nan_corner, [0.0, 0.2, 0.5, 0.3, 0.0, 2.0]),
    # a new vertex that ties an old one, where one bisect insertion would
    # place it other than np.argsort does
    (rounded, [3.0, 0.2, 3.0, -4.0, 0.1, 5.0]),
    (signed_zero, [3.0, 0.2, 3.0, -4.0, 0.1, 5.0]),
    (box, [1.9, -1.95, -1.95, -1.95, -1.95, 1.9]),
]


@pytest.mark.parametrize("fun, x0", _CASES)
def test_ties_walls_and_nan_take_scipys_iterates(fun, x0):
    res = _same(fun, x0, _OPTIONS)
    assert res.success


def test_a_nan_vertex_never_meets_a_tolerance():
    # every other vertex lies within these tolerances of the best, so only
    # the NaN vertex keeps the simplex from stopping at once
    loose = dict(_OPTIONS, fatol=10.0, xatol=10.0)
    res = _same(nan_corner, [0.0, 0.2, 0.5, 0.3, 0.0, 2.0], loose)
    assert res.nit > 1


def test_a_zero_coordinate_starts_a_quarter_thousandth_away():
    res = _same(flat, [0.0, 0.2, 0.0, -4.0, 0.1, 0.0], _OPTIONS)
    assert res.success


@pytest.mark.parametrize("fun, x0", _CASES)
def test_every_budget_stops_where_scipys_does(fun, x0):
    # every evaluation budget up to 200, which trips while the start simplex
    # is evaluated, mid-shrink and in each kind of step, and every iteration
    # budget up to 120
    stopped = 0
    for maxfev in range(1, 201):
        stopped += not _same(fun, x0, dict(_OPTIONS, maxfev=maxfev)).success
    for maxiter in range(1, 121):
        stopped += not _same(fun, x0, dict(_OPTIONS, maxiter=maxiter)).success
    assert stopped == 320



_NAN = math.nan


@pytest.mark.parametrize("fsim", [
    [3.0, 1.0, 2.0, -5.5, 7.25, 0.5, 4.0],  # distinct
    [2.0, 1.0, 2.0, 1.0, 0.5, 2.0, 3.0],  # exact ties
    [0.0, -0.0, 1.0, -1.0, 0.0, 2.0, -0.0],  # 0.0 and -0.0 tie
    [1.0, math.inf, math.inf, math.inf, 0.0, math.inf, math.inf],
    [math.inf, -math.inf, 0.0, 1.0, -1.0, 2.0, 3.0],  # distinct infinities
    [1.0, _NAN, 0.5, 2.0],  # one NaN, the list equal to itself
    [1.0, float("nan"), 0.5, 2.0, -3.0, 4.0, 0.25],
    [_NAN, 1.0, _NAN, 0.5, float("nan"), 2.0, math.inf],  # several NaNs
    [_NAN, _NAN, _NAN],
    [5.0],
])
def test_sort_orders_vertices_as_argsort_does(fsim):
    # the vertices and their values, labelled, in np.argsort's order, which
    # is not stable: ties and NaN are where another sort would differ
    labels = [f"v{i}" for i in range(len(fsim))]
    sim, values = dualrec.mle._sort(labels, list(fsim))
    order = np.argsort(fsim)
    assert sim == [labels[i] for i in order]
    assert [float.hex(v) for v in values] == [float.hex(fsim[i]) for i in order]
