"""The error contract for real-number arguments.

Every real parameter of a public type or function goes through
``core.check_real``: a string, ``None`` or a bool raises a ``DomainError``
that names the argument, never a bare ``TypeError``, and numpy floats are
real numbers like any other.  A value with no finite float (``10**400``,
+-inf, NaN) raises a ``DualrecError`` that names the argument, never a bare
``OverflowError``.
"""

import math
import re

import numpy as np
import pytest

from dualrec.classical import wolter_model1, wolter_model2
from dualrec.core import (
    BbmParams,
    CellProbabilities,
    DomainError,
    DualrecError,
    MtbParams,
    log_factorial,
)
from dualrec.datasets import MEADOW_VOLES
from dualrec.mle import FitConfig
from dualrec.mme import delta_method_mean_variance, mme_asymptotic_mean_variance
from dualrec.model import ModelIIParams, ModelIParams, p2_from_marginal
from dualrec.sim import DesignPoint

_MOMENTS = dict(n_a=1200, r=1.2, p1=0.6, p_dot1b=0.8, p01b=0.32)

# each public name with valid values for all its real arguments
_VALID = {
    BbmParams: dict(p1=0.6, p2=0.5, alpha=0.4, n=100),
    CellProbabilities: dict(p11=0.25, p10=0.25, p01=0.25, p00=0.25),
    MtbParams: dict(p1dot=0.6, p=0.25, c=0.5, phi=2.0),
    ModelIParams: dict(n_a=300, n_b=300, alpha_a=0.2, p1=0.5, p2a=0.5, p2b=0.5),
    ModelIIParams: dict(n_a=300, n_b=300, alpha0=0.2, p1=0.5, p2a=0.5, p2b=0.5),
    p2_from_marginal: dict(p_dot1=0.72, p1=0.6, alpha=0.4),
    mme_asymptotic_mean_variance: _MOMENTS,
    delta_method_mean_variance: _MOMENTS,
    log_factorial: dict(n=5.0),
    wolter_model1: dict(r=1.2),
    wolter_model2: dict(r=1.2),
    DesignPoint: dict(p1dot_a=0.6, pdot1_a=0.8, p1dot_b=0.6, pdot1_b=0.8, alpha=0.4),
}
# the arguments that are not real numbers, held at valid values
_FIXED = {
    wolter_model1: dict(data=MEADOW_VOLES),
    wolter_model2: dict(data=MEADOW_VOLES),
    DesignPoint: dict(n_a=240, n_b=200, replicates=10),
}


def _call(fn, **reals):
    return fn(**_FIXED.get(fn, {}), **reals)


_NOT_NUMBERS = ("0.5", None, True)


@pytest.mark.parametrize("fn", _VALID, ids=lambda fn: fn.__name__)
def test_valid_arguments_pass_as_python_or_numpy_numbers(fn):
    kwargs = _VALID[fn]
    assert _call(fn, **kwargs) == _call(fn, **{k: np.float64(v) for k, v in kwargs.items()})


@pytest.mark.parametrize(
    "fn,name,bad",
    [
        pytest.param(fn, name, bad, id=f"{fn.__name__}-{name}-{bad!r}")
        for fn, kwargs in _VALID.items()
        for name in kwargs
        for bad in _NOT_NUMBERS
    ],
)
def test_non_number_raises_domain_error_naming_the_argument(fn, name, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(f'{name} must be a real number, got {bad!r}')}$"):
        _call(fn, **{**_VALID[fn], name: bad})


# FitConfig's reals join the table here: its known_ratio may be None
_REALS = {**_VALID, FitConfig: dict(objective_tolerance=1e-9, parameter_tolerance=1e-8, known_ratio=1.2)}
_NO_FLOAT = {"int-1e400": 10**400, "inf": math.inf, "-inf": -math.inf, "nan": math.nan}


@pytest.mark.parametrize(
    "fn,name,bad",
    [
        pytest.param(fn, name, bad, id=f"{fn.__name__}-{name}-{label}")
        for fn, kwargs in _REALS.items()
        for name in kwargs
        for label, bad in _NO_FLOAT.items()
    ],
)
def test_value_with_no_finite_float_raises_a_dualrec_error_naming_the_argument(fn, name, bad):
    # 10**400 let a bare OverflowError out of the moment formulas, the Wolter
    # estimators, MtbParams, p2_from_marginal and DesignPoint
    with pytest.raises(DualrecError, match=rf"\b{name}\b"):
        _call(fn, **{**_REALS[fn], name: bad})


@pytest.mark.parametrize("name", ["objective_tolerance", "parameter_tolerance", "known_ratio"])
def test_fit_config_reals_take_numpy_floats_and_refuse_non_numbers(name):
    assert getattr(FitConfig(**{name: np.float32(0.5)}), name) == np.float32(0.5)
    # None is known_ratio's default, "no known ratio"
    for bad in _NOT_NUMBERS if name != "known_ratio" else ("0.5", True):
        with pytest.raises(DomainError, match=f"^{re.escape(f'{name} must be a real number, got {bad!r}')}$"):
            FitConfig(**{name: bad})


@pytest.mark.parametrize(
    "start",
    [5, 5.0, np.float64(5.0), np.array(5.0), (v for v in range(6)), {1, 2, 3, 4, 5, 6}],
    ids=["int", "float", "numpy-float", "0-d-array", "generator", "set"],
)
def test_fit_config_start_that_is_not_a_sequence_raises_domain_error_naming_it(start):
    with pytest.raises(DomainError, match=r"^start must be a sequence of six reals \(n_a, n_b, alpha, p1, p2a, p2b\), got "):
        FitConfig(start=start)


@pytest.mark.parametrize(
    "start", [(300, 300, 0.2, 0.5, 0.5, 0.5), [300.0] * 2 + [0.5] * 4, np.full(6, 0.5), range(1, 7)]
)
def test_fit_config_start_takes_any_sequence_of_six_reals(start):
    assert FitConfig(start=start).start is start
