"""The error contract for real-number arguments.

Every real parameter of a public type or function goes through
``core.check_real``: a string, ``None`` or a bool raises a ``DomainError``
that names the argument, never a bare ``TypeError``, and numpy floats are
real numbers like any other.  A value with no finite float (``10**400``,
+-inf, NaN) raises a ``DualrecError`` that names the argument, never a bare
``OverflowError``.  A table or a pair of the wrong type, and likelihood
parameters of the other model, and stratum parameters, a design or a
generator of the wrong type, raise ``DomainError``, never a bare
``AttributeError``.  A name argument that is not one of its strings (a list,
``None``, an int, an array) raises a ``DomainError`` that lists the valid
names, never a bare ``TypeError`` or ``ValueError``.

The closed forms that keep their domains (LP and NOUR on any table, MME-II
on any pair, with counts up to 10**9) either return finite estimates in
their domains, with every size at least its stratum's observed count, or
raise a ``DualrecError``.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrec.boot import bootstrap
from dualrec.classical import lincoln_petersen, nour, wolter_model1, wolter_model2
from dualrec.core import (
    BbmParams,
    CellProbabilities,
    DomainError,
    DrsTable,
    DualrecError,
    MtbParams,
    StratumPair,
    log_factorial,
    validate_pair,
    validate_table,
)
from dualrec.datasets import MEADOW_VOLES
from dualrec.mle import FitConfig, mle_model_i, mle_model_ii, profile_objective
from dualrec.mme import (
    delta_method_mean_variance,
    mme_asymptotic_mean_variance,
    mme_model_i,
    mme_model_ii,
)
from dualrec.model import (
    ModelIIParams,
    ModelIParams,
    cell_probabilities,
    loglik_model_i,
    loglik_model_i_grad,
    loglik_model_ii,
    loglik_model_ii_grad,
    marginals_and_covariance,
    p2_from_marginal,
    to_mtb,
)
from dualrec.sim import (
    DesignPoint, apply_method, design_from_preset, generate_pair, generate_stratum, run_study
)

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
    # kept as a tuple of floats, whatever sequence it came as
    kept = FitConfig(start=start).start
    assert type(kept) is tuple and kept == tuple(float(v) for v in start)
    assert all(type(v) is float for v in kept)


@pytest.mark.parametrize(
    "start", [[300.0, 300.0, 0.1, 0.5, 0.5, 0.5], np.full(6, 0.5), (300, 300, 0.1, 0.5, 0.5, 0.5)],
    ids=["list", "array", "tuple-of-ints"],
)
def test_fit_config_with_a_start_hashes_and_compares(start):
    # a list start made the config unhashable, and an array start made == raise
    config, again = FitConfig(start=start), FitConfig(start=start)
    assert config == again and hash(config) == hash(again)
    assert config == FitConfig(start=tuple(float(v) for v in start))
    assert config != FitConfig(start=(1.0, 2.0, 3.0, 0.5, 0.5, 0.5))
    assert len({config, again}) == 1


_TUPLE = (MEADOW_VOLES.a, MEADOW_VOLES.b)
_PAIR_ERROR = r"^data must be a StratumPair of two DrsTables, got "


@pytest.mark.parametrize(
    "call",
    [
        lambda data: mle_model_i(data),
        lambda data: mle_model_ii(data),
        lambda data: mme_model_i(data),
        lambda data: mme_model_ii(data),
        lambda data: wolter_model1(data, 1.2),
        lambda data: wolter_model2(data, 1.2),
        lambda data: bootstrap(data, "MME-I", b=10),
        lambda data: apply_method("MLE-I", data),
        lambda data: apply_method("LP", data),
        lambda data: apply_method("NOUR", data),
        lambda data: validate_pair(data),
    ],
    ids=["mle_model_i", "mle_model_ii", "mme_model_i", "mme_model_ii", "wolter_model1",
         "wolter_model2", "bootstrap", "apply_method-MLE-I", "apply_method-LP",
         "apply_method-NOUR", "validate_pair"],
)
@pytest.mark.parametrize(
    "data", [_TUPLE, None, StratumPair((1, 2, 3), (4, 5, 6)), StratumPair(MEADOW_VOLES.a, None)],
    ids=["tuple", "None", "pair-of-tuples", "pair-with-None"],
)
def test_a_pair_of_the_wrong_type_raises_domain_error(call, data):
    with pytest.raises(DomainError, match=_PAIR_ERROR):
        call(data)


@pytest.mark.parametrize("fn", [lincoln_petersen, nour, validate_table])
@pytest.mark.parametrize("table", [(1, 2, 3), None, MEADOW_VOLES], ids=["tuple", "None", "pair"])
def test_a_table_of_the_wrong_type_raises_domain_error(fn, table):
    with pytest.raises(DomainError, match=r"^a table must be a DrsTable, got "):
        fn(table)


_THETA = {"I": ModelIParams(300, 300, 0.2, 0.5, 0.5, 0.5),
          "II": ModelIIParams(300, 300, 0.2, 0.5, 0.5, 0.5)}
_LIKELIHOODS = {loglik_model_i: "I", loglik_model_i_grad: "I",
                loglik_model_ii: "II", loglik_model_ii_grad: "II"}


@pytest.mark.parametrize("fn", _LIKELIHOODS, ids=lambda fn: fn.__name__)
def test_likelihood_refuses_the_other_models_parameters_and_a_non_pair(fn):
    model = _LIKELIHOODS[fn]
    other = "II" if model == "I" else "I"
    fn(_THETA[model], MEADOW_VOLES)
    # loglik_model_i read a Model II alpha0 as alpha_a, and returned 40.215
    wrong = type(_THETA[other]).__name__
    with pytest.raises(DomainError, match=f"^model {model} takes {type(_THETA[model]).__name__}, got {wrong}$"):
        fn(_THETA[other], MEADOW_VOLES)
    for data in (_TUPLE, StratumPair((1, 2, 3), (4, 5, 6))):
        with pytest.raises(DomainError, match=_PAIR_ERROR):
            fn(_THETA[model], data)
    with pytest.raises(DomainError, match=_PAIR_ERROR):
        profile_objective(model, _TUPLE, _THETA[model], "n_a", [300.0])


_PARAMS = BbmParams(0.5, 0.5, 0.1, 100)
_DESIGN = design_from_preset("P1", "I", 120, 100, 0.4, replicates=2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: run_study("x", ("MME-I",)), "design must be a DesignPoint, got 'x'"),
        (lambda: to_mtb(None), "params must be a BbmParams, got None"),
        (lambda: cell_probabilities(None), "params must be a BbmParams, got None"),
        (lambda: marginals_and_covariance(None), "params must be a BbmParams, got None"),
        (lambda: generate_stratum(None, rng=np.random.default_rng(0)),
         "params must be a BbmParams, got None"),
        (lambda: generate_stratum(_PARAMS, rng=None), "rng must be a numpy Generator, got None"),
        (lambda: generate_pair(None, np.random.default_rng(0)),
         "design must be a DesignPoint, got None"),
        (lambda: generate_pair(_DESIGN, None), "rng must be a numpy Generator, got None"),
    ],
    ids=["run_study", "to_mtb", "cell_probabilities", "marginals_and_covariance",
         "generate_stratum-params", "generate_stratum-rng", "generate_pair-design",
         "generate_pair-rng"],
)
def test_params_design_or_generator_of_the_wrong_type_raises_domain_error(call, message):
    # each raised a bare AttributeError on its first field or method
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


_ESTIMATOR_NAMES = "LP, NOUR, MME-I, MLE-I, MME-II, MLE-II, WOLTER-1, WOLTER-2"
_LOGFAC_NAMES = "exact, stirling1, stirling3"

# each name argument: (its kind in the message, a call that passes the
# value, the valid names as listed)
_NAME_ARGUMENTS = {
    "apply_method": ("estimator", lambda v: apply_method(v, MEADOW_VOLES), _ESTIMATOR_NAMES),
    "run_study": ("estimator", lambda v: run_study(_DESIGN, (v,)), _ESTIMATOR_NAMES),
    "bootstrap-method": ("estimator", lambda v: bootstrap(MEADOW_VOLES, v, b=2), _ESTIMATOR_NAMES),
    "bootstrap-scheme": ("scheme", lambda v: bootstrap(MEADOW_VOLES, "MME-I", v, b=2),
                         "parametric, nonparametric"),
    "design_from_preset": ("preset", lambda v: design_from_preset(v, "I", 240, 200, 0.4),
                           "P1, P2, P3, P4, P5, P6"),
    "DesignPoint-model": ("model", lambda v: DesignPoint(0.6, 0.8, 0.6, 0.8, 0.4, 240, 200, v),
                          "I, II"),
    "profile-model": ("model",
                      lambda v: profile_objective(v, MEADOW_VOLES, _THETA["I"], "n_a", [300.0]),
                      "I, II"),
    "profile-component": ("component",
                          lambda v: profile_objective("I", MEADOW_VOLES, _THETA["I"], v, [300.0]),
                          "n_a, n_b, alpha_a, p1, p2a, p2b"),
    "FitConfig-logfac": ("fitting logfac", lambda v: FitConfig(logfac=v), "exact, stirling1"),
    "log_factorial": ("log-factorial mode", lambda v: log_factorial(3.0, v), _LOGFAC_NAMES),
    "loglik_model_i": ("log-factorial mode",
                       lambda v: loglik_model_i(_THETA["I"], MEADOW_VOLES, v), _LOGFAC_NAMES),
}


@pytest.mark.parametrize("value", [[], {}, None, 1, "bogus", np.array(["I", "exact"])],
                         ids=["list", "dict", "None", "int", "bogus", "array"])
@pytest.mark.parametrize("argument", _NAME_ARGUMENTS)
def test_a_name_argument_refuses_anything_but_its_names(argument, value):
    # apply_method([], pair), bootstrap(pair, []) and design_from_preset([], ...)
    # looked the list up in a dict and raised a bare TypeError (unhashable);
    # log_factorial compared an array with each mode, a bare ValueError
    kind, call, names = _NAME_ARGUMENTS[argument]
    message = f"^unknown {kind} {re.escape(repr(value))}; valid: {re.escape(names)}$"
    with pytest.raises(DomainError, match=message):
        call(value)


@pytest.mark.parametrize("n", [0, 0.0])
def test_log_factorial_checks_its_mode_at_zero(n):
    # n == 0 returned 0.0 before the mode was looked at
    with pytest.raises(DomainError, match=f"^unknown log-factorial mode 'bogus'; valid: {_LOGFAC_NAMES}$"):
        log_factorial(n, "bogus")


_TABLES = st.tuples(*[st.integers(0, 10**9)] * 3).map(lambda cells: DrsTable(*cells))


def _returns_in_domain_or_raises(fn, data, x0s: dict) -> None:
    """``fn(data)`` raises a DualrecError, or returns finite estimates whose
    sizes, rounded and unrounded, are at least the counts ``x0s`` names, with
    each p in (0, 1) and alpha in [0, 1]."""
    try:
        fit = fn(data)
    except DualrecError:
        return
    est = fit.estimates
    assert all(math.isfinite(v) for v in est.values())
    for key, x0 in x0s.items():
        assert est[key] >= x0 and fit.diagnostics[f"{key}_unrounded"] >= x0
    assert all(0.0 < est[key] < 1.0 for key in ("p1", "p2a", "p2b") if key in est)
    assert 0.0 <= est.get("alpha", 0.0) <= 1.0


@pytest.mark.parametrize("fn", [lincoln_petersen, nour], ids=["LP", "NOUR"])
@given(table=_TABLES)
@settings(max_examples=150, deadline=None)
def test_single_stratum_closed_form_returns_in_its_domain_or_raises(fn, table):
    _returns_in_domain_or_raises(fn, table, {"n": table.x0})


@given(a=_TABLES, b=_TABLES)
@settings(max_examples=150, deadline=None)
def test_moment_model_ii_returns_in_its_domain_or_raises(a, b):
    _returns_in_domain_or_raises(mme_model_ii, StratumPair(a, b), {"n_a": a.x0, "n_b": b.x0})
