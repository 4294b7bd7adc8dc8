"""Tests for the dependent-capture cell model and the joint log-likelihoods."""

import math
import re

import numpy as np
import pytest

from dualrec.core import (
    BbmParams,
    DegenerateDependence,
    DomainError,
    DrsTable,
    InfeasibleN,
    MtbParams,
    OutOfRange,
    StratumPair,
    lfac_ratio,
    log_factorial,
)
from dualrec.datasets import DATASETS
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
    p2_from_marginal,
    to_mtb,
)
from dualrec.model import _loglik_kernel

VOLES = StratumPair(DrsTable(46, 20, 11), DrsTable(54, 5, 13))


def test_cells_reduce_to_independence_at_alpha_zero():
    cells = cell_probabilities(BbmParams(p1=0.5, p2=0.5, alpha=0.0, n=100))
    assert cells.as_tuple() == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-15)


def test_cells_worked_example_positive():
    cells = cell_probabilities(BbmParams(p1=0.6, p2=0.8, alpha=0.4, n=100))
    assert cells.p11 == pytest.approx(0.528, abs=1e-12)
    assert cells.p10 == pytest.approx(0.072, abs=1e-12)
    assert cells.p01 == pytest.approx(0.192, abs=1e-12)
    assert cells.p00 == pytest.approx(0.208, abs=1e-12)


def test_cells_full_dependence_collapses_to_diagonal():
    cells = cell_probabilities(BbmParams(p1=0.6, p2=0.3, alpha=1.0, n=100))
    assert cells.as_tuple() == pytest.approx((0.6, 0.0, 0.0, 0.4), abs=1e-15)


def test_cells_full_negative_dependence_collapses_to_off_diagonal():
    cells = cell_probabilities(
        BbmParams(p1=0.6, p2=0.3, alpha=1.0, n=100), DependenceSign.NEGATIVE
    )
    assert cells.as_tuple() == pytest.approx((0.0, 0.6, 0.4, 0.0), abs=1e-15)


def test_cells_normalise_for_random_parameters_both_signs():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        params = BbmParams(
            p1=float(rng.uniform(0.01, 0.99)),
            p2=float(rng.uniform(0.01, 1.0)),
            alpha=float(rng.uniform(0.0, 1.0)),
            n=100,
        )
        for sign in DependenceSign:
            cells = cell_probabilities(params, sign)
            assert sum(cells.as_tuple()) == pytest.approx(1.0, abs=1e-12)
            assert min(cells.as_tuple()) >= -1e-15


def test_cells_match_individual_level_simulation():
    # simulate the latent mechanism directly: each unit draws list taps
    # X1, X2 and a tie indicator; the tie replaces the List 2 outcome with
    # the List 1 outcome (or its complement, under negative dependence)
    rng = np.random.default_rng(42)
    n = 1_000_000
    p1, p2, alpha = 0.6, 0.8, 0.4
    x1 = rng.random(n) < p1
    x2 = rng.random(n) < p2
    tied = rng.random(n) < alpha
    params = BbmParams(p1=p1, p2=p2, alpha=alpha, n=n)

    z_pos = np.where(tied, x1, x2)
    freq = (
        float(np.mean(x1 & z_pos)),
        float(np.mean(x1 & ~z_pos)),
        float(np.mean(~x1 & z_pos)),
        float(np.mean(~x1 & ~z_pos)),
    )
    assert freq == pytest.approx(cell_probabilities(params).as_tuple(), abs=3e-3)

    z_neg = np.where(tied, ~x1, x2)
    freq = (
        float(np.mean(x1 & z_neg)),
        float(np.mean(x1 & ~z_neg)),
        float(np.mean(~x1 & z_neg)),
        float(np.mean(~x1 & ~z_neg)),
    )
    cells = cell_probabilities(params, DependenceSign.NEGATIVE)
    assert freq == pytest.approx(cells.as_tuple(), abs=3e-3)


def test_marginals_and_covariance_worked_example():
    params = BbmParams(p1=0.6, p2=0.8, alpha=0.4, n=100)
    m = marginals_and_covariance(params)
    assert m.p_y == pytest.approx(0.6)
    assert m.p_z == pytest.approx(0.72, abs=1e-12)
    assert m.cov == pytest.approx(0.096, abs=1e-12)
    neg = marginals_and_covariance(params, DependenceSign.NEGATIVE)
    assert neg.cov == pytest.approx(-0.096, abs=1e-12)


def test_marginals_agree_with_cells():
    rng = np.random.default_rng(11)
    for _ in range(300):
        params = BbmParams(
            p1=float(rng.uniform(0.05, 0.95)),
            p2=float(rng.uniform(0.05, 0.95)),
            alpha=float(rng.uniform(0.0, 1.0)),
            n=50,
        )
        for sign in DependenceSign:
            cells = cell_probabilities(params, sign)
            m = marginals_and_covariance(params, sign)
            assert cells.p11 + cells.p10 == pytest.approx(m.p_y, abs=1e-12)
            assert cells.p11 + cells.p01 == pytest.approx(m.p_z, abs=1e-12)
            assert cells.p11 - m.p_y * m.p_z == pytest.approx(m.cov, abs=1e-12)


def test_to_mtb_worked_example():
    mtb = to_mtb(BbmParams(p1=0.6, p2=0.8, alpha=0.4, n=100))
    assert mtb.p == pytest.approx(0.48, abs=1e-12)
    assert mtb.phi == pytest.approx(1.0 + 0.4 / 0.48, abs=1e-12)
    assert mtb.c == pytest.approx(0.88, abs=1e-12)
    assert mtb.p1dot == pytest.approx(0.6)
    # recapture probability equals the conditional capture-in-2-given-1
    cells = cell_probabilities(BbmParams(p1=0.6, p2=0.8, alpha=0.4, n=100))
    assert mtb.c == pytest.approx(cells.p11 / 0.6, abs=1e-12)


@pytest.mark.parametrize("sign", ["positive", "negative", None, True])
def test_sign_must_be_a_dependence_sign(sign):
    # any other value used to select the negative-dependence formulas
    params = BbmParams(p1=0.6, p2=0.5, alpha=0.4, n=100)
    for f in (cell_probabilities, marginals_and_covariance):
        with pytest.raises(DomainError, match=f"^sign must be a DependenceSign, got {sign!r}$"):
            f(params, sign)


def test_to_mtb_keeps_recapture_probability_in_unit_interval_at_p2_one():
    # c = p + alpha is exactly 1 at p2 = 1, yet phi * p rounds above 1 for
    # about 4% of alphas; MtbParams refuses c > 1
    for alpha in np.linspace(0.0, 0.999, 20000):
        mtb = to_mtb(BbmParams(p1=0.6, p2=1.0, alpha=float(alpha), n=100))
        assert 0.0 < mtb.p <= 1.0 and 0.0 < mtb.c <= 1.0


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(p1dot=5.0, p=-1.0, c=-2.0, phi=2.0), "p1dot must be in (0,1), got 5.0"),
        (dict(p1dot=0.6, p=-1.0, c=-2.0, phi=2.0), "p must be in (0,1], got -1.0"),
        (dict(p1dot=0.6, p=0.25, c=1.5, phi=6.0), "c must be in (0,1], got 1.5"),
        (dict(p1dot=0.6, p=0.0, c=0.0, phi=2.0), "p must be in (0,1], got 0.0"),
    ],
)
def test_mtb_params_bound_their_probabilities(fields, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        MtbParams(**fields)


def test_mtb_params_refuse_a_recapture_probability_off_phi_times_p():
    with pytest.raises(DomainError, match=r"^c must equal phi \* p$"):
        MtbParams(p1dot=0.5, p=0.5, c=0.6, phi=1.0)


def test_to_mtb_rejects_full_dependence():
    with pytest.raises(DegenerateDependence):
        to_mtb(BbmParams(p1=0.6, p2=0.8, alpha=1.0, n=100))


@pytest.mark.parametrize("p2", [5e-324, 1e-310])
def test_to_mtb_rejects_a_response_ratio_past_the_float_range(p2):
    # (1 - alpha) * p2 underflows to 0 at 5e-324, and alpha / p overflows to
    # inf at 1e-310; both once failed with a bare ZeroDivisionError or a
    # misleading "c must equal phi * p"
    with pytest.raises(DegenerateDependence, match="has no finite response ratio"):
        to_mtb(BbmParams(0.6, p2, 0.5, 100))


@pytest.mark.parametrize("alpha", [1.5, 1.0 + 1e-9, -0.1, math.nan])
def test_p2_from_marginal_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(DomainError) as err:
        p2_from_marginal(0.8, 0.6, alpha)
    assert str(err.value) == f"alpha must be in [0,1], got {alpha}"


def test_p2_from_marginal_rounds_float_fuzz_onto_one():
    # (0.9575 - 0.05 * 0.15) / 0.95 is 1.0000000000000002 in floats
    assert (0.9575 - 0.05 * 0.15) / (1.0 - 0.05) > 1.0
    assert p2_from_marginal(0.9575, 0.15, 0.05) == 1.0


def test_p2_from_marginal_inverts_and_rejects():
    assert p2_from_marginal(0.72, 0.6, 0.4) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(OutOfRange):
        p2_from_marginal(0.5, 0.8, 0.8)
    with pytest.raises(DegenerateDependence):
        p2_from_marginal(0.5, 0.5, 1.0)
    # round trip against the forward marginal map
    rng = np.random.default_rng(5)
    for _ in range(200):
        p1 = float(rng.uniform(0.05, 0.95))
        p2 = float(rng.uniform(0.05, 1.0))
        a = float(rng.uniform(0.0, 0.95))
        m = marginals_and_covariance(BbmParams(p1=p1, p2=p2, alpha=a, n=10))
        assert p2_from_marginal(m.p_z, p1, a) == pytest.approx(p2, abs=1e-10)


def test_param_types_validate_domains():
    with pytest.raises(DomainError):
        ModelIParams(n_a=100, n_b=100, alpha_a=1.2, p1=0.5, p2a=0.5, p2b=0.5)
    with pytest.raises(DomainError):
        ModelIParams(n_a=-5, n_b=100, alpha_a=0.2, p1=0.5, p2a=0.5, p2b=0.5)
    for size in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ModelIParams(n_a=size, n_b=100, alpha_a=0.2, p1=0.5, p2a=0.5, p2b=0.5)
        with pytest.raises(DomainError):
            ModelIIParams(n_a=100, n_b=size, alpha0=0.2, p1=0.5, p2a=0.5, p2b=0.5)
    with pytest.raises(DomainError):
        ModelIIParams(n_a=100, n_b=100, alpha0=0.2, p1=1.0, p2a=0.5, p2b=0.5)


@pytest.mark.parametrize("params", [ModelIParams, ModelIIParams])
@pytest.mark.parametrize("name", ["n_a", "n_b"])
def test_param_types_refuse_a_size_with_no_float(params, name):
    # 10**400 passed the range check, and an exact log-likelihood or any
    # gradient then let a bare OverflowError out
    sizes = {"n_a": 300, "n_b": 300}
    # a value too long to print is left out of the message
    for size, shown in ((10**400, ", got 1000"), (10**5000, "$")):
        sizes[name] = size
        message = rf"^{name} must be in \(0,inf\) and the float range{shown}"
        with pytest.raises(DomainError, match=message):
            params(sizes["n_a"], sizes["n_b"], 0.2, 0.5, 0.5, 0.5)


@pytest.mark.parametrize(("loglik", "params", "sizes", "mode", "name"), [
    # lgamma's OverflowError once escaped the exact forms
    (loglik_model_ii, ModelIIParams, (1e308, 1e308), "exact", "n_a"),
    (loglik_model_i, ModelIParams, (3e305, 100), "exact", "n_a"),
    (loglik_model_i, ModelIParams, (100, 3e305), "exact", "n_b"),
    # the Stirling forms once returned NaN from inf - inf
    (loglik_model_i, ModelIParams, (1e307, 100), "stirling1", "n_a"),
    (loglik_model_i, ModelIParams, (1e307, 100), "stirling3", "n_a"),
    (loglik_model_ii, ModelIIParams, (100, 1e307), "stirling1", "n_b"),
    # the gradient shares the value's domain
    (loglik_model_i_grad, ModelIParams, (1e308, 100), "exact", "n_a"),
    (loglik_model_ii_grad, ModelIIParams, (100, 1e307), "stirling1", "n_b"),
])
def test_likelihood_refuses_a_size_whose_log_factorial_overflows(loglik, params, sizes, mode, name):
    theta = params(*sizes, 0.2, 0.5, 0.5, 0.5)
    size = re.escape(str(sizes[name == "n_b"]))
    message = f"^{name} = {size} is too large: its {mode} log-factorial"
    with pytest.raises(DomainError, match=message):
        loglik(theta, VOLES, mode)
    # just inside the float range every form has a value
    assert math.isfinite(loglik_model_i(ModelIParams(2.5e305, 2.5e305, 0.2, 0.5, 0.5, 0.5),
                                        VOLES, mode))


@pytest.mark.parametrize("grad, params", [(loglik_model_i_grad, ModelIParams),
                                          (loglik_model_ii_grad, ModelIIParams)])
def test_gradient_at_full_dependence(grad, params):
    # c_alpha / (1 - alpha) once raised a bare ZeroDivisionError at alpha = 1,
    # where the log-likelihood is -inf: its alpha term is -inf where c_alpha
    # (the counts of one-list cells alpha ties) is positive, else 0.0
    theta = params(77, 72, 1.0, 0.5, 0.5, 0.5)
    g = grad(theta, VOLES)
    assert g[2] == -math.inf
    assert all(math.isfinite(v) for i, v in enumerate(g) if i != 2)
    both_lists = StratumPair(DrsTable(50, 0, 0), DrsTable(40, 0, 0))
    theta = params(60, 50, 1.0, 0.5, 0.5, 0.5)
    # r11 = r00 = 1, so the alpha component is (n_a - x0A) p2a plus, where
    # alpha is shared (Model II), (n_b - x0B) p2b; a11 and b11 weigh 1 - p2 = 0.5
    tied = params is ModelIIParams
    expected = 50 * 0.5 + tied * 40 * 0.5 + 10 * 0.5 + tied * 10 * 0.5
    assert grad(theta, both_lists)[2] == expected


def test_loglik_rejects_sizes_below_observed_totals():
    theta = ModelIParams(n_a=50, n_b=100, alpha_a=0.2, p1=0.5, p2a=0.5, p2b=0.5)
    with pytest.raises(InfeasibleN):
        loglik_model_i(theta, VOLES)
    theta2 = ModelIIParams(n_a=100, n_b=60, alpha0=0.2, p1=0.5, p2a=0.5, p2b=0.5)
    with pytest.raises(InfeasibleN):
        loglik_model_ii(theta2, VOLES)


def test_loglik_gradient_rejects_unknown_factorial_mode():
    theta = ModelIParams(n_a=300, n_b=300, alpha_a=0.2, p1=0.5, p2a=0.5, p2b=0.5)
    with pytest.raises(DomainError, match="unknown log-factorial mode 'bogus'"):
        loglik_model_i_grad(theta, VOLES, logfac="bogus")
    # the mode is checked when its ratio is bound, before any evaluation
    with pytest.raises(DomainError, match="^unknown log-factorial mode 'bogus'; valid: exact, stirling1, stirling3$"):
        lfac_ratio("bogus")


def test_models_coincide_when_dependence_vanishes():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p1 = float(rng.uniform(0.2, 0.8))
        p2a = float(rng.uniform(0.2, 0.8))
        p2b = float(rng.uniform(0.2, 0.8))
        n_a = float(rng.uniform(100, 300))
        n_b = float(rng.uniform(100, 300))
        li = loglik_model_i(
            ModelIParams(n_a=n_a, n_b=n_b, alpha_a=0.0, p1=p1, p2a=p2a, p2b=p2b),
            VOLES,
        )
        lii = loglik_model_ii(
            ModelIIParams(n_a=n_a, n_b=n_b, alpha0=0.0, p1=p1, p2a=p2a, p2b=p2b),
            VOLES,
        )
        assert li == pytest.approx(lii, abs=1e-9)


def test_loglik_factorial_modes_agree_at_large_sizes():
    theta = ModelIIParams(n_a=900, n_b=800, alpha0=0.3, p1=0.5, p2a=0.6, p2b=0.7)
    exact = loglik_model_ii(theta, VOLES, logfac="exact")
    three = loglik_model_ii(theta, VOLES, logfac="stirling3")
    assert three == pytest.approx(exact, abs=1e-3)


def _fd_grad(fun, theta_vals, steps):
    grad = []
    for j, h in enumerate(steps):
        up = list(theta_vals)
        dn = list(theta_vals)
        up[j] += h
        dn[j] -= h
        grad.append((fun(up) - fun(dn)) / (2.0 * h))
    return grad


@pytest.mark.parametrize("logfac", ["exact", "stirling1", "stirling3"])
def test_model_i_gradient_matches_finite_differences(logfac):
    rng = np.random.default_rng(23)
    for _ in range(20):
        vals = [
            float(rng.uniform(120.0, 400.0)),
            float(rng.uniform(120.0, 400.0)),
            float(rng.uniform(0.05, 0.9)),
            float(rng.uniform(0.2, 0.8)),
            float(rng.uniform(0.2, 0.8)),
            float(rng.uniform(0.2, 0.8)),
        ]

        def fun(v):
            return loglik_model_i(ModelIParams(*v), VOLES, logfac=logfac)

        steps = [1e-4 * vals[0], 1e-4 * vals[1], 1e-6, 1e-6, 1e-6, 1e-6]
        fd = _fd_grad(fun, vals, steps)
        an = loglik_model_i_grad(ModelIParams(*vals), VOLES, logfac=logfac)
        for g_fd, g_an in zip(fd, an):
            assert g_an == pytest.approx(g_fd, rel=1e-4, abs=1e-4)


@pytest.mark.parametrize("logfac", ["exact", "stirling1", "stirling3"])
def test_model_ii_gradient_matches_finite_differences(logfac):
    rng = np.random.default_rng(29)
    for _ in range(20):
        vals = [
            float(rng.uniform(120.0, 400.0)),
            float(rng.uniform(120.0, 400.0)),
            float(rng.uniform(0.05, 0.9)),
            float(rng.uniform(0.2, 0.8)),
            float(rng.uniform(0.2, 0.8)),
            float(rng.uniform(0.2, 0.8)),
        ]

        def fun(v):
            return loglik_model_ii(ModelIIParams(*v), VOLES, logfac=logfac)

        steps = [1e-4 * vals[0], 1e-4 * vals[1], 1e-6, 1e-6, 1e-6, 1e-6]
        fd = _fd_grad(fun, vals, steps)
        an = loglik_model_ii_grad(ModelIIParams(*vals), VOLES, logfac=logfac)
        for g_fd, g_an in zip(fd, an):
            assert g_an == pytest.approx(g_fd, rel=1e-4, abs=1e-4)


def test_loglik_prefers_compatible_sizes():
    # with the probability parameters held fixed, the likelihood in n peaks
    # near the size implied by the never-captured share, x0 / (1 - p00),
    # beating both a barely feasible and a wildly large population
    alpha, p1, p2a, p2b = 0.3, 0.5, 0.6, 0.7
    p00a = (1.0 - p1) * (alpha + (1.0 - alpha) * (1.0 - p2a))
    p00b = (1.0 - p1) * (1.0 - p2b)
    n_a_peak = VOLES.a.x0 / (1.0 - p00a)
    n_b_peak = VOLES.b.x0 / (1.0 - p00b)

    def at(n_a, n_b):
        theta = ModelIParams(n_a=n_a, n_b=n_b, alpha_a=alpha, p1=p1, p2a=p2a, p2b=p2b)
        return loglik_model_i(theta, VOLES)

    peak = at(n_a_peak, n_b_peak)
    assert peak > at(VOLES.a.x0 + 1.0, n_b_peak)
    assert peak > at(10.0 * n_a_peak, n_b_peak)
    assert peak > at(n_a_peak, VOLES.b.x0 + 1.0)
    assert peak > at(n_a_peak, 10.0 * n_b_peak)


def _xlog(coef, x):
    # coef * log(x) with the 0 * log(0) = 0 convention
    if coef == 0.0:
        return 0.0
    if x <= 0.0:
        return -math.inf
    return coef * math.log(x)


def _lfac_ratio(n, x0, mode):
    # log(n! / (n - x0)!): log-gamma down to n > x0 - 1 in exact mode, two
    # log_factorial calls walled off below n = x0 in the Stirling modes
    if mode == "exact":
        v = n - x0 + 1.0
        if v <= 0.0:
            return -math.inf
        return math.lgamma(n + 1.0) - math.lgamma(v)
    if n - x0 < 0.0:
        return -math.inf
    return log_factorial(n, mode) - log_factorial(n - x0, mode)


def _reference_loglik(pair, mode, tied, n_a, n_b, alpha, p1, p2a, p2b):
    # the log-likelihood term by term, one _xlog call a term, in the order
    # of additions the kernel must keep; tied=False (Model I) sets stratum
    # B's dependence to 0
    A, B = pair.a, pair.b
    alpha_b = alpha if tied else 0.0
    r11a = alpha + (1.0 - alpha) * p2a
    r00a = alpha + (1.0 - alpha) * (1.0 - p2a)
    r11b = alpha_b + (1.0 - alpha_b) * p2b
    r00b = alpha_b + (1.0 - alpha_b) * (1.0 - p2b)
    value = _lfac_ratio(n_a, A.x0, mode) + _lfac_ratio(n_b, B.x0, mode)
    value += _xlog(A.x11, p1 * r11a) + _xlog(B.x11, p1 * r11b)
    value += _xlog(A.x10 + B.x10, p1)
    value += _xlog(A.x01 + B.x01, 1.0 - p1)
    value += _xlog(A.x01, p2a) + _xlog(B.x01, p2b)
    value += _xlog(A.x10, 1.0 - p2a) + _xlog(B.x10, 1.0 - p2b)
    value += _xlog(A.x10 + A.x01 + (B.x10 + B.x01 if tied else 0), 1.0 - alpha)
    value += _xlog(n_a - A.x0, (1.0 - p1) * r00a)
    value += _xlog(n_b - B.x0, (1.0 - p1) * r00b)
    return value


def _model_ii_sums(n_a, n_b, alpha, p1, p2a, p2b, pair, mode):
    # Model II's log-likelihood and gradient written out as separate sums, in
    # the order the shared kernel must keep.
    A, B = pair.a, pair.b
    r11a = alpha + (1.0 - alpha) * p2a
    r00a = alpha + (1.0 - alpha) * (1.0 - p2a)
    r11b = alpha + (1.0 - alpha) * p2b
    r00b = alpha + (1.0 - alpha) * (1.0 - p2b)
    value = _reference_loglik(pair, mode, True, n_a, n_b, alpha, p1, p2a, p2b)
    dlfac = lfac_ratio(mode)[1]
    grad = [
        dlfac(n_a, A.x0) + math.log((1.0 - p1) * r00a),
        dlfac(n_b, B.x0) + math.log((1.0 - p1) * r00b),
        A.x11 * (1.0 - p2a) / r11a
        + B.x11 * (1.0 - p2b) / r11b
        - (A.x10 + A.x01 + B.x10 + B.x01) / (1.0 - alpha)
        + (n_a - A.x0) * p2a / r00a
        + (n_b - B.x0) * p2b / r00b,
        (A.x11 + B.x11 + A.x10 + B.x10) / p1
        - (A.x01 + B.x01 + n_a - A.x0 + n_b - B.x0) / (1.0 - p1),
        A.x11 * (1.0 - alpha) / r11a
        + A.x01 / p2a
        - A.x10 / (1.0 - p2a)
        - (n_a - A.x0) * (1.0 - alpha) / r00a,
        B.x11 * (1.0 - alpha) / r11b
        + B.x01 / p2b
        - B.x10 / (1.0 - p2b)
        - (n_b - B.x0) * (1.0 - alpha) / r00b,
    ]
    return value, [float(g) for g in grad]


# 200 random interior points per case, compared with ==, because any
# regrouping of Model II's sums moves converged MLE-II fits on flat objectives
# by far more than the last bit (the benchmark's reference fit 0/7, P3 at
# n_b = 10^4, moved 0.26% in n_a), and no other test sees a last-bit change.
# Both sides share the same libm, so only a change in the order of the
# arithmetic can fail this test.
@pytest.mark.parametrize("logfac", ["exact", "stirling1"])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_model_ii_arithmetic_is_pinned(name, logfac):
    pair = DATASETS[name]
    rng = np.random.default_rng(20)
    for _ in range(200):
        sizes = (1.0 + 3.0 * rng.random(2)) * (pair.a.x0, pair.b.x0)
        theta = ModelIIParams(*sizes, *rng.uniform(0.02, 0.98, 4))
        value, grad = _model_ii_sums(*vars(theta).values(), pair, logfac)
        assert loglik_model_ii(theta, pair, logfac) == value
        assert loglik_model_ii_grad(theta, pair, logfac) == grad


# a zero in each count cell in turn, all but the both-lists cells zero, no
# one seen in stratum B, and only stratum A's both-lists cell
_KERNEL_PAIRS = [
    VOLES,
    StratumPair(DrsTable(0, 20, 11), DrsTable(54, 5, 13)),
    StratumPair(DrsTable(46, 0, 11), DrsTable(54, 5, 13)),
    StratumPair(DrsTable(46, 20, 0), DrsTable(54, 5, 13)),
    StratumPair(DrsTable(46, 20, 11), DrsTable(0, 5, 13)),
    StratumPair(DrsTable(46, 20, 11), DrsTable(54, 0, 13)),
    StratumPair(DrsTable(46, 20, 11), DrsTable(54, 5, 0)),
    StratumPair(DrsTable(46, 0, 0), DrsTable(54, 0, 0)),
    StratumPair(DrsTable(46, 20, 11), DrsTable(0, 0, 0)),
    StratumPair(DrsTable(46, 0, 0), DrsTable(0, 0, 0)),
]
_CLIP = 1e-8


def _kernel_points(pair, mode, rng):
    x0a, x0b = pair.a.x0, pair.b.x0
    # random points as Python floats, sizes from x0 - 1 to about six times x0
    for _ in range(40):
        u, v = rng.random(2).tolist()
        yield (x0a - 1.0 + 5.0 * u * (x0a + 1), x0b - 1.0 + 5.0 * v * (x0b + 1),
               *rng.uniform(0.0, 1.0, 4).tolist())
    inner = (0.3, 0.4, 0.6, 0.7)
    # each size at its count (a zero coefficient), as an int and as a float,
    # and for exact mode strictly between x0 - 1 and x0 (a negative one)
    yield (x0a, x0b + 7, *inner)
    yield (float(x0a), float(x0b), *inner)
    yield (x0a + 3.0, float(x0b), *inner)
    if mode == "exact":
        yield (x0a - 0.5, x0b - 0.25, *inner)
        yield (x0a - 1.0 + 1e-12, x0b + 2.0, *inner)
    # probabilities on the fit's clip, each way
    for p in (_CLIP, 1.0 - _CLIP):
        yield (x0a + 5.0, x0b + 5.0, p, p, p, p)
        yield (x0a + 5.0, x0b + 5.0, 0.5, p, 1.0 - p, p)
    # probabilities of 0 and 1, where a term's log is of 0: -inf, or 0.0
    # where its coefficient is 0 (at n = x0 for the never-seen cells)
    for p in (0.0, 1.0):
        yield (x0a + 5.0, x0b + 5.0, 0.3, p, p, p)
        yield (x0a + 5.0, x0b + 5.0, 0.3, 0.4, p, 1.0 - p)
        yield (float(x0a), float(x0b), 0.3, p, 0.5, 0.5)
    # no dependence, and full dependence, whose log(1 - alpha) term is -inf
    for alpha in (0.0, 1.0):
        yield (x0a + 5.0, x0b + 5.0, alpha, 0.4, 0.6, 0.7)
    # a NaN probability: a term of NaN is NaN, not -inf, which shows where
    # the both-lists cells' terms are the only ones left
    yield (float(x0a), float(x0b), 0.3, math.nan, 0.6, 0.7)
    # a size of no float, an infinite size and a NaN size
    for size in (10**400, math.inf, math.nan):
        yield (size, x0b + 5.0, 0.3, 0.4, 0.6, 0.7)
        yield (x0a + 5.0, size, 0.3, 0.4, 0.6, 0.7)


def _outcome(loglik, point):
    try:
        return float.hex(loglik(*point))
    except (DomainError, OverflowError) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("mode", ["stirling1", "exact", "stirling3"])
@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("pair", _KERNEL_PAIRS)
def test_loglik_kernel_keeps_the_term_by_term_bits(pair, tied, mode):
    loglik = _loglik_kernel(pair, mode, tied)[0]
    rng = np.random.default_rng(7)
    for point in _kernel_points(pair, mode, rng):
        expected = _outcome(lambda *p: _reference_loglik(pair, mode, tied, *p), point)
        assert _outcome(loglik, point) == expected, point
    # log_factorial refuses an infinite or NaN size in the Stirling modes
    if mode != "exact":
        for size in (math.inf, math.nan):
            with pytest.raises(DomainError, match="^log_factorial requires a finite n >= 0"):
                loglik(size, pair.b.x0 + 5.0, 0.3, 0.4, 0.6, 0.7)
