"""Tests for the likelihood fits of both two-stratum models."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dualrec.core import DomainError, DrsTable, InfeasibleN, StratumPair
from dualrec.datasets import CHILDREN_DEATH, ENCEPHALITIS, MEADOW_VOLES
import dualrec.mle
import dualrec.model
from dualrec.mle import (
    FitConfig,
    mle_model_i,
    mle_model_ii,
    profile_objective,
)
from dualrec.mme import mme_model_i, mme_model_ii
from dualrec.model import (
    ModelIIParams,
    ModelIParams,
    loglik_model_i,
    loglik_model_i_grad,
    loglik_model_ii,
)
import dualrec.sim as sim


def test_model_i_children_death_golden():
    fit = mle_model_i(CHILDREN_DEATH)
    assert abs(fit.estimates["n_a"] - 269) <= 1
    assert abs(fit.estimates["n_b"] - 275) <= 1
    assert fit.estimates["alpha"] == pytest.approx(0.070, abs=0.01)
    assert fit.diagnostics["converged"] is True
    assert fit.diagnostics["grad_norm"] <= 1e-3
    assert fit.diagnostics["logfac"] == "stirling1"


def test_model_i_children_death_tracks_moment_solution():
    # under the default first-order objective the fitted sizes sit on the
    # moment solution
    fit = mle_model_i(CHILDREN_DEATH)
    mm = mme_model_i(CHILDREN_DEATH)
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(
        mm.diagnostics["n_a_unrounded"], abs=1e-2
    )
    assert fit.estimates["alpha"] == pytest.approx(mm.estimates["alpha"], abs=1e-3)


def test_model_i_children_death_exact_objective():
    fit = mle_model_i(CHILDREN_DEATH, FitConfig(logfac="exact"))
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(254.32, abs=0.05)
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(262.46, abs=0.05)
    assert fit.estimates["alpha"] == pytest.approx(0.0518, abs=0.002)


def test_model_ii_voles_matches_moment_solution():
    fit = mle_model_ii(MEADOW_VOLES)
    mm = mme_model_ii(MEADOW_VOLES)
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(
        mm.diagnostics["n_a_unrounded"], abs=1e-2
    )
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(
        mm.diagnostics["n_b_unrounded"], abs=1e-2
    )
    assert fit.estimates["alpha"] == pytest.approx(mm.estimates["alpha"], abs=1e-3)
    assert fit.diagnostics["grad_norm"] <= 1e-3


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published reference point (85, 75, alpha 0.108) is not a stationary "
        "point of either likelihood mode on this data; both objectives are "
        "strictly higher at the moment solution (82.2, 73.5, alpha 0.019)"
    ),
)
def test_model_ii_voles_published_reference_point():
    fit = mle_model_ii(MEADOW_VOLES)
    assert abs(fit.estimates["n_a"] - 85) <= 2
    assert abs(fit.estimates["n_b"] - 75) <= 2
    assert fit.estimates["alpha"] == pytest.approx(0.108, abs=0.03)


def test_known_ratio_holds_exactly():
    fit = mle_model_i(MEADOW_VOLES, FitConfig(known_ratio=1.2))
    d = fit.diagnostics
    assert d["n_a_unrounded"] / d["n_b_unrounded"] == pytest.approx(1.2, rel=1e-12)
    fit = mle_model_ii(MEADOW_VOLES, FitConfig(known_ratio=1.147))
    d = fit.diagnostics
    assert d["n_a_unrounded"] / d["n_b_unrounded"] == pytest.approx(1.147, rel=1e-12)


def test_model_i_reduces_to_independence_at_alpha_zero():
    # expected-count tables generated with no dependence
    pair = StratumPair(DrsTable(600, 600, 400), DrsTable(630, 270, 420))
    fit = mle_model_i(pair)
    assert fit.estimates["alpha"] < 0.02
    lp_a = pair.a.x1dot * pair.a.xdot1 / pair.a.x11
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(lp_a, rel=0.01)


def test_model_ii_forward_oracle_recovers_parameters():
    # expected cells at p1=0.6, alpha0=0.4, p2a=0.8, p2b=0.55, sizes 12000/10000
    pair = StratumPair(DrsTable(6336, 864, 2304), DrsTable(4380, 1620, 1320))
    fit = mle_model_ii(pair)
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(12000.0, rel=1e-2)
    assert fit.diagnostics["n_b_unrounded"] == pytest.approx(10000.0, rel=1e-2)
    assert fit.estimates["p1"] == pytest.approx(0.6, rel=1e-2)
    assert fit.estimates["alpha"] == pytest.approx(0.4, rel=1e-2)
    assert fit.estimates["p2a"] == pytest.approx(0.8, rel=1e-2)
    assert fit.estimates["p2b"] == pytest.approx(0.55, rel=1e-2)


def test_fit_never_worse_than_supplied_start():
    start = (300.0, 250.0, 0.3, 0.5, 0.6, 0.7)
    cfg = FitConfig(start=start)
    fit = mle_model_i(MEADOW_VOLES, cfg)
    at_start = loglik_model_i(
        ModelIParams(*start), MEADOW_VOLES, logfac=cfg.logfac
    )
    assert fit.diagnostics["objective"] >= at_start - 1e-9

    fit = mle_model_ii(MEADOW_VOLES, cfg)
    at_start = loglik_model_ii(
        ModelIIParams(*start), MEADOW_VOLES, logfac=cfg.logfac
    )
    assert fit.diagnostics["objective"] >= at_start - 1e-9


def test_fit_never_worse_than_default_moment_start():
    fit = mle_model_i(CHILDREN_DEATH)
    mm = mme_model_i(CHILDREN_DEATH)
    theta = ModelIParams(
        n_a=mm.diagnostics["n_a_unrounded"],
        n_b=mm.diagnostics["n_b_unrounded"],
        alpha_a=mm.estimates["alpha"],
        p1=mm.estimates["p1"],
        p2a=mm.estimates["p2a"],
        p2b=mm.estimates["p2b"],
    )
    assert fit.diagnostics["objective"] >= loglik_model_i(
        theta, CHILDREN_DEATH, logfac="stirling1"
    ) - 1e-9


def test_unconverged_fit_is_flagged():
    fit = mle_model_ii(MEADOW_VOLES, FitConfig(max_iterations=2))
    assert fit.diagnostics["converged"] is False


@pytest.mark.parametrize("pair", [CHILDREN_DEATH, ENCEPHALITIS, MEADOW_VOLES])
def test_explicit_moment_start_matches_default_start(pair):
    # a simplex from the moment solution ends where the default closed form
    # is, and never above it
    mm = mme_model_i(pair)
    e, d = mm.estimates, mm.diagnostics
    start = (d["n_a_unrounded"], d["n_b_unrounded"], e["alpha"], e["p1"], e["p2a"], e["p2b"])
    numeric = mle_model_i(pair, FitConfig(start=start)).diagnostics
    closed = mle_model_i(pair).diagnostics
    assert numeric["solver"] == "numeric" and numeric["converged"] is True
    bound = closed["objective"]
    assert numeric["objective"] <= bound + 4 * np.spacing(abs(bound))
    for key in ("n_a_unrounded", "n_b_unrounded"):
        assert numeric[key] == pytest.approx(closed[key], rel=1e-6)


def test_model_i_default_fit_is_its_closed_form():
    # under the first-order objective the Model I maximiser is the moment
    # solution, or the alpha = 0 face solution when the moment dependence
    # clamps low, which is why the default fit runs a single start
    pairs = [CHILDREN_DEATH, ENCEPHALITIS, MEADOW_VOLES]
    for preset in ("P1", "P3", "P5"):
        for n_b in (100, 10_000):
            design = sim.design_from_preset(
                preset, model="I", n_a=round(1.2 * n_b), n_b=n_b, alpha=0.4, seed=0
            )
            rng = np.random.default_rng([n_b, int(preset[1])])
            pairs += [sim.generate_pair(design, rng) for _ in range(5)]
    faces = 0
    for pair in pairs:
        fit = mle_model_i(pair)
        assert fit.diagnostics["converged"] is True
        mm = mme_model_i(pair).diagnostics
        if mm["alpha_clamped"] is None:
            sizes = (mm["n_a_unrounded"], mm["n_b_unrounded"])
        else:
            assert mm["alpha_clamped"] == "low"
            faces += 1
            a, b = pair.a, pair.b
            p1 = (a.x11 + b.x11) / (a.xdot1 + b.xdot1)
            sizes = (a.x10 / p1 + a.xdot1, b.x10 / p1 + b.xdot1)
        d = fit.diagnostics
        assert d["n_a_unrounded"] == pytest.approx(sizes[0], rel=1e-6)
        assert d["n_b_unrounded"] == pytest.approx(sizes[1], rel=1e-6)
    assert len(pairs) == 33
    assert faces >= 1  # encephalitis


def _moment_start(pair):
    mm = mme_model_i(pair)
    e, d = mm.estimates, mm.diagnostics
    return (d["n_a_unrounded"], d["n_b_unrounded"], e["alpha"], e["p1"], e["p2a"], e["p2b"])


def _face(pair):
    a, b = pair.a, pair.b
    p1 = (a.x11 + b.x11) / (a.xdot1 + b.xdot1)
    return a.x10 / p1 + a.xdot1, b.x10 / p1 + b.xdot1


@pytest.mark.parametrize(
    "a,b",
    [
        # P3 Model II draws where a single simplex from the moment solution
        # stopped 2.9e-5 short of the face with grad_norm ~1e-3, yet
        # reported converged
        ((62, 32, 4), (52, 30, 1)),
        ((61, 31, 6), (44, 39, 1)),
        # MME-I clamps alpha here and leaves its own domain (p2a > 1)
        ((30, 2, 21), (23, 7, 14)),
    ],
)
def test_clamped_fit_lands_on_the_face(a, b):
    pair = StratumPair(DrsTable(*a), DrsTable(*b))
    fit = mle_model_i(pair)
    d = fit.diagnostics
    assert d["solver"] == "face" and d["converged"] is True
    assert fit.estimates["alpha"] == 0.0
    n_a, n_b = _face(pair)
    assert d["n_a_unrounded"] == pytest.approx(n_a, rel=1e-12)
    assert d["n_b_unrounded"] == pytest.approx(n_b, rel=1e-12)
    assert d["grad_norm"] < 1e-10


def test_closed_form_agrees_with_numeric_fits():
    # 1056 seeded tables: six presets, both generating models, n_b 50 to
    # 10^4 and alpha 0.1 and 0.4, so the moment dependence clamps on some
    pairs = []
    for preset in sorted(sim.PRESETS):
        for model in ("I", "II"):
            for n_b in (50, 100, 1000, 10_000):
                for alpha in (0.1, 0.4):
                    design = sim.design_from_preset(
                        preset, model=model, n_a=round(1.2 * n_b), n_b=n_b, alpha=alpha
                    )
                    rng = np.random.default_rng([int(preset[1]), n_b, int(10 * alpha), len(model)])
                    pairs += [sim.generate_pair(design, rng) for _ in range(11)]
    solvers = {"interior": 0, "face": 0, "numeric": 0}
    for pair in pairs:
        fit = mle_model_i(pair)
        d = fit.diagnostics
        solvers[d["solver"]] += 1
        if d["solver"] == "interior":
            # the moment solution reproduces every cell: the saturated bound
            cells = [x for t in (pair.a, pair.b) for x in (t.x11, t.x10, t.x01)]
            bound = sum(x * math.log(x) for x in cells if x) - pair.a.x0 - pair.b.x0
            assert d["objective"] == pytest.approx(bound, rel=1e-12)
            continue
        numeric = mle_model_i(pair, FitConfig(start=_moment_start(pair)))
        if d["solver"] == "numeric":
            # the fallback is the single simplex from the moment solution
            assert fit == numeric
            continue
        e = fit.estimates
        theta = ModelIParams(d["n_a_unrounded"], d["n_b_unrounded"], 0.0, e["p1"], e["p2a"], e["p2b"])
        assert loglik_model_i_grad(theta, pair, logfac="stirling1")[2] <= 0.0
        n = numeric.diagnostics
        assert d["objective"] >= n["objective"] - 4 * np.spacing(abs(d["objective"]))
        if n["converged"]:
            assert d["n_a_unrounded"] == pytest.approx(n["n_a_unrounded"], rel=1e-6)
            assert d["n_b_unrounded"] == pytest.approx(n["n_b_unrounded"], rel=1e-6)
    assert len(pairs) == 1056
    assert min(solvers.values()) >= 10


_NO_SCIPY = """\
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from dualrec import cli
from dualrec.boot import bootstrap
from dualrec.core import DualrecError
from dualrec.datasets import DATASETS, MEADOW_VOLES
from dualrec.mle import FitConfig, mle_model_i, mle_model_ii, profile_objective
from dualrec.model import ModelIIParams, ModelIParams, loglik_model_i_grad, loglik_model_ii_grad
from dualrec.sim import ESTIMATORS, apply_method, design_from_preset, run_study
for pair in DATASETS.values():
    for method in ESTIMATORS:
        try:  # an estimator may refuse a dataset, but nothing may fail to import
            apply_method(method, pair, ratio=1.2)
        except DualrecError:
            pass
supplied = FitConfig(start=(300.0, 300.0, 0.1, 0.5, 0.5, 0.5))
for fit in (mle_model_i, mle_model_ii):
    for config in (FitConfig(logfac="exact"), FitConfig(known_ratio=1.2), supplied):
        fit(MEADOW_VOLES, config)
for params, grad in ((ModelIParams, loglik_model_i_grad), (ModelIIParams, loglik_model_ii_grad)):
    for mode in ("exact", "stirling1", "stirling3"):
        grad(params(300.0, 300.0, 0.2, 0.5, 0.5, 0.5), MEADOW_VOLES, mode)
theta = ModelIParams(300.0, 300.0, 0.2, 0.5, 0.5, 0.5)
profile_objective("I", MEADOW_VOLES, theta, "n_a", [200.0, 300.0])
for scheme in ("parametric", "nonparametric"):
    bootstrap(MEADOW_VOLES, "MLE-I", scheme, b=2, fit_config=FitConfig(logfac="exact"))
design = design_from_preset("P1", "I", 200, 200, 0.2, replicates=20)
run_study(design, estimators=("MME-I", "MLE-I", "LP"))
code = cli.main(["estimate", "--data", sys.argv[1], "--method", "lp,nour,mme1,mle1",
                 "--bootstrap", "20"])
print(code, sys.modules["scipy"])
"""


def _run_with_src(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code args`` in a fresh interpreter that imports this
    checkout's package."""
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_nothing_imports_scipy():
    # with scipy made unimportable, every estimator, fit kind, gradient mode,
    # bootstrap scheme, a study and the CLI still run: numpy is the only
    # run-time dependency
    voles = str(Path(__file__).resolve().parents[1] / "data" / "voles.csv")
    assert _run_with_src(_NO_SCIPY, voles).stdout.splitlines()[-1] == "0 None"


def test_bare_import_loads_neither_scipy_nor_a_process_pool():
    # a study imports concurrent.futures (and with it multiprocessing) only
    # when it starts worker processes
    code = (
        "import sys, dualrec, dualrec.cli\n"
        "print([m for m in ('scipy', 'concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    assert _run_with_src(code).stdout.strip() == "[]"


def test_grad_norm_of_a_tiny_known_ratio_fit_leaks_no_warning():
    # the free-scale gradient's norm is taken without numpy, whose dot warned
    # of overflow on this fit; the fit itself is meaningless (n_b near 7.7e301)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = mle_model_i(MEADOW_VOLES, FitConfig(known_ratio=1e-300))
    assert math.isfinite(fit.diagnostics["grad_norm"])


@pytest.mark.parametrize("fit", (mle_model_i, mle_model_ii))
def test_fit_refuses_a_known_ratio_that_takes_a_size_past_the_float_range(fit):
    # x0A / r or r * x0B overflowed inside the likelihood, and the fit failed
    # in log_factorial with no word of the ratio
    for ratio, shown in ((1e-307, "1e-307"), (1e307, "1e+307")):
        with pytest.raises(DomainError) as err:
            fit(MEADOW_VOLES, FitConfig(known_ratio=ratio))
        assert str(err.value) == (f"known_ratio = {shown} takes x0A / known_ratio or "
                                  "known_ratio * x0B past the float range")
    # ratios short of that still fit, however meaningless the sizes
    for ratio in (1e-300, 1e300):
        estimates = fit(MEADOW_VOLES, FitConfig(known_ratio=ratio)).estimates
        assert math.isfinite(estimates["n_a"]) and math.isfinite(estimates["n_b"])


def test_fit_counts_its_objective_evaluations(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        res = mle_minimize(*args, **kwargs)
        calls.append((kwargs["method"], res.nfev))
        return res

    mle_minimize = dualrec.mle.minimize
    monkeypatch.setattr(dualrec.mle, "minimize", counted)
    assert mle_model_i(CHILDREN_DEATH).diagnostics["evaluations"] == 0
    assert calls == []
    # one Nelder-Mead call per start, and nothing else
    fit = mle_model_ii(MEADOW_VOLES, FitConfig())
    assert [m for m, _ in calls] == ["Nelder-Mead"] * fit.diagnostics["multistart"]
    assert fit.diagnostics["evaluations"] == sum(n for _, n in calls) > 0


# Model II fits of Model II draws (presets P1, P3, P5, n_b = 10^2, 10^4 and
# 10^6, alpha 0.4, n_a = 1.2 n_b), as recorded when the simplex became the
# only optimiser; five stop unconverged.
# (A cells, B cells, n_a, n_b, objective, converged)
_MODEL_II_BITS = [
    ((68, 3, 29), (52, 4, 27), "0x1.9599717e384bbp+6", "0x1.53778bb43a0b4p+6", "0x1.f8b018eaa64e8p+8", False),
    ((6804, 277, 2738), (5770, 257, 2211), "0x1.0db17c81dc9d0p+16", "0x1.cb9cf02c0a746p+15", "0x1.0505a180ea3c1p+17", True),
    ((690840, 28647, 269356), (575590, 24249, 223522), "0x1.9028c27db8996p+20", "0x1.4d689e70d4ff8p+20", "0x1.4c31d0f1e2e50p+24", True),
    ((61, 36, 7), (54, 23, 4), "0x1.adc61f47fa544p+6", "0x1.4ccccccb95fc6p+6", "0x1.f53a506eab8eap+8", True),
    ((75, 31, 1), (55, 28, 7), "0x1.03d5052f27bd8p+27", "0x1.96ea6db58e203p+26", "0x1.182fd4fe8cfddp+9", False),
    ((5939, 3662, 568), (5050, 2938, 472), "0x1.489c94c467290p+13", "0x1.11106c545fe2dp+13", "0x1.09bd031a86c32p+17", False),
    ((604436, 355819, 54981), (503585, 295727, 46499), "0x1.0ec47ed10d142p+20", "0x1.c3184d4126ba1p+19", "0x1.524afd206542fp+24", True),
    ((58, 3, 34), (53, 3, 26), "0x1.528cba71e0a2fp+10", "0x1.36ccbd490f2c8p+10", "0x1.e0212df67d837p+8", True),
    ((42, 2, 42), (57, 0, 21), "0x1.1f41e4151d128p+29", "0x1.742c4f33308f8p+29", "0x1.bc0d258adb9f8p+8", False),
    ((5809, 277, 3235), (4740, 268, 2731), "0x1.292560f2b2bd2p+13", "0x1.eecc25af5726ap+12", "0x1.e53704a65019cp+16", False),
    ((5775, 310, 3198), (4769, 292, 2745), "0x1.a277f16160421p+30", "0x1.5c0baeed71d68p+30", "0x1.e58c0049f6821p+16", True),
    ((570363, 29804, 330210), (475414, 25211, 274020), "0x1.b6a388c4ccb0fp+22", "0x1.6e089e48fa1c8p+22", "0x1.352032942bd58p+24", True),
]


@pytest.mark.parametrize("a, b, n_a, n_b, objective, converged", _MODEL_II_BITS)
def test_model_ii_fits_are_pinned_to_the_bit(a, b, n_a, n_b, objective, converged):
    d = mle_model_ii(StratumPair(DrsTable(*a), DrsTable(*b))).diagnostics
    assert d["n_a_unrounded"].hex() == n_a
    assert d["n_b_unrounded"].hex() == n_b
    assert float(d["objective"]).hex() == objective
    assert d["converged"] is converged


# Model I's numeric fits, as recorded when the simplex became the only
# optimiser: the exact objective, a known ratio, the 2 x0 fallback where the
# moment equations divide by zero, first-order fits whose closed form fails
# (moment p1 = 1; a face that fails KKT) and a supplied start.
# (config, A cells, B cells, n_a, n_b, objective, converged)
_MODEL_I_BITS = [
    ({"logfac": "exact"}, (30, 153, 8), (15, 173, 7), "0x1.fca1553caf443p+7", "0x1.0675266beacaep+8", "0x1.6a58fc40cdcf8p+10", True),
    ({"logfac": "exact"}, (57, 1, 30), (44, 0, 30), "0x1.5e7575996a035p+6", "0x1.2445da3be970ep+6", "0x1.c8031045855a0p+8", True),
    ({"known_ratio": 1.2}, (46, 20, 11), (54, 5, 13), "0x1.5f826b401cd02p+6", "0x1.24ecaeb56d582p+6", "0x1.71dc3a1a623a2p+8", True),
    ({"known_ratio": 1.2}, (36, 0, 13), (24, 8, 16), "0x1.001fdc26329d5p+6", "0x1.aadfc43fa9b0ep+5", "0x1.951314b457edep+7", True),
    ({}, (30, 10, 10), (0, 10, 10), "0x1.ca5ba6fca5d6bp+28", "0x1.ca40afa5e00bdp+26", "0x1.f08eab88f6449p+6", False),
    ({"known_ratio": 1.2}, (30, 10, 10), (0, 10, 10), "0x1.afd6f22da07e9p+27", "0x1.67ddc9d0b0698p+27", "0x1.d41e25e55e5a6p+6", True),
    ({}, (36, 0, 13), (24, 8, 16), "0x1.dfffffe75891dp+5", "0x1.aaaaaadd2f3c5p+5", "0x1.953e16b71e6b3p+7", True),
    ({}, (34, 0, 16), (32, 7, 10), "0x1.90000025e9d39p+5", "0x1.9e0f83b0d58d5p+5", "0x1.a8db0b1021a92p+7", True),
    ({"start": (100.0, 90.0, 0.1, 0.5, 0.5, 0.5)}, (46, 20, 11), (54, 5, 13), "0x1.478e38a747d24p+6", "0x1.24d0979d37251p+6", "0x1.7234a69ef6e3bp+8", True),
]


@pytest.mark.parametrize("config, a, b, n_a, n_b, objective, converged", _MODEL_I_BITS)
def test_model_i_numeric_fits_are_pinned_to_the_bit(config, a, b, n_a, n_b, objective, converged):
    d = mle_model_i(StratumPair(DrsTable(*a), DrsTable(*b)), FitConfig(**config)).diagnostics
    assert d["solver"] == "numeric"
    assert d["n_a_unrounded"].hex() == n_a
    assert d["n_b_unrounded"].hex() == n_b
    assert float(d["objective"]).hex() == objective
    assert d["converged"] is converged


def test_model_i_fit_solves_the_moment_equations_once(monkeypatch):
    # the moment solution is the start, the closed form and the fallback's
    # trigger alike, so each Model I fit computes it once
    calls = []

    def counted(pair):
        calls.append(pair)
        return mme_model_i(pair)

    monkeypatch.setattr(dualrec.mle, "mme_model_i", counted)
    closed = MEADOW_VOLES
    no_closed_form = StratumPair(DrsTable(36, 0, 13), DrsTable(24, 8, 16))
    no_moment_solution = StratumPair(DrsTable(30, 10, 10), DrsTable(0, 10, 10))
    for pair, solver in ((closed, "interior"), (no_closed_form, "numeric"),
                         (no_moment_solution, "numeric")):
        calls.clear()
        assert mle_model_i(pair).diagnostics["solver"] == solver
        assert calls == [pair]


def test_each_fit_and_profile_binds_its_table_once(monkeypatch):
    # the objective, the face's KKT check, grad_norm
    # and every profile point share one binding of the table's counts
    calls, kernel = [], dualrec.mle._loglik_kernel

    def counted(pair, mode, tied):
        calls.append(pair)
        return kernel(pair, mode, tied)

    monkeypatch.setattr(dualrec.mle, "_loglik_kernel", counted)
    monkeypatch.setattr(dualrec.model, "_loglik_kernel", counted)
    short = FitConfig(max_iterations=50)
    fits = ((mle_model_i, MEADOW_VOLES, FitConfig(), "interior"),
            (mle_model_i, ENCEPHALITIS, FitConfig(), "face"),
            (mle_model_i, MEADOW_VOLES, replace(short, logfac="exact"), "numeric"),
            (mle_model_ii, MEADOW_VOLES, short, "numeric"))
    for fit, pair, config, solver in fits:
        calls.clear()
        assert fit(pair, config).diagnostics["solver"] == solver
        assert calls == [pair]
    for model, params in (("I", ModelIParams), ("II", ModelIIParams)):
        theta = params(300.0, 300.0, 0.2, 0.5, 0.5, 0.5)
        calls.clear()
        profile = profile_objective(model, MEADOW_VOLES, theta, "n_a", [280.0, 300.0, 320.0])
        assert len(profile) == 3 and calls == [MEADOW_VOLES]


def test_start_count_follows_where_the_start_came_from():
    # a supplied start runs alone, Model I's first-order closed form runs
    # none, and a guessed start runs with its four jittered copies, less
    # those that start on the wall
    def starts(fit, config=FitConfig(), pair=MEADOW_VOLES):
        return fit(pair, config).diagnostics["multistart"]

    supplied = FitConfig(start=(100.0, 90.0, 0.1, 0.5, 0.5, 0.5))
    assert starts(mle_model_i) == 0
    assert mle_model_i(MEADOW_VOLES).diagnostics["solver"] == "interior"
    assert starts(mle_model_i, supplied) == starts(mle_model_ii, supplied) == 1
    # copies 1, 3 and 4 of voles' Model II guess start below the wall; under
    # the known ratio, which raises the guess's n_a to r x0B, only copy 4 does
    assert starts(mle_model_ii) == 2
    assert starts(mle_model_i, FitConfig(known_ratio=1.2)) == 4
    off_the_wall = StratumPair(DrsTable(20, 30, 30), DrsTable(25, 30, 20))
    fit = mle_model_ii(off_the_wall)
    assert fit.diagnostics["multistart"] == 5
    assert fit.diagnostics["evaluations"] == 6616
    assert starts(mle_model_i, FitConfig(logfac="exact")) == 5
    no_moment_solution = StratumPair(DrsTable(30, 10, 10), DrsTable(0, 10, 10))
    assert starts(mle_model_i, pair=no_moment_solution) == 5
    # the moment solution is not the exact objective's maximiser: on this
    # table a single start from it stops 2.4 log-likelihood units short
    pair = StratumPair(DrsTable(57, 1, 30), DrsTable(44, 0, 30))
    fit = mle_model_i(pair, FitConfig(logfac="exact"))
    assert fit.diagnostics["objective"] == pytest.approx(456.0119670343938, abs=1e-6)


def test_config_fields_are_checked_when_built():
    # a bad field fails where the config is built, so a study cannot count
    # it as a failure of every replicate
    bad = (
        {"logfac": "stirling3"},
        {"known_ratio": -1.0},
        {"known_ratio": 0.0},
        {"known_ratio": float("nan")},
        {"known_ratio": float("inf")},
        {"known_ratio": "2"},
        {"known_ratio": True},
        {"start": (100.0, 100.0, 0.3)},
        {"start": (float("nan"), 100.0, 0.3, 0.5, 0.5, 0.5)},
    )
    for fields in bad:
        with pytest.raises(DomainError):
            FitConfig(**fields)
    with pytest.raises(DomainError, match="known_ratio"):
        replace(FitConfig(), known_ratio=-1.0)
    with pytest.raises(DomainError, match="^known_ratio must be a real number, got '2'$"):
        FitConfig(known_ratio="2")
    with pytest.raises(DomainError, match="^start must be a real number, got '90'$"):
        FitConfig(start=(100.0, "90", 0.1, 0.5, 0.5, 0.5))


def test_config_validation():
    with pytest.raises(DomainError):
        mle_model_i(MEADOW_VOLES, FitConfig(logfac="stirling3"))
    with pytest.raises(DomainError):
        mle_model_i(MEADOW_VOLES, FitConfig(known_ratio=-1.0))
    for ratio in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            mle_model_i(MEADOW_VOLES, FitConfig(known_ratio=ratio))
    with pytest.raises(DomainError):
        mle_model_i(MEADOW_VOLES, FitConfig(start=(100.0, 100.0, 0.3)))
    with pytest.raises(DomainError):
        mle_model_i(
            MEADOW_VOLES,
            FitConfig(start=(float("nan"), 100.0, 0.3, 0.5, 0.5, 0.5)),
        )
    # an int with no float is no finite start
    with pytest.raises(DomainError, match=r"^start must be in \(-inf,inf\) and the float range, got 1000"):
        FitConfig(start=(10**400, 100.0, 0.3, 0.5, 0.5, 0.5))
    # nor a finite ratio, and one past 4300 digits is not printed
    with pytest.raises(DomainError, match=r"^known_ratio must be in \(0,inf\) and the float range, got 1000"):
        FitConfig(known_ratio=10**400)
    with pytest.raises(DomainError, match=r"^known_ratio must be in \(0,inf\) and the float range$"):
        FitConfig(known_ratio=10**5000)
    assert FitConfig(known_ratio=10**300).known_ratio == 10**300
    # a fit divides by the ratio: one whose reciprocal overflows was accepted,
    # and the fit then failed in log_factorial with no word of the ratio
    for ratio in (1e-320, 5e-309, np.float64(1e-320), Fraction(1, 10**400)):
        with pytest.raises(DomainError, match=r"^1/known_ratio must be in \(0,inf\) and the float range, got inf$"):
            FitConfig(known_ratio=ratio)
    assert FitConfig(known_ratio=6e-309).known_ratio == 6e-309
    # a numeric field that a fit could not use, or a tolerance it could never
    # meet, is refused when the config is built
    for value, message in (
        ("5", "max_iterations must be an integer, got '5'"),
        (True, "max_iterations must be an integer, got True"),
        (0, "max_iterations must be at least 1, got 0"),
        (-3, "max_iterations must be at least 1, got -3"),
    ):
        with pytest.raises(DomainError) as err:
            mle_model_ii(MEADOW_VOLES, FitConfig(max_iterations=value))
        assert str(err.value) == message
    for name in ("objective_tolerance", "parameter_tolerance"):
        for value in (float("nan"), float("inf"), -1.0):
            with pytest.raises(DomainError, match=rf"^{name} must be in \[0,inf\) and the float range, got {value}$"):
                FitConfig(**{name: value})
        for value in ("1e-3", True):
            with pytest.raises(DomainError, match=f"^{name} must be a real number, got {value!r}$"):
                FitConfig(**{name: value})
        assert getattr(FitConfig(**{name: 0.0}), name) == 0.0


@pytest.mark.parametrize(
    "method,a,b",
    [
        ("MLE-II", (1, 10**10, 1), (10**10, 1, 10**10)),
        ("MLE-II", (5, 2**62, 7), (2**62, 3, 2**62)),
        ("MLE-I", (5, 2**62, 7), (2**62, 3, 2**62)),
    ],
)
def test_huge_counts_start_off_the_size_floor(method, a, b):
    # lo + 1e-6 rounds to lo = x0 - 1 at these counts, so the start's size
    # transform took log(0) and raised a bare ValueError
    # past 2**53, x0 - 1.0 also rounds, and a size measured from it could
    # fall below its count
    pair = StratumPair(DrsTable(*a), DrsTable(*b))
    fit = sim.apply_method(method, pair)
    assert all(math.isfinite(v) for v in fit.estimates.values())
    assert fit.estimates["n_a"] >= pair.a.x0 and fit.estimates["n_b"] >= pair.b.x0
    d = fit.diagnostics
    assert d["n_a_unrounded"] >= pair.a.x0 and d["n_b_unrounded"] >= pair.b.x0


def test_known_ratio_fit_starts_off_the_wall():
    # the moment start n_a = 99 put n_b = n_a / 2 below x0B = 85, where the
    # first-order objective is -inf, and the fit ended there at n_b = 84
    pair = StratumPair(DrsTable(63, 3, 32), DrsTable(56, 1, 28))
    d = mle_model_i(pair, FitConfig(known_ratio=2.0)).diagnostics
    assert math.isfinite(d["objective"])
    assert d["n_a_unrounded"] >= pair.a.x0 and d["n_b_unrounded"] >= pair.b.x0
    assert d["n_a_unrounded"] == 2.0 * d["n_b_unrounded"]


@pytest.mark.parametrize(
    "a,b",
    [
        ((690693, 28640, 269061), (480494, 119741, 319145)),
        ((690762, 28865, 268184), (480616, 120373, 319639)),
    ],
)
def test_large_table_fit_converges_at_float_spacing(a, b):
    # Model I draws at n_b = 10^6: the objective is ~2e7, where doubles are
    # 3.7e-9 apart, so an unfloored 1e-9 simplex tolerance is met only by
    # seven bit-equal values and both fits would report non-convergence
    pair = StratumPair(DrsTable(*a), DrsTable(*b))
    fit = mle_model_i(pair)
    assert fit.diagnostics["converged"] is True
    mme = mme_model_i(pair).diagnostics["n_a_unrounded"]
    assert fit.diagnostics["n_a_unrounded"] == pytest.approx(mme, rel=1e-6)


def test_infeasible_start_is_clamped_to_feasibility():
    # sizes below the observed counts are lifted rather than rejected
    fit = mle_model_i(
        MEADOW_VOLES, FitConfig(start=(10.0, 10.0, 0.3, 0.5, 0.5, 0.5))
    )
    assert fit.diagnostics["n_a_unrounded"] >= MEADOW_VOLES.a.x0


def test_profile_slice_peaks_at_fitted_size():
    fit = mle_model_i(CHILDREN_DEATH)
    d, e = fit.diagnostics, fit.estimates
    theta = ModelIParams(
        n_a=d["n_a_unrounded"],
        n_b=d["n_b_unrounded"],
        alpha_a=e["alpha"],
        p1=e["p1"],
        p2a=e["p2a"],
        p2b=e["p2b"],
    )
    grid = [d["n_a_unrounded"] - 10.0, d["n_a_unrounded"], d["n_a_unrounded"] + 10.0]
    prof = profile_objective("I", CHILDREN_DEATH, theta, "n_a", grid, logfac="stirling1")
    values = [ll for _, ll in prof]
    assert values[1] >= max(values[0], values[2])


def test_profile_grid_argmax_matches_moment_size():
    mm = mme_model_i(CHILDREN_DEATH)
    e, d = mm.estimates, mm.diagnostics
    na = d["n_a_unrounded"]
    theta = ModelIParams(
        n_a=na,
        n_b=d["n_b_unrounded"],
        alpha_a=e["alpha"],
        p1=e["p1"],
        p2a=e["p2a"],
        p2b=e["p2b"],
    )
    grid = np.arange(na - 30.0, na + 30.0 + 0.25, 0.5)
    prof = profile_objective("I", CHILDREN_DEATH, theta, "n_a", grid, logfac="stirling1")
    best = max(prof, key=lambda t: t[1])[0]
    assert abs(best - na) <= 0.5


def test_profile_edge_cases():
    theta = ModelIParams(n_a=300, n_b=300, alpha_a=0.2, p1=0.5, p2a=0.5, p2b=0.5)
    assert profile_objective("I", MEADOW_VOLES, theta, "n_a", []) == []
    with pytest.raises(DomainError):
        profile_objective("I", MEADOW_VOLES, theta, "alpha0", [300.0])
    with pytest.raises(DomainError):
        profile_objective("III", MEADOW_VOLES, theta, "n_a", [300.0])
    # theta must be the named model's parameter type
    theta_ii = ModelIIParams(n_a=300, n_b=300, alpha0=0.2, p1=0.5, p2a=0.5, p2b=0.5)
    with pytest.raises(DomainError, match="model I takes ModelIParams, got ModelIIParams"):
        profile_objective("I", MEADOW_VOLES, theta_ii, "n_a", [300.0])
    with pytest.raises(DomainError, match="model II takes ModelIIParams, got ModelIParams"):
        profile_objective("II", MEADOW_VOLES, theta, "n_a", [300.0])
    with pytest.raises(InfeasibleN):
        profile_objective("I", MEADOW_VOLES, theta, "n_a", [10.0])
    for size in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            profile_objective("I", MEADOW_VOLES, theta, "n_a", [size])


@pytest.mark.parametrize("model, grid, message", [
    ("I", [None], "grid must be a real number, got None"),
    ("I", ["x"], "grid must be a real number, got 'x'"),
    ("I", ["300"], "grid must be a real number, got '300'"),
    ("I", [True], "grid must be a real number, got True"),
    ("I", 5, "grid must be an iterable of real numbers, got 5"),
    ("I", [10**400], r"^grid must be in \(-inf,inf\) and the float range, got 1000"),
    (["I"], [300.0], "model must be 'I' or 'II', got \\['I'\\]"),
])
def test_profile_refuses_a_bad_grid_or_model(model, grid, message):
    theta = ModelIParams(n_a=300, n_b=300, alpha_a=0.2, p1=0.5, p2a=0.5, p2b=0.5)
    with pytest.raises(DomainError, match=message):
        profile_objective(model, MEADOW_VOLES, theta, "n_a", grid)


def test_model_ii_replicate_band_with_local_start():
    design = sim.design_from_preset(
        "P1", model="II", n_a=1200, n_b=1000, alpha=0.4, replicates=100, seed=0
    )
    pa, pb = design.params_a(), design.params_b()
    cfg = FitConfig(
        max_iterations=500,
        objective_tolerance=1e-3,
        parameter_tolerance=10.0,
        start=(design.n_a, design.n_b, design.alpha, pa.p1, pa.p2, pb.p2),
    )
    study = sim.run_study(design, estimators=("MLE-II",), fit_config=cfg)
    st = study.estimators["MLE-II"]
    assert 1180.0 <= st.mean_n_a <= 1220.0
    assert st.rrmse_n_a <= 0.02


def test_model_i_replicate_mean_band():
    design = sim.design_from_preset(
        "P1", model="I", n_a=1200, n_b=1000, alpha=0.4, replicates=200, seed=0
    )
    study = sim.run_study(design, estimators=("MLE-I",))
    st = study.estimators["MLE-I"]
    assert 1180.0 <= st.mean_n_a <= 1290.0
    assert st.failures <= 10
