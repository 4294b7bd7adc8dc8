"""The closed-form kernels against their scalar estimators, bit for bit, and
the bootstrap's choice between a kernel and the per-resample refit."""

import numpy as np
import pytest

from dualrec import boot
from dualrec.boot import bootstrap
from dualrec.core import DrsTable, DualrecError, StratumPair
from dualrec.datasets import DATASETS, MEADOW_VOLES
from dualrec.sim import ESTIMATORS, _fit_values, _replicate_counts, _streams, apply_method

KERNEL_METHODS = ("LP", "NOUR", "MME-I", "MME-II")

# MME-I kernel rows with n_a below x0A in a voles parametric bootstrap, b=1000
# at seed 0 (of 1000 feasible rows)
PINNED_BELOW_X0 = 199

# (A, B) pairs that between them reach every way the four scalar estimators
# fail, and some that they fit
HAND_TABLES = (
    ((0, 0, 0), (3, 1, 2)),  # empty stratum A
    ((3, 1, 2), (0, 0, 0)),  # empty stratum B
    ((0, 2, 3), (3, 1, 2)),  # x11A = 0
    ((3, 1, 2), (0, 2, 3)),  # x11B = 0
    ((1, 1, 1), (3, 1, 2)),  # NOUR: x11A^2 = x10A*x01A
    ((3, 1, 2), (1, 2, 3)),  # NOUR: x11B^2 < x10B*x01B
    ((1, 1, 1), (1, 1, 0)),  # MME-I: x01B = 0
    ((0, 0, 1), (1, 1, 1)),  # MME-I: x1dotA = 0
    ((1, 0, 0), (1, 0, 1)),  # MME-I: x10A*x01B + x01A*x11B = 0
    ((5, 1, 9), (6, 1, 1)),  # MME-I: alpha clamps low
    ((1, 1, 1), (1, 1, 1)),  # MME-II: x01A*x10B = x10A*x01B
    ((0, 0, 1), (1, 1, 2)),  # MME-II: x1dotA = 0
    ((1, 1, 2), (0, 0, 1)),  # MME-II: x1dotB = 0
    ((1, 0, 1), (1, 1, 2)),  # MME-II: x10A = 0
    ((0, 1, 0), (0, 1, 1)),  # MME-II: p2a <= 0
    ((0, 1, 1), (1, 0, 1)),  # MME-II: p2a >= 1
    ((1, 1, 1), (0, 1, 0)),  # MME-II: p2b <= 0
    ((0, 1, 1), (1, 0, 2)),  # MME-II: p2b >= 1
    ((0, 1, 1), (1, 1, 3)),  # MME-II: alpha0 < 0
    ((1, 1, 1), (1, 2, 1)),  # MME-II: feasible
    (MEADOW_VOLES.a, MEADOW_VOLES.b),
)

# Every failure message the hand-made tables must reach, by its start.  No
# table reaches MME-II's other branches: p2b has the sign of p2a, alpha0 > 1
# needs p2a > 1, and past the alpha0 check the p1 and size checks hold in
# exact arithmetic.
FAILURES = {
    "LP": ("all observed cells are zero", "x11 is zero"),
    "NOUR": ("all observed cells are zero", "x11 is zero", "requires x11^2 > x10*x01"),
    "MME-I": (
        "all observed cells are zero", "x11B is zero", "x01B is zero", "x1dotA is zero",
        "x10A*x01B + x01A*x11B is zero",
    ),
    "MME-II": (
        "all observed cells are zero", "x01A*x10B - x10A*x01B is zero",
        "a required margin", "p2a = -", "p2a = 0.0", "p2a = 1", "p2b = 0.0", "p2b = 1",
        "alpha0 = -",
    ),
}


def _hand_counts() -> np.ndarray:
    rows = []
    for a, b in HAND_TABLES:
        cells = [(t.x11, t.x10, t.x01) if isinstance(t, DrsTable) else t for t in (a, b)]
        rows.append(cells[0] + cells[1])
    return np.array(rows, dtype=float)


def _seeded_counts(rows: int = 10_000) -> np.ndarray:
    """Half small uniform cells, which hit every zero, and half multinomial
    tables of up to 9000 individuals per stratum, inside every kernel's bound."""
    rng = np.random.default_rng(20240)
    small = rng.integers(0, 7, size=(rows // 2, 6))
    sizes = np.exp(rng.uniform(0.0, np.log(9000.0), size=(rows // 2, 2))).astype(int)
    large = np.array([
        [c for n in pair for c in rng.multinomial(n, rng.dirichlet(np.ones(4)))[:3]]
        for pair in sizes
    ])
    return np.vstack((small, large)).astype(float)


def _scalar_rows(method: str, counts: np.ndarray):
    """Per row: the hex of apply_method's unrounded sizes and alpha, or the
    failure message."""
    rows = []
    for r in counts.astype(int).tolist():
        try:
            fit = apply_method(method, StratumPair(DrsTable(*r[:3]), DrsTable(*r[3:])))
        except DualrecError as e:
            rows.append(str(e))
            continue
        rows.append(tuple(float(v).hex() for v in _fit_values(fit)))
    return rows


def _kernel_rows(method: str, counts: np.ndarray):
    n_a, n_b, alpha, ok = ESTIMATORS[method].kernel.fn(counts)
    assert ok.dtype == bool and n_a.shape == n_b.shape == alpha.shape == ok.shape
    return [
        tuple(v.hex() for v in vals) if good else None
        for *vals, good in zip(n_a.tolist(), n_b.tolist(), alpha.tolist(), ok.tolist())
    ]


def test_kernels_are_registered_for_the_closed_forms():
    with_kernel = tuple(m for m, spec in ESTIMATORS.items() if spec.kernel is not None)
    assert with_kernel == KERNEL_METHODS


@pytest.mark.parametrize("method", KERNEL_METHODS)
def test_kernel_equals_scalar_estimator_bit_for_bit(method):
    counts = np.vstack((_hand_counts(), _seeded_counts()))
    scalar = _scalar_rows(method, counts)
    kernel = _kernel_rows(method, counts)
    mismatches = [
        (row, s, k) for row, s, k in zip(counts.tolist(), scalar, kernel)
        if (k is None) != isinstance(s, str) or (k is not None and k != s)
    ]
    assert mismatches == []
    # the hand-made tables reach every failure, and the seeded ones both fail
    # and succeed (MME-II, the least often feasible, on about 1 in 7)
    messages = [s for s in scalar[: len(HAND_TABLES)] if isinstance(s, str)]
    for start in FAILURES[method]:
        assert any(m.startswith(start) for m in messages), start
    seeded = kernel[len(HAND_TABLES):]
    assert None in seeded and sum(k is not None for k in seeded) > len(seeded) // 10


def _bound_pair(method: str, size: int) -> StratumPair:
    """A pair whose larger stratum has ``size`` individuals, with cells in the
    proportions of the voles stratum A, which every closed form fits."""
    a = MEADOW_VOLES.a
    x11, x10 = size * a.x11 // a.x0, size * a.x10 // a.x0
    return StratumPair(DrsTable(x11, x10, size - x11 - x10), MEADOW_VOLES.b)


@pytest.mark.parametrize("method", KERNEL_METHODS)
def test_bootstrap_takes_the_kernel_only_inside_its_exactness_bound(method, monkeypatch):
    degree = ESTIMATORS[method].kernel.degree
    bound = int(round(2 ** (53 / degree)))
    while bound**degree >= 2**53:
        bound -= 1
    assert (bound + 1) ** degree >= 2**53
    loops = []
    original = boot._replicate_values
    monkeypatch.setattr(boot, "_replicate_values", lambda *a: loops.append(1) or original(*a))
    for size, kernel_path in ((bound, True), (bound + 1, False)):
        pair = _bound_pair(method, size)
        loops.clear()
        res = bootstrap(pair, method, scheme="nonparametric", b=40, seed=7)
        assert loops == ([] if kernel_path else [1])
        with monkeypatch.context() as m:
            m.setitem(ESTIMATORS, method, ESTIMATORS[method]._replace(kernel=None))
            ref = bootstrap(pair, method, scheme="nonparametric", b=40, seed=7)
        assert res.diagnostics["failures"] == ref.diagnostics["failures"]
        assert res.se == ref.se and res.ci == ref.ci
        assert res == ref


def test_model_i_sizes_below_x0_stay_visible():
    # the open Model I defect: the moment fit can size stratum A below the
    # individuals it observed.  This count of such resamples in a seeded
    # voles bootstrap moves to 0 when the defect is fixed.
    point = apply_method("MME-I", MEADOW_VOLES)
    gens = boot._generating_cells("MME-I", MEADOW_VOLES, point)
    counts = _replicate_counts(*gens, 0, 0, 1000)
    n_a, _, _, ok = ESTIMATORS["MME-I"].kernel.fn(counts)
    below = ok & (n_a < counts[:, :3].sum(axis=1))
    assert int(below.sum()) == PINNED_BELOW_X0


def _concatenated_counts(gen_a, gen_b, seed: int, b: int) -> np.ndarray:
    # the count array as it was once built: each row a preallocated float64
    # row that the two int64 draws' first three cells are concatenated into
    (cells_a, size_a), (cells_b, size_b) = gen_a, gen_b
    counts = np.empty((b, 6))
    for row, rng in zip(counts, _streams(seed, 0, b)):
        draws = rng.multinomial(size_a, cells_a)[:3], rng.multinomial(size_b, cells_b)[:3]
        np.concatenate(draws, out=row)
    return counts


@pytest.mark.parametrize("name", sorted(DATASETS))
@pytest.mark.parametrize("scheme", ("parametric", "nonparametric"))
def test_replicate_counts_equal_the_concatenated_array_bit_for_bit(name, scheme):
    pair = DATASETS[name]
    if scheme == "parametric":
        gens = [boot._generating_cells(m, pair, apply_method(m, pair)) for m in ("MME-I", "LP")]
    else:  # the observed proportions, as bootstrap builds them
        tables = (pair.a, pair.b)
        gens = [[(np.array([t.x11 / t.x0, t.x10 / t.x0, t.x01 / t.x0]), t.x0) for t in tables]]
    for gen_a, gen_b in gens:
        for seed in range(3):
            rows = _replicate_counts(gen_a, gen_b, seed, 0, 500)
            ref = _concatenated_counts(gen_a, gen_b, seed, 500)
            assert rows.shape == ref.shape == (500, 6) and rows.dtype == ref.dtype
            assert [v.hex() for v in rows.ravel().tolist()] == [v.hex() for v in ref.ravel().tolist()]
