"""Every numeric fit of a fixed sweep, to the bit.

The sweep is the default MLE-I and MLE-II fits of the 54 seeded tables that
the benchmark's fit-likelihood workload draws at seeds 0-2 (chunk 0, entries
0-17, built here as ``bench/workloads.fit_table`` builds them), then the
``exact``, ``known_ratio=1.2`` and supplied-start fits of both models on the
three bundled datasets.  Each fit is recorded as ``float.hex`` of every
estimate, both unrounded sizes, the objective and ``grad_norm``, with
``converged``, ``iterations``, ``evaluations``, ``multistart`` and
``solver``.  The sweep's sha256 and a 12-digit prefix of each fit's own
sha256 are pinned, so a change that moves any bit of any fit names the
first fit that moved.
"""

import hashlib

import numpy as np

from dualrec.datasets import DATASETS
from dualrec.mle import FitConfig, mle_model_i, mle_model_ii
from dualrec.sim import design_from_preset, generate_pair

# fit-likelihood's cells, (preset, n_b) with n_a = 1.2 n_b, and its alpha
_CELLS = (
    ("P1", 100), ("P3", 1_000_000), ("P5", 10_000),
    ("P3", 10_000), ("P5", 100), ("P1", 1_000_000),
    ("P5", 1_000_000), ("P1", 10_000), ("P3", 100),
)
_ALPHA = 0.4
_FITS = {"I": mle_model_i, "II": mle_model_ii}


def _bench_tables():
    # entry i of chunk 0: the model alternates I, II and the cells follow _CELLS
    for seed in range(3):
        for i in range(2 * len(_CELLS)):
            model = ("I", "II")[i % 2]
            preset, n = _CELLS[i // 2]
            design = design_from_preset(preset, model=model, n_a=round(1.2 * n), n_b=n,
                                        alpha=_ALPHA, replicates=1, seed=0)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0, i]))
            yield (f"MLE-{model} {preset} n_b={n} seed {seed} entry {i}", model,
                   generate_pair(design, rng), FitConfig())


def _dataset_fits():
    for name, pair in DATASETS.items():
        start = (1.5 * pair.a.x0, 1.5 * pair.b.x0, 0.1, 0.5, 0.5, 0.5)
        for model in _FITS:
            for label, config in (("exact", FitConfig(logfac="exact")),
                                  ("known_ratio=1.2", FitConfig(known_ratio=1.2)),
                                  ("start", FitConfig(start=start))):
                yield f"MLE-{model} {name} {label}", model, pair, config


def _record(fit) -> str:
    d = fit.diagnostics
    floats = [*fit.estimates.values(), d["n_a_unrounded"], d["n_b_unrounded"],
              d["objective"], d["grad_norm"]]
    return " ".join([float(v).hex() for v in floats] + [
        str(d[k]) for k in ("converged", "iterations", "evaluations", "multistart", "solver")])


def _sweep() -> list[tuple[str, str]]:
    return [(label, _record(_FITS[model](pair, config)))
            for label, model, pair, config in (*_bench_tables(), *_dataset_fits())]


_SWEEP_SHA256 = "4f71d90e587946ba16f3881d2a6b885c9568415c51ab7fb6454d0e12c77f7d44"
_FIT_SHA256_PREFIXES = (
    "0ea91778a639", "d9ef0e9cdabe", "8462b7dc1d9e", "5f09c29b9e1c", "9b9bcd01becf", "1ee497daa1d6",
    "39438a139cc7", "425635adf2d3", "95db3c0f871f", "045d268d0755", "656c69aefad4", "7f905e3ed6ca",
    "ca4d82392b2c", "f692133a4f42", "8a9a7d91b846", "6df59202a427", "e52096f4885e", "3cb172f4279b",
    "5748b173fef0", "039a06ed2d79", "a8302861e77d", "4c37d9fc2aa8", "2dfea6a8325c", "cf7d7c62ef05",
    "64702a4539dc", "121cbb78e772", "73d55a4c2d87", "af073a095db9", "25145bff7e46", "6779819d5c45",
    "78430cbfa4f5", "3d7de8e63608", "49201e7d4b31", "3c1ca9c113d9", "1080a52f7c3d", "c09d13b80b77",
    "4a5e28fa7ba1", "dddce99a14ac", "7f444afbd080", "f766cfb58244", "d6922fa8d0fc", "828429e5829e",
    "dce823a93eba", "15476ea45d4f", "bf554532b1cb", "ad45f2c85e9c", "c4d048a9d3a6", "238deee44eb0",
    "96de34823760", "80087e42d005", "15c324b8f2a5", "0cacaa6b63ac", "622941030f4f", "df92f8d535f3",
    "f7a1a95a0679", "592e771389b7", "e0c8201d440e", "7679c2a61746", "c30d29254ead", "2f8de298c4de",
    "90b1aa78deda", "0eb3dbc04c66", "a4b7bbed7452", "46ad4ea8ad35", "69178896a142", "565f77bfc250",
    "3fdf2a3d0ac1", "77be5e3ff1e8", "a7722122373c", "70f6f9f4478c", "229c5718736c", "48bc779b9c31",
)


def test_fit_sweep_is_unchanged_to_the_bit():
    records = _sweep()
    assert len(records) == len(_FIT_SHA256_PREFIXES) == 72
    for (label, record), pinned in zip(records, _FIT_SHA256_PREFIXES):
        got = hashlib.sha256(record.encode()).hexdigest()[:12]
        assert got == pinned, f"first fit that differs: {label}: {record}"
    sweep = "\n".join(record for _, record in records)
    assert hashlib.sha256(sweep.encode()).hexdigest() == _SWEEP_SHA256
