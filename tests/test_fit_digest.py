"""Every numeric fit of a fixed sweep, to the bit.

The sweep is the default MLE-I and MLE-II fits of the 54 seeded tables that
the benchmark's fit-likelihood workload draws at seeds 0-2 (chunk 0, entries
0-17, built here as ``bench/workloads.fit_table`` builds them), then the
``exact``, ``known_ratio=1.2`` and supplied-start fits of both models on the
three bundled datasets.  Each fit is recorded as ``float.hex`` of every
estimate, both unrounded sizes, the objective and ``grad_norm``, with
``converged``, ``iterations``, ``evaluations``, ``multistart`` and
``solver``.  The sweep's sha256 and a 12-digit prefix of each fit's own
sha256 are pinned, so a change that moves any bit of any fit lists every
fit that moved, with its pinned and its new prefix.
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


_SWEEP_SHA256 = "eb3066d4ec57eefd6ac6232969e1d4905b42ef9b3687c7fae7492bf9a252dcfd"
_FIT_SHA256_PREFIXES = (
    "6369cd32b3a6", "d9ef0e9cdabe", "55cd1fb055ea", "5f09c29b9e1c", "b24e8cef7825", "1ee497daa1d6",
    "d8a387b9b87d", "425635adf2d3", "1243177c76e3", "045d268d0755", "9eea633f13d7", "7f905e3ed6ca",
    "11febea183a5", "f692133a4f42", "2ddd3f19c308", "6df59202a427", "88ca24c87bc7", "3cb172f4279b",
    "6bfbf9e86ada", "039a06ed2d79", "c84a60cfa2bc", "4c37d9fc2aa8", "89e8214e3a26", "cf7d7c62ef05",
    "48ca240b09e3", "121cbb78e772", "3cadf0416a72", "af073a095db9", "52be60f57512", "6779819d5c45",
    "13d9b3bd1c19", "3d7de8e63608", "1959976b625d", "3c1ca9c113d9", "f9639a325554", "c09d13b80b77",
    "3383b44be5ec", "dddce99a14ac", "009e3434ab58", "f766cfb58244", "10611be97b1f", "828429e5829e",
    "7f20271c086f", "15476ea45d4f", "112cab9f04d8", "ad45f2c85e9c", "8ad55d61ee70", "238deee44eb0",
    "c6c36781cd6d", "80087e42d005", "78a7ddbc9a7c", "0cacaa6b63ac", "134b9bed354d", "df92f8d535f3",
    "f7a1a95a0679", "592e771389b7", "e0c8201d440e", "ce17114b767a", "c30d29254ead", "2f8de298c4de",
    "90b1aa78deda", "0eb3dbc04c66", "a4b7bbed7452", "5b85ea8ad273", "69178896a142", "565f77bfc250",
    "56a6967470bd", "77be5e3ff1e8", "a7722122373c", "69c7b5918a1c", "229c5718736c", "48bc779b9c31",
)


def test_fit_sweep_is_unchanged_to_the_bit():
    records = _sweep()
    assert len(records) == len(_FIT_SHA256_PREFIXES) == 72
    moved = [f"{label}: {pinned} -> {got}"
             for (label, record), pinned in zip(records, _FIT_SHA256_PREFIXES)
             if (got := hashlib.sha256(record.encode()).hexdigest()[:12]) != pinned]
    assert not moved, f"{len(moved)} fits moved (pinned -> new prefix):\n" + "\n".join(moved)
    sweep = "\n".join(record for _, record in records)
    assert hashlib.sha256(sweep.encode()).hexdigest() == _SWEEP_SHA256


if __name__ == "__main__":
    # one "label<TAB>record" line per fit, so that two trees' sweeps can be diffed
    for label, record in _sweep():
        print(f"{label}\t{record}")
