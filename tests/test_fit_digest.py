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


_SWEEP_SHA256 = "7685c24f70dacc5e362af16ca885f2a4a1cf703014893060a049b543acfbcf5d"
_FIT_SHA256_PREFIXES = (
    "6369cd32b3a6", "36afd53e06c9", "55cd1fb055ea", "580ce0a4e77c", "b24e8cef7825", "0000f0a624c7",
    "d8a387b9b87d", "cc1836d2d482", "1243177c76e3", "dea07b797483", "9eea633f13d7", "2cb0c249f1f9",
    "11febea183a5", "315957cd8162", "2ddd3f19c308", "69fd1e3cdeba", "88ca24c87bc7", "cd12bda30423",
    "6bfbf9e86ada", "52497f0b47a8", "c84a60cfa2bc", "9260c00fd686", "89e8214e3a26", "cf7d7c62ef05",
    "48ca240b09e3", "6d901a2c1ad6", "3cadf0416a72", "a78ce9421b40", "52be60f57512", "1f66f44999f0",
    "13d9b3bd1c19", "6e5ad5417981", "1959976b625d", "7b92d0929bd2", "f9639a325554", "edbf6ccd8fa4",
    "3383b44be5ec", "76f7fbb3048a", "009e3434ab58", "09e095822f7c", "10611be97b1f", "88863f60a041",
    "7f20271c086f", "b5654e523d83", "112cab9f04d8", "80944b1e5456", "8ad55d61ee70", "81d9c675647b",
    "c6c36781cd6d", "436647b55897", "78a7ddbc9a7c", "94c326b36d9b", "134b9bed354d", "4e9943aaa0ae",
    "416f1b7dfdd3", "27545caa82f9", "f9acae601e4e", "5a9b762d33b7", "dd3124f89cb2", "42b1e55e5262",
    "ca3b037cab64", "c4db2675c73d", "968748163213", "a3b042ca851b", "c70d5380eb96", "2b3f61796400",
    "ebb3d0cf544c", "bb382d3537fc", "dc6e03744877", "49002aa5758b", "c71e6afbb8d5", "853c7f6e2176",
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
