"""The benchmark's three workloads: inputs, timed operations and checks.

Every workload is a closed loop: one caller issues an operation, waits for
its result, then issues the next.  Operations come in *rounds*, and a timed
worker stops only between rounds, so every run covers whole rounds.  Each
workload times two kinds of operation, called *primary* and *secondary* so
that every workload reports the same metric names:

================  ==============================  ===============================
workload          primary sample                  secondary sample
================  ==============================  ===============================
replicate-moment  one round's two ``run_study``   one round's twelve
                  calls: wall time / replicates   ``bootstrap`` calls: wall time
                                                  / resamples
fit-likelihood    one MLE-I fit                   one MLE-II fit
cli-cold          one ``dualrec estimate``        one cycle's ``estimate
                  process                         --bootstrap`` (both schemes)
                                                  and ``simulate`` processes:
                                                  wall time / 3
================  ==============================  ===============================

Where a round mixes operations of different cost, one sample covers the
whole mix (``POOLED``), so that a change to any part of it moves the median.

Inputs come only from ``(seed, chunk, index)``, so a seed always yields the
same operations.  The package is driven only through its public functions
and its CLI.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from dualrec import cli
from dualrec.boot import bootstrap
from dualrec.core import DidNotConverge
from dualrec.datasets import DATASETS, load_stratum_pair
from dualrec.sim import apply_method, design_from_preset, generate_pair, run_study

# The reference block: fixed inputs at the default seed, run on every run
# and compared against outputs recorded from the seed code (reference.json).
DEFAULT_SEED = 0
# The block's fits are the 18 cells of FIT_CELLS x {MLE-I, MLE-II}; at seed 0
# each model has a converged reference fit on every preset and size band.
REF_SIZES = {"study_reps": 500, "boot_b": 100, "fits": 18, "cli_boot_b": 100,
             "cli_sim_reps": 200}

# Kinds whose sample is one per round: total wall time over total units.
# The rest give one sample per operation.
POOLED = {
    "replicate-moment": ("primary", "secondary"),
    "fit-likelihood": (),
    "cli-cold": ("secondary",),
}

# Likelihood fits run a numeric optimiser, so a later solver may stop at a
# slightly different point of a flat objective.  Sizes must agree to this
# relative tolerance and probabilities (alpha, p1, p2a, p2b) to this
# absolute tolerance.  Closed-form outputs must agree exactly.
FIT_SIZE_RTOL = 1e-4
FIT_PROB_ATOL = 1e-3

# replicate-moment: P1 under Model I, and P3 under Model II where about half
# of the MME-II replicates are infeasible, so the exception path runs too.
STUDY_DESIGNS = (
    ("P1", "I", 240, 200, 0.4, ("LP", "NOUR", "MME-I")),
    ("P3", "II", 240, 200, 0.4, ("MME-II", "LP")),
)
BOOT_METHODS = ("MME-I", "LP")
SCHEMES = ("parametric", "nonparametric")

# fit-likelihood: (preset, size of stratum B) in Latin-square order, so each
# row of three cells covers each preset and each size band once.  A round is
# every cell under both models, 18 fits.  Stratum A is 1.2 times as large.
FIT_CELLS = (
    ("P1", 100), ("P3", 1_000_000), ("P5", 10_000),
    ("P3", 10_000), ("P5", 100), ("P1", 1_000_000),
    ("P5", 1_000_000), ("P1", 10_000), ("P3", 100),
)
FIT_ALPHA = 0.4
FIT_ROUND = 2 * len(FIT_CELLS)

CLI_DATASETS = ("children_death", "encephalitis", "voles")


def derive_seed(*parts: int) -> int:
    """A 32-bit seed determined by the run seed and an operation's position."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class Op:
    """One timed operation.

    ``call`` is the timed part.  ``output`` turns its result into plain
    JSON data for the digest and the reference comparison; ``check`` runs
    after the timed loop and returns ``(problems, estimator operations
    attempted, estimator operations failed)``.
    """

    kind: str  # "primary" or "secondary"
    units: int  # replicates, resamples, fits or processes it covers
    label: str
    call: Callable[[], object]
    output: Callable[[object], dict]
    check: Callable[[dict], tuple[list[str], int, int]]


# ---------------------------------------------------------------------------
# Invariants shared by all workloads
# ---------------------------------------------------------------------------


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def below_x0(est: dict, pair) -> list[str]:
    """The sizes in ``est`` that are smaller than their stratum's observed count."""
    return [f"{key} = {est[key]} below x0 = {table.x0}"
            for key, table in (("n_a", pair.a), ("n_b", pair.b))
            if key in est and _finite(est[key]) and est[key] < table.x0]


def finite_problems(est: dict, where: str) -> list[str]:
    return [f"{where}: {k} = {v!r} is not finite" for k, v in est.items() if not _finite(v)]


def estimate_problems(est: dict, pair, where: str) -> list[str]:
    """Every estimate finite, and every size at least the observed count."""
    return finite_problems(est, where) + [f"{where}: {p}" for p in below_x0(est, pair)]


def mme_i_sizes(pair) -> dict:
    """The sizes ``mme_model_i`` documents: ``n_a = [x1.A x.1B / x11B]`` and
    ``n_b = [x1.B x.1B / x11B]``, computed here in the same order."""
    a, b = pair.a, pair.b
    return {"n_a": float(math.floor(a.x1dot * b.xdot1 / b.x11)),
            "n_b": float(math.floor(b.x1dot * b.xdot1 / b.x11))}


# ---------------------------------------------------------------------------
# replicate-moment
# ---------------------------------------------------------------------------


def study_output(summary) -> dict:
    return {
        m: [s.mean_n_a, s.rrmse_n_a, list(s.ci_n_a), s.mean_n_b, s.rrmse_n_b,
            list(s.ci_n_b), s.mean_alpha, s.failures, s.used]
        for m, s in summary.estimators.items()
    }


def check_study(out: dict, reps: int, where: str):
    problems, failed = [], 0
    for m, (mean_a, rr_a, ci_a, mean_b, rr_b, ci_b, alpha, failures, used) in out.items():
        failed += failures
        if used + failures != reps:
            problems.append(f"{where} {m}: used {used} + failures {failures} != {reps}")
        values = [mean_a, rr_a, *ci_a, mean_b, rr_b, *ci_b] + ([] if alpha is None else [alpha])
        if not all(_finite(v) for v in values):
            problems.append(f"{where} {m}: non-finite study aggregate")
        elif not (0 <= ci_a[0] <= ci_a[1] and 0 <= ci_b[0] <= ci_b[1]):
            problems.append(f"{where} {m}: study interval out of order")
    return problems, reps * len(out), failed


def boot_output(result) -> dict:
    return {
        "estimates": result.estimates,
        "se": result.se,
        "ci": {k: list(v) for k, v in result.ci.items()},
        "failures": result.diagnostics["failures"],
        "resamples": result.diagnostics["resamples"],
    }


def check_boot(out: dict, pair, where: str):
    problems = estimate_problems(out["estimates"], pair, where)
    if not all(_finite(v) and v >= 0 for v in out["se"].values()):
        problems.append(f"{where}: bad standard error {out['se']}")
    if not all(_finite(lo) and _finite(hi) and lo <= hi for lo, hi in out["ci"].values()):
        problems.append(f"{where}: bad interval {out['ci']}")
    if not 0 <= out["failures"] < out["resamples"]:
        problems.append(f"{where}: {out['failures']} failures of {out['resamples']}")
    return problems, out["resamples"], out["failures"]


def moment_round(round_seed: int, reps: int, b: int) -> list[Op]:
    """Two serial studies and twelve bootstraps, all seeded by ``round_seed``."""
    ops = []
    for preset, model, n_a, n_b, alpha, estimators in STUDY_DESIGNS:
        design = design_from_preset(preset, model=model, n_a=n_a, n_b=n_b,
                                    alpha=alpha, replicates=reps, seed=round_seed)
        label = f"study {preset}/{model} seed {round_seed}"
        ops.append(Op("primary", reps, label,
                      lambda d=design, e=estimators: run_study(d, e), study_output,
                      lambda out, where=label: check_study(out, reps, where)))
    for name, pair in DATASETS.items():
        for method in BOOT_METHODS:
            for scheme in SCHEMES:
                label = f"bootstrap {name}/{method}/{scheme} seed {round_seed}"
                ops.append(Op("secondary", b, label,
                              lambda p=pair, m=method, s=scheme:
                              bootstrap(p, m, scheme=s, b=b, seed=round_seed),
                              boot_output,
                              lambda out, p=pair, where=label: check_boot(out, p, where)))
    return ops


# ---------------------------------------------------------------------------
# fit-likelihood
# ---------------------------------------------------------------------------


def fit_table(seed: int, chunk: int, i: int):
    """Entry ``i`` of a chunk: the model alternates I, II and the cells
    follow FIT_CELLS, each chunk starting at a different row."""
    cell = (6 * chunk + i) % FIT_ROUND
    model = ("I", "II")[cell % 2]
    preset, n = FIT_CELLS[cell // 2]
    design = design_from_preset(preset, model=model, n_a=round(1.2 * n), n_b=n,
                                alpha=FIT_ALPHA, replicates=1, seed=0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, chunk, i]))
    return model, f"MLE-{model} {preset} n_b={n} entry {chunk}/{i}", generate_pair(design, rng)


def fit(method: str, pair):
    """One likelihood fit through ``apply_method`` with the default config.

    ``DidNotConverge`` is an outcome the program reports by design; it is
    returned so the caller can count it, not treated as a crash.
    """
    try:
        return apply_method(method, pair)
    except DidNotConverge as e:
        return e


def fit_output(result) -> dict:
    if isinstance(result, DidNotConverge):
        return {"outcome": "DidNotConverge"}
    d = result.diagnostics
    return {"outcome": "ok", "estimates": result.estimates,
            "n_a_unrounded": d["n_a_unrounded"], "n_b_unrounded": d["n_b_unrounded"]}


def fit_ops(tables) -> list[Op]:
    def check(out, pair, where):
        if out["outcome"] != "ok":
            return [], 1, 1
        return estimate_problems(out["estimates"], pair, where), 1, 0

    return [
        Op("primary" if model == "I" else "secondary", 1, label,
           lambda m=model, p=pair: fit(f"MLE-{m}", p), fit_output,
           lambda out, p=pair, where=label: check(out, p, where))
        for model, label, pair in tables
    ]


def fits_agree(ref: dict, got: dict) -> bool:
    """Reference fit comparison within FIT_SIZE_RTOL / FIT_PROB_ATOL.

    A reference fit that did not converge may now converge (that fixes a
    false failure); a reference fit that converged must still converge.
    """
    if ref["outcome"] != "ok":
        return True
    if got["outcome"] != "ok":
        return False
    for key in ("n_a_unrounded", "n_b_unrounded"):
        if abs(got[key] - ref[key]) > FIT_SIZE_RTOL * abs(ref[key]):
            return False
    return all(
        abs(got["estimates"][k] - ref["estimates"][k]) <= FIT_PROB_ATOL
        for k in ("alpha", "p1", "p2a", "p2b")
    )


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def cli_argv(root: Path, position: int, cycle_seed: int, boot_b: int, sim_reps: int):
    """Kind and arguments of one CLI call.  A cycle of six, one round,
    alternates plain estimates (primary) with bootstrap estimates and a
    study (secondary)."""
    slot, rotate = position % 6, position // 6

    def data(k: int) -> str:
        return str(root / "data" / f"{CLI_DATASETS[k % 3]}.csv")

    if slot in (0, 2, 4):
        return "primary", ["estimate", "--data", data(slot // 2), "--method", "mme1,lp,nour"]
    if slot in (1, 3):
        scheme = "parametric" if slot == 1 else "nonparametric"
        return "secondary", ["estimate", "--data", data(rotate + slot // 2),
                             "--method", "mme1,lp", "--bootstrap", str(boot_b),
                             "--scheme", scheme, "--seed", str(cycle_seed)]
    return "secondary", ["simulate", "--preset", "P1", "--model", "I", "--na", "240",
                         "--nb", "200", "--alpha", "0.4", "--replicates", str(sim_reps),
                         "--seed", str(cycle_seed), "--estimators", "mme1,lp,nour"]


def child_env(root: Path) -> dict:
    """Environment of a child interpreter that imports dualrec from ``src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_subprocess(root: Path, argv: list[str], out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "dualrec.cli", *argv, "--out", str(out)],
        cwd=root, env=child_env(root), capture_output=True, text=True, timeout=120,
    )
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "out": out.read_text(encoding="utf-8") if out.exists() else None}


def cli_in_process(argv: list[str], out: Path) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*argv, "--out", str(out)])
    return {"exit": code, "stdout": buf.getvalue(), "stderr": "",
            "out": out.read_text(encoding="utf-8") if out.exists() else None}


def cli_output(root: Path, argv: list[str], result: dict) -> dict:
    rel = [os.path.relpath(a, root) if a.startswith(str(root)) else a for a in argv]
    return {"argv": rel, "exit": result["exit"], "stdout": result["stdout"],
            "stderr": result["stderr"],
            "out": json.loads(result["out"]) if result["out"] else None}


def cli_rows_check(out: dict, argv: list[str], where: str):
    """Method rows carry finite estimates with sizes >= x0, or an error;
    exit code 2 exactly when a row failed."""
    rows = out["out"] or []
    if out["exit"] not in (0, 2) or not rows or out["stderr"]:
        return [f"{where}: exit {out['exit']}, {len(rows)} rows, stderr {out['stderr']!r}"], 1, 0
    problems, failed = [], 0
    pair = load_stratum_pair(argv[argv.index("--data") + 1]) if argv[0] == "estimate" else None
    for row in rows:
        if row.get("error"):
            failed += 1
        elif pair is not None:
            problems += estimate_problems(row["estimates"], pair, f"{where} {row['method']}")
        elif not all(_finite(row[k]) for k in ("mean_na", "rrmse_na", "ci_lo", "ci_hi")):
            problems.append(f"{where}: non-finite study row {row}")
    if (failed > 0) != (out["exit"] == 2):
        problems.append(f"{where}: exit {out['exit']} but {failed} failed rows")
    return problems, len(rows), failed


def cli_ops(root: Path, tmp: Path, seed: int, chunk: int, positions, boot_b: int,
            sim_reps: int) -> list[Op]:
    """Timed subprocess calls; each check replays the call in-process and
    requires the same exit code, stdout and ``--out`` JSON."""
    ops = []
    for position in positions:
        kind, argv = cli_argv(root, position, derive_seed(seed, chunk, position // 6),
                              boot_b, sim_reps)
        label = f"cli {' '.join(argv[:1] + argv[3:])} #{chunk}/{position}"

        name = f"{chunk}-{position}.json"  # unique in the run, so never a stale file

        def check(out, argv=argv, label=label, name=name):
            problems, rows, failed = cli_rows_check(out, argv, label)
            expected = cli_output(root, argv, cli_in_process(argv, tmp / f"inproc-{name}"))
            if {**out, "stderr": ""} != expected:
                problems.append(f"{label}: subprocess output differs from in-process cli.main")
            return problems, rows, failed

        ops.append(Op(kind, 1, label,
                      lambda argv=argv, name=name: cli_subprocess(root, argv, tmp / f"out-{name}"),
                      lambda result, argv=argv: cli_output(root, argv, result), check))
    return ops


# ---------------------------------------------------------------------------
# Per-workload operation streams
# ---------------------------------------------------------------------------


def chunk_rounds(workload: str, seed: int, chunk: int, sizes: dict, root: Path,
                 tmp: Path) -> Iterator[list[Op]]:
    """The endless stream of rounds of one chunk of a run.

    fit-likelihood draws its tables here, during set-up, and cycles through
    them; the other workloads build each round just before it runs.
    """
    if workload == "replicate-moment":
        return (moment_round(derive_seed(seed, chunk, r), sizes["study_reps"], sizes["boot_b"])
                for r in itertools.count())
    if workload == "fit-likelihood":
        ops = fit_ops([fit_table(seed, chunk, i) for i in range(sizes["fit_tables"])])
        return itertools.cycle([ops[i:i + FIT_ROUND] for i in range(0, len(ops), FIT_ROUND)])
    if workload == "cli-cold":
        # chunk k starts at cycle k, so the bootstraps' datasets differ
        return (cli_ops(root, tmp, seed, chunk, range(6 * c, 6 * c + 6), sizes["cli_boot_b"],
                        sizes["cli_sim_reps"])
                for c in itertools.count(chunk))
    raise ValueError(f"unknown workload {workload!r}")


def reference_ops(workload: str, root: Path, tmp: Path) -> list[Op]:
    """The fixed default-seed inputs whose outputs reference.json records."""
    if workload == "replicate-moment":
        return moment_round(derive_seed(DEFAULT_SEED, 0, 0), REF_SIZES["study_reps"],
                            REF_SIZES["boot_b"])
    if workload == "fit-likelihood":
        return fit_ops([fit_table(DEFAULT_SEED, 0, i) for i in range(REF_SIZES["fits"])])
    if workload == "cli-cold":
        ops = []
        for position in range(6):
            kind, argv = cli_argv(root, position, derive_seed(DEFAULT_SEED, 0, 0),
                                  REF_SIZES["cli_boot_b"], REF_SIZES["cli_sim_reps"])
            out = tmp / f"ref-{position}.json"
            ops.append(Op(kind, 1, f"reference cli {position}",
                          lambda argv=argv, out=out: cli_in_process(argv, out),
                          lambda result, argv=argv: cli_output(root, argv, result),
                          lambda out, argv=argv: cli_rows_check(out, argv, "reference cli")))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def outputs_agree(workload: str, ref: dict, got: dict) -> bool:
    if workload == "fit-likelihood":
        return fits_agree(ref, got)
    return json.dumps(ref, sort_keys=True) == json.dumps(got, sort_keys=True)
