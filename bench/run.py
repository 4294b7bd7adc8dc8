"""Benchmark of the dualrec package: three workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload replicate-moment --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload fit-likelihood --seed 1 --seconds 2 --smoke
    python3 bench/run.py --record-reference

With ``--trace 0`` the run times the workload in fresh processes and prints
its end-to-end metrics; with ``--trace 1`` it runs the traced pass and
prints the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it report the environment, every metric under its workload
name, and the checks.  See bench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("replicate-moment", "fit-likelihood", "cli-cold")
DEADLINE_S = 170  # a run must end within 180 s

# The BLAS thread settings the env line records.  The benchmark leaves them
# as the user's environment has them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-run sizes; see workloads.py for what each one scales.
SIZES = {
    "full": {
        "chunks": 3,
        "setups": 2,  # set-up-only processes before each worker
        # the package's defaults: design_from_preset(replicates=5000),
        # bootstrap(b=1000) and `dualrec simulate --replicates 5000`
        "study_reps": 5000,
        "boot_b": 1000,
        "fit_tables": 18,
        "cli_boot_b": 1000,
        "cli_sim_reps": 5000,
        "trace_fits": 6,
        "pool_moment_reps": 20000,
        "pool_mle_reps": 6,
        "import_repeats": 3,
        "floor_repeats": 5,
        "micro_repeats": 2000,
    },
    "smoke": {
        "chunks": 1,
        "setups": 1,
        "study_reps": 50,
        "boot_b": 20,
        "fit_tables": 6,
        "cli_boot_b": 20,
        "cli_sim_reps": 50,
        "trace_fits": 2,
        "pool_moment_reps": 400,
        "pool_mle_reps": 2,
        "import_repeats": 1,
        "floor_repeats": 1,
        "micro_repeats": 50,
    },
}

# The workload's own metric names, as the README defines them:
# (name, operations it summarises, statistic, unit).
WORKLOAD_METRICS = {
    "replicate-moment": (("reps_per_s", "primary", "per_s", "replicates/s"),
                         ("resamples_per_s", "secondary", "per_s", "resamples/s")),
    "fit-likelihood": (("fit_i_p50_ms", "primary", "p50", "ms"),
                       ("fit_i_tail_ms", "primary", "tail", "ms"),
                       ("fit_ii_p50_ms", "secondary", "p50", "ms"),
                       ("fit_ii_tail_ms", "secondary", "tail", "ms")),
    "cli-cold": (("cli_p50_ms", "calls", "p50", "ms"), ("cli_tail_ms", "calls", "tail", "ms")),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail(values: list[float]):
    """The highest whole percentile with at least ten samples beyond it, as
    ``(percentile, value)`` by nearest rank, or None under eleven samples."""
    n = len(values)
    if n <= 10:
        return None
    pct = min(99, 100 * (n - 10) // n)
    rank = (pct * n + 99) // 100  # ceil(pct * n / 100) in integers
    return pct, sorted(values)[rank - 1]


def spawn(spec: dict, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON report."""
    spec = {**spec, "root": str(ROOT), "cal_ms": calibrate(), "spawned": time.monotonic()}
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    # its own process group, so that a timeout also stops the CLI children
    with subprocess.Popen(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker exceeded the {DEADLINE_S} s deadline")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{stderr[-3000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def environment(root: Path) -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((root / "src" / "dualrec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }


def merge_reference(workload: str, shares: list[dict]) -> dict:
    """Join the chunks' shares of the reference block, in block order."""
    recorded = json.loads((BENCH / "reference.json").read_text())[workload]
    by_index = {i: out for share in shares for i, out in zip(share["indices"], share["outputs"])}
    outputs = [by_index[i] for i in sorted(by_index)]
    problems = [p for share in shares for p in share["problems"]]
    if sorted(by_index) != list(range(len(recorded["outputs"]))):
        problems.append(f"reference block has {len(by_index)} outputs, "
                        f"reference.json {len(recorded['outputs'])}")
    got = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return {"digest": got, "identical": got == recorded["digest"], "problems": problems}


def timed_run(args, sizes: dict, tmp: Path, deadline: float) -> tuple[dict, dict, list]:
    """End-to-end metrics of one run, its full report and its problems."""
    chunks = sizes["chunks"]
    reports = []
    setups = []  # set-up times: every worker's, and those of set-up-only processes
    for k in range(chunks):
        spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds / chunks,
                "chunk": k, "chunks": chunks, "sizes": sizes, "tmp": str(tmp)}
        setups += [spawn({**spec, "mode": "setup"}, deadline) for _ in range(sizes["setups"])]
        reports.append(spawn({**spec, "mode": "chunk"}, deadline))
    setups += reports
    problems = [p for r in reports for p in r["problems"]]
    ref = merge_reference(args.workload, [r["reference"] for r in reports])
    problems += ref["problems"]

    def summary(kind):
        # single operations, not scaled; "calls" are those of either kind
        kinds = ("primary", "secondary") if kind == "calls" else (kind,)
        values = [x for r in reports for k in kinds for x in r["op_ms"][k]]
        busy = sum(r["busy_s"][k] for r in reports for k in kinds)
        if not values:
            problems.append(f"no {kind} operation completed")
            return None
        t = tail(values)
        return {"n": len(values), "p50": statistics.median(values),
                "tail": None if t is None else t[1], "tail_pct": None if t is None else t[0],
                "per_s": sum(r["units"][k] for r in reports for k in kinds) / busy}

    groups = {kind: summary(kind) for kind in ("primary", "secondary", "calls")}
    # the gated metrics: times scaled to the reference speed (worker.py)
    metrics = {
        "setup_s": (statistics.median(r["setup_scaled_s"] for r in setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
    }
    for kind in ("primary", "secondary"):
        samples = [x for r in reports for x in r["samples"][kind]]
        if samples:
            metrics[f"{kind}_p50_scaled_ms"] = (statistics.median(samples), "ms")

    est_attempted = sum(r["est_attempted"] for r in reports)
    est_failed = sum(r["est_failed"] for r in reports)
    named = [("setup_s", statistics.median(r["setup_s"] for r in setups), "s",
              f"median of {len(setups)} fresh processes, not scaled"),
             ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB",
              "largest CLI child" if args.workload == "cli-cold" else "largest worker"),
             ("fail_ratio", est_failed / est_attempted if est_attempted else None, "ratio",
              f"base {est_attempted} estimator operations")]
    for name, kind, stat, unit in WORKLOAD_METRICS[args.workload]:
        g = groups[kind] or {}
        note = f"{g.get('n', 0)} samples"
        if stat == "tail":
            note = (f"p{g['tail_pct']} of {g['n']} samples" if g.get("tail_pct") is not None
                    else f"undefined under 11 samples, {g.get('n', 0)} taken")
        named.append((name, g.get(stat), unit, note))
    full = {"named": named, "groups": groups, "setup_s_each": [r["setup_s"] for r in setups],
            "speed_each": [r["speed"] for r in reports],
            "samples": {k: [r["samples"][k] for r in reports] for k in ("primary", "secondary")},
            "rounds": [r["rounds"] for r in reports], "blas_threads": reports[0]["blas_threads"]}
    wall = sum(r["wall_s"] for r in reports)
    full["cpu_share"] = sum(r["cpu_s"] for r in reports) / wall if wall else None
    full["digests"] = [r["digest"] for r in reports]
    full["reference_digest"] = ref["digest"]
    full["reference_identical"] = ref["identical"]
    full["attempted"] = sum(r["attempted"] for r in reports)
    full["failed"] = sum(r["failed"] for r in reports)
    return metrics, full, problems


def traced_run(args, sizes: dict, tmp: Path, deadline: float) -> tuple[dict, dict, list]:
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    report = spawn({"mode": "trace", "workload": args.workload, "seed": args.seed,
                    "sizes": sizes, "tmp": str(tmp), "spans_path": str(spans_path)}, deadline)
    metrics = {k: tuple(v) for k, v in report["metrics"].items()}
    full = {"absent": report["absent"], "absent_patch_points": report["absent_patch_points"],
            "spans_file": os.path.relpath(spans_path, ROOT),
            "spans": sum(1 for _ in spans_path.open(encoding="utf-8")),
            "blas_threads": report["blas_threads"],
            "attempted": report["attempted"], "failed": report["failed"]}
    return metrics, full, report["problems"]


def record_reference(deadline: float) -> int:
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH) as tmp:
        recorded = {}
        for workload in WORKLOADS:
            report = spawn({"mode": "record", "workload": workload, "tmp": tmp}, deadline)
            if report["problems"]:
                print("\n".join(report["problems"]), file=sys.stderr)
                return 1
            recorded[workload] = {"digest": report["digest"], "outputs": report["outputs"]}
    (BENCH / "reference.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BENCH / 'reference.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one chunk")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current code and exit")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/dualrec/__init__.py", "data") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a dualrec checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(deadline)
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    sizes = SIZES["smoke" if args.smoke else "full"]
    load_before = os.getloadavg()
    tmp = Path(tempfile.mkdtemp(prefix=".run-", dir=BENCH))
    try:
        run = traced_run if args.trace else timed_run
        metrics, full, problems = run(args, sizes, tmp, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env = environment(ROOT)
    env["blas_threads"] = full.pop("blas_threads")
    env["load_before"] = load_before
    env["load_after"] = os.getloadavg()
    # another process competed for the CPU: more runnable work than cores
    # before the run, or the workload got well under a full core
    share = full.get("cpu_share")
    env["foreign_load"] = load_before[0] > env["nproc_usable"] or (
        share is not None and share < 0.9)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    for name, value, unit, note in full.get("named", ()):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit} ({note})")
    print("report " + json.dumps(full, sort_keys=True))
    for p in problems[:50]:
        print(f"problem {p}")
    if len(problems) > 50:
        print(f"problem ... and {len(problems) - 50} more")
    correct = not problems and full["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
