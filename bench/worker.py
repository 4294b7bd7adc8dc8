"""One fresh benchmark process: set up, run, check, and report as JSON.

``run.py`` starts this file with a JSON spec as its only argument and reads
the JSON object on the last line of its stdout.  Set-up time runs from the
moment ``run.py`` spawned the process to the first timed operation, so it
covers interpreter start, ``import dualrec`` and building the inputs.

A spec's ``mode`` is ``chunk`` (whole rounds of timed operations for about
``seconds``, then the checks and this chunk's share of the reference
block), ``setup`` (a chunk's set-up only, for more samples of set-up
time), ``trace`` (the traced pass of tracing.py) or ``record`` (the
reference block's outputs, for writing reference.json).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent

# Machine speed.  On a shared host the CPU's speed drifts by up to half
# within minutes, for the same work.  So every timed operation is also
# scaled to a reference speed: its wall time times CAL_REF_MS over the mean
# time of the calibration loop run just before and just after it.  The
# loop is the benchmark's own fixed code, so a faster package lowers the
# scaled times while the machine's drift cancels.  It does what the
# package's inner loops do (small numpy draws, float arithmetic, dicts,
# generators), because a pure integer loop tracked the drift only in part.
# CAL_REF_MS is the loop's median on a 2-core Intel Xeon VM.
CAL_LOOPS = 1000
CAL_REF_MS = 9.0


def calibrate() -> float:
    """Wall time in ms of the calibration loop."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(CAL_LOOPS):
        x = rng.multinomial(200, (0.3, 0.3, 0.4))
        d = {"n": float(x[0]), "r": float(x[1]) / (x[2] + 1.0)}
        acc += d["n"] * d["r"] + sum(j * j % 7 for j in range(20))
    return 1e3 * (time.perf_counter() - t0)


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def _cpu_s(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                found[Path(lib).name] = getter()
                break
    return found


def run_chunk(spec: dict, wl, root: Path, tmp: Path) -> dict:
    """Time whole rounds of one chunk for about ``spec["seconds"]``, then
    check every operation and this chunk's share of the reference block."""
    workload, sizes = spec["workload"], spec["sizes"]
    rounds = wl.chunk_rounds(workload, spec["seed"], spec["chunk"], sizes, root, tmp)
    setup_s = time.monotonic() - spec["spawned"]
    cal = [calibrate()]  # run.py calibrated just before it spawned this process
    setup_scaled_s = setup_s * 2 * CAL_REF_MS / (spec["cal_ms"] + cal[0])
    if spec["mode"] == "setup":
        return {"setup_s": setup_s, "setup_scaled_s": setup_scaled_s}

    # cli-cold does its work in child processes; the others in this one
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    cpu0 = _cpu_s(who)
    kinds = ("primary", "secondary")
    samples = {k: [] for k in kinds}  # gated, scaled: one per round (POOLED) or per operation
    op_ms = {k: [] for k in kinds}  # one per operation, per unit, not scaled
    units = {k: 0 for k in kinds}
    busy = {k: 0.0 for k in kinds}
    done, problems, first_round = [], [], 0
    budget = spec["seconds"]
    n_rounds = 0
    start = time.perf_counter()
    for ops in rounds:
        elapsed = time.perf_counter() - start
        # Start another round if one of the mean length so far ends nearer
        # the budget than stopping now would; always run one.
        if n_rounds and elapsed * (n_rounds + 0.5) / n_rounds > budget:
            break
        n_rounds += 1
        spent = {k: 0.0 for k in kinds}
        scaled = {k: 0.0 for k in kinds}
        covered = {k: 0 for k in kinds}
        whole = dict.fromkeys(kinds, True)
        for op in ops:
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as e:  # counted and reported as a failed operation
                problems.append(f"{op.label}: {type(e).__name__}: {e}")
                whole[op.kind] = False
                cal.append(calibrate())
                continue
            dt = time.perf_counter() - t0
            cal.append(calibrate())
            sdt = dt * 2 * CAL_REF_MS / (cal[-2] + cal[-1])
            op_ms[op.kind].append(1e3 * dt / op.units)
            if op.kind not in wl.POOLED[workload]:
                samples[op.kind].append(1e3 * sdt / op.units)
            spent[op.kind] += dt
            scaled[op.kind] += sdt
            covered[op.kind] += op.units
            done.append((op, result))
        for k in kinds:
            units[k] += covered[k]
            busy[k] += spent[k]
            if k in wl.POOLED[workload] and whole[k] and covered[k]:
                samples[k].append(1e3 * scaled[k] / covered[k])
        if n_rounds == 1:
            first_round = len(done)
    wall = time.perf_counter() - start
    cpu = _cpu_s(who) - cpu0
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    attempted = len(done) + len(problems)
    failed = len(problems)
    est_attempted = est_failed = 0
    outputs = []
    for op, result in done:
        out = op.output(result)
        found, est_att, est_fail = op.check(out)
        est_attempted += est_att
        est_failed += est_fail
        failed += bool(found)
        problems += found
        outputs.append(out)

    return {
        "setup_s": setup_s,
        "setup_scaled_s": setup_scaled_s,
        "speed": CAL_REF_MS / statistics.median(cal),
        "samples": samples,
        "op_ms": op_ms,
        "units": units,
        "busy_s": busy,
        "rounds": n_rounds,
        "attempted": attempted,
        "failed": failed,
        "est_attempted": est_attempted,
        "est_failed": est_failed,
        "problems": problems,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": blas_threads(),
        # the first round's outputs do not depend on machine speed
        "digest": digest(outputs[:first_round]),
        "reference": check_reference(wl, workload, root, tmp, spec["chunk"], spec["chunks"]),
    }


def reference_outputs(wl, workload: str, root: Path, tmp: Path, chunk: int = 0, chunks: int = 1):
    """Outputs of every ``chunks``-th op of the default-seed reference
    block, starting at ``chunk``, with their indices and invariant problems."""
    indices, outputs, problems = [], [], []
    ops = wl.reference_ops(workload, root, tmp)
    for i in range(chunk, len(ops), chunks):
        out = ops[i].output(ops[i].call())
        problems += ops[i].check(out)[0]
        indices.append(i)
        outputs.append(out)
    return indices, outputs, problems


def check_reference(wl, workload: str, root: Path, tmp: Path, chunk: int, chunks: int) -> dict:
    """This chunk's share of the reference block, compared op by op with
    reference.json; run.py joins the shares and compares the digest."""
    indices, outputs, problems = reference_outputs(wl, workload, root, tmp, chunk, chunks)
    recorded = json.loads((BENCH / "reference.json").read_text())[workload]["outputs"]
    for i, got in zip(indices, outputs):
        if i >= len(recorded) or not wl.outputs_agree(workload, recorded[i], got):
            problems.append(f"reference output {i} differs from reference.json")
    return {"indices": indices, "outputs": outputs, "problems": problems}


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads as wl

    tmp = Path(spec["tmp"])
    if spec["mode"] in ("chunk", "setup"):
        report = run_chunk(spec, wl, root, tmp)
    elif spec["mode"] == "record":
        _, outputs, problems = reference_outputs(wl, spec["workload"], root, tmp)
        report = {"outputs": outputs, "digest": digest(outputs), "problems": problems}
    else:
        import tracing

        report = tracing.run_trace(root, spec["seed"], spec["sizes"], tmp)
        report["blas_threads"] = blas_threads()
        spans = report.pop("spans")
        with open(spec["spans_path"], "w", encoding="utf-8") as f:
            for s in spans:
                f.write(json.dumps(dict(zip(
                    ("name", "op", "parent", "start", "end", "error", "attrs"), s))) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
