"""Tests of the benchmark itself.  They run its smoke mode in subprocesses:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    problems = [line for line in lines if line.startswith("problem ")]
    return result, report, problems


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_checks_outputs_and_reports_every_end_to_end_metric(workload):
    result, report, problems = smoke(workload, trace=0)
    assert result["correct"] and not problems
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert report["reference_identical"]
    # mixed rounds give one sample per round, so every part of the mix counts
    rounds = sum(report["rounds"])
    pooled = {"replicate-moment": ("primary", "secondary"), "cli-cold": ("secondary",)}
    for kind in pooled.get(workload, ()):
        assert sum(len(chunk) for chunk in report["samples"][kind]) == rounds
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_smoke_trace_replays_identically_and_reports_every_per_layer_metric():
    result, report, problems = smoke("replicate-moment", trace=1)
    assert report["absent"] == {}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["correct"] and not problems and result["failed"] == 0
    # MME-I sizes below x0 (an open defect of the package) are counted, not failed
    assert 0 <= result["metrics"]["mme.model_i_below_x0_ratio"]["value"] <= 1


def test_mme_i_closed_form_matches_the_package():
    from dualrec.core import DrsTable, StratumPair
    from dualrec.mme import mme_model_i

    import workloads

    # n_a = [40 * 25 / 20] = 50, below x0A = 60
    pair = StratumPair(DrsTable(x11=10, x10=30, x01=20), DrsTable(x11=20, x10=10, x01=5))
    est = mme_model_i(pair).estimates
    assert workloads.below_x0(est, pair) == ["n_a = 50.0 below x0 = 60"]
    assert workloads.mme_i_sizes(pair) == {"n_a": 50.0, "n_b": 37.0}
    assert {k: est[k] for k in ("n_a", "n_b")} == workloads.mme_i_sizes(pair)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".run-*", "__pycache__"))
    proc = bench("--workload", "replicate-moment", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_leaves_at_least_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(17))) == (41, 6)
    assert run.tail(list(range(1000))) == (99, 989)
    for n in (11, 100, 250, 5000):
        _, value = run.tail(list(range(n)))
        assert sum(x > value for x in range(n)) >= 10


def test_missing_patch_point_is_reported_absent_not_fatal(monkeypatch):
    import dualrec.sim

    generate_pair, apply_method = dualrec.sim.generate_pair, dualrec.sim.apply_method
    moved = ("dualrec.sim", "generate_pair_moved", "sim.generate_pair", None)
    points = tuple(p for p in tracing.PATCH_POINTS if p[2] != "sim.generate_pair") + (moved,)
    monkeypatch.setattr(tracing, "PATCH_POINTS", points)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert dualrec.sim.apply_method is not apply_method
        assert dualrec.sim.generate_pair is generate_pair
    assert tracer.absent == ["sim.generate_pair"]
    assert dualrec.sim.apply_method is apply_method
    absent = tracing.absent_metrics(
        {"sim.generate_pair_us": (None, "us"), "sim.aggregate_us": (36.0, "us"),
         "core.drs_table_us": (3.5, "us")}, tracer.absent)
    assert set(absent) == {"sim.generate_pair_us", "sim.aggregate_us"}
