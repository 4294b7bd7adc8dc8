"""End-to-end tests for the command-line interface."""

import csv
import io
import json
from pathlib import Path

import pytest

from dualrec.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"
VOLES = str(DATA / "voles.csv")
ENCEPHALITIS = str(DATA / "encephalitis.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_report_all_methods(capsys):
    code, out, err = run(
        capsys,
        "estimate",
        "--data",
        VOLES,
        "--method",
        "mme1,mme2,lp,nour,wolter1,wolter2",
        "--ratio",
        "1.147",
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "strata: A = Male, B = Female"
    assert "MME-I: n_a = 81, n_b = 73, alpha = 0.0047" in lines
    assert "MME-II: n_a = 82, n_b = 73, alpha = 0.0191" in lines
    assert "LP: n_a = 81, n_b = 73" in lines
    assert "NOUR: n_a = 86, n_b = 74" in lines
    assert "WOLTER-1: n_a = 84, n_b = 73" in lines
    assert "WOLTER-2: n_a = 83, n_b = 73" in lines


def test_estimate_infeasible_method_reported_inline(capsys):
    code, out, err = run(
        capsys, "estimate", "--data", ENCEPHALITIS, "--method", "nour,mme1"
    )
    assert code == 2
    assert "NOUR: infeasible - ConditionViolated" in out
    assert "x11^2 > x10*x01" in out
    # the feasible method still runs
    assert "MME-I: n_a = 575, n_b = 171, alpha = 0.0000" in out


def test_dependent_flag_swaps_strata(capsys):
    code, out, _ = run(
        capsys, "estimate", "--data", VOLES, "--method", "lp", "--dependent", "Female"
    )
    assert code == 0
    assert "strata: A = Female, B = Male" in out
    assert "LP: n_a = 73, n_b = 81" in out


def test_dump_round_trips_canonical_csv(capsys):
    code, out, _ = run(capsys, "estimate", "--data", VOLES, "--dump")
    assert code == 0
    assert out == Path(VOLES).read_text(encoding="utf-8")
    assert "strata:" not in out


def test_bootstrap_report_lines(capsys):
    code, out, _ = run(
        capsys,
        "estimate",
        "--data",
        VOLES,
        "--method",
        "lp",
        "--bootstrap",
        "50",
        "--scheme",
        "nonparametric",
        "--seed",
        "0",
    )
    assert code == 0
    assert "LP: n_a = 81 [2.03], n_b = 73 [0.84]" in out
    assert "  95% interval: n_a (78.5, 86.1), n_b (72.3, 75.5)" in out


def test_estimate_out_files_rerun_identically(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    args = ("estimate", "--data", ENCEPHALITIS, "--method", "nour,mme1")
    code, _, _ = run(capsys, *args, "--out", str(out_json))
    assert code == 2
    first = out_json.read_bytes()
    rows = json.loads(first)
    assert rows[0]["method"] == "NOUR"
    assert rows[0]["error"].startswith("ConditionViolated")
    assert rows[1]["estimates"]["n_a"] == 575.0
    run(capsys, *args, "--out", str(out_json))
    assert out_json.read_bytes() == first

    out_csv = tmp_path / "report.csv"
    code, _, _ = run(capsys, *args, "--out", str(out_csv))
    assert code == 2
    text = out_csv.read_text(encoding="utf-8")
    header = text.splitlines()[0]
    assert header == (
        "method,n_a,se_n_a,ci_lo_n_a,ci_hi_n_a,"
        "n_b,se_n_b,ci_lo_n_b,ci_hi_n_b,alpha,error"
    )
    assert "575.0" in text


def test_estimate_bootstrap_fills_csv_interval_columns(capsys, tmp_path):
    out_csv = tmp_path / "report.csv"
    argv = ("--method", "lp", "--bootstrap", "50", "--seed", "0", "--out", str(out_csv))
    code, _, _ = run(capsys, "estimate", "--data", VOLES, "--scheme", "nonparametric", *argv)
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out_csv.read_text(encoding="utf-8")))
    # the figures test_bootstrap_report_lines reads in the report, at the CSV's precision
    assert round(float(row["se_n_a"]), 2) == 2.03
    assert round(float(row["se_n_b"]), 2) == 0.84
    assert round(float(row["ci_lo_n_a"]), 1) == 78.5
    assert round(float(row["ci_hi_n_a"]), 1) == 86.1
    assert round(float(row["ci_lo_n_b"]), 1) == 72.3
    assert round(float(row["ci_hi_n_b"]), 1) == 75.5
    assert row["error"] == ""


def test_estimate_out_extension_checked(capsys, tmp_path):
    # checked before any estimate runs, for both subcommands
    simulate = ("simulate", "--preset", "P1", "--na", "240", "--nb", "200", "--alpha", "0.4")
    for argv in (("estimate", "--data", VOLES, "--method", "lp"), simulate):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "report.txt"))
        assert code == 1
        assert out == ""
        assert "--out must end in .json or .csv" in err
        assert not (tmp_path / "report.txt").exists()
    # so is a negative seed
    estimate = ("estimate", "--data", VOLES, "--method", "lp", "--bootstrap", "10")
    for argv in (estimate, simulate):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "--seed must be nonnegative, got -1" in err


def test_bootstrap_with_one_success_is_an_infeasible_row(capsys, tmp_path):
    # one of the two resamples fails; the row reports the error, and the
    # JSON holds no bare NaN standard error
    data = tmp_path / "small.csv"
    data.write_text("stratum,x11,x10,x01\nA,3,2,1\nB,2,1,2\n", encoding="utf-8")
    out_json = tmp_path / "x.json"
    argv = ("--method", "lp", "--bootstrap", "2", "--seed", "5", "--out", str(out_json))
    code, _, _ = run(capsys, "estimate", "--data", str(data), *argv)
    assert code == 2
    text = out_json.read_text(encoding="utf-8")
    assert "NaN" not in text
    assert json.loads(text)[0]["error"].startswith("AllResamplesFailed")


@pytest.mark.parametrize("b", ["1", "-3"])
def test_estimate_bootstrap_count_checked(capsys, b):
    code, out, err = run(
        capsys, "estimate", "--data", VOLES, "--method", "lp", "--bootstrap", b
    )
    assert code == 1
    assert out == ""
    assert f"--bootstrap must be 0 or at least 2, got {b}" in err


def test_estimate_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "estimate", "--data", str(tmp_path / "nope.csv"), "--method", "lp"
    )
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize(
    "name, text",
    [
        ("bad.csv", "stratum,x11,x10,x01\nA,1,-2,3\nB,4,5,6\n"),
        ("bad.json", json.dumps([{"stratum": "A", "x11": 1, "x10": -2, "x01": 3},
                                 {"stratum": "B", "x11": 4, "x10": 5, "x01": 6}])),
    ],
    ids=["csv", "json"],
)
def test_negative_count_in_data_file_is_an_input_error(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "estimate", "--data", str(path), "--method", "lp")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    where = "row 2" if name.endswith(".csv") else "stratum 1"
    assert err == f"error: {path}: {where}: x10 must be nonnegative, got -2\n"


@pytest.mark.parametrize(
    "argv", [("estimate", "--method", "lp", "--data"), ("simulate", "--config")]
)
def test_non_utf8_input_file_is_an_input_error(capsys, tmp_path, argv):
    path = tmp_path / "input.csv"
    path.write_bytes(b"stratum,x11,x10,x01\nA\xff,1,2,3\nB,4,5,6\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert err.count("\n") == 1


def test_estimate_unknown_method(capsys):
    code, _, err = run(capsys, "estimate", "--data", VOLES, "--method", "zz")
    assert code == 1
    assert "unknown method 'zz'" in err
    code, _, err = run(capsys, "estimate", "--data", VOLES, "--method", ",")
    assert code == 1
    assert "no methods given" in err


@pytest.mark.parametrize(
    "argv",
    [("estimate", "--method", "lp"), ("simulate", "--model", "III"), ("frobnicate",)],
    ids=["no-data", "bad-choice", "unknown-command"],
)
def test_usage_errors_exit_1(capsys, argv):
    # argparse's own usage errors take the CLI's error path: one line, exit 1
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_estimate_method_required_without_dump(capsys):
    code, _, err = run(capsys, "estimate", "--data", VOLES)
    assert code == 1
    assert "--method is required" in err


def test_ratio_methods_require_ratio_flag(capsys):
    code, _, err = run(capsys, "estimate", "--data", VOLES, "--method", "wolter1")
    assert code == 1
    assert "WOLTER-1 requires --ratio" in err
    # checked before any method runs
    code, out, err = run(capsys, "estimate", "--data", VOLES, "--method", "lp,wolter2")
    assert code == 1
    assert out == ""
    assert "WOLTER-2 requires --ratio" in err
    # a non-finite ratio is a usage error, also checked before any method runs
    for ratio in ("nan", "inf"):
        code, out, err = run(
            capsys, "estimate", "--data", VOLES, "--method", "lp,wolter2", "--ratio", ratio
        )
        assert code == 1
        assert out == ""
        assert f"--ratio must be finite, got {ratio}" in err
    # so is a nonpositive one, rather than an error reported by each method
    for ratio in ("0", "-1"):
        code, out, err = run(
            capsys, "estimate", "--data", VOLES, "--method", "mle1,wolter2", "--ratio", ratio
        )
        assert code == 1
        assert out == ""
        assert f"--ratio must be positive, got {float(ratio)}" in err


def test_simulate_preset_study_row(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--preset",
        "P1",
        "--model",
        "I",
        "--na",
        "240",
        "--nb",
        "200",
        "--alpha",
        "0.4",
        "--replicates",
        "5000",
        "--seed",
        "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "design,estimator,mean_na,rrmse_na,ci_lo,ci_hi,mean_alpha,failures"
    assert lines[1] == "P1,MME-I,240.6441,0.0854,202.2635,282.146,0.3847,0"


def test_simulate_second_model_design(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--preset",
        "P6",
        "--model",
        "II",
        "--na",
        "240",
        "--nb",
        "200",
        "--alpha",
        "0.8",
        "--replicates",
        "100",
        "--seed",
        "1",
    )
    assert code == 0
    assert out.splitlines()[1] == "P6,MME-I,145.1117,0.398,124.4761,164.4918,0.0997,0"


def test_simulate_all_replicates_failed_row(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--preset",
        "P6",
        "--model",
        "II",
        "--na",
        "240",
        "--nb",
        "200",
        "--alpha",
        "0.8",
        "--estimators",
        "mme2",
        "--replicates",
        "5",
        "--seed",
        "1",
    )
    assert code == 2
    lines = out.splitlines()
    assert lines[1] == "P6,MME-II,,,,,,5"
    assert "# P6/MME-II: AllReplicatesFailed: MME-II failed on all 5 replicates" in lines


def test_simulate_flag_validation(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", "--preset", "P1", "--nb", "200", "--alpha", "0")
    assert code == 1
    assert "--preset requires --na, --nb and --alpha" in err

    code, _, err = run(capsys, "simulate")
    assert code == 1
    assert "exactly one of --preset or --config" in err

    cfg = tmp_path / "designs.json"
    cfg.write_text("[]", encoding="utf-8")
    code, _, err = run(
        capsys, "simulate", "--preset", "P1", "--config", str(cfg)
    )
    assert code == 1
    assert "exactly one of --preset or --config" in err

    code, _, err = run(capsys, "simulate", "--preset", "P7", "--na", "1", "--nb", "1", "--alpha", "0")
    assert code == 1
    assert "valid presets: P1, P2, P3, P4, P5, P6" in err

    # a size the multinomial draw cannot take is refused before any replicate
    code, out, err = run(
        capsys, "simulate", "--preset", "P1", "--na", "100000000000000000000",
        "--nb", "100", "--alpha", "0.3", "--replicates", "3",
    )
    assert code == 1
    assert out == ""
    assert "below 2**63" in err

    # so is a worker cap below 1, which would otherwise become an error row
    for threads in ("0", "-2"):
        code, out, err = run(
            capsys, "simulate", "--preset", "P1", "--na", "240", "--nb", "200",
            "--alpha", "0.4", "--replicates", "5", "--threads", threads,
        )
        assert code == 1
        assert out == ""
        assert f"--threads must be at least 1, got {threads}" in err


def _base_design():
    return {
        "name": "demo",
        "p1dot_a": 0.6,
        "pdot1_a": 0.8,
        "p1dot_b": 0.6,
        "pdot1_b": 0.8,
        "alpha": 0.4,
        "n_a": 240,
        "n_b": 200,
        "seed": 3,
        "replicates": 50,
    }


def test_simulate_config_file(capsys, tmp_path):
    design = _base_design()
    design["estimators"] = ["lp", "mme1"]
    cfg = tmp_path / "designs.json"
    cfg.write_text(json.dumps({"designs": [design]}), encoding="utf-8")
    code, out, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("demo,LP,")
    assert lines[2].startswith("demo,MME-I,")


def test_simulate_config_errors(capsys, tmp_path):
    cfg = tmp_path / "designs.json"

    design = _base_design()
    del design["seed"]
    cfg.write_text(json.dumps([design]), encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert "design 1: missing field(s) seed" in err

    cfg.write_text("{nope", encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert "invalid JSON at line 1" in err

    design = _base_design()
    design["estimators"] = "lp"
    cfg.write_text(json.dumps([design]), encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert "estimators must be a list" in err

    # an empty design list, a design that is not an object, an infeasible
    # design and a missing file
    infeasible = {**_base_design(), "alpha": 0.99}
    for text, message in (
        (json.dumps({"designs": []}), "expected a nonempty list of designs"),
        ("[5]", "design 1: expected an object"),
        (json.dumps([infeasible]), "design 1: marginal 0.8 with p1=0.6, alpha=0.99 implies"),
    ):
        cfg.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {cfg}: {message}")
    code, out, err = run(capsys, "simulate", "--config", str(tmp_path / "nope.json"))
    assert code == 1
    assert out == ""
    assert "cannot read" in err

    # integer fields refuse overflowing and fractional numbers, and booleans
    bad = (("n_a", "1e400"), ("replicates", "1e400"), ("seed", "1e400"), ("n_a", "12.7"),
           ("n_b", "true"), ("seed", "false"))
    for field, value in bad:
        design = _base_design()
        design[field] = "@"
        cfg.write_text(json.dumps([design]).replace('"@"', value), encoding="utf-8")
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert f"design 1: {field}: expected an integer" in err


def test_simulate_out_rerun_identical(capsys, tmp_path):
    out_csv = tmp_path / "study.csv"
    args = (
        "simulate",
        "--preset",
        "P1",
        "--na",
        "240",
        "--nb",
        "200",
        "--alpha",
        "0.4",
        "--replicates",
        "200",
        "--seed",
        "9",
        "--estimators",
        "lp,mme1",
    )
    code, out, _ = run(capsys, *args, "--out", str(out_csv))
    assert code == 0
    first = out_csv.read_bytes()
    assert out.encode("utf-8") == first
    run(capsys, *args, "--out", str(out_csv))
    assert out_csv.read_bytes() == first
