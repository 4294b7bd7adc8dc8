"""Command-line front end.

Two subcommands:

* ``dualrec estimate`` — load a two-stratum dataset, run one or more
  estimators (optionally with bootstrap standard errors), and print a
  per-method report.  ``--dump`` echoes the parsed dataset in canonical
  CSV form.
* ``dualrec simulate`` — run one replicate study per design (a built-in
  preset or each design of a JSON config), emitting one CSV/JSON row per
  (design, estimator).

:mod:`dualrec.datasets` reads every input file: a dataset, or a config, a
list of designs or ``{"designs": [...]}``.  A design's fields are
:class:`~dualrec.sim.DesignPoint`'s, integers read as a dataset's counts
are and each field checked by ``DesignPoint`` itself; a field with a default
may be omitted, and ``name`` (a string) and ``estimators`` (a list of method
tokens) may be added.  Any other key is refused.  The flags and designs are
checked by the library's own checks.

Exit codes: 0 success; 1 I/O, parse, or usage errors, every
:class:`~dualrec.core.DualrecError` that reaches :func:`main` included; 2
estimation infeasibility (an infeasible method in a multi-method run is
reported inline without aborting the others).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .boot import _SCHEMES, bootstrap
from .core import AllReplicatesFailed, DualrecError, check_integer, check_real
from .datasets import _integer, _read_json, csv_text, load_stratum_pair, pair_to_csv
from .sim import ESTIMATORS, DesignPoint, apply_method, design_from_preset, run_study

METHOD_TOKENS = {spec.token: name for name, spec in ESTIMATORS.items()}


class _CliError(Exception):
    """Usage or input error that should exit with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _CliError(message)


def _parse_methods(tokens: str) -> list[str]:
    methods = []
    for token in tokens.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in METHOD_TOKENS:
            raise _CliError(
                f"unknown method {token!r}; valid: {', '.join(sorted(METHOD_TOKENS))}"
            )
        methods.append(METHOD_TOKENS[token])
    if not methods:
        raise _CliError("no methods given")
    return methods


def _fmt_n(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:.2f}"


def _fmt_p(x: float) -> str:
    return f"{x:.4f}"


def _estimate_rows(args, pair) -> list[dict]:
    """Run every requested method; rows carry results or inline errors."""
    methods = _parse_methods(args.method)
    for method in methods:
        if ESTIMATORS[method].needs_ratio and args.ratio is None:
            raise _CliError(f"{method} requires --ratio")
    rows = []
    for method in methods:
        try:
            if args.bootstrap > 0:
                result = bootstrap(
                    pair,
                    method,
                    scheme=args.scheme,
                    b=args.bootstrap,
                    seed=args.seed,
                    ratio=args.ratio,
                )
            else:
                result = apply_method(method, pair, ratio=args.ratio)
            rows.append(
                {
                    "method": method,
                    "estimates": result.estimates,
                    "se": result.se,
                    "ci": result.ci,
                    "error": None,
                }
            )
        except DualrecError as e:
            rows.append(
                {
                    "method": method,
                    "estimates": None,
                    "se": None,
                    "ci": None,
                    "error": f"{type(e).__name__}: {e}",
                }
            )
    return rows


def _print_estimate_report(pair, rows) -> None:
    print(f"strata: A = {pair.label_a}, B = {pair.label_b}")
    for row in rows:
        if row["error"] is not None:
            print(f"{row['method']}: infeasible - {row['error']}")
            continue
        est = row["estimates"]
        parts = []
        for key in ("n_a", "n_b"):
            if key in est:
                cell = f"{key} = {_fmt_n(est[key])}"
                if row["se"] and key in row["se"]:
                    cell += f" [{row['se'][key]:.2f}]"
                parts.append(cell)
        if "alpha" in est:
            parts.append(f"alpha = {_fmt_p(est['alpha'])}")
        print(f"{row['method']}: " + ", ".join(parts))
        if row["ci"]:
            spans = ", ".join(
                f"{k} ({lo:.1f}, {hi:.1f})" for k, (lo, hi) in row["ci"].items()
            )
            print(f"  95% interval: {spans}")


_ESTIMATE_CSV_COLUMNS = (
    "method",
    "n_a",
    "se_n_a",
    "ci_lo_n_a",
    "ci_hi_n_a",
    "n_b",
    "se_n_b",
    "ci_lo_n_b",
    "ci_hi_n_b",
    "alpha",
    "error",
)


def _estimate_csv(rows) -> str:
    recs = []
    for row in rows:
        rec = {"method": row["method"], "error": row["error"] or ""}
        est, se, ci = row["estimates"] or {}, row["se"] or {}, row["ci"] or {}
        for key in ("n_a", "n_b"):
            if key in est:
                rec[key] = est[key]
            if key in se:
                rec[f"se_{key}"] = round(se[key], 6)
            if key in ci:
                rec[f"ci_lo_{key}"], rec[f"ci_hi_{key}"] = (
                    round(ci[key][0], 6),
                    round(ci[key][1], 6),
                )
        if "alpha" in est:
            rec["alpha"] = round(est["alpha"], 6)
        recs.append(rec)
    return csv_text(_ESTIMATE_CSV_COLUMNS, recs)


def _check_shared_flags(args) -> None:
    """Check the flags both subcommands take, before any work runs."""
    if args.out is not None:
        out = Path(args.out)
        if out.suffix.lower() not in (".json", ".csv"):
            raise _CliError(f"--out must end in .json or .csv, got {args.out!r}")
        if out.is_dir():
            raise _CliError(f"cannot write {args.out}: it is a directory")
        if not out.parent.is_dir():
            raise _CliError(f"cannot write {args.out}: no directory {str(out.parent)!r}")
    check_integer("--seed", args.seed, 0)


def _write_out(path: str, rows, csv_table: str) -> None:
    """Write ``rows`` to ``path`` as JSON, or as their ``csv_table``, by its suffix."""
    is_json = Path(path).suffix.lower() == ".json"
    text = json.dumps(rows, indent=2, sort_keys=True) + "\n" if is_json else csv_table
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:  # no permission, or the directory changed since the check
        raise _CliError(f"cannot write {path}: {e}")


def cmd_estimate(args) -> int:
    _check_shared_flags(args)
    if args.bootstrap < 0 or args.bootstrap == 1:
        raise _CliError(f"--bootstrap must be 0 or at least 2, got {args.bootstrap}")
    if args.ratio is not None:
        check_real("--ratio", args.ratio, "(0,inf)")
    try:
        pair = load_stratum_pair(args.data, dependent=args.dependent)
    except OSError as e:
        raise _CliError(f"cannot read {args.data}: {e}")
    if args.dump:
        sys.stdout.write(pair_to_csv(pair))
        if args.method is None:
            return 0
    if args.method is None:
        raise _CliError("--method is required unless --dump is given")
    rows = _estimate_rows(args, pair)
    _print_estimate_report(pair, rows)
    if args.out:
        _write_out(args.out, rows, _estimate_csv(rows))
    return 2 if any(row["error"] for row in rows) else 0


_STUDY_CSV_COLUMNS = (
    "design",
    "estimator",
    "mean_na",
    "rrmse_na",
    "ci_lo",
    "ci_hi",
    "mean_alpha",
    "failures",
)


def _string(value) -> str:
    """``value`` unchanged; a ValueError where it is not a string."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


# DesignPoint's fields, in order: whether each is an int (read as a dataset's
# count) and whether it is required (a field with a default may be omitted)
_DESIGN_FIELDS = {
    f.name: (f.type == "int", f.default is dataclasses.MISSING)
    for f in dataclasses.fields(DesignPoint) if f.init
}


def _design_fields(doc: dict, where: str) -> DesignPoint:
    unknown = sorted(doc.keys() - _DESIGN_FIELDS.keys() - {"name", "estimators"})
    if unknown:
        raise _CliError(f"{where}: unknown field(s) {', '.join(unknown)}")
    missing = [f for f, (_, required) in _DESIGN_FIELDS.items() if required and f not in doc]
    if missing:
        raise _CliError(f"{where}: missing field(s) {', '.join(missing)}")
    values = {}
    for f, (integer, _) in _DESIGN_FIELDS.items():
        if f in doc:
            try:
                values[f] = _integer(doc[f]) if integer else doc[f]
            except (TypeError, ValueError) as e:
                raise _CliError(f"{where}: {f}: {e}")
    try:
        return DesignPoint(**values)
    except DualrecError as e:
        raise _CliError(f"{where}: {e}")


def _load_config(path: str, default_estimators: list[str]):
    try:
        doc = _read_json(path)
    except OSError as e:
        raise _CliError(f"cannot read {path}: {e}")
    unknown = sorted(doc.keys() - {"designs"}) if isinstance(doc, dict) else []
    if unknown:
        raise _CliError(f"{path}: unknown key(s) {', '.join(unknown)}")
    designs = doc.get("designs") if isinstance(doc, dict) else doc
    if not isinstance(designs, list) or not designs:
        raise _CliError(f"{path}: expected a nonempty list of designs")
    out = []
    for i, entry in enumerate(designs):
        where = f"{path}: design {i + 1}"
        if not isinstance(entry, dict):
            raise _CliError(f"{where}: expected an object")
        try:
            name = _string(entry.get("name", f"design{i + 1}"))
        except ValueError as e:
            raise _CliError(f"{where}: name: {e}")
        estimators = entry.get("estimators")
        if estimators is not None:
            if not isinstance(estimators, list):
                raise _CliError(f"{where}: estimators must be a list of method tokens")
            try:
                methods = _parse_methods(",".join(map(_string, estimators)))
            except (ValueError, _CliError) as e:
                raise _CliError(f"{where}: estimators: {e}")
        else:
            methods = default_estimators
        out.append((name, _design_fields(entry, where), methods))
    return out


def cmd_simulate(args) -> int:
    _check_shared_flags(args)
    default_methods = _parse_methods(args.estimators)
    check_integer("--threads", args.threads, 1)
    if (args.preset is None) == (args.config is None):
        raise _CliError("exactly one of --preset or --config is required")
    if args.preset is not None:
        if args.na is None or args.nb is None or args.alpha is None:
            raise _CliError("--preset requires --na, --nb and --alpha")
        design = design_from_preset(
            args.preset,
            model=args.model,
            n_a=args.na,
            n_b=args.nb,
            alpha=args.alpha,
            replicates=args.replicates,
            seed=args.seed,
        )
        jobs = [(args.preset, design, default_methods)]
    else:
        jobs = _load_config(args.config, default_methods)

    rows = []
    for name, design, methods in jobs:
        reps = design.replicates
        try:  # one study per design; its summary leaves out an estimator that always failed
            studies = run_study(design, methods, threads=args.threads).estimators
        except AllReplicatesFailed:  # every estimator failed on every replicate
            studies = {}
        for method in methods:
            row, study = {"design": name, "estimator": method}, studies.get(method)
            if study is None:
                error = f"AllReplicatesFailed: {method} failed on all {reps} replicates"
                row.update(failures=reps, error=error)
            else:
                row.update(
                    mean_na=round(study.mean_n_a, 4),
                    rrmse_na=round(study.rrmse_n_a, 4),
                    ci_lo=round(study.ci_n_a[0], 4),
                    ci_hi=round(study.ci_n_a[1], 4),
                    mean_alpha="" if study.mean_alpha is None else round(study.mean_alpha, 4),
                    failures=study.failures,
                )
            rows.append(row)
    table = csv_text(_STUDY_CSV_COLUMNS, rows)
    sys.stdout.write(table)
    failed = [row for row in rows if "error" in row]
    for row in failed:
        print(f"# {row['design']}/{row['estimator']}: {row['error']}")
    if args.out:
        _write_out(args.out, rows, table)
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualrec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate population sizes from a dataset")
    est.add_argument("--data", required=True, help="CSV or JSON dataset path")
    est.add_argument(
        "--method",
        default=None,
        help=f"comma-separated method tokens ({', '.join(sorted(METHOD_TOKENS))})",
    )
    est.add_argument("--dependent", default=None, help="stratum label to treat as A")
    est.add_argument("--ratio", type=float, default=None, help="known size ratio n_a/n_b")
    est.add_argument(
        "--bootstrap", type=int, default=0, metavar="B", help="bootstrap resample count"
    )
    est.add_argument(
        "--scheme",
        choices=_SCHEMES,
        default="parametric",
        help="bootstrap resampling scheme",
    )
    est.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    est.add_argument("--out", default=None, help="write report to .json or .csv")
    est.add_argument(
        "--dump", action="store_true", help="echo the parsed dataset as canonical CSV"
    )
    est.set_defaults(func=cmd_estimate)

    simp = sub.add_parser("simulate", help="run replicate studies over designs")
    simp.add_argument("--preset", default=None, help="design preset (P1..P6)")
    simp.add_argument("--config", default=None, help="JSON file of design points")
    simp.add_argument("--model", choices=("I", "II"), default="I")
    simp.add_argument("--na", type=int, default=None, help="true size of stratum A")
    simp.add_argument("--nb", type=int, default=None, help="true size of stratum B")
    simp.add_argument("--alpha", type=float, default=None, help="dependence level")
    simp.add_argument("--replicates", type=int, default=5000)
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument(
        "--estimators",
        default="mme1",
        help="comma-separated method tokens applied to each design",
    )
    simp.add_argument("--threads", type=int, default=1, help="worker process cap")
    simp.add_argument("--out", default=None, help="write rows to .json or .csv")
    simp.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, DualrecError) as e:  # every input error, the library's included
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
