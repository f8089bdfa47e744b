"""Command-line entry point: validated JSON configs in, plot-ready CSV/JSON out."""

from __future__ import annotations

import argparse
import json
import os
import sys

import jsonschema
from numpy.linalg import LinAlgError

from . import __version__
from .bounds import fit_loglog_slope
from .errors import CdfRegError
from .realdata import evaluate_pipeline, write_report_csv
from .synth import (run_coverage_experiment, run_scaling_experiment,
                    write_aggregates_csv, write_records_csv)

_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_DELTA = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}

_SCALING_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["basis", "lambdas", "reps"],
    "properties": {
        "experiment_id": {"type": "string"},
        "basis": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["bernoulli_hard", "polynomial"]},
                "d": _POS_INT,
                "c": _POS_NUM,
                "x_lo": _POS_NUM,
                "x_hi": _POS_NUM,
                "n_nodes": _POS_INT,
            },
        },
        "lambdas": {"type": "array", "items": _POS_NUM, "minItems": 1},
        "reps": _POS_INT,
        "n_grid": {"type": "array", "items": _POS_INT, "minItems": 1},
        "d_grid": {"type": "array", "items": {"type": "integer", "minimum": 2},
                   "minItems": 1},
        "n": _POS_INT,
        "delta": _DELTA,
        "metrics": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "theta_star": {"type": "array", "items": {"type": "number"}},
        "seed": {"type": "integer", "minimum": 0},
        "threads": _POS_INT,
        "slope_metric": {"type": "string"},
    },
}

_COVERAGE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["d", "n", "delta", "reps"],
    "properties": {
        "experiment_id": {"type": "string"},
        "mode": {"enum": ["self", "sigma", "penalized", "mismatch"]},
        "d": {"type": "integer", "minimum": 2},
        "n": _POS_INT,
        "delta": _DELTA,
        "lambda": _POS_NUM,
        "q": {"type": "number", "minimum": 0, "maximum": 1},
        "reps": _POS_INT,
        "theta_star": {"type": "array", "items": {"type": "number"}},
        "basis": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["bernoulli_hard", "bernoulli_atoms"]},
                "c": _POS_NUM,
                "atoms": {"type": "array"},
                "probs": {"type": "array", "items": {"type": "number"}},
                "measure": {"type": "object"},
                "p_e": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "threads": _POS_INT,
    },
}

_REAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["csv_path", "outcome", "basis", "lambdas", "measure"],
    "properties": {
        "csv_path": {"type": "string"},
        "outcome": {"type": "string"},
        "features": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "delimiter": {"type": "string"},
        "basis": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["gaussian_laplace", "logistic_probit"]},
                "w": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "measure": {"type": "object"},
        "lambdas": {"type": "array", "items": _POS_NUM, "minItems": 1},
        "seed": {"type": "integer", "minimum": 0},
        "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "n_seeds": _POS_INT,
        "threads": _POS_INT,
    },
}

_SCHEMAS = {"synth-bernoulli": _SCALING_SCHEMA, "synth-poly": _SCALING_SCHEMA,
            "bound-check": _COVERAGE_SCHEMA, "real": _REAL_SCHEMA}

# desk-scale defaults; --long switches to the full-size sweeps
_DESK = {"synth-bernoulli": {"n_grid": [1000, 3000, 10000], "reps": 20},
         "synth-poly": {"n_grid": [200, 600, 2000], "reps": 20}}
_LONG = {"synth-bernoulli": {"n_grid": [1000, 10000, 100000, 1000000], "reps": 100},
         "synth-poly": {"n_grid": [1000, 10000, 100000], "reps": 100}}


class _ConfigError(Exception):
    pass


def _load_config(args):
    if args.config is None:
        raise _ConfigError("--config is required")
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"config is not valid JSON: {exc}")
    try:
        jsonschema.validate(config, _SCHEMAS[args.command])
    except jsonschema.ValidationError as exc:
        path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
        raise _ConfigError(f"config field {path}: {exc.message}")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.threads is not None:
        config["threads"] = args.threads
    return config


def _write_summary(out_dir, payload, config):
    payload = dict(payload)
    payload["config"] = config
    payload["version"] = f"cdfreg-{__version__}"
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _scaling_summary(config, records):
    """Log-log slope of the mean of one metric against n, per (d, lambda)."""
    metric = config.get("slope_metric", "l2")
    slopes = {}
    pts = sorted({(r.d, r.lam) for r in records if r.metric_name == metric})
    for d, lam in pts:
        by_n = {}
        for r in records:
            if (r.d, r.lam, r.metric_name) == (d, lam, metric):
                by_n.setdefault(r.n, []).append(r.value)
        if len(by_n) < 2:
            continue
        ns = sorted(by_n)
        means = [sum(by_n[n]) / len(by_n[n]) for n in ns]
        slope, intercept = fit_loglog_slope(list(zip(ns, means)))
        slopes[f"d={d},lambda={lam}"] = {"slope": slope, "intercept": intercept}
    failures = [{"d": r.d, "n": r.n, "rep": r.rep, "error": r.error}
                for r in records if r.metric_name == "failure"]
    return {"slope_metric": metric, "slopes": slopes, "n_records": len(records),
            "n_failures": len(failures), "failures": failures}


def _exit_code(what, failures, any_succeeded):
    """3, naming the first error, when every task failed; else 0 (failures stay rows)."""
    if failures and not any_succeeded:
        return _fail(3, "failed", f"every {what} failed; first: {failures[0]['error']}")
    return 0


def _cmd_scaling(args, config):
    defaults = _LONG[args.command] if args.long else _DESK[args.command]
    if "n_grid" not in config and "d_grid" not in config:
        config["n_grid"] = defaults["n_grid"]
    config["basis"].setdefault("d", 5)
    if "n_grid" in config and "d_grid" in config:
        raise _ConfigError("give exactly one of n_grid / d_grid")
    if "d_grid" in config and "n" not in config:
        raise _ConfigError("d_grid sweeps need a fixed n")
    records, aggregates = run_scaling_experiment(config)
    write_records_csv(os.path.join(args.out, "records.csv"), records)
    write_aggregates_csv(os.path.join(args.out, "aggregates.csv"), aggregates)
    summary = _scaling_summary(config, records)
    _write_summary(args.out, summary, config)
    return _exit_code("task", summary["failures"],
                      any(r.metric_name != "failure" for r in records))


def _cmd_bound_check(args, config):
    report = run_coverage_experiment(config)
    rows = report.pop("rows")
    with open(os.path.join(args.out, "records.csv"), "w", newline="") as fh:
        import csv as _csv
        writer = _csv.writer(fh)
        writer.writerow(["rep", "error", "bound", "covered"])
        for r in rows:
            writer.writerow([r["rep"], repr(float(r["error"])),
                             repr(float(r["bound"])), int(r["covered"])])
    with open(os.path.join(args.out, "aggregates.csv"), "w", newline="") as fh:
        import csv as _csv
        writer = _csv.writer(fh)
        writer.writerow(["mode", "delta", "reps", "coverage"])
        writer.writerow([report["mode"], repr(report["delta"]), report["reps"],
                         repr(report["coverage"])])
    _write_summary(args.out, report, config)
    return 0


def _cmd_real(args, config):
    report = evaluate_pipeline(config)
    write_report_csv(os.path.join(args.out, "records.csv"), report["rows"])
    with open(os.path.join(args.out, "aggregates.csv"), "w", newline="") as fh:
        import csv as _csv
        writer = _csv.writer(fh)
        writer.writerow(["method", "mean", "q05", "q50", "q95"])
        for method, st in sorted(report["summary"].items()):
            writer.writerow([method, repr(st["mean"]), repr(st["q05"]),
                             repr(st["q50"]), repr(st["q95"])])
    summary = {k: v for k, v in report.items() if k != "rows"}
    _write_summary(args.out, summary, config)
    failed = {f["seed"] for f in report["failures"]}
    return _exit_code("seed", report["failures"],
                      any(r["seed"] not in failed for r in report["rows"]))


def build_parser():
    parser = argparse.ArgumentParser(prog="cdfreg",
                                     description="Contextual CDF regression experiments")
    parser.add_argument("--version", action="version", version=f"cdfreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("synth-bernoulli", "scaling sweep on the adversarial Bernoulli design"),
        ("synth-poly", "scaling sweep on the polynomial random design"),
        ("bound-check", "empirical coverage of a stated error bound"),
        ("real", "tabular CSV pipeline with baseline comparison"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="override config parallelism degree")
        p.add_argument("--long", action="store_true",
                       help="full-size sweep defaults instead of desk scale")
    return parser


def _fail(code, kind, message):
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        os.makedirs(args.out, exist_ok=True)
        if args.command in ("synth-bernoulli", "synth-poly"):
            if args.command == "synth-bernoulli":
                if config["basis"]["kind"] != "bernoulli_hard":
                    raise _ConfigError("synth-bernoulli requires basis.kind "
                                       "'bernoulli_hard'")
            elif config["basis"]["kind"] != "polynomial":
                raise _ConfigError("synth-poly requires basis.kind 'polynomial'")
            return _cmd_scaling(args, config)
        if args.command == "bound-check":
            return _cmd_bound_check(args, config)
        return _cmd_real(args, config)
    except _ConfigError as exc:
        return _fail(2, "config", str(exc))
    except (ValueError, KeyError) as exc:
        return _fail(2, "config", f"{type(exc).__name__}: {exc}")
    except (CdfRegError, ArithmeticError, LinAlgError) as exc:
        return _fail(3, "numerical", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main(argv=None))
