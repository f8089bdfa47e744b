"""Command-line entry point: validated JSON configs in, plot-ready CSV/JSON out."""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401
import math
import operator
import os
import re
import sys

# Loaded now rather than inside main: locale (above) for argparse.
import numpy.random  # noqa: F401
from numpy.linalg import LinAlgError

from . import __version__
from .bounds import fit_loglog_slope
from .errors import CdfRegError
from .realdata import evaluate_pipeline, write_report_csv
from .synth import (METRICS, _write_csv, run_coverage_experiment, run_scaling_experiment,
                    write_aggregates_csv, write_records_csv)

_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_DELTA = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
# One of the metric names the scaling sweep computes.  A pattern rather than an
# enum accepts the same names and leaves the mutation corpus of
# tests/test_config_check.py, whose cases are named by position, as it is.  Patterns
# end in \Z, since $ also matches before a final newline.
_METRIC = {"type": "string", "pattern": rf"^({'|'.join(METRICS)})\Z"}
# Runs are serial.  threads is kept, at 1 only, because perfbench/run.py passes
# --threads 1 to every command.
_THREADS = {"type": "integer", "minimum": 1, "maximum": 1}

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
            },
        },
        "lambdas": {"type": "array", "items": _POS_NUM, "minItems": 1},
        "reps": _POS_INT,
        "n_grid": {"type": "array", "items": _POS_INT, "minItems": 1},
        "d_grid": {"type": "array", "items": {"type": "integer", "minimum": 2},
                   "minItems": 1},
        "n": _POS_INT,
        "delta": _DELTA,
        "metrics": {"type": "array", "items": _METRIC, "minItems": 1},
        "theta_star": {"type": "array", "items": {"type": "number"}},
        "seed": {"type": "integer", "minimum": 0},
        "threads": _THREADS,
        "slope_metric": _METRIC,
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
        "threads": _THREADS,
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
        "delimiter": {"type": "string", "pattern": r"^.\Z"},  # csv takes one character
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
        "threads": _THREADS,
    },
}

_SCHEMAS = {"synth-bernoulli": _SCALING_SCHEMA, "synth-poly": _SCALING_SCHEMA,
            "bound-check": _COVERAGE_SCHEMA, "real": _REAL_SCHEMA}
_SCALING_KIND = {"synth-bernoulli": "bernoulli_hard", "synth-poly": "polynomial"}

# desk-scale defaults; --long switches to the full-size sweeps
_DESK = {"synth-bernoulli": {"n_grid": [1000, 3000, 10000]},
         "synth-poly": {"n_grid": [200, 600, 2000]}}
_LONG = {"synth-bernoulli": {"n_grid": [1000, 10000, 100000, 1000000]},
         "synth-poly": {"n_grid": [1000, 10000, 100000]}}


class _ConfigError(Exception):
    pass


# JSON Schema's types: a boolean is not a number, and 2.0 is an integer.
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}
_BOUNDS = {"minimum": operator.lt, "exclusiveMinimum": operator.le,
           "maximum": operator.gt, "exclusiveMaximum": operator.ge}


def _check(value, schema, path=""):
    """Raise _ConfigError at the first field that breaks the JSON Schema keywords used above."""
    def fail(message):
        raise _ConfigError(f"config field {path or '<root>'}: {message}")

    kind = schema.get("type")
    if kind and (isinstance(value, bool) or not isinstance(value, _TYPES[kind])) and not (
            kind == "integer" and isinstance(value, float) and value.is_integer()):
        fail(f"{value!r} is not of type {kind!r}")
    if isinstance(value, float) and not math.isfinite(value):  # json reads NaN and Infinity
        fail(f"{value!r} is not a finite number")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if "pattern" in schema and isinstance(value, str) and not re.search(schema["pattern"], value):
        fail(f"{value!r} does not match {schema['pattern']!r}")
    for key, breaks in _BOUNDS.items():
        if key in schema and breaks(value, schema[key]):
            fail(f"{value!r} breaks {key} {schema[key]!r}")
    if "minItems" in schema and len(value) < schema["minItems"]:
        fail(f"{value!r} has fewer than {schema['minItems']} items")
    for j, item in enumerate(value if "items" in schema else ()):
        _check(item, schema["items"], f"{path}.{j}" if path else str(j))
    props = schema.get("properties", {})
    missing = [key for key in schema.get("required", ()) if key not in value]
    if missing:
        fail(f"missing required {missing}")
    if schema.get("additionalProperties") is False and set(value) - set(props):
        fail(f"unknown properties {sorted(set(value) - set(props))}")
    for key, sub in props.items():
        if key in value:
            _check(value[key], sub, f"{path}.{key}" if path else key)


def _load_config(args):
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"config is not valid JSON: {exc}")
    # The command-line overrides are checked like the fields they replace.
    for key in ("seed", "threads"):
        if getattr(args, key) is not None and isinstance(config, dict):
            config[key] = getattr(args, key)
    _check(config, _SCHEMAS[args.command])
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
    """Log-log slope of the mean of one metric against n, per (d, lambda) with two or more n
    and every mean positive; any other (d, lambda) has no slope."""
    metric = config.get("slope_metric", "l2")
    slopes = {}
    pts = sorted({(r.d, r.lam) for r in records if r.metric_name == metric})
    for d, lam in pts:
        by_n = {}
        for r in records:
            if (r.d, r.lam, r.metric_name) == (d, lam, metric):
                by_n.setdefault(r.n, []).append(r.value)
        ns = sorted(by_n)
        means = [sum(by_n[n]) / len(by_n[n]) for n in ns]
        if len(ns) < 2 or not all(mean > 0 for mean in means):
            continue
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
    if "n_grid" in config and "d_grid" in config:
        raise _ConfigError("give exactly one of n_grid / d_grid")
    if "d_grid" in config and "n" not in config:
        raise _ConfigError("d_grid sweeps need a fixed n")
    if "d_grid" not in config:  # an n_grid sweep, at d = 5 unless basis.d says otherwise
        config.setdefault("n_grid", defaults["n_grid"])
        config["basis"].setdefault("d", 5)
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
    _write_csv(os.path.join(args.out, "records.csv"), ["rep", "error", "bound", "covered"],
               ([r["rep"], repr(float(r["error"])), repr(float(r["bound"])),
                 int(r["covered"])] for r in rows))
    _write_csv(os.path.join(args.out, "aggregates.csv"), ["mode", "delta", "reps", "coverage"],
               [[report["mode"], repr(report["delta"]), report["reps"],
                 repr(report["coverage"])]])
    _write_summary(args.out, report, config)
    return 0


def _cmd_real(args, config):
    report = evaluate_pipeline(config)
    write_report_csv(os.path.join(args.out, "records.csv"), report["rows"])
    _write_csv(os.path.join(args.out, "aggregates.csv"), ["method", "mean", "q05", "q50", "q95"],
               ([method, repr(st["mean"]), repr(st["q05"]), repr(st["q50"]), repr(st["q95"])]
                for method, st in sorted(report["summary"].items())))
    summary = {k: v for k, v in report.items() if k != "rows"}
    _write_summary(args.out, summary, config)
    return _exit_code("seed", report["failures"], bool(report["rows"]))  # a failed seed has no rows


def build_parser():
    parser = argparse.ArgumentParser(prog="cdfreg",
                                     description="Contextual CDF regression experiments")
    parser.add_argument("--version", action="version", version=f"cdfreg {__version__}")
    common = argparse.ArgumentParser(add_help=False)  # every subcommand's options
    common.add_argument("--config", required=True, help="path to JSON config")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override config seed")
    common.add_argument("--threads", type=int, default=None,
                        help="override config threads; runs are serial, so only 1 is "
                             "accepted (kept for perfbench/run.py, which passes it)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("synth-bernoulli", "scaling sweep on the adversarial Bernoulli design"),
        ("synth-poly", "scaling sweep on the polynomial random design"),
        ("bound-check", "empirical coverage of a stated error bound"),
        ("real", "tabular CSV pipeline with baseline comparison"),
    ]:
        command = sub.add_parser(name, help=helptext, parents=[common])
        if name in _SCALING_KIND:  # only the sweeps have a full-size grid
            command.add_argument("--long", action="store_true",
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
        if args.command in _SCALING_KIND:
            if config["basis"]["kind"] != _SCALING_KIND[args.command]:
                raise _ConfigError(f"{args.command} requires basis.kind "
                                   f"{_SCALING_KIND[args.command]!r}")
            return _cmd_scaling(args, config)
        if args.command == "bound-check":
            return _cmd_bound_check(args, config)
        return _cmd_real(args, config)
    except _ConfigError as exc:
        return _fail(2, "config", str(exc))
    except (CdfRegError, ArithmeticError, LinAlgError) as exc:  # LinAlgError is a ValueError
        return _fail(3, "numerical", f"{type(exc).__name__}: {exc}")
    except (ValueError, KeyError) as exc:
        return _fail(2, "config", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main(argv=None))
