"""Command-line entry point: validated JSON configs in, plot-ready CSV/JSON out."""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401
import os
import sys

# Loaded now rather than inside main: locale (above) for argparse.
import numpy.random  # noqa: F401
from numpy.linalg import LinAlgError

from . import __version__
from .bounds import fit_loglog_slope
from .errors import CdfRegError
from .realdata import _REAL_SCHEMA, evaluate_pipeline, write_report_csv
from .synth import (_COVERAGE_SCHEMA, _SCALING_SCHEMA, _ConfigError, _check, _write_csv,
                    run_coverage_experiment, run_scaling_experiment, write_aggregates_csv,
                    write_records_csv)

_SCHEMAS = {"synth-bernoulli": _SCALING_SCHEMA, "synth-poly": _SCALING_SCHEMA,
            "bound-check": _COVERAGE_SCHEMA, "real": _REAL_SCHEMA}
_SCALING_KIND = {"synth-bernoulli": "bernoulli_hard", "synth-poly": "polynomial"}

# desk-scale defaults; --long switches to the full-size sweeps
_DESK = {"synth-bernoulli": {"n_grid": [1000, 3000, 10000]},
         "synth-poly": {"n_grid": [200, 600, 2000]}}
_LONG = {"synth-bernoulli": {"n_grid": [1000, 10000, 100000, 1000000]},
         "synth-poly": {"n_grid": [1000, 10000, 100000]}}


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
