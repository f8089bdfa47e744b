"""The benchmark's four cdfreg CLI workloads and the checks on their outputs.

Each workload is one single-threaded ``cdfreg`` subcommand whose config is
fixed here; the benchmark seed reaches the program only as ``--seed``.
Together they cover every layer: ``poly_sweep`` drives quadrature panels,
basis evaluation, inverse-CDF sampling and Gram accumulation; ``hard_sweep``
drives the adversarial design builder and bypasses quadrature altogether;
``real_crps`` drives Gram accumulation and CRPS scoring on Gaussian-weight
panels; ``penalized_atoms`` drives the penalized solver, which the other
three never reach.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    ops: int  # operations: (grid point, rep) tasks, coverage reps or real seeds
    samples: int  # samples drawn or rows scored, the base of samples_per_s
    train_rows: int  # rows whose Gram terms the config asks for

    def write_config(self, path, root):
        config = dict(self.config)
        if "csv_path" in config:
            config["csv_path"] = os.path.join(root, config["csv_path"])
        with open(path, "w") as fh:
            json.dump(config, fh)

    def check(self, out_dir):
        """Problems found in the outputs of one finished run; empty if it passed.

        A run with any problem counts all its operations as failed.
        """
        return _CHECKS[self.command](self, out_dir)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def _check_scaling(wl, out_dir):
    records = _read_csv(os.path.join(out_dir, "records.csv"))
    failed = sum(r["metric_name"] == "failure" for r in records)
    problems = [f"{failed} failure rows"] if failed else []
    if not all(math.isfinite(float(r["value"])) for r in records):
        problems.append("non-finite record value")
    if wl.config["basis"]["kind"] == "bernoulli_hard":
        # The adversarial design shows the n^(-1/2) decay of the l2 error.
        key = f"d={wl.config['basis']['d']},lambda={wl.config['lambdas'][0]}"
        slope = _read_summary(out_dir)["slopes"][key]["slope"]
        if not -0.6 <= slope <= -0.4:
            problems.append(f"l2 slope {slope:.3f} outside [-0.6, -0.4]")
    # The polynomial sweep sits in its bias regime (n * mu_min < lambda up to
    # n ~ 2000), so its slope is not a correctness signal.
    return problems


def _check_coverage(wl, out_dir):
    summary = _read_summary(out_dir)
    problems = []
    if summary["coverage"] < 0.8:
        problems.append(f"coverage {summary['coverage']} below 0.8")
    if summary.get("dominated_mean") != 1.0:
        problems.append("a penalized estimate is not dominated by its ridge init")
    return problems


def _check_real(wl, out_dir):
    failed = len(_read_summary(out_dir)["failures"])
    problems = [f"{failed} failed seeds"] if failed else []
    means = {r["method"]: float(r["mean"])
             for r in _read_csv(os.path.join(out_dir, "aggregates.csv"))}
    if not means.get("ridge_projected", math.inf) < means.get("ecdf", -math.inf):
        problems.append("ridge_projected mean CRPS is not below the ecdf baseline")
    return problems


_CHECKS = {"synth-poly": _check_scaling, "synth-bernoulli": _check_scaling,
           "bound-check": _check_coverage, "real": _check_real}


def _sweep(name, command, kind, d, n_grid, reps):
    return Workload(name, command,
                    {"basis": {"kind": kind, "d": d}, "n_grid": n_grid,
                     "lambdas": [0.001], "reps": reps},
                    ops=len(n_grid) * reps, samples=sum(n_grid) * reps,
                    train_rows=sum(n_grid) * reps)


_REAL_ROWS, _REAL_SEEDS = 500, 5
_PEN_N, _PEN_REPS = 500, 50

WORKLOADS = {wl.name: wl for wl in [
    _sweep("poly_sweep", "synth-poly", "polynomial", 4, [200, 600, 2000], 1),
    _sweep("hard_sweep", "synth-bernoulli", "bernoulli_hard", 5, [1000, 10000, 100000], 20),
    Workload("real_crps", "real",
             {"csv_path": "src/cdfreg/data/gaussmix_500.csv", "outcome": "y",
              "basis": {"kind": "gaussian_laplace", "w": 0.5},
              "measure": {"kind": "gaussian", "c": 0.0, "var": 9.0, "n_nodes": 48},
              "lambdas": [0.01, 0.1, 1.0], "n_seeds": _REAL_SEEDS},
             ops=_REAL_SEEDS, samples=_REAL_ROWS * _REAL_SEEDS,
             # realdata.three_way_split trains on rows n//3 .. n//3 + n//2
             train_rows=_REAL_ROWS // 2 * _REAL_SEEDS),
    Workload("penalized_atoms", "bound-check",
             {"mode": "penalized", "d": 3, "n": _PEN_N, "delta": 0.1, "reps": _PEN_REPS,
              "theta_star": [0.5, 0.3, 0.2],
              "basis": {"kind": "bernoulli_atoms",
                        "atoms": [[0.2, 0.5, 0.8], [0.7, 0.3, 0.6]], "probs": [0.5, 0.5],
                        "measure": {"kind": "counting", "points": [0.0, 1.0]}}},
             ops=_PEN_REPS, samples=_PEN_N * _PEN_REPS, train_rows=_PEN_N * _PEN_REPS),
]}
