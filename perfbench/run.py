"""cdfreg benchmark: time one CLI workload in fresh processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload poly_sweep --seed 0 --seconds 20 --trace 0

Each run of ``cdfreg.cli.main`` happens in a fresh interpreter started by
``perfbench/child.py`` with ``PYTHONPATH=src`` and ``--threads 1``. Runs
repeat until ``--seconds`` is used up (at least three untraced runs, or one
untraced and one traced run with ``--trace 1``), every run's outputs are
checked, and medians are reported.

On a shared host the speed a process gets drifts by up to 2x over seconds to
minutes, more than a run can average out. So each child also times a fixed
reference computation just before and just after ``main`` (see child.py),
and the end-to-end times are normalised by it: ``wall_norm_s`` is the wall
time of ``main`` times REF_NOMINAL_S over the mean reference time of that
run, the time ``main`` would take at the reference's nominal speed. The same
holds for ``cpu_norm_s`` and ``samples_per_norm_s``. The times as measured
are printed and kept in the record beside them. ``setup_s`` is reported as
measured: interpreter start and imports slow down far less than the
reference on a busy host, so dividing by it would swap one drift for another.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced runs alternate and the result holds the
per-layer metrics of the traced runs (see tracer.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run,
with output hashes, the per-caller trace table and an environment stamp, is
written under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from child import REF_NOMINAL_S
from tracer import TRACED, traced_names
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
SRC = os.path.join(ROOT, "src")

END_TO_END = {"wall_norm_s": "s", "samples_per_norm_s": "samples/s", "cpu_norm_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
AS_MEASURED = {"wall_s": "s", "samples_per_s": "samples/s", "cpu_s": "s", "ref_s": "s"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_UNTRACED = 3
HARD_LIMIT_S = 165  # every child is stopped by then, so the benchmark ends within 180 s


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _invoke(wl, seed, trace, work, deadline):
    """One fresh-process run of the workload; returns its measurements and checks."""
    os.makedirs(work)
    config, out, result_path = (os.path.join(work, f) for f in ("config.json", "out", "result.json"))
    wl.write_config(config, ROOT)
    argv = [sys.executable, os.path.join(HERE, "child.py"), result_path, str(int(trace)),
            wl.command, "--config", config, "--out", out, "--seed", str(seed), "--threads", "1"]
    spawned = _now()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(deadline - spawned, 0.1))
        crashed = proc.returncode != 0 or not os.path.exists(result_path)
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        crashed, stderr = True, f"stopped after {_now() - spawned:.0f} s"
    run = {"trace": trace, "elapsed_s": _now() - spawned, "failed": wl.ops, "problems": []}
    if crashed:
        run["problems"].append(f"benchmark child failed: {stderr.strip()[-400:]}")
        return run
    with open(result_path) as fh:
        res = json.load(fh)
    ref_calls = res["ref_before_s"] + res["ref_after_s"]
    # The host flips between fast and slow spells shorter than one run of
    # main, so the mean of the reference calls tracks its speed better than
    # their median.
    ref_s = statistics.mean(ref_calls)
    scale = REF_NOMINAL_S / ref_s
    run.update(setup_s=res["set_up"] - spawned, wall_s=res["wall_s"], cpu_s=res["cpu_s"],
               ref_s=ref_s, ref_calls_s=ref_calls, wall_norm_s=res["wall_s"] * scale,
               cpu_norm_s=res["cpu_s"] * scale,
               peak_rss_mb=res["peak_rss_mb"], exit_code=res["exit_code"],
               versions=res["versions"], trace_table=res.get("trace"))
    run["samples_per_s"] = wl.samples / res["wall_s"]
    run["samples_per_norm_s"] = wl.samples / run["wall_norm_s"]
    if res["exit_code"] != 0:
        run["problems"].append(f"exit code {res['exit_code']}: {stderr.strip()[-400:]}")
        return run
    try:
        run["problems"] += wl.check(out)
        run["hashes"] = {f: _sha256(os.path.join(out, f))
                         for f in ("records.csv", "aggregates.csv")}
    except (OSError, KeyError, ValueError) as exc:
        run["problems"].append(f"unreadable output: {type(exc).__name__}: {exc}")
    if not run["problems"]:
        run["failed"] = 0
    return run


def _layer_totals(table):
    """Calls and self time per traced name, summed over callers, and the
    number of ``eval_nodes`` calls made directly under ``inverse_cdf_sample``."""
    calls = {name: 0 for name in traced_names()}
    self_s = {name: 0.0 for name in traced_names()}
    evals_in_draws = 0
    for row in table:
        calls[row["fn"]] += row["calls"]
        self_s[row["fn"]] += row["self_s"]
        if row["fn"] == "basis.eval_nodes" and row["caller"] == "basis.inverse_cdf_sample":
            evals_in_draws += row["calls"]
    return calls, self_s, evals_in_draws


def _layer_metrics(wl, traced, untraced):
    """Per-layer metrics of the traced runs; a second list reports call counts that differ."""
    per_run = [_layer_totals(r["trace_table"]) for r in traced]
    calls, _, evals_in_draws = per_run[0]
    unstable = [name for name in calls if any(c[name] != calls[name] for c, _, _ in per_run)]
    med = statistics.median
    m = {}
    for name in traced_names():
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (med([s[name] for _, s, _ in per_run]), "s")
    for layer in TRACED:
        m[f"{layer}.self_s"] = (med([sum(v for k, v in s.items() if k.startswith(layer + "."))
                                     for _, s, _ in per_run]), "s")
    draws = calls["basis.inverse_cdf_sample"]
    m["basis.evals_per_draw"] = (evals_in_draws / draws if draws else 0.0, "ratio")
    m["gram.accumulate_per_row"] = (calls["gram.accumulate"] / wl.train_rows, "ratio")
    m["trace_overhead_frac"] = (med([r["wall_norm_s"] for r in traced])
                                / med([r["wall_norm_s"] for r in untraced]) - 1.0, "ratio")
    return m, unstable


def _environment():
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a benchmark checkout may not be a repo
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "cdfreg")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            src.update(f.encode())
            with open(os.path.join(dirpath, f), "rb") as fh:
                src.update(fh.read())
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "python": sys.version,
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def _measure(wl, seed, seconds, trace, scratch, deadline):
    """Run the workload until the time is up; returns the list of runs.

    With tracing, untraced and traced runs alternate in pairs.
    """
    runs, start = [], _now()
    while True:
        n_traced = sum(r["trace"] for r in runs)
        next_traced = trace and n_traced < len(runs) - n_traced
        enough = n_traced >= 1 and not next_traced if trace else len(runs) >= MIN_UNTRACED
        if enough:
            ahead = statistics.median(r["elapsed_s"] for r in runs) * (2 if trace else 1)
            elapsed = _now() - start
            if elapsed + ahead > seconds:
                return runs
        runs.append(_invoke(wl, seed, next_traced, os.path.join(scratch, str(len(runs))),
                            deadline))
        if "wall_s" not in runs[-1]:
            return runs  # the program did not run at all; more runs will not help


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    wl = WORKLOADS[args.workload]
    deadline = _now() + HARD_LIMIT_S
    if not os.path.exists(os.path.join(SRC, "cdfreg", "cli.py")):
        sys.exit(f"perfbench: no cdfreg sources under {SRC}")
    # One untimed import fills the file cache (and byte-code cache, where
    # enabled) before anything is timed, and fails early on a broken package.
    warm = subprocess.run([sys.executable, "-c", "import cdfreg.cli"], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        sys.exit(f"perfbench: cannot import cdfreg: {warm.stderr.strip()[-400:]}")

    os.makedirs(RUNS, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="work-", dir=RUNS)
    try:
        runs = _measure(wl, args.seed, args.seconds, bool(args.trace), scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ok = [r for r in runs if "wall_s" in r]
    untraced = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    problems = sorted({p for r in runs for p in r["problems"]})
    if len({json.dumps(r["hashes"], sort_keys=True) for r in runs if "hashes" in r}) > 1:
        problems.append("outputs differ between runs of the same seed"
                        + (" (traced against untraced)" if traced else ""))
    attempted = wl.ops * len(runs)
    failed = sum(r["failed"] for r in runs)
    if not untraced or (args.trace and not traced):
        print(f"perfbench: {wl.name} produced no measurement: {problems}", file=sys.stderr)
        sys.exit(1)

    med = statistics.median
    if args.trace:
        metrics, unstable = _layer_metrics(wl, traced, untraced)
        if unstable:
            problems.append(f"call counts differ between traced runs: {unstable}")
    else:
        metrics = {name: (med([r[name] for r in untraced]), unit)
                   for name, unit in END_TO_END.items()}

    print(f"{wl.name}: cdfreg {wl.command}, seed {args.seed}; medians of {len(untraced)}"
          f" untraced and {len(traced)} traced fresh-process runs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, unit in AS_MEASURED.items():
        print(f"  {name + ' (as measured, untraced)':<44} {med([r[name] for r in untraced]):>14.6g}"
              f" {unit}")
    print(f"  {'fail_frac':<44} {failed / attempted:>14.6g} {'ratio':<10}"
          f" ({failed} of {attempted} operations failed)")
    hashes = next((r["hashes"] for r in runs if "hashes" in r), {})
    for f, h in hashes.items():
        print(f"  {f} sha256 {h}")
    print("  output checks: " + ("passed" if not problems else "; ".join(problems)))

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    record = {"workload": wl.name, "command": wl.command, "config": wl.config,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": {**_environment(), **(ok[0]["versions"] if ok else {})},
              "hashes": hashes, "problems": problems, "attempted": attempted,
              "failed": failed, "metrics": reported,
              "runs": [{k: v for k, v in r.items() if k not in ("versions", "trace_table")}
                       for r in runs],
              "trace_tables": [r["trace_table"] for r in traced]}
    with open(os.path.join(RUNS, f"{wl.name}-seed{args.seed}-trace{args.trace}-{stamp}"
                                 f"-{os.getpid()}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": reported}))


if __name__ == "__main__":
    main()
