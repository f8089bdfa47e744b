"""Failures are loud: code bugs propagate, and a run where everything failed exits 3."""

import csv
import json
import pathlib

import pytest

from cdfreg import realdata, synth
from cdfreg.cli import main

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "cdfreg" / "data"

SCALING = {"basis": {"kind": "bernoulli_hard", "d": 2}, "lambdas": [0.001],
           "n_grid": [50, 100], "reps": 2, "metrics": ["l2"], "seed": 1}
REAL = {"csv_path": str(DATA / "smoke_12.csv"), "outcome": "y",
        "measure": {"kind": "gaussian", "c": 0.0, "var": 9.0, "n_nodes": 32},
        "basis": {"kind": "gaussian_laplace", "w": 0.0},
        "lambdas": [1.0], "seeds": [0, 1]}


def _run(tmp_path, command, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    return main([command, "--config", str(cfg), "--out", str(out)]), out


def test_scaling_code_bug_propagates(monkeypatch):
    def broken(*args):
        raise TypeError("a bug, not a statistical failure")

    monkeypatch.setattr(synth, "_scaling_rep_metrics", broken)
    with pytest.raises(TypeError):
        synth.run_scaling_experiment(SCALING)


def test_pipeline_code_bug_propagates(monkeypatch):
    def broken(*args):
        raise NameError("a bug, not a statistical failure")

    monkeypatch.setattr(realdata, "fit_gaussian_laplace_basis", broken)
    with pytest.raises(NameError):
        realdata.evaluate_pipeline(REAL)


def test_cli_exits_3_when_every_task_failed(tmp_path, capsys):
    # c = 20 pushes the hard-instance probabilities out of [0, 1] at every step
    payload = {**SCALING, "basis": {"kind": "bernoulli_hard", "d": 2, "c": 20.0}}
    code, out = _run(tmp_path, "synth-bernoulli", payload)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "failed"
    assert "every task failed" in err["message"] and "reduce c" in err["message"]
    with open(out / "records.csv") as fh:
        assert {r["metric_name"] for r in csv.DictReader(fh)} == {"failure"}


def test_cli_exits_3_when_every_seed_failed(tmp_path, capsys):
    # the logistic-probit basis needs a binary outcome; this fixture's is continuous
    payload = {**REAL, "basis": {"kind": "logistic_probit", "w": 0.5}}
    code, out = _run(tmp_path, "real", payload)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "every seed failed" in err["message"] and "binary" in err["message"]
    summary = json.loads((out / "summary.json").read_text())
    assert [f["seed"] for f in summary["failures"]] == [0, 1]


def test_cli_keeps_partial_failures_as_rows(tmp_path, monkeypatch):
    original = synth._scaling_rep_metrics

    def flaky(config, d, n, rep, seed):
        if rep == 1:
            raise ValueError("rep 1 is degenerate")
        return original(config, d, n, rep, seed)

    monkeypatch.setattr(synth, "_scaling_rep_metrics", flaky)
    code, out = _run(tmp_path, "synth-bernoulli", SCALING)
    assert code == 0
    with open(out / "records.csv") as fh:
        names = [r["metric_name"] for r in csv.DictReader(fh)]
    assert names.count("failure") == 2 and names.count("l2") == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_failures"] == 2
    assert all(f["error"] == "ValueError: rep 1 is degenerate" for f in summary["failures"])
