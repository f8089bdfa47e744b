"""Failures are loud: code bugs propagate, and a run where everything failed exits 3."""

import csv
import json
import pathlib
import re

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from cdfreg import realdata, synth
from cdfreg.cli import main
from cdfreg.errors import ConvergenceError, SingularGram

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

    monkeypatch.setattr(synth, "_scaling_rep_state", broken)
    with pytest.raises(TypeError):
        synth.run_scaling_experiment(SCALING)


def test_pipeline_code_bug_propagates(monkeypatch):
    def broken(*args):
        raise NameError("a bug, not a statistical failure")

    monkeypatch.setattr(realdata, "fit_gaussian_laplace_basis", broken)
    with pytest.raises(NameError):
        realdata.evaluate_pipeline(REAL)


def test_cli_exits_3_when_every_task_failed(tmp_path, capsys, monkeypatch):
    def singular(*args):
        raise SingularGram("every rep's Gram is singular")

    monkeypatch.setattr(synth, "_scaling_rep_state", singular)
    code, out = _run(tmp_path, "synth-bernoulli", SCALING)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "failed"
    assert "every task failed" in err["message"] and "SingularGram" in err["message"]
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
    original = synth._scaling_rep_state

    def flaky(draw, seed, d, n, rep):
        if rep == 1:
            raise ValueError("rep 1 is degenerate")
        return original(draw, seed, d, n, rep)

    monkeypatch.setattr(synth, "_scaling_rep_state", flaky)
    code, out = _run(tmp_path, "synth-bernoulli", SCALING)
    assert code == 0
    with open(out / "records.csv") as fh:
        names = [r["metric_name"] for r in csv.DictReader(fh)]
    assert names.count("failure") == 2 and names.count("l2") == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_failures"] == 2
    assert all(f["error"] == "ValueError: rep 1 is degenerate" for f in summary["failures"])


THREE = {**SCALING, "reps": 3, "lambdas": [0.001, 0.1], "metrics": ["l2", "ks"]}


def _without(records, n, rep):
    return [r.row() for r in records if (r.n, r.rep) != (n, rep)]


def test_one_failed_draw_fails_only_its_rep(monkeypatch):
    clean, _ = synth.run_scaling_experiment(THREE)
    original = synth._scaling_rep_state

    def flaky(draw, seed, d, n, rep):
        if (n, rep) == (100, 1):
            raise SingularGram("degenerate draw")
        return original(draw, seed, d, n, rep)

    monkeypatch.setattr(synth, "_scaling_rep_state", flaky)
    records, _ = synth.run_scaling_experiment(THREE)
    assert [(r.n, r.rep, r.metric_name, r.error) for r in records if r.error] == [
        (100, 1, "failure", "SingularGram: degenerate draw")]
    assert _without(records, 100, 1) == _without(clean, 100, 1)


@pytest.mark.parametrize("poison,message", [
    ("u", "ValueError: array must not contain infs or NaNs"),
    ("U", "LinAlgError: Matrix is not positive definite"),
])
def test_one_bad_row_of_the_stacked_solve_fails_only_its_rep(monkeypatch, poison, message):
    clean, _ = synth.run_scaling_experiment(THREE)
    original = synth._scaling_rep_state

    def poisoned(draw, seed, d, n, rep):
        state = original(draw, seed, d, n, rep)
        if (n, rep) == (50, 2):
            if poison == "u":
                state.u = np.full(d, np.nan)
            else:
                state.U = -np.eye(d)
        return state

    monkeypatch.setattr(synth, "_scaling_rep_state", poisoned)
    records, _ = synth.run_scaling_experiment(THREE)
    assert [(r.n, r.rep, r.metric_name, r.error) for r in records if r.error] == [
        (50, 2, "failure", message)]
    assert _without(records, 50, 2) == _without(clean, 50, 2)


@pytest.mark.parametrize("poison,message", [
    (lambda A: A + np.triu(A, 1), r"ValueError: weight matrix must be symmetric"),
    (lambda A: -A, r"ValueError: quadratic form -\S+ is negative beyond round-off"),
])
def test_one_bad_row_of_a_stacked_metric_fails_only_its_rep(monkeypatch, poison, message):
    """self_norm scores each lambda's reps as one stack; a weight matrix that fails its
    check on one row fails that rep alone, and every other value keeps its bits."""
    config = {**THREE, "metrics": ["l2", "self_norm", "ks", "mu_min_U"]}
    clean, _ = synth.run_scaling_experiment(config)
    original_state, original_gram, bad = synth._scaling_rep_state, synth.regularized_gram, []

    def captured(draw, seed, d, n, rep):
        state = original_state(draw, seed, d, n, rep)
        if (n, rep) == (50, 2):
            bad.append(state.u)
        return state

    def poisoned(stack, lam):  # the rows of the bad rep's state get a bad weight matrix
        A = original_gram(stack, lam)
        rows = np.all(stack.u == bad[0], axis=1)
        A[rows] = poison(A[rows])
        return A

    monkeypatch.setattr(synth, "_scaling_rep_state", captured)
    monkeypatch.setattr(synth, "regularized_gram", poisoned)
    records, _ = synth.run_scaling_experiment(config)
    failed = [(r.n, r.rep, r.metric_name, r.error) for r in records if r.error]
    assert [f[:3] for f in failed] == [(50, 2, "failure")]
    assert re.fullmatch(message, failed[0][3])
    assert _without(records, 50, 2) == _without(clean, 50, 2)


def test_ridge_convergence_error_is_a_typed_failure(monkeypatch):
    def no_convergence(state, lam):
        raise ConvergenceError("ridge solve residual 1e-3 too large")

    monkeypatch.setattr(synth, "ridge_estimate", no_convergence)
    records, _ = synth.run_scaling_experiment(SCALING)
    assert {r.metric_name for r in records} == {"failure"}
    assert all(r.error.startswith("ConvergenceError: ridge solve") for r in records)
    with pytest.raises(ConvergenceError):
        synth.run_coverage_experiment({"mode": "self", "d": 2, "n": 50, "delta": 0.1,
                                       "reps": 2, "basis": {"kind": "bernoulli_hard"}})


@pytest.mark.parametrize("bad", ["draw", "solve"])
def test_bound_check_failed_draw_raises_its_own_typed_error(tmp_path, monkeypatch, capsys, bad):
    """A rep whose draw raises, or whose state the ridge solve rejects, stops bound-check."""
    original, calls = synth._bernoulli_rep, []

    def flaky(*args):  # reps draw in order, so call i is rep i
        calls.append(None)
        if len(calls) in (2, 4) and bad == "draw":
            raise SingularGram(f"degenerate draw at rep {len(calls) - 1}")
        state = original(*args)
        if len(calls) in (2, 4):  # U = -I, which Cholesky rejects
            state.U = -np.eye(state.d)
        return state

    monkeypatch.setattr(synth, "_bernoulli_rep", flaky)
    config = {"mode": "self", "d": 2, "n": 50, "delta": 0.1, "reps": 5,
              "basis": {"kind": "bernoulli_hard"}}
    error, message = {"draw": (SingularGram, "degenerate draw at rep 1"),
                      "solve": (LinAlgError, "Matrix is not positive definite")}[bad]
    with pytest.raises(error, match=f"^{message}$"):
        synth.run_coverage_experiment(config)
    calls.clear()
    code, out = _run(tmp_path, "bound-check", config)
    assert code == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "numerical", "message": f"{error.__name__}: {message}"}
    assert not (out / "records.csv").exists()
