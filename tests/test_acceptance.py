"""End-to-end acceptance checks: statistical behavior, bounds, and pipelines."""

import csv
import json
import pathlib

import numpy as np
import pytest
from scipy.optimize import minimize

from cdfreg import measure as msr
from cdfreg.basis import (BernoulliBasis, GaussianLaplaceBasis, PolynomialBasis,
                          inverse_cdf_sample)
from cdfreg.bounds import epsilon_lambda, fit_loglog_slope, ks_distance, ks_grid
from cdfreg.cli import main
from cdfreg.estimators import hilbert_estimate, project_simplex, ridge_estimate
from cdfreg.gram import GramState, accumulate, gram_matrix_of_context
from cdfreg.realdata import evaluate_pipeline
from cdfreg.synth import run_coverage_experiment, run_scaling_experiment

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "cdfreg" / "data"


def test_ridge_matches_numeric_minimizer():
    """ridge_estimate agrees with black-box minimization of the empirical objective."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(200):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 51))
        lam = float(rng.uniform(0.01, 2.0))
        if trial % 2 == 0:
            basis = BernoulliBasis(d)
            m = msr.make_uniform_measure(0.0, 1.0, 64)
            xs = [rng.uniform(0.05, 0.95, d) for _ in range(n)]
            ys = rng.integers(0, 2, n).astype(float)
        else:
            basis = PolynomialBasis(d)
            m = msr.make_uniform_measure(0.0, 2.0, 64)
            xs = [float(rng.uniform(0.5, 2.0)) for _ in range(n)]
            ys = rng.uniform(0.0, 2.0, n)
        state = GramState(d, m)
        for x, y in zip(xs, ys):
            state = accumulate(state, basis, x, y)
        theta_ridge = ridge_estimate(state, lam)

        # rebuild the objective from scratch: quadrature for the quadratic
        # term, split panels for the jump cross term
        G = np.zeros((d, d))
        r = np.zeros(d)
        c0 = 0.0
        for x, y in zip(xs, ys):
            P = basis.eval_nodes(x, m.nodes)
            G += (P * m.weights) @ P.T
            ts, ws = msr.jump_panel(y, m)
            if ts.size:
                r += basis.eval_nodes(x, ts) @ ws
            c0 += msr.tail_mass(y, m)

        f = lambda th: float(c0 - 2.0 * th @ r + th @ G @ th + lam * th @ th)
        g = lambda th: -2.0 * r + 2.0 * (G @ th) + 2.0 * lam * th
        res = minimize(f, np.zeros(d), jac=g, method="BFGS",
                       options={"gtol": 1e-12, "maxiter": 500})
        worst = max(worst, float(np.max(np.abs(res.x - theta_ridge))))
    assert worst < 1e-6


def _asymptotic_bias(basis, theta_star, contexts, context_weights, m, levels=16_000):
    """l2 norm of Sigma_1^{-1} E[u_1] - theta*, with E over y ~ theta*^T Phi(x, .).

    y is drawn at `levels` midpoint levels for every context; each context's
    draws `accumulate`d, weighted by the context's weight over `levels` and
    summed, give Sigma_1 as U and E[u_1] as u.
    """
    us = np.tile((np.arange(levels) + 0.5) / levels, len(contexts))
    X = np.repeat(np.asarray(contexts), levels, axis=0)
    ys = inverse_cdf_sample(theta_star, basis, X, us)
    U, u = np.zeros((basis.d, basis.d)), np.zeros(basis.d)
    for j, c in enumerate(context_weights):
        rows = slice(j * levels, (j + 1) * levels)
        state = accumulate(GramState(basis.d, m), basis, X[rows], ys[rows])
        U += c / levels * state.U
        u += c / levels * state.u
    return float(np.linalg.norm(np.linalg.solve(U, u) - theta_star))


def test_polynomial_design_is_unbiased():
    """E[u_1] = Sigma_1 theta* on the desk polynomial design, so ridge has no bias floor.

    U_n and u_n integrate against the same measure.  The residual, 7.7e-5,
    is the O(1/levels) error of the midpoint levels amplified by
    mu_min(Sigma_1) = 4.6e-6.  Integrating u_n on Legendre panels split at
    each y, against U_n on the nodes, gives 0.024.
    """
    mx = msr.make_uniform_measure(0.5, 2.0, 64)
    bias = _asymptotic_bias(PolynomialBasis(4), np.array([0.1, 0.2, 0.3, 0.4]),
                            mx.nodes, mx.weights, msr.make_uniform_measure(0.0, 2.0, 64))
    assert bias < 1e-3


def test_gaussian_measure_design_is_unbiased():
    """The same check for a Gaussian-Laplace basis under a Gaussian measure.

    Residual 1.7e-5 (mu_min(Sigma_1) = 4.4e-3); split panels for u_n give 0.040.
    """
    basis = GaussianLaplaceBasis(0.5, [1.0, -0.5, 0.3], [0.0, 0.5, -1.0],
                                 [0.8, -0.2, 0.6], [0.3, -0.4, 0.0],
                                 [1.0, 0.5, 2.0], [0.7, 1.2, 0.5])
    mx = msr.make_uniform_measure(-2.0, 2.0, 4)
    bias = _asymptotic_bias(basis, np.array([0.5, 0.3, 0.2]), np.repeat(mx.nodes[:, None], 3, 1),
                            mx.weights, msr.make_gaussian_measure(0.0, 9.0, 48))
    assert bias < 1e-3


@pytest.fixture(scope="module")
def hard_instance_sweep():
    cfg = {"experiment_id": "acc", "basis": {"kind": "bernoulli_hard", "d": 5},
           "lambdas": [0.001], "n_grid": [1000, 10000, 100000], "reps": 50,
           "metrics": ["l2", "self_norm"], "seed": 0}
    records, _ = run_scaling_experiment(cfg)

    def slope(metric):
        by_n = {}
        for r in records:
            if r.metric_name == metric:
                by_n.setdefault(r.n, []).append(r.value)
        pts = [(n, float(np.mean(v))) for n, v in sorted(by_n.items())]
        return fit_loglog_slope(pts)[0]

    return slope


def test_l2_error_scaling_slope(hard_instance_sweep):
    """Mean l2 error on the adversarial design decays roughly as n^{-1/2}."""
    assert -0.6 <= hard_instance_sweep("l2") <= -0.4


def test_self_normalized_error_is_flat(hard_instance_sweep):
    """The design-weighted error stays bounded as n grows."""
    assert -0.1 <= hard_instance_sweep("self_norm") <= 0.1


def test_self_normalized_bound_coverage():
    cfg = {"mode": "self", "d": 5, "n": 10000, "delta": 0.1, "lambda": 0.001,
           "reps": 200, "seed": 0, "basis": {"kind": "bernoulli_hard"}}
    report = run_coverage_experiment(cfg)
    assert report["coverage"] >= 0.9


@pytest.mark.parametrize("n", [50, 500])
def test_penalized_bound_coverage_and_dominance(n):
    """Two-atom random design: coverage below and above the classical burn-in,
    and the data-driven estimate never has a worse objective than its ridge init."""
    cfg = {"mode": "penalized", "d": 3, "n": n, "delta": 0.1, "reps": 50,
           "seed": 1, "theta_star": [0.5, 0.3, 0.2],
           "basis": {"kind": "bernoulli_atoms",
                     "atoms": [[0.2, 0.5, 0.8], [0.7, 0.3, 0.6]],
                     "probs": [0.5, 0.5],
                     "measure": {"kind": "counting", "points": [0.0, 1.0]}}}
    report = run_coverage_experiment(cfg)
    assert report["coverage"] >= 1.0 - 2 * 0.1
    assert all(row["dominated"] == 1.0 for row in report["rows"])


def test_ks_bounded_by_scaled_l2():
    """sup-KS between two Bernoulli mixtures is at most sqrt(d) times the
    l2 distance of the weight vectors."""
    rng = np.random.default_rng(3)
    grid = ks_grid(-0.5, 1.5, jump_points=[0.0, 1.0])
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        basis = BernoulliBasis(d)
        t1 = project_simplex(rng.normal(size=d))
        t2 = project_simplex(rng.normal(size=d))
        p = rng.random(d)
        F1 = lambda ts: t1 @ basis.eval_nodes(p, np.atleast_1d(ts))
        F2 = lambda ts: t2 @ basis.eval_nodes(p, np.atleast_1d(ts))
        ks = ks_distance(F1, F2, grid)
        assert ks <= np.sqrt(d) * np.linalg.norm(t1 - t2) + 1e-12


def test_hilbert_estimate_reduces_to_ridge():
    rng = np.random.default_rng(5)
    lam = 0.7
    sig = lambda d: np.full(d, 1.0 / np.sqrt(lam))
    for _ in range(100):
        d = int(rng.integers(1, 8))
        diag = rng.uniform(0.0, 4.0, d)
        u = rng.normal(size=d)
        state = GramState(d, msr.make_uniform_measure(0.0, 1.0, 8), 1,
                          np.diag(diag), u)
        got = hilbert_estimate(np.diag(diag), u, sig(d))
        assert np.max(np.abs(got - ridge_estimate(state, lam))) < 1e-10

        # rotated instance, solved in the eigenbasis and rotated back
        M = rng.normal(size=(d, d))
        U = M @ M.T
        vals, V = np.linalg.eigh(U)
        got_rot = V @ hilbert_estimate(np.diag(vals), V.T @ u, sig(d))
        state_rot = GramState(d, msr.make_uniform_measure(0.0, 1.0, 8), 1, U, u)
        assert np.max(np.abs(got_rot - ridge_estimate(state_rot, lam))) < 1e-10


def test_bernoulli_gram_fast_path_matches_quadrature():
    # Quadrature on [0, 1] gives the two-point closed form q q^T, q = 1 - p,
    # for any number of nodes.
    rng = np.random.default_rng(6)
    basis = BernoulliBasis(4)
    for n_nodes in (2, 64):
        unit = msr.make_uniform_measure(0.0, 1.0, n_nodes)
        for _ in range(100):
            p = rng.random(4)
            G = gram_matrix_of_context(basis, [p], unit)[0]
            assert np.max(np.abs(G - np.outer(1.0 - p, 1.0 - p))) <= 1e-14


def test_mismatch_bound_coverage():
    base = {"mode": "mismatch", "d": 3, "n": 10000, "delta": 0.1,
            "lambda": 1.0, "reps": 50, "seed": 2,
            "basis": {"kind": "bernoulli_hard", "p_e": 0.5}}
    report = run_coverage_experiment({**base, "q": 0.1})
    assert report["coverage"] >= 0.9
    clean = run_coverage_experiment({**base, "q": 0.0})
    assert clean["E_n_norm_max"] <= 1e-8 * 10000


def test_cli_records_are_rerun_deterministic(tmp_path):
    configs = [
        ("synth-bernoulli", {"basis": {"kind": "bernoulli_hard", "d": 3},
                             "lambdas": [0.001], "n_grid": [200, 500],
                             "reps": 4, "metrics": ["l2"], "seed": 9}),
        ("synth-poly", {"basis": {"kind": "polynomial", "d": 2},
                        "lambdas": [0.01], "n_grid": [50, 100], "reps": 4,
                        "metrics": ["l2"], "seed": 9}),
        ("bound-check", {"mode": "self", "d": 2, "n": 300, "delta": 0.1,
                         "lambda": 0.01, "reps": 8, "seed": 9,
                         "basis": {"kind": "bernoulli_hard"},
                         "theta_star": [0.5, 0.5]}),
        # The stacked penalized solve runs after every rep's statistics are drawn.
        ("bound-check", {"mode": "penalized", "d": 3, "n": 200, "delta": 0.1,
                         "reps": 20, "seed": 9, "theta_star": [0.5, 0.3, 0.2],
                         "basis": {"kind": "bernoulli_atoms",
                                   "atoms": [[0.2, 0.5, 0.8], [0.7, 0.3, 0.6]],
                                   "probs": [0.5, 0.5],
                                   "measure": {"kind": "counting", "points": [0.0, 1.0]}}}),
        ("real", {"csv_path": str(DATA / "smoke_12.csv"), "outcome": "y",
                  "measure": {"kind": "gaussian", "c": 0.0, "var": 9.0,
                              "n_nodes": 32},
                  "basis": {"kind": "gaussian_laplace", "w": 0.0},
                  "lambdas": [1.0], "seeds": [0, 1]}),
    ]
    for i, (command, payload) in enumerate(configs):
        cfg = tmp_path / f"{i}-{command}.json"
        cfg.write_text(json.dumps(payload))
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"{i}-{command}-{run}"
            code = main([command, "--config", str(cfg), "--out", str(out)])
            assert code == 0
            blobs.append((out / "records.csv").read_bytes())
        assert blobs[0] == blobs[1], (i, command)


def test_real_pipeline_beats_ecdf_baseline():
    """On the bundled Gaussian-mixture fixture the projected ridge fit has a
    smaller mean test error than the unconditional ECDF across 20 seeds."""
    cfg = {"csv_path": str(DATA / "gaussmix_500.csv"), "outcome": "y",
           "measure": {"kind": "gaussian", "c": 0.0, "var": 9.0, "n_nodes": 48},
           "basis": {"kind": "gaussian_laplace", "w": 0.5},
           "lambdas": [1.0], "seeds": list(range(20))}
    out = evaluate_pipeline(cfg)
    assert out["failures"] == []
    assert out["summary"]["ridge_projected"]["mean"] < out["summary"]["ecdf"]["mean"]


@pytest.mark.parametrize("basis", [
    {"kind": "bernoulli_hard"},
    {"kind": "bernoulli_atoms", "atoms": [[0.2, 0.5, 0.8], [0.7, 0.3, 0.6]],
     "probs": [0.5, 0.5], "measure": {"kind": "counting", "points": [0.0, 1.0]}},
])
def test_sigma_normalized_bound_coverage(basis):
    """The Sigma_n-norm error stays under sqrt(2) eps_lambda in at least 1 - delta of reps."""
    cfg = {"mode": "sigma", "d": 3, "n": 2000, "delta": 0.1, "lambda": 0.01,
           "reps": 50, "seed": 3, "theta_star": [0.5, 0.3, 0.2], "basis": basis}
    report = run_coverage_experiment(cfg)
    eps = epsilon_lambda(2000, 3, 0.1, 0.01, float(np.linalg.norm([0.5, 0.3, 0.2])))
    assert all(row["bound"] == np.sqrt(2.0) * eps for row in report["rows"])
    assert report["coverage"] >= 1.0 - 0.1
