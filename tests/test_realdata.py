import math
import pathlib

import numpy as np
import pytest

from cdfreg.realdata import (evaluate_pipeline, fit_gaussian_laplace_basis,
                             fit_glm_univariate, fit_lad_univariate,
                             fit_logistic_probit_basis, fit_ols_univariate,
                             load_csv, standardize, three_way_split,
                             write_report_csv)

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "cdfreg" / "data"


def test_standardize():
    col = np.array([1.0, 2.0, 3.0, 4.0])
    z = standardize(col)
    assert z.mean() == pytest.approx(0.0, abs=1e-12)
    assert z.std() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(standardize(z), z, atol=1e-12)
    with pytest.raises(ValueError):
        standardize(np.full(5, 2.0))


def test_load_csv_drops_bad_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x1,y\n1.0,2.0\n,3.0\n2.0,nan\n3.0,4.0\n4.0,0.0\n")
    ds = load_csv(p, "y")
    assert ds.dropped_rows == 2
    assert len(ds.outcomes) == 3
    assert np.allclose(ds.outcomes, [2.0, 4.0, 0.0])
    assert ds.features.shape == (3, 1)
    with pytest.raises(ValueError):
        load_csv(p, "missing_col")


def test_load_csv_rejects_missing_features(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x1,y\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError, match="x2"):
        load_csv(p, "y", features=["x1", "x2"])


def test_load_csv_rejects_no_complete_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x1,y\n1.0,\nabc,2.0\n3.0,nan\n")
    with pytest.raises(ValueError, match="no complete numeric row"):
        load_csv(p, "y")


def test_three_way_split():
    a, b, c = three_way_split(6, 0)
    assert (len(a), len(b), len(c)) == (2, 3, 1)
    a2, b2, c2 = three_way_split(6, 0)
    assert np.array_equal(a, a2) and np.array_equal(b, b2)
    joined = np.sort(np.concatenate([a, b, c]))
    assert np.array_equal(joined, np.arange(6))
    d1 = three_way_split(100, 1)[0]
    d2 = three_way_split(100, 2)[0]
    assert not np.array_equal(d1, d2)
    with pytest.raises(ValueError):
        three_way_split(5, 0)


def test_ols_exact_and_normal_equations():
    fit = fit_ols_univariate([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
    assert fit.coef == pytest.approx(2.0, abs=1e-10)
    assert fit.intercept == pytest.approx(1.0, abs=1e-10)
    assert fit.scale == pytest.approx(0.0, abs=1e-12)

    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([0.0, 1.0, 2.3])
    fit = fit_ols_univariate(xs, ys)
    resid = ys - fit.coef * xs - fit.intercept
    # normal equations: residuals orthogonal to 1 and x
    assert np.sum(resid) == pytest.approx(0.0, abs=1e-10)
    assert np.sum(resid * xs) == pytest.approx(0.0, abs=1e-10)
    assert fit.scale == pytest.approx(np.mean(resid ** 2), abs=1e-12)
    with pytest.raises(ValueError):
        fit_ols_univariate([1.0, 1.0], [0.0, 1.0])


def test_lad_exact_line_and_robustness():
    fit = fit_lad_univariate([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    assert fit.coef == pytest.approx(1.0, abs=1e-6)
    assert fit.intercept == pytest.approx(1.0, abs=1e-6)

    rng = np.random.default_rng(0)
    xs = np.linspace(0, 1, 40)
    ys = 2.0 * xs + 1.0
    ys[3] += 50.0  # single gross outlier
    lad = fit_lad_univariate(xs, ys)
    ols = fit_ols_univariate(xs, ys)
    obj = lambda f: np.sum(np.abs(ys - f.coef * xs - f.intercept))
    assert obj(lad) <= obj(ols) + 1e-8
    assert abs(lad.coef - 2.0) < 0.05
    assert abs(ols.coef - 2.0) > 0.5
    assert lad.scale == pytest.approx(np.mean(np.abs(ys - lad.coef * xs
                                                     - lad.intercept)), abs=1e-8)


@pytest.mark.parametrize("link", ["Logistic", "Probit"])
def test_glm_intercept_only(link):
    # zero slope data: intercept solves mean(g(b)) = base rate
    xs = np.array([-1.0, 1.0, -2.0, 2.0, 0.0, 0.5, -0.5, 1.5])
    ys = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
    fit = fit_glm_univariate(xs, ys, link)
    from scipy.special import expit, ndtr
    g = expit if link == "Logistic" else ndtr
    rate = float(np.mean(g(fit.coef * xs + fit.intercept)))
    tol = 1e-8 if link == "Logistic" else 5e-3
    assert rate == pytest.approx(np.mean(ys), abs=tol)
    assert not fit.separated


def test_glm_symmetric_zero_coef():
    xs = np.array([-1.0, 1.0, -1.0, 1.0])
    ys = np.array([1.0, 1.0, 0.0, 0.0])
    fit = fit_glm_univariate(xs, ys, "Logistic")
    assert fit.coef == pytest.approx(0.0, abs=1e-8)
    assert fit.intercept == pytest.approx(0.0, abs=1e-8)


def test_glm_separated_data_flagged():
    xs = np.linspace(-2, 2, 20)
    ys = (xs > 0).astype(float)
    fit = fit_glm_univariate(xs, ys, "Logistic")
    assert fit.separated


def test_glm_rejects_single_class_and_bad_link():
    with pytest.raises(ValueError):
        fit_glm_univariate([0.0, 1.0], [1.0, 1.0], "Logistic")
    with pytest.raises(ValueError):
        fit_glm_univariate([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], "cauchit")


def test_glm_gradient_vanishes_at_fit():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=200)
    from scipy.special import expit
    ys = (rng.random(200) < expit(0.8 * xs - 0.2)).astype(float)
    fit = fit_glm_univariate(xs, ys, "Logistic")
    mu = expit(fit.coef * xs + fit.intercept)
    # score equations of the logistic log-likelihood
    assert np.sum(ys - mu) == pytest.approx(0.0, abs=1e-6)
    assert np.sum((ys - mu) * xs) == pytest.approx(0.0, abs=1e-6)


def test_fit_basis_families():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 2))
    y = X @ np.array([1.0, -0.5]) + rng.normal(scale=0.1, size=60)
    b = fit_gaussian_laplace_basis(X, y, w=0.0)
    assert b.d == 2  # one blended component per feature
    yb = (y > 0).astype(float)
    b2 = fit_logistic_probit_basis(X, yb, w=0.0)
    assert b2.d == 2


def test_evaluate_pipeline_smoke():
    cfg = {"csv_path": str(DATA / "smoke_12.csv"), "outcome": "y",
           "measure": {"kind": "gaussian", "c": 0.0, "var": 9.0, "n_nodes": 32},
           "basis": {"kind": "gaussian_laplace", "w": 0.0},
           "lambdas": [0.1, 1.0], "seeds": [0, 1]}
    out = evaluate_pipeline(cfg)
    assert out["failures"] == []
    methods = [r["method"] for r in out["rows"]]
    assert methods.count("ridge_projected") == 4  # 2 lambdas x 2 seeds
    assert methods.count("ecdf") == 2
    # continuous outcome: MLE rows are present but marked unsupported
    mle_rows = [r for r in out["rows"] if r["method"] == "mle_simplex"]
    assert all(r.get("unsupported") and math.isnan(r["l2_error"])
               for r in mle_rows)
    assert "ridge_projected" in out["summary"]
    assert "mle_simplex" not in out["summary"]
    for stats in out["summary"].values():
        assert stats["q05"] <= stats["q50"] <= stats["q95"]


def test_evaluate_pipeline_discrete_mle(tmp_path):
    rng = np.random.default_rng(4)
    n = 40
    x = rng.normal(size=n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-x))).astype(float)
    p = tmp_path / "b.csv"
    lines = ["x1,y"] + [f"{a:.6f},{int(b)}" for a, b in zip(x, y)]
    p.write_text("\n".join(lines) + "\n")
    cfg = {"csv_path": str(p), "outcome": "y",
           "measure": {"kind": "uniform_interval", "a": -0.5, "b": 1.5, "n_nodes": 32},
           "basis": {"kind": "logistic_probit", "w": 0.0},
           "lambdas": [1.0], "seeds": [0]}
    out = evaluate_pipeline(cfg)
    assert out["failures"] == []
    mle_rows = [r for r in out["rows"] if r["method"] == "mle_simplex"]
    assert len(mle_rows) == 1 and math.isfinite(mle_rows[0]["l2_error"])
    assert "mle_simplex" in out["summary"]


def test_write_report_csv(tmp_path):
    rows = [{"method": "ecdf", "lambda": float("nan"), "seed": 0,
             "l2_error": 0.25}]
    p = tmp_path / "report.csv"
    write_report_csv(p, rows)
    text = p.read_text().splitlines()
    assert text[0] == "method,lambda,seed,l2_error"
    assert text[1].startswith("ecdf,nan,0,0.25")
