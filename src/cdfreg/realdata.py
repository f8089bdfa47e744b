"""Tabular pipeline: ingestion, univariate basis fitting, and CRPS evaluation.

Fits per-feature location models (OLS/Gaussian, LAD/Laplace, logistic,
probit) on a first split, the mixture weights on a second, and reports
L2/CRPS errors against ECDF (and, for discrete outcomes, simplex-MLE)
baselines on a held-out third split.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import measure as msr
from .basis import GaussianLaplaceBasis, LogisticProbitBasis, ndtr
from .bounds import l2_error_crps
from .estimators import EmpiricalCdf, fit_mle_simplex, project_simplex, ridge_estimate
from .gram import GramState, accumulate
from .synth import _FAILURES, _write_csv, sorted_quantile, stream_rng

_GLM_COEF_CAP = 30.0
# fit_glm_univariate stops after this many Newton steps or at this gradient norm.
_GLM_MAX_ITER, _GLM_TOL = 100, 1e-8


@dataclass
class TabularDataset:
    features: np.ndarray      # (n, d), standardized
    outcomes: np.ndarray      # (n,)
    dropped_rows: int = 0


@dataclass
class UnivariateFit:
    coef: float
    intercept: float
    scale: float = float("nan")
    separated: bool = False


def standardize(column: np.ndarray) -> np.ndarray:
    """Mean 0, variance 1 (population denominator)."""
    col = np.asarray(column, dtype=float)
    sd = col.std()
    if sd == 0:
        raise ValueError("cannot standardize a constant column")
    return (col - col.mean()) / sd


def load_csv(path, outcome: str, features=None, delimiter=",") -> TabularDataset:
    """Read a headered CSV, drop rows with missing values, standardize features."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        rows = list(reader)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    if features is None:
        features = [c for c in rows[0].keys() if c != outcome]
    if outcome not in rows[0]:
        raise ValueError(f"outcome column {outcome!r} not found")
    missing = [c for c in features if c not in rows[0]]
    if missing:
        raise ValueError(f"feature columns {missing} not found")
    if outcome in features or len(set(features)) < len(features):
        raise ValueError(f"features must name distinct columns other than the outcome "
                         f"{outcome!r}; got {list(features)}")

    kept, dropped = [], 0
    for row in rows:
        try:
            vals = [float(row[c]) for c in features + [outcome]]
        except (ValueError, TypeError, KeyError):
            dropped += 1
            continue
        if not all(math.isfinite(v) for v in vals):
            dropped += 1
            continue
        kept.append(vals)
    if not kept:
        raise ValueError(f"no complete numeric row in {path}")
    arr = np.asarray(kept, dtype=float)
    X = np.column_stack([standardize(arr[:, i]) for i in range(len(features))])
    return TabularDataset(X, arr[:, -1], dropped)


def three_way_split(n: int, seed: int):
    """Seeded permutation split into fractions 1/3, 1/2, remainder."""
    if n < 6:
        raise ValueError("need at least 6 rows to split")
    perm = stream_rng(seed, 0x5711).permutation(n)
    n1, n2 = n // 3, n // 2
    return perm[:n1], perm[n1:n1 + n2], perm[n1 + n2:]


def fit_ols_univariate(xs, ys) -> UnivariateFit:
    """Closed-form least squares; scale is the residual variance (denominator n)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.ptp(xs) == 0:
        raise ValueError("OLS needs at least two distinct x values")
    coef, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (coef * xs + intercept)
    return UnivariateFit(float(coef), float(intercept), float(np.mean(resid ** 2)))


def fit_lad_univariate(xs, ys) -> UnivariateFit:
    """Least absolute residual line, exact: some optimal line passes through two points.

    The best line through an anchor point k has the weighted median of the
    slopes (y_i - y_k) / (x_i - x_k), weighted by |x_i - x_k|. Starting at
    the point nearest the OLS line, the anchor moves to the other point on
    that line until the L1 objective stops falling.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.ptp(xs) == 0:
        raise ValueError("LAD needs at least two distinct x values")
    a, b = np.polyfit(xs, ys, 1)
    k = int(np.argmin(np.abs(ys - a * xs - b)))
    best = math.inf
    while True:
        dx = xs - xs[k]
        others = np.flatnonzero(dx)
        slopes = (ys[others] - ys[k]) / dx[others]
        order = np.argsort(slopes)
        cum = np.cumsum(np.abs(dx[others])[order])
        j = order[np.searchsorted(cum, 0.5 * cum[-1])]
        slope = float(slopes[j])
        icpt = float(ys[k] - slope * xs[k])
        obj = float(np.sum(np.abs(ys - slope * xs - icpt)))
        if obj >= best:
            break
        best, a, b, k = obj, slope, icpt, int(others[j])
    return UnivariateFit(a, b, best / len(xs))


def fit_glm_univariate(xs, ys, link: str) -> UnivariateFit:
    """Newton-Raphson for a univariate logistic or probit regression."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not np.all((ys == 0.0) | (ys == 1.0)):
        raise ValueError("GLM outcome must be binary 0/1")
    if np.all(ys == ys[0]):
        raise ValueError("GLM needs both outcome classes present")
    if link not in ("Logistic", "Probit"):
        raise ValueError(f"unknown link {link!r}")
    X = np.column_stack([xs, np.ones_like(xs)])
    beta = np.zeros(2)
    separated = False
    for _ in range(_GLM_MAX_ITER):
        eta = X @ beta
        if link == "Logistic":
            mu = 1.0 / (1.0 + np.exp(-eta))
            grad = X.T @ (ys - mu)
            w = mu * (1.0 - mu)
        else:
            mu = ndtr(eta)
            pdf = np.exp(-0.5 * eta ** 2) / math.sqrt(2 * math.pi)
            mu_c = np.clip(mu, 1e-12, 1 - 1e-12)
            grad = X.T @ (pdf * (ys - mu_c) / (mu_c * (1.0 - mu_c)))
            w = pdf ** 2 / (mu_c * (1.0 - mu_c))
        H = X.T @ (X * w[:, None])
        try:
            delta = np.linalg.solve(H + 1e-12 * np.eye(2), grad)
        except np.linalg.LinAlgError:
            break
        beta = beta + delta
        if np.any(np.abs(beta) > _GLM_COEF_CAP):
            beta = np.clip(beta, -_GLM_COEF_CAP, _GLM_COEF_CAP)
            separated = True
            break
        if np.linalg.norm(grad) <= _GLM_TOL:
            break
    return UnivariateFit(float(beta[0]), float(beta[1]), separated=separated)


def fit_gaussian_laplace_basis(X, y, w: float) -> GaussianLaplaceBasis:
    """Per-feature OLS and LAD fits assembled into the mixture basis."""
    d = X.shape[1]
    bn1, bn0, bl1, bl0, s2, b = (np.empty(d) for _ in range(6))
    for i in range(d):
        ols = fit_ols_univariate(X[:, i], y)
        lad = fit_lad_univariate(X[:, i], y)
        bn1[i], bn0[i] = ols.coef, ols.intercept
        bl1[i], bl0[i] = lad.coef, lad.intercept
        s2[i] = max(ols.scale, 1e-8)
        b[i] = max(lad.scale, 1e-8)
    return GaussianLaplaceBasis(w, bn1, bn0, bl1, bl0, s2, b)


def fit_logistic_probit_basis(X, y, w: float) -> LogisticProbitBasis:
    d = X.shape[1]
    bl1, bl0, bp1, bp0 = (np.empty(d) for _ in range(4))
    for i in range(d):
        logi = fit_glm_univariate(X[:, i], y, "Logistic")
        prob = fit_glm_univariate(X[:, i], y, "Probit")
        bl1[i], bl0[i] = logi.coef, logi.intercept
        bp1[i], bp0[i] = prob.coef, prob.intercept
    return LogisticProbitBasis(w, bl1, bl0, bp1, bp0)


def evaluate_pipeline(config) -> dict:
    """Fit basis parameters, mixture weights, and baselines; report test CRPS rows.

    The seeds are config["seeds"], or n_seeds consecutive ones from seed; a
    config that gives seeds with seed or n_seeds, or a negative seed, is an
    error raised before any seed runs.
    """
    seeds = config.get("seeds")
    if seeds is None:
        base = int(config.get("seed", 0))
        seeds = [base + k for k in range(int(config.get("n_seeds", 1)))]
    elif "seed" in config or "n_seeds" in config:
        raise ValueError("seeds: give seeds alone, or seed (or --seed) with n_seeds")
    elif any(s < 0 for s in seeds):
        raise ValueError(f"seeds: {seeds!r} has a negative seed; seeds are non-negative")
    else:
        seeds = [int(s) for s in seeds]  # the config check lets 2.0 through as an integer
    data = load_csv(config["csv_path"], config["outcome"],
                    config.get("features"), config.get("delimiter", ","))
    m = msr.measure_from_spec(config["measure"])
    basis_kind = config["basis"]["kind"]
    w = float(config["basis"].get("w", 0.0))
    lambdas = [float(l) for l in config["lambdas"]]

    discrete = basis_kind == "logistic_probit"
    rows, errors = [], []
    for seed in seeds:
        try:
            i_fit, i_train, i_test = three_way_split(len(data.outcomes), seed)
            Xf, yf = data.features[i_fit], data.outcomes[i_fit]
            Xr, yr = data.features[i_train], data.outcomes[i_train]
            Xt, yt = data.features[i_test], data.outcomes[i_test]

            if basis_kind == "gaussian_laplace":
                basis = fit_gaussian_laplace_basis(Xf, yf, w)
            elif basis_kind == "logistic_probit":
                basis = fit_logistic_probit_basis(Xf, yf, w)
            else:
                raise ValueError(f"unknown pipeline basis kind {basis_kind!r}")

            state = accumulate(GramState(basis.d, m), basis, Xr, yr)
            # Phi(x, t) at the test contexts and the measure's nodes, (n, d, K):
            # the predicted CDF of every fitted theta is theta @ Phi.
            Phi = basis.eval_nodes(Xt, np.broadcast_to(m.nodes, (len(Xt), m.nodes.size)))
            for lam in lambdas:
                proj = project_simplex(ridge_estimate(state, lam))
                rows.append({"method": "ridge_projected", "lambda": lam,
                             "seed": seed, "l2_error": l2_error_crps(yt, proj @ Phi, m)})

            F_e = EmpiricalCdf(yr)(m.nodes)
            err_e = l2_error_crps(yt, np.broadcast_to(F_e, (len(yt), F_e.size)), m)
            rows.append({"method": "ecdf", "lambda": float("nan"),
                         "seed": seed, "l2_error": err_e})

            if discrete:
                theta_mle = fit_mle_simplex(list(zip(Xr, yr)), basis)
                rows.append({"method": "mle_simplex", "lambda": float("nan"),
                             "seed": seed, "l2_error": l2_error_crps(yt, theta_mle @ Phi, m)})
            else:
                rows.append({"method": "mle_simplex", "lambda": float("nan"),
                             "seed": seed, "l2_error": float("nan"),
                             "unsupported": "continuous outcome"})
            del Phi  # not held through the next seed's accumulate
        except _FAILURES as exc:  # reported, pipeline continues
            errors.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})

    summary = {}
    for method in sorted({r["method"] for r in rows}):
        vals = [r["l2_error"] for r in rows
                if r["method"] == method and math.isfinite(r["l2_error"])]
        if vals:
            s = np.sort(vals)
            summary[method] = {"mean": float(np.mean(vals)),
                               "q05": sorted_quantile(s, 0.05),
                               "q50": sorted_quantile(s, 0.50),
                               "q95": sorted_quantile(s, 0.95)}
    return {"rows": rows, "summary": summary, "failures": errors,
            "dropped_rows": data.dropped_rows, "n": int(len(data.outcomes))}


def write_report_csv(path, rows):
    _write_csv(path, ["method", "lambda", "seed", "l2_error"],
               ([r["method"], repr(float(r["lambda"])), r["seed"], repr(float(r["l2_error"]))]
                for r in rows))
