"""Closed-form error bounds and error metrics.

Every bound evaluator is a direct transcription of a closed-form
expression; the metrics (weighted norms, KS distance, CRPS-style L2
error) are the quantities the experiment drivers record.
"""

from __future__ import annotations

import math

import numpy as np

from . import measure as msr

_ASYM_TOL = 1e-10


def epsilon_lambda(n: int, d: int, delta: float, lam: float,
                   theta_star_norm: float) -> float:
    """Self-normalized bound sqrt(d log(1+n/lambda) + 2 log(1/delta)) + sqrt(lambda)||theta*||."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    return (math.sqrt(d * math.log1p(n / lam) + 2.0 * math.log(1.0 / delta))
            + math.sqrt(lam) * theta_star_norm)


def epsilon_unreg(n: int, d: int, delta: float, tau: float) -> float:
    """Unregularized bound (sqrt(d) + sqrt(8 d log(1/delta)) + (4/3) sqrt(d/n) log(1/delta)) / sqrt(tau)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    ld = math.log(1.0 / delta)
    return (math.sqrt(d) + math.sqrt(8.0 * d * ld)
            + (4.0 / 3.0) * math.sqrt(d / n) * ld) / math.sqrt(tau)


def penalized_bound(n: int, d: int, delta: float, mu_min_Sigma_n: float,
                    theta_star_norm: float) -> float:
    """Burn-in-free l2 bound for the penalized estimator."""
    if mu_min_Sigma_n <= 0:
        raise ValueError("mu_min(Sigma_n) must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    ld = math.log(1.0 / delta)
    bracket = (2.0 * d * math.sqrt(8.0 * n * math.log(d / delta)) * theta_star_norm
               + 2.0 * (math.sqrt(n * d) + math.sqrt(8.0 * n * d * ld)
                        + (4.0 / 3.0) * math.sqrt(d) * ld))
    return bracket / mu_min_Sigma_n


def hilbert_bound(eigenvalues, sigmas, delta: float,
                  theta_star_sigma_norm: float) -> float:
    """Truncated bound sqrt(sum log(1+lambda_i sigma_i^2) + 2 log(1/delta)) + ||theta*||_{sigma,e}."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if eigenvalues.size != sigmas.size:
        raise ValueError("eigenvalue and sigma lists must have the same length")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    if np.any(eigenvalues < 0):
        raise ValueError("eigenvalues must be non-negative")
    s = float(np.sum(np.log1p(eigenvalues * sigmas ** 2)))
    return math.sqrt(s + 2.0 * math.log(1.0 / delta)) + theta_star_sigma_norm


def mismatch_bound(eps_lambda_val: float, mismatch_norm: float, lam: float,
                   random_design: bool = False) -> float:
    """eps_lambda + ||E_n||/sqrt(lambda); random-design flag uses sqrt(2) factors with ||B_n||."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if random_design:
        return math.sqrt(2.0) * eps_lambda_val + math.sqrt(2.0 / lam) * mismatch_norm
    return eps_lambda_val + mismatch_norm / math.sqrt(lam)


def weighted_norm(v, A) -> float:
    """sqrt(v^T A v) for symmetric PSD A, clamping tiny negative round-off."""
    v = np.asarray(v, dtype=float)
    A = np.asarray(A, dtype=float)
    if np.max(np.abs(A - A.T)) > _ASYM_TOL:
        raise ValueError("weight matrix must be symmetric")
    q = float(v @ A @ v)
    if q < -_ASYM_TOL:
        raise ValueError(f"quadratic form {q:.3e} is negative beyond round-off")
    return math.sqrt(max(q, 0.0))


def min_eigenvalue(A) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    A = np.asarray(A, dtype=float)
    if np.max(np.abs(A - A.T)) > _ASYM_TOL:
        raise ValueError("matrix must be symmetric")
    return float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])


def ks_distance(F1, F2, grid) -> float:
    """sup over the grid of |F1 - F2|, probing both sides of potential jumps.

    The grid must include every jump point of step CDFs (caller contract).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    eps = 1e-12 * np.maximum(np.abs(grid), 1.0)
    pts = np.concatenate([grid, grid - eps])
    v1 = np.asarray(F1(pts), dtype=float)
    v2 = np.asarray(F2(pts), dtype=float)
    return float(np.max(np.abs(v1 - v2)))


def ks_grid(support_lo: float, support_hi: float, jump_points=(),
            n_uniform: int = 512) -> np.ndarray:
    """Default evaluation grid: endpoints, a uniform fill, and declared jumps."""
    base = np.linspace(support_lo, support_hi, n_uniform)
    return np.unique(np.concatenate([base, np.asarray(jump_points, dtype=float),
                                     [support_lo, support_hi]]))


def l2_error_crps(samples, F_hat, m: msr.QuadMeasure) -> float:
    """Mean over samples of the squared L2(S, m) distance between 1{y<=.} and F_hat(x, .).

    All samples are scored at once: F_hat(X, T) receives the n contexts and
    an (n, K) node array whose row j belongs to context j, and returns the
    (n, K) values.  Uses the identity (1{y<=t} - F)^2 = 1{y<=t} - 2 1{y<=t} F
    + F^2 with the jump term integrated on split panels.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("samples must be non-empty")
    X = [x for x, _ in samples]
    ys = np.array([y for _, y in samples], dtype=float)
    nodes = np.broadcast_to(m.nodes, (len(ys), m.nodes.size))
    fsq = np.asarray(F_hat(X, nodes), dtype=float) ** 2 @ m.weights
    ts, ws = msr.jump_panel(ys, m)
    cross = np.sum(ws * np.asarray(F_hat(X, ts), dtype=float), axis=1)
    return float(np.mean(msr.tail_mass(ys, m) - 2.0 * cross + fsq))


def fit_loglog_slope(points):
    """OLS slope and intercept of log(y) against log(x)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    if np.any(pts <= 0):
        raise ValueError("log-log fit requires positive coordinates")
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    if np.ptp(lx) == 0:
        raise ValueError("x values must be distinct")
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)
