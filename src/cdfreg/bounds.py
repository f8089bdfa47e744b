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
_KS_UNIFORM = 512  # evenly spaced points of ks_grid


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


def weighted_norm(v, A):
    """sqrt(v^T A v), tiny negative round-off clamped; (r, d) rows v give (r,), by A or A[i]."""
    v = np.asarray(v, dtype=float)
    A = np.asarray(A, dtype=float)
    if np.max(np.abs(A - np.swapaxes(A, -1, -2))) > _ASYM_TOL:
        raise ValueError("weight matrix must be symmetric")
    q = (v.reshape(-1, 1, v.shape[-1]) @ A @ v.reshape(-1, v.shape[-1], 1))[:, 0, 0]
    if np.any(q < -_ASYM_TOL):
        raise ValueError(f"quadratic form {q.min():.3e} is negative beyond round-off")
    norms = np.sqrt(np.maximum(q, 0.0))
    return float(norms[0]) if v.ndim == 1 else norms


def min_eigenvalue(A):
    """Smallest eigenvalue of a symmetric matrix, or of each matrix of an (r, d, d) stack."""
    A = np.asarray(A, dtype=float)
    if np.max(np.abs(A - np.swapaxes(A, -1, -2))) > _ASYM_TOL:
        raise ValueError("matrix must be symmetric")
    mu = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))[..., 0]
    return float(mu) if A.ndim == 2 else mu


def ks_distance(F1, F2, grid):
    """sup over the grid of |F1 - F2|, probing both sides of potential jumps.

    The grid must include every jump point of step CDFs (caller contract).
    An F1 that gives (r, P) rows, r CDFs at the P points, gives (r,) sups.
    F1 may give the difference of two CDFs itself, against an F2 of 0.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    eps = 1e-12 * np.maximum(np.abs(grid), 1.0)
    pts = np.concatenate([grid, grid - eps])
    v1 = np.asarray(F1(pts), dtype=float)
    v2 = np.asarray(F2(pts), dtype=float)
    sup = np.max(np.abs(v1 - v2), axis=-1)
    return float(sup) if sup.ndim == 0 else sup


def ks_grid(support_lo: float, support_hi: float, jump_points=()) -> np.ndarray:
    """Default evaluation grid: endpoints, a uniform fill, and declared jumps.

    Sorted and without repeats, as np.unique gives it, which would load numpy.ma.
    """
    base = np.linspace(support_lo, support_hi, _KS_UNIFORM)
    grid = np.sort(np.concatenate([base, np.asarray(jump_points, dtype=float),
                                   [support_lo, support_hi]]))
    return grid[np.concatenate([[True], grid[1:] != grid[:-1]])]


def l2_error_crps(ys, F, m: msr.QuadMeasure):
    """Mean over outcomes y_j of the squared L2(m) distance between 1{y_j<=.} and F_j.

    F is the (n, K) array of predicted CDF values at the measure's nodes,
    row j for outcome j; the score is the mean over j of
    sum_k w_k (1{y_j<=t_k} - F[j, k])^2, expanded as 1{y<=t} - 2 1{y<=t} F + F^2.
    An (..., n, K) stack of predictors gives their (...) scores as an array, each
    with the bits of its own (n, K) call; one (n, K) F gives a float.
    """
    ys = np.asarray(ys, dtype=float).reshape(-1)
    F = np.asarray(F, dtype=float)
    if ys.size == 0:
        raise ValueError("samples must be non-empty")
    if F.shape[-2:] != (ys.size, m.nodes.size):
        raise ValueError(f"F has shape {F.shape}, need (..., {ys.size}, {m.nodes.size})")
    buf = np.multiply(msr.jump_panel(ys, m)[1], F)  # reused below for F^2
    cross = buf.sum(axis=-1)
    sq = np.square(F, out=buf) @ m.weights  # one product per slice; (r n, K) rounds rows apart
    err = np.mean(msr.tail_mass(ys, m) - 2.0 * cross + sq, axis=-1)
    return float(err) if F.ndim == 2 else err


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
