"""Estimators of the mixture weight vector.

Closed-form ridge and unregularized solves, the Euclidean simplex
projection, the penalized (burn-in-free) estimator, the
sigma-regularized estimator in truncated coordinates, and the ECDF and
simplex-MLE baselines.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import BasisFamily
from .errors import ConvergenceError, SingularGram
from .gram import GramState, regularized_gram

_SINGULAR_EIG_TOL = 1e-10
# fit_mle_simplex stops after this many ascent steps or at this KKT residual.
_MLE_MAX_ITER, _MLE_TOL = 2000, 1e-8


def _spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve of A x = b, or of each system of an (r, d, d), (r, d) stack.

    A matrix that Cholesky rejects raises LinAlgError; it is never perturbed.
    """
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    L = np.linalg.cholesky(A)
    y = np.linalg.solve(L, b[..., None])
    return np.linalg.solve(np.swapaxes(L, -1, -2), y)[..., 0]


def ridge_estimate(state: GramState, lam: float) -> np.ndarray:
    """Solve (U_n + lambda I) theta = u_n for lambda > 0.

    A state whose U is an (r, d, d) stack and u an (r, d) stack gives the r
    solutions as an (r, d) array; each row is held to its own residual check.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive; use unregularized_estimate for lambda=0")
    A = regularized_gram(state, lam)
    theta = _spd_solve(A, state.u)
    resid = np.linalg.norm((A @ theta[..., None])[..., 0] - state.u, axis=-1)
    bad = resid > 1e-10 * (1.0 + np.linalg.norm(state.u, axis=-1))
    if bad.any():
        raise ConvergenceError(f"ridge solve residual {np.max(resid[bad]):.3e} too large")
    return theta


def unregularized_estimate(state: GramState) -> np.ndarray:
    """Solve U_n theta = u_n; requires a strictly positive smallest eigenvalue."""
    mu = float(np.linalg.eigvalsh(0.5 * (state.U + state.U.T))[0])
    if mu <= _SINGULAR_EIG_TOL:
        raise SingularGram(f"smallest Gram eigenvalue {mu:.3e} <= {_SINGULAR_EIG_TOL}")
    return _spd_solve(state.U, state.u)


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex, of v or of each row of an (r, d) v."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("cannot project non-finite vector")
    V = v.reshape(-1, v.shape[-1])
    V = V - V.max(1)[:, None]  # same projection; the simplex's 1 survives rounding
    s = np.sort(V)[:, ::-1]
    idx = np.arange(1, V.shape[1] + 1)
    q = (s.cumsum(1) - 1.0) / idx  # (s_1 + ... + s_j - 1) / j
    tau = q[np.arange(len(V)), np.where(s > q, idx, 0).max(1) - 1]  # at the last s_j > q_j
    out = np.maximum(V - tau[:, None], 0.0)
    return (out / out.sum(1)[:, None]).reshape(v.shape)  # exact renormalization


def delta_nU_default(n: int, d: int, delta: float) -> float:
    """Default penalty level d sqrt(8 n log(d/delta))."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    return d * math.sqrt(8.0 * n * math.log(d / delta))


def penalized_estimate(state: GramState, lam: float, delta_nU: float) -> np.ndarray:
    """Minimize ||U_n(lambda) theta - u_n|| + delta_nU ||theta|| exactly.

    With A = U_n + lambda I = V diag(s) V^T and c = V^T u_n, the minimizer is
    theta(mu) = (A^2 + mu I)^-1 A u_n = V s w, w = c / (s^2 + mu), at the mu >= 0
    where ||s w|| = delta_nU ||w||. That ratio increases with mu, so mu is bisected.
    A state whose U is an (r, d, d) stack and u an (r, d) stack gives the r
    minimizers as an (r, d) array, each row bisected on its own; one state is r = 1.
    """
    if delta_nU <= 0:
        raise ValueError("delta_nU must be positive")
    A = regularized_gram(state, lam).reshape(-1, state.d, state.d)
    b = state.u.reshape(-1, state.d)
    theta = np.zeros_like(b)
    # Zero is optimal iff u_n = 0 or the residual-term subgradient at 0 fits in
    # the delta_nU ball: ||A^T b|| / ||b|| <= delta_nU.
    live = (np.linalg.norm(np.einsum("rji,rj->ri", A, b), axis=1)
            > delta_nU * np.linalg.norm(b, axis=1) * (1 + 1e-12))
    s, V = np.linalg.eigh(A[live])
    c = np.einsum("rji,rj->ri", V, b[live])
    s2 = s * s

    def below(mu, rows):  # ||s w|| < delta_nU ||w|| on the given rows, compared in squares
        w = c[rows] / (s2[rows] + mu[:, None])
        return np.einsum("ri,ri->r", s2[rows] * w, w) < delta_nU ** 2 * np.einsum("ri,ri->r", w, w)

    lo, hi = np.zeros(len(s)), s2[:, -1].copy()
    grow = np.ones(len(s), dtype=bool)
    while grow.any():
        grow[grow] = below(hi[grow], grow)
        hi[grow] *= 2.0
    # A nonsingular with A theta = u_n already optimal: the residual vanishes.
    exact = s[:, 0] > 0
    exact[exact] = ~below(np.zeros(exact.sum()), exact)
    hi[exact] = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        rows = np.flatnonzero((lo < mid) & (mid < hi))
        if not rows.size:
            break
        go = below(mid[rows], rows)
        lo[rows[go]] = mid[rows[go]]
        hi[rows[~go]] = mid[rows[~go]]
    theta[live] = np.einsum("rij,rj->ri", V, s * c / (s2 + hi[:, None]))
    return theta.reshape(state.u.shape)


def hilbert_estimate(U_coeffs, u_coeffs, sigmas) -> np.ndarray:
    """Apply the sigma-regularized inverse coordinatewise in the eigenbasis of U.

    theta_hat = sum_i sigma_i^2 <e_i, u> / (1 + lambda_i sigma_i^2) e_i where
    the e_i are eigenvectors of U (ascending eigenvalues) and every sigma_i is nonzero.
    """
    U = np.asarray(U_coeffs, dtype=float)
    u = np.asarray(u_coeffs, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.size != u.size:
        raise ValueError("sigma sequence length must match the coefficient dimension")
    if np.any(sigmas == 0):
        raise ValueError("all sigma_i must be nonzero")
    lam, E = np.linalg.eigh(0.5 * (U + U.T))
    coeff = sigmas ** 2 * (E.T @ u) / (1.0 + lam * sigmas ** 2)
    return E @ coeff


class EmpiricalCdf:
    """Right-continuous step CDF of a sample."""

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise ValueError("ECDF requires a non-empty sample")
        self.sorted = np.sort(samples)
        self.n = samples.size

    def __call__(self, t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        vals = np.searchsorted(self.sorted, ts, side="right") / self.n
        return float(vals[0]) if np.isscalar(t) else vals


def fit_mle_simplex(samples, basis: BasisFamily) -> np.ndarray:
    """Maximize sum_j log(theta^T rho_j) over the simplex by projected gradient ascent.

    rho_j are the per-coordinate PMF values of the discrete outcome basis.
    """
    ys = np.array([y for _, y in samples], dtype=float)
    rho = basis.pmf_vector([x for x, _ in samples], ys)
    if np.any(rho.max(axis=1) <= 0):
        raise ValueError("degenerate likelihood: some sample has zero mass under every basis")
    d = basis.d
    if d == 1:
        return np.array([1.0])
    theta = np.full(d, 1.0 / d)

    def negloglik(th):
        lik = rho @ th
        if np.any(lik <= 0):
            return np.inf
        return -float(np.sum(np.log(lik)))

    fval = negloglik(theta)
    step = 1.0 / len(samples)
    for _ in range(_MLE_MAX_ITER):
        grad = -(rho / (rho @ theta)[:, None]).sum(axis=0)
        # One projection: the full step's candidate and the KKT residual's unit-step point.
        cand, kkt = project_simplex(np.stack([theta - step * grad, theta - grad / len(samples)]))
        s = step
        while (fc := negloglik(cand)) > fval - 1e-12:
            s *= 0.5
            if s <= 1e-16:
                break
            cand = project_simplex(theta - s * grad)
        if np.linalg.norm(theta - kkt) <= _MLE_TOL or s <= 1e-16:
            break
        theta, fval = cand, fc
    return theta
