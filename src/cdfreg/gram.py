"""Sufficient statistics for the ridge estimator.

Accumulates U_n (integrated outer products of the basis vector) and u_n
(integrated empirical-CDF responses) across samples, with a closed-form
fast path for Bernoulli-type bases on the uniform unit interval, plus
exact / Monte Carlo computation of the population Gram.

Every statistic is computed for a batch of samples at once, a block of
_BLOCK_ROWS rows at a time; the per-sample functions are the n=1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measure as msr
from .basis import BasisFamily, _TwoPointBasis


@dataclass
class GramState:
    d: int
    measure: msr.QuadMeasure
    n: int = 0
    U: np.ndarray = None
    u: np.ndarray = None

    def __post_init__(self):
        if self.U is None:
            self.U = np.zeros((self.d, self.d))
        if self.u is None:
            self.u = np.zeros(self.d)

    def copy(self) -> "GramState":
        return GramState(self.d, self.measure, self.n, self.U.copy(), self.u.copy())

    def merge(self, other: "GramState") -> "GramState":
        if other.d != self.d:
            raise ValueError("dimension mismatch in merge")
        return GramState(self.d, self.measure, self.n + other.n,
                         self.U + other.U, self.u + other.u)


@dataclass
class PopulationGram:
    Sigma: np.ndarray
    n: int
    d: int
    mc_samples: int


# Rows per block of the batched quadrature: every temporary then holds
# _BLOCK_ROWS * d * K values (16k for d=4, K=64), which keeps the peak
# memory of a large batch flat.
_BLOCK_ROWS = 64


def _bernoulli_fast_path(basis: BasisFamily, m: msr.QuadMeasure) -> bool:
    return (isinstance(basis, _TwoPointBasis)
            and m.kind == msr.UNIFORM
            and m.params.get("a") == 0.0 and m.params.get("b") == 1.0)


def _q_matrix(basis, X) -> np.ndarray:
    """(n, d) failure probabilities 1 - p: the two-point CDFs on [0, 1)."""
    return 1.0 - basis._probs_batch(X)


def _block_sum(basis: BasisFamily, X, panel, outer: bool, c=None) -> np.ndarray:
    """Sum over rows j of c_j sum_k ws[j,k] Phi(x_j, ts[j,k]) (times its transpose if outer).

    ``panel(rows)`` gives the (ts, ws) arrays of a slice of rows, so no
    temporary grows beyond one block; c defaults to ones.
    """
    d = basis.d
    total = np.zeros((d, d) if outer else d)
    for s in range(0, len(X), _BLOCK_ROWS):
        rows = slice(s, s + _BLOCK_ROWS)
        ts, ws = panel(rows)
        # (b, d, K) -> (d, b*K): one matrix product sums over rows and nodes.
        A = basis.eval_nodes(X[rows], ts).transpose(1, 0, 2).reshape(d, -1)
        w = (ws if c is None else c[rows, None] * ws).reshape(-1)
        total += (A * w) @ A.T if outer else A @ w
    return total


def _gram_sum(basis: BasisFamily, X, m: msr.QuadMeasure, c=None, Q=None) -> np.ndarray:
    """sum_j c_j * integral Phi(x_j,t) Phi(x_j,t)^T m(dt); c defaults to ones, Q to _q_matrix."""
    if _bernoulli_fast_path(basis, m):
        Q = _q_matrix(basis, X) if Q is None else Q
        return Q.T @ Q if c is None else (Q.T * np.asarray(c, dtype=float)) @ Q
    T, W = (np.broadcast_to(a, (len(X), a.size)) for a in (m.nodes, m.weights))  # no copies
    return _block_sum(basis, X, lambda rows: (T[rows], W[rows]), outer=True,
                      c=None if c is None else np.asarray(c, dtype=float))


def _response_sum(basis: BasisFamily, X, ys: np.ndarray, m: msr.QuadMeasure, Q=None, c=None):
    """sum_j c_j * integral 1{y_j<=t} Phi(x_j,t) m(dt), split at each jump; c, Q as in _gram_sum."""
    if not np.all(np.isfinite(ys)):
        raise ValueError("outcome y must be finite")
    if _bernoulli_fast_path(basis, m):
        Q = _q_matrix(basis, X) if Q is None else Q
        return (Q.T if c is None else Q.T * c) @ np.clip(1.0 - ys, 0.0, 1.0)
    return _block_sum(basis, X, lambda rows: msr.jump_panel(ys[rows], m), outer=False, c=c)


def gram_matrix_of_context(basis: BasisFamily, x, m: msr.QuadMeasure) -> np.ndarray:
    """Integral of Phi(x,t) Phi(x,t)^T against the measure."""
    return _gram_sum(basis, [x], m)


def response_vector_of_sample(basis: BasisFamily, x, y: float, m: msr.QuadMeasure) -> np.ndarray:
    """Integral of 1{y<=t} Phi(x,t) against the measure, split at the jump."""
    return _response_sum(basis, [x], np.array([y], dtype=float), m)


def accumulate(state: GramState, basis: BasisFamily, x, y,
               m: msr.QuadMeasure | None = None, w=None) -> GramState:
    """Return a new state with the samples (x, y) added.

    A scalar y adds one sample with context x; a 1-D y of n outcomes adds
    n samples whose contexts are the n entries of x, sample j counted w[j] times.
    """
    m = state.measure if m is None else m
    if basis.d != state.d:
        raise ValueError(f"basis dimension {basis.d} != state dimension {state.d}")
    ys = np.asarray(y, dtype=float)
    X = [x] if ys.ndim == 0 else x
    ys = ys.reshape(-1)
    w = None if w is None else np.asarray(w).reshape(-1)
    if len(X) != ys.size or (w is not None and w.size != ys.size):
        raise ValueError(f"{len(X)} contexts for {ys.size} outcomes")
    Q = _q_matrix(basis, X) if _bernoulli_fast_path(basis, m) else None
    U = state.U + _gram_sum(basis, X, m, c=w, Q=Q)
    U = 0.5 * (U + U.T)  # quadrature round-off symmetry guard
    u = state.u + _response_sum(basis, X, ys, m, Q=Q, c=w)
    return GramState(state.d, m, state.n + (ys.size if w is None else w.sum().item()), U, u)


def regularized_gram(state: GramState, lam: float) -> np.ndarray:
    """U_n + lambda I."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return state.U + lam * np.eye(state.d)


def population_gram_mc(basis: BasisFamily, context_sampler, m: msr.QuadMeasure,
                       n: int, mc_per_step: int = 1000, seed: int = 0) -> PopulationGram:
    """Population Gram Sigma_n = n * E_x[per-context Gram].

    ``context_sampler`` is either a pair (atoms, probs) of a finite context
    distribution (computed exactly, no Monte Carlo) or a callable
    rng -> context (averaged over ``mc_per_step`` draws).
    """
    if isinstance(context_sampler, tuple) and len(context_sampler) == 2:
        atoms, probs = context_sampler
        Sigma_step = _gram_sum(basis, atoms, m, probs)
        mc = 0
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        contexts = [context_sampler(rng) for _ in range(mc_per_step)]
        Sigma_step = _gram_sum(basis, contexts, m) / mc_per_step
        mc = mc_per_step
    Sigma = n * 0.5 * (Sigma_step + Sigma_step.T)
    return PopulationGram(Sigma=Sigma, n=n, d=basis.d, mc_samples=mc)

