"""Sufficient statistics for the ridge estimator.

Accumulates U_n (integrated outer products of the basis vector) and u_n
(integrated empirical-CDF responses) across samples, and the population
Gram Sigma_n of a finite context distribution.

Every statistic is a weighted sum over the measure's nodes, computed by
_sums for a batch of samples at once, a block of _BLOCK_ROWS rows at a
time; the per-sample functions are the n=1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measure as msr
from .basis import BasisFamily


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

    def merge(self, other: "GramState") -> "GramState":
        if other.d != self.d:
            raise ValueError("dimension mismatch in merge")
        return GramState(self.d, self.measure, self.n + other.n,
                         self.U + other.U, self.u + other.u)


# Rows per block of the batched quadrature: every temporary then holds
# _BLOCK_ROWS * d * K values (16k for d=4, K=64), which keeps the peak
# memory of a large batch flat.
_BLOCK_ROWS = 64


def _sums(basis: BasisFamily, X, ys, m: msr.QuadMeasure, c=None, gram: bool = True):
    """sum_j c_j integral Phi Phi^T m(dt) and sum_j c_j integral 1{y_j<=t} Phi m(dt).

    Both integrals are sums over the measure's nodes, so one evaluation of
    Phi per block of _BLOCK_ROWS rows serves both, and no temporary grows
    beyond one block.  c defaults to ones.  A caller that needs one sum
    passes ys=None or gram=False, and ignores the other return value.
    """
    if ys is not None and not np.isfinite(ys).all():
        raise ValueError("outcome y must be finite")
    c = None if c is None else np.asarray(c, dtype=float)
    d, K = basis.d, m.nodes.size
    U, u = np.zeros((d, d)), np.zeros(d)
    T = m.nodes[None, :].repeat(min(len(X), _BLOCK_ROWS), axis=0)  # one block's nodes
    for s in range(0, len(X), _BLOCK_ROWS):
        rows = slice(s, s + _BLOCK_ROWS)
        Xb = X[rows]
        # (b, d, K) -> (d, b*K): one matrix product sums over rows and nodes.
        A = basis.eval_nodes(Xb, T[:len(Xb)]).transpose(1, 0, 2).reshape(d, -1)
        W = m.weights if c is None else c[rows, None] * m.weights
        if gram:
            U += (A.reshape(d, -1, K) * W).reshape(d, -1) @ A.T
        if ys is not None:
            # jump_panel's weights: the nodes at or above y_j keep theirs.
            u += A @ np.where(m.nodes >= ys[rows, None], W, 0.0).reshape(-1)
    return U, u


def gram_matrix_of_context(basis: BasisFamily, x, m: msr.QuadMeasure) -> np.ndarray:
    """Integral of Phi(x,t) Phi(x,t)^T against the measure."""
    return _sums(basis, [x], None, m)[0]


def response_vector_of_sample(basis: BasisFamily, x, y: float, m: msr.QuadMeasure) -> np.ndarray:
    """Integral of 1{y<=t} Phi(x,t) against the measure."""
    return _sums(basis, [x], np.array([y], dtype=float), m, gram=False)[1]


def accumulate(state: GramState, basis: BasisFamily, x, y, w=None) -> GramState:
    """Return a new state with the samples (x, y) added, integrated against state.measure.

    A scalar y adds one sample with context x; a 1-D y of n outcomes adds
    n samples whose contexts are the n entries of x, sample j counted w[j] times.
    """
    if basis.d != state.d:
        raise ValueError(f"basis dimension {basis.d} != state dimension {state.d}")
    ys = np.asarray(y, dtype=float)
    X = [x] if ys.ndim == 0 else x
    ys = ys.reshape(-1)
    w = None if w is None else np.asarray(w).reshape(-1)
    if len(X) != ys.size or (w is not None and w.size != ys.size):
        raise ValueError(f"{len(X)} contexts for {ys.size} outcomes")
    dU, du = _sums(basis, X, ys, state.measure, c=w)
    U = state.U + dU
    U = 0.5 * (U + U.T)  # quadrature round-off symmetry guard
    u = state.u + du
    n = state.n + (ys.size if w is None else w.sum().item())
    return GramState(state.d, state.measure, n, U, u)


def regularized_gram(state: GramState, lam: float) -> np.ndarray:
    """U_n + lambda I."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return state.U + lam * np.eye(state.d)


def population_gram(basis: BasisFamily, atoms, probs, m: msr.QuadMeasure,
                    n: int) -> np.ndarray:
    """Population Gram Sigma_n = n * E_x[per-context Gram], x drawn from atoms with probs."""
    S = _sums(basis, atoms, None, m, probs)[0]
    return n * 0.5 * (S + S.T)
