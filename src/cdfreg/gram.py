"""Sufficient statistics for the ridge estimator.

Accumulates U_n (integrated outer products of the basis vector) and u_n
(integrated empirical-CDF responses) across samples.

Every statistic is a weighted sum over the measure's nodes.  accumulate
sums a batch of samples, a block of _BLOCK_ROWS rows at a time (_sums); the
per-context Grams and responses take k contexts from one eval_nodes call,
and one context is the k = 1 case.
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


# Rows per block of the batched quadrature: every temporary then holds
# _BLOCK_ROWS * d * K values (16k for d=4, K=64), which keeps the peak
# memory of a large batch flat.
_BLOCK_ROWS = 64


def _sums(basis: BasisFamily, X, ys, m: msr.QuadMeasure):
    """sum_j integral Phi Phi^T m(dt) and sum_j integral 1{y_j<=t} Phi m(dt).

    Both integrals are sums over the measure's nodes, so one evaluation of
    Phi per block of _BLOCK_ROWS rows serves both, and no temporary grows
    beyond one block.
    """
    d, K = basis.d, m.nodes.size
    U, u = np.zeros((d, d)), np.zeros(d)
    T = m.nodes[None, :].repeat(min(len(X), _BLOCK_ROWS), axis=0)  # one block's nodes
    for s in range(0, len(X), _BLOCK_ROWS):
        rows = slice(s, s + _BLOCK_ROWS)
        Xb = X[rows]
        # (b, d, K) -> (d, b*K): one matrix product sums over rows and nodes.
        A = basis.eval_nodes(Xb, T[:len(Xb)]).transpose(1, 0, 2).reshape(d, -1)
        U += (A.reshape(d, -1, K) * m.weights).reshape(d, -1) @ A.T
        u += A @ msr.jump_panel(ys[rows], m)[1].reshape(-1)
    return U, u


def gram_matrix_of_context(basis: BasisFamily, X, m: msr.QuadMeasure) -> np.ndarray:
    """The (k, d, d) integrals of Phi(x,t) Phi(x,t)^T against the measure, one per context of
    the k in X, from one eval_nodes call; [x] gives one context's as the k = 1 case."""
    P = basis.eval_nodes(X, np.broadcast_to(m.nodes, (len(X), m.nodes.size)))
    return (P * m.weights) @ P.transpose(0, 2, 1)


def response_vector_of_sample(basis: BasisFamily, x, y, m: msr.QuadMeasure) -> np.ndarray:
    """Integral of 1{y<=t} Phi(x,t) against the measure.

    A 1-D y of k outcomes takes the k contexts in x and gives their (k, d)
    responses from one eval_nodes call; a scalar y is the k = 1 case.
    """
    ys = np.asarray(y, dtype=float)
    T, W = msr.jump_panel(ys.reshape(-1), m)
    P = basis.eval_nodes([x] if ys.ndim == 0 else x, T)
    return (P @ W[:, :, None]).reshape(ys.shape + (basis.d,))


def accumulate(state: GramState, basis: BasisFamily, x, y) -> GramState:
    """Return a new state with the samples (x, y) added, integrated against state.measure.

    A scalar y adds one sample with context x; a 1-D y of n outcomes adds
    n samples whose contexts are the n entries of x.
    """
    if basis.d != state.d:
        raise ValueError(f"basis dimension {basis.d} != state dimension {state.d}")
    ys = np.asarray(y, dtype=float)
    X = [x] if ys.ndim == 0 else x
    ys = ys.reshape(-1)
    if len(X) != ys.size:
        raise ValueError(f"{len(X)} contexts for {ys.size} outcomes")
    dU, du = _sums(basis, X, ys, state.measure)
    U = state.U + dU
    U = 0.5 * (U + U.T)  # quadrature round-off symmetry guard
    return GramState(state.d, state.measure, state.n + ys.size, U, state.u + du)


def regularized_gram(state: GramState, lam) -> np.ndarray:
    """U_n + lambda I; an (r,) array of lambdas gives the (r, d, d) stack of U_n + lambda_r I."""
    if np.asarray(lam).min() < 0:
        raise ValueError("lambda must be non-negative")
    return state.U + np.multiply.outer(lam, np.eye(state.d))

