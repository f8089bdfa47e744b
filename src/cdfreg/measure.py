"""Probability measures on the support set realized as quadrature rules.

Three kinds are supported: uniform on an interval (Gauss-Legendre),
Gaussian on the real line (Gauss-Hermite), and counting measures on a
finite point set (exact atom sums).  All constructed measures are
probability measures: weights are non-negative and sum to one.

Every integral, including those of the jump 1{y<=t}, is the weighted sum
over the rule's own nodes: the rule is the measure.  U_n and u_n then
integrate against the same measure, so E[u_n] = U_n theta* holds exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

UNIFORM = "uniform_interval"
GAUSSIAN = "gaussian"
COUNTING = "counting"

DEFAULT_NODES = 64


@dataclass(frozen=True)
class QuadMeasure:
    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    support_lo: float
    support_hi: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("measure weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("measure weights must sum to 1")
        nd = np.asarray(self.nodes, dtype=float)
        if np.any(np.diff(nd) <= 0):
            raise ValueError("measure nodes must be strictly increasing")
        if nd.size and (nd[0] < self.support_lo - 1e-12 or nd[-1] > self.support_hi + 1e-12):
            raise ValueError("nodes must lie inside the support")


def make_uniform_measure(a: float, b: float, n_nodes: int = DEFAULT_NODES) -> QuadMeasure:
    """Uniform probability measure on [a, b] via Gauss-Legendre nodes."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    x, w = _legendre_rule(n_nodes)
    nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
    # Jacobian (b-a)/2 times density 1/(b-a) leaves w/2.
    weights = 0.5 * w
    return QuadMeasure(UNIFORM, nodes, weights, a, b)


def make_gaussian_measure(c: float, var: float, n_nodes: int = DEFAULT_NODES) -> QuadMeasure:
    """Gaussian measure with mean c and variance var via Gauss-Hermite nodes."""
    if var <= 0:
        raise ValueError(f"variance must be positive, got {var}")
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    z, w = np.polynomial.hermite.hermgauss(n_nodes)
    nodes = c + math.sqrt(2.0 * var) * z
    weights = w / math.sqrt(math.pi)
    return QuadMeasure(GAUSSIAN, nodes, weights, -math.inf, math.inf)


def make_counting_measure(points) -> QuadMeasure:
    """Uniform counting measure on a strictly increasing finite point set."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("point set must be non-empty")
    if pts.size > 1 and np.any(np.diff(pts) <= 0):
        raise ValueError("points must be strictly increasing (no duplicates)")
    weights = np.full(pts.size, 1.0 / pts.size)
    return QuadMeasure(COUNTING, pts, weights, float(pts[0]), float(pts[-1]))


def measure_from_spec(spec: dict) -> QuadMeasure:
    kind = spec["kind"]
    for key in ("a", "b", "c", "var", "points"):
        if key in spec and not np.all(np.isfinite(np.asarray(spec[key], dtype=float))):
            raise ValueError(f"measure.{key}: {spec[key]!r} is not finite")
    n_nodes = int(spec.get("n_nodes", DEFAULT_NODES))
    if kind == UNIFORM:
        return make_uniform_measure(float(spec["a"]), float(spec["b"]), n_nodes)
    if kind == GAUSSIAN:
        return make_gaussian_measure(float(spec["c"]), float(spec["var"]), n_nodes)
    if kind == COUNTING:
        return make_counting_measure(spec["points"])
    raise ValueError(f"unknown measure kind {kind!r}")


@functools.lru_cache(maxsize=None)
def _legendre_rule(n_nodes: int):
    """Reference Gauss-Legendre nodes and weights on [-1, 1], computed once per size."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def jump_panel(y, m: QuadMeasure):
    """Nodes and weights realizing t -> integral of 1{y<=t} g(t) m(dt): the nodes at or above y.

    For a scalar y, returns (ts, ws) such that the integral of
    1{y<=t} g(t) m(dt) is sum_k ws_k g(ts_k).  For a 1-D array of n
    outcomes, returns (n, K) arrays whose row j is the panel of y_j: every
    row has all K nodes, and the nodes below y_j carry zero weight.
    """
    ys = np.asarray(y, dtype=float)
    above = m.nodes >= ys[..., None]
    if ys.ndim == 0:
        return m.nodes[above], m.weights[above]
    return np.broadcast_to(m.nodes, above.shape), np.where(above, m.weights, 0.0)


def tail_mass(y, m: QuadMeasure):
    """m([y, inf)): the weight of the nodes at or above y.

    A 1-D array of outcomes gives an array of tail masses.
    """
    ys = np.asarray(y, dtype=float)
    mass = np.where(m.nodes >= ys[..., None], m.weights, 0.0).sum(axis=-1)
    return float(mass) if ys.ndim == 0 else mass
