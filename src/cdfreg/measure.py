"""Probability measures on the support set realized as quadrature rules.

Three kinds are supported: uniform on an interval (Gauss-Legendre),
Gaussian on the real line (Gauss-Hermite), and counting measures on a
finite point set (exact atom sums).  All constructed measures are
probability measures: weights are non-negative and sum to one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

UNIFORM = "uniform_interval"
GAUSSIAN = "gaussian"
COUNTING = "counting"

DEFAULT_NODES = 64

# Gaussian quadrature panels are truncated at this many standard deviations
# when an integrand has a jump; the discarded tail mass is < 1e-37.
_GAUSSIAN_TAIL_SD = 13.0


@dataclass(frozen=True)
class QuadMeasure:
    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    support_lo: float
    support_hi: float
    params: dict = field(default_factory=dict)

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
    return QuadMeasure(UNIFORM, nodes, weights, a, b,
                       {"a": a, "b": b, "n_nodes": n_nodes})


def make_gaussian_measure(c: float, var: float, n_nodes: int = DEFAULT_NODES) -> QuadMeasure:
    """Gaussian measure with mean c and variance var via Gauss-Hermite nodes."""
    if var <= 0:
        raise ValueError(f"variance must be positive, got {var}")
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    z, w = np.polynomial.hermite.hermgauss(n_nodes)
    nodes = c + math.sqrt(2.0 * var) * z
    weights = w / math.sqrt(math.pi)
    return QuadMeasure(GAUSSIAN, nodes, weights, -math.inf, math.inf,
                       {"c": c, "var": var, "n_nodes": n_nodes})


def make_counting_measure(points) -> QuadMeasure:
    """Uniform counting measure on a strictly increasing finite point set."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("point set must be non-empty")
    if pts.size > 1 and np.any(np.diff(pts) <= 0):
        raise ValueError("points must be strictly increasing (no duplicates)")
    weights = np.full(pts.size, 1.0 / pts.size)
    return QuadMeasure(COUNTING, pts, weights, float(pts[0]), float(pts[-1]),
                       {"points": [float(p) for p in pts]})


def measure_from_spec(spec: dict) -> QuadMeasure:
    kind = spec["kind"]
    params = spec.get("params", spec)
    n_nodes = int(spec.get("n_nodes", params.get("n_nodes", DEFAULT_NODES)))
    if kind == UNIFORM:
        return make_uniform_measure(float(params["a"]), float(params["b"]), n_nodes)
    if kind == GAUSSIAN:
        return make_gaussian_measure(float(params["c"]), float(params["var"]), n_nodes)
    if kind == COUNTING:
        return make_counting_measure(params["points"])
    raise ValueError(f"unknown measure kind {kind!r}")


def _eval_on(f, ts: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(f(ts), dtype=float)
        if vals.shape != ts.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(f(t)) for t in ts])
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values")
    return vals


def integrate(f, m: QuadMeasure) -> float:
    """Integral of f against the measure: sum_k w_k f(t_k)."""
    return float(np.dot(m.weights, _eval_on(f, m.nodes)))


@functools.lru_cache(maxsize=None)
def _legendre_rule(n_nodes: int):
    """Reference Gauss-Legendre nodes and weights on [-1, 1], computed once per size."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre_panel(lo, hi, n_nodes: int):
    """Affine image of the reference rule on [lo, hi]; lo and hi may be (n, 1) columns."""
    x, w = _legendre_rule(n_nodes)
    half = 0.5 * (hi - lo)
    return half * x + 0.5 * (lo + hi), half * w


def jump_panel(y, m: QuadMeasure):
    """Nodes and weights realizing t -> integral of 1{y<=t} g(t) m(dt).

    For a scalar y, returns (ts, ws) such that the integral of
    1{y<=t} g(t) m(dt) is sum_k ws_k g(ts_k).  The interval is split at y
    so Gauss quadrature stays spectrally accurate for smooth g.

    For a 1-D array of n outcomes, returns (n, K) arrays whose row j is the
    panel of y_j.  Every row has the same K nodes: nodes a scalar panel
    would leave out (y past the support, counting atoms below y) carry zero
    weight.  The scalar panel is row 0 of the batch without those nodes.
    """
    ys = np.asarray(y, dtype=float)
    Y = ys.reshape(-1, 1)
    n_nodes = int(m.params.get("n_nodes", max(len(m.nodes), 2)))
    if m.kind == COUNTING:
        ts = np.broadcast_to(m.nodes, (Y.shape[0], m.nodes.size))
        ws = np.where(m.nodes >= Y, m.weights, 0.0)
    elif m.kind == UNIFORM:
        a, b = m.params["a"], m.params["b"]
        ts, ws = _legendre_panel(np.clip(Y, a, b), b, n_nodes)
        below = Y <= a  # the whole measure, with its own nodes and weights
        ts = np.where(below, m.nodes, ts)
        ws = np.where(below, m.weights, ws / (b - a))
    elif m.kind == GAUSSIAN:
        c, var = m.params["c"], m.params["var"]
        sd = math.sqrt(var)
        hi = c + _GAUSSIAN_TAIL_SD * sd
        lo = np.minimum(np.maximum(Y, c - _GAUSSIAN_TAIL_SD * sd), hi)
        ts, ws = _legendre_panel(lo, hi, n_nodes)
        pdf = np.exp(-0.5 * (ts - c) ** 2 / var) / math.sqrt(2 * math.pi * var)
        ws = ws * pdf
    else:
        raise ValueError(f"unknown measure kind {m.kind!r}")
    if ys.ndim == 0:
        keep = ws[0] != 0
        return ts[0][keep], ws[0][keep]
    return ts, ws


def integrate_with_jump(f, y: float, m: QuadMeasure) -> float:
    """Integral of 1{y<=t} f(t) m(dt) with the split-at-y rule."""
    ts, ws = jump_panel(y, m)
    if ts.size == 0:
        return 0.0
    return float(np.dot(ws, _eval_on(f, ts)))


def tail_mass(y, m: QuadMeasure):
    """m([y, support_hi]): measure of the region where 1{y<=t} is active.

    A 1-D array of outcomes gives an array of tail masses.
    """
    ys = np.asarray(y, dtype=float)
    if m.kind == COUNTING:
        mass = np.where(m.nodes >= ys[..., None], m.weights, 0.0).sum(axis=-1)
    elif m.kind == UNIFORM:
        a, b = m.params["a"], m.params["b"]
        mass = np.clip((b - np.clip(ys, a, b)) / (b - a), 0.0, 1.0)
    elif m.kind == GAUSSIAN:
        c, var = m.params["c"], m.params["var"]
        mass = 0.5 * erfc((ys - c) / math.sqrt(2.0 * var))
    else:
        raise ValueError(f"unknown measure kind {m.kind!r}")
    return float(mass) if ys.ndim == 0 else mass
