"""Synthetic data generators and replicated experiment drivers.

Includes the adversarial Bernoulli hard instance, the polynomial
random-design setup, mismatched-model sampling, and the scaling /
coverage sweep drivers that emit plot-ready records.

Both drivers build a design once (once per grid point in the scaling
sweep), draw each rep's statistics from the rep's own Philox stream, and
solve the reps' estimates as one stacked system.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from . import bounds, measure as msr
from .basis import (BasisFamily, BernoulliBasis, PolynomialBasis, check_simplex,
                    inverse_cdf_sample)
from .errors import CdfRegError
from .estimators import (delta_nU_default, penalized_estimate, project_simplex,
                         ridge_estimate)
from .gram import (_BLOCK_ROWS, GramState, accumulate, gram_matrix_of_context,
                   population_gram, regularized_gram, response_vector_of_sample)

RECORD_COLUMNS = ["experiment_id", "scheme", "d", "n", "lambda", "rep", "seed",
                  "metric_name", "value"]
AGGREGATE_COLUMNS = ["experiment_id", "scheme", "d", "n", "lambda", "metric_name",
                     "mean", "q05", "q95"]
# The metrics _scaling_point computes, by the names a config asks for them.
METRICS = ("l2", "self_norm", "sigma_norm", "ks", "eps_lambda", "mu_min_U")

# Outcome measure of the Bernoulli designs, built once and only ever read.  Two
# nodes suffice: two-point CDFs are constant on [0, 1), so any rule with its
# nodes inside the interval integrates them exactly.
_UNIT_INTERVAL = msr.make_uniform_measure(0.0, 1.0, 2)


def stream_rng(seed: int, *key) -> np.random.Generator:
    """Counter-based generator with a per-stream key; independent of thread order."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass
class Dataset:
    contexts: np.ndarray | list  # n contexts, indexed by the first axis
    outcomes: np.ndarray
    E_n: np.ndarray | None = None  # realized mismatch vector (sample_mismatched only)


@dataclass
class ExperimentRecord:
    experiment_id: str
    scheme: str
    d: int
    n: int
    lam: float
    rep: int
    seed: int
    metric_name: str
    value: float
    error: str | None = None  # why a "failure" record failed; not written to CSV

    def row(self):
        return [self.experiment_id, self.scheme, self.d, self.n,
                repr(float(self.lam)), self.rep, self.seed,
                self.metric_name, repr(float(self.value))]


# ---------------------------------------------------------------------------
# Bernoulli hard instance
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def hard_instance_matrix(d: int, n: int, c: float = 1.0) -> np.ndarray:
    """All n parameter vectors of the hard instance as a read-only (n, d) array.

    Row j (1-based) is 1 - eps with one coordinate lowered by a further eps.
    Rows j <= d lower coordinate j at eps = c/(2 d^3); later rows cycle through
    the coordinates at eps = c/(2 d^2), which pins the parameters to the
    evaluation family [1 - c/d^2, 1 - c/(2 d^2)] and makes mu_min(U_n) grow
    linearly in n.  Row j > 2d repeats row j - d, so the experiments build
    only the min(n, 2d) distinct rows and count each (_hard_design); the last
    four matrices are cached.
    """
    if d < 2:
        raise ValueError("hard instance needs d >= 2")

    def rows(eps):  # row i lowers coordinate i
        return 1.0 - eps - eps * np.eye(d)

    P = rows(c / (2.0 * d ** 2))[np.arange(n) % d]
    P[:d] = rows(c / (2.0 * d ** 3))[:n]
    # Later rows permute one pattern, so the first 2d rows hold every value.
    if np.any(P[:2 * d] < 0) or np.any(P[:2 * d] > 1):
        raise ValueError("hard-instance p out of [0,1]; reduce c")
    P.setflags(write=False)
    return P


# ---------------------------------------------------------------------------
# Scheme samplers
# ---------------------------------------------------------------------------

def uniform_contexts(lo, hi):
    """Batch sampler of contexts uniform on the box [lo, hi]; scalar bounds give scalar contexts.

    sampler(rng, n, k) returns the n contexts and an (n, k) array of levels,
    uniform on [0, 1), from one generator call whose row j is context j and
    then its k levels: the doubles a loop drawing sample by sample would draw.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c = lo.size

    def sampler(rng, n, k):
        D = rng.uniform(np.append(lo, np.zeros(k)), np.append(hi, np.ones(k)), (n, c + k))
        return (D[:, 0] if lo.ndim == 0 else D[:, :c]), D[:, c:]

    return sampler


def sample_scheme2(basis: BasisFamily, context_sampler, theta_star, n: int,
                   seed: int) -> Dataset:
    """I.i.d. contexts: draw each x with its level u, then y from the mixture CDF by inverse sampling.

    context_sampler(rng, n, k) gives n contexts and an (n, k) array of levels
    in [0, 1) (see uniform_contexts); here k = 1.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    X, U = context_sampler(stream_rng(seed), n, 1)
    ys = inverse_cdf_sample(theta_star, basis, X, U[:, 0])
    return Dataset(X, ys)


def sample_scheme1(basis: BasisFamily, adversary, theta_star, n: int,
                   seed: int) -> Dataset:
    """Adaptive contexts: the adversary sees the full (x, y) history."""
    theta_star = np.asarray(theta_star, dtype=float)
    rng = stream_rng(seed)
    history, contexts, ys = [], [], np.empty(n)
    for j in range(n):
        x = adversary(history)
        u = rng.uniform()
        ys[j] = inverse_cdf_sample(theta_star, basis, x, u)
        contexts.append(x)
        history.append((x, ys[j]))
    return Dataset(contexts, ys)


def sample_mismatched(basis: BasisFamily, phi_e: BasisFamily, q: float,
                      theta_star, n: int, seed: int, context_sampler,
                      m: msr.QuadMeasure) -> Dataset:
    """Sample from (1-q) theta*^T Phi + q phi_e and record the realized mismatch vector E_n.

    phi_e is a one-dimensional basis family sharing the context space.
    context_sampler is a batch sampler as in sample_scheme2, drawing k = 2
    levels per sample: the first picks phi_e, the second is the level u.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("mixture weight q must lie in [0,1]")
    theta_star = np.asarray(theta_star, dtype=float)
    X, U = context_sampler(stream_rng(seed), n, 2)
    X = np.asarray(X)
    pick_e, us = U[:, 0] < q, U[:, 1]
    ys = np.empty(n)
    ys[pick_e] = inverse_cdf_sample(np.array([1.0]), phi_e, X[pick_e], us[pick_e])
    ys[~pick_e] = inverse_cdf_sample(theta_star, basis, X[~pick_e], us[~pick_e])
    # e_j(t) = q (phi_e(x_j,t) - theta*^T Phi(x_j,t)); accumulate its Gram response.
    E_n = np.zeros(basis.d)
    for s in range(0, n, _BLOCK_ROWS):
        Xb = X[s:s + _BLOCK_ROWS]
        T = np.broadcast_to(m.nodes, (len(Xb), m.nodes.size))
        P = basis.eval_nodes(Xb, T)
        e_vals = q * (phi_e.eval_nodes(Xb, T)[:, 0] - theta_star @ P)
        E_n += np.einsum("bik,bk->i", P, m.weights * e_vals)
    return Dataset(X, ys, E_n)


# ---------------------------------------------------------------------------
# Per-rep statistics
# ---------------------------------------------------------------------------

def _hard_design(d: int, n: int, c: float):
    """Distinct rows R of the n-row hard instance and how many of the n rows each one is.

    Rows j < d occur once; row j >= d is row d + (j - d) mod d, so row i >= d
    occurs ceil((n - i) / d) times.
    """
    i = np.arange(min(n, 2 * d))
    return hard_instance_matrix(d, i.size, c), np.where(i < d, 1, (n - i + d - 1) // d)


def _hard_ones(d: int, counts, probs, rng) -> np.ndarray:
    """How many of each distinct hard-instance row's draws y_j ~ Bernoulli(probs) are 1.

    y_j is r[j] < probs of row j for r = rng.random(n), so the draws at row
    i >= d are the strided view r[i::d]: no row index and no gather.
    """
    r = rng.random(counts.sum())
    ones = np.empty(len(counts), dtype=np.int64)
    ones[:d] = r[:d] < probs[:d]
    for i in range(d, len(counts)):
        ones[i] = np.count_nonzero(r[i::d] < probs[i])
    return ones


def _atom_statistics(P, m):
    """state(counts, ones): the statistics of counts[a] draws at atom P[a], ones[a] of them y = 1.

    The atoms are Bernoulli p-vectors.  Each atom's Gram G (k, d, d) and its
    responses R0, R1 (k, d) at y = 0 and y = 1 are integrated against m
    once; a state is then the count-weighted sums U_n = counts.G and
    u_n = (counts - ones).R0 + ones.R1.
    """
    k, d = P.shape
    basis = BernoulliBasis(d)
    G = np.array([gram_matrix_of_context(basis, p, m) for p in P]).reshape(k, d * d)
    R0, R1 = (np.array([response_vector_of_sample(basis, p, y, m) for p in P])
              for y in (0.0, 1.0))

    def state(counts, ones) -> GramState:
        U = (counts @ G).reshape(d, d)
        return GramState(d, m, int(counts.sum()), 0.5 * (U + U.T),
                         (counts - ones) @ R0 + ones @ R1)

    return state


@functools.lru_cache(maxsize=4)
def _hard_statistics(d: int, k: int, c: float):
    """_atom_statistics of the first k distinct hard rows: one build serves every n >= 2d."""
    return _atom_statistics(hard_instance_matrix(d, k, c), _UNIT_INTERVAL)


def bernoulli_ks_sup(theta_hat, theta_star, d: int) -> float:
    """Sup KS distance over the evaluation family of Bernoulli contexts.

    The family mirrors the hard-instance pattern: parameters 1-eps with one
    cyclically perturbed coordinate 1-2*eps, eps ranging over
    [1/(2 d^2), 1/d^2].
    """
    delta = np.asarray(theta_hat, dtype=float) - np.asarray(theta_star, dtype=float)
    # q(eps, j) = eps * (1 + e_j); KS on [0,1) is |delta^T q|, largest at eps = 1/d^2.
    base = float(np.sum(delta))
    per_coord = np.abs(base + delta)          # (d,) for each perturbed coordinate
    step_sup = float((1.0 / (d * d)) * per_coord.max())
    # At t >= 1 both CDFs equal sum(theta); include that gap for improper theta_hat.
    return max(step_sup, abs(base))


# ---------------------------------------------------------------------------
# Scaling experiment driver
# ---------------------------------------------------------------------------

# Statistical and numerical errors: a failure row, not a crash.
_FAILURES = (CdfRegError, LinAlgError, ValueError)


def sorted_quantile(s, q: float) -> float:
    """np.quantile(s, q) of a sorted 1-D array, by numpy's 'linear' method step for step.

    The virtual index (len - 1) q, its two neighbours (both the last value
    once the index reaches the end) and numpy's _lerp, which for t >= 0.5
    interpolates back from the upper neighbour; a NaN sorts last and is then
    the answer.  np.quantile itself loads numpy.ma.
    """
    n = len(s)
    v = (n - 1) * q
    i = j = -1
    if v < n - 1:
        i = math.floor(v)
        j = i + 1
    t = v - i
    a, b = float(s[i]), float(s[j])
    diff = b - a
    value = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    return float(s[-1]) if math.isnan(s[-1]) else value


def _quantiles(vals):
    vals = np.sort(np.asarray(vals, dtype=float))
    return float(np.mean(vals)), sorted_quantile(vals, 0.05), sorted_quantile(vals, 0.95)


@functools.lru_cache(maxsize=8)
def _polynomial_sigma_1(d, x_lo, x_hi, n_nodes):
    """Read-only Sigma_1 for contexts uniform on [x_lo, x_hi], by Gauss-Legendre over x.

    Sigma_n is n * Sigma_1, bit for bit population_gram(..., n).
    """
    m = msr.make_uniform_measure(0.0, 2.0, n_nodes)
    mx = msr.make_uniform_measure(x_lo, x_hi, n_nodes)
    S = population_gram(PolynomialBasis(d), mx.nodes, mx.weights, m, 1)
    S.setflags(write=False)
    return S


def _scaling_design(config, d, n, theta_star, metrics):
    """(draw, Sigma_n, ks_fn), what every rep of grid point (d, n) shares.

    draw(rng) gives one rep's GramState.  The polynomial design builds
    Sigma_n only for the sigma_norm metric and gives None otherwise.
    """
    spec = config["basis"]
    kind = spec["kind"]
    if kind == "bernoulli_hard":
        draw, Sigma_n, _ = _bernoulli_design(config, "self", d, n, theta_star)
        return draw, Sigma_n, lambda th: bernoulli_ks_sup(project_simplex(th), theta_star, d)
    if kind != "polynomial":
        raise ValueError(f"unknown scaling basis kind {kind!r}")
    x_lo, x_hi = float(spec.get("x_lo", 0.5)), float(spec.get("x_hi", 2.0))
    n_nodes = int(spec.get("n_nodes", 64))
    basis = PolynomialBasis(d)
    m = msr.make_uniform_measure(0.0, 2.0, n_nodes)
    contexts = uniform_contexts(x_lo, x_hi)

    def draw(rng) -> GramState:
        ds = sample_scheme2(basis, contexts, theta_star, n, int(rng.integers(2 ** 62)))
        return accumulate(GramState(d, m), basis, ds.contexts, ds.outcomes)

    Sigma_n = (n * _polynomial_sigma_1(d, x_lo, x_hi, n_nodes)
               if "sigma_norm" in metrics else None)
    grid = bounds.ks_grid(0.0, 2.0, jump_points=[1.0 / x for x in (x_lo, 1.0, x_hi)])

    def ks_fn(th):
        proj = project_simplex(th)
        worst = 0.0
        for x in (x_lo, 1.0, x_hi):
            F1 = lambda ts: proj @ basis.eval_nodes(x, np.atleast_1d(ts))
            F2 = lambda ts: theta_star @ basis.eval_nodes(x, np.atleast_1d(ts))
            worst = max(worst, bounds.ks_distance(F1, F2, grid))
        return worst

    return draw, Sigma_n, ks_fn


def _scaling_rep_state(draw, seed, d, n, rep) -> GramState:
    """One rep's statistics at grid point (d, n), drawn from the rep's own stream."""
    return draw(stream_rng(seed, 0xD0, d, n, rep))


def _attempt(fn, *args):
    """fn(*args), or the failure it raises, for _value to raise where it is used."""
    try:
        return fn(*args)
    except _FAILURES as exc:
        return exc


def _value(x):
    if isinstance(x, Exception):
        raise x
    return x


def _stack(states) -> GramState:
    """One state whose U and u stack the given states' (r, d, d) and (r, d)."""
    return GramState(states[0].d, states[0].measure, states[0].n,
                     np.stack([s.U for s in states]), np.stack([s.u for s in states]))


def _ridge_rows(states, lam) -> list:
    """Each state's ridge estimate at lam, or the failure its own solve raises.

    One stacked solve serves every state, row for row the state's own solve;
    if it raises, each state is solved alone.
    """
    if not states:
        return []
    try:
        return list(ridge_estimate(_stack(states), lam))
    except _FAILURES:
        return [_attempt(ridge_estimate, state, lam) for state in states]


def _scaling_point(config, d, n, seed, reps) -> list:
    """(payload, error) of each rep at grid point (d, n); the design is built once.

    payload lists (lambda, {metric: value}); a rep whose draw, solve or
    metrics fail has error "Type: message" instead, and a design that fails
    gives every rep its error.
    """
    theta_star = _theta_star(config, d)
    lambdas = [float(l) for l in config["lambdas"]]
    delta = float(config.get("delta", 0.1))
    metrics = config.get("metrics", ["l2", "self_norm", "ks", "eps_lambda"])
    failure = lambda exc: f"{type(exc).__name__}: {exc}"
    try:
        draw, Sigma_n, ks_fn = _scaling_design(config, d, n, theta_star, metrics)
    except _FAILURES as exc:
        return [(None, failure(exc))] * reps
    states, errors = {}, {}
    for rep in range(reps):
        try:
            states[rep] = _scaling_rep_state(draw, seed, d, n, rep)
        except _FAILURES as exc:
            errors[rep] = failure(exc)
    payloads = {rep: [] for rep in states}
    tnorm = float(np.linalg.norm(theta_star))
    for lam in lambdas:
        live = [rep for rep in states if rep not in errors]
        thetas = _ridge_rows([states[rep] for rep in live], lam)
        eps = _attempt(bounds.epsilon_lambda, n, d, delta, lam, tnorm)
        for rep, theta_hat in zip(live, thetas):
            state = states[rep]
            try:
                A = regularized_gram(state, lam)
                diff = _value(theta_hat) - theta_star
                vals = {}
                if "l2" in metrics:
                    vals["l2"] = float(np.linalg.norm(diff))
                if "self_norm" in metrics:
                    vals["self_norm"] = bounds.weighted_norm(diff, A)
                if "sigma_norm" in metrics:
                    vals["sigma_norm"] = bounds.weighted_norm(diff, Sigma_n)
                if "ks" in metrics:
                    vals["ks"] = ks_fn(theta_hat)
                if "eps_lambda" in metrics:
                    vals["eps_lambda"] = _value(eps)
                if "mu_min_U" in metrics:
                    vals["mu_min_U"] = bounds.min_eigenvalue(state.U)
                payloads[rep].append((lam, vals))
            except _FAILURES as exc:
                errors[rep] = failure(exc)
    return [(None, errors[rep]) if rep in errors else (payloads[rep], None)
            for rep in range(reps)]


def _theta_star(config, d):
    """The config's theta* for dimension d, checked, or (1, ..., d) / sum."""
    if config.get("theta_star") is None:
        theta = np.arange(1, d + 1, dtype=float)
        return theta / theta.sum()
    theta = np.asarray(config["theta_star"], dtype=float)
    if theta.shape != (d,) or not np.all(np.isfinite(theta)):
        raise ValueError(f"theta_star must be {d} finite numbers for d = {d}")
    return check_simplex(theta)


def _map_tasks(fn, tasks, threads: int) -> list:
    """fn over tasks, in task order; on a thread pool when threads > 1."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # not loaded by one-thread runs
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def run_scaling_experiment(config) -> tuple[list, list]:
    """Run the replicated sweep; returns (records, aggregate_rows).

    Each grid point (d, n) is one task: its design is built once, each rep
    draws its statistics from its own Philox stream, and each lambda's ridge
    estimates of all reps are one stacked solve.
    """
    exp_id = config.get("experiment_id", "scaling")
    seed = int(config.get("seed", 0))
    reps = int(config["reps"])
    if reps < 1:
        raise ValueError("reps must be >= 1")
    scheme = "Fixed" if config["basis"]["kind"] == "bernoulli_hard" else "Random"
    if "n_grid" in config:
        points = [(int(config["basis"]["d"]), int(n)) for n in config["n_grid"]]
    else:
        points = [(int(d), int(config["n"])) for d in config["d_grid"]]
    for d, _ in points:  # a bad theta_star fails here, before any task runs
        _theta_star(config, d)

    records, groups = [], {}
    results = _map_tasks(lambda p: _scaling_point(config, *p, seed, reps), points,
                         int(config.get("threads", 1)))
    for (d, n), point in zip(points, results):
        for rep, (payload, err) in enumerate(point):
            if err is not None:
                records.append(ExperimentRecord(exp_id, scheme, d, n, float("nan"),
                                                rep, seed, "failure", float("nan"), err))
                continue
            for lam, vals in payload:
                for name, value in vals.items():
                    records.append(ExperimentRecord(exp_id, scheme, d, n, lam, rep,
                                                    seed, name, value))
                    groups.setdefault((d, n, lam, name), []).append(value)

    aggregates = []
    for d, n, lam, name in sorted(groups):
        mean, q05, q95 = _quantiles(groups[d, n, lam, name])
        aggregates.append([exp_id, scheme, d, n, repr(float(lam)), name,
                           repr(mean), repr(q05), repr(q95)])
    return records, aggregates


# ---------------------------------------------------------------------------
# Coverage experiment driver
# ---------------------------------------------------------------------------

def _atom_design(spec, d, n, theta_star):
    """draw(rng) of one rep's statistics on a finite atom set of p-vectors, and Sigma_n.

    A rep draws n atoms and their outcomes and counts them by atom; Sigma_n
    is U_n at the expected counts n * probs.
    """
    try:
        P_atoms = np.asarray(spec.get("atoms"), dtype=float)
    except ValueError:  # ragged rows
        P_atoms = np.empty(0)
    if P_atoms.shape[1:] != (d,) or not np.all((P_atoms >= 0) & (P_atoms <= 1)):
        raise ValueError(f"basis.atoms must be a (k, {d}) array of probabilities in [0, 1]")
    k = len(P_atoms)
    probs = np.asarray(spec.get("probs"), dtype=float)
    if probs.shape != (k,):
        raise ValueError(f"basis.probs must have {k} entries, one per atom")
    try:
        check_simplex(probs)
    except ValueError as exc:
        raise ValueError(f"basis.probs: {exc}") from None
    m = msr.measure_from_spec(spec["measure"]) if "measure" in spec else _UNIT_INTERVAL
    state = _atom_statistics(P_atoms, m)
    success = P_atoms @ theta_star  # P(y = 1) at each atom

    def draw(rng) -> GramState:
        idx = rng.choice(k, size=n, p=probs)
        y = (rng.random(n) < success[idx]).astype(float)
        return state(np.bincount(idx, minlength=k).astype(float),
                     np.bincount(idx, weights=y, minlength=k))

    return draw, state(n * probs, np.zeros(k)).U


def _bernoulli_design(config, mode, d, n, theta_star):
    """(draw, Sigma_n, extra), what every rep shares: draw(rng) gives one rep's GramState.

    Both designs are Bernoulli outcomes at a finite set of atoms, so a rep's
    statistics are count-weighted sums of per-atom ones (_atom_statistics).
    The hard design's counts are fixed, so its U_n is the same in every rep
    and is its Sigma_n.  extra holds E_n_norm in mismatch mode.  The scaling
    sweep takes its hard-instance draw from here in "self" mode.
    """
    spec = config.get("basis", {"kind": "bernoulli_hard"})
    kind = spec["kind"]
    if mode == "mismatch" and kind != "bernoulli_hard":
        raise ValueError("mismatch mode uses the bernoulli_hard design")
    if kind == "bernoulli_atoms":
        return (*_atom_design(spec, d, n, theta_star), {})
    if kind != "bernoulli_hard":
        raise ValueError(f"unknown coverage basis kind {kind!r}")
    c = float(spec.get("c", 1.0))
    R, counts = _hard_design(d, n, c)
    state = _hard_statistics(d, len(R), c)
    Sigma_n = state(counts, 0 * counts).U
    probs = R @ theta_star
    extra = {}
    if mode == "mismatch":
        # Outcomes from (1-q) theta*^T Phi + q phi_e, phi_e the Bernoulli(p_e) CDF.
        q, p_e = float(config["q"]), float(spec["p_e"])
        probs = (1.0 - q) * probs + q * p_e
        # E_n = sum_j q integral (phi_e - theta*^T Phi_j) Phi_j: the u_n of outcomes
        # drawn from phi_e, in expectation, less Sigma_n theta*.
        E_n = q * (state(counts, p_e * counts).u - Sigma_n @ theta_star)
        extra["E_n_norm"] = float(np.linalg.norm(E_n))
    return (lambda rng: state(counts, _hard_ones(d, counts, probs, rng))), Sigma_n, extra


def _coverage_results(config, mode, states, Sigma_n, extra, theta_star):
    """(error, bound, extra) of each rep; every mode solves its reps as one stack.

    A rep whose ridge solve fails raises its failure.
    """
    d, n = int(config["d"]), int(config["n"])
    delta = float(config["delta"])
    lam = float(config.get("lambda", 0.001))
    tnorm = float(np.linalg.norm(theta_star))
    if mode == "penalized":
        delta_nU = delta_nU_default(n, d, delta)
        stack = _stack(states)
        thetas = penalized_estimate(stack, 0.0, delta_nU)
        bound = bounds.penalized_bound(n, d, delta, bounds.min_eigenvalue(Sigma_n), tnorm)
        # objective dominance diagnostic against the near-unregularized ridge fits
        obj = lambda th: (np.linalg.norm(np.einsum("rij,rj->ri", stack.U, th) - stack.u, axis=1)
                          + delta_nU * np.linalg.norm(th, axis=1))
        dominated = obj(thetas) <= obj(ridge_estimate(stack, 1e-8)) + 1e-7
        return [(float(np.linalg.norm(theta_check - theta_star)), bound, {"dominated": float(dom)})
                for theta_check, dom in zip(thetas, dominated)]
    # self, sigma and mismatch share the ridge fit; they differ in weight and bound.
    eps = bounds.epsilon_lambda(n, d, delta, lam, tnorm)
    bound = (bounds.mismatch_bound(eps, extra["E_n_norm"], lam) if mode == "mismatch"
             else math.sqrt(2.0) * eps if mode == "sigma" else eps)
    out = []
    for state, theta_hat in zip(states, _ridge_rows(states, lam)):
        W = Sigma_n if mode == "sigma" else regularized_gram(state, lam)
        out.append((bounds.weighted_norm(_value(theta_hat) - theta_star, W), bound, extra))
    return out


def run_coverage_experiment(config) -> dict:
    """Empirical coverage of a stated bound across replications.

    The design is built once; each rep draws its statistics from its own
    Philox stream, and the estimates are solved after every rep is drawn.
    """
    delta = float(config["delta"])
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    reps = int(config["reps"])
    if reps < 1:
        raise ValueError("reps must be >= 1")
    mode = config.get("mode", "self")
    if mode not in ("self", "sigma", "penalized", "mismatch"):
        raise ValueError(f"unknown coverage mode {mode!r}")
    if mode == "mismatch" and "q" not in config:  # checked here, before any rep runs
        raise ValueError("mismatch mode needs q")
    if mode == "mismatch" and "p_e" not in config.get("basis", {}):
        raise ValueError("mismatch mode needs basis.p_e")
    if mode == "penalized" and "lambda" in config:
        raise ValueError("lambda: penalized mode takes no lambda; its penalty comes from delta")
    seed = int(config.get("seed", 0))
    d, n = int(config["d"]), int(config["n"])
    theta_star = _theta_star(config, d)  # a bad theta_star fails here, before any rep runs
    draw, Sigma_n, extra = _bernoulli_design(config, mode, d, n, theta_star)
    states = _map_tasks(lambda rep: draw(stream_rng(seed, 0xC0, rep)), range(reps),
                        int(config.get("threads", 1)))
    results = _coverage_results(config, mode, states, Sigma_n, extra, theta_star)
    rows = [{"rep": rep, "error": err, "bound": bound, "covered": err <= bound, **extra}
            for rep, (err, bound, extra) in enumerate(results)]
    report = {"mode": mode, "delta": delta, "reps": reps,
              "coverage": sum(row["covered"] for row in rows) / reps, "rows": rows}
    for k in results[0][2]:
        vs = [row[k] for row in rows]
        report[f"{k}_mean"] = float(np.mean(vs))
        report[f"{k}_max"] = float(np.max(vs))
    return report


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows):
    """A header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_records_csv(path, records):
    _write_csv(path, RECORD_COLUMNS, (r.row() for r in records))


def write_aggregates_csv(path, aggregates):
    _write_csv(path, AGGREGATE_COLUMNS, aggregates)
