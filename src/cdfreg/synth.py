"""Synthetic data generators and the replicated experiment driver.

Includes the adversarial Bernoulli hard instance, the Bernoulli atom
design, the polynomial random-design setup, mismatched-model sampling, and
the scaling / coverage runs that emit plot-ready records.

One driver (_point) serves both runs: on a design built once (_design), it
draws each rep's statistics from the rep's own Philox stream, solves each
lambda's reps as one stacked system and scores the requested metrics.  The
scaling sweep runs it once per grid point (d, n).  A coverage run is one
grid point whose error is one of the sweep's metrics, held against a bound.
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
# The metrics _point computes, by the names a config asks for them.
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
# Experiment drivers
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


def _design(config, mode, d, n, theta_star, metrics):
    """(draw, Sigma_n, ks_fn, extra), what every rep of grid point (d, n) shares.

    draw(rng) gives one rep's GramState.  The Bernoulli designs are outcomes
    at a finite set of atoms, so a rep's statistics are count-weighted sums
    of per-atom ones (_atom_statistics).  The hard design's counts are fixed,
    so its U_n is the same in every rep and is its Sigma_n.  The polynomial
    design builds Sigma_n only for the sigma_norm metric and gives None
    otherwise.  ks_fn is None on the atom design, which no sweep runs.  Only
    mode "mismatch" changes the design: its outcomes mix in phi_e, and extra
    holds E_n_norm; extra is {} otherwise.
    """
    spec = config.get("basis", {"kind": "bernoulli_hard"})
    kind = spec["kind"]
    if mode == "mismatch" and kind != "bernoulli_hard":
        raise ValueError("mismatch mode uses the bernoulli_hard design")
    if kind == "bernoulli_atoms":
        return (*_atom_design(spec, d, n, theta_star), None, {})
    if kind == "bernoulli_hard":
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
        return ((lambda rng: state(counts, _hard_ones(d, counts, probs, rng))), Sigma_n,
                lambda th: bernoulli_ks_sup(project_simplex(th), theta_star, d), extra)
    if kind != "polynomial":
        raise ValueError(f"unknown basis kind {kind!r}")
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

    return draw, Sigma_n, ks_fn, {}


def _metrics(names, n, delta, theta_star, Sigma_n, ks_fn) -> dict:
    """{name: score(state, lam, theta_hat)} of the named metrics, in METRICS order."""
    d, tnorm = theta_star.size, float(np.linalg.norm(theta_star))
    every = {
        "l2": lambda state, lam, th: float(np.linalg.norm(th - theta_star)),
        "self_norm": lambda state, lam, th: bounds.weighted_norm(
            th - theta_star, regularized_gram(state, lam)),
        "sigma_norm": lambda state, lam, th: bounds.weighted_norm(th - theta_star, Sigma_n),
        "ks": lambda state, lam, th: ks_fn(th),
        "eps_lambda": lambda state, lam, th: bounds.epsilon_lambda(n, d, delta, lam, tnorm),
        "mu_min_U": lambda state, lam, th: bounds.min_eigenvalue(state.U),
    }
    return {name: every[name] for name in METRICS if name in names}


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


def _ridge(stack, lam) -> list:
    """(estimate, {}) of each row of a stacked state: the ridge solver of every driver."""
    return [(theta, {}) for theta in ridge_estimate(stack, lam)]


def _penalized(delta_nU):
    """Solver of the penalized estimates at penalty delta_nU.

    Each row's "dominated" value says whether its objective is at most that
    of its near-unregularized ridge fit, from the same stack.
    """
    def solve(stack, lam) -> list:
        thetas = penalized_estimate(stack, lam, delta_nU)
        obj = lambda th: (np.linalg.norm(np.einsum("rij,rj->ri", stack.U, th) - stack.u, axis=1)
                          + delta_nU * np.linalg.norm(th, axis=1))
        dominated = obj(thetas) <= obj(ridge_estimate(stack, 1e-8)) + 1e-7
        return [(theta, {"dominated": float(dom)}) for theta, dom in zip(thetas, dominated)]

    return solve


def _point(draw_rep, reps, solve, lambdas, metrics) -> list:
    """Each rep's [(lambda, {name: value})], or the failure that stopped the rep.

    draw_rep(rep) gives a rep's GramState, solve(stack, lam) the (estimate,
    values) of each row of a stacked state, and metrics maps each requested
    name to score(state, lam, theta_hat).  Each lambda's live reps are one
    stacked solve, row for row each rep's own solve; a rep whose draw, solve
    or metrics fail stops there.
    """
    states = [_attempt(draw_rep, rep) for rep in range(reps)]
    results = [s if isinstance(s, Exception) else [] for s in states]
    for lam in lambdas:
        live = [rep for rep in range(reps) if not isinstance(results[rep], Exception)]
        try:
            rows = solve(_stack([states[rep] for rep in live]), lam) if live else []
        except _FAILURES:  # solve each rep alone, so that only a bad rep fails
            rows = [_attempt(lambda s: solve(_stack([s]), lam)[0], states[rep]) for rep in live]
        for rep, solved in zip(live, rows):
            try:
                theta_hat, vals = _value(solved)
                for name, score in metrics.items():
                    vals[name] = score(states[rep], lam, theta_hat)
                results[rep].append((lam, vals))
            except _FAILURES as exc:
                results[rep] = exc
    return results


def _theta_star(config, d):
    """The config's theta* for dimension d, checked, or (1, ..., d) / sum."""
    if config.get("theta_star") is None:
        theta = np.arange(1, d + 1, dtype=float)
        return theta / theta.sum()
    theta = np.asarray(config["theta_star"], dtype=float)
    if theta.shape != (d,):
        raise ValueError(f"theta_star must be {d} numbers for d = {d}")
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

    Each grid point (d, n) is one task (_point): its design is built once,
    each rep draws its statistics from its own Philox stream, and each
    lambda's ridge estimates of all reps are one stacked solve.  A rep that
    fails, or every rep of a design that fails, gets one failure row.
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
    lambdas = [float(l) for l in config["lambdas"]]
    delta = float(config.get("delta", 0.1))
    metrics = config.get("metrics", ["l2", "self_norm", "ks", "eps_lambda"])

    def grid_point(point):
        d, n = point
        theta_star = _theta_star(config, d)
        try:
            draw, Sigma_n, ks_fn, _ = _design(config, "self", d, n, theta_star, metrics)
        except _FAILURES as exc:
            return [exc] * reps
        return _point(lambda rep: _scaling_rep_state(draw, seed, d, n, rep), reps, _ridge,
                      lambdas, _metrics(metrics, n, delta, theta_star, Sigma_n, ks_fn))

    records, groups = [], {}
    results = _map_tasks(grid_point, points, int(config.get("threads", 1)))
    for (d, n), point in zip(points, results):
        for rep, result in enumerate(point):
            if isinstance(result, Exception):
                records.append(ExperimentRecord(exp_id, scheme, d, n, float("nan"), rep, seed,
                                                "failure", float("nan"),
                                                f"{type(result).__name__}: {result}"))
                continue
            for lam, vals in result:
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


# The sweep metric that each coverage mode's error is.
_MODE_METRIC = {"self": "self_norm", "mismatch": "self_norm", "sigma": "sigma_norm",
                "penalized": "l2"}


def run_coverage_experiment(config) -> dict:
    """Empirical coverage of a stated bound across replications.

    The run is one grid point (d, n) of the sweep's _point, on its own
    (0xC0, rep) streams, at one lambda: the config's for the ridge modes and
    0 for the penalized estimate.  A rep that fails raises its error.
    """
    delta = float(config["delta"])
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    reps = int(config["reps"])
    if reps < 1:
        raise ValueError("reps must be >= 1")
    mode = config.get("mode", "self")
    if mode not in _MODE_METRIC:
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
    metric = _MODE_METRIC[mode]
    draw, Sigma_n, ks_fn, extra = _design(config, mode, d, n, theta_star, [metric])
    tnorm = float(np.linalg.norm(theta_star))
    if mode == "penalized":
        lam, solve = 0.0, _penalized(delta_nU_default(n, d, delta))
        bound = bounds.penalized_bound(n, d, delta, bounds.min_eigenvalue(Sigma_n), tnorm)
    else:
        lam, solve = float(config.get("lambda", 0.001)), _ridge
        eps = bounds.epsilon_lambda(n, d, delta, lam, tnorm)
        bound = (bounds.mismatch_bound(eps, extra["E_n_norm"], lam) if mode == "mismatch"
                 else math.sqrt(2.0) * eps if mode == "sigma" else eps)
    results = _point(lambda rep: draw(stream_rng(seed, 0xC0, rep)), reps, solve, [lam],
                     _metrics([metric], n, delta, theta_star, Sigma_n, ks_fn))
    values = [{**extra, **_value(result)[0][1]} for result in results]
    errors = [vals.pop(metric) for vals in values]
    rows = [{"rep": rep, "error": err, "bound": bound, "covered": err <= bound, **vals}
            for rep, (err, vals) in enumerate(zip(errors, values))]
    report = {"mode": mode, "delta": delta, "reps": reps,
              "coverage": sum(row["covered"] for row in rows) / reps, "rows": rows}
    for k in values[0]:
        vs = [vals[k] for vals in values]
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
