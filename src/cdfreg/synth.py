"""Synthetic data generators and the replicated experiment driver.

Includes the adversarial Bernoulli hard instance, the Bernoulli atom
design, the polynomial random-design sampler, and the scaling / coverage
runs that emit plot-ready records.

One driver (_point) serves both runs: on a design built once (_design), it
draws each rep's statistics from the rep's own Philox stream, solves each
lambda's reps as one stacked system and scores it once per metric.  The
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
from .gram import GramState, gram_matrix_of_context, regularized_gram, response_vector_of_sample

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
    """Counter-based generator with a per-stream key, independent of every other stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


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

def hard_instance_matrix(d: int, n: int, c: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The n-row hard instance as an atom design: its distinct rows R and each row's count.

    Row j (1-based) is 1 - eps with one coordinate lowered by a further eps.
    Rows j <= d lower coordinate j at eps = c/(2 d^3); later rows cycle through
    the coordinates at eps = c/(2 d^2), which pins the parameters to the
    evaluation family [1 - c/d^2, 1 - c/(2 d^2)] and makes mu_min(U_n) grow
    linearly in n.  Row j > 2d repeats row j - d, so the n rows are the
    min(n, 2d) distinct rows R, with 0-based row i < d once and row i >= d
    ceil((n - i) / d) times.
    """
    if d < 2:
        raise ValueError(f"hard instance needs d >= 2; got d = {d}")

    def rows(eps):  # row i lowers coordinate i
        return 1.0 - eps - eps * np.eye(d)

    i = np.arange(min(n, 2 * d))
    R = np.vstack([rows(c / (2.0 * d ** 3)), rows(c / (2.0 * d ** 2))])[i]
    if np.any(R < 0) or np.any(R > 1):
        raise ValueError(f"hard-instance p out of [0, 1] at d = {d}, c = {c}; reduce c")
    return R, np.where(i < d, 1, (n - i + d - 1) // d)


# ---------------------------------------------------------------------------
# Scheme samplers
# ---------------------------------------------------------------------------

def uniform_contexts(lo, hi):
    """Batch sampler of contexts uniform on the box [lo, hi]; scalar bounds give scalar contexts.

    sampler(rng, n) returns the n contexts and their n levels, uniform on
    [0, 1), from one generator call whose row j is context j and then its
    level: the doubles a loop drawing sample by sample would draw.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c = lo.size

    def sampler(rng, n):
        D = rng.uniform(np.append(lo, 0.0), np.append(hi, 1.0), (n, c + 1))
        return (D[:, 0] if lo.ndim == 0 else D[:, :c]), D[:, c]

    return sampler


def sample_scheme2(basis: BasisFamily, context_sampler, theta_star, n: int, seed: int):
    """I.i.d. contexts: draw each x with its level u, then y from the mixture CDF by inverse
    sampling.  context_sampler is a batch sampler as uniform_contexts gives; returns (X, ys)."""
    X, us = context_sampler(stream_rng(seed), n)
    return X, inverse_cdf_sample(np.asarray(theta_star, dtype=float), basis, X, us)


# ---------------------------------------------------------------------------
# Per-rep statistics
# ---------------------------------------------------------------------------

def _bernoulli_rep(state, counts, success, rng) -> GramState:
    """One rep's statistics: atom a has counts[a] draws, ones[a] ~ Binomial(counts[a], success[a]).

    The statistics see the outcomes only through the ones, so this is their exact law.
    """
    return state(counts, rng.binomial(counts, success))


def _atom_statistics(P, m):
    """state(counts, ones): the statistics of counts[a] draws at atom P[a], ones[a] of them y = 1.

    The atoms are Bernoulli p-vectors.  Each atom's Gram G (k, d, d) and its
    responses R0, R1 (k, d) at y = 0 and y = 1 are integrated against m
    once, the k Grams in one call and the 2k responses in another; a state
    is then the count-weighted sums U_n = counts.G and u_n = (counts -
    ones).R0 + ones.R1.  A caller whose counts are fixed passes their U_n
    once built, as U.
    """
    k, d = P.shape
    basis = BernoulliBasis(d)
    G = gram_matrix_of_context(basis, P, m).reshape(k, d * d)
    R0, R1 = response_vector_of_sample(basis, np.vstack([P, P]), np.repeat([0.0, 1.0], k),
                                       m).reshape(2, k, d)

    def state(counts, ones, U=None) -> GramState:
        if U is None:
            U = (counts @ G).reshape(d, d)
            U = 0.5 * (U + U.T)
        return GramState(d, m, int(counts.sum()), U, (counts - ones) @ R0 + ones @ R1)

    return state


def _polynomial_rep(r, m, X, ys) -> GramState:
    """Statistics of polynomial-design samples (x_j, y_j), integrated exactly against m, uniform
    on [0, 2].  Phi_a(x, t) = (x t)^r_a on [0, v = 1/x] and 1 above; with c = min(2x, 1),
    s = clip(x y, 0, c) and e_ab = r_a + r_b + 1, a sample adds U_ab = (v c^e_ab / e_ab
    + (2 - v)_+) / 2 and u_a = (v (c^(r_a+1) - s^(r_a+1)) / (r_a+1) + (2 - max(v, y))_+) / 2."""
    if not np.isfinite(ys).all():
        raise ValueError("outcome y must be finite")
    v, c = 1.0 / X, np.minimum(2.0 * X, 1.0)
    C, vc = c[:, None] ** r, v * c  # c^r_a, which is 1 for every x >= 1/2
    U = (C.T * vc) @ C / (r[:, None] + r + 1.0) + np.maximum(2.0 - v, 0.0).sum()
    u = ((vc @ C - v @ np.clip(X * ys, 0.0, c)[:, None] ** (r + 1.0)) / (r + 1.0)
         + np.maximum(2.0 - np.maximum(v, ys), 0.0).sum())
    return GramState(r.size, m, ys.size, 0.25 * (U + U.T), 0.5 * u)  # (U + U^T)/2, halved


def _polynomial_sigma_1(r, x_lo, x_hi):
    """Sigma_1 = E U(x), x uniform on [x_lo, x_hi], of _polynomial_rep's U(x): v c^e is
    2^e x^(e-1) below x = 1/2, and v = 1/x and (2 - v)_+ = 2 - 1/x above it.  b, 1/2 held
    in [x_lo, x_hi], splits the range there."""
    e, b = r[:, None] + r + 1.0, min(max(x_lo, 0.5), x_hi)
    L = math.log(x_hi / b)
    S = (((2 * b) ** e - (2 * x_lo) ** e) / e + L) / e + 2 * (x_hi - b) - L
    return S / (2 * (x_hi - x_lo))


@functools.lru_cache(maxsize=4)
def _hard_statistics(d: int, k: int, c: float):
    """_atom_statistics of the first k distinct hard rows: one build serves every n >= 2d."""
    return _atom_statistics(hard_instance_matrix(d, k, c)[0], _UNIT_INTERVAL)


def bernoulli_ks_sup(theta_hat, theta_star, d: int):
    """Sup KS distance over the evaluation family of Bernoulli contexts.

    The family mirrors the hard-instance pattern: parameters 1-eps with one
    cyclically perturbed coordinate 1-2*eps, eps ranging over
    [1/(2 d^2), 1/d^2].  An (r, d) stack of theta_hat gives (r,) sups, one per row.
    """
    D = (np.asarray(theta_hat, dtype=float) - np.asarray(theta_star, dtype=float)).reshape(-1, d)
    # q(eps, j) = eps * (1 + e_j); KS on [0,1) is |delta^T q|, largest at eps = 1/d^2.
    base = np.sum(D, axis=1)
    step_sup = (1.0 / (d * d)) * np.abs(base[:, None] + D).max(axis=1)  # over j
    # At t >= 1 both CDFs equal sum(theta); include that gap for improper theta_hat.
    sup = np.maximum(step_sup, np.abs(base))
    return float(sup[0]) if np.ndim(theta_hat) == 1 else sup


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

# Statistical and numerical errors: a sweep's failure row or real's failed seed, not a crash.
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


def _atom_fields(spec, d):
    """A bernoulli_atoms spec's atoms (k, d), probs and outcome measure, checked.

    probs is clipped at 0: check_simplex lets an entry sit 1e-9 below it,
    which rng.multinomial rejects.
    """
    try:
        P_atoms = np.asarray(spec.get("atoms"), dtype=float)
    except ValueError:  # ragged rows
        P_atoms = np.empty(0)
    if P_atoms.shape[1:] != (d,) or not np.all((P_atoms >= 0) & (P_atoms <= 1)):
        raise ValueError(f"basis.atoms must be a (k, {d}) array of probabilities in [0, 1]")
    probs = np.asarray(spec.get("probs"), dtype=float)
    if probs.shape != (len(P_atoms),):
        raise ValueError(f"basis.probs must have {len(P_atoms)} entries, one per atom")
    try:
        check_simplex(probs)
    except ValueError as exc:
        raise ValueError(f"basis.probs: {exc}") from None
    m = msr.measure_from_spec(spec["measure"]) if "measure" in spec else _UNIT_INTERVAL
    return P_atoms, np.clip(probs, 0.0, None), m


# The basis fields each design reads.  d is the n_grid sweep's, which run_scaling_experiment
# checks, and run_coverage_experiment leaves p_e to mismatch mode.
_BASIS_FIELDS = {"bernoulli_hard": {"kind", "d", "c", "p_e"},
                 "bernoulli_atoms": {"kind", "atoms", "probs", "measure"},
                 "polynomial": {"kind", "d", "x_lo", "x_hi"}}


def _design(config, mode, d, n, theta_star):
    """(draw, Sigma_n, ks_fn, extra), what every rep of grid point (d, n) shares.

    draw(rng) gives one rep's GramState.  The two Bernoulli designs are one
    model: atoms P, their per-atom statistics (_atom_statistics) and a law
    for each atom's count.  The hard design's atoms and counts are fixed
    (hard_instance_matrix), so its U_n is the same in every rep and is its
    Sigma_n; the atom design's counts are Multinomial(n, probs), and its
    Sigma_n is U_n at the expected counts.  A rep draws its counts, then its
    ones from their exact law (_bernoulli_rep).  A polynomial rep integrates
    its samples' statistics exactly, and so does its Sigma_n.  ks_fn is None
    on the atom design, which no sweep runs.  Only mode "mismatch" changes
    the design: its outcomes mix in phi_e, and extra holds E_n_norm.  A
    basis field that the design does not read is a config error.
    """
    spec = config.get("basis", {"kind": "bernoulli_hard"})
    kind = spec["kind"]
    if kind not in _BASIS_FIELDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    unread = sorted(set(spec) - _BASIS_FIELDS[kind])
    if unread:
        raise ValueError(f"basis.{unread[0]}: the {kind} design does not read it")
    if mode == "mismatch" and kind != "bernoulli_hard":
        raise ValueError("mismatch mode uses the bernoulli_hard design")
    if kind in ("bernoulli_hard", "bernoulli_atoms"):
        if kind == "bernoulli_hard":
            c = float(spec.get("c", 1.0))
            P, expected = hard_instance_matrix(d, n, c)
            state = _hard_statistics(d, len(P), c)
            counts = lambda rng: expected
            ks_fn = lambda th: bernoulli_ks_sup(project_simplex(th), theta_star, d)
        else:
            P, probs, m = _atom_fields(spec, d)
            state = _atom_statistics(P, m)
            expected = n * probs
            pvals = probs / probs.sum()  # rng.multinomial needs sum(pvals[:-1]) <= 1 + 1e-12
            counts = lambda rng: rng.multinomial(n, pvals)
            ks_fn = None
        success = P @ theta_star  # P(y = 1) at each atom
        Sigma_n = state(expected, 0 * expected).U
        if kind == "bernoulli_hard":  # fixed counts: every rep's U_n is Sigma_n
            state = functools.partial(state, U=Sigma_n)
        extra = {}
        if mode == "mismatch":
            # Outcomes from (1-q) theta*^T Phi + q phi_e, phi_e the Bernoulli(p_e) CDF.
            q, p_e = float(config["q"]), float(spec["p_e"])
            success = (1.0 - q) * success + q * p_e
            # E_n = sum_j q integral (phi_e - theta*^T Phi_j) Phi_j: the u_n of outcomes
            # drawn from phi_e, in expectation, less Sigma_n theta*.
            E_n = q * (state(expected, p_e * expected).u - Sigma_n @ theta_star)
            extra["E_n_norm"] = float(np.linalg.norm(E_n))
        # rng.binomial needs [0, 1], left when theta* sits check_simplex's 1e-9 off the
        # simplex; y = (r < p) for uniform r reads such a p as 0 or 1, so the clip keeps the law.
        success = np.clip(success, 0.0, 1.0)
        return ((lambda rng: _bernoulli_rep(state, counts(rng), success, rng)), Sigma_n,
                ks_fn, extra)
    x_lo, x_hi = float(spec.get("x_lo", 0.5)), float(spec.get("x_hi", 2.0))
    if not 0.0 < x_lo < x_hi < math.inf:
        raise ValueError(f"basis.x_lo must lie in (0, basis.x_hi); got x_lo={x_lo}, x_hi={x_hi}")
    basis = PolynomialBasis(d)
    m = msr.make_uniform_measure(0.0, 2.0)  # the outcome law, which the states integrate exactly
    contexts = uniform_contexts(x_lo, x_hi)

    def draw(rng) -> GramState:
        X, ys = sample_scheme2(basis, contexts, theta_star, n, int(rng.integers(2 ** 62)))
        return _polynomial_rep(basis.exponents, m, X, ys)

    Sigma_n = n * _polynomial_sigma_1(basis.exponents, x_lo, x_hi)
    grid = bounds.ks_grid(0.0, 2.0, jump_points=[1.0 / x for x in (x_lo, 1.0, x_hi)])

    def ks_fn(th):  # th an (r, d) stack; (r, 1, d) @ (d, K) has the bits of each row's v @ M
        proj = project_simplex(th)[:, None, :]
        gap = lambda M: (proj @ M)[:, 0] - theta_star @ M  # the rows' CDFs less theta*'s
        return np.max([bounds.ks_distance(lambda ts: gap(basis.eval_nodes(x, ts)), lambda ts: 0.0,
                                          grid) for x in (x_lo, 1.0, x_hi)], axis=0)

    return draw, Sigma_n, ks_fn, {}


def _metrics(names, n, delta, theta_star, Sigma_n, ks_fn) -> dict:
    """{name: score(stack, lam, thetas)} of the named metrics, in METRICS order."""
    d, tnorm = theta_star.size, float(np.linalg.norm(theta_star))
    every = {
        # each row's own dot product: np.linalg.norm(v)'s bits, which norm(v, axis=1) misses
        "l2": lambda stack, lam, th: np.sqrt(((th - theta_star)[:, None, :]
                                              @ (th - theta_star)[:, :, None])[:, 0, 0]),
        "self_norm": lambda stack, lam, th: bounds.weighted_norm(
            th - theta_star, regularized_gram(stack, lam)),
        "sigma_norm": lambda stack, lam, th: bounds.weighted_norm(th - theta_star, Sigma_n),
        "ks": lambda stack, lam, th: ks_fn(th),
        "eps_lambda": lambda stack, lam, th: np.full(
            len(th), bounds.epsilon_lambda(n, d, delta, lam, tnorm)),
        "mu_min_U": lambda stack, lam, th: bounds.min_eigenvalue(stack.U),
    }
    return {name: every[name] for name in METRICS if name in names}


def _scaling_rep_state(draw, seed, d, n, rep) -> GramState:
    """One rep's statistics at grid point (d, n), drawn from the rep's own stream."""
    return draw(stream_rng(seed, 0xD0, d, n, rep))


def _attempt(fn, *args):
    """fn(*args), or the failure it raises, to be raised or recorded where it is used."""
    try:
        return fn(*args)
    except _FAILURES as exc:
        return exc


def _stack(states) -> GramState:
    """One state whose U and u stack the given states' (r, d, d) and (r, d)."""
    return GramState(states[0].d, states[0].measure, states[0].n,
                     np.stack([s.U for s in states]), np.stack([s.u for s in states]))


def _ridge(stack, lam):
    """The (r, d) estimates of a stacked state and no values: the ridge solver of every driver."""
    return ridge_estimate(stack, lam), {}


def _penalized(delta_nU):
    """Solver of the penalized estimates at penalty delta_nU.

    Each row's "dominated" value says whether its objective is at most that
    of its near-unregularized ridge fit, from the same stack.
    """
    def solve(stack, lam):
        thetas = penalized_estimate(stack, lam, delta_nU)
        obj = lambda th: (np.linalg.norm(np.einsum("rij,rj->ri", stack.U, th) - stack.u, axis=1)
                          + delta_nU * np.linalg.norm(th, axis=1))
        dominated = obj(thetas) <= obj(ridge_estimate(stack, 1e-8)) + 1e-7
        return thetas, {"dominated": 1.0 * dominated}

    return solve


def _point(draw_rep, reps, solve, lambdas, metrics) -> list:
    """Each rep's [(lambda, {name: value})], or the failure that stopped the rep.

    draw_rep(rep) gives a rep's GramState; solve(stack, lam) gives a stacked
    state's (r, d) estimates and {name: (r,) values}, and each metric's
    score(stack, lam, thetas) its (r,) values.  Each lambda's live reps are one
    stacked solve and one call per metric, row for row each rep's own; if that
    fails, each rep is solved and scored alone, so that only a bad rep stops.
    """
    def step(stack, lam) -> list:  # each row's (lam, {name: value})
        thetas, cols = solve(stack, lam)
        cols.update((name, score(stack, lam, thetas)) for name, score in metrics.items())
        cols = {name: col.tolist() for name, col in cols.items()}
        return [(lam, {name: col[i] for name, col in cols.items()}) for i in range(len(thetas))]

    states = [_attempt(draw_rep, rep) for rep in range(reps)]
    results = [s if isinstance(s, Exception) else [] for s in states]
    for lam in lambdas:
        live = [rep for rep in range(reps) if not isinstance(results[rep], Exception)]
        try:
            rows = step(_stack([states[rep] for rep in live]), lam) if live else []
        except _FAILURES:  # each rep alone, so that only a bad rep fails
            rows = [_attempt(lambda s: step(_stack([s]), lam)[0], states[rep]) for rep in live]
        for rep, row in zip(live, rows):
            results[rep] = row if isinstance(row, Exception) else results[rep] + [row]
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


def run_scaling_experiment(config) -> tuple[list, list]:
    """Run the replicated sweep; returns (records, aggregate_rows).

    Each grid point (d, n) is one _point call on its design, and every design
    is built before any rep runs: a design that fails is a config error and
    fails the run.  Each rep draws its statistics from its own Philox stream,
    and each lambda's ridge estimates of all reps are one stacked solve and
    score.  A rep whose draw, solve or score fails gets one failure row.
    """
    exp_id = config.get("experiment_id", "scaling")
    seed = int(config.get("seed", 0))
    reps = int(config["reps"])
    if reps < 1:
        raise ValueError("reps must be >= 1")
    scheme = "Fixed" if config["basis"]["kind"] == "bernoulli_hard" else "Random"
    # Each sweep reads one of n and basis.d beside its grid; the other is a config error.
    if "n_grid" in config:
        if "n" in config:
            raise ValueError("n: an n_grid sweep takes its n from n_grid")
        points = [(int(config["basis"]["d"]), int(n)) for n in config["n_grid"]]
    else:
        if "d" in config["basis"]:
            raise ValueError("basis.d: a d_grid sweep takes its d from d_grid")
        points = [(int(d), int(config["n"])) for d in config["d_grid"]]
    lambdas = [float(l) for l in config["lambdas"]]
    delta = float(config.get("delta", 0.1))
    metrics = config.get("metrics", ["l2", "self_norm", "ks", "eps_lambda"])

    # Every design is built before any rep runs, so that a bad config value fails the run.
    designs = []
    for d, n in points:
        theta_star = _theta_star(config, d)
        draw, Sigma_n, ks_fn, _ = _design(config, "self", d, n, theta_star)
        designs.append((draw, _metrics(metrics, n, delta, theta_star, Sigma_n, ks_fn)))

    records, groups = [], {}
    for (d, n), (draw, scores) in zip(points, designs):
        point = _point(lambda rep: _scaling_rep_state(draw, seed, d, n, rep), reps, _ridge,
                       lambdas, scores)
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
    for field, given in (("q", "q" in config), ("basis.p_e", "p_e" in config.get("basis", {}))):
        if mode == "mismatch" and not given:  # checked here, before any rep runs
            raise ValueError(f"mismatch mode needs {field}")
        if mode != "mismatch" and given:
            raise ValueError(f"{field}: only mismatch mode reads it")
    if mode == "penalized" and "lambda" in config:
        raise ValueError("lambda: penalized mode takes no lambda; its penalty comes from delta")
    seed = int(config.get("seed", 0))
    d, n = int(config["d"]), int(config["n"])
    theta_star = _theta_star(config, d)  # a bad theta_star fails here, before any rep runs
    metric = _MODE_METRIC[mode]
    draw, Sigma_n, ks_fn, extra = _design(config, mode, d, n, theta_star)
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
    for result in results:
        if isinstance(result, Exception):
            raise result
    values = [{**extra, **result[0][1]} for result in results]
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
