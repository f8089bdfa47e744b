import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.linalg import LinAlgError
from scipy.optimize import minimize

from cdfreg import measure as msr
from cdfreg.basis import BernoulliBasis
from cdfreg.errors import SingularGram
from cdfreg.estimators import (EmpiricalCdf, delta_nU_default,
                               fit_mle_simplex, hilbert_estimate,
                               penalized_estimate, project_simplex, ridge_estimate,
                               unregularized_estimate)
from cdfreg.gram import GramState, accumulate, regularized_gram

UNIT = msr.make_uniform_measure(0.0, 1.0, 64)


def bernoulli_state(samples, d):
    s = GramState(d, UNIT)
    b = BernoulliBasis(d)
    for p, y in samples:
        s = accumulate(s, b, p, y)
    return s


def test_ridge_two_dim_hand_solve():
    s = bernoulli_state([([0.5, 0.75], 0.0)], 2)
    theta = ridge_estimate(s, 1.0)
    # q=[0.5,0.25] is an eigenvector of U+I with eigenvalue 1.3125
    assert np.allclose(theta, np.array([0.5, 0.25]) / 1.3125, atol=1e-10)
    assert theta[0] == pytest.approx(0.380952, abs=1e-6)
    assert theta[1] == pytest.approx(0.190476, abs=1e-6)


def test_ridge_zero_rhs():
    s = bernoulli_state([([0.5, 0.75], 1.0)], 2)
    assert np.allclose(ridge_estimate(s, 1.0), 0.0)


def test_ridge_large_lambda_limit():
    s = bernoulli_state([([0.5, 0.75], 0.0)], 2)
    theta = ridge_estimate(s, 1e12)
    assert np.allclose(theta, s.u / 1e12, rtol=1e-6)


def test_ridge_rejects_nonpositive_lambda():
    s = bernoulli_state([([0.5, 0.75], 0.0)], 2)
    with pytest.raises(ValueError):
        ridge_estimate(s, 0.0)


def test_ridge_scale_invariance():
    s = bernoulli_state([([0.5, 0.75], 0.0), ([0.2, 0.9], 0.3)], 2)
    c = 3.7
    scaled = GramState(2, UNIT, s.n, c * s.U, c * s.u)
    assert np.allclose(ridge_estimate(scaled, c * 0.1), ridge_estimate(s, 0.1),
                       atol=1e-12)


def test_unregularized_scalar():
    s = bernoulli_state([([0.5], 0.0)], 1)
    assert unregularized_estimate(s)[0] == pytest.approx(2.0, abs=1e-12)


def test_unregularized_recovers_noiseless_theta():
    rng = np.random.default_rng(5)
    d = 3
    theta_star = project_simplex(rng.random(d))
    U = np.zeros((d, d))
    b = BernoulliBasis(d)
    from cdfreg.gram import gram_matrix_of_context
    for _ in range(6):
        U += gram_matrix_of_context(b, [rng.uniform(0.1, 0.9, d)], UNIT)[0]
    s = GramState(d, UNIT, 6, U, U @ theta_star)
    assert np.allclose(unregularized_estimate(s), theta_star, atol=1e-8)


def test_unregularized_singular():
    with pytest.raises(SingularGram):
        unregularized_estimate(GramState(2, UNIT))


def test_project_simplex_cases():
    assert np.allclose(project_simplex([0.2, 0.8]), [0.2, 0.8])
    assert np.allclose(project_simplex([0.6, 0.6]), [0.5, 0.5])
    assert np.allclose(project_simplex([2.0, -1.0]), [1.0, 0.0])
    out = project_simplex(np.random.default_rng(0).normal(size=7))
    assert out.sum() == pytest.approx(1.0, abs=0.0)
    assert out.min() >= 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
def test_project_simplex_lands_on_simplex_and_is_idempotent(v):
    out = project_simplex(v)
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(project_simplex(out), out, rtol=0.0, atol=1e-12)


def test_delta_nU_default_values():
    assert delta_nU_default(1, 1, 1 / math.e) == pytest.approx(math.sqrt(8.0),
                                                               abs=1e-12)
    assert delta_nU_default(4, 1, 1 / math.e) == pytest.approx(2 * math.sqrt(8.0),
                                                               abs=1e-12)
    assert delta_nU_default(100, 3, 0.1) > delta_nU_default(100, 2, 0.1)
    assert delta_nU_default(200, 3, 0.1) > delta_nU_default(100, 3, 0.1)
    assert delta_nU_default(100, 3, 0.05) > delta_nU_default(100, 3, 0.1)
    with pytest.raises(ValueError):
        delta_nU_default(1, 1, 1.5)


def test_penalized_zero_cases():
    s = bernoulli_state([([0.5, 0.75], 1.0)], 2)  # u = 0
    assert np.allclose(penalized_estimate(s, 0.0, 1.0), 0.0)
    s2 = bernoulli_state([([0.5, 0.75], 0.0)], 2)
    A = s2.U
    huge = np.linalg.norm(A.T @ s2.u) / np.linalg.norm(s2.u) * 2.0
    assert np.allclose(penalized_estimate(s2, 0.0, huge), 0.0)


def test_penalized_rows_closing_at_mu_zero_on_a_zero_eigenvalue():
    """U = diag(0, a), u = (0, 1), lambda = 0: each row's bracket closes at the smallest
    positive mu, the a = 1 row some 660 rounds before the a = 1e100 row, and no round
    scores the closed row at mu = 0, where w = 0 / 0."""
    Us, u = [np.diag([0.0, 1.0]), np.diag([0.0, 1e100])], np.array([0.0, 1.0])
    stacked = penalized_estimate(GramState(2, UNIT, 1, np.stack(Us), np.stack([u, u])),
                                 0.0, 0.5)
    for U, row in zip(Us, stacked):
        assert row.tobytes() == penalized_estimate(GramState(2, UNIT, 1, U, u), 0.0,
                                                   0.5).tobytes()
    assert np.array_equal(stacked[0], [0.0, 1.0])


def test_penalized_small_delta_limit():
    rng = np.random.default_rng(2)
    s = bernoulli_state([(rng.uniform(0.1, 0.9, 2), float(rng.integers(0, 2)))
                         for _ in range(20)], 2)
    lam = 0.5
    target = ridge_estimate(s, lam)
    got = penalized_estimate(s, lam, 1e-10)
    assert np.allclose(got, target, atol=1e-5)


def test_penalized_objective_dominance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = bernoulli_state([(rng.uniform(0.1, 0.9, 3), float(rng.integers(0, 2)))
                             for _ in range(15)], 3)
        delta = float(rng.uniform(0.1, 5.0))
        lam = float(rng.uniform(0.0, 1.0))
        theta = penalized_estimate(s, lam, delta)
        A = s.U + lam * np.eye(3)
        f = lambda th: (np.linalg.norm(A @ th - s.u)
                        + delta * np.linalg.norm(th))
        ridge = ridge_estimate(s, max(lam, 1e-8))
        assert f(theta) <= f(ridge) + 1e-7
        assert f(theta) <= f(np.zeros(3)) + 1e-12


@pytest.mark.parametrize("d", range(1, 6))
def test_penalized_is_exact_minimizer(d):
    """A Nelder-Mead polish from the returned point finds nothing lower,
    including for rank-deficient U at lambda = 0."""
    rng = np.random.default_rng(40 + d)
    for trial in range(20):
        singular = d > 1 and trial % 3 == 0
        rank = int(rng.integers(1, d)) if singular else d
        B = rng.normal(size=(d, rank))
        U = B @ B.T
        lam = 0.0 if singular or trial % 3 == 1 else float(rng.uniform(0.0, 1.0))
        s = GramState(d, UNIT, 1, U, rng.normal(size=d))
        A = U + lam * np.eye(d)
        # Around the level above which zero is optimal.
        delta = float(rng.uniform(0.02, 1.2)) * np.linalg.norm(A @ s.u) / np.linalg.norm(s.u)
        f = lambda th: np.linalg.norm(A @ th - s.u) + delta * np.linalg.norm(th)
        theta = penalized_estimate(s, lam, delta)
        polish = minimize(f, theta, method="Nelder-Mead",
                          options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000})
        assert f(theta) <= polish.fun * (1 + 1e-12), (trial, f(theta), polish.fun)


_ROW_KINDS = ("ordinary", "zero_u", "zero_optimal", "rank_deficient")


@settings(max_examples=150, deadline=None)
@given(d=st.integers(2, 5), kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=8),
       lam=st.one_of(st.just(0.0), st.floats(0.01, 0.2)), delta=st.floats(1.0, 3.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_penalized_stack_equals_per_state_calls(d, kinds, lam, delta, seed):
    """Each row of a stacked solve is the solve of its own state, for rows whose
    minimizer is zero (u = 0, or ||A u|| <= delta ||u||) and for rank-deficient U."""
    rng = np.random.default_rng(seed)
    Us, us = [], []
    for kind in kinds:
        rank = int(rng.integers(1, d)) if kind == "rank_deficient" else d
        B = rng.normal(size=(d, rank))
        U, u = B @ B.T, rng.normal(size=d)
        # ||U u|| / ||u|| at a chosen multiple of delta; lam <= 0.2 <= delta / 5 moves it
        # by at most lam, so zero is optimal for "zero_optimal" rows and no other.
        ratio = 0.25 if kind == "zero_optimal" else float(rng.uniform(1.5, 20.0))
        U *= ratio * delta * np.linalg.norm(u) / np.linalg.norm(U @ u)
        Us.append(U)
        us.append(np.zeros(d) if kind == "zero_u" else u)
    stacked = penalized_estimate(GramState(d, UNIT, 1, np.stack(Us), np.stack(us)), lam, delta)
    assert stacked.shape == (len(kinds), d)
    for kind, U, u, row in zip(kinds, Us, us, stacked):
        single = penalized_estimate(GramState(d, UNIT, 1, U, u), lam, delta)
        assert single.shape == (d,)
        assert np.linalg.norm(row - single) <= 1e-14 * np.linalg.norm(single)
        assert (not np.any(single)) == (kind in ("zero_u", "zero_optimal"))


def test_ridge_stack_equals_per_state_calls():
    """Each row of a stacked ridge solve is bit for bit its own state's solve.

    A system that Cholesky rejects (A = diag(1 + lam, -1e-14)) raises
    LinAlgError, alone and inside a stack: it is never perturbed until it factors.
    """
    rng = np.random.default_rng(5)
    lam, d = 1e-8, 2
    B = rng.normal(size=(3, d, d))
    Us = [B[0] @ B[0].T, B[2] @ B[2].T]
    us = [rng.normal(size=d), rng.normal(size=d)]
    stacked = ridge_estimate(GramState(d, UNIT, 1, np.stack(Us), np.stack(us)), lam)
    assert stacked.shape == (2, d)
    for U, u, row in zip(Us, us, stacked):
        assert row.tobytes() == ridge_estimate(GramState(d, UNIT, 1, U, u), lam).tobytes()
    bad_U, bad_u = np.diag([1.0, -lam - 1e-14]), np.array([1.0, 0.0])
    with pytest.raises(LinAlgError, match="not positive definite"):
        ridge_estimate(GramState(d, UNIT, 1, bad_U, bad_u), lam)
    with pytest.raises(LinAlgError, match="not positive definite"):
        ridge_estimate(GramState(d, UNIT, 1, np.stack([Us[0], bad_U, Us[1]]),
                                 np.stack([us[0], bad_u, us[1]])), lam)


@pytest.mark.parametrize("d", [1, 3, 6])
def test_ridge_lambda_vector_equals_one_lambda_calls(d):
    """One state solved at an (r,) array of lambdas gives, row by row, the bits of its
    one-lambda solves, and regularized_gram the bits of each U + lambda I."""
    rng = np.random.default_rng(d)
    B = rng.normal(size=(d, d + 2))
    state = GramState(d, UNIT, 1, B @ B.T, rng.normal(size=d))
    lams = np.array([1e-8, 1e-3, 0.1, 1.0, 7.5])
    stacked, grams = ridge_estimate(state, lams), regularized_gram(state, lams)
    assert stacked.shape == (lams.size, d) and grams.shape == (lams.size, d, d)
    for lam, row, A in zip(lams.tolist(), stacked, grams):
        assert row.tobytes() == ridge_estimate(state, lam).tobytes()
        assert A.tobytes() == regularized_gram(state, lam).tobytes()
    assert regularized_gram(state, np.array([0.0, 1.0]))[0].tobytes() == state.U.tobytes()
    for bad in ([0.1, 0.0], [-1e-3, 0.1]):  # a non-positive entry fails the whole solve
        with pytest.raises(ValueError, match="lambda must be positive"):
            ridge_estimate(state, np.array(bad))
    with pytest.raises(ValueError, match="lambda must be non-negative"):
        regularized_gram(state, np.array([0.1, -1e-3]))


def test_hilbert_scalar():
    out = hilbert_estimate(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
    assert out[0] == pytest.approx(0.5, abs=1e-14)


def test_hilbert_zero_data():
    out = hilbert_estimate(np.eye(3), np.zeros(3), np.ones(3))
    assert np.allclose(out, 0.0)


def test_hilbert_ridge_reduction():
    rng = np.random.default_rng(11)
    lam = 0.3
    for _ in range(20):
        d = int(rng.integers(2, 6))
        M = rng.normal(size=(d, d))
        U = M @ M.T
        u = rng.normal(size=d)
        got = hilbert_estimate(U, u, np.full(d, 1.0 / math.sqrt(lam)))
        expect = np.linalg.solve(U + lam * np.eye(d), u)
        assert np.max(np.abs(got - expect)) < 1e-10


def test_hilbert_estimate_rejects_a_zero_or_misfit_sigma():
    with pytest.raises(ValueError, match="nonzero"):
        hilbert_estimate(np.eye(2), np.ones(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="length"):
        hilbert_estimate(np.eye(2), np.ones(2), np.ones(3))


def test_ecdf():
    F = EmpiricalCdf([1.0, 2.0, 3.0])
    assert F(2.0) == pytest.approx(2.0 / 3.0)
    assert F(0.5) == 0.0
    assert F(3.0) == 1.0
    with pytest.raises(ValueError):
        EmpiricalCdf([])


def test_mle_singleton():
    b = BernoulliBasis(1)
    assert np.allclose(fit_mle_simplex([([0.5], 0.0)], b), [1.0])


def test_mle_identical_pmfs_flat_objective():
    b = BernoulliBasis(2)
    samples = [([0.5, 0.5], float(y)) for y in (0, 1, 0, 1, 1)]
    theta = fit_mle_simplex(samples, b)
    rho = np.array([b.pmf_vector(x, y) for x, y in samples])
    ll = np.sum(np.log(rho @ theta))
    ll_onehot = np.sum(np.log(rho @ np.array([1.0, 0.0])))
    assert ll == pytest.approx(ll_onehot, abs=1e-8)


def test_mle_separating_bases():
    b = BernoulliBasis(2)
    samples = [([0.0, 1.0], 1.0)] * 30
    theta = fit_mle_simplex(samples, b)
    assert theta[1] == pytest.approx(1.0, abs=1e-6)


def _mle_one_projection_each(samples, basis):
    """fit_mle_simplex's ascent with one projection per candidate and one for the KKT check."""
    rho = basis.pmf_vector([x for x, _ in samples], np.array([y for _, y in samples]))
    negloglik = lambda th: -float(np.sum(np.log(rho @ th))) if np.all(rho @ th > 0) else np.inf
    theta = np.full(basis.d, 1.0 / basis.d)
    fval, step = negloglik(theta), 1.0 / len(samples)
    for _ in range(2000):
        grad = -(rho / (rho @ theta)[:, None]).sum(axis=0)
        s = step
        while s > 1e-16:
            cand = project_simplex(theta - s * grad)
            fc = negloglik(cand)
            if fc <= fval - 1e-12:
                break
            s *= 0.5
        if np.linalg.norm(theta - project_simplex(theta - grad / len(samples))) <= 1e-8:
            break
        if s <= 1e-16:
            break
        theta, fval = cand, fc
    return theta


@pytest.mark.parametrize("seed", range(6))
def test_mle_stacked_projections_keep_the_iterates(seed):
    """Projecting the first candidate and the KKT point as one stack gives the
    estimate of one projection each, bit for bit."""
    rng = np.random.default_rng(seed)
    d, n = 2 + seed % 3, 20 + 10 * seed
    b = BernoulliBasis(d)
    samples = [(x, float(rng.random() < x.mean())) for x in rng.random((n, d))]
    assert fit_mle_simplex(samples, b).tobytes() == _mle_one_projection_each(samples, b).tobytes()


def test_mle_degenerate_likelihood():
    b = BernoulliBasis(2)
    with pytest.raises(ValueError):
        fit_mle_simplex([([0.0, 0.0], 1.0)], b)


def test_project_simplex_keeps_the_unit_mass_of_huge_inputs():
    # Summing 1e17 and -1 loses the 1 of the simplex unless v is shifted first.
    assert np.array_equal(project_simplex([1e17, 0.0]), [1.0, 0.0])
    assert np.array_equal(project_simplex([1e16, 1e16]), [0.5, 0.5])
    assert np.array_equal(project_simplex([-1e300, 1e300, 0.0]), [0.0, 1.0, 0.0])
