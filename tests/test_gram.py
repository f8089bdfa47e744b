import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdfreg import measure as msr
from cdfreg.basis import BernoulliBasis, PolynomialBasis
from cdfreg.gram import (GramState, accumulate, gram_matrix_of_context, regularized_gram,
                         response_vector_of_sample)
from cdfreg.synth import _atom_statistics
from fakes import CustomBasis

UNIT = msr.make_uniform_measure(0.0, 1.0, 64)


def test_bernoulli_gram_closed_form():
    b = BernoulliBasis(2)
    G = gram_matrix_of_context(b, [[0.5, 0.75]], UNIT)[0]
    assert np.allclose(G, [[0.25, 0.125], [0.125, 0.0625]], atol=1e-14)


def test_constant_one_basis_gram():
    b = CustomBasis(1, lambda x, ts: np.ones((1, np.atleast_1d(ts).size)), 0.0, 1.0)
    G = gram_matrix_of_context(b, [None], UNIT)[0]
    assert G[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_polynomial_gram_quadrature():
    b = PolynomialBasis(1)
    G = gram_matrix_of_context(b, [1.0], UNIT)[0]
    assert G[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_bernoulli_fast_path_matches_quadrature():
    # Quadrature on [0, 1] gives the two-point closed form q q^T, q = 1 - p.
    rng = np.random.default_rng(0)
    b = BernoulliBasis(3)
    for _ in range(10):
        p = rng.random(3)
        G = gram_matrix_of_context(b, [p], UNIT)[0]
        assert np.max(np.abs(G - np.outer(1.0 - p, 1.0 - p))) < 1e-14


def test_response_vector_bernoulli():
    b = BernoulliBasis(2)
    assert np.allclose(response_vector_of_sample(b, [0.5, 0.25], 0.0, UNIT),
                       [0.5, 0.75])
    assert np.allclose(response_vector_of_sample(b, [0.5, 0.25], 1.0, UNIT),
                       [0.0, 0.0])


def test_response_vector_below_support():
    b = PolynomialBasis(2)
    full = (b.eval_nodes(1.0, UNIT.nodes) * UNIT.weights).sum(axis=1)
    got = response_vector_of_sample(b, 1.0, -5.0, UNIT)
    assert np.allclose(got, full, atol=1e-12)


def test_response_vector_rejects_nonfinite_y():
    b = BernoulliBasis(1)
    with pytest.raises(ValueError):
        response_vector_of_sample(b, [0.5], float("nan"), UNIT)


def test_accumulate_counts_and_linearity():
    b = BernoulliBasis(2)
    s = GramState(2, UNIT)
    s = accumulate(s, b, [0.5, 0.75], 0.0)
    assert s.n == 1
    s = accumulate(s, b, [0.5, 0.75], 0.0)
    q = np.array([0.5, 0.25])
    assert np.allclose(s.U, 2 * np.outer(q, q), atol=1e-12)


def test_accumulate_order_independence():
    b = BernoulliBasis(2)
    pairs = [([0.5, 0.75], 0.0), ([0.2, 0.9], 1.0)]
    s1 = GramState(2, UNIT)
    s2 = GramState(2, UNIT)
    for x, y in pairs:
        s1 = accumulate(s1, b, x, y)
    for x, y in reversed(pairs):
        s2 = accumulate(s2, b, x, y)
    assert np.allclose(s1.U, s2.U, atol=1e-12)
    assert np.allclose(s1.u, s2.u, atol=1e-12)


def test_accumulate_dimension_mismatch():
    with pytest.raises(ValueError):
        accumulate(GramState(3, UNIT), BernoulliBasis(2), [0.5, 0.5], 0.0)


def test_gram_invariants_random_sequences():
    rng = np.random.default_rng(3)
    b = BernoulliBasis(3)
    s = GramState(3, UNIT)
    prev_mu = 0.0
    for _ in range(20):
        s = accumulate(s, b, rng.random(3), float(rng.integers(0, 2)))
        assert np.max(np.abs(s.U - s.U.T)) < 1e-12
        mu = float(np.linalg.eigvalsh(s.U)[0])
        assert mu >= -1e-10
        assert mu >= prev_mu - 1e-12  # smallest eigenvalue nondecreasing in n
        prev_mu = mu
        assert np.trace(s.U) <= s.n * s.d + 1e-9
        assert np.all(s.u >= -1e-12) and np.all(s.u <= s.n + 1e-12)


def test_regularized_gram():
    s = GramState(3, UNIT)
    assert np.allclose(regularized_gram(s, 2.0), 2.0 * np.eye(3))
    s2 = accumulate(s, BernoulliBasis(3), [0.1, 0.2, 0.3], 0.0)
    assert np.allclose(regularized_gram(s2, 0.0), s2.U)
    with pytest.raises(ValueError):
        regularized_gram(s, -1.0)


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("basis, context", [
    (BernoulliBasis(3), lambda r, n: r.uniform(0.0, 1.0, (n, 3))),
    (PolynomialBasis(3), lambda r, n: r.uniform(0.5, 2.0, n)),
], ids=["bernoulli", "polynomial"])
@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=3, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_three_accumulates_match_one_batch(basis, context, sizes, seed):
    rng = np.random.default_rng(seed)
    X = context(rng, sum(sizes))
    y = rng.uniform(-0.2, 1.2, sum(sizes))
    cuts = np.cumsum(sizes)[:-1]
    s = GramState(basis.d, UNIT)
    for Xk, yk in zip(np.split(X, cuts), np.split(y, cuts)):
        s = accumulate(s, basis, Xk, yk)
    whole = accumulate(GramState(basis.d, UNIT), basis, X, y)
    assert s.n == whole.n == sum(sizes)
    assert _close(s.U, whole.U) and _close(s.u, whole.u)


class _CountingBernoulli(BernoulliBasis):
    def __init__(self, d):
        super().__init__(d)
        self.calls = 0

    def _probs_batch(self, X):
        self.calls += 1
        return super()._probs_batch(X)


@pytest.mark.parametrize("n", [1, 5])
def test_two_point_accumulate_builds_q_once(n):
    basis = _CountingBernoulli(3)
    X = np.random.default_rng(n).random((n, 3))
    ys = (np.arange(n) % 2).astype(float)
    state = accumulate(GramState(3, UNIT), basis, X, ys)
    assert basis.calls == 1
    Q = 1.0 - X
    assert np.allclose(state.U, Q.T @ Q, rtol=1e-14) and np.allclose(state.u, Q.T @ (1.0 - ys))


@st.composite
def _two_point_samples(draw):
    """Bernoulli atoms P (k, d), outcomes y in {0, 1} and integer counts w."""
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 20))
    P = draw(st.lists(st.floats(0.0, 1.0), min_size=n * d, max_size=n * d))
    y = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    w = draw(st.lists(st.integers(0, 10 ** 6), min_size=n, max_size=n))
    return np.reshape(P, (n, d)), np.array(y), np.array(w)


@pytest.mark.parametrize("K", [2, 8, 64])
@settings(max_examples=50, deadline=None)
@given(sample=_two_point_samples())
def test_two_point_statistics_do_not_depend_on_the_rule(K, sample):
    # Two-point CDFs are 1 - p on [0, 1) and 1 from t = 1 on, so every rule
    # with its nodes inside (0, 1) gives U_n = Q^T diag(w) Q, u_n = Q^T (w (1 - y))
    # for w[a] draws at atom a, all with outcome y[a].
    P, y, w = sample
    Q = 1.0 - P
    state = _atom_statistics(P, msr.make_uniform_measure(0.0, 1.0, K))(w, w * y)
    assert state.n == w.sum()
    for got, ref in ((state.U, (Q.T * w) @ Q), (state.u, Q.T @ (w * (1.0 - y)))):
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1e-300)
