"""The batched paths against loops of their single-sample calls.

Gram accumulation sums in a different order when batched, so it is held to
1e-12 relative; sampling, panels, basis evaluation, per-sample responses and
the stacked metrics do the same arithmetic per row and must match bit for bit.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdfreg import measure as msr
from cdfreg.basis import (BernoulliBasis, GaussianLaplaceBasis,
                          LogisticProbitBasis, PolynomialBasis, inverse_cdf_sample)
from cdfreg.bounds import l2_error_crps, min_eigenvalue, weighted_norm
from cdfreg.errors import BracketError
from cdfreg.estimators import project_simplex
from cdfreg.gram import GramState, accumulate, response_vector_of_sample
from cdfreg.synth import bernoulli_ks_sup
from fakes import CustomBasis

_RNG = np.random.default_rng(11)


def _ramp(x, ts):
    """Two CDFs on [0, 1]: a context-scaled ramp and the identity ramp."""
    return np.vstack([np.clip(np.asarray(ts) * x, 0.0, 1.0), np.clip(ts, 0.0, 1.0)])


# name -> (basis, context sampler)
FAMILIES = {
    "bernoulli": (BernoulliBasis(3), lambda r: r.uniform(0.0, 1.0, 3)),
    "polynomial": (PolynomialBasis(4), lambda r: float(r.uniform(0.5, 2.0))),
    "gaussian_laplace": (GaussianLaplaceBasis(0.4, *_RNG.normal(size=(4, 3)),
                                              _RNG.uniform(0.5, 2.0, 3),
                                              _RNG.uniform(0.5, 2.0, 3)),
                         lambda r: r.normal(size=3)),
    "logistic_probit": (LogisticProbitBasis(0.3, *_RNG.normal(size=(4, 2))),
                        lambda r: r.normal(size=2)),
    "custom": (CustomBasis(2, _ramp), lambda r: float(r.uniform(0.5, 2.0))),
}
MEASURES = {
    "unit": msr.make_uniform_measure(0.0, 1.0, 16),
    "uniform": msr.make_uniform_measure(-0.5, 2.0, 24),
    "gaussian": msr.make_gaussian_measure(0.5, 2.0, 20),
    "counting": msr.make_counting_measure([-1.0, 0.0, 0.5, 1.0, 2.5]),
}
# below, on and inside every support above, plus far outside it
OUTCOMES = st.one_of(st.sampled_from([-100.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 2.5, 100.0]),
                     st.floats(-3.0, 4.0))


def _contexts(family, seed, n):
    rng = np.random.default_rng(seed)
    return [FAMILIES[family][1](rng) for _ in range(n)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("measure", MEASURES)
@settings(max_examples=15, deadline=None)
@given(ys=st.lists(OUTCOMES, min_size=1, max_size=150), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_accumulate_matches_loop(family, measure, ys, seed):
    basis, m = FAMILIES[family][0], MEASURES[measure]
    xs = _contexts(family, seed, len(ys))
    start = accumulate(GramState(basis.d, m), basis, xs[0], 0.25)  # batches add to a state
    loop = start
    for x, y in zip(xs, ys):
        loop = accumulate(loop, basis, x, y)
    batch = accumulate(start, basis, xs, np.array(ys))
    assert batch.n == loop.n == len(ys) + 1
    # U and u are sums of non-negative terms, so the bound holds entrywise.
    np.testing.assert_allclose(batch.U, loop.U, rtol=1e-12, atol=0)
    np.testing.assert_allclose(batch.u, loop.u, rtol=1e-12, atol=0)
    assert np.array_equal(batch.U, batch.U.T)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_eval_nodes_rows_equal_single_calls(family, n, k, seed):
    basis = FAMILIES[family][0]
    xs = _contexts(family, seed, n)
    T = np.random.default_rng(seed).uniform(-1.0, 3.0, (n, k))
    batch = basis.eval_nodes(xs, T)
    assert batch.shape == (n, basis.d, k)
    for j in range(n):
        assert np.array_equal(batch[j], basis.eval_nodes(xs[j], T[j]))


def _bounded_ramp(x, ts):
    """A CDF on [-5, 5], wider on both sides than the bisection's first bracket [0, 1]."""
    return (0.5 + 0.1 * np.clip(np.asarray(ts), -5.0, 5.0)).reshape(1, -1)


SAMPLERS = {
    **{name: FAMILIES[name] for name in ("bernoulli", "polynomial", "gaussian_laplace",
                                         "logistic_probit")},
    "custom_atoms": (CustomBasis(2, lambda x, ts: np.vstack([(np.asarray(ts) >= 0) * 0.3
                                                            + (np.asarray(ts) >= 1) * 0.7,
                                                            (np.asarray(ts) >= 1) * 1.0]),
                                 atoms=[0.0, 1.0]),
                     lambda r: None),
    "custom_narrow": (CustomBasis(1, _bounded_ramp), lambda r: None),
}
# Levels near 0 and 1 make the bisection double its bracket [0, 1] outward: the
# Laplace part of the Gaussian-Laplace family leaves more than 1e-300 below 0.
LEVELS = st.one_of(st.sampled_from([1e-300, 1e-20, 0.01, 0.5, 0.9, 0.99, 1.0 - 1e-16]),
                   st.floats(1e-6, 1.0 - 1e-6))


@pytest.mark.parametrize("family", SAMPLERS)
@settings(max_examples=15, deadline=None)
@given(us=st.lists(LEVELS, min_size=1, max_size=60), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_inverse_cdf_matches_scalar_loop(family, us, seed):
    basis, sampler = SAMPLERS[family]
    rng = np.random.default_rng(seed)
    xs = [sampler(rng) for _ in us]
    theta = rng.dirichlet(np.ones(basis.d))
    try:
        loop = np.array([inverse_cdf_sample(theta, basis, x, u) for x, u in zip(xs, us)])
    except BracketError as exc:  # theta^T Phi can top out just below a level near 1
        with pytest.raises(BracketError, match=re.escape(str(exc))):
            inverse_cdf_sample(theta, basis, xs, np.array(us))
        return
    batch = inverse_cdf_sample(theta, basis, xs, np.array(us))
    assert batch.shape == (len(us),)
    assert np.array_equal(batch, loop)
    assert isinstance(inverse_cdf_sample(theta, basis, xs[0], us[0]), float)


@pytest.mark.parametrize("family", {**FAMILIES, **SAMPLERS})
@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_support_and_atoms_equal_stacked_single_calls(family, n, seed):
    """An atom set given once for a batch holds for each of its contexts."""
    basis, sampler = {**FAMILIES, **SAMPLERS}[family]
    rng = np.random.default_rng(seed)
    xs = [sampler(rng) for _ in range(n)]
    atoms, loop = basis.atoms(np.asarray(xs)), [basis.atoms(x) for x in xs]
    if atoms is None:
        assert all(a is None for a in loop)
    else:
        assert np.array_equal(np.broadcast_to(atoms, (n, len(loop[0]))), np.array(loop))


def test_polynomial_batch_equals_scalar_calls_at_the_float_resolution_of_s():
    """At contexts near 1e-6, s = x t is bisected to its float resolution.  d = 3 has the
    exponents 2 and 0.5, for which np.power's result can depend on the array layout."""
    basis, theta = PolynomialBasis(3), np.array([0.193, 0.758, 0.049])
    xs, us = (a.ravel() for a in np.meshgrid(10.0 ** np.linspace(-6.0, -5.0, 30),
                                             np.linspace(0.05, 0.95, 10)))
    batch = inverse_cdf_sample(theta, basis, xs, us)
    assert np.array_equal(batch, [inverse_cdf_sample(theta, basis, x, u) for x, u in zip(xs, us)])


def test_bracket_doubling_is_exercised():
    basis, sampler = SAMPLERS["gaussian_laplace"]
    x = sampler(np.random.default_rng(0))
    theta = np.full(3, 1.0 / 3.0)
    # The bisection starts from [0, 1]: u = 1e-300 must widen it below 0, and by more
    # than one doubling, since the CDF still tops 1e-300 at t = -1.
    assert theta @ basis.eval(x, -1.0) >= 1e-300
    assert inverse_cdf_sample(theta, basis, [x, x], np.array([1e-300, 0.5]))[0] < -1.0
    narrow = SAMPLERS["custom_narrow"][0]
    assert inverse_cdf_sample([1.0], narrow, [None], np.array([0.9]))[0] > 1.0


def test_batch_with_one_unbracketable_draw_raises_like_the_loop():
    capped = CustomBasis(1, lambda x, ts: np.clip(ts, 0.0, 0.5).reshape(1, -1))
    us = [0.3, 0.9, 0.2]
    with pytest.raises(BracketError) as scalar:
        for u in us:
            inverse_cdf_sample([1.0], capped, None, u)
    with pytest.raises(BracketError) as batch:
        inverse_cdf_sample([1.0], capped, [None] * 3, np.array(us))
    assert str(batch.value) == str(scalar.value)
    assert "u=0.9" in str(batch.value)


def test_polynomial_level_above_the_weight_sum_raises_like_the_loop():
    theta = np.array([0.25, 0.25, 0.25, 0.25 - 5e-10])  # on the simplex, to its slack
    us = [0.3, 1.0 - 1e-10, 0.2]
    with pytest.raises(BracketError) as scalar:
        for u in us:
            inverse_cdf_sample(theta, PolynomialBasis(4), 0.7, u)
    with pytest.raises(BracketError) as batch:
        inverse_cdf_sample(theta, PolynomialBasis(4), [0.7] * 3, np.array(us))
    assert str(batch.value) == str(scalar.value)
    assert "u=0.9999999999 " in str(batch.value)


def test_batches_reject_bad_levels_and_unmatched_contexts():
    basis = PolynomialBasis(1)
    with pytest.raises(ValueError, match="open interval"):
        inverse_cdf_sample([1.0], basis, [1.0, 1.0], np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="1 contexts for 2 levels"):
        inverse_cdf_sample([1.0], basis, [1.0], np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="1 contexts for 2 outcomes"):
        accumulate(GramState(1, MEASURES["uniform"]), basis, [1.0], np.array([0.5, 0.6]))


@pytest.mark.parametrize("measure", MEASURES)
@given(ys=st.lists(OUTCOMES, min_size=1, max_size=50))
def test_batched_jump_panel_rows_equal_scalar_panels(measure, ys):
    m = MEASURES[measure]
    ts, ws = msr.jump_panel(np.array(ys), m)
    assert ts.shape == ws.shape and ts.shape[0] == len(ys)
    tails = msr.tail_mass(np.array(ys), m)
    for j, y in enumerate(ys):
        t1, w1 = msr.jump_panel(y, m)
        assert np.array_equal(ts[j], t1) and np.array_equal(ws[j], w1)
        assert np.array_equal(t1, m.nodes)
        assert np.array_equal(w1, np.where(m.nodes >= y, m.weights, 0.0))
        assert tails[j] == msr.tail_mass(y, m) == w1.sum()


def _on_nodes(basis, X, m):
    """Phi(x_j, t_k) at every context and every node of m, (n, d, K)."""
    return basis.eval_nodes(X, np.broadcast_to(m.nodes, (len(X), m.nodes.size)))


@pytest.mark.parametrize("family", ["polynomial", "gaussian_laplace", "logistic_probit"])
@pytest.mark.parametrize("measure", ["uniform", "gaussian", "counting"])
@settings(max_examples=15, deadline=None)
@given(ys=st.lists(OUTCOMES, min_size=1, max_size=60), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_crps_equals_mean_of_single_rows(family, measure, ys, seed):
    basis, m = FAMILIES[family][0], MEASURES[measure]
    theta = np.random.default_rng(seed).dirichlet(np.ones(basis.d))
    F = theta @ _on_nodes(basis, _contexts(family, seed, len(ys)), m)
    per_row = [l2_error_crps(ys[j:j + 1], F[j:j + 1], m) for j in range(len(ys))]
    assert l2_error_crps(ys, F, m) == pytest.approx(np.mean(per_row), rel=1e-12,
                                                    abs=1e-15)


# Every family on every measure: all of them integrate by quadrature.
LOOP_CASES = [(f, m) for f in FAMILIES for m in MEASURES]


@pytest.mark.parametrize("family, measure", LOOP_CASES)
@settings(max_examples=5, deadline=None)
@given(ys=st.lists(OUTCOMES, min_size=1, max_size=12), seed=st.integers(0, 2 ** 32 - 1))
def test_accumulate_equals_sum_over_rows_and_nodes(family, measure, ys, seed):
    basis, m = FAMILIES[family][0], MEASURES[measure]
    xs = _contexts(family, seed, len(ys))
    state = accumulate(GramState(basis.d, m), basis, xs, np.array(ys))
    U, u = np.zeros((basis.d, basis.d)), np.zeros(basis.d)
    for x, y in zip(xs, ys):
        for t, wk in zip(m.nodes, m.weights):
            phi = basis.eval(x, t)
            U += wk * np.outer(phi, phi)
            if y <= t:
                u += wk * phi
    # every term is non-negative, so the bound holds entrywise
    np.testing.assert_allclose(state.U, U, rtol=1e-12, atol=0)
    np.testing.assert_allclose(state.u, u, rtol=1e-12, atol=0)


@pytest.mark.parametrize("family, measure", LOOP_CASES)
@settings(max_examples=5, deadline=None)
@given(ys=st.lists(OUTCOMES, min_size=1, max_size=12), seed=st.integers(0, 2 ** 32 - 1))
def test_crps_equals_sum_over_rows_and_nodes(family, measure, ys, seed):
    basis, m = FAMILIES[family][0], MEASURES[measure]
    xs = _contexts(family, seed, len(ys))
    theta = np.random.default_rng(seed).dirichlet(np.ones(basis.d))
    total = 0.0
    for x, y in zip(xs, ys):
        for t, wk in zip(m.nodes, m.weights):
            total += wk * (float(y <= t) - theta @ basis.eval(x, t)) ** 2
    got = l2_error_crps(ys, theta @ _on_nodes(basis, xs, m), m)
    assert got == pytest.approx(total / len(ys), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("family", ["bernoulli", "logistic_probit"])
@given(ys=st.lists(st.sampled_from([0.0, 1.0, 0.5, -1.0]), min_size=1, max_size=40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_pmf_rows_equal_single_calls(family, ys, seed):
    basis = FAMILIES[family][0]
    xs = _contexts(family, seed, len(ys))
    batch = basis.pmf_vector(xs, np.array(ys))
    assert batch.shape == (len(ys), basis.d)
    for j, (x, y) in enumerate(zip(xs, ys)):
        assert np.array_equal(batch[j], basis.pmf_vector(x, y))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("measure", MEASURES)
@settings(max_examples=10, deadline=None)
@given(ys=st.lists(OUTCOMES, min_size=1, max_size=40), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_response_rows_equal_single_calls(family, measure, ys, seed):
    basis, m = FAMILIES[family][0], MEASURES[measure]
    xs = _contexts(family, seed, len(ys))
    batch = response_vector_of_sample(basis, xs, np.array(ys), m)
    assert batch.shape == (len(ys), basis.d)
    for j, (x, y) in enumerate(zip(xs, ys)):
        assert batch[j].tobytes() == response_vector_of_sample(basis, x, y, m).tobytes()
        # the one-sample sum of accumulate, whose panel product is the same
        assert batch[j].tobytes() == accumulate(GramState(basis.d, m), basis, x, y).u.tobytes()


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _project_one(v):
    """The one-vector simplex projection the stacked form replaced, step for step."""
    v = v - v.max()
    s = np.sort(v)[::-1]
    css = np.cumsum(s) - 1.0
    rho = np.nonzero(s - css / np.arange(1, v.size + 1) > 0)[0][-1]
    out = np.maximum(v - css[rho] / (rho + 1.0), 0.0)
    return out / out.sum()


def _ks_sup_one(theta_hat, theta_star, d):
    """The one-vector bernoulli_ks_sup the stacked form replaced."""
    delta = theta_hat - theta_star
    base = float(np.sum(delta))
    return max(float((1.0 / (d * d)) * np.abs(base + delta).max()), abs(base))


@settings(max_examples=200, deadline=None)
@given(r=st.integers(1, 30), d=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e3]), ties=st.booleans())
def test_stacked_metrics_equal_their_row_by_row_calls(r, d, seed, scale, ties):
    """Row i of each stacked metric has the bits of the metric of row i alone, and
    of the one-vector formula that the metric computed before it took stacks."""
    rng = np.random.default_rng(seed)
    v = scale * rng.normal(size=(r, d))
    if ties:  # repeated entries, as estimates on the simplex's faces have
        v = np.round(v / scale, 1) * scale
    B = rng.normal(size=(r, d, d))
    A = B @ np.swapaxes(B, 1, 2)
    A = 0.5 * (A + np.swapaxes(A, 1, 2))
    theta_star = rng.dirichlet(np.ones(d))
    stacked = {
        "project_simplex": (project_simplex(v), [project_simplex(row) for row in v]),
        "weighted_norm": (weighted_norm(v, A), [weighted_norm(v[i], A[i]) for i in range(r)]),
        "weighted_norm_shared": (weighted_norm(v, A[0]), [weighted_norm(row, A[0]) for row in v]),
        "weighted_norm_identity": (weighted_norm(v, np.eye(d)),
                                   [weighted_norm(row, np.eye(d)) for row in v]),
        "min_eigenvalue": (min_eigenvalue(A), [min_eigenvalue(a) for a in A]),
        "bernoulli_ks_sup": (bernoulli_ks_sup(v, theta_star, d),
                             [bernoulli_ks_sup(row, theta_star, d) for row in v]),
    }
    one_vector = {
        "project_simplex": [_project_one(row) for row in v],
        "weighted_norm": [np.sqrt(max(float(v[i] @ A[i] @ v[i]), 0.0)) for i in range(r)],
        "weighted_norm_shared": [np.sqrt(max(float(row @ A[0] @ row), 0.0)) for row in v],
        "weighted_norm_identity": [np.linalg.norm(row) for row in v],
        "min_eigenvalue": [np.linalg.eigvalsh(a)[0] for a in A],
        "bernoulli_ks_sup": [_ks_sup_one(row, theta_star, d) for row in v],
    }
    for name, (stack, rows) in stacked.items():
        assert len(stack) == r, name
        assert [_bits(x) for x in stack] == [_bits(x) for x in rows], name
        assert [_bits(x) for x in rows] == [_bits(x) for x in one_vector[name]], name
