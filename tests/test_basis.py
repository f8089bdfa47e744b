import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdfreg import basis as basis_module
from cdfreg.basis import (_BISECT_TOL, _LEVEL_SLACK, _bisect, BernoulliBasis,
                          GaussianLaplaceBasis, LogisticProbitBasis, PolynomialBasis,
                          check_simplex, inverse_cdf_sample, polynomial_exponent)
from cdfreg.errors import BracketError
from fakes import CustomBasis, grid_bisect_reference


def test_polynomial_exponent_values():
    assert polynomial_exponent(5, 3) == 3.0
    assert polynomial_exponent(5, 4) == 0.5
    assert polynomial_exponent(5, 5) == pytest.approx(1.0 / 3.0)
    with pytest.raises(IndexError):
        polynomial_exponent(5, 6)


def test_polynomial_eval_nodes_equals_zero_padded_formula():
    """Padding outside [0, 1/x] with 1 rather than 0 before np.power changes no bit."""
    basis = PolynomialBasis(5)
    xs = np.array([0.5, 0.8, 1.0, 1.7, 2.0])
    edges = [-np.inf, -1.0, -0.0, 0.0, 1e-300, 0.3, 0.999, np.inf, np.nan]
    T = np.array([edges + [1.0 / x, np.nextafter(1.0 / x, 0), np.nextafter(1.0 / x, 9),
                           2.0 / x] for x in xs])
    X = xs[:, None]
    inside = (T >= 0) & (T <= 1.0 / X)
    base = np.where(inside, X * T, 0.0)[:, None, :]
    ref = np.where(inside[:, None, :], np.power(base, basis.exponents[:, None]),
                   (T > 1.0 / X)[:, None, :].astype(float))
    assert basis.eval_nodes(xs, T).tobytes() == ref.tobytes()
    for j, x in enumerate(xs):
        assert basis.eval_nodes(x, T[j]).tobytes() == ref[j].tobytes()


def test_bernoulli_eval():
    b = BernoulliBasis(1)
    assert b.eval([0.5], 0.5) == pytest.approx([0.5])
    assert b.eval([0.5], 10.0) == pytest.approx([1.0])
    assert b.eval([0.5], -0.1) == pytest.approx([0.0])


def test_bernoulli_rejects_bad_probs():
    b = BernoulliBasis(2)
    with pytest.raises(ValueError):
        b.eval([0.5, 1.5], 0.5)


def test_polynomial_eval():
    b = PolynomialBasis(5)
    assert b.eval(1.0, 0.5)[0] == pytest.approx(0.5)
    assert b.eval(2.0, 0.25)[3] == pytest.approx(0.5 ** 0.5)
    assert np.allclose(b.eval(2.0, 0.6), 1.0)
    assert np.allclose(b.eval(1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        b.eval(0.0, 0.5)


def test_gaussian_laplace_medians():
    z = np.zeros(2)
    for w in (0.0, 1.0, 0.5):
        b = GaussianLaplaceBasis(w, z, z, z, z, np.ones(2), np.ones(2))
        assert np.allclose(b.eval(z, 0.0), 0.5, atol=1e-12)


def test_gaussian_laplace_rejects_bad_scales():
    z = np.zeros(1)
    with pytest.raises(ValueError):
        GaussianLaplaceBasis(0.5, z, z, z, z, np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        GaussianLaplaceBasis(1.5, z, z, z, z, np.ones(1), np.ones(1))


def test_logistic_probit_eval():
    z = np.zeros(2)
    b = LogisticProbitBasis(0.5, z, z, z, z)
    assert np.allclose(b.eval(z, 0.5), 0.5)
    assert np.allclose(b.eval(z, 1.0), 1.0)
    assert np.allclose(b.eval(z, -0.5), 0.0)


def _t_range(basis, x):
    """A t-range that holds the family's outcome mass at context x: [0, 1/x] for the
    polynomial CDFs, 40 scales around every Gaussian-Laplace location, else [0, 1]."""
    if isinstance(basis, PolynomialBasis):
        return 0.0, 1.0 / x
    if isinstance(basis, GaussianLaplaceBasis):
        mu = np.concatenate([basis.beta_n1 * x + basis.beta_n0, basis.beta_l1 * x + basis.beta_l0])
        scale = max(np.sqrt(basis.sigma2).max(), basis.b.max())
        return mu.min() - 40.0 * scale, mu.max() + 40.0 * scale
    return 0.0, 1.0


@pytest.mark.parametrize("make", [
    lambda rng: (BernoulliBasis(3), rng.random(3)),
    lambda rng: (PolynomialBasis(4), float(rng.uniform(0.5, 2.0))),
    lambda rng: (GaussianLaplaceBasis(rng.random(), rng.normal(size=3),
                                      rng.normal(size=3), rng.normal(size=3),
                                      rng.normal(size=3), rng.uniform(0.5, 2, 3),
                                      rng.uniform(0.5, 2, 3)), rng_ctx3(rng)),
])
def test_monotone_and_in_range(make):
    rng = np.random.default_rng(42)
    for _ in range(5):
        basis, x = make(rng)
        lo, hi = _t_range(basis, x)
        ts = np.linspace(lo, hi, 100)
        vals = basis.eval_nodes(x, ts)
        assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)
        assert np.all(np.diff(vals, axis=1) >= -1e-12)


def rng_ctx3(rng):
    return rng.normal(size=3)


def test_mixture_eval():
    b = BernoulliBasis(2)
    assert np.array([0.5, 0.5]) @ b.eval([0.3, 0.7], 0.5) == pytest.approx(0.5)
    assert np.array([1.0, 0.0]) @ b.eval([0.3, 0.7], 0.5) == pytest.approx(0.7)
    with pytest.raises(ValueError):  # a mixture's weights lie on the simplex
        check_simplex([0.9, 0.9])
    for theta in ([np.nan, np.nan], [0.5, 0.5, np.nan], [np.inf, 0.0], [-np.inf, 1.0]):
        with pytest.raises(ValueError, match="simplex"):  # and are finite
            check_simplex(theta)
    with pytest.raises(ValueError, match="simplex"):
        inverse_cdf_sample([np.nan, np.nan], PolynomialBasis(2), 1.0, 0.3)


def test_inverse_cdf_uniform_identity():
    b = PolynomialBasis(1)
    assert inverse_cdf_sample([1.0], b, 1.0, 0.25) == pytest.approx(0.25, abs=1e-9)


def test_inverse_cdf_bernoulli_atoms():
    b = BernoulliBasis(1)
    assert inverse_cdf_sample([1.0], b, [0.7], 0.2) == 0.0
    assert inverse_cdf_sample([1.0], b, [0.7], 0.9) == 1.0


def test_inverse_cdf_round_trip_continuous():
    rng = np.random.default_rng(1)
    z = np.zeros(2)
    b = GaussianLaplaceBasis(0.3, z, np.array([0.0, 1.0]), z, np.array([-1.0, 0.5]),
                             np.ones(2), np.ones(2))
    theta = np.array([0.4, 0.6])
    for u in rng.uniform(0.01, 0.99, size=20):
        y = inverse_cdf_sample(theta, b, z, u)
        assert float(theta @ b.eval(z, y)) == pytest.approx(u, abs=1e-8)


def test_inverse_cdf_rejects_bad_u():
    b = PolynomialBasis(1)
    with pytest.raises(ValueError):
        inverse_cdf_sample([1.0], b, 1.0, 0.0)


def test_inverse_cdf_bracket_failure():
    flat = CustomBasis(1, lambda x, ts: np.full((1, np.atleast_1d(ts).size), 0.1))
    with pytest.raises(BracketError):
        inverse_cdf_sample([1.0], flat, None, 0.9)


_GL2 = GaussianLaplaceBasis(0.5, [1.0, -1.0], [0.0, 0.5], [0.5, 1.0], [0.0, 0.0],
                            [1.0, 2.0], [1.0, 0.5])


@pytest.mark.parametrize("basis, theta, x", [  # each theta sums to 1 - 2^-52
    (_GL2, np.array([0.5, 0.5 - 2.0 ** -52]), np.array([0.2, -0.1])),
    (PolynomialBasis(4), np.array([0.25, 0.25, 0.25, 0.25 - 2.0 ** -52]), 0.7),
], ids=["gaussian_laplace", "polynomial"])
def test_inverse_cdf_brackets_level_within_rounding_of_one(basis, theta, x):
    u = 1.0 - 1e-16  # rounds to 1 - 2^-53, above every value of theta^T Phi
    assert theta @ basis.eval(x, 1e6) < u
    t = inverse_cdf_sample(theta, basis, x, u)
    assert np.isfinite(t)
    assert theta @ basis.eval(x, t) >= u - 1e-15
    ts = inverse_cdf_sample(theta, basis, [x, x], np.array([0.5, u]))
    assert ts[1] == t and ts[0] == inverse_cdf_sample(theta, basis, x, 0.5)


def test_level_within_the_slack_of_the_top_is_drawn_where_the_cdf_reaches_it():
    """theta sums to a rounding below u, so theta^T Phi never reaches it: the draw is the first t,
    to _BISECT_TOL, where theta^T Phi reaches its top theta^T Phi(x, +inf)."""
    theta, x = np.array([0.5, 0.5 - 2.0 ** -52]), np.array([0.2, -0.1])
    top = theta @ _GL2.eval(x, np.inf)
    t = inverse_cdf_sample(theta, _GL2, x, 1.0 - 1e-16)
    assert theta @ _GL2.eval(x, t) == top > theta @ _GL2.eval(x, t - 2 * _BISECT_TOL)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), zero=st.sampled_from([None, 0, 1, 2, 3]),
       draws=st.lists(st.tuples(st.floats(-6.0, 6.0),
                                st.one_of(st.sampled_from([1e-300, 1e-20, 1.0 - 1e-16]),
                                          st.floats(0.0, 1.0, exclude_min=True,
                                                    exclude_max=True))),
                      min_size=1, max_size=8))
def test_polynomial_draws_agree_with_the_doubling_bracket(seed, zero, draws):
    """The grid bracket and bisection in s = x t meet _bisect's draws in t to within both
    tolerances, or a few float steps where floats are coarser, over contexts 1e-6 to 1e6."""
    basis = PolynomialBasis(4)
    theta = np.random.default_rng(seed).dirichlet(np.ones(4))
    if zero is not None:
        theta[zero] = 0.0
        theta /= theta.sum()
    X = 10.0 ** np.array([e for e, _ in draws])
    us = np.array([u for _, u in draws])
    ys, ref = inverse_cdf_sample(theta, basis, X, us), _bisect(theta, basis, X, us)
    # Where floats are coarser, each method resolves about one float step of t, and each rounds
    # the CDF by about an ulp, which moves its crossing by up to 1 / 0.4 steps: 0.4, the least
    # exponent, is the least elasticity s G'(s) / G(s).  So 8 steps bound the two together.
    assert np.all(np.abs(ys - ref) <= np.maximum(2 * _BISECT_TOL, 8 * np.spacing(ref)))


def _draws_or_error(sample, theta, basis, X, us):
    try:
        return sample(theta, basis, X, us)
    except BracketError as exc:
        return type(exc)


# Contexts where x _BISECT_TOL is at or above the grid width 2^-12 (no halving), or leaves
# one or two halvings, which a 4-cell lattice bracket cannot shorten.
_EDGE_CONTEXTS = [2.0 ** -e / _BISECT_TOL for e in (11, 12, 13, 14, 15)]


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 6, 8, 12]), seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.integers(0, 2 ** 12 - 1), short=st.booleans(),
       draws=st.lists(st.tuples(st.one_of(st.floats(-9.0, 7.0).map(lambda e: 10.0 ** e),
                                          st.sampled_from(_EDGE_CONTEXTS)),
                                st.one_of(st.sampled_from([1e-300, 1e-20, 1.0 - 1e-16]),
                                          st.floats(0.0, 1.0, exclude_min=True,
                                                    exclude_max=True))),
                      min_size=1, max_size=8))
def test_polynomial_draws_equal_the_whole_cell_bisection_bit_for_bit(d, seed, zeros, short,
                                                                     draws):
    """The narrowed lattice bracket decides how many halvings are left, never the draw.

    Contexts 1e-9 to 1e7 include those whose lattice is finer than floats near s = 1 and
    those the grid already resolves; theta has zero weights, and a short theta (sum
    1 - 2^-50) leaves u = 1 - 1e-16 to the slack.  Each batch draw is also its scalar call.
    """
    basis = PolynomialBasis(d)
    theta = np.random.default_rng(seed).dirichlet(np.ones(d))
    theta[[i for i in range(d - 1) if zeros >> i & 1]] = 0.0
    theta /= theta.sum()
    if short:
        theta *= 1.0 - 2.0 ** -50
    X = np.array([x for x, _ in draws])
    us = np.array([u for _, u in draws])
    ys = _draws_or_error(inverse_cdf_sample, theta, basis, X, us)
    ref = _draws_or_error(grid_bisect_reference, theta, basis, X, us)
    if isinstance(ref, type):
        assert ys is ref
        return
    assert ys.tobytes() == ref.tobytes()
    assert np.array([inverse_cdf_sample(theta, basis, x, u)
                     for x, u in zip(X, us)]).tobytes() == ys.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 12])
def test_polynomial_draws_equal_the_whole_cell_bisection_in_bulk(d):
    """10,000 draws per d, contexts 1e-9 to 1e7 and levels down to 1e-300, bit for bit."""
    rng = np.random.default_rng(d)
    basis, theta = PolynomialBasis(d), rng.dirichlet(np.ones(d))
    theta[rng.random(d) < 0.3] = 0.0
    theta = theta / theta.sum() if theta.sum() else np.eye(d)[0]
    X = 10.0 ** rng.uniform(-9.0, 7.0, 10_000)
    us = np.where(rng.random(10_000) < 0.1, 10.0 ** rng.uniform(-300, 0, 10_000),
                  rng.random(10_000)).clip(1e-300, 1.0 - 1e-16)
    assert (inverse_cdf_sample(theta, basis, X, us).tobytes()
            == grid_bisect_reference(theta, basis, X, us).tobytes())


def test_polynomial_sampling_call_evaluates_g_at_most_8_times(monkeypatch):
    """2,000 draws on the default design (d = 5, theta* = (1, ..., 5) / 15, x uniform on
    [0.5, 2]): 3 Newton steps, one check of both ends of each lattice bracket and 2 halvings
    are 6 power sums.  Bisecting whole grid cells, which gives the same draws, takes ~24."""
    calls = []
    power_terms = basis_module._power_terms
    monkeypatch.setattr(basis_module, "_power_terms",
                        lambda *args: calls.append(1) or power_terms(*args))
    rng = np.random.default_rng(0)
    inverse_cdf_sample(np.arange(1.0, 6.0) / 15.0, PolynomialBasis(5),
                       rng.uniform(0.5, 2.0, 2000), rng.random(2000))
    assert 0 < len(calls) <= 8


def test_laplace_cdf_far_tails_do_not_overflow():
    with np.errstate(over="raise"):
        vals = _GL2.eval_nodes(np.array([0.2, -0.1]), np.array([-1e3, 1e3]))
    assert np.array_equal(vals, [[0.0, 1.0], [0.0, 1.0]])


def test_laplace_cdf_matches_two_sided_formula():
    z = np.linspace(-700.0, 700.0, 4001)
    two_sided = np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))
    assert np.array_equal(GaussianLaplaceBasis._laplace_cdf(z), two_sided)


def _family_at(name, rng, scale):
    """A random basis of one family and a context of magnitude about scale."""
    if name == "bernoulli":
        return BernoulliBasis(3), np.clip(rng.normal(0.5, scale, 3), 0.0, 1.0)
    if name == "polynomial":
        return PolynomialBasis(4), float(scale ** rng.uniform(-1.0, 1.0))
    x = rng.normal(0.0, scale, 3)
    if name == "gaussian_laplace":
        return GaussianLaplaceBasis(rng.random(), rng.normal(size=3), rng.normal(size=3),
                                    rng.normal(size=3), rng.normal(size=3),
                                    10.0 ** rng.uniform(-3, 3, 3),
                                    10.0 ** rng.uniform(-3, 3, 3)), x
    return LogisticProbitBasis(rng.random(), rng.normal(size=3), rng.normal(size=3),
                               rng.normal(size=3), rng.normal(size=3)), x


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["bernoulli", "polynomial", "gaussian_laplace",
                             "logistic_probit"]),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1.0, 1e3, 1e6]),
       extra=st.lists(st.floats(-1e9, 1e9), max_size=8))
def test_every_family_is_a_cdf_in_t_at_extreme_contexts(name, seed, scale, extra):
    """Monotone in t (to within rounding) and inside [0, 1], for any context size."""
    basis, x = _family_at(name, np.random.default_rng(seed), scale)
    lo, hi = _t_range(basis, x)
    ts = np.sort(np.concatenate([np.linspace(lo, hi, 257), extra, [-np.inf, np.inf]]))
    vals = basis.eval_nodes(x, ts)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals, axis=1) >= -1e-15)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["bernoulli", "polynomial", "gaussian_laplace",
                             "logistic_probit", "custom"]),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1.0, 1e3, 1e6]),
       us=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                   min_size=1, max_size=8))
def test_inverse_cdf_sample_round_trips(name, seed, scale, us):
    """y = F^-1(u) reaches u, and F stays below u just before y."""
    rng = np.random.default_rng(seed)
    if name == "custom":  # a context-scaled ramp and the identity ramp on [0, 1]
        basis = CustomBasis(2, lambda x, ts: np.vstack([np.clip(ts * x, 0.0, 1.0),
                                                        np.clip(ts, 0.0, 1.0)]))
        x = float(rng.uniform(0.5, 2.0))
    else:
        basis, x = _family_at(name, rng, scale)
    theta = rng.dirichlet(np.ones(basis.d))
    ys = inverse_cdf_sample(theta, basis, [x] * len(us), np.array(us))
    F = lambda t: float(theta @ basis.eval(x, t))
    atoms = basis.atoms(x)
    for u, y in zip(us, ys):
        assert F(y) >= u - _LEVEL_SLACK
        if atoms is None:  # one float step down where floats are coarser than the tolerance
            assert F(min(y - 2 * _BISECT_TOL, np.nextafter(y, -np.inf))) <= u
        else:
            assert y in atoms and F(np.nextafter(y, -np.inf)) < u
