import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdfreg import bounds
from cdfreg import measure as msr
from cdfreg import synth
from cdfreg.basis import BernoulliBasis, PolynomialBasis, inverse_cdf_sample
from cdfreg.cli import main
from cdfreg.estimators import (delta_nU_default, penalized_estimate, project_simplex,
                               ridge_estimate)
from cdfreg.gram import (GramState, accumulate, gram_matrix_of_context,
                         response_vector_of_sample)
from cdfreg.synth import (_UNIT_INTERVAL, _atom_statistics, _design, bernoulli_ks_sup,
                          hard_instance_matrix, run_coverage_experiment,
                          run_scaling_experiment, sample_scheme2, sorted_quantile, stream_rng)


def _hard_instance_loop(d, n, c):
    """Reference: the row-by-row construction the closed form replaces."""
    rows = []
    for j in range(1, n + 1):
        eps = c / (2.0 * d ** 3) if j <= d else c / (2.0 * d ** 2)
        p = np.full(d, 1.0 - eps)
        p[(j - 1) % d] -= eps
        rows.append(p)
    return np.array(rows)


def _row_index(d, n):
    """Which distinct row each of the n rows is: row j >= d is row d + (j - d) mod d."""
    j = np.arange(n)
    return np.where(j < d, j, d + (j - d) % d)


def test_hard_instance_first_steps_d2():
    # d=2, c=1: early scale 1/(2 d^3) = 1/16
    P, _ = hard_instance_matrix(2, 10)
    assert np.allclose(P[0], [0.875, 0.9375])
    assert np.allclose(P[1], [0.9375, 0.875])


def test_hard_instance_late_steps_cycle():
    # after step d the scale switches to 1/(2 d^2) and cycles coordinates
    P, counts = hard_instance_matrix(2, 6, 1.0)
    assert np.allclose(P[2], [0.75, 0.875])    # j=3 -> coordinate 1, eps=1/8
    assert np.allclose(P[3], [0.875, 0.75])    # j=4 -> coordinate 2 (j mod d = 0)
    assert len(P) == 4 and counts.tolist() == [1, 1, 2, 2]  # j=5, 6 repeat j=3, 4


def test_hard_instance_validity():
    for d in (2, 3, 5):
        P, _ = hard_instance_matrix(d, 4 * d, 1.0)
        assert np.all(P >= 0.0) and np.all(P <= 1.0)
        Q = 1.0 - P[:d]
        # the first d rows are linearly independent
        assert np.linalg.matrix_rank(Q) == d


@pytest.mark.parametrize("d,n,c", [(2, 7, 1.0), (3, 10, 0.5), (5, 23, 1.0), (8, 5, 2.0)])
def test_hard_instance_matches_reference_loop(d, n, c):
    R, counts = hard_instance_matrix(d, n, c)
    idx = _row_index(d, n)
    assert R.shape == (min(n, 2 * d), d)
    assert np.array_equal(R[idx], _hard_instance_loop(d, n, c))
    assert np.array_equal(counts, np.bincount(idx, minlength=len(R)))


@pytest.mark.parametrize("d,n,m", [(3, 20, 11), (3, 20, 2), (5, 12, 5), (4, 9, 1)])
def test_hard_instance_prefix_independent_of_n(d, n, m):
    assert np.array_equal(hard_instance_matrix(d, n)[0][:m], hard_instance_matrix(d, m)[0])


def test_hard_instance_rejects_d_below_2():
    with pytest.raises(ValueError):
        hard_instance_matrix(1, 10)


def test_hard_instance_rejects_large_c():
    with pytest.raises(ValueError):
        hard_instance_matrix(2, 10, c=20.0)
    with pytest.raises(ValueError):  # negative c pushes p above 1
        hard_instance_matrix(2, 3, c=-1.0)
    # c=5, d=2 is out of range only at the later scale, so only from row d+1 on.
    assert hard_instance_matrix(2, 2, c=5.0)[0].shape == (2, 2)
    with pytest.raises(ValueError):
        hard_instance_matrix(2, 3, c=5.0)


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


# n < d, n = d, d < n < 2d, n > 2d not a multiple of d, and n = 1e5
_HARD_SIZES = [(5, 3), (5, 5), (5, 7), (3, 11), (5, 100_000), (3, 100_000)]


@pytest.mark.parametrize("d,n", _HARD_SIZES)
@pytest.mark.parametrize("c", [1.0, 3.3])
def test_hard_state_from_distinct_rows_matches_full_matrix(d, n, c):
    theta = np.arange(1.0, d + 1) / (d * (d + 1) / 2)
    R, counts = hard_instance_matrix(d, n, c)
    j, idx = np.arange(n), _row_index(d, n)
    P = R[idx]
    assert len(R) == min(n, 2 * d) and np.array_equal(P, _hard_instance_loop(d, n, c))
    assert np.array_equal(counts, np.bincount(idx, minlength=len(R)))
    draw, _, _, _ = _design({"basis": {"kind": "bernoulli_hard", "c": c}}, "self", d, n, theta)
    state = draw(stream_rng(7, d, n))
    # Reference: accumulate over the full (n, d) matrix, with the ones the draw
    # took from the same stream laid out per row: the first ones[i] of distinct
    # row i's draws are y = 1.  Row j >= d is that row's ((j - d) // d)-th draw.
    ones = stream_rng(7, d, n).binomial(counts, R @ theta)
    rank = np.where(j < d, 0, (j - d) // d)
    y = (rank < ones[idx]).astype(float)
    ref = accumulate(GramState(d, state.measure), BernoulliBasis(d), P, y)
    assert state.n == ref.n == n
    assert _close(state.U, ref.U) and _close(state.u, ref.u)


@pytest.mark.parametrize("d,n", _HARD_SIZES)
@pytest.mark.parametrize("c", [1.0, 3.3])
def test_mismatch_E_n_from_distinct_rows_matches_full_matrix(d, n, c):
    q, p_e = 0.2, 0.4
    theta = np.arange(1.0, d + 1) / (d * (d + 1) / 2)
    config = {"q": q, "basis": {"kind": "bernoulli_hard", "c": c, "p_e": p_e}}
    _, _, _, extra = _design(config, "mismatch", d, n, theta)
    # Reference: the closed form on the full matrix, for two-point CDFs on [0, 1).
    R, _ = hard_instance_matrix(d, n, c)
    Q = 1.0 - R[_row_index(d, n)]
    ref = np.linalg.norm(Q.T @ (q * ((1.0 - p_e) - Q @ theta)))
    assert _close(extra["E_n_norm"], ref)
    report = run_coverage_experiment({
        "mode": "mismatch", "d": d, "n": n, "delta": 0.1, "reps": 1, "q": q,
        "basis": {"kind": "bernoulli_hard", "c": c, "p_e": p_e}})
    assert report["rows"][0]["E_n_norm"] == extra["E_n_norm"]


@st.composite
def _atom_counts(draw):
    """Bernoulli atoms P (k, d), per-atom counts and how many of each atom's draws are ones."""
    k, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    P = draw(st.lists(st.floats(0.0, 1.0), min_size=k * d, max_size=k * d))
    counts = draw(st.lists(st.integers(0, 8), min_size=k, max_size=k))
    ones = [draw(st.integers(0, c)) for c in counts]
    return np.reshape(P, (k, d)), np.array(counts), np.array(ones)


@pytest.mark.parametrize("m", [_UNIT_INTERVAL, msr.make_counting_measure([-0.5, 0.0, 0.5, 1.0])],
                         ids=["unit", "counting"])
@settings(max_examples=60, deadline=None)
@given(sample=_atom_counts())
def test_atom_state_equals_accumulate_over_expanded_rows(m, sample):
    """The count-weighted per-atom state is accumulate over the n rows it stands for."""
    P, counts, ones = sample
    rows = np.repeat(np.arange(len(P)), counts)
    # the first ones[a] draws of atom a are y = 1, the rest y = 0
    rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    y = (rank < ones[rows]).astype(float)
    state = _atom_statistics(P, m)(counts, ones)
    ref = accumulate(GramState(P.shape[1], m), BernoulliBasis(P.shape[1]), P[rows], y)
    assert state.n == ref.n == counts.sum()
    assert _close(state.U, ref.U) and _close(state.u, ref.u)


@pytest.mark.parametrize("mode", ["self", "mismatch"])
def test_hard_design_U_n_is_bit_identical_across_reps_and_is_its_Sigma_n(mode):
    d, n = 4, 1000
    theta = np.arange(1.0, d + 1) / (d * (d + 1) / 2)
    config = {"q": 0.2, "basis": {"kind": "bernoulli_hard", "p_e": 0.4}}
    draw, Sigma_n, _, _ = _design(config, mode, d, n, theta)
    states = [draw(stream_rng(0, rep)) for rep in range(5)]
    assert all(s.U.tobytes() == Sigma_n.tobytes() for s in states)
    assert len({s.u.tobytes() for s in states}) > 1  # the outcomes do vary


def _counts_and_ones(monkeypatch, config, d, n, theta, reps, seed):
    """Each rep's (counts, ones) from _design's draw, the rep on stream (seed, rep)."""
    original = synth._bernoulli_rep
    monkeypatch.setattr(synth, "_bernoulli_rep", lambda state, counts, success, rng: original(
        lambda c, o: (c, o), counts, success, rng))
    draw = _design(config, "self", d, n, theta)[0]
    counts, ones = zip(*(draw(stream_rng(seed, rep)) for rep in range(reps)))
    return np.array(counts), np.array(ones)


def _z(samples, expected):
    """z-score of the mean over reps (axis 0) of samples against its expected value."""
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    return (samples.mean(axis=0) - expected) / se


_LAW_REPS, _LAW_Z = 4000, 5.0  # |z| < 5 in every cell, set before any seed was run


def test_hard_ones_follow_the_binomial_law(monkeypatch):
    """ones[i] ~ Binomial(counts[i], p_i) with p = R theta*: its mean and variance."""
    d, n, c, theta = 3, 40, 3.3, np.array([0.5, 0.3, 0.2])
    R, counts = hard_instance_matrix(d, n, c)
    drawn, ones = _counts_and_ones(monkeypatch, {"basis": {"kind": "bernoulli_hard", "c": c}},
                                   d, n, theta, _LAW_REPS, 11)
    assert np.all(drawn == counts)
    p = R @ theta
    assert np.all((0.05 < p) & (p < 0.95))  # no cell is degenerate
    assert np.all(np.abs(_z(ones, counts * p)) < _LAW_Z)
    assert np.all(np.abs(_z((ones - counts * p) ** 2, counts * p * (1 - p))) < _LAW_Z)


def test_atom_counts_follow_the_multinomial_law(monkeypatch):
    """counts ~ Multinomial(n, probs): mean n probs, covariance n (diag(probs) - probs probs^T);
    each atom's ones have mean n probs_a p_a."""
    d, n, theta = 3, 200, np.array([0.5, 0.3, 0.2])
    spec = dict(_COVERAGE_ATOMS)
    probs, P = np.array(spec["probs"]), np.array(spec["atoms"])
    counts, ones = _counts_and_ones(monkeypatch, {"basis": spec}, d, n, theta, _LAW_REPS, 12)
    assert np.all(counts.sum(axis=1) == n) and np.all((0 <= ones) & (ones <= counts))
    assert np.all(np.abs(_z(counts, n * probs)) < _LAW_Z)
    dev = counts - n * probs
    cov = n * (np.diag(probs) - np.outer(probs, probs))
    assert np.all(np.abs(_z(dev[:, :, None] * dev[:, None, :], cov)) < _LAW_Z)
    assert np.all(np.abs(_z(ones, n * probs * (P @ theta))) < _LAW_Z)


@pytest.mark.parametrize("theta_star, atom, probs", [
    ([0.5, 0.3, 0.2 + 5e-10], [1.0, 1.0, 1.0], [0.5, 0.5, 0.0]),
    ([-5e-10, 0.5, 0.5 + 5e-10], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]),
    ([0.5, 0.3, 0.2], [0.2, 0.5, 0.8], [0.5, 0.5 + 5e-10, 0.0]),
    ([0.5, 0.3, 0.2], [0.2, 0.5, 0.8], [1.0 + 5e-10, -5e-10, 0.0]),
], ids=["success_above_1", "success_below_0", "probs_sum_above_1", "probs_below_0"])
def test_atom_design_draws_just_off_the_simplex(tmp_path, monkeypatch, theta_star, atom, probs):
    """check_simplex lets theta* and probs sit 1e-9 off the simplex.  Atom 0's success
    is then 1 + 5e-10 or -5e-10, which the draw reads as 1 or 0, probs[:-1] may sum
    above 1, and a prob may be -5e-10, which the draw reads as 0; bound-check runs, and
    every rep's draws follow."""
    basis = {"kind": "bernoulli_atoms", "atoms": [atom, [0.2, 0.5, 0.8], [0.7, 0.3, 0.6]],
             "probs": probs}
    config = {"d": 3, "n": 300, "delta": 0.1, "reps": 20, "theta_star": theta_star,
              "basis": basis}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["bound-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    counts, ones = _counts_and_ones(monkeypatch, config, 3, 300, np.array(theta_star), 20, 0)
    success = atom @ np.array(theta_star)
    if success > 1:
        assert np.array_equal(ones[:, 0], counts[:, 0]) and counts[:, 0].all()
    elif success < 0:
        assert not ones[:, 0].any() and counts[:, 0].all()
    else:
        assert np.all(counts.sum(axis=1) == 300)
        assert not counts[:, np.array(probs) <= 0].any()


def test_stream_rng_keyed_and_reproducible():
    a = stream_rng(3, 1, 2).random(4)
    b = stream_rng(3, 1, 2).random(4)
    c = stream_rng(3, 1, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _alternating_draws(draw_context, n, seed):
    """Reference: the per-sample loop the batch draw replaces, each context then its level."""
    rng = stream_rng(seed)
    contexts, us = [], np.empty(n)
    for j in range(n):
        contexts.append(draw_context(rng))
        us[j] = rng.uniform()
    return np.asarray(contexts), us


# name -> (basis, per-sample draw, box bounds lo and hi of the batch draw)
_DESIGNS = {
    "scalar": (PolynomialBasis(4), lambda r: r.uniform(0.5, 2.0), 0.5, 2.0),
    "vector": (BernoulliBasis(3), lambda r: r.uniform(0.2, 0.8, 3), [0.2] * 3, [0.8] * 3),
}


@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("design", _DESIGNS)
def test_batch_draw_is_the_alternating_stream(design, n):
    """One generator call gives the contexts and outcomes of the per-sample loop, bit for bit."""
    basis, draw_context, lo, hi = _DESIGNS[design]
    theta = np.arange(1.0, basis.d + 1) / (basis.d * (basis.d + 1) / 2)
    X, us = _alternating_draws(draw_context, n, 3)
    contexts, outcomes = sample_scheme2(basis, lo, hi, theta, n, seed=3)
    assert contexts.tobytes() == X.tobytes()
    assert outcomes.tobytes() == inverse_cdf_sample(theta, basis, X, us).tobytes()


def test_sample_scheme2_deterministic():
    b = BernoulliBasis(2)
    _, y1 = sample_scheme2(b, [0.2, 0.2], [0.8, 0.8], [0.5, 0.5], 20, seed=4)
    _, y2 = sample_scheme2(b, [0.2, 0.2], [0.8, 0.8], [0.5, 0.5], 20, seed=4)
    assert np.array_equal(y1, y2)
    assert set(np.unique(y1)) <= {0.0, 1.0}


def test_sample_scheme2_degenerate_context():
    b = BernoulliBasis(1)
    _, ys = sample_scheme2(b, [1.0], [1.0], [1.0], 50, seed=0)  # lo == hi: a fixed context
    assert np.all(ys == 1.0)  # p = P(y=1) = 1


def test_sample_scheme2_binomial_rate():
    b = BernoulliBasis(1)
    n = 10000
    _, ys = sample_scheme2(b, [0.7], [0.7], [1.0], n, seed=1)
    # P(y=1) = p = 0.7; three-sigma band
    rate = float(np.mean(ys))
    assert abs(rate - 0.7) < 3.0 * np.sqrt(0.3 * 0.7 / n)


def test_run_scaling_experiment_shapes():
    cfg = {"experiment_id": "t", "basis": {"kind": "bernoulli_hard", "d": 2},
           "n_grid": [50, 100], "reps": 3, "lambdas": [0.001],
           "metrics": ["l2", "mu_min_U"], "seed": 1}
    records, aggregates = run_scaling_experiment(cfg)
    assert len(records) == 2 * 3 * 1 * 2
    assert len(aggregates) == 2 * 1 * 2
    names = {r.metric_name for r in records}
    assert names == {"l2", "mu_min_U"}
    assert all(r.scheme == "Fixed" for r in records)
    with pytest.raises(ValueError):
        run_scaling_experiment({**cfg, "reps": 0})


_GRADE = 30  # 30 r is an integer for every exponent r of d = 3 and d = 4 (1, 2, 1/2, 2/3, 2/5)
_RULE = np.polynomial.legendre.leggauss(80)


def _panel_statistics(basis, x, y):
    """Reference U(x) and u(x, y) of one sample on Gauss-Legendre panels of [0, 2] split at y
    and at top = min(2, 1/x), under the uniform law on [0, 2].

    Below top, the panels take t = top w^_GRADE, so that (x t)^r dt is a polynomial in w of
    degree at most 30 * 4 + 29 and the 80-node rule in w is exact; above top, Phi is 1.
    """
    gx, gw = _RULE
    top = min(2.0, 1.0 / x)
    cuts = np.unique(np.clip([0.0, y, top, 2.0], 0.0, 2.0))
    U, u = np.zeros((basis.d, basis.d)), np.zeros(basis.d)
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= top:  # w in [(a / top)^(1/_GRADE), (b / top)^(1/_GRADE)]
            wa, wb = (a / top) ** (1 / _GRADE), (b / top) ** (1 / _GRADE)
            w = 0.5 * (wb - wa) * gx + 0.5 * (wa + wb)
            ts, ws = top * w ** _GRADE, 0.25 * (wb - wa) * gw * _GRADE * top * w ** (_GRADE - 1)
        else:
            ts, ws = 0.5 * (b - a) * gx + 0.5 * (a + b), 0.25 * (b - a) * gw
        P = basis.eval_nodes(x, ts)
        U += (P * ws) @ P.T
        if a >= y:
            u += P @ ws
    return U, u


def _one(basis, x, y):
    return synth._polynomial_rep(basis.exponents, None, np.array([x]), np.array([y]))


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("x_lo", [0.5, 0.3])
def test_polynomial_statistics_equal_exact_panels(d, x_lo):
    """Each sample's closed-form U(x) and u(x, y) equal panels split at y and min(2, 1/x), and
    the batch sums them.  x_lo = 0.3 puts 1/x, and some outcomes, above the outcome range."""
    basis = PolynomialBasis(d)
    theta = np.arange(1, d + 1.0) / (d * (d + 1) / 2)
    X, ys = sample_scheme2(basis, x_lo, 1.0, theta, 100, 17)
    assert (ys > 2).any() == (x_lo < 0.5)
    # outcomes at 0 and at 1/x, and outside the draws' [0, 1/x]: above 1/x and below 0
    X = np.append(X, [0.3, 0.3, 0.7, 0.7, 1.5])
    ys = np.append(ys, [0.0, 1 / 0.3, 1 / 0.7, 1.9, -0.2])
    U_sum, u_sum = np.zeros((d, d)), np.zeros(d)
    for x, y in zip(X, ys):
        U, u = _panel_statistics(basis, x, y)
        got = _one(basis, x, y)
        assert np.max(np.abs(got.U - U)) <= 1e-13 * np.max(np.abs(U))
        assert np.max(np.abs(got.u - u)) <= 1e-13 * max(np.max(np.abs(u)), 1.0)
        U_sum, u_sum = U_sum + U, u_sum + u
    state = synth._polynomial_rep(basis.exponents, None, X, ys)
    assert state.n == len(X) and np.array_equal(state.U, state.U.T)
    assert np.max(np.abs(state.U - U_sum)) <= 1e-13 * np.max(np.abs(U_sum))
    assert np.max(np.abs(state.u - u_sum)) <= 1e-13 * np.max(np.abs(u_sum))
    with pytest.raises(ValueError, match="outcome y must be finite"):
        synth._polynomial_rep(basis.exponents, None, X, np.append(ys[1:], np.nan))


@pytest.mark.parametrize("x_lo, x_hi", [(0.1, 0.45), (0.3, 2.0), (0.5, 2.0), (0.7, 3.0)],
                         ids=["below_half", "across_half", "default", "above_half"])
def test_polynomial_sigma_1_equals_a_rule_over_x(x_lo, x_hi):
    """Sigma_1 = E U(x) against a Gauss-Legendre rule over x, split at x = 1/2."""
    basis = PolynomialBasis(4)
    gx, gw = np.polynomial.legendre.leggauss(40)
    ref = np.zeros((4, 4))
    cuts = np.unique(np.clip([x_lo, 0.5, x_hi], x_lo, x_hi))
    for a, b in zip(cuts[:-1], cuts[1:]):
        for x, w in zip(0.5 * (b - a) * gx + 0.5 * (a + b), 0.5 * (b - a) * gw):
            ref += w / (x_hi - x_lo) * _one(basis, x, 0.0).U
    got = synth._polynomial_sigma_1(basis.exponents, x_lo, x_hi)
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("x", [0.2, 0.45, 0.5, 0.8, 2.0])
@pytest.mark.parametrize("theta", [[0.1, 0.2, 0.3, 0.4], [0.7, 0.0, 0.1, 0.2]])
def test_polynomial_response_is_exactly_unbiased(x, theta):
    """E_y u(x, y) = U(x) theta* at a fixed context, on both sides of x = 1/2.

    s = x y has the law G(s) = sum_i theta_i s^r_i on [0, 1], so with q = r_a + 1 and
    c = min(2x, 1), E min(s, c)^q = sum_i theta_i r_i c^(q + r_i) / (r_i + q)
    + c^q (1 - G(c)).  u_a(x, y) is affine in min(s, c)^q: u at s = 0 less the step to
    s = c times (min(s, c) / c)^q, which is checked at a few outcomes first.
    """
    basis, theta = PolynomialBasis(4), np.array(theta)
    r, q, c = basis.exponents, basis.exponents + 1, min(2 * x, 1.0)
    u0, uc = _one(basis, x, 0.0).u, _one(basis, x, 1 / x).u
    for s in (0.05, 0.3, 0.6, 0.99):
        assert np.allclose(_one(basis, x, s / x).u, u0 - (u0 - uc) * (min(s, c) / c) ** q,
                           rtol=0, atol=1e-15)
    moment = (theta * r * c ** (q[:, None] + r) / (r + q[:, None])).sum(1) + c ** q * (
        1 - theta @ c ** r)
    mean_u = u0 - (u0 - uc) * moment / c ** q
    assert np.max(np.abs(mean_u - _one(basis, x, 0.0).U @ theta)) <= 1e-12


def test_run_scaling_experiment_polynomial_d_grid():
    cfg = {"basis": {"kind": "polynomial"}, "d_grid": [2, 3], "n": 40,
           "reps": 2, "lambdas": [0.01], "metrics": ["l2"], "seed": 3}
    records, _ = run_scaling_experiment(cfg)
    assert sorted({r.d for r in records}) == [2, 3]
    assert all(r.n == 40 and r.scheme == "Random" for r in records)


ALL_METRICS = ["l2", "self_norm", "sigma_norm", "ks", "eps_lambda", "mu_min_U"]


def _scaling_reference(config):
    """Reference: every (grid point, rep) drawn, solved and scored on its own.

    Returns the records as (d, n, lambda, rep, metric, value bytes) and the
    aggregate rows, with quantiles from np.quantile.
    """
    kind, d, seed = config["basis"]["kind"], config["basis"]["d"], config["seed"]
    theta = np.arange(1, d + 1, dtype=float)
    theta /= theta.sum()
    rows, groups = [], {}
    for n in config["n_grid"]:
        for rep in range(config["reps"]):
            rng = stream_rng(seed, 0xD0, d, n, rep)
            if kind == "bernoulli_hard":
                R, counts = hard_instance_matrix(d, n, 1.0)
                ones = rng.binomial(counts, R @ theta)
                state = _atom_statistics(R, _UNIT_INTERVAL)(counts, ones)
                Sigma_n = state.U
                ks = lambda th: bernoulli_ks_sup(project_simplex(th), theta, d)
            else:
                basis, m = PolynomialBasis(d), msr.make_uniform_measure(0.0, 2.0)
                X, ys = sample_scheme2(basis, 0.5, 2.0, theta, n, int(rng.integers(2 ** 62)))
                state = synth._polynomial_rep(basis.exponents, m, X, ys)
                Sigma_n = n * synth._polynomial_sigma_1(basis.exponents, 0.5, 2.0)
                grid = bounds.ks_grid(0.0, 2.0, jump_points=[2.0, 1.0, 0.5])

                def ks(th, basis=basis, grid=grid):
                    proj, worst = project_simplex(th), 0.0
                    for x in (0.5, 1.0, 2.0):
                        worst = max(worst, bounds.ks_distance(
                            lambda ts: proj @ basis.eval_nodes(x, np.atleast_1d(ts)),
                            lambda ts: theta @ basis.eval_nodes(x, np.atleast_1d(ts)), grid))
                    return worst
            for lam in config["lambdas"]:
                theta_hat = ridge_estimate(state, lam)
                diff = theta_hat - theta
                vals = {"l2": float(np.linalg.norm(diff)),
                        "self_norm": bounds.weighted_norm(diff, state.U + lam * np.eye(d)),
                        "sigma_norm": bounds.weighted_norm(diff, Sigma_n),
                        "ks": ks(theta_hat),
                        "eps_lambda": bounds.epsilon_lambda(n, d, 0.1, lam,
                                                            float(np.linalg.norm(theta))),
                        "mu_min_U": bounds.min_eigenvalue(state.U)}
                for name in ALL_METRICS:
                    rows.append((d, n, lam, rep, name, np.float64(vals[name]).tobytes()))
                    groups.setdefault((n, lam, name), []).append(vals[name])
    aggregates = []
    for n, lam, name in sorted(groups):
        v = np.sort(groups[n, lam, name])
        aggregates.append(["scaling", "Fixed" if kind == "bernoulli_hard" else "Random", d, n,
                           repr(lam), name, repr(float(np.mean(v))),
                           repr(float(np.quantile(v, 0.05))), repr(float(np.quantile(v, 0.95)))])
    return rows, aggregates


@pytest.mark.parametrize("reps", [1, 3, 20])
@pytest.mark.parametrize("kind,d,n_grid", [("bernoulli_hard", 3, [50, 400]),
                                           ("polynomial", 3, [30, 80])])
def test_stacked_sweep_equals_per_rep_reference(kind, d, n_grid, reps, monkeypatch):
    """The sweep builds each grid point once and solves each lambda's reps as one
    stack; every record and aggregate is byte-identical to solving rep by rep."""
    config = {"basis": {"kind": kind, "d": d}, "n_grid": n_grid, "reps": reps,
              "lambdas": [0.001, 0.1], "metrics": ALL_METRICS, "seed": 5}
    rows, aggregates = _scaling_reference(config)
    calls = {"ridge_estimate": 0, "build": 0}
    built = "hard_instance_matrix" if kind == "bernoulli_hard" else "_polynomial_sigma_1"
    for name, key in (("ridge_estimate", "ridge_estimate"), (built, "build")):
        original = getattr(synth, name)

        def counted(*args, _original=original, _key=key):
            calls[_key] += 1
            return _original(*args)
        monkeypatch.setattr(synth, name, counted)
    synth._hard_statistics.cache_clear()  # so that the build its statistics take is counted
    records, aggs = run_scaling_experiment(config)
    assert [(r.d, r.n, r.lam, r.rep, r.metric_name, np.float64(r.value).tobytes())
            for r in records] == rows
    assert aggs == aggregates
    # One build per grid point; the hard rows' statistics take one more, shared by every n.
    assert calls == {"ridge_estimate": len(n_grid) * 2,
                     "build": len(n_grid) + (kind == "bernoulli_hard")}


_COVERAGE_ATOMS = {"kind": "bernoulli_atoms",
                   "atoms": [[0.2, 0.5, 0.8], [0.7, 0.3, 0.6], [0.9, 0.1, 0.4]],
                   "probs": [0.3, 0.5, 0.2],
                   "measure": {"kind": "counting", "points": [0.0, 0.5, 1.0]}}


def _coverage_reference(config):
    """Reference: every bound-check rep drawn from its own (0xC0, rep) stream,
    solved alone and scored by hand; returns each rep's (error, bound, extras)."""
    mode, d, n, delta = config["mode"], config["d"], config["n"], config["delta"]
    lam, seed, spec = config.get("lambda", 0.001), config["seed"], config["basis"]
    theta = np.asarray(config["theta_star"])
    tnorm = float(np.linalg.norm(theta))
    if spec["kind"] == "bernoulli_hard":
        R, counts = hard_instance_matrix(d, n, 1.0)
        state_of = _atom_statistics(R, _UNIT_INTERVAL)
        Sigma_n = state_of(counts, 0 * counts).U
        probs = R @ theta
        if mode == "mismatch":
            q, p_e = config["q"], spec["p_e"]
            probs = (1.0 - q) * probs + q * p_e
            E_n = q * (state_of(counts, p_e * counts).u - Sigma_n @ theta)
        draw = lambda rng: state_of(counts, rng.binomial(counts, probs))
    else:
        P, w = np.array(spec["atoms"]), np.array(spec["probs"])
        state_of = _atom_statistics(P, msr.measure_from_spec(spec["measure"]))
        Sigma_n = state_of(n * w, np.zeros(len(w))).U

        def draw(rng):
            counts = rng.multinomial(n, w)
            return state_of(counts, rng.binomial(counts, P @ theta))
    rows = []
    for rep in range(config["reps"]):
        state = draw(stream_rng(seed, 0xC0, rep))
        if mode == "penalized":
            delta_nU = delta_nU_default(n, d, delta)
            theta_hat = penalized_estimate(state, 0.0, delta_nU)
            obj = lambda th: (np.linalg.norm(state.U @ th - state.u)
                              + delta_nU * np.linalg.norm(th))
            dominated = obj(theta_hat) <= obj(ridge_estimate(state, 1e-8)) + 1e-7
            rows.append((float(np.linalg.norm(theta_hat - theta)),
                         bounds.penalized_bound(n, d, delta, bounds.min_eigenvalue(Sigma_n),
                                                tnorm),
                         {"dominated": float(dominated)}))
            continue
        diff = ridge_estimate(state, lam) - theta
        eps = bounds.epsilon_lambda(n, d, delta, lam, tnorm)
        W = Sigma_n if mode == "sigma" else state.U + lam * np.eye(d)
        extra = {"E_n_norm": float(np.linalg.norm(E_n))} if mode == "mismatch" else {}
        bound = (eps + extra["E_n_norm"] / np.sqrt(lam) if mode == "mismatch"
                 else np.sqrt(2.0) * eps if mode == "sigma" else eps)
        rows.append((bounds.weighted_norm(diff, W), float(bound), extra))
    return rows


@pytest.mark.parametrize("reps", [1, 5])
@pytest.mark.parametrize("mode,kind", [
    ("self", "bernoulli_hard"), ("self", "bernoulli_atoms"),
    ("sigma", "bernoulli_hard"), ("sigma", "bernoulli_atoms"),
    ("penalized", "bernoulli_hard"), ("penalized", "bernoulli_atoms"),
    ("mismatch", "bernoulli_hard")])
def test_coverage_equals_per_rep_reference(mode, kind, reps):
    """bound-check's reps, drawn and solved as one grid point, are byte-identical
    to drawing, solving and scoring each rep alone."""
    basis = dict(_COVERAGE_ATOMS) if kind == "bernoulli_atoms" else {"kind": kind}
    config = {"mode": mode, "d": 3, "n": 300, "delta": 0.1, "reps": reps, "seed": 4,
              "theta_star": [0.5, 0.3, 0.2], "basis": basis}
    if mode in ("self", "sigma"):
        config["lambda"] = 0.02
    if mode == "mismatch":
        config["q"], basis["p_e"] = 0.2, 0.4
    expected = _coverage_reference(config)
    report = run_coverage_experiment(config)
    as_bytes = lambda x: np.float64(x).tobytes()
    assert len(report["rows"]) == reps
    assert [(r["rep"], as_bytes(r["error"]), as_bytes(r["bound"]), r["covered"],
             {k: as_bytes(r[k]) for k in extra})
            for r, (_, _, extra) in zip(report["rows"], expected)] == [
        (rep, as_bytes(err), as_bytes(bound), err <= bound,
         {k: as_bytes(v) for k, v in extra.items()})
        for rep, (err, bound, extra) in enumerate(expected)]
    assert as_bytes(report["coverage"]) == as_bytes(
        sum(err <= bound for err, bound, _ in expected) / reps)
    for k in expected[0][2]:
        vs = [extra[k] for _, _, extra in expected]
        assert as_bytes(report[f"{k}_mean"]) == as_bytes(np.mean(vs))
        assert as_bytes(report[f"{k}_max"]) == as_bytes(np.max(vs))


@settings(max_examples=300, deadline=None)
@given(vals=st.lists(st.floats(width=64), min_size=1, max_size=200),
       q=st.sampled_from([0.05, 0.5, 0.95]))
def test_sorted_quantile_is_np_quantile(vals, q):
    s = np.sort(np.array(vals, dtype=float))
    with np.errstate(invalid="ignore"):  # numpy's lerp of infinities makes NaN
        expected = np.float64(np.quantile(s, q))
    assert np.float64(sorted_quantile(s, q)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("atoms", ["hard", "coverage"])
def test_atom_statistics_equal_per_atom_calls_bit_for_bit(atoms):
    """The atom statistics' per-atom Grams and their y = 0 and y = 1 responses, all
    atoms' Grams from one call and all their responses from another, have the bits of
    one call per atom."""
    if atoms == "hard":
        P, m = hard_instance_matrix(5, 10, 1.0)[0], _UNIT_INTERVAL
    else:
        P = np.array(_COVERAGE_ATOMS["atoms"])
        m = msr.measure_from_spec(_COVERAGE_ATOMS["measure"])
    k, d = P.shape
    state, basis = _atom_statistics(P, m), BernoulliBasis(d)
    for a, e in enumerate(np.eye(k, dtype=int)):  # one draw at atom a
        G = gram_matrix_of_context(basis, [P[a]], m)[0]
        assert state(e, 0 * e).U.tobytes() == (0.5 * (G + G.T)).tobytes()
        for y, ones in ((0.0, 0 * e), (1.0, e)):
            assert state(e, ones).u.tobytes() == response_vector_of_sample(
                basis, P[a], y, m).tobytes()


def test_run_coverage_experiment_self_mode():
    cfg = {"mode": "self", "d": 2, "n": 200, "delta": 0.1, "lambda": 0.01,
           "reps": 20, "seed": 11, "basis": {"kind": "bernoulli_hard"},
           "theta_star": [0.5, 0.5]}
    report = run_coverage_experiment(cfg)
    assert report["reps"] == 20
    assert len(report["rows"]) == 20
    assert 0.0 <= report["coverage"] <= 1.0
    assert report["coverage"] >= 1.0 - 2 * 0.1
    with pytest.raises(ValueError):
        run_coverage_experiment({**cfg, "delta": 1.5})
    with pytest.raises(ValueError):
        run_coverage_experiment({**cfg, "reps": 0})


def test_run_coverage_experiment_mismatch_extras():
    cfg = {"mode": "mismatch", "d": 2, "n": 100, "delta": 0.1, "lambda": 0.5,
           "q": 0.0, "reps": 5, "seed": 2,
           "basis": {"kind": "bernoulli_hard", "p_e": 0.5},
           "theta_star": [0.5, 0.5]}
    report = run_coverage_experiment(cfg)
    assert report["E_n_norm_max"] == pytest.approx(0.0, abs=1e-12)


def test_run_coverage_rejects_unknown_mode():
    cfg = {"mode": "nope", "d": 2, "n": 10, "delta": 0.1, "reps": 1,
           "basis": {"kind": "bernoulli_hard"}}
    with pytest.raises(ValueError):
        run_coverage_experiment(cfg)


_SWEEP = {"basis": {"kind": "bernoulli_hard", "d": 2}, "n_grid": [50], "reps": 1,
          "lambdas": [0.01]}
_COVER = {"mode": "self", "d": 3, "n": 50, "delta": 0.1, "reps": 1,
          "basis": {"kind": "bernoulli_hard"}}


@pytest.mark.parametrize("driver, config, message", [
    (run_scaling_experiment, dict(_SWEEP, metric=["l2"]), "unknown properties ['metric']"),
    (run_coverage_experiment, dict(_COVER, lamda=0.5), "unknown properties ['lamda']"),
    (run_scaling_experiment, dict(_SWEEP, q=0.5), "unknown properties ['q']"),
    (run_scaling_experiment, dict(_SWEEP, basis={"kind": "bernoulli_hard", "d": 2, "p_e": 0.4}),
     "config field basis: unknown properties ['p_e']"),
    (run_coverage_experiment, dict(_COVER, basis={"kind": "bernoulli_hard", "d": 7}),
     "config field basis: unknown properties ['d']"),
    (run_scaling_experiment, dict(_SWEEP, d_grid=[2, 3]), "give exactly one of n_grid / d_grid"),
    (run_scaling_experiment, {"basis": {"kind": "bernoulli_hard"}, "d_grid": [2, 3], "reps": 1,
                              "lambdas": [0.01]}, "d_grid sweeps need a fixed n"),
    (run_scaling_experiment, dict(_SWEEP, basis={"kind": "bernoulli_hard"}),
     "n_grid sweeps need basis.d"),
], ids=["metric", "lamda", "sweep_q", "sweep_p_e", "coverage_d", "both_grids",
        "d_grid_without_n", "n_grid_without_d"])
def test_drivers_reject_what_the_cli_rejects(driver, config, message):
    """A library call checks its config as the CLI does: a misspelled or unread key, or a
    grid the sweep cannot run, raises a ValueError naming it before any rep runs."""
    with pytest.raises(ValueError) as info:
        driver(config)
    assert message in str(info.value)


def test_coverage_builds_the_atom_design_once(monkeypatch):
    """The atoms' Grams and the measure are built once per run, not once per rep, and
    Sigma_n comes from the same per-atom Grams; the Grams of every atom are one call,
    their responses at y = 0 and y = 1 another, and the penalized estimates are one
    stacked solve."""
    from cdfreg import synth
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("gram_matrix_of_context", "response_vector_of_sample", "penalized_estimate"):
        counted(synth, name)
    counted(msr, "measure_from_spec")
    report = run_coverage_experiment({
        "mode": "penalized", "d": 3, "n": 500, "delta": 0.1, "reps": 50, "seed": 0,
        "theta_star": [0.5, 0.3, 0.2],
        "basis": {"kind": "bernoulli_atoms", "atoms": [[0.2, 0.5, 0.8], [0.7, 0.3, 0.6]],
                  "probs": [0.5, 0.5], "measure": {"kind": "counting", "points": [0.0, 1.0]}}})
    assert len(report["rows"]) == 50
    assert calls == {"gram_matrix_of_context": 1, "response_vector_of_sample": 1,
                     "measure_from_spec": 1, "penalized_estimate": 1}
