import numpy as np
import pytest

from cdfreg import measure as msr
from cdfreg.basis import BernoulliBasis, PolynomialBasis
from cdfreg.gram import GramState, accumulate
from cdfreg.synth import (_bernoulli_state, _hard_design, hard_instance_matrix,
                          run_coverage_experiment, run_scaling_experiment,
                          sample_mismatched, sample_scheme1, sample_scheme2, stream_rng)


def _hard_instance_loop(d, n, c):
    """Reference: the row-by-row construction the closed form replaces."""
    rows = []
    for j in range(1, n + 1):
        eps = c / (2.0 * d ** 3) if j <= d else c / (2.0 * d ** 2)
        p = np.full(d, 1.0 - eps)
        p[(j - 1) % d] -= eps
        rows.append(p)
    return np.array(rows)


def test_hard_instance_first_steps_d2():
    # d=2, c=1: early scale 1/(2 d^3) = 1/16
    P = hard_instance_matrix(2, 10)
    assert np.allclose(P[0], [0.875, 0.9375])
    assert np.allclose(P[1], [0.9375, 0.875])


def test_hard_instance_late_steps_cycle():
    # after step d the scale switches to 1/(2 d^2) and cycles coordinates
    P = hard_instance_matrix(2, 6, 1.0)
    assert np.allclose(P[2], [0.75, 0.875])    # j=3 -> coordinate 1, eps=1/8
    assert np.allclose(P[3], [0.875, 0.75])    # j=4 -> coordinate 2 (j mod d = 0)
    assert np.allclose(P[4], P[2]) and np.allclose(P[5], P[3])


def test_hard_instance_validity():
    for d in (2, 3, 5):
        P = hard_instance_matrix(d, 4 * d, 1.0)
        assert np.all(P >= 0.0) and np.all(P <= 1.0)
        Q = 1.0 - P[:d]
        # the first d rows are linearly independent
        assert np.linalg.matrix_rank(Q) == d


@pytest.mark.parametrize("d,n,c", [(2, 7, 1.0), (3, 10, 0.5), (5, 23, 1.0), (8, 5, 2.0)])
def test_hard_instance_matches_reference_loop(d, n, c):
    P = hard_instance_matrix(d, n, c)
    assert P.shape == (n, d)
    assert np.array_equal(P, _hard_instance_loop(d, n, c))


@pytest.mark.parametrize("d,n,m", [(3, 20, 11), (3, 20, 2), (5, 12, 5), (4, 9, 1)])
def test_hard_instance_prefix_independent_of_n(d, n, m):
    assert np.array_equal(hard_instance_matrix(d, n)[:m], hard_instance_matrix(d, m))


def test_hard_instance_read_only():
    P = hard_instance_matrix(3, 8)
    with pytest.raises(ValueError):
        P[0, 0] = 0.5


def test_hard_instance_rejects_d_below_2():
    with pytest.raises(ValueError):
        hard_instance_matrix(1, 10)


def test_hard_instance_rejects_large_c():
    with pytest.raises(ValueError):
        hard_instance_matrix(2, 10, c=20.0)
    with pytest.raises(ValueError):  # negative c pushes p above 1
        hard_instance_matrix(2, 3, c=-1.0)
    # c=5, d=2 is out of range only at the later scale, so only from row d+1 on.
    assert hard_instance_matrix(2, 2, c=5.0).shape == (2, 2)
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
    P = hard_instance_matrix(d, n, c)
    R, idx = _hard_design(d, n, c)
    assert len(R) == min(n, 2 * d) and np.array_equal(R[idx], P)
    state = _bernoulli_state(R, idx, R @ theta, stream_rng(7, d, n))
    # Reference: the draws and statistics on the full (n, d) matrix.
    y = (stream_rng(7, d, n).random(n) < P @ theta).astype(float)
    ref = accumulate(GramState(d, state.measure), BernoulliBasis(d), P, y)
    assert state.n == ref.n == n
    assert _close(state.U, ref.U) and _close(state.u, ref.u)


@pytest.mark.parametrize("d,n", _HARD_SIZES)
@pytest.mark.parametrize("c", [1.0, 3.3])
def test_mismatch_E_n_from_distinct_rows_matches_full_matrix(d, n, c):
    q, p_e = 0.2, 0.4
    report = run_coverage_experiment({
        "mode": "mismatch", "d": d, "n": n, "delta": 0.1, "reps": 1, "q": q,
        "basis": {"kind": "bernoulli_hard", "c": c, "p_e": p_e}})
    theta = np.arange(1.0, d + 1) / (d * (d + 1) / 2)
    Q = 1.0 - hard_instance_matrix(d, n, c)
    ref = np.linalg.norm(Q.T @ (q * ((1.0 - p_e) - Q @ theta)))
    assert report["rows"][0]["E_n_norm"] == pytest.approx(ref, rel=1e-12)


def test_stream_rng_keyed_and_reproducible():
    a = stream_rng(3, 1, 2).random(4)
    b = stream_rng(3, 1, 2).random(4)
    c = stream_rng(3, 1, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_scheme2_deterministic():
    b = BernoulliBasis(2)
    sampler = lambda rng: rng.uniform(0.2, 0.8, 2)
    d1 = sample_scheme2(b, sampler, [0.5, 0.5], 20, seed=4)
    d2 = sample_scheme2(b, sampler, [0.5, 0.5], 20, seed=4)
    assert np.array_equal(d1.outcomes, d2.outcomes)
    assert d1.scheme == "Random"
    assert set(np.unique(d1.outcomes)) <= {0.0, 1.0}


def test_sample_scheme2_degenerate_context():
    b = BernoulliBasis(1)
    ds = sample_scheme2(b, lambda rng: np.array([1.0]), [1.0], 50, seed=0)
    assert np.all(ds.outcomes == 1.0)  # p = P(y=1) = 1


def test_sample_scheme2_binomial_rate():
    b = BernoulliBasis(1)
    n = 10000
    ds = sample_scheme2(b, lambda rng: np.array([0.7]), [1.0], n, seed=1)
    # P(y=1) = p = 0.7; three-sigma band
    rate = float(np.mean(ds.outcomes))
    assert abs(rate - 0.7) < 3.0 * np.sqrt(0.3 * 0.7 / n)


def test_sample_scheme1_adversary_sees_history():
    b = BernoulliBasis(2)
    seen = []

    def adversary(history):
        seen.append(len(history))
        return np.array([0.5, 0.5])

    ds = sample_scheme1(b, adversary, [0.5, 0.5], 5, seed=9)
    assert seen == [0, 1, 2, 3, 4]
    assert ds.scheme == "Adversarial"
    replay = sample_scheme1(b, lambda h: np.array([0.5, 0.5]), [0.5, 0.5], 5,
                            seed=9)
    assert np.array_equal(ds.outcomes, replay.outcomes)


def test_sample_mismatched_zero_weight():
    m = msr.make_uniform_measure(0.0, 1.0, 32)
    b = BernoulliBasis(2)
    e = BernoulliBasis(1, p_map=lambda x: np.atleast_1d(x)[:1])
    ds = sample_mismatched(b, e, 0.0, [0.5, 0.5], 30, 2,
                           lambda rng: rng.uniform(0.2, 0.8, 2), m)
    assert np.allclose(ds.E_n, 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        sample_mismatched(b, e, 1.5, [0.5, 0.5], 5, 0,
                          lambda rng: rng.uniform(0.2, 0.8, 2), m)


def test_sample_mismatched_identical_contaminant():
    # phi_e equal to the mixture itself leaves no realized mismatch
    m = msr.make_uniform_measure(0.0, 1.0, 32)
    b = BernoulliBasis(1)
    e = BernoulliBasis(1)
    ds = sample_mismatched(b, e, 0.7, [1.0], 40, 5,
                           lambda rng: np.array([0.4]), m)
    assert np.allclose(ds.E_n, 0.0, atol=1e-10)


def test_sample_mismatched_nonzero_direction():
    m = msr.make_uniform_measure(0.0, 1.0, 32)
    b = BernoulliBasis(1)

    class Shifted(BernoulliBasis):
        def eval_nodes(self, x, ts):
            return super().eval_nodes(np.asarray(x) * 0.5, ts)

    ds = sample_mismatched(b, Shifted(1), 1.0, [1.0], 10, 5,
                           lambda rng: np.array([0.8]), m)
    # e(t) = 1{t in [0,1)} (q_e - q) with q=0.2, q_e=0.6; response vs q=0.2 basis
    # E_n = n * 0.4 * integral of q over [0,1) = 10 * 0.4 * 0.2
    assert ds.E_n[0] == pytest.approx(10 * 0.4 * 0.2, abs=1e-8)


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


def test_run_scaling_experiment_polynomial_d_grid():
    cfg = {"basis": {"kind": "polynomial"}, "d_grid": [2, 3], "n": 40,
           "reps": 2, "lambdas": [0.01], "metrics": ["l2"], "seed": 3}
    records, _ = run_scaling_experiment(cfg)
    assert sorted({r.d for r in records}) == [2, 3]
    assert all(r.n == 40 and r.scheme == "Random" for r in records)


def test_run_scaling_experiment_thread_determinism():
    cfg = {"basis": {"kind": "bernoulli_hard", "d": 2}, "n_grid": [50, 80],
           "reps": 4, "lambdas": [0.001], "metrics": ["l2"], "seed": 7}
    r1, a1 = run_scaling_experiment(cfg)
    r2, a2 = run_scaling_experiment({**cfg, "threads": 4})
    assert [r.row() for r in r1] == [r.row() for r in r2]
    assert a1 == a2


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


def test_coverage_builds_the_atom_design_once(monkeypatch):
    """Each atom's Gram and responses, Sigma_n and the measure are built once per
    run, not once per rep; the penalized estimates are one stacked solve."""
    from cdfreg import synth
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("gram_matrix_of_context", "response_vector_of_sample", "population_gram",
                 "penalized_estimate"):
        counted(synth, name)
    counted(msr, "measure_from_spec")
    report = run_coverage_experiment({
        "mode": "penalized", "d": 3, "n": 500, "delta": 0.1, "reps": 50, "seed": 0,
        "theta_star": [0.5, 0.3, 0.2],
        "basis": {"kind": "bernoulli_atoms", "atoms": [[0.2, 0.5, 0.8], [0.7, 0.3, 0.6]],
                  "probs": [0.5, 0.5], "measure": {"kind": "counting", "points": [0.0, 1.0]}}})
    assert len(report["rows"]) == 50
    assert calls == {"gram_matrix_of_context": 2, "response_vector_of_sample": 4,
                     "population_gram": 1, "measure_from_spec": 1, "penalized_estimate": 1}
