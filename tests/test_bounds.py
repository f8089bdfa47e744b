import math

import numpy as np
import pytest

from cdfreg import measure as msr
from cdfreg.bounds import (epsilon_lambda, epsilon_unreg, fit_loglog_slope,
                           hilbert_bound, ks_distance, ks_grid, l2_error_crps,
                           min_eigenvalue, mismatch_bound, penalized_bound,
                           weighted_norm)

UNIT = msr.make_uniform_measure(0.0, 1.0, 64)


def test_epsilon_lambda_hand_value():
    # sqrt(log 2 + 1) + 1 with n=d=lam=theta_norm=1, delta=e^{-1/2}
    expect = math.sqrt(math.log(2.0) + 1.0) + 1.0
    assert epsilon_lambda(1, 1, math.exp(-0.5), 1.0, 1.0) == pytest.approx(
        expect, abs=1e-12)
    assert expect == pytest.approx(2.301210, abs=1e-5)


def test_epsilon_lambda_validation_and_shape():
    with pytest.raises(ValueError):
        epsilon_lambda(1, 1, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        epsilon_lambda(1, 1, 1.5, 1.0, 1.0)
    # grows with n, d and shrinking delta; extra sqrt(lam)*norm term
    assert epsilon_lambda(100, 2, 0.1, 1.0, 0.0) > epsilon_lambda(10, 2, 0.1, 1.0, 0.0)
    assert epsilon_lambda(10, 5, 0.1, 1.0, 0.0) > epsilon_lambda(10, 2, 0.1, 1.0, 0.0)
    assert epsilon_lambda(10, 2, 0.01, 1.0, 0.0) > epsilon_lambda(10, 2, 0.1, 1.0, 0.0)
    assert epsilon_lambda(10, 2, 0.1, 4.0, 1.0) == pytest.approx(
        epsilon_lambda(10, 2, 0.1, 4.0, 0.0) + 2.0, abs=1e-12)


def test_epsilon_unreg_hand_value():
    # n=d=tau=1, delta=1/e: 1 + sqrt(8) + 4/3
    expect = 1.0 + math.sqrt(8.0) + 4.0 / 3.0
    assert epsilon_unreg(1, 1, 1 / math.e, 1.0) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(5.16176, abs=1e-5)
    assert epsilon_unreg(1, 1, 1 / math.e, 4.0) == pytest.approx(expect / 2.0,
                                                                 abs=1e-12)
    with pytest.raises(ValueError):
        epsilon_unreg(1, 1, 0.5, 0.0)


def test_penalized_bound_hand_value():
    # n=d=1, delta=1/e, mu=1, norm=1: 2 sqrt(8) + 2 (1 + sqrt 8 + 4/3)
    expect = 2.0 * math.sqrt(8.0) + 2.0 * (1.0 + math.sqrt(8.0) + 4.0 / 3.0)
    assert penalized_bound(1, 1, 1 / math.e, 1.0, 1.0) == pytest.approx(expect,
                                                                        abs=1e-12)
    assert penalized_bound(1, 1, 1 / math.e, 2.0, 1.0) == pytest.approx(
        expect / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        penalized_bound(1, 1, 0.5, 0.0, 1.0)


def test_hilbert_bound_values():
    # single term lam=sig=1: sqrt(log 2 + 1) + 1, same as epsilon_lambda case
    assert hilbert_bound([1.0], [1.0], math.exp(-0.5), 1.0) == pytest.approx(
        math.sqrt(math.log(2.0) + 1.0) + 1.0, abs=1e-12)
    # zero eigenvalues contribute nothing
    assert hilbert_bound([0.0, 0.0], [3.0, 5.0], 1 / math.e, 0.5) == pytest.approx(
        math.sqrt(2.0) + 0.5, abs=1e-12)
    with pytest.raises(ValueError):
        hilbert_bound([1.0], [1.0, 2.0], 0.5, 1.0)
    with pytest.raises(ValueError):
        hilbert_bound([-1.0], [1.0], 0.5, 1.0)


def test_mismatch_bound():
    assert mismatch_bound(2.0, 1.0, 1.0) == pytest.approx(3.0, abs=1e-12)
    assert mismatch_bound(2.0, 1.0, 4.0) == pytest.approx(2.5, abs=1e-12)
    assert mismatch_bound(2.0, 0.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert mismatch_bound(2.0, 1.0, 1.0, random_design=True) == pytest.approx(
        math.sqrt(2.0) * 2.0 + math.sqrt(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        mismatch_bound(2.0, 1.0, 0.0)


def test_weighted_norm():
    assert weighted_norm([3.0, 4.0], np.eye(2)) == pytest.approx(5.0, abs=1e-12)
    assert weighted_norm([1.0, 1.0], np.diag([4.0, 9.0])) == pytest.approx(
        math.sqrt(13.0), abs=1e-12)
    assert weighted_norm([0.0, 0.0], np.eye(2)) == 0.0
    with pytest.raises(ValueError):
        weighted_norm([1.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_min_eigenvalue():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(
        1.0, abs=1e-12)
    q = np.array([0.5, 0.25])
    assert min_eigenvalue(np.outer(q, q)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_ks_distance_step_functions():
    F1 = lambda t: (np.asarray(t) >= 0.0).astype(float)
    assert ks_distance(F1, F1, ks_grid(-1.0, 1.0, [0.0])) == 0.0
    # Bernoulli(0.3) vs Bernoulli(0.7): sup gap is |0.7 - 0.3| = 0.4 on [0,1)
    B = lambda p: (lambda t: np.where(np.asarray(t) >= 1.0, 1.0,
                                      np.where(np.asarray(t) >= 0.0, 1.0 - p, 0.0)))
    grid = ks_grid(-0.5, 1.5, [0.0, 1.0])
    assert ks_distance(B(0.3), B(0.7), grid) == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(ValueError):
        ks_distance(F1, F1, [])


def test_ks_distance_probes_left_limits():
    # step vs ramp agree at the grid points but not just left of the jump
    F1 = lambda t: (np.asarray(t) >= 0.5).astype(float)
    F2 = lambda t: np.minimum(2.0 * np.asarray(t, dtype=float), 1.0)
    assert ks_distance(F1, F2, np.array([0.5, 1.0])) == pytest.approx(1.0,
                                                                      abs=1e-9)


def _flat(value, n=1):
    """A predictor of the constant CDF value at every node of UNIT."""
    return np.full((n, UNIT.nodes.size), value)


def test_l2_error_crps_perfect_step_fit():
    # On the measure's nodes the step at y is the indicator itself.
    F = (UNIT.nodes >= 0.3).astype(float)[None, :]
    assert l2_error_crps([0.3], F, UNIT) == pytest.approx(0.0, abs=1e-15)


def test_l2_error_crps_flat_zero_predictor():
    # y = 0: the indicator is 1 at every node
    assert l2_error_crps([0.0], _flat(0.0), UNIT) == pytest.approx(1.0, abs=1e-14)
    # y = 1: no node of [0, 1] lies at or above 1
    assert l2_error_crps([1.0], _flat(0.0), UNIT) == pytest.approx(0.0, abs=1e-15)
    # y = 0.25: the weight of the nodes at or above 0.25, within one node of 0.75
    got = l2_error_crps([0.25], _flat(0.0), UNIT)
    assert got == pytest.approx(UNIT.weights[UNIT.nodes >= 0.25].sum(), abs=1e-15)
    assert abs(got - 0.75) < UNIT.weights.max()


def test_l2_error_crps_averages():
    got = l2_error_crps(np.array([0.0, 1.0]), _flat(0.0, 2), UNIT)
    assert got == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        l2_error_crps([], _flat(0.0, 0), UNIT)
    with pytest.raises(ValueError, match="shape"):
        l2_error_crps([0.0, 1.0], _flat(0.0), UNIT)
    for bad in (np.nan, np.inf, -np.inf):  # a non-finite outcome is not scored
        with pytest.raises(ValueError, match="finite"):
            l2_error_crps([0.0, bad], _flat(0.0, 2), UNIT)


def test_l2_error_crps_uniform_predictor():
    # F(t)=t against y=0: Gauss-Legendre integrates (1-t)^2 exactly, 1/3
    F = UNIT.nodes[None, :]
    assert l2_error_crps([0.0], F, UNIT) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_fit_loglog_slope():
    s, b = fit_loglog_slope([(1.0, 1.0), (10.0, 0.1)])
    assert s == pytest.approx(-1.0, abs=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)
    s, _ = fit_loglog_slope([(1.0, 2.0), (10.0, 2.0), (100.0, 2.0)])
    assert s == pytest.approx(0.0, abs=1e-12)
    s, _ = fit_loglog_slope([(1.0, 1.0), (100.0, 10.0)])
    assert s == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, 1.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, -1.0), (2.0, 1.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, 1.0), (1.0, 2.0)])
