import math

import numpy as np
import pytest

from cdfreg import measure as msr


def test_uniform_weights_sum_to_one():
    m = msr.make_uniform_measure(0.0, 1.0, 16)
    assert abs(m.weights.sum() - 1.0) < 1e-12


def test_uniform_integrates_constant():
    m = msr.make_uniform_measure(0.0, 1.0, 16)
    assert m.weights @ np.ones_like(m.nodes) == pytest.approx(1.0, abs=1e-12)


def test_uniform_integrates_identity():
    m = msr.make_uniform_measure(0.0, 1.0, 16)
    assert m.weights @ m.nodes == pytest.approx(0.5, abs=1e-12)


def test_uniform_mean_on_0_2():
    m = msr.make_uniform_measure(0.0, 2.0, 16)
    assert m.weights @ m.nodes == pytest.approx(1.0, abs=1e-12)


def test_uniform_rejects_bad_args():
    with pytest.raises(ValueError):
        msr.make_uniform_measure(1.0, 1.0, 16)
    with pytest.raises(ValueError):
        msr.make_uniform_measure(0.0, 1.0, 1)


@pytest.mark.parametrize("deg", range(6))
def test_uniform_polynomial_exactness(deg):
    m = msr.make_uniform_measure(0.0, 1.0, 8)
    got = m.weights @ m.nodes ** deg
    assert got == pytest.approx(1.0 / (deg + 1), abs=1e-10)


def test_gaussian_normalization():
    m = msr.make_gaussian_measure(0.0, 100.0, 32)
    assert m.weights @ np.ones_like(m.nodes) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_first_two_moments():
    m = msr.make_gaussian_measure(0.0, 1.0, 32)
    assert m.weights @ m.nodes == pytest.approx(0.0, abs=1e-12)
    assert m.weights @ m.nodes ** 2 == pytest.approx(1.0, abs=1e-10)


def test_gaussian_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        msr.make_gaussian_measure(0.0, 0.0, 32)


def test_counting_two_points():
    m = msr.make_counting_measure([0.0, 1.0])
    assert np.allclose(m.weights, [0.5, 0.5])
    assert m.weights @ m.nodes == pytest.approx(0.5)


def test_counting_single_atom():
    m = msr.make_counting_measure([3.0])
    assert np.allclose(m.weights, [1.0])


def test_counting_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        msr.make_counting_measure([])
    with pytest.raises(ValueError):
        msr.make_counting_measure([1.0, 1.0])


def test_counting_indicator_integral():
    m = msr.make_counting_measure([0.0, 1.0])
    assert m.weights @ (m.nodes >= 0.5) == pytest.approx(0.5)


def test_integrate_linearity():
    rng = np.random.default_rng(0)
    m = msr.make_uniform_measure(0.0, 1.0, 16)
    fv, gv = rng.random(16), rng.random(16)
    table = {round(t, 12): (a, b) for t, a, b in zip(m.nodes, fv, gv)}
    f = lambda ts: np.array([table[round(t, 12)][0] for t in np.atleast_1d(ts)])
    g = lambda ts: np.array([table[round(t, 12)][1] for t in np.atleast_1d(ts)])
    alpha = 2.75
    combined = lambda ts: alpha * f(ts) + g(ts)
    assert m.weights @ combined(m.nodes) == pytest.approx(
        alpha * (m.weights @ f(m.nodes)) + m.weights @ g(m.nodes), abs=1e-12)


def test_jump_panel_uniform_split():
    m = msr.make_uniform_measure(0.0, 1.0, 32)
    ts, ws = msr.jump_panel(0.3, m)
    keep = m.nodes >= 0.3
    assert np.array_equal(ts, m.nodes) and np.array_equal(ws, np.where(keep, m.weights, 0.0))
    # integral of 1{0.3<=t} * t dt over [0,1] = (1 - 0.09)/2, to within one node
    assert abs(ws @ ts - (1.0 - 0.09) / 2.0) < m.weights.max()


def test_jump_panel_outside_support():
    m = msr.make_uniform_measure(0.0, 1.0, 32)
    ts, ws = msr.jump_panel(-1.0, m)
    assert np.array_equal(ts, m.nodes) and np.array_equal(ws, m.weights)
    ts, ws = msr.jump_panel(2.0, m)
    assert np.array_equal(ts, m.nodes) and np.array_equal(ws, np.zeros(32))
    ts, ws = msr.jump_panel(np.array([-1.0, 2.0]), m)
    assert np.array_equal(ws, [m.weights, np.zeros(32)]) and np.array_equal(ts[1], m.nodes)
    for bad in (np.nan, np.inf, [0.5, -np.inf]):
        with pytest.raises(ValueError, match="finite"):
            msr.jump_panel(bad, m)


def test_jump_panel_gaussian_tail_mass():
    m = msr.make_gaussian_measure(0.0, 1.0, 64)
    _, ws = msr.jump_panel(0.0, m)
    assert ws.sum() == pytest.approx(0.5, abs=1e-14)  # Gauss-Hermite nodes are symmetric
    got = msr.tail_mass(1.0, m)
    assert got == pytest.approx(m.weights[m.nodes >= 1.0].sum(), abs=1e-15)
    assert abs(got - 0.5 * math.erfc(1.0 / math.sqrt(2))) < m.weights.max()


def test_jump_panel_counting():
    m = msr.make_counting_measure([0.0, 0.5, 1.0])
    ts, ws = msr.jump_panel(0.5, m)
    assert list(ts) == [0.0, 0.5, 1.0] and list(ws) == [0.0, 1.0 / 3.0, 1.0 / 3.0]
    assert msr.tail_mass(0.5, m) == ws.sum() == pytest.approx(2.0 / 3.0)


def test_spec_round_trip():
    for m, spec in ((msr.make_uniform_measure(0.0, 2.0, 16),
                     {"kind": msr.UNIFORM, "a": 0.0, "b": 2.0, "n_nodes": 16}),
                    (msr.make_gaussian_measure(1.5, 4.0, 32),
                     {"kind": msr.GAUSSIAN, "c": 1.5, "var": 4.0, "n_nodes": 32}),
                    (msr.make_counting_measure([0.0, 1.0]),
                     {"kind": msr.COUNTING, "points": [0.0, 1.0]})):
        m2 = msr.measure_from_spec(spec)
        assert np.allclose(m.nodes, m2.nodes)
        assert np.allclose(m.weights, m2.weights)


def test_invariant_rejects_negative_weights():
    with pytest.raises(ValueError):
        msr.QuadMeasure(np.array([0.0]), np.array([-1.0]))
