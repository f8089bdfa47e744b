import math

import numpy as np
import pytest

from cdfreg import measure as msr


def test_uniform_weights_sum_to_one():
    m = msr.make_uniform_measure(0.0, 1.0, 16)
    assert abs(m.weights.sum() - 1.0) < 1e-12


def test_uniform_integrates_constant():
    m = msr.make_uniform_measure(0.0, 1.0, 16)
    assert msr.integrate(lambda t: np.ones_like(t), m) == pytest.approx(1.0, abs=1e-12)


def test_uniform_integrates_identity():
    m = msr.make_uniform_measure(0.0, 1.0, 16)
    assert msr.integrate(lambda t: t, m) == pytest.approx(0.5, abs=1e-12)


def test_uniform_mean_on_0_2():
    m = msr.make_uniform_measure(0.0, 2.0, 16)
    assert msr.integrate(lambda t: t, m) == pytest.approx(1.0, abs=1e-12)


def test_uniform_rejects_bad_args():
    with pytest.raises(ValueError):
        msr.make_uniform_measure(1.0, 1.0, 16)
    with pytest.raises(ValueError):
        msr.make_uniform_measure(0.0, 1.0, 1)


@pytest.mark.parametrize("deg", range(6))
def test_uniform_polynomial_exactness(deg):
    m = msr.make_uniform_measure(0.0, 1.0, 8)
    got = msr.integrate(lambda t: t ** deg, m)
    assert got == pytest.approx(1.0 / (deg + 1), abs=1e-10)


def test_gaussian_normalization():
    m = msr.make_gaussian_measure(0.0, 100.0, 32)
    assert msr.integrate(lambda t: np.ones_like(t), m) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_first_two_moments():
    m = msr.make_gaussian_measure(0.0, 1.0, 32)
    assert msr.integrate(lambda t: t, m) == pytest.approx(0.0, abs=1e-12)
    assert msr.integrate(lambda t: t ** 2, m) == pytest.approx(1.0, abs=1e-10)


def test_gaussian_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        msr.make_gaussian_measure(0.0, 0.0, 32)


def test_counting_two_points():
    m = msr.make_counting_measure([0.0, 1.0])
    assert np.allclose(m.weights, [0.5, 0.5])
    assert msr.integrate(lambda t: t, m) == pytest.approx(0.5)


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
    assert msr.integrate(lambda t: (t >= 0.5).astype(float), m) == pytest.approx(0.5)


def test_integrate_rejects_nonfinite():
    m = msr.make_uniform_measure(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        msr.integrate(lambda t: t / 0.0, m)


def test_integrate_linearity():
    rng = np.random.default_rng(0)
    m = msr.make_uniform_measure(0.0, 1.0, 16)
    fv, gv = rng.random(16), rng.random(16)
    table = {round(t, 12): (a, b) for t, a, b in zip(m.nodes, fv, gv)}
    f = lambda ts: np.array([table[round(t, 12)][0] for t in np.atleast_1d(ts)])
    g = lambda ts: np.array([table[round(t, 12)][1] for t in np.atleast_1d(ts)])
    alpha = 2.75
    combined = lambda ts: alpha * f(ts) + g(ts)
    assert msr.integrate(combined, m) == pytest.approx(
        alpha * msr.integrate(f, m) + msr.integrate(g, m), abs=1e-12)


def test_jump_panel_uniform_split():
    m = msr.make_uniform_measure(0.0, 1.0, 32)
    # integral of 1{0.3<=t} * t dt over [0,1] = (1 - 0.09)/2
    got = msr.integrate_with_jump(lambda t: t, 0.3, m)
    assert got == pytest.approx((1.0 - 0.09) / 2.0, abs=1e-12)


def test_jump_panel_outside_support():
    m = msr.make_uniform_measure(0.0, 1.0, 32)
    assert msr.integrate_with_jump(lambda t: t, -1.0, m) == pytest.approx(0.5)
    assert msr.integrate_with_jump(lambda t: t, 2.0, m) == 0.0


def test_jump_panel_gaussian_tail_mass():
    m = msr.make_gaussian_measure(0.0, 1.0, 64)
    got = msr.integrate_with_jump(lambda t: np.ones_like(t), 0.0, m)
    assert got == pytest.approx(0.5, abs=1e-10)
    assert msr.tail_mass(1.0, m) == pytest.approx(0.5 * math.erfc(1.0 / math.sqrt(2)),
                                                  abs=1e-14)


def test_jump_panel_counting():
    m = msr.make_counting_measure([0.0, 0.5, 1.0])
    ts, ws = msr.jump_panel(0.5, m)
    assert list(ts) == [0.5, 1.0]
    assert ws.sum() == pytest.approx(2.0 / 3.0)


def test_spec_round_trip():
    for m in (msr.make_uniform_measure(0.0, 2.0, 16),
              msr.make_gaussian_measure(1.5, 4.0, 32),
              msr.make_counting_measure([0.0, 1.0])):
        m2 = msr.measure_from_spec({"kind": m.kind, **m.params})
        assert np.allclose(m.nodes, m2.nodes)
        assert np.allclose(m.weights, m2.weights)


def test_invariant_rejects_negative_weights():
    with pytest.raises(ValueError):
        msr.QuadMeasure("counting", np.array([0.0]), np.array([-1.0]), 0.0, 0.0)
