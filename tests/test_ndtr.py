"""basis.ndtr, Cody's rational erf/erfc, against scipy.special.ndtr."""

import warnings

import numpy as np
from scipy.special import ndtr as scipy_ndtr

from cdfreg.basis import _SQRT1_2, _Z_ONE, _Z_ZERO, ndtr

# Every region edge in z = x / sqrt(2), with its neighbours on both sides.
_EDGES = np.array([0.46875, 4.0, _Z_ONE, _Z_ZERO]) / _SQRT1_2
_X = np.concatenate([
    np.linspace(-40.0, 40.0, 400_001),
    np.concatenate([[e, np.nextafter(e, 0), np.nextafter(e, np.inf)] for e in _EDGES]),
    -np.concatenate([[e, np.nextafter(e, 0), np.nextafter(e, np.inf)] for e in _EDGES]),
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324],
])


def _ndtr_quietly(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return ndtr(x)


def test_ndtr_matches_scipy():
    ours, ref = _ndtr_quietly(_X), scipy_ndtr(_X)
    assert np.array_equal(np.isnan(ours), np.isnan(ref))
    ok = ~np.isnan(ref)
    assert np.max(np.abs(ours[ok] - ref[ok])) <= 4.5e-16
    normal = ref >= 1e-300
    assert np.max(np.abs(ours[normal] / ref[normal] - 1.0)) <= 1e-12


def test_ndtr_special_values_and_shapes():
    assert _ndtr_quietly(0.0) == 0.5 and _ndtr_quietly(-0.0) == 0.5
    assert _ndtr_quietly(np.inf) == 1.0 and _ndtr_quietly(-np.inf) == 0.0
    assert np.isnan(_ndtr_quietly(np.nan))
    assert isinstance(_ndtr_quietly(1.5), float)
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert np.array_equal(_ndtr_quietly(x), _ndtr_quietly(x.ravel()).reshape(3, 4))
    assert _ndtr_quietly(np.empty((0, 2))).shape == (0, 2)


def test_ndtr_shortcut_to_one_is_exact():
    # From _Z_ONE on, the complement 1 - ndtr is below half an ulp of 1.
    x = _Z_ONE / _SQRT1_2
    assert 1.0 - scipy_ndtr(-x) == 1.0
    assert _ndtr_quietly(x) == 1.0


def test_ndtr_is_monotone_to_within_rounding():
    x = np.sort(_X[np.isfinite(_X)])
    assert np.all(np.diff(_ndtr_quietly(x)) >= -2.3e-16)


# Phi(x) rounded from a 50-digit evaluation. The Cody region past z = 4 carries
# little weight in the scipy comparison above; here a relative error of 5e-11 in
# its constant coefficient P5 shows as 1.8e-13 or more, while ndtr is within 1.5e-14.
_REFERENCE = {-1.0: 0.15865525393145705, -2.0: 0.02275013194817921,
              -3.0: 0.0013498980316300946, -5.0: 2.866515718791939e-07,
              -6.0: 9.86587645037698e-10, -7.0: 1.279812543885835e-12,
              -8.0: 6.220960574271784e-16, -10.0: 7.619853024160525e-24,
              -12.0: 1.776482112077679e-33, -14.0: 7.7935368191928e-45}


def test_ndtr_matches_high_precision_values():
    ref = np.array(list(_REFERENCE.values()))
    assert np.max(np.abs(_ndtr_quietly(np.array(list(_REFERENCE))) / ref - 1.0)) <= 1e-13
