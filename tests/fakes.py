"""Basis families that exist only to test the package's generic code paths, and reference
samplers that the package's faster ones must match bit for bit."""

import numpy as np

from cdfreg.basis import (_BISECT_TOL, _GRID, _LEVEL_SLACK, BasisFamily, _batch_form, _narrow,
                          _positive_contexts)
from cdfreg.errors import BracketError


class CustomBasis(BasisFamily):
    """Caller-supplied evaluator(x, ts) -> (d, ts.size) with declared support.

    Monotonicity is not verified.
    """

    def __init__(self, d: int, evaluator, support_lo: float, support_hi: float,
                 atoms=None):
        self.d = int(d)
        self.evaluator = evaluator
        self._lo = float(support_lo)
        self._hi = float(support_hi)
        self._atoms = None if atoms is None else np.asarray(atoms, dtype=float)

    def eval_nodes(self, x, ts):
        X, T, single = _batch_form(x, ts)
        out = np.stack([np.asarray(self.evaluator(xj, tj), dtype=float).reshape(self.d, tj.size)
                        for xj, tj in zip(X, T)])
        return out[0] if single else out

    def support(self, x):
        return (self._lo, self._hi)

    def atoms(self, x):
        return self._atoms


def grid_bisect_reference(theta, basis, X, us):
    """Polynomial draws by bisecting each level's whole grid cell of _GRID to x _BISECT_TOL.

    The sampler basis._grid_bisect narrows the cell first; its draws must equal these.
    """
    x = _positive_contexts(X)

    def cdf(idx, s):
        return sum(w * s ** r for w, r in zip(theta, basis.exponents))

    g = theta @ basis.eval_nodes(1.0, _GRID)
    failed = np.flatnonzero(g[-1] + _LEVEL_SLACK < us)
    if failed.size:
        raise BracketError(f"could not bracket u={us[failed[0]]} within search bounds")
    k = np.minimum(np.searchsorted(np.maximum.accumulate(g), us), _GRID.size - 1)
    return _narrow(cdf, us, _GRID[k - 1], _GRID[k], _BISECT_TOL * x) / x
