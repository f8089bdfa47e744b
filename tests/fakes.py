"""Basis families that exist only to test the package's generic code paths."""

import numpy as np

from cdfreg.basis import BasisFamily, BernoulliBasis, _batch_form


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


class FirstCoordinateBernoulli(BernoulliBasis):
    """One Bernoulli coordinate whose success probability is the context's first entry."""

    def __init__(self):
        super().__init__(1)

    def _probs_batch(self, X) -> np.ndarray:
        return super()._probs_batch([np.atleast_1d(x)[:1] for x in X])
