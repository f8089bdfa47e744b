"""Contextual CDF basis families and mixture-CDF utilities.

Each family evaluates a d-vector of CDF values Phi(x, t) in [0,1]^d,
where every coordinate t -> phi_i(x, t) is itself a CDF.  Families with
purely discrete outcomes expose their atoms for exact inverse sampling.

Evaluation and sampling take one context or a batch of n contexts.  A
batch of contexts is anything indexed by its first axis: an (n,) array of
scalar contexts, an (n, d) array of vector contexts, or a list.  The
single-context call is the n=1 case of the batch code.
"""

from __future__ import annotations

import numpy as np

from .errors import BracketError

_BISECT_TOL = 1e-10
# Polynomial draws bracket s = x t between two points of this dyadic grid k / 4096 of [0, 1].
_GRID = np.linspace(0.0, 1.0, 4097)
_SIMPLEX_TOL = 1e-9  # check_simplex's slack on the sum and on each weight
# A CDF value within this of a level u counts as reaching it: when sum(theta)
# rounds below a level near 1, theta^T Phi never reaches the level itself.
_LEVEL_SLACK = 1e-15

# W. J. Cody, "Rational Chebyshev approximations for the error function", Math.
# Comp. 23 (1969), via SPECFUN's CALERF: erf(z) = z A(z^2)/B(z^2) for |z| <= 0.46875,
# erfc(z) = exp(-z^2) C(z)/D(z) for z <= 4, else exp(-z^2) (1/sqrt(pi) - s P(s)/Q(s)) / z
# with s = 1/z^2. Rows: numerator, then denominator, leading coefficient first.
_ERF_AB = np.array([[1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
                     3.77485237685302021e02, 3.20937758913846947e03],
                    [1.0, 2.36012909523441209e01, 2.44024637934444173e02,
                     1.28261652607737228e03, 2.84423683343917062e03]])
_ERFC_CD = np.array([[2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
                      6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
                      1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03],
                     [1.0, 1.57449261107098347e01, 1.17693950891312499e02,
                      5.37181101862009858e02, 1.62138957456669019e03, 3.29079923573345963e03,
                      4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03]])
_ERFC_PQ = np.array([[1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
                      1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4],
                     [1.0, 2.56852019228982242e00, 1.87295284992346725e00,
                      5.27905102951428412e-1, 6.05183413124413191e-2, 2.33520497626869185e-3]])
_SQRT1_2, _RSQRT_PI = 0.70710678118654752440, 0.56418958354775628695
# ndtr rounds to 1.0 from z = x/sqrt(2) >= _Z_ONE on. From z <= -_Z_ZERO (Cody's
# XBIG) on it is subnormal, below 1.2e-308, and 0.0 is returned. Both skip the sums.
_Z_ONE, _Z_ZERO = 5.9, 26.543


def _horner(coeffs, s):
    """Numerator over denominator of the two coefficient rows at s, by Horner steps."""
    num, den = coeffs[0, 0] * s, coeffs[1, 0] * s
    for a, b in coeffs[:, 1:-1].T:
        num += a
        num *= s
        den += b
        den *= s
    num += coeffs[0, -1]
    den += coeffs[1, -1]
    num /= den
    return num


def ndtr(a):
    """Standard normal CDF 0.5 erfc(-a / sqrt(2)), elementwise, from Cody's erf/erfc.

    NaN gives NaN, -inf 0 and +inf 1, and no floating-point warning is raised.
    """
    z = np.asarray(a, dtype=float).reshape(-1) * _SQRT1_2
    out = np.maximum(np.sign(z), 0.0)  # already right past _Z_ONE and -_Z_ZERO; NaN for NaN
    y = np.abs(z)
    i = np.flatnonzero(y <= 0.46875)
    out[i] = 0.5 + 0.5 * z[i] * _horner(_ERF_AB, z[i] ** 2)
    mid = np.flatnonzero((y > 0.46875) & (y <= 4.0))
    far = np.flatnonzero((y > 4.0) & (z < _Z_ONE) & (z > -_Z_ZERO))
    for i, erfcx in ((mid, lambda y: _horner(_ERFC_CD, y)),  # erfc(y) exp(y^2)
                     (far, lambda y: (_RSQRT_PI - _horner(_ERFC_PQ, 1 / (y * y)) / (y * y)) / y)):
        yi = y[i]
        h = erfcx(yi)
        h *= np.exp(-yi * yi)
        h *= 0.5
        np.subtract(1.0, h, out=h, where=z[i] > 0)
        out[i] = h
    return out.reshape(np.shape(a)) if np.ndim(a) else float(out[0])


def _batch_form(x, ts):
    """(contexts, (n, K) grid, single) for the two forms of eval_nodes."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim == 2:
        return x, ts, False
    return [x], ts.reshape(1, -1), True


def _positive_contexts(X) -> np.ndarray:
    """The scalar contexts of a polynomial batch as an (n,) array, each checked to be positive."""
    X = np.asarray(X, dtype=float).reshape(-1)
    if np.any(X <= 0):
        raise ValueError("polynomial basis requires a positive context")
    return X


def polynomial_exponent(d: int, i: int) -> float:
    """Exponent of the i-th polynomial basis coordinate (1-based index)."""
    if not 1 <= i <= d:
        raise IndexError(f"index {i} out of range [1, {d}]")
    if i <= (d + 1) / 2:
        return float(i)
    return 2.0 / (2 * i - d + 1)


class BasisFamily:
    """Abstract contextual CDF basis of dimension d."""

    d: int

    def eval(self, x, t: float) -> np.ndarray:
        """Phi(x, t) as a (d,) vector."""
        return self.eval_nodes(x, np.array([float(t)]))[:, 0]

    def eval_nodes(self, x, ts: np.ndarray) -> np.ndarray:
        """Phi(x, t) on a grid of t values.

        With one context x and a 1-D grid of K values, returns (d, K).  With
        a 2-D ``ts`` of shape (n, K), x holds n contexts, row j of ts is the
        grid of context j, and the result has shape (n, d, K).
        """
        raise NotImplementedError

    def support(self, x):
        """Natural (lo, hi) bracket containing all outcome mass.

        For one context x, two floats.  For a batch X of n contexts, each
        bound is an (n,) array, or a float that holds for every context.
        """
        raise NotImplementedError

    def atoms(self, x):
        """Atom locations of a purely discrete family, else None.

        One (K,) array, for one context or for every context of a batch.
        """
        return None

    def pmf_vector(self, x, y):
        """Per-coordinate probability mass at outcome y (discrete families only).

        A 1-D y of n outcomes takes the n contexts in x and gives an (n, d) array.
        """
        raise NotImplementedError(f"{type(self).__name__} has no discrete PMF")


class _TwoPointBasis(BasisFamily):
    """CDFs of d outcomes on the atoms {0, 1}: 1 - p_i on [0, 1), 1 from t = 1 on."""

    def _probs_batch(self, X) -> np.ndarray:
        """(n, d) success probabilities p of the n contexts in X."""
        raise NotImplementedError

    def eval_nodes(self, x, ts):
        X, T, single = _batch_form(x, ts)
        q = 1.0 - self._probs_batch(X)
        T = T[:, None, :]
        out = np.where(T >= 1, 1.0, np.where(T >= 0, q[:, :, None], 0.0))
        return out[0] if single else out

    def support(self, x):
        return (0.0, 1.0)

    def atoms(self, x):
        return np.array([0.0, 1.0])

    def pmf_vector(self, x, y):
        ys = np.asarray(y, dtype=float)
        p = self._probs_batch([x] if ys.ndim == 0 else x)
        Y = ys.reshape(-1, 1)
        rho = np.where(Y == 1, p, np.where(Y == 0, 1.0 - p, 0.0))
        return rho[0] if ys.ndim == 0 else rho


class BernoulliBasis(_TwoPointBasis):
    """d Bernoulli CDF coordinates; the context is the success-probability vector."""

    def __init__(self, d: int):
        self.d = int(d)

    def _probs_batch(self, X) -> np.ndarray:
        p = np.asarray(X, dtype=float)
        if p.shape[1:] != (self.d,):
            raise ValueError(f"context must give a ({self.d},) probability vector")
        if (p < 0).any() or (p > 1).any():
            raise ValueError("Bernoulli success probabilities must lie in [0,1]")
        return p


class PolynomialBasis(BasisFamily):
    """Power-law CDFs (x t)^{r(i)} on [0, 1/x] for a positive scalar context x."""

    def __init__(self, d: int):
        self.d = int(d)
        self.exponents = np.array([polynomial_exponent(self.d, i)
                                   for i in range(1, self.d + 1)])

    def eval_nodes(self, x, ts):
        X, T, single = _batch_form(x, ts)
        X = _positive_contexts(X)[:, None]
        top = 1.0 / X
        # 0 below the support and 1 above it; np.power runs only on the lanes inside
        # [0, 1/x], since glibc's pow is about 4x slower on a zero base than a positive one.
        out = np.repeat((T > top)[:, None, :].astype(float), self.d, axis=1)
        np.power((X * T)[:, None, :], self.exponents[:, None], out=out,
                 where=((T >= 0) & (T <= top))[:, None, :])
        return out[0] if single else out

    def support(self, x):
        top = 1.0 / np.asarray(x, dtype=float)
        return (0.0, float(top)) if top.ndim == 0 else (0.0, top.reshape(-1))


class GaussianLaplaceBasis(BasisFamily):
    """Convex mixtures of Gaussian and Laplace CDFs with per-coordinate linear locations."""

    def __init__(self, w, beta_n1, beta_n0, beta_l1, beta_l0, sigma2, b):
        self.w = float(w)
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("mixture weight w must lie in [0,1]")
        self.beta_n1 = np.asarray(beta_n1, dtype=float)
        self.beta_n0 = np.asarray(beta_n0, dtype=float)
        self.beta_l1 = np.asarray(beta_l1, dtype=float)
        self.beta_l0 = np.asarray(beta_l0, dtype=float)
        self.sigma2 = np.asarray(sigma2, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if np.any(self.sigma2 <= 0) or np.any(self.b <= 0):
            raise ValueError("scales sigma2 and b must be positive")
        self.d = self.beta_n1.size

    @staticmethod
    def _laplace_cdf(z):
        h = 0.5 * np.exp(-np.abs(z))  # one exp, which cannot overflow
        return np.where(z < 0, h, 1.0 - h)

    def eval_nodes(self, x, ts):
        X, T, single = _batch_form(x, ts)
        X = np.asarray(X, dtype=float)
        if X.shape[1:] != (self.d,):
            raise ValueError(f"context must be a ({self.d},) vector")
        mu_n = self.beta_n1 * X + self.beta_n0
        mu_l = self.beta_l1 * X + self.beta_l0
        T = T[:, None, :]
        zn = (T - mu_n[:, :, None]) / np.sqrt(self.sigma2)[:, None]
        zl = (T - mu_l[:, :, None]) / self.b[:, None]
        out = (1.0 - self.w) * ndtr(zn) + self.w * self._laplace_cdf(zl)
        return out[0] if single else out

    def support(self, x):
        X = np.asarray(x, dtype=float)
        if X.shape[-1:] != (self.d,) or X.ndim > 2:
            raise ValueError(f"context must be a ({self.d},) vector")
        mu_n = self.beta_n1 * X + self.beta_n0
        mu_l = self.beta_l1 * X + self.beta_l0
        scale = max(float(np.sqrt(self.sigma2).max()), float(self.b.max()))
        lo = np.minimum(mu_n.min(axis=-1), mu_l.min(axis=-1)) - 40.0 * scale
        hi = np.maximum(mu_n.max(axis=-1), mu_l.max(axis=-1)) + 40.0 * scale
        return (float(lo), float(hi)) if X.ndim == 1 else (lo, hi)


class LogisticProbitBasis(_TwoPointBasis):
    """Bernoulli CDFs whose success probability mixes logistic and probit links."""

    def __init__(self, w, beta_l1, beta_l0, beta_p1, beta_p0):
        self.w = float(w)
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("mixture weight w must lie in [0,1]")
        self.beta_l1 = np.asarray(beta_l1, dtype=float)
        self.beta_l0 = np.asarray(beta_l0, dtype=float)
        self.beta_p1 = np.asarray(beta_p1, dtype=float)
        self.beta_p0 = np.asarray(beta_p0, dtype=float)
        self.d = self.beta_l1.size

    def _probs_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1:] != (self.d,):
            raise ValueError(f"context must be a ({self.d},) vector")
        eta = self.beta_l1 * X + self.beta_l0
        e = np.exp(-np.abs(eta))  # one exp, which cannot overflow
        logit = np.where(eta >= 0, 1.0, e) / (1.0 + e)
        probit = ndtr(self.beta_p1 * X + self.beta_p0)
        return self.w * logit + (1.0 - self.w) * probit


def check_simplex(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    # Negated, so that a NaN sum, which any non-finite weight gives, fails too.
    if not (abs(theta.sum() - 1.0) <= _SIMPLEX_TOL and theta.min() >= -_SIMPLEX_TOL):
        raise ValueError("theta is not in the probability simplex")
    return theta


def inverse_cdf_sample(theta, basis: BasisFamily, x, u):
    """Smallest t with theta^T Phi(x, t) >= u, by atom lookup or bisection.

    Bisection starts from a bracket doubled out from the declared support,
    or for a PolynomialBasis from a grid cell of s = x t, which a Newton
    estimate narrows to 4 cells of the bisection's final lattice where its
    ends are checked to bracket u.  The narrowing leaves 2 halvings in place
    of about 21 and never moves the draw (see _grid_bisect).

    A scalar u draws once for the context x and returns a float.  A 1-D u of
    n levels draws for the n contexts in x at once and returns an (n,)
    array; every draw takes the same steps as its scalar call, so the
    results are identical to a loop of scalar calls.
    """
    us = np.asarray(u, dtype=float)
    single = us.ndim == 0
    us = us.reshape(-1)
    if not np.all((us > 0.0) & (us < 1.0)):
        raise ValueError("u must lie in the open interval (0,1)")
    theta = check_simplex(theta)
    if us.size == 0:
        return np.empty(0)
    X = np.asarray([x] if single else x)
    if len(X) != us.size:
        raise ValueError(f"{len(X)} contexts for {us.size} levels")
    t = _atom_lookup(theta, basis, X, us)
    if t is None:
        sample = _grid_bisect if isinstance(basis, PolynomialBasis) else _bisect
        t = sample(theta, basis, X, us)
    return float(t[0]) if single else t


def _atom_lookup(theta, basis, X, us):
    """Purely discrete family: the first atom whose cumulative mass reaches u."""
    atoms = basis.atoms(X)
    if atoms is None:
        return None
    A = np.broadcast_to(np.asarray(atoms, dtype=float), (len(X), len(atoms)))
    hit = us[:, None] <= theta @ basis.eval_nodes(X, A) + _LEVEL_SLACK
    first = np.where(hit.any(axis=1), hit.argmax(axis=1), A.shape[1] - 1)
    return A[np.arange(len(A)), first]


def _bisect(theta, basis, X, us):
    """Bracket each level u_j by doubling out from the support, then bisect t to _BISECT_TOL."""
    def cdf(idx, ts):  # theta^T Phi(x_j, t_j) for the draws idx
        return (theta @ basis.eval_nodes(X[idx], ts[:, None]))[:, 0]

    lo, hi = (np.array(np.broadcast_to(b, us.shape), dtype=float) for b in basis.support(X))
    # Double outward where the declared support does not yet bracket u.
    span = np.maximum(hi - lo, 1.0)
    tries = np.zeros(len(us), dtype=int)
    idx = np.arange(len(us))
    while idx.size:
        idx = idx[(cdf(idx, hi[idx]) + _LEVEL_SLACK < us[idx]) & (tries[idx] < 60)]
        hi[idx] += span[idx]
        span[idx] *= 2
        tries[idx] += 1
    capped = tries >= 60
    span = np.maximum(hi - lo, 1.0)
    idx = np.arange(len(us))
    while idx.size:
        idx = idx[(cdf(idx, lo[idx]) >= us[idx]) & (lo[idx] > -1e308) & (tries[idx] < 120)]
        lo[idx] -= span[idx]
        span[idx] *= 2
        tries[idx] += 1
    # Only a draw that left a loop at its cap can be unbracketed.
    idx = np.flatnonzero(capped | (tries >= 120) | ~(lo > -1e308))
    if idx.size:
        failed = idx[(cdf(idx, hi[idx]) + _LEVEL_SLACK < us[idx]) | (cdf(idx, lo[idx]) >= us[idx])]
        if failed.size:
            raise BracketError(f"could not bracket u={us[failed[0]]} within search bounds")
    return _narrow(cdf, us, lo, hi, np.full(len(us), _BISECT_TOL))


def _power_terms(theta, r, s):
    """The terms theta_i s^r_i of G(s) = sum_i theta_i s^r_i, one np.power per exponent.

    Each s rounds alike however many draws are open, which eval_nodes can't promise.
    """
    return [w * s ** e for w, e in zip(theta, r)]


def _grid_bisect(theta, basis, X, us):
    """Polynomial draws: F(x, t) = G(x t) with G(s) = theta^T Phi(1, s) = sum_i theta_i s^r_i.

    One G serves the batch: it is evaluated once on _GRID, each level is bracketed between
    two grid points, and s = x t is bisected to x _BISECT_TOL, so t = s / x meets _BISECT_TOL.
    Bisection from the grid cell stops on the lattice of the largest power of two <= x
    _BISECT_TOL.  A Newton estimate of s narrows the cell to 4 cells of that lattice, kept
    only where cdf puts u above their low end and at or below their high end: G's power sum
    does not decrease along the lattice, so bisection stops on the same point from there.
    """
    x = _positive_contexts(X)
    r = basis.exponents
    tol = _BISECT_TOL * x

    def cdf(idx, s):
        return sum(_power_terms(theta, r, s))

    g = theta @ basis.eval_nodes(1.0, _GRID)
    failed = np.flatnonzero(g[-1] + _LEVEL_SLACK < us)
    if failed.size:
        raise BracketError(f"could not bracket u={us[failed[0]]} within search bounds")
    # The first grid point where G reaches u > 0 = G(0), by a search kept sorted by the running
    # maximum; a level that only the slack reaches takes the last cell.
    g = np.maximum.accumulate(g)
    k = np.minimum(np.searchsorted(g, us), _GRID.size - 1)
    lo, hi = _GRID[k - 1], _GRID[k]
    # Bisection from [lo, hi] halves down to step, the largest power of two <= tol.  Narrow where
    # floats hold that lattice exactly up to hi, so that no halving stops early, and where more
    # than 4 of its cells fit in the grid cell.
    step = np.ldexp(0.5, np.frexp(tol)[1])
    j = np.flatnonzero((4 * step < hi - lo) & (hi <= 2.0 ** 53 * step))
    uj, lj, hj, sj = us[j], lo[j], hi[j], step[j]
    # The secant of the tabulated G, then Newton on log G = log u in log s: s G' reuses the terms.
    with np.errstate(all="ignore"):  # a draw whose estimate goes non-finite fails the check below
        s = lj + (uj - g[k[j] - 1]) / (g[k[j]] - g[k[j] - 1]) * (hj - lj)
        for _ in range(3):  # s held in the cell, and at least one lattice step, where G > 0
            s = np.clip(s, np.maximum(lj, sj), hj)
            terms = _power_terms(theta, r, s)
            G = sum(terms)
            s *= np.exp((np.log(uj) - np.log(G)) * G / sum(e * t for e, t in zip(r, terms)))
        a = np.clip(np.floor(s / sj) * sj - 2 * sj, lj, hj - 4 * sj)
    b = a + 4 * sj
    ends = cdf(j, np.concatenate([a, b]))
    keep = (ends[:j.size] < uj) & (ends[j.size:] >= uj)
    lo[j[keep]], hi[j[keep]] = a[keep], b[keep]
    return _narrow(cdf, us, lo, hi, tol) / x


def _narrow(cdf, us, lo, hi, tol):
    """Bisect each draw's bracket [lo_j, hi_j] of the level u_j to tol_j; return the his.

    cdf(idx, ts) gives the draws idx at ts, each value computed alone, as a scalar call would.
    The open draws' brackets are carried compacted; a draw's hi is written back when it stops.
    """
    idx = np.flatnonzero(hi - lo > tol)
    uo, l, h, to = us[idx], lo[idx], hi[idx], tol[idx]
    while idx.size:
        mid = 0.5 * (l + h)
        up = cdf(idx, mid) >= uo
        l_next, h_next = np.where(up, l, mid), np.where(up, mid, h)
        # Stop at the tolerance, or where floats are too coarse for mid to split the bracket.
        go = (h_next - l_next > to) & (l < mid) & (mid < h)
        l, h = l_next, h_next
        if not go.all():
            hi[idx[~go]] = h[~go]
            idx, uo, l, h, to = idx[go], uo[go], l[go], h[go], to[go]
    return hi
