"""Independent brute-force and scipy-based oracles.

Everything here deliberately avoids the library's own golden-section and
bisection routines: dense grids with local zoom, scipy optimizers, and
closed-form hand solutions only.  Each comparison in the tests therefore
crosses two independent code paths.
"""

import numpy as np
from scipy import optimize


def conjugate_oracle(phi, y, hi=200.0):
    """sup_{x >= 0} x*y - phi(x) by bounded scalar maximisation plus endpoints."""
    res = optimize.minimize_scalar(
        lambda x: phi(x) - x * y, bounds=(0.0, hi), method="bounded",
        options={"xatol": 1e-14},
    )
    cands = [-res.fun, -phi(0.0)]
    return max(cands)


def grid_zoom_min(f, lo, hi, npts=2000, levels=4, log=False):
    """Dense-grid minimisation with nested zoom; returns (x*, f*)."""
    for _ in range(levels):
        xs = np.geomspace(lo, hi, npts) if log else np.linspace(lo, hi, npts)
        vals = f(xs)
        k = int(np.nanargmin(vals))
        step = xs[min(k + 1, npts - 1)] - xs[max(k - 1, 0)]
        lo = max(lo, xs[max(k - 1, 0)])
        hi = min(hi, xs[min(k + 1, npts - 1)])
        if log:
            lo = max(lo, 1e-300)
    return xs[k], float(vals[k])


def evar_objective_oracle(atoms, probs, beta, t_lo=1e-12, t_hi=None):
    """inf_t t*beta + t*log E exp(X/t) for the KL divergence, stabilised.

    The log-sum-exp is shifted by the maximal atom so that the t -> 0 limit
    (the essential supremum) is evaluated without overflow.
    """
    x = np.asarray(atoms, float)
    p = np.asarray(probs, float)
    xmax = x.max()
    if t_hi is None:
        t_hi = max(10.0 * (x.max() - x.min() + 1.0) / beta, 1.0)

    def obj(ts):
        ts = np.asarray(ts, float)
        inner = np.dot(np.exp((x[None, :] - xmax) / ts[:, None]), p)
        return ts * beta + xmax + ts * np.log(inner)

    _, val = grid_zoom_min(obj, t_lo, t_hi, npts=4000, levels=4, log=True)
    return val


def primal_oracle_2d(atoms, probs, spec, beta):
    """Generic (log t, mu) cross-check by Nelder-Mead from several starts."""
    x = np.asarray(atoms, float)
    p = np.asarray(probs, float)

    def obj(v):
        t = np.exp(v[0])
        mu = v[1]
        with np.errstate(over="ignore"):
            vals = np.asarray(spec.psi(x / t - mu))
        out = t * (beta + mu + np.dot(p, vals))
        return out if np.isfinite(out) else 1e30

    best = np.inf
    spread = x.max() - x.min() + 1e-12
    for lt in (-2.0, 0.0, 1.0):
        for mu0 in (0.0, x.mean() / max(spread, 1e-12)):
            res = optimize.minimize(
                obj, np.array([lt + np.log(spread), mu0]), method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000, "maxfev": 6000},
            )
            best = min(best, res.fun)
    return best


def luxemburg_oracle(w, p, Phi, lo_fac=1e-6):
    """Root of E Phi(|X|/lambda) = 1 by scipy brentq."""
    w = np.abs(np.asarray(w, float))
    top = w.max()

    def g(lam):
        return float(np.dot(p, np.asarray(Phi(w / lam)))) - 1.0

    lo = top * lo_fac
    while g(lo) < 0:
        lo *= 0.5
        if lo < 1e-280:
            raise AssertionError("oracle bracket failed")
    return optimize.brentq(g, lo, top, xtol=1e-14, rtol=1e-15)


def one_variable_norm_oracle(w, p, fn, npts=3000):
    """Dense-grid version of inf_t t*(1 + E fn(|X|/t))."""
    w = np.abs(np.asarray(w, float))
    top = w.max()

    def obj(ts):
        with np.errstate(over="ignore"):
            vals = np.asarray(fn(w[None, :] / ts[:, None]))
        return ts * (1.0 + vals @ p)

    _, val = grid_zoom_min(obj, top * 1e-7, top * 1e4, npts=npts, levels=4, log=True)
    return val


def dual_norm_grid_oracle(w, p, spec, beta, n_lam=4000, n_c=2000):
    """2-D (lambda, c) brute force for the dual-norm characterization."""
    w = np.abs(np.asarray(w, float))
    p = np.asarray(p, float)
    ez = float(np.dot(p, w))
    if float(np.dot(p, np.asarray(spec.phi(w / ez)))) <= beta:
        return ez

    def c_on_grid(lam):
        scaled = w / lam
        cs = np.linspace(scaled.min(), 1.0, n_c)
        means = np.maximum(cs[:, None], scaled[None, :]) @ p
        return cs[int(np.argmin(np.abs(means - 1.0)))]

    lam_hi = ez
    for _ in range(100):
        lam_hi *= 2.0
        c = c_on_grid(lam_hi)
        if float(np.dot(p, np.asarray(spec.phi(np.maximum(c, w / lam_hi))))) <= beta:
            break
    lams = np.linspace(ez, lam_hi, n_lam)
    for lam in lams:
        c = c_on_grid(lam)
        if float(np.dot(p, np.asarray(spec.phi(np.maximum(c, w / lam))))) <= beta:
            return float(lam)
    return float(lam_hi)


def random_feasible_density(rng, dist, spec, beta):
    """A random member of the dual feasible set, via mixing towards Z == 1."""
    p = dist.probs
    z = rng.exponential(1.0, dist.n)
    z = z / float(np.dot(p, z))
    for gamma in np.linspace(0.0, 1.0, 201):
        cand = (1.0 - gamma) * z + gamma
        if float(np.dot(p, np.asarray(spec.phi(cand)))) <= beta:
            return cand
    return np.ones(dist.n)


def inner_shift_oracle(y, probs, spec, t):
    """Root of E psi'((y - nu)/t) = 1 in nu by scipy brentq.

    The bracket grows outward from [min y - t, max y + t] until the signs
    differ.  Returns (nu, |E psi'((y - nu)/t) - 1| at nu).
    """
    y = np.asarray(y, float)
    probs = np.asarray(probs, float)

    def f(nu):
        return float(np.dot(probs, np.asarray(spec.psi_prime((y - nu) / t)))) - 1.0

    lo, hi, width = y.min() - t, y.max() + t, t
    while f(lo) < 0:
        width *= 2.0
        lo = y.min() - width
    while f(hi) > 0:
        width *= 2.0
        hi = y.max() + width
    nu = optimize.brentq(f, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=2000)
    return nu, abs(f(nu))
