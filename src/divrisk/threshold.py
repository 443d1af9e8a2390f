"""The power family on sorted atoms: one monotone equation in a threshold.

For phi = kappa * phi_p, with phi_p the power divergence of order p (chi2:
p = 2, kappa = 2; power:p: kappa = 1), and r = 1/(p - 1), the optimal density
of rho at beta is a power of the excess over a threshold a, and t and the
shift follow from a in closed form:

    Z* = (X - a)_+^r / E(X - a)_+^r,   t* = (p - 1) (E(X - a)_+^r)^(1/r) / kappa,
    nu* = a + kappa t*/(p - 1).

E Z* = 1 holds by construction, and E phi(Z*) = beta becomes

    log E(X - a)_+^(r+1) - p log E(X - a)_+^r = log1p(p (p - 1) beta/kappa),

monotone in a.  This is the Hoelder form rho = min_a a + c ||(X - a)_+||_q of
the higher-moment risk measures (Krokhmal, Quant. Finance 7(4), 2007), as
Rockafellar's formula for AVaR is for p -> 1.  Only the atoms above a enter:
a suffix of the sorted atoms, which :class:`divrisk.EmpiricalDistribution`
keeps once sorted.  No pass of psi' or psi'' is made, and on a single row
the moment passes read only the suffix, where the excess is positive.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError

_EPS = float(np.finfo(float).eps)
_FLOOR = 1e-100        # lower end of the search in d, relative to the anchor's gap
_MAX_PROBES = 200


def sorted_rows(x, probs):
    """The rows of x (m, n) in stable ascending order, and their probabilities."""
    order = np.argsort(x, axis=1, kind="stable")
    return np.take_along_axis(x, order, axis=1), probs[order]


def _first_active(xs, xa, d2):
    """Row-wise index of the first atom with (x - xa) + d2 > 0 in the sorted
    rows xs (m, n), for xa below the row maximum and d2 >= 0."""
    if xs.shape[0] > 1:
        return np.count_nonzero((xs - xa[:, None]) + d2[:, None] <= 0.0, axis=1)
    row, a, d = xs[0], xa[0], d2[0]
    k = int(row.searchsorted(a - d))
    while k > 0 and (row[k - 1] - a) + d > 0.0:
        k -= 1
    while (row[k] - a) + d <= 0.0:
        k += 1
    return np.array([k])


def _suffix_moments(xs, ps, xa, d2, den, r, buf):
    """Row-wise E[e^(r-1); e > 0], E e^r and E e^(r+1) of e = ((xs - xa) + d2)/den
    clipped at 0, over sorted atoms xs (m, n) with probabilities ps, in the
    work buffer buf (2, >= m, >= n), whose pages stay mapped across probes."""
    m, n = xs.shape
    e = np.subtract(xs, xa[:, None], out=buf[0, :m, :n])
    e += d2[:, None]
    e *= (1.0 / den)[:, None]
    np.maximum(e, 0.0, out=e)
    g = buf[1, :m, :n]
    g = e if r == 1.0 else np.sqrt(e, out=g) if r == 0.5 else np.square(e, out=g) if r == 2.0 else np.power(e, r, out=g)
    high, mid = np.einsum("ij,ij,ij->i", ps, g, e), np.einsum("ij,ij->i", ps, g)
    return np.einsum("ij,ij->i", ps, np.divide(g, e, out=g, where=e > 0.0)), mid, high


def solve(x, probs, xs, ps, hi, spread, level, beta, target, g_tol, family, spec, passes):
    """Solve for the threshold row-wise; the rows of x (m, n) each have a root.

    xs, ps: the rows sorted stably, with their probabilities; hi, spread: row
    maximum and max - min; level: B(0+); target, g_tol: the B to aim at and
    the tolerance of a hit; family: (p, kappa); passes: counts the moment
    passes in ``suffix``.

    The search runs in v = log d, a = xa - spread d, below an anchor atom xa,
    first the largest atom below the maximum (above it B = B(0+)).  A probe
    is one pass over the active suffix for E e^(r-1), E e^r and E e^(r+1),
    e = (X - a)_+/(max X - a), which give B and

        dB/dv = -(d/D) (r + 1) (E e^(r-1)/E e^r - E e^r/E e^(r+1)) (B + 1/k),

    k = p (p - 1)/kappa, D = (max X - a)/spread.  Steps are Newton's on
    log(B/target), or on log(B(d = 0) - B) where B >= B(d = 0)/2, bracketed
    and safeguarded as the search in t of :mod:`divrisk.risk`, from the
    small-beta expansion E X - a = sqrt(Var X kappa/(2 beta))/(p - 1).  A
    bisection whose ends differ by one atom value probes at that atom; where
    B is still above the target there, the atom enters at the root with all
    its mass and becomes the anchor, so that a root within ulps of it is
    resolved.  A bracket that closes on adjacent floats without a hit moves
    the anchor in the same way, to the lowest atom active at its upper end.

    A probe within the tolerance or the moments' round-off of the target
    builds its density in the order of x, mean renormalised, and the row's
    probes take B as E phi of that density from then on: an end is accepted
    only on it.  The value is the primal objective E[X Z] + t (beta - E phi(Z)),
    whose terms do not cancel.  Returns (value, t, nu, residuals, density,
    probes), in units normalised to [-1, 0] about max X.
    """
    p, kappa = family
    r, k_phi = 1.0 / (p - 1.0), p * (p - 1.0) / kappa
    m = x.shape[0]
    rows = np.arange(m)
    ka = (np.array([xs[0].searchsorted(hi[0])]) if m == 1 else np.count_nonzero(xs < hi[:, None], axis=1)) - 1
    xa, level = xs[rows, ka], level.copy()
    mean = np.einsum("ij,j->i", x, probs)
    dev = x - mean[:, None]
    var = np.einsum("ij,j->i", np.square(dev, out=dev), probs)
    dev = buf = z_hi = None  # buf: the moments' work buffer, dropped while a density is checked
    d0 = (xa - mean + np.sqrt(var * kappa / (2.0 * beta)) / (p - 1.0)) / spread
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(d0 > 0.0, np.log(d0), np.log((hi - xa) / spread) - 1.0)
    v_lo, v_hi, b_lo, b, slope = np.full(m, -np.inf), np.full(m, np.inf), np.zeros(m), np.zeros(m), np.zeros(m)
    k_lo, k_hi, k = ka + 1, np.zeros_like(ka), np.zeros_like(ka)  # first active atom at v_lo, v_hi, v
    reach, moves = np.ones(m), np.full((2, m), np.inf)
    width_ref, h_ref, since = np.full(m, np.inf), np.full(m, np.inf), np.zeros(m)
    done, exact, kept, at_atom = (np.zeros(m, dtype=bool) for _ in range(4))
    x_atom, d, d_lo, d_hi = np.zeros((4, m))  # the atom probed at, where at_atom; d spread at v, v_lo, v_hi
    fit = np.zeros((3, m))  # E e^r, E phi(Z) and D at v_hi, where its density was checked
    for probes in range(1, _MAX_PROBES + 1):
        act = ~done
        idx = np.flatnonzero(act)
        # a probe at an atom takes d from the atom itself, so that the atom
        # sits exactly at the threshold rather than within round-off of it
        d[idx] = np.where(at_atom, xa - x_atom, spread * np.exp(v))[idx]
        hg, d2 = hi[idx] - xa[idx], d[idx]
        xs_a, ps_a = (xs, ps) if idx.size == m else (xs[idx], ps[idx])
        k[idx] = _first_active(xs_a, xa[idx], d2)
        if m == 1:  # the active suffix
            xs_a, ps_a = xs[:, k[0] :], ps[:, k[0] :]
        buf = np.empty((2,) + x.shape) if buf is None else buf
        low, mid, high = _suffix_moments(xs_a, ps_a, xa[idx], d2, hg + d2, r, buf)
        passes.suffix += 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_high, log_mid = np.log(high), np.log(mid)
            b[idx] = np.expm1(log_high - p * log_mid) / k_phi
            slope[idx] = -d2 / (hg + d2) * (r + 1.0) * (low / mid - mid / high) * (b[idx] + 1.0 / k_phi)
            noise = 16.0 * _EPS * (1.0 + p + np.abs(log_high) + p * np.abs(log_mid)) * (b[idx] + 1.0 / k_phi)
        check = exact[idx] | (np.abs(b[idx] - target) <= g_tol + noise)
        checked = np.zeros(m, dtype=bool)
        if check.any():
            buf, rc, d2c, den = None, idx[check], d2[check], hg[check] + d2[check]
            z = (x if rc.size == m else x[rc]) - xa[rc, None]
            z += d2c[:, None]
            z *= (1.0 / den)[:, None]
            np.maximum(z, 0.0, out=z)
            if r != 1.0:
                z **= r
            mass = np.einsum("ij,j->i", z, probs)
            z /= mass[:, None]
            b[rc], exact[rc], checked[rc] = np.einsum("ij,j->i", spec.phi(z), probs), True, True
            keep = b[rc] <= target + g_tol
            rk = rc[keep]
            if rk.size == m:
                z_hi = z
            elif rk.size:
                z_hi = np.empty_like(x) if z_hi is None else z_hi
                z_hi[rk] = z[keep]
            fit[:, rk] = mass[keep], b[rk], den[keep] / spread[rk]
        if not np.all(np.isfinite(b)):
            raise NumericsError("divergence expectation B is not finite")
        g = b - target
        hit, above, below = act & (np.abs(g) <= g_tol), act & (g > g_tol), act & (g <= g_tol)
        v_lo, b_lo, k_lo, d_lo = (np.where(above, new, old) for new, old in ((v, v_lo), (b, b_lo), (k, k_lo), (d, d_lo)))
        v_hi, k_hi, d_hi, kept = (np.where(below, new, old) for new, old in ((v, v_hi), (k, k_hi), (d, d_hi), (checked, kept)))
        has_lo, has_hi = np.isfinite(v_lo), np.isfinite(v_hi)
        v_floor = np.log((hi - xa) / spread * _FLOOR)
        closed = act & ~hit & ((has_lo & has_hi & (v_hi - v_lo <= 64.0 * _EPS * np.maximum(1.0, np.abs(v_hi))))
                               | (~has_lo & (v_hi <= v_floor)))
        # the lowest atom active at v_hi becomes the anchor where B stayed above
        # the target at a probe on it, since it enters at the root with all its
        # mass, and where the bracket closed without a hit: about the anchor d,
        # and so the root, resolve to their own precision, not to ulps of the gap
        moved = at_atom & above
        anchor = moved | (closed & (xs[rows, k_hi] != xa))
        if anchor.any():
            rc = np.flatnonzero(anchor)
            x_new = xs[rc, k_hi[rc]]
            # the ends keep the d they were probed at: the probe on the atom is
            # d = 0 about it, which leaves no lower end
            d_hi[rc], d_lo[rc] = (x_new - xa[rc]) + d_hi[rc], np.maximum((x_new - xa[rc]) + d_lo[rc], 0.0)
            with np.errstate(divide="ignore"):
                v_hi[rc], v_lo[rc] = np.log(d_hi[rc] / spread[rc]), np.log(d_lo[rc] / spread[rc])
            xa[rc], k_lo[rc], moves[:, rc], reach[rc] = x_new, k_hi[rc], np.inf, 1.0
            level[rc] = np.where(moved[rc], b_lo[rc], np.inf)  # B at d = 0, known only after a probe on the atom
            closed &= ~anchor
            has_lo, has_hi = np.isfinite(v_lo), np.isfinite(v_hi)
            v_floor = np.log((hi - xa) / spread * _FLOOR)
        width = v_hi - v_lo
        again = closed & ~kept  # an end reached on the moments alone is probed again, with its density
        done |= hit | (closed & kept)
        if done.all():
            break

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h = np.log(b / target)
            near = np.log((level - b) / (level - target)) * (level - b) / slope
            flat = (b >= 0.5 * level) & np.isfinite(near)
            step = np.where(flat, near, -h * b / slope)
            step = np.where((slope < 0.0) & np.isfinite(step) & ~anchor, step, np.nan)
        # progress: the bracket or |log(B/target)| halved within 3 probes
        halved = (width <= 0.5 * width_ref) | (np.abs(h) <= 0.5 * h_ref) | anchor
        width_ref, h_ref = np.where(halved, width, width_ref), np.where(halved & act, np.abs(h), h_ref)
        since = np.where(halved, 0.0, since + 1.0)
        # outward by the Newton step, at most by the reach except towards d = 0
        # on the flat side, where B departs from B(d = 0) like a power of d
        up = v_lo + np.fmin(step, reach)
        down = v_hi + np.where(np.isfinite(step) & (flat | (step >= -reach)), step, -reach)
        reach = np.where(has_lo & has_hi, reach, 2.0 * reach)
        # inside the bracket, the Newton step if it at most halves the move
        # before last and the search made progress, else a bisection
        cand = v + step
        take = (cand > v_lo) & (cand < v_hi) & (2.0 * np.abs(cand - v) <= moves[0]) & (since < 3.0)
        # a bisection whose ends differ by one atom value probes at that atom
        x_atom = xs[rows, np.minimum(k_hi, k_lo - 1)]
        with np.errstate(divide="ignore", invalid="ignore"):
            v_atom, mid = np.log((xa - x_atom) / spread), v_lo + 0.5 * width
        at_atom = (has_lo & has_hi & ~take & ~again & (k_lo > k_hi) & (x_atom == xs[rows, k_lo - 1])
                   & (v_atom > v_lo) & (v_atom < v_hi))
        inner = np.where(take, cand, np.where(at_atom, v_atom, mid))
        nxt = np.where(has_lo & has_hi, inner, np.maximum(np.where(has_hi, down, up), v_floor))
        # an outward step below the resolution of v moves it by one ulp, so
        # that a root between adjacent floats is bracketed (B falls in v)
        nxt = np.where(nxt == v, np.nextafter(v, np.where(g > 0.0, np.inf, -np.inf)), nxt)
        moves = np.where(act & ~anchor, np.stack((moves[1], np.abs(nxt - v))), moves)
        exact |= again
        v = np.where(done, v, np.where(again, v_hi, nxt))
        v_hi = np.where(again, np.inf, v_hi)
    else:
        raise NumericsError("threshold search for B = beta did not converge")
    mass, b_z, D = fit
    t_n, r2 = (p - 1.0) / kappa * D * mass ** (1.0 / r), beta - b_z
    value = np.einsum("ij,ij,j->i", z_hi, x - hi[:, None], probs) / spread + t_n * r2
    residuals = np.stack((1.0 - np.einsum("ij,j->i", z_hi, probs), r2), axis=1)
    return value, t_n, D * np.expm1(np.log(mass) / r), residuals, z_hi, probes
