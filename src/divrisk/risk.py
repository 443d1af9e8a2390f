"""Divergence risk evaluation by the characterizing equations.

The risk of a loss X at aversion beta > 0 is

    rho(X) = inf_{t > 0, mu} t * (beta + mu + E psi(X/t - mu)),

a jointly convex problem.  The evaluator works in the translated variable
nu = t * mu.  For fixed t the inner first-order condition
E psi'((X - nu)/t) = 1 pins nu; nu is the shift variable of the optimized
certainty equivalent (Ben-Tal & Teboulle, Math. Finance 2007), and for kl
the objective in t is the entropic value-at-risk (Ahmadi-Javid, JOTA 2012).
The inner solve works on the exact bracket [min X - c*t, max X - c*t] with
c = phi'(1), takes safeguarded Newton steps built from the spec's psi''
(bisection steps for specs without one), and starts from the previous
probe's shift.  The derivative of the outer objective is beta - B(t) with
B(t) = E phi(psi'((X - nu)/t)), so interior optima solve the
characterizing system

    1    = E psi'((X - nu)/t),
    beta = E phi(psi'((X - nu)/t)),

whose solution also gives the optimal dual density Z* = psi'((X - nu)/t).

B is non-increasing in t, from B(0+) = phi(0)*(1 - p) + p*phi(1/p), with
p = P(X = esssup X), towards 0.  So the regime is decided exactly and
first, at O(n) cost: with beta < B(0+) the system has a root, found by a
safeguarded secant search on B(t) = beta in log t, and rho is the objective
at the root; otherwise the infimum is only approached as t -> 0, rho is the
essential supremum (attained=False), and the extreme density on the maximal
atoms is dual-optimal.  One core, ``_characterize``, returns the value,
(t*, mu*) and Z* together for every public entry point.  Inputs are
affinely normalised to [-1, 0] before searching, so brackets are
instance-independent: positive homogeneity and translation equivariance make
this exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .divergence import DivergenceSpec
from .empirical import EmpiricalDistribution
from .errors import InvalidParameterError, NumericsError

__all__ = [
    "RiskEvaluation",
    "evaluate_primal",
    "evaluate_primal_batch",
    "solve_characterizing_equations",
    "alpha_bar",
    "is_attained",
]

_T_FLOOR = 1e-100        # lower end of the search in t
_OUTER_MAX_ITERS = 200   # probes in t allowed per evaluation
_B_RTOL = 1e-12          # B(t) at the end of the search is within this of beta, relatively
_WIDEN_ITERS = 64        # doublings allowed for a failed inner bracket end
_INNER_MAX_ITERS = 100   # Newton/bisection steps allowed per inner solve
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RiskEvaluation:
    """Value of rho(X) with optimizers and first-order diagnostics.

    ``residuals`` holds the gaps of the characterizing equations at
    (t_star, mu_star); both are absent when the infimum is not attained.
    """

    value: float
    t_star: Optional[float]
    mu_star: Optional[float]
    attained: bool
    residuals: Optional[Tuple[float, float]]
    density: np.ndarray = field(compare=False, repr=False)


def _check_beta(beta) -> float:
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0:
        raise InvalidParameterError(f"risk aversion beta must be positive, got {beta!r}")
    return beta


def _expect(vals, probs):
    """Row-wise E vals.  einsum keeps this single-threaded and free of
    temporaries; a BLAS matrix-vector product pays a thread wake-up on every
    call, which costs more than the sum itself at these sizes."""
    return np.einsum("ij,j->i", np.asarray(vals), probs)


def _solve_inner_nu(y, probs, spec, t, nu0=None):
    """Solve E psi'((y - nu)/t) = 1 for nu, row-wise; returns (nu, z, psi'(z)).

    y: (m, n) atoms, t: (m,) positive, nu0: optional (m,) starting shifts,
    typically those of the previous probe in t.  The residual
    f(nu) = E psi'((y - nu)/t) - 1 is non-increasing in nu.  With
    c = phi'(1), Fenchel equality at x = 1 gives psi'(c) = 1, so
    [min y - c*t, max y - c*t] is an exact bracket: f >= 0 at its left end
    and f <= 0 at its right end.  At max y - t*phi'(1/p), with p the mass at
    max y, the maximal atoms alone carry E psi' = 1, so that is a left end
    too; the larger of the two keeps psi' finite at small t.  The first
    iterate is nu0 (clipped into the bracket) or the right end.
    :func:`_bracketed_shift` then closes the bracket on adjacent floats.

    A float nu resolves the arguments (y - nu)/t only to ulp(nu)/t, which at
    small t can leave f far from zero.  When it does on any row, the rows
    are solved again in units of t from the atom a nearest the shift,
    nu = a + t*d with arguments (y - a)/t - d, inside the same bracket: an
    atom within a few t of the shift then keeps the precision of its
    argument however small t is.  The float nu stays the end of the first
    solve; z = (y - nu)/t and psi'(z) come from the more precise solve.  Where even that leaves f
    beyond round-off (psi' of power:p, p > 2, has an edge of infinite slope
    and jumps between adjacent floats there), psi' is interpolated linearly
    between its two bracket ends, to the point where its mean is 1.
    """
    m = y.shape[0]
    tcol = t[:, None]
    row_min = y.min(axis=1)
    row_max = y.max(axis=1)
    c = float(spec.phi_prime(1.0))
    # psi'(z) <= 1/p_top at the maximal atoms gives a second left end; it
    # may overflow to -inf, leaving the first
    p_top = _expect(y == row_max[:, None], probs)
    with np.errstate(over="ignore"):
        left = np.maximum(row_min - c * t, row_max - t * np.asarray(spec.phi_prime(1.0 / p_top)))
    right = row_max - c * t
    start = right if nu0 is None else np.clip(nu0, left, right)
    # round-off of a sum of n terms near one: f within it of zero is a root
    f_tol = 4.0 * _EPS * math.sqrt(y.shape[1])

    def at_shift(nu):
        z = y - nu[:, None]
        z /= tcol
        w = np.asarray(spec.psi_prime(z))
        return _expect(w, probs) - 1.0, z, w

    x_floor = np.maximum(np.abs(row_min), np.abs(row_max))
    nu, f, z, w, lo, hi = _bracketed_shift(at_shift, probs, spec, c, t, x_floor, f_tol, left, right, start)
    if np.all(np.abs(f) <= f_tol):
        return nu, z, w

    anchor = y[np.arange(m), np.abs(y - nu[:, None]).argmin(axis=1)]
    u = (y - anchor[:, None]) / tcol

    def at_offset(d):
        z = u - d[:, None]
        w = np.asarray(spec.psi_prime(z))
        return _expect(w, probs) - 1.0, z, w

    d, f, z, w, lo, hi = _bracketed_shift(at_offset, probs, spec, c, 1.0, 1.0, f_tol,
                                          (lo - anchor) / t, (hi - anchor) / t, (nu - anchor) / t)
    # psi' with an edge of infinite slope (power:p, p > 2) can jump across
    # adjacent floats; between the bracket ends it is interpolated linearly,
    # to the point where its mean is 1
    if np.any(np.abs(f) > f_tol):
        f_far, _, w_far = at_offset(np.where(d == lo, hi, lo))
        mix = (np.abs(f) > f_tol) & (f * f_far < 0.0) & np.isfinite(f_far)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            lam = (f_far / (f_far - f))[:, None]
            w = np.where(mix[:, None], lam * w + (1.0 - lam) * w_far, w)
    return nu, z, w


def _bracketed_shift(residual, probs, spec, c, scale, x_floor, f_tol, lo, hi, x):
    """Root of the non-increasing f on [lo, hi] from x, row-wise.

    residual(x) returns (f, z, psi'(z)) with z the arguments of psi' at x,
    which move by -1/scale per unit of x.  The first iterate replaces the
    bracket end on its side; unless it already solves the equation, one
    further evaluation checks the other end.  Both signs are checked; an end
    whose check fails (round-off in the probabilities, or an inexact numeric
    psi') is moved outward by doubling steps.

    Each following step is a Newton step when ``spec.psi_second`` exists,
    the step lands inside the bracket and it at most halves the step before
    last (the rtsafe safeguard); otherwise it bisects, in asinh(x/x_floor)
    while the bracket is wider than x_floor.  The Newton step solves
    phi'(E psi') = phi'(1) rather than E psi' = 1: phi' inverts psi', so that
    map is linear in x while a single atom carries E psi', and for kl it is
    linear always, which makes one step exact.  A row stops when |f| <= f_tol
    or its bracket is closed: its ends are adjacent floats (a Newton step
    shorter than that is lengthened to close the bracket) or narrower than
    eps/1024 of max(x_floor, |lo|, |hi|), which caps the bisection steps for
    a root near zero.  Returns the bracket end with the smaller |f|, f, z
    and psi'(z) there, and the final bracket.  Raises NumericsError when
    either loop runs out of iterations.
    """
    x = np.clip(x, lo, hi)
    f, z, w = residual(x)
    above = f > 0.0
    if np.all(np.abs(f) <= f_tol):
        f_other = np.where(above, -np.inf, np.inf)
    else:
        f_other = residual(np.where(above, hi, lo))[0]
    lo, f_lo = np.where(above, x, lo), np.where(above, f, f_other)
    hi, f_hi = np.where(above, hi, x), np.where(above, f_other, f)
    width = hi - lo + x_floor
    for _ in range(_WIDEN_ITERS):
        bad_lo, bad_hi = f_lo < -f_tol, f_hi > f_tol
        if not (bad_lo.any() or bad_hi.any()):
            break
        # f is monotone, so at most one end per row fails, and the failed end
        # is a valid end on the other side
        if bad_lo.any():
            hi, f_hi = np.where(bad_lo, lo, hi), np.where(bad_lo, f_lo, f_hi)
            lo = np.where(bad_lo, lo - width, lo)
            f_lo = np.where(bad_lo, residual(lo)[0], f_lo)
        if bad_hi.any():
            lo, f_lo = np.where(bad_hi, hi, lo), np.where(bad_hi, f_hi, f_lo)
            hi = np.where(bad_hi, hi + width, hi)
            f_hi = np.where(bad_hi, residual(hi)[0], f_hi)
        width = 2.0 * width
    else:
        raise NumericsError("inner shift bracket widening exhausted")

    def closed(lo, hi):
        x_tol = _EPS / 1024.0 * np.maximum(x_floor, np.maximum(np.abs(lo), np.abs(hi)))
        return (hi <= np.nextafter(lo, np.inf)) | (hi - lo <= x_tol)

    done = (np.abs(f_lo) <= f_tol) | (np.abs(f_hi) <= f_tol) | closed(lo, hi)
    step = step_old = hi - lo
    for _ in range(_INNER_MAX_ITERS):
        if done.all():
            break
        nxt = x_floor * np.sinh(0.5 * (np.arcsinh(lo / x_floor) + np.arcsinh(hi / x_floor)))
        nxt = np.where((hi - lo > x_floor) & (nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
        if spec.psi_second is not None:
            # Newton on phi'(E psi') = c, using phi''(F) = 1 / psi''(phi'(F));
            # a step that is not finite (psi' overflowed at x) is not taken
            g = np.asarray(spec.phi_prime(f + 1.0))
            dg = np.asarray(spec.psi_second(g))
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                dx = scale * (g - c) * dg / _expect(spec.psi_second(z), probs)
            # a step below resolution is lengthened so that the bracket closes
            least = np.maximum(np.abs(np.spacing(x)), _EPS / 1024.0 * x_floor)
            dx = np.where(np.abs(dx) < least, np.copysign(least, f), dx)
            newton = x + dx
            take = (dg > 0.0) & (newton >= lo) & (newton <= hi) & (2.0 * np.abs(dx) <= step_old)
            nxt = np.where(take, newton, nxt)
        step_old, step = step, np.abs(nxt - x)
        x = np.where(done, x, nxt)
        f, z, w = residual(x)
        above = (f > 0.0) & ~done
        below = (f <= 0.0) & ~done
        lo, f_lo = np.where(above, x, lo), np.where(above, f, f_lo)
        hi, f_hi = np.where(below, x, hi), np.where(below, f, f_hi)
        done |= (np.abs(f) <= f_tol) | closed(lo, hi)
    if not done.all():
        raise NumericsError("inner shift solve did not converge")
    best = np.abs(f_lo) <= np.abs(f_hi)
    x_best, f_best = np.where(best, lo, hi), np.where(best, f_lo, f_hi)
    if np.any(x_best != x):
        _, z, w = residual(x_best)
    return x_best, f_best, z, w, lo, hi


def _extreme_divergence(spec, p_top, p_rest):
    """E phi(Z) of the extreme density Z = 1{X = esssup} / p_top, which is
    B(0+), the small-t limit of B(t).  p_rest = P(X < esssup) is passed on
    its own: 1 - p_top loses its digits when p_top is near 1."""
    return spec.phi_at_zero * p_rest + p_top * np.asarray(spec.phi(1.0 / p_top))


def _regime(x, probs, spec, beta):
    """Row-wise regime of the loss rows x (m, n): (const, top, attained).

    ``top`` marks the atoms at each row's maximum.  B(t) decreases from
    B(0+) towards 0, so the characterizing equations have a root exactly
    when beta < B(0+); constant rows never have one.
    """
    lo = x.min(axis=1)
    hi = x.max(axis=1)
    const = hi - lo <= 1e-15 * np.maximum(1.0, np.abs(lo))
    top = x == hi[:, None]
    level = _extreme_divergence(spec, _expect(top, probs), _expect(~top, probs))
    return const, top, ~const & (beta < level)


def _root_in_log_t(y, probs, spec, beta, attained):
    """Solve B(t) = E phi(psi'((y - nu(t))/t)) = beta in s = log t, row-wise.

    y: (m, n) rows normalised to [-1, 0]; attained: (m,) regime of each row.
    B is non-increasing in t.  On a row with a root the search aims below
    beta, at beta*(1 - _B_RTOL/2), and accepts a probe within _B_RTOL*beta/4
    of that target: beta - B >= _B_RTOL*beta/4 is then a margin over
    round-off that keeps the density feasible.  On a row without one it aims
    at beta itself, which at beta = B(0+) accepts the flat end of B.

    The bracket [s_lo, s_hi] keeps B above the target at s_lo and at most
    the target at s_hi.  The search starts at t = 1/(1 + beta) and steps
    outward by doubling steps in s until both ends exist; the lower end stops
    at _T_FLOOR, where rows without a root above the floor stop too.  Then
    come secant steps on log(B/target), which is near linear in s where B
    spans orders of magnitude, through the last two probes.  A secant step
    is taken when it lands inside the bracket and at most halves the move
    before last (the rtsafe safeguard); otherwise, or when neither the
    bracket nor |log(B/target)| has halved within 3 steps, the bracket is
    bisected.  The secant runs through the last two probes rather than the
    bracket ends (regula falsi, Illinois): B of a spec whose psi' vanishes
    below a point is flat near t = 0 and then drops steeply, and a secant
    through two probes on the drop finds the root where one through the
    bracket ends creeps.  A row stops at an accepted probe, which becomes
    s_hi, or when the bracket is a few ulps wide.  Each probe's shifts
    warm-start the next probe.

    Returns (t, nu) at s_hi, where B < beta on rows with a root.
    """
    m = y.shape[0]
    s_floor = math.log(_T_FLOOR)
    target = beta * (1.0 - 0.5 * _B_RTOL * attained)
    g_tol = 0.25 * _B_RTOL * beta
    s = np.full(m, -math.log1p(beta))
    s_lo, s_hi, nu_hi = np.full(m, -np.inf), np.full(m, np.inf), np.zeros(m)
    s_prev, h_prev = np.full(m, np.nan), np.full(m, np.nan)
    reach = np.ones(m)
    moves = np.full((2, m), np.inf)  # the last two moves in s
    width_ref, h_ref, since = np.full(m, np.inf), np.full(m, np.inf), np.zeros(m)
    nu = None
    done = np.zeros(m, dtype=bool)
    for _ in range(_OUTER_MAX_ITERS):
        act = ~done
        idx = np.flatnonzero(act)
        rows = y if idx.size == m else y[idx]
        nu_act, _, w = _solve_inner_nu(rows, probs, spec, np.exp(s[idx]), None if nu is None else nu[idx])
        if nu is None:  # the first probe covers every row
            nu = nu_act
        else:
            nu[idx] = nu_act
        # B of the density with its mean renormalised, as solve_dual returns
        # it, so that the margin also covers the inner solve's residual
        w /= _expect(w, probs)[:, None]
        b = np.array(target)
        b[idx] = _expect(spec.phi(w), probs)
        del w
        if not np.all(np.isfinite(b)):
            raise NumericsError("divergence expectation B(t) is not finite")
        g = b - target
        with np.errstate(divide="ignore"):
            h = np.log(b / target)

        hit = act & (np.abs(g) <= g_tol)
        above = act & (g > 0.0) & ~hit
        below = act & ((g <= 0.0) | hit)
        s_lo = np.where(above, s, s_lo)
        s_hi, nu_hi = np.where(below, s, s_hi), np.where(below, nu, nu_hi)
        has_lo, has_hi = np.isfinite(s_lo), np.isfinite(s_hi)
        width = s_hi - s_lo
        done |= hit | (~has_lo & (s_hi <= s_floor))
        done |= has_lo & has_hi & (width <= 64.0 * _EPS * np.maximum(1.0, np.abs(s_hi)))
        if done.all():
            break

        expand = np.where(has_hi, np.maximum(s_hi - reach, s_floor), s_lo + reach)
        reach = np.where(has_lo & has_hi, reach, 2.0 * reach)
        # progress: the bracket or |log(B/target)| halved
        halved = (width <= 0.5 * width_ref) | (np.abs(h) <= 0.5 * h_ref)
        width_ref = np.where(halved, width, width_ref)
        h_ref = np.where(halved & act, np.abs(h), h_ref)
        since = np.where(halved, 0.0, since + 1.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            secant = s - h * (s - s_prev) / (h - h_prev)
        # as in rtsafe, a secant step must also at most halve the move
        # before last, which stops it from creeping along a flat stretch
        take = (secant > s_lo) & (secant < s_hi) & (2.0 * np.abs(secant - s) <= moves[0])
        inner = np.where(take & (since < 3.0), secant, 0.5 * (s_lo + s_hi))
        nxt = np.where(has_lo & has_hi, inner, expand)
        moves = np.where(act, np.stack((moves[1], np.abs(nxt - s))), moves)
        s_prev, h_prev = np.where(act, s, s_prev), np.where(act, h, h_prev)
        s = np.where(done, s, nxt)
    else:
        raise NumericsError("outer search for B(t) = beta did not converge")
    return np.exp(s_hi), nu_hi


class _Solution(NamedTuple):
    """Row-wise output of :func:`_characterize`, in the units of the input.

    t and mu are NaN on constant rows; on rows without a root they are
    where the search stopped, which only :func:`solve_characterizing_equations`
    reads.
    """

    value: np.ndarray
    t: np.ndarray
    mu: np.ndarray
    density: np.ndarray
    attained: np.ndarray
    residuals: np.ndarray  # (m, 2): 1 - E Z and beta - E phi(Z) at (t, mu)


def _characterize(x, probs, spec, beta) -> _Solution:
    """The characterizing-equation core for the loss rows x (m, n).

    Rows are affinely normalised to [-1, 0], maximum at 0 (exact by positive
    homogeneity and translation equivariance), so that a shift near the
    maximum, where small t puts it, keeps its relative precision.  With a
    root, rho = q(t*) = t*beta + nu + t E psi((X - nu)/t) and
    Z* = psi'((X - nu)/t) at the end of the search where E phi(Z*) <= beta;
    without one, rho = esssup and Z* is the extreme density on the maximal
    atoms.  Constant rows have rho = X and Z* = 1.
    """
    m = x.shape[0]
    const, top, attained = _regime(x, probs, spec, beta)
    lo, hi = x.min(axis=1), x.max(axis=1)
    spread = hi - lo
    value = np.where(const, lo, hi)
    t, mu, residuals = np.full(m, np.nan), np.full(m, np.nan), np.full((m, 2), np.nan)
    idx = np.flatnonzero(~const)
    if idx.size:
        y = (x[idx] - hi[idx, None]) / spread[idx, None]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            t_n, nu_n = _root_in_log_t(y, probs, spec, beta, attained[idx])
            # Z* is evaluated once, at the end the search returned
            nu_n, z, w = _solve_inner_nu(y, probs, spec, t_n, nu_n)
            q = t_n * beta + nu_n + t_n * _expect(spec.psi(z), probs)
            residuals[idx, 0] = 1.0 - _expect(w, probs)
            residuals[idx, 1] = beta - _expect(spec.phi(w), probs)
        del y, z  # before the density is built: the peak memory stays lower
        root = attained[idx]
        rows = idx[root]
        value[rows] = hi[rows] + spread[rows] * np.minimum(q[root], 0.0)
        t[idx] = spread[idx] * t_n
        mu[idx] = (hi[idx] + spread[idx] * nu_n) / t[idx]
    # Z*: the extreme density, 1 on constant rows, and psi' at the end of
    # the search on rows with a root (which are all among the rows searched)
    density = top / _expect(top, probs)[:, None]
    density[const] = 1.0
    if attained.any():
        density[attained] = w[root]
    return _Solution(value, t, mu, density, attained, residuals)


def evaluate_primal_batch(atoms, probs, spec: DivergenceSpec, beta) -> np.ndarray:
    """rho for many loss vectors sharing one probability vector.

    atoms: (m, n) matrix, one loss vector per row; probs: (n,).  Returns the
    (m,) vector of risk values.  This is the same solver as evaluate_primal,
    vectorised across rows.
    """
    beta = _check_beta(beta)
    y = np.asarray(atoms, dtype=float)
    if y.ndim != 2:
        raise InvalidParameterError("atoms must be a (m, n) matrix")
    return _characterize(y, np.asarray(probs, dtype=float), spec, beta).value


def evaluate_primal(dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> RiskEvaluation:
    """Evaluate rho(X) for one empirical distribution.

    Returns the optimal (t, mu) and the characterizing-equation residuals
    when the infimum is attained (exactly when ``is_attained`` holds);
    otherwise the essential supremum with attained=False (constant X always
    lands in that branch, its infimum is approached as t -> 0).  ``density``
    is the dual-optimal Z* in either case.
    """
    beta = _check_beta(beta)
    sol = _characterize(dist.atoms[None, :], dist.probs, spec, beta)
    value, density = float(sol.value[0]), sol.density[0]
    if not sol.attained[0]:
        return RiskEvaluation(value, None, None, False, None, density)
    t_star, mu_star = float(sol.t[0]), float(sol.mu[0])
    residuals = _equation_residuals(dist, spec, beta, t_star, mu_star)
    return RiskEvaluation(value, t_star, mu_star, True, residuals, density)


def _equation_residuals(dist, spec, beta, t, mu):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        z = np.asarray(spec.psi_prime(dist.atoms / t - mu))
        r1 = 1.0 - float(np.einsum("i,i->", dist.probs, z))
        r2 = beta - float(np.einsum("i,i->", dist.probs, np.asarray(spec.phi(z))))
    return r1, r2


def solve_characterizing_equations(
    dist: EmpiricalDistribution, spec: DivergenceSpec, beta, residual_tol: float = 1e-9
):
    """Solve 1 = E psi'(X/t - mu), beta = E phi(psi'(X/t - mu)) for (t, mu).

    Runs the core of evaluate_primal: for fixed t the first equation pins mu,
    and B(t) = E phi(psi'(.)) decreases from B(0+) towards 0 as t grows, so
    the second equation is a monotone root-finding problem in log t.  A root
    exists exactly when beta < B(0+) (see ``is_attained``).  At
    beta = B(0+), B only approaches beta as t -> 0; the search then stops at
    the first t where B is within 1e-12 of beta, an approximate root.
    Returns (t_star, mu_star) when both residuals there are at most
    ``residual_tol``, else None (constant X, or beta beyond the boundary).
    """
    beta = _check_beta(beta)
    sol = _characterize(dist.atoms[None, :], dist.probs, spec, beta)
    if not np.all(np.abs(sol.residuals[0]) <= residual_tol):  # NaN for constant X
        return None
    return float(sol.t[0]), float(sol.mu[0])


def alpha_bar(spec: DivergenceSpec, beta) -> float:
    """Largest alpha in [0, 1) with phi(0)*alpha + phi(1/(1-alpha))*(1-alpha) <= beta.

    The left side is non-decreasing in alpha and explodes as alpha -> 1 by
    superlinear growth, so bisection on the feasibility predicate applies.
    The convention 0*alpha = 0 is used when phi(0) = 0.
    """
    beta = _check_beta(beta)

    def load(alpha: float) -> float:
        return float(_extreme_divergence(spec, 1.0 - alpha, alpha))

    lo, hi = 0.0, 1.0 - 1e-15
    if load(hi) <= beta:
        return hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if load(mid) <= beta:
            lo = mid
        else:
            hi = mid
    return lo


def is_attained(dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> bool:
    """Exact attainability test: beta < B(0+) = phi(0)*(1 - p) + p*phi(1/p),
    with p = P(X = esssup X).

    B(0+) is E phi of the extreme density on the maximal atoms, so this is
    P(X = esssup X) < 1 - alpha_bar(spec, beta) evaluated without bisection.
    Constant X is never attained.  evaluate_primal reports the same regime.
    """
    beta = _check_beta(beta)
    return bool(_regime(dist.atoms[None, :], dist.probs, spec, beta)[2][0])
