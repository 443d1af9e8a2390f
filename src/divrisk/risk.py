"""Divergence risk evaluation by the primal infimum formula.

The risk of a loss X at aversion beta > 0 is

    rho(X) = inf_{t > 0, mu} t * (beta + mu + E psi(X/t - mu)),

a jointly convex problem.  The evaluator works in the translated variable
nu = t * mu, solving the inner first-order condition E psi'((X - nu)/t) = 1
for nu and minimising the resulting one-variable objective over log t by
golden section.  nu is the shift variable of the optimized certainty
equivalent (Ben-Tal & Teboulle, Math. Finance 2007); for kl the objective in
t is the entropic value-at-risk (Ahmadi-Javid, JOTA 2012).  The inner solve
works on the exact bracket [min X - c*t, max X - c*t] with c = phi'(1),
takes safeguarded Newton steps built from the spec's psi'' (bisection steps
for specs without one), and starts from the previous probe's shift.  The
derivative of the outer objective is beta - E phi(psi'((X - nu)/t)), so
interior optima solve the characterizing system

    1    = E psi'((X - nu)/t),
    beta = E phi(psi'((X - nu)/t)),

whose solutions also deliver the optimal dual density (see divrisk.dual).

When the infimum is only approached as t -> 0 the evaluation reports
attained=False and the essential supremum, which is the limiting value.
Inputs are affinely normalised to [0, 1] before searching, so brackets are
instance-independent: positive homogeneity and translation equivariance make
this exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._search import golden_min
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

_T_FLOOR = 1e-13       # left end of the log-t bracket
_ATTAIN_CUTOFF = 1e-10  # below this t the infimum is treated as unattained
_GOLDEN_ITERS = 60
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
    """Solve E psi'((y - nu)/t) = 1 for nu, row-wise.

    y: (m, n) atoms, t: (m,) positive, nu0: optional (m,) starting shifts,
    typically those of the previous probe in t.  The residual
    f(nu) = E psi'((y - nu)/t) - 1 is non-increasing in nu.  With
    c = phi'(1), Fenchel equality at x = 1 gives psi'(c) = 1, so
    [min y - c*t, max y - c*t] is an exact bracket: f >= 0 at its left end
    and f <= 0 at its right end.  Both signs are checked; an end whose check
    fails (round-off in the probabilities, or an inexact numeric psi') is
    moved outward by doubling steps.  The first iterate is nu0 (clipped into
    the bracket) or the right end, and it replaces the bracket end on its
    side, so one further evaluation checks the other end.

    Each following step is a Newton step when ``spec.psi_second`` exists,
    the step lands inside the bracket and it at most halves the step before
    last (the rtsafe safeguard); otherwise it bisects.  The Newton step
    solves phi'(E psi') = phi'(1) rather than E psi' = 1: phi' inverts psi',
    so that map is linear in nu while a single atom carries E psi', and for
    kl it is linear always, which makes one step exact.  A row stops when |f|
    is at round-off or its bracket ends are adjacent floats (a Newton step
    shorter than one ulp is lengthened to close the bracket), and returns the
    bracket end with the smaller |f|.  Raises NumericsError when either loop
    runs out of iterations.
    """
    tcol = t[:, None]

    def residual(nu):
        z = y - nu[:, None]
        z /= tcol
        return _expect(spec.psi_prime(z), probs) - 1.0, z

    row_min = y.min(axis=1)
    row_max = y.max(axis=1)
    c = float(spec.phi_prime(1.0))
    lo, hi = row_min - c * t, row_max - c * t
    # the first iterate replaces the bracket end on its side, so only the
    # other end needs a check of its own
    x = hi if nu0 is None else np.clip(nu0, lo, hi)
    f, z = residual(x)
    above = f > 0.0
    f_other = residual(np.where(above, hi, lo))[0]
    lo, f_lo = np.where(above, x, lo), np.where(above, f, f_other)
    hi, f_hi = np.where(above, hi, x), np.where(above, f_other, f)
    # round-off of a sum of n terms near one: an end within it of zero is a
    # root whatever its sign
    f_tol = 4.0 * _EPS * math.sqrt(y.shape[1])
    width = row_max - row_min + t
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

    # a bracket is closed when its ends are adjacent floats, or narrower
    # than x_tol, which caps the bisection steps for a root near zero
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), np.maximum(np.abs(row_min), np.abs(row_max)))
    x_tol = _EPS * scale / 1024.0

    def closed(lo, hi):
        return (hi <= np.nextafter(lo, np.inf)) | (hi - lo <= x_tol)

    done = (np.abs(f_lo) <= f_tol) | (np.abs(f_hi) <= f_tol) | closed(lo, hi)
    step = step_old = hi - lo
    for _ in range(_INNER_MAX_ITERS):
        if done.all():
            break
        nxt = 0.5 * (lo + hi)
        if spec.psi_second is not None:
            # Newton on phi'(E psi') = c, using phi''(F) = 1 / psi''(phi'(F))
            w = np.asarray(spec.phi_prime(f + 1.0))
            dw = np.asarray(spec.psi_second(w))
            d = t * (w - c) * dw / _expect(spec.psi_second(z), probs)
            # a step below resolution is lengthened so that the bracket closes
            least = np.maximum(np.abs(np.spacing(x)), x_tol)
            d = np.where(np.abs(d) < least, np.copysign(least, f), d)
            newton = x + d
            take = (dw > 0.0) & (newton >= lo) & (newton <= hi) & (2.0 * np.abs(d) <= step_old)
            nxt = np.where(take, newton, nxt)
        step_old, step = step, np.abs(nxt - x)
        x = np.where(done, x, nxt)
        f, z = residual(x)
        above = (f > 0.0) & ~done
        below = (f <= 0.0) & ~done
        lo, f_lo = np.where(above, x, lo), np.where(above, f, f_lo)
        hi, f_hi = np.where(below, x, hi), np.where(below, f, f_hi)
        done |= (np.abs(f) <= f_tol) | closed(lo, hi)
    if not done.all():
        raise NumericsError("inner shift solve did not converge")
    return np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)


def _objective_of_t(y, probs, spec, beta, t, nu0=None):
    """q(t) = t*beta + nu*(t) + t * E psi((y - nu*)/t) row-wise."""
    nu = _solve_inner_nu(y, probs, spec, t, nu0)
    vals = np.asarray(spec.psi((y - nu[:, None]) / t[:, None]))
    return t * beta + nu + t * (vals * probs).sum(axis=1), nu


def _minimise_rows(y, probs, spec, beta):
    """Minimise q over t for rows of y normalised to [0, 1].

    Returns (value, t_star, nu_star) per row; rows whose best t collapses to
    the bracket floor report the essential supremum (here 1.0).
    """
    m = y.shape[0]
    log_lo = np.full(m, math.log(_T_FLOOR))
    log_hi = np.full(m, max(math.log(2.0 / beta), math.log(_T_FLOOR) + 1.0))

    nu_prev = None  # each probe's shifts warm-start the next probe

    def q_of_log_t(log_t):
        nonlocal nu_prev
        q, nu_prev = _objective_of_t(y, probs, spec, beta, np.exp(log_t), nu_prev)
        return q

    for _ in range(3):
        log_t_best, q_best = golden_min(q_of_log_t, log_lo, log_hi, iters=_GOLDEN_ITERS)
        at_right = log_t_best > log_hi - 0.05 * (log_hi - log_lo)
        if not at_right.any():
            break
        log_hi = np.where(at_right, log_hi + math.log(8.0), log_hi)

    t_best = np.exp(log_t_best)
    _, nu_best = _objective_of_t(y, probs, spec, beta, t_best, nu_prev)
    attained = t_best > _ATTAIN_CUTOFF
    value = np.where(attained, q_best, np.minimum(q_best, 1.0))
    return value, t_best, nu_best, attained


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
    p = np.asarray(probs, dtype=float)
    values = np.empty(y.shape[0])

    lo = y.min(axis=1)
    spread = y.max(axis=1) - lo
    const = spread <= 1e-15 * np.maximum(1.0, np.abs(lo))
    values[const] = lo[const]
    if (~const).any():
        ynorm = (y[~const] - lo[~const, None]) / spread[~const, None]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            val, _, _, _ = _minimise_rows(ynorm, p, spec, beta)
        values[~const] = lo[~const] + spread[~const] * val
    return values


def evaluate_primal(dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> RiskEvaluation:
    """Evaluate rho(X) for one empirical distribution.

    Returns the optimal (t, mu) and the characterizing-equation residuals
    when the infimum is attained; otherwise the essential supremum with
    attained=False (constant X always lands in that branch, its infimum is
    approached as t -> 0).
    """
    beta = _check_beta(beta)
    x = dist.atoms
    p = dist.probs
    lo = dist.essinf
    spread = dist.esssup - lo
    if spread <= 1e-15 * max(1.0, abs(lo)):
        return RiskEvaluation(value=lo, t_star=None, mu_star=None, attained=False, residuals=None)

    ynorm = (x[None, :] - lo) / spread
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        val, t_n, nu_n, attained = _minimise_rows(ynorm, p, spec, beta)
    value = lo + spread * float(val[0])
    if not bool(attained[0]):
        return RiskEvaluation(value=value, t_star=None, mu_star=None, attained=False, residuals=None)

    t_star = spread * float(t_n[0])
    mu_star = (lo + spread * float(nu_n[0])) / t_star
    r1, r2 = _equation_residuals(dist, spec, beta, t_star, mu_star)
    return RiskEvaluation(value=value, t_star=t_star, mu_star=mu_star, attained=True, residuals=(r1, r2))


def _equation_residuals(dist, spec, beta, t, mu):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        z = np.asarray(spec.psi_prime(dist.atoms / t - mu))
        r1 = 1.0 - float(np.dot(dist.probs, z))
        r2 = beta - float(np.dot(dist.probs, np.asarray(spec.phi(z))))
    return r1, r2


def solve_characterizing_equations(
    dist: EmpiricalDistribution, spec: DivergenceSpec, beta, residual_tol: float = 1e-9
):
    """Solve 1 = E psi'(X/t - mu), beta = E phi(psi'(X/t - mu)) for (t, mu).

    For fixed t the first equation pins mu by bisection; the divergence
    expectation B(t) then decreases from its small-t limit towards 0, so the
    second equation is bisected in log t with geometric bracket expansion.
    Near the boundary where beta equals the small-t limit, B approaches beta
    asymptotically; any t whose residual is below ``residual_tol`` is
    accepted.  Returns (t_star, mu_star) or None when no bracket with an
    acceptable residual exists (expected for non-attained instances).
    """
    beta = _check_beta(beta)
    x = dist.atoms
    p = dist.probs
    lo = dist.essinf
    spread = dist.esssup - lo
    if spread <= 1e-15 * max(1.0, abs(lo)):
        return None
    y = (x[None, :] - lo) / spread

    nu_prev = None  # each probe's shift warm-starts the next probe

    def shift_at(t):
        nonlocal nu_prev
        nu_prev = _solve_inner_nu(y, p, spec, t, nu_prev)
        return nu_prev

    def divergence_at(t_scalar):
        t = np.array([t_scalar])
        nu = shift_at(t)
        z = np.asarray(spec.psi_prime((y - nu[:, None]) / t[:, None]))
        return float((np.asarray(spec.phi(z)) * p).sum())

    def finish(t_scalar):
        nu = shift_at(np.array([t_scalar]))
        t_star = spread * t_scalar
        mu_star = (lo + spread * float(nu[0])) / t_star
        return t_star, mu_star

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        t_hi = 1.0 / (1.0 + beta)
        for _ in range(200):
            if divergence_at(t_hi) <= beta:
                break
            t_hi *= 2.0
        else:
            return None

        t_lo = t_hi
        best_t, best_res = None, math.inf
        for _ in range(200):
            b = divergence_at(t_lo)
            res = abs(b - beta)
            if res < best_res:
                best_t, best_res = t_lo, res
            if b >= beta:
                break
            if res <= residual_tol:
                return finish(t_lo)
            if t_lo < _T_FLOOR:
                return None
            t_lo *= 0.5
        else:
            return None

        log_lo, log_hi = math.log(t_lo), math.log(t_hi)
        for _ in range(100):
            mid = math.exp(0.5 * (log_lo + log_hi))
            b = divergence_at(mid)
            res = abs(b - beta)
            if res < best_res:
                best_t, best_res = mid, res
            if res <= residual_tol:
                return finish(mid)
            if b > beta:
                log_lo = math.log(mid)
            else:
                log_hi = math.log(mid)
        if best_res <= residual_tol:
            return finish(best_t)
    return None


def alpha_bar(spec: DivergenceSpec, beta) -> float:
    """Largest alpha in [0, 1) with phi(0)*alpha + phi(1/(1-alpha))*(1-alpha) <= beta.

    The left side is non-decreasing in alpha and explodes as alpha -> 1 by
    superlinear growth, so bisection on the feasibility predicate applies.
    The convention 0*alpha = 0 is used when phi(0) = 0.
    """
    beta = _check_beta(beta)
    phi0 = spec.phi_at_zero

    def load(alpha: float) -> float:
        tail = 1.0 - alpha
        return phi0 * alpha + float(spec.phi(1.0 / tail)) * tail

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
    """Sufficient attainability check: P(X = esssup X) < 1 - alpha_bar.

    False means "not guaranteed", not "not attained"; the criterion is only
    sufficient.
    """
    return dist.prob_at_esssup() < 1.0 - alpha_bar(spec, beta)
