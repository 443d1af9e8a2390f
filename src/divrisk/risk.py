"""Divergence risk evaluation by the characterizing equations.

The risk of a loss X at aversion beta > 0 is

    rho(X) = inf_{t > 0, mu} t * (beta + mu + E psi(X/t - mu)),

a jointly convex problem.  The evaluator works in the translated variable
nu = t * mu.  For fixed t the inner first-order condition
E psi'((X - nu)/t) = 1 pins nu; nu is the shift variable of the optimized
certainty equivalent (Ben-Tal & Teboulle, Math. Finance 2007), and for kl
the objective in t is the entropic value-at-risk (Ahmadi-Javid, JOTA 2012).
For kl the shift is closed form, nu = t log E e^{X/t} - t, and one pass of
psi' solves the inner condition.  For other specs the inner solve works on
the exact bracket [min X - c*t, max X - c*t] with c = phi'(1), takes
safeguarded Newton steps built from the spec's psi'' (bisection steps for
specs without one), checks the far end of the bracket only when a step
needs it, and starts from a prediction of the shift at the new t.  The
derivative of the outer objective is beta - B(t) with
B(t) = E phi(psi'((X - nu)/t)), so interior optima solve the
characterizing system

    1    = E psi'((X - nu)/t),
    beta = E phi(psi'((X - nu)/t)),

whose solution also gives the optimal dual density Z* = psi'((X - nu)/t).

B is non-increasing in t, from B(0+) = phi(0)*(1 - p) + p*phi(1/p), with
p = P(X = esssup X), towards 0.  So the regime is decided exactly and
first, at O(n) cost: with beta < B(0+) the system has a root, found by a
safeguarded search on B(t) = beta in log t, and rho is the objective at the
root; otherwise the infimum is only approached as t -> 0, rho is the
essential supremum (attained=False), and the extreme density on the maximal
atoms is dual-optimal.  One core, ``_characterize``, returns the value,
(t*, mu*) and Z* together for every public entry point.  Inputs are
affinely normalised to [-1, 0] before searching, so brackets are
instance-independent: positive homogeneity and translation equivariance make
this exact.

With psi'', differentiating the system at fixed t gives both slopes from one
pass of s = psi''(z), z = (X - nu)/t:

    dnu/dt    = -E[s z] / E[s],
    dB/dlog t = -(E[s z^2] - E[s z]^2 / E[s]).

For kl, s = psi'(z), so that pass is the one the inner solve made.  The
outer search takes Newton steps on log(B/beta) in log t with the second,
starts each inner solve from the tangent nu + (t' - t) dnu/dt of the first,
and starts at the small-beta expansion B(t) ~ Var(X) psi''(phi'(1)) / (2 t^2)
(the moment start), for kl at the root of a two-point law with the same
B(0+) where that is larger; specs without psi'' take secant steps from
t = 1/(1 + beta), each inner solve starting from the previous probe's shift.
The final probe's arrays give rho, Z* and the residuals where the search
ended on it; a bracket that closed above the accepted probe solves its
shift again, since no probe's arrays are held while the next is made.

The builtin chi2 and power:p specs take none of this where a root exists.
Their psi' is a power of a ramp, so Z* = (X - a)_+^r / E(X - a)_+^r with
r = 1/(p - 1), t and nu follow from the threshold a in closed form, and the
two equations become one monotone equation in a, which reads only the
atoms above a (:mod:`divrisk.threshold`).  Those atoms are a suffix of the
order the distribution caches, so a probe is one pass over the suffix and
no psi' or psi'' pass is made; the regime test, constant rows and the
boundary case are decided first and in the same way for every spec.  The
dispatch keys on the spec's name and closed conjugate, as kl's closed-form
shift does: renamed copies of the builtins, Young and custom specs run the
search in t.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .divergence import DivergenceSpec
from .empirical import EmpiricalDistribution, _checked
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
_EPS = float(np.finfo(float).eps)
_SUM_BLOCK = 16384       # columns per block of a sum that needs a temporary


@dataclass(frozen=True)
class RiskEvaluation:
    """Value of rho(X) with optimizers and first-order diagnostics.

    ``residuals`` holds the gaps 1 - E Z* and beta - E phi(Z*) of the
    characterizing equations at the root the solver found, with
    Z* = ``density``; both are absent when the infimum is not attained.  They
    are the solver's own, evaluated on the normalised atoms: recomputing
    them from (t_star, mu_star) in the units of X loses digits where
    X/t_star - mu_star cancels.  The second is absolute, so it scales with
    beta; the search keeps E phi(Z*) below beta by a margin near
    5e-13*beta by design.
    """

    value: float
    t_star: Optional[float]
    mu_star: Optional[float]
    attained: bool
    residuals: Optional[Tuple[float, float]]
    density: np.ndarray = field(compare=False, repr=False)


def _debug_logger():
    """The "divrisk.risk" logger when it emits debug records, else None.

    logging is looked up rather than imported: importing it adds ~0.5 MB and
    ~7 ms to ``import divrisk``, and a program that has not imported it has
    configured no logger to show debug records (DIVRISK_LOG=debug configures
    one in the CLI).
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(__name__)
    return log if log.isEnabledFor(logging.DEBUG) else None


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


class _Passes:
    """n-sized passes made by one run of the core: of psi', and of the
    threshold path's moments over the active suffix of the sorted atoms.

    One instance is created per :func:`_characterize` call and handed down
    the layers that make the passes, so that rows of one batch share it and
    separate calls never do.
    """

    __slots__ = ("psi_prime", "suffix")

    def __init__(self):
        self.psi_prime = 0
        self.suffix = 0


def _closed_kl(spec) -> bool:
    """The builtin kl spec, whose psi' = psi'' = exp(. - 1) has a closed-form shift."""
    return spec.name == "kl" and spec.has_closed_conjugate


def _power_family(spec):
    """(p, kappa) for the builtin chi2 and power:p specs, whose phi is kappa
    times the power divergence of order p (chi2: p = 2, kappa = 2); None for
    every other spec, renamed copies of these included.  A power:p name
    carries p only to 6 digits, so it counts only where phi(0) = 1/p
    confirms it."""
    if not spec.has_closed_conjugate:
        return None
    if spec.name == "chi2":
        return 2.0, 2.0
    if spec.name.startswith("power:"):
        try:
            p = float(spec.name[6:])
        except ValueError:
            return None
        if p > 1.0 and spec.phi_at_zero == 1.0 / p:
            return p, 1.0
    return None


class _RowFacts(NamedTuple):
    """What the core reads of each row of atoms (m, n) besides the atoms
    themselves, computed once per :func:`_characterize` call by
    :func:`_row_facts` and handed down the layers.
    """

    lo: np.ndarray      # (m,) row minimum
    hi: np.ndarray      # (m,) row maximum
    top: np.ndarray     # (m, n) mask of the atoms at the row maximum
    p_top: np.ndarray   # (m,) mass at the row maximum
    c: float            # phi'(1)
    c_top: np.ndarray   # (m,) phi'(1/p_top); may be inf

    def take(self, idx) -> "_RowFacts":
        """The facts of the rows idx."""
        return _RowFacts(*(f[idx] if isinstance(f, np.ndarray) else f for f in self))


def _row_facts(x, probs, spec) -> _RowFacts:
    """The :class:`_RowFacts` of the rows of x (m, n)."""
    hi = x.max(axis=1)
    top = x == hi[:, None]
    p_top = _expect(top, probs)
    with np.errstate(over="ignore"):
        c_top = np.asarray(spec.phi_prime(1.0 / p_top))
    return _RowFacts(x.min(axis=1), hi, top, p_top, float(spec.phi_prime(1.0)), c_top)


def _solve_inner_nu(y, probs, spec, t, facts, nu0=None, passes=None):
    """Solve E psi'((y - nu)/t) = 1 for nu, row-wise; returns (nu, z, psi'(z)).

    y: (m, n) atoms, t: (m,) positive, facts: the :class:`_RowFacts` of y,
    which give the bracket: the solve computes no row minimum, maximum or
    top mass of its own, however often the outer search calls it; nu0:
    optional (m,) starting shifts, typically those of the previous probe in
    t; passes: a :class:`_Passes` that counts the psi' passes made.

    For the builtin kl spec, psi' = exp(. - 1) and the equation solves in
    closed form: nu = max y + t log E psi'((y - max y)/t), the shift of the
    entropic risk measure (Ahmadi-Javid, JOTA 2012; Ben-Tal & Teboulle, Math.
    Finance 2007).  The arguments (y - max y)/t are <= 0, so psi' cannot
    overflow, and its mean is at least p/e with p the mass at max y.  z and
    psi'(z) are that one pass, shifted by log of the mean and divided by it.

    Otherwise the residual f(nu) = E psi'((y - nu)/t) - 1 is non-increasing
    in nu.  With c = phi'(1), Fenchel equality at x = 1 gives psi'(c) = 1, so
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
    passes = _Passes() if passes is None else passes
    m = y.shape[0]
    tcol = t[:, None]
    if _closed_kl(spec):
        z = y - facts.hi[:, None]
        z /= tcol
        w = np.asarray(spec.psi_prime(z))
        passes.psi_prime += 1
        mass = _expect(w, probs)
        z -= np.log(mass)[:, None]
        w /= mass[:, None]
        return facts.hi + t * np.log(mass), z, w

    c = facts.c
    # psi'(z) <= 1/p_top at the maximal atoms gives a second left end; it
    # may overflow to -inf, leaving the first
    with np.errstate(over="ignore"):
        left = np.maximum(facts.lo - c * t, facts.hi - t * facts.c_top)
    right = facts.hi - c * t
    start = right if nu0 is None else np.clip(nu0, left, right)
    # round-off of a sum of n terms near one: f within it of zero is a root
    f_tol = 4.0 * _EPS * math.sqrt(y.shape[1])

    def at_shift(nu):
        z = y - nu[:, None]
        z /= tcol
        w = np.asarray(spec.psi_prime(z))
        passes.psi_prime += 1
        return _expect(w, probs) - 1.0, z, w

    x_floor = np.maximum(np.abs(facts.lo), np.abs(facts.hi))
    nu, f, z, w, lo, hi = _bracketed_shift(at_shift, probs, spec, c, t, x_floor, f_tol, left, right, start)
    if np.all(np.abs(f) <= f_tol):
        return nu, z, w

    anchor = y[np.arange(m), np.abs(y - nu[:, None]).argmin(axis=1)]
    u = (y - anchor[:, None]) / tcol

    def at_offset(d):
        z = u - d[:, None]
        w = np.asarray(spec.psi_prime(z))
        passes.psi_prime += 1
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
    bracket end on its side.  The other end, the far end, is exact in
    theory, but round-off in the probabilities (or an inexact numeric psi')
    can give it the wrong sign, so it is checked once by an evaluation: an
    end whose check fails is moved outward by doubling steps.  Without
    ``spec.psi_second`` the far end is checked before the first step, unless
    the first iterate already solves the equation.  With it the check is
    deferred until a row needs the far end: when its Newton step is
    rejected, so that it would bisect towards that end, or when it would
    stop beside that end with |f| > f_tol.  A row whose Newton steps reach
    the root without either never evaluates its far end.

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
    # f at an unchecked far end is recorded as +-inf, the sign theory gives it
    far_hi = f > 0.0
    lo, f_lo = np.where(far_hi, x, lo), np.where(far_hi, f, np.inf)
    hi, f_hi = np.where(far_hi, hi, x), np.where(far_hi, -np.inf, f)
    unchecked = np.ones(x.shape, dtype=bool)

    def check_far_ends(rows):
        nonlocal lo, f_lo, hi, f_hi, unchecked
        f_far = residual(np.where(far_hi, hi, lo))[0]
        f_lo = np.where(rows & ~far_hi, f_far, f_lo)
        f_hi = np.where(rows & far_hi, f_far, f_hi)
        unchecked = unchecked & ~rows
        width = hi - lo + x_floor
        for _ in range(_WIDEN_ITERS):
            bad_lo, bad_hi = f_lo < -f_tol, f_hi > f_tol
            if not (bad_lo.any() or bad_hi.any()):
                return
            # f is monotone, so at most one end per row fails, and the failed
            # end is a valid end on the other side
            if bad_lo.any():
                hi, f_hi = np.where(bad_lo, lo, hi), np.where(bad_lo, f_lo, f_hi)
                lo = np.where(bad_lo, lo - width, lo)
                f_lo = np.where(bad_lo, residual(lo)[0], f_lo)
            if bad_hi.any():
                lo, f_lo = np.where(bad_hi, hi, lo), np.where(bad_hi, f_hi, f_lo)
                hi = np.where(bad_hi, hi + width, hi)
                f_hi = np.where(bad_hi, residual(hi)[0], f_hi)
            width = 2.0 * width
        raise NumericsError("inner shift bracket widening exhausted")

    def closed(lo, hi):
        x_tol = _EPS / 1024.0 * np.maximum(x_floor, np.maximum(np.abs(lo), np.abs(hi)))
        return (hi <= np.nextafter(lo, np.inf)) | (hi - lo <= x_tol)

    def solved():
        return (np.abs(f_lo) <= f_tol) | (np.abs(f_hi) <= f_tol)

    newton = spec.psi_second is not None
    if not (newton or solved().all()):
        check_far_ends(unchecked)
    done = solved() | closed(lo, hi)
    step = step_old = hi - lo
    for _ in range(_INNER_MAX_ITERS):
        if done.all():
            # rows that stopped beside their unchecked far end with |f| > f_tol
            need = unchecked & ~solved()
            if not need.any():
                break
        else:
            nxt = x_floor * np.sinh(0.5 * (np.arcsinh(lo / x_floor) + np.arcsinh(hi / x_floor)))
            nxt = np.where((hi - lo > x_floor) & (nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
            take = False
            if newton:
                # Newton on phi'(E psi') = c, using phi''(F) = 1 / psi''(phi'(F));
                # a step that is not finite (psi' overflowed at x) is not taken
                g = np.asarray(spec.phi_prime(f + 1.0))
                dg = np.asarray(spec.psi_second(g))
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    dx = scale * (g - c) * dg / _expect(spec.psi_second(z), probs)
                # a step below resolution is lengthened so that the bracket closes
                least = np.maximum(np.abs(np.spacing(x)), _EPS / 1024.0 * x_floor)
                dx = np.where(np.abs(dx) < least, np.copysign(least, f), dx)
                newton_x = x + dx
                take = (dg > 0.0) & (newton_x >= lo) & (newton_x <= hi) & (2.0 * np.abs(dx) <= step_old)
                nxt = np.where(take, newton_x, nxt)
            # rows that would bisect towards their unchecked far end
            need = unchecked & ~(take | done)
        if need.any():
            check_far_ends(need)
            done = np.where(need, solved() | closed(lo, hi), done)
            step = step_old = np.where(need, hi - lo, step)
            continue
        step_old, step = step, np.abs(nxt - x)
        x = np.where(done, x, nxt)
        f, z, w = residual(x)
        above = (f > 0.0) & ~done
        below = (f <= 0.0) & ~done
        unchecked &= ~np.where(far_hi, below, above)
        lo, f_lo = np.where(above, x, lo), np.where(above, f, f_lo)
        hi, f_hi = np.where(below, x, hi), np.where(below, f, f_hi)
        done |= (np.abs(f) <= f_tol) | closed(lo, hi)
    if not done.all() or (unchecked & ~solved()).any():
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
    """Row-wise facts and regime of the loss rows x (m, n): (facts, const,
    attained, B(0+)), with facts the :class:`_RowFacts` of x.

    B(t) decreases from B(0+) towards 0, so the characterizing equations
    have a root exactly when beta < B(0+); constant rows never have one.
    """
    facts = _row_facts(x, probs, spec)
    const = facts.hi - facts.lo <= 1e-15 * np.maximum(1.0, np.abs(facts.lo))
    level = _extreme_divergence(spec, facts.p_top, _expect(~facts.top, probs))
    return facts, const, ~const & (beta < level), level


def _centred_sums(w, z, c, probs):
    """Row-wise E[w (z - c)] and E[w (z - c)^2], with z - c made in column
    blocks rather than as one more n-sized array."""
    a1 = a2 = 0.0
    for i in range(0, z.shape[1], _SUM_BLOCK):
        zc, wb, pb = z[:, i : i + _SUM_BLOCK] - c, w[:, i : i + _SUM_BLOCK], probs[i : i + _SUM_BLOCK]
        a1 = a1 + np.einsum("ij,ij,j->i", wb, zc, pb)
        a2 = a2 + np.einsum("ij,ij,j->i", wb, np.square(zc, out=zc), pb)
    return a1, a2


def _newton_step(s, h, b, slope, target, level, t_kink):
    """Newton step in s = log t towards B = target, row-wise; NaN where none.

    h = log(B/target) and slope = dlog(B)/ds at s; level = B(0+).  Far from
    B(0+) the step is Newton's on h, which is near linear in s where B falls
    like t^-2.  Where B >= B(0+)/2, on the flat side near t = 0, it is Newton's
    on log(B(0+) - B), in the variable where that is near linear: in 1/t when
    psi' > 0 everywhere (kl: B(0+) - B falls like exp(-gap/t)), and in
    log(t - t_kink) when psi' vanishes below phi'(0) (chi2, power:p: B is
    B(0+) up to t_kink, where the second-largest atom enters, and departs
    from it like a power of t - t_kink).
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        f = np.log((level - b) / (level - target))
        if t_kink is None:
            flat = -np.log1p(-f * (level - b) / (slope * b))
        else:
            t = np.exp(s)
            x = t - t_kink
            flat = np.log(t_kink + x * np.exp(f * (level - b) * t / (slope * b * x))) - s
            flat = np.where(x > 0.0, flat, np.nan)
        step = np.where((b >= 0.5 * level) & np.isfinite(flat), flat, -h / slope)
    return np.where((slope < 0.0) & np.isfinite(step), step, np.nan)


def _kl_two_point_start(mean, level, beta):
    """log t of the kl root for the two-point law that keeps the row's top mass
    p and mean: p at 0, 1 - p at -g, g = -mean/(1 - p); NaN where none is found.

    For kl, B(0+) = log(1/p).  Tilting the two-point law by exp(y/t) moves
    mass q = p e^lam / (1 - p + p e^lam), lam = g/t, onto the top, at
    B = q lam - log(1 + p (e^lam - 1)), which rises from 0 to B(0+) in lam.
    On a sample whose maximum lies far out in the tail, B stays near B(0+)
    until the tilt lets go of the maximum and then falls steeply, which the
    two-point law, with the same B(0+) and gap, follows and the small-beta
    expansion does not: on t(4) samples of 1e5 atoms its root lay 0-0.5 below
    the sample's in log t, the expansion's 0.2-1.7 below.  lam solves
    B = beta by linear interpolation on a geometric grid.
    """
    p = np.exp(-level)[:, None]
    lam = np.geomspace(1e-4, 1.0, 129) * (level[:, None] + 40.0)
    with np.errstate(over="ignore", invalid="ignore"):
        q = 1.0 / (1.0 + (1.0 - p) / p * np.exp(-lam))
        b = q * lam - np.log1p(p * np.expm1(lam))
    k = np.argmax(b >= beta, axis=1)
    rows = np.arange(b.shape[0])
    b0, b1 = b[rows, k - 1], b[rows, k]
    l0, l1 = lam[rows, k - 1], lam[rows, k]
    with np.errstate(invalid="ignore", divide="ignore"):
        root = l0 + (beta - b0) / (b1 - b0) * (l1 - l0)
        return np.where((k > 0) & (b1 >= beta), np.log(-mean / (1.0 - p[:, 0]) / root), np.nan)


def _root_in_log_t(y, probs, spec, beta, attained, level, facts, passes):
    """Solve B(t) = E phi(psi'((y - nu(t))/t)) = beta in s = log t, row-wise.

    y: (m, n) rows normalised to [-1, 0]; attained: (m,) regime of each row;
    level: (m,) B(0+); facts: the :class:`_RowFacts` of y.  B is
    non-increasing in t.  On a row with a root the
    search aims below beta, at beta*(1 - _B_RTOL/2), and accepts a probe
    within _B_RTOL*beta/4 of that target: beta - B >= _B_RTOL*beta/4 is then
    a margin over round-off that keeps the density feasible.  On a row
    without one it aims at beta itself, which at beta = B(0+) accepts the
    flat end of B.

    With psi'' (``spec.psi_second``), differentiating 1 = E psi'(z) and
    B = E phi(psi'(z)), z = (y - nu)/t, gives both slopes from one pass of
    s = psi''(z) at the probe (phi'(psi'(z)) = z where s > 0):

        dnu/dt    = -E[s z] / E[s],
        dB/dlog t = -(E[s z^2] - E[s z]^2 / E[s])  <= 0,

    evaluated with z - phi'(1) in place of z, which leaves both unchanged and
    keeps the last difference from cancelling at large t.  For kl, s is the
    psi'(z) of the probe.  The search starts
    at the small-beta expansion B(t) ~ Var(y) psi''(c) / (2 t^2), c = phi'(1):
    t0 = sqrt(Var(y) psi''(c) / (2 beta)), exact for chi2 while Z* >= 0, or
    at 1/(1 + beta) if that is smaller (large beta, where B(0+) is large
    because the maximum carries little mass).  For kl, B of a sample whose
    maximum lies far out in the tail stays near B(0+) well beyond t0, where
    Newton steps creep; the start is then raised to the root of the
    two-point law with the same B(0+) (:func:`_kl_two_point_start`) where
    that is larger.  Steps on rows with a root are
    Newton steps (:func:`_newton_step`), and each inner solve starts from the
    tangent prediction nu + (t' - t) dnu/dt of the probe before.  Where psi'
    vanishes below phi'(0), B = B(0+) up to t_kink, the t at which the
    second-largest atom enters, and log t_kink is a lower end of the bracket
    from the start.  Without psi'' the search starts at t = 1/(1 + beta),
    steps by secants on log(B/target) through the last two probes, and each
    inner solve starts from the previous probe's shift.

    The bracket [s_lo, s_hi] keeps B above the target at s_lo and at most
    the target at s_hi.  Until both ends exist the search steps outward by a
    reach that doubles per step; with psi'' upward (on the flat side near
    t = 0, where Newton steps overshoot) by the Newton step if that is
    shorter, and downward by the Newton step while |log(B/target)| halves
    per step, else by the longer of the two (Newton steps creep where B
    flattens towards B(0+)).  The lower end stops at _T_FLOOR, where rows
    without a root above the floor stop too.  Inside the bracket a Newton
    step, or the secant where no Newton step is defined, is taken when it
    lands inside the bracket and at most halves the move before last (the
    rtsafe safeguard); otherwise, or when neither the bracket nor
    |log(B/target)| has halved within 3 steps, the bracket is bisected.
    A row stops at an accepted probe, which becomes s_hi, or when the bracket
    is a few ulps wide.

    Returns (t, nu, z, psi'(z)) of the probe at s_hi, where B < beta on rows
    with a root, and the number of probes made.  z and psi'(z) are the raw
    arrays of the final probe on rows that ended at it; a probe's arrays are
    not kept while the next one is made, so rows that ended at an earlier
    probe (the bracket closed above it) solve the shift again at s_hi, from
    nu_hi.  passes counts the psi' passes of the inner solves.
    """
    m = y.shape[0]
    s_floor = math.log(_T_FLOOR)
    target = beta * (1.0 - 0.5 * _B_RTOL * attained)
    g_tol = 0.25 * _B_RTOL * beta
    s = np.full(m, -math.log1p(beta))
    s_lo, s_hi, nu_hi = np.full(m, -np.inf), np.full(m, np.inf), np.zeros(m)
    newton, t_kink, mean = spec.psi_second is not None, None, None
    kl = _closed_kl(spec)
    if newton:
        c = facts.c
        mean = _expect(y, probs)
        dev = y - mean[:, None]
        var = _expect(np.square(dev, out=dev), probs)
        del dev
        with np.errstate(divide="ignore"):
            s = np.minimum(s, np.maximum(0.5 * np.log(var * float(spec.psi_second(c)) / (2.0 * beta)), s_floor))
        if kl:
            s = np.fmax(s, _kl_two_point_start(mean, level, beta))
        edge = float(spec.phi_prime(0.0))
        if math.isfinite(edge):
            # psi' vanishes below phi'(0): up to t_kink the maximal atoms alone
            # carry E psi' = 1, so there B = B(0+) > target
            gap = -np.where(facts.top, -np.inf, y).max(axis=1)
            t_kink = gap / (facts.c_top - edge)
            with np.errstate(divide="ignore"):
                s_kink = np.log(t_kink)
            s_lo = np.where(attained & (s_kink > s_floor), s_kink, -np.inf)
    s_prev, h_prev = np.full(m, np.nan), np.full(m, np.nan)
    slope, dnu = np.full(m, np.nan), np.zeros(m)  # dlog(B)/ds and dnu/dt at s_prev
    reach = np.ones(m)
    moves = np.full((2, m), np.inf)  # the last two moves in s
    width_ref, h_ref, since = np.full(m, np.inf), np.full(m, np.inf), np.zeros(m)
    nu = None
    done = np.zeros(m, dtype=bool)
    for probes in range(1, _OUTER_MAX_ITERS + 1):
        z = w = None  # the previous probe's arrays go before the next are made
        act = ~done
        idx = np.flatnonzero(act)
        y_act, facts_act = (y, facts) if idx.size == m else (y[idx], facts.take(idx))
        t = np.exp(s[idx])
        if nu is None:  # the first probe covers every row
            # with psi'', from the large-t expansion z ~ c + (y - E y)/t
            nu, z, w = _solve_inner_nu(y_act, probs, spec, t, facts_act,
                                       None if mean is None else mean - c * t, passes)
        else:
            # the tangent prediction; without psi'' dnu is 0
            with np.errstate(invalid="ignore"):
                nu0 = nu[idx] + (t - np.exp(s_prev[idx])) * dnu[idx]
            nu[idx], z, w = _solve_inner_nu(y_act, probs, spec, t, facts_act,
                                            np.where(np.isfinite(nu0), nu0, nu[idx]), passes)
        mass = _expect(w, probs)
        # z and w stay as they are, since the probe may be the one the search
        # returns; spare is an n-sized array of the probe free for reuse
        spare = None
        if newton:  # E[s], E[s (z - c)] and E[s (z - c)^2], s = psi''(z)
            if kl:  # s = psi'(z) = w
                a0, (a1, a2) = mass, _centred_sums(w, z, c, probs)
            else:
                zc = z - c if c else z
                spare = np.asarray(spec.psi_second(z))
                a0 = _expect(spare, probs)
                spare *= zc
                a1 = _expect(spare, probs)
                spare *= zc
                a2 = _expect(spare, probs)
                del zc
        # B of the density with its mean renormalised, as solve_dual returns
        # it, so that the margin also covers the inner solve's residual; for
        # kl, phi(x) = x log x and log w = z - 1 give it from the slope sums
        b = np.array(target)
        if kl:
            b[idx] = a1 / a0 - np.log(a0)
        else:
            density = np.divide(w, mass[:, None], out=spare)
            b[idx] = _expect(spec.phi(density), probs)
            del density
        del spare
        if not np.all(np.isfinite(b)):
            raise NumericsError("divergence expectation B(t) is not finite")
        if newton:
            with np.errstate(invalid="ignore", divide="ignore"):
                dnu[idx] = -(c + a1 / a0)
                slope[idx] = -(a2 - a1 * a1 / a0) / b[idx]
        g = b - target
        with np.errstate(divide="ignore"):
            h = np.log(b / target)

        hit = act & (np.abs(g) <= g_tol)
        above = act & (g > 0.0) & ~hit
        below = act & ((g <= 0.0) | hit)
        s_lo = np.where(above, np.maximum(s, s_lo), s_lo)
        s_hi, nu_hi = np.where(below, s, s_hi), np.where(below, nu, nu_hi)
        has_lo, has_hi = np.isfinite(s_lo), np.isfinite(s_hi)
        width = s_hi - s_lo
        done |= hit | (~has_lo & (s_hi <= s_floor))
        done |= has_lo & has_hi & (width <= 64.0 * _EPS * np.maximum(1.0, np.abs(s_hi)))
        if done.all():
            break

        # progress: the bracket or |log(B/target)| halved
        halved = (width <= 0.5 * width_ref) | (np.abs(h) <= 0.5 * h_ref)
        width_ref = np.where(halved, width, width_ref)
        h_ref = np.where(halved & act, np.abs(h), h_ref)
        since = np.where(halved, 0.0, since + 1.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            secant = -h * (s - s_prev) / (h - h_prev)
        if newton:
            step = np.where(attained, _newton_step(s, h, b, slope, target, level, t_kink), np.nan)
            progress = np.isnan(h_prev) | (np.abs(h) <= 0.5 * np.abs(h_prev))
            up = s_lo + np.fmin(step, reach)
            down = np.where(progress & np.isfinite(step), s + step, s_hi - np.fmax(-step, reach))
            expand = np.maximum(np.where(has_hi, down, up), s_floor)
            cand = s + np.where(np.isnan(step), secant, step)
        else:
            expand = np.where(has_hi, np.maximum(s_hi - reach, s_floor), s_lo + reach)
            cand = s + secant
        reach = np.where(has_lo & has_hi, reach, 2.0 * reach)
        # as in rtsafe, a step must also at most halve the move before last,
        # which stops it from creeping along a flat stretch
        take = (cand > s_lo) & (cand < s_hi) & (2.0 * np.abs(cand - s) <= moves[0])
        inner = np.where(take & (since < 3.0), cand, 0.5 * (s_lo + s_hi))
        nxt = np.where(has_lo & has_hi, inner, expand)
        moves = np.where(act, np.stack((moves[1], np.abs(nxt - s))), moves)
        s_prev, h_prev = np.where(act, s, s_prev), np.where(act, h, h_prev)
        s = np.where(done, s, nxt)
    else:
        raise NumericsError("outer search for B(t) = beta did not converge")
    # z and psi'(z) at s_hi: the final probe's where it ended there, else the
    # shift is solved again at nu_hi, which its first pass confirms
    t_hi, keep = np.exp(s_hi), below[idx]
    if keep.all() and idx.size == m:
        return t_hi, nu_hi, z, w, probes
    redo = np.flatnonzero(~below)
    if redo.size == m:
        z = w = None
        _, z_hi, w_hi = _solve_inner_nu(y, probs, spec, t_hi, facts, nu_hi, passes)
        return t_hi, nu_hi, z_hi, w_hi, probes
    z_hi, w_hi = np.empty_like(y), np.empty_like(y)
    z_hi[idx[keep]], w_hi[idx[keep]] = z[keep], w[keep]
    del z, w
    _, z_hi[redo], w_hi[redo] = _solve_inner_nu(y[redo], probs, spec, t_hi[redo], facts.take(redo), nu_hi[redo], passes)
    return t_hi, nu_hi, z_hi, w_hi, probes


class _Solution(NamedTuple):
    """Row-wise output of :func:`_characterize`, in the units of the input.

    t and mu are NaN on constant rows; on rows without a root they are
    where the search stopped, which only :func:`solve_characterizing_equations`
    reads, or NaN under chi2 and power:p, which do not search there.
    """

    value: np.ndarray
    t: np.ndarray
    mu: np.ndarray
    density: np.ndarray
    attained: np.ndarray
    residuals: np.ndarray  # (m, 2): 1 - E Z and beta - E phi(Z) at (t, mu)


def _characterize(x, probs, spec, beta, order=None) -> _Solution:
    """The characterizing-equation core for the loss rows x (m, n).

    Rows are affinely normalised to [-1, 0], maximum at 0 (exact by positive
    homogeneity and translation equivariance), so that a shift near the
    maximum, where small t puts it, keeps its relative precision.  With a
    root, rho = q(t*) = t*beta + nu + t E psi((X - nu)/t) and
    Z* = psi'((X - nu)/t) at the end of the search where E phi(Z*) <= beta;
    without one, rho = esssup and Z* is the extreme density on the maximal
    atoms.  Constant rows have rho = X and Z* = 1.  z = (X - nu)/t and Z*
    are those of the probe the search accepted last.

    Rows with a root under the builtin chi2 and power:p specs are solved in
    a threshold by :func:`divrisk.threshold.solve` instead, on the rows
    sorted: ``order()`` returns them (m, n) with their probabilities, else
    the rows that need it are sorted here.  Their rows without a root are
    not searched: t and mu stay NaN there.
    """
    m = x.shape[0]
    facts, const, attained, level = _regime(x, probs, spec, beta)
    lo, hi = facts.lo, facts.hi
    spread = hi - lo
    value = np.where(const, lo, hi)
    t, mu, residuals = np.full(m, np.nan), np.full(m, np.nan), np.full((m, 2), np.nan)
    family = _power_family(spec)
    idx, rows_t = np.flatnonzero(~const & (family is None)), np.flatnonzero(attained & (family is not None))
    probes, passes = 0, _Passes()
    if idx.size:
        y = (x[idx] - hi[idx, None]) / spread[idx, None]
        # fl(lo - hi) = -fl(hi - lo), so each row of y runs from -1 to 0
        # exactly, with its maximal atoms those of x
        y_facts = facts.take(idx)._replace(lo=np.full(idx.size, -1.0), hi=np.zeros(idx.size))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            t_n, nu_n, z, w, probes = _root_in_log_t(y, probs, spec, beta, attained[idx], level[idx], y_facts, passes)
            del y
            q = t_n * beta + nu_n + t_n * _expect(spec.psi(z), probs)
            residuals[idx, 0] = 1.0 - _expect(w, probs)
            residuals[idx, 1] = beta - _expect(spec.phi(w), probs)
        del z  # before the density is built: the peak memory stays lower
        root = attained[idx]
        rows = idx[root]
        value[rows] = hi[rows] + spread[rows] * np.minimum(q[root], 0.0)
        t[idx] = spread[idx] * t_n
        mu[idx] = (hi[idx] + spread[idx] * nu_n) / t[idx]
    if rows_t.size:
        from . import threshold  # compiled by the first use, not by ``import divrisk``

        xs, ps = threshold.sorted_rows(x[rows_t], probs) if order is None else order()
        with np.errstate(under="ignore"):
            q, t_n, nu_n, residuals[rows_t], z_t, n_probes = threshold.solve(
                x if rows_t.size == m else x[rows_t], probs, xs, ps, hi[rows_t], spread[rows_t], level[rows_t],
                beta, beta * (1.0 - 0.5 * _B_RTOL), 0.25 * _B_RTOL * beta, family, spec, passes)
        probes += n_probes
        value[rows_t] = hi[rows_t] + spread[rows_t] * np.minimum(q, 0.0)
        t[rows_t] = spread[rows_t] * t_n
        mu[rows_t] = (hi[rows_t] + spread[rows_t] * nu_n) / t[rows_t]
    # Z*: the extreme density, 1 on constant rows, and at the end of the
    # search on rows with a root
    if rows_t.size == m:
        density = z_t
    else:
        density = facts.top / facts.p_top[:, None]
        density[const] = 1.0
        if idx.size and root.any():
            density[rows] = w[root]
        if rows_t.size:
            density[rows_t] = z_t
    log = _debug_logger()
    if log is not None:
        log.debug("characterize %s: %d rows, %d with a root, %d outer probes, %d psi' passes, %d suffix passes",
                  spec.name, m, int(attained.sum()), probes, passes.psi_prime, passes.suffix)
    return _Solution(value, t, mu, density, attained, residuals)


def _row_order(dist):
    """The stable order the distribution caches, as one row of each."""
    xs, ps = dist._order
    return xs[None, :], ps[None, :]


def evaluate_primal_batch(atoms, probs, spec: DivergenceSpec, beta) -> np.ndarray:
    """rho for many loss vectors sharing one probability vector.

    atoms: (m, n) matrix, one loss vector per row; probs: (n,), strictly
    positive and summing to one, else DataError.  Returns the (m,) vector of
    risk values.  This is the same solver as evaluate_primal, vectorised
    across rows; under chi2 and power:p the rows with a root are sorted once
    per call.
    """
    beta = _check_beta(beta)
    return _characterize(*_checked(atoms, probs, ndim=2), spec, beta).value


def evaluate_primal(dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> RiskEvaluation:
    """Evaluate rho(X) for one empirical distribution.

    Returns the optimal (t, mu) and the characterizing-equation residuals
    when the infimum is attained (exactly when ``is_attained`` holds);
    otherwise the essential supremum with attained=False (constant X always
    lands in that branch, its infimum is approached as t -> 0).  ``density``
    is the dual-optimal Z* in either case.
    """
    beta = _check_beta(beta)
    sol = _characterize(dist.atoms[None, :], dist.probs, spec, beta, lambda: _row_order(dist))
    value, density = float(sol.value[0]), sol.density[0]
    if not sol.attained[0]:
        return RiskEvaluation(value, None, None, False, None, density)
    r1, r2 = sol.residuals[0]
    return RiskEvaluation(value, float(sol.t[0]), float(sol.mu[0]), True, (float(r1), float(r2)), density)


def solve_characterizing_equations(
    dist: EmpiricalDistribution, spec: DivergenceSpec, beta, residual_tol: float = 1e-9
):
    """Solve 1 = E psi'(X/t - mu), beta = E phi(psi'(X/t - mu)) for (t, mu).

    Runs the core of evaluate_primal: for fixed t the first equation pins mu,
    and B(t) = E phi(psi'(.)) decreases from B(0+) towards 0 as t grows, so
    the second equation is a monotone root-finding problem in log t.  A root
    exists exactly when beta < B(0+) (see ``is_attained``).  At
    beta = B(0+), B only approaches beta as t -> 0; the search then stops at
    the first t where B is within 1e-12 of beta, an approximate root (chi2
    and power:p, solved in a threshold where a root exists, make no search
    there and return None).
    Returns (t_star, mu_star) when both residuals there are at most
    ``residual_tol``, else None (constant X, or beta beyond the boundary).
    """
    beta = _check_beta(beta)
    sol = _characterize(dist.atoms[None, :], dist.probs, spec, beta, lambda: _row_order(dist))
    if not np.all(np.abs(sol.residuals[0]) <= residual_tol):  # NaN for constant X
        return None
    return float(sol.t[0]), float(sol.mu[0])


def _log(v: float) -> float:
    """log of a mean >= 0; NaN, from inf - inf where F overflows, is +inf."""
    return math.log(v) if v > 0.0 else (-math.inf if v <= 0.0 else math.inf)


def _root_in_log(g, s: float, gs: float, width: float = 0.0) -> Tuple[float, float]:
    """Bracket and solve g(s) = 0 for a non-increasing g, from s with g(s) = gs.

    Steps outward by doubling steps until g changes sign, then runs ITP
    (Oliveira & Takahashi, ACM TOMS 2020): an inverse quadratic (else regula
    falsi) point, truncated towards the midpoint by (b - a)**2 / (b0 - a0)
    and projected so that no more steps are taken than bisection's plus one,
    also where g jumps (the Amemiya slope under kl, at every atom).  Stops at
    a width of ``width`` or a few ulps of s; returns (a, b), g(a) > 0 >= g(b).
    """
    right = gs > 0.0
    x, gx = s, gs
    step = 1.0
    for _ in range(12):  # steps 1, 2, ..., 2**11 in s cover every float scale
        y = x + step if right else x - step
        gy = g(y)
        if (gy > 0.0) != right:
            break
        x, gx = y, gy
        step *= 2.0
    else:
        raise NumericsError("root bracket expansion exhausted")
    (a, ga), (b, gb) = ((x, gx), (y, gy)) if right else ((y, gy), (x, gx))
    c, gc = x, math.nan

    tol = max(width, 2.0 * _EPS * max(1.0, abs(a), abs(b)))
    n_max = math.ceil(math.log2((b - a) / tol)) + 1
    k1 = 1.0 / (b - a)
    for j in range(n_max):
        w = b - a
        if w <= tol:
            break
        mid = a + 0.5 * w
        x = mid
        if math.isfinite(ga) and math.isfinite(gb):
            xf = a + w * ga / (ga - gb)
            if math.isfinite(gc) and gc != ga and gc != gb:
                q = (a * gb * gc / ((ga - gb) * (ga - gc)) + b * ga * gc / ((gb - ga) * (gb - gc))
                     + c * ga * gb / ((gc - ga) * (gc - gb)))
                if a < q < b:
                    xf = q
            sigma = math.copysign(1.0, mid - xf)
            delta = max(k1 * w * w, 0.5 * tol)
            xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
            r = tol * 2.0 ** (n_max - j - 1) - 0.5 * w
            x = xt if abs(xt - mid) <= r else mid - sigma * r
            if not a < x < b:
                x = mid
        gx = g(x)
        if gx > 0.0:
            c, gc, a, ga = a, ga, x, gx
        else:
            c, gc, b, gb = b, gb, x, gx
    return a, b


def alpha_bar(spec: DivergenceSpec, beta) -> float:
    """Largest alpha in [0, 1) with phi(0)*alpha + phi(1/(1-alpha))*(1-alpha) <= beta.

    The left side, the load, is non-decreasing in alpha and explodes as
    alpha -> 1 by superlinear growth.  alpha is capped at 1 - 1e-15; below
    the cap it is the root of log beta - log load in s = log(-log(1 - alpha)),
    with 1 - alpha = exp(-e^s) and alpha = -expm1(-e^s) both to full relative
    precision, returned at the bracket end where the load is below beta.
    Under kl the load is -log(1 - alpha) exactly, so alpha_bar is
    -expm1(-beta) in closed form: the search would round the load through
    1/(1 - alpha).  The convention 0*alpha = 0 is used when phi(0) = 0.
    """
    beta = _check_beta(beta)
    cap = 1.0 - 1e-15
    if _extreme_divergence(spec, 1.0 - cap, cap) <= beta:
        return cap

    if _closed_kl(spec):  # the load is -log(1 - alpha)
        return -math.expm1(-beta)
    s_cap = math.log(-math.log1p(-cap))

    def g(s):  # the load at the cap exceeds beta, and so beyond it
        u = math.exp(min(s, s_cap))
        return math.log(beta) - _log(float(_extreme_divergence(spec, math.exp(-u), -math.expm1(-u))))

    s = min(math.log(beta), s_cap)
    a, _ = _root_in_log(g, s, g(s))
    return -math.expm1(-math.exp(a))


def is_attained(dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> bool:
    """Exact attainability test: beta < B(0+) = phi(0)*(1 - p) + p*phi(1/p),
    with p = P(X = esssup X).

    B(0+) is E phi of the extreme density on the maximal atoms, so this is
    P(X = esssup X) < 1 - alpha_bar(spec, beta) evaluated without bisection.
    Constant X is never attained.  evaluate_primal reports the same regime.
    """
    beta = _check_beta(beta)
    return bool(_regime(dist.atoms[None, :], dist.probs, spec, beta)[2][0])
