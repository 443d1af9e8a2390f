"""Dual representation of divergence risk on finite atom spaces.

The risk equals sup{E X*Z : Z >= 0, E Z = 1, E phi(Z) <= beta}.  Whenever the
characterizing equations are solvable the optimal density is the closed form
Z* = psi'(X/t* - mu*).  Otherwise the supremum sits at the boundary where the
extreme density concentrating all mass on the maximal atoms is feasible, and
a projected-ascent pass polishes whatever candidate is best.  Z == 1 is
always strictly feasible (phi(1) = 0 < beta), which both guarantees strong
duality and provides the restoration direction for infeasible iterates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceSpec, discrete_divergence
from .empirical import EmpiricalDistribution
from .errors import DataError, NumericsError, OracleSizeError, StaleMultiplierError
from .risk import _check_beta, solve_characterizing_equations

__all__ = [
    "DualSolution",
    "solve_dual",
    "optimal_density",
    "brute_force_dual",
    "divergence_ball_form",
]

log = logging.getLogger("divrisk.dual")


@dataclass(frozen=True)
class DualSolution:
    """A feasible density over atoms with its objective and constraint slacks."""

    z: np.ndarray
    objective: float
    mean_slack: float
    divergence_slack: float
    source: str


def _expectation(probs, values) -> float:
    return float(np.dot(probs, values))


def _finalise(dist, spec, beta, z, source) -> DualSolution:
    """Renormalise the mean and restore E phi(Z) <= beta, then package."""
    p = dist.probs
    z = np.maximum(np.asarray(z, dtype=float), 0.0)
    z = z / _expectation(p, z)
    div = _expectation(p, spec.phi(z))
    if div > beta:
        # pull towards the strictly feasible Z == 1 until inside the ball
        gamma_lo, gamma_hi = 0.0, 1.0
        for _ in range(100):
            gamma = 0.5 * (gamma_lo + gamma_hi)
            trial = (1.0 - gamma) * z + gamma
            if _expectation(p, spec.phi(trial)) <= beta:
                gamma_hi = gamma
            else:
                gamma_lo = gamma
        z = (1.0 - gamma_hi) * z + gamma_hi
        z = z / _expectation(p, z)
        if _expectation(p, spec.phi(z)) > beta:
            z = 0.999999999 * z + 1e-9  # nudge once more towards the Slater point
            z = z / _expectation(p, z)
    return DualSolution(
        z=z,
        objective=_expectation(p, dist.atoms * z),
        mean_slack=abs(_expectation(p, z) - 1.0),
        divergence_slack=beta - _expectation(p, spec.phi(z)),
        source=source,
    )


def optimal_density(dist, spec, beta, t_star: float, mu_star: float) -> DualSolution:
    """Density Z* = psi'(X/t* - mu*) built from characterizing-equation roots.

    Validates the residuals of the supplied multipliers and the chain of
    equalities tying E X*Z* to the primal objective at (t*, mu*).
    """
    beta = _check_beta(beta)
    if t_star is None or t_star <= 0:
        raise StaleMultiplierError("t_star must be positive")
    p = dist.probs
    args = dist.atoms / t_star - mu_star
    z = np.asarray(spec.psi_prime(args), dtype=float)
    r1 = 1.0 - _expectation(p, z)
    r2 = beta - _expectation(p, spec.phi(z))
    if abs(r1) > 1e-6 or abs(r2) > 1e-6:
        raise StaleMultiplierError(
            f"multipliers do not solve the characterizing equations (residuals {r1:.2e}, {r2:.2e})"
        )
    sol = _finalise(dist, spec, beta, z, source="characterizing-equations")
    plug_in = t_star * (beta + mu_star + _expectation(p, spec.psi(args)))
    if abs(sol.objective - plug_in) > 1e-6:
        raise NumericsError(
            f"dual objective {sol.objective!r} does not match plug-in objective {plug_in!r}"
        )
    return sol


def _extreme_density(dist) -> np.ndarray:
    """All mass proportional to p on the maximal atoms."""
    top = dist.atoms == dist.esssup
    z = np.zeros(dist.n)
    z[top] = 1.0 / dist.probs[top].sum()
    return z


def _project_weighted_simplex(v, probs, cap):
    """Euclidean projection onto {0 <= z <= cap, sum p_i z_i = 1}."""
    lo, hi = -1.0, 1.0
    def total(theta):
        return _expectation(probs, np.clip(v - theta * probs, 0.0, cap))
    for _ in range(200):
        if total(lo) >= 1.0:
            break
        lo *= 2.0
    for _ in range(200):
        if total(hi) <= 1.0:
            break
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if total(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.clip(v - theta * probs, 0.0, cap)


def _projected_ascent(dist, spec, beta, z0, max_iters=2000, stall=50):
    """Maximise E X*Z over the feasible set from z0 by projected ascent.

    Backtracking on the linear objective: accepted steps grow the rate,
    rejected ones halve it; feasibility is restored by mixing towards Z == 1.
    Stops when the best objective improves by < 1e-10 over ``stall``
    consecutive iterations.
    """
    p = dist.probs
    x = dist.atoms
    cap = 2.0
    p_min = float(p.min())
    for _ in range(200):
        if float(spec.phi(cap)) * p_min > beta:
            break
        cap *= 2.0

    def restored(v):
        z = _project_weighted_simplex(v, p, cap)
        if _expectation(p, spec.phi(z)) <= beta:
            return z
        glo, ghi = 0.0, 1.0
        for _ in range(80):
            g = 0.5 * (glo + ghi)
            if _expectation(p, spec.phi((1.0 - g) * z + g)) <= beta:
                ghi = g
            else:
                glo = g
        return (1.0 - ghi) * z + ghi

    grad = p * x
    scale = float(np.abs(grad).max()) or 1.0
    step = 1.0 / scale
    z = restored(np.asarray(z0, dtype=float))
    best = z.copy()
    best_obj = _expectation(p, x * z)
    since_improve = 0
    for _ in range(max_iters):
        cand = restored(z + step * grad)
        obj = _expectation(p, x * cand)
        if obj > best_obj + 1e-10:
            best, best_obj = cand.copy(), obj
            z = cand
            step *= 1.3
            since_improve = 0
        else:
            step *= 0.5
            since_improve += 1
            if since_improve >= stall or step < 1e-18 / scale:
                break
    return best


def solve_dual(dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> DualSolution:
    """Maximise E X*Z over the divergence ball {E Z = 1, E phi(Z) <= beta, Z >= 0}.

    First tries the characterizing-equation construction; if the system has
    no root (the boundary regime where rho equals the essential supremum),
    falls back to the extreme density on the maximal atoms, a scan over the
    one-parameter family psi'((X - nu)/t), and a projected-ascent polish.
    """
    beta = _check_beta(beta)
    roots = solve_characterizing_equations(dist, spec, beta)
    if roots is not None:
        try:
            return optimal_density(dist, spec, beta, *roots)
        except (StaleMultiplierError, NumericsError):  # fall through to ascent
            log.debug("characterizing-equation density rejected; falling back")

    p = dist.probs
    x = dist.atoms
    candidates = [np.ones(dist.n)]
    z_ext = _extreme_density(dist)
    if _expectation(p, spec.phi(z_ext)) <= beta + 1e-12:
        candidates.append(z_ext)
    candidates.extend(_density_family_scan(dist, spec, beta))
    start = max(candidates, key=lambda z: _expectation(p, x * z))
    z = _projected_ascent(dist, spec, beta, start)
    if _expectation(p, x * start) > _expectation(p, x * z):
        z = start
    return _finalise(dist, spec, beta, z, source="projected-ascent")


def _density_family_scan(dist, spec, beta, num=80):
    """Feasible members of t -> psi'((X - nu(t))/t) on a log-t grid."""
    from .risk import _solve_inner_nu  # local import to avoid a cycle at import time

    lo = dist.essinf
    spread = dist.esssup - lo
    if spread <= 1e-15 * max(1.0, abs(lo)):
        return []
    y = (dist.atoms[None, :] - lo) / spread
    out = []
    nu = None
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for t in np.logspace(-9, np.log10(2.0 / beta + 1.0), num):
            tv = np.array([t])
            nu = _solve_inner_nu(y, dist.probs, spec, tv, nu)
            z = np.asarray(spec.psi_prime((y - nu[:, None]) / tv[:, None]))[0]
            if not np.all(np.isfinite(z)):
                continue
            if _expectation(dist.probs, spec.phi(z)) <= beta + 1e-12:
                out.append(z)
    return out


def brute_force_dual(dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> float:
    """Grid oracle for the dual objective on at most three atoms.

    n = 2 walks z1 over a 10^6-point grid (z2 is pinned by the mean
    constraint); n = 3 uses a 3000 x 3000 grid over (z1, z2).  Error is
    bounded by the grid resolution times the atom scale.
    """
    beta = _check_beta(beta)
    p = dist.probs
    x = dist.atoms
    if dist.n == 1:
        return float(x[0])
    if dist.n == 2:
        z1 = np.linspace(0.0, 1.0 / p[0], 10**6)
        z2 = (1.0 - p[0] * z1) / p[1]
        div = p[0] * np.asarray(spec.phi(z1)) + p[1] * np.asarray(spec.phi(z2))
        obj = p[0] * x[0] * z1 + p[1] * x[1] * z2
        feas = div <= beta + 1e-12
        if not feas.any():
            raise NumericsError("no feasible grid point; should be impossible (Z == 1 is feasible)")
        return float(obj[feas].max())
    if dist.n == 3:
        npts = 3000
        z1 = np.linspace(0.0, 1.0 / p[0], npts)
        z2 = np.linspace(0.0, 1.0 / p[1], npts)
        phi1 = np.asarray(spec.phi(z1))
        best = -np.inf
        chunk = 256
        for start in range(0, npts, chunk):
            z1c = z1[start : start + chunk][:, None]
            phi1c = phi1[start : start + chunk][:, None]
            z3 = (1.0 - p[0] * z1c - p[1] * z2[None, :]) / p[2]
            ok = z3 >= -1e-14
            z3 = np.maximum(z3, 0.0)
            div = phi1c * p[0] + p[1] * np.asarray(spec.phi(z2))[None, :] + p[2] * np.asarray(spec.phi(z3))
            obj = p[0] * x[0] * z1c + p[1] * x[1] * z2[None, :] + p[2] * x[2] * z3
            feas = ok & (div <= beta + 1e-12)
            if feas.any():
                best = max(best, float(obj[feas].max()))
        if not np.isfinite(best):
            raise NumericsError("no feasible grid point; should be impossible (Z == 1 is feasible)")
        return best
    raise OracleSizeError(f"brute-force dual oracle supports n <= 3 atoms, got n = {dist.n}")


def divergence_ball_form(dist, spec, beta, q):
    """Restate a density as a measure: (E_Q X, feasibility of D_phi(Q || P) <= beta).

    q must be a probability vector on the atoms of dist (the measure
    Q_Z(B) = E 1_B Z corresponds to q_i = p_i z_i).
    """
    beta = _check_beta(beta)
    qa = np.asarray(q, dtype=float)
    if qa.shape != dist.atoms.shape:
        raise DataError(f"q has shape {qa.shape}, expected {dist.atoms.shape}")
    if np.any(qa < 0):
        raise DataError("q must be nonnegative")
    if abs(qa.sum() - 1.0) > 1e-6:
        raise DataError(f"q sums to {qa.sum()!r}, expected 1")
    expectation = float(np.dot(qa, dist.atoms))
    div = discrete_divergence(qa, dist.probs, spec, sum_tol=1e-6)
    return expectation, div <= beta
