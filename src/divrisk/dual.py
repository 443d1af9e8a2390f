"""Dual representation of divergence risk on finite atom spaces.

The risk equals sup{E X*Z : Z >= 0, E Z = 1, E phi(Z) <= beta}.  The
characterizing-equation core of divrisk.risk returns the maximiser together
with the value.  When the characterizing equations have a root (beta below
B(0+), see ``is_attained``) it is the closed form Z* = psi'(X/t* - mu*), at
the end of the search where E phi(Z*) <= beta.  Otherwise it is the extreme
density 1{X = esssup} / P(X = esssup), which is feasible exactly in that
regime and attains E X*Z = esssup X, the value of rho there.  Z == 1 is
always strictly feasible (phi(1) = 0 < beta), which guarantees strong
duality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceSpec, discrete_divergence
from .empirical import EmpiricalDistribution
from .errors import DataError, NumericsError, OracleSizeError, StaleMultiplierError

# solve_characterizing_equations stays reachable as divrisk.dual.solve_characterizing_equations
from .risk import _check_beta, evaluate_primal, solve_characterizing_equations  # noqa: F401

__all__ = [
    "DualSolution",
    "solve_dual",
    "optimal_density",
    "brute_force_dual",
    "divergence_ball_form",
]


@dataclass(frozen=True)
class DualSolution:
    """A feasible density over atoms with its objective and constraint slacks."""

    z: np.ndarray
    objective: float
    mean_slack: float
    divergence_slack: float
    source: str


def _expectation(probs, values) -> float:
    return float(np.einsum("i,i->", probs, np.asarray(values)))


def _finalise(dist, spec, beta, z, source) -> DualSolution:
    """Renormalise the mean, then package the density with its slacks."""
    p = dist.probs
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
    equalities tying E X*Z* to the primal objective at (t*, mu*).  Only the
    mean is renormalised, so ``divergence_slack`` carries the second
    residual: it is negative by at most 1e-6 when beta < E phi(Z*).
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


def solve_dual(dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> DualSolution:
    """Maximise E X*Z over the divergence ball {E Z = 1, E phi(Z) <= beta, Z >= 0}.

    The maximiser is the density of evaluate_primal, with its mean
    renormalised.  ``source`` is "characterizing-equations" when the
    equations have a root and "extreme-density" when they have none (the
    boundary regime, where the supremum is the essential supremum; constant X
    included).
    """
    beta = _check_beta(beta)
    ev = evaluate_primal(dist, spec, beta)
    source = "characterizing-equations" if ev.attained else "extreme-density"
    return _finalise(dist, spec, beta, ev.density, source)


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
