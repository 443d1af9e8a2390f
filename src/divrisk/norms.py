"""Divergence norms, Orlicz/Luxemburg norms and the dual norm.

The divergence norm is ||X|| = rho(|X|).  For the Young pair (Phi, Psi)
derived from the same divergence the Luxemburg norm is the smallest lambda
with E Phi(|X|/lambda) <= 1 and the Orlicz norm is the one-variable infimum
inf_t t*(1 + E Phi(|X|/t)); the two are equivalent within a factor of two.

The dual norm of Z admits a one-variable characterization when phi satisfies
the Delta2 condition: it is the smallest lambda >= E|Z| such that the
truncated density max{c_Z(lambda), |Z|/lambda} stays inside the divergence
ball, where the truncation level c_Z(lambda) restores unit mean.

Each norm is the root of one monotone equation in s = log(scale): the
Luxemburg norm of log E Phi(|X|/lambda) = 0; the Orlicz norm and
:func:`young_norm_bound` of E[x F'(x) - F(x)] = 1 at x = |X|/t, the
first-order condition of the Amemiya form with F = Phi (or Psi), whose left
side is E Psi(Phi'(x)) by Fenchel equality; the dual norm of
log(E phi(max{c_Z(lambda), |Z|/lambda}) / beta) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .divergence import DivergenceSpec, YoungPair
from .dual import _expectation
from .empirical import EmpiricalDistribution
from .errors import InvalidParameterError, UnsupportedDivergenceError
from .risk import _check_beta, _log, _root_in_log, evaluate_primal

__all__ = [
    "NormReport",
    "phi_beta_norm",
    "luxemburg_norm",
    "orlicz_norm",
    "young_norm_bound",
    "dual_norm",
    "truncation_level",
    "norm_report",
]


@dataclass(frozen=True)
class NormReport:
    phi_beta_norm: float
    luxemburg: float
    orlicz: float
    dual_norm: Optional[float]
    c_lambda_trace: Optional[List[Tuple[float, float]]] = None


def phi_beta_norm(dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> float:
    """Divergence norm rho(|X|)."""
    return evaluate_primal(dist.map_atoms(np.abs), spec, beta).value


def luxemburg_norm(dist: EmpiricalDistribution, pair: YoungPair) -> float:
    """Smallest lambda > 0 with E Phi(|X|/lambda) <= 1 (zero for X == 0).

    Solves log E Phi(|X|/lambda) = 0 in s = log(lambda / max|X|) from
    lambda = E|X|, and returns the bracket end where the level is <= 1.
    """
    top = float(np.abs(dist.atoms).max())
    if top == 0.0:
        return 0.0
    x, p = np.abs(dist.atoms) / top, dist.probs

    def g(s):
        return _log(_expectation(p, pair.Phi(x * np.exp(-s))))

    with np.errstate(over="ignore", invalid="ignore"):
        s = math.log(_expectation(p, x))
        _, b = _root_in_log(g, s, g(s))
    return float(top * np.exp(b))


def _amemiya(dist: EmpiricalDistribution, F, F_prime) -> float:
    """inf_t t*(1 + E F(|X|/t)) for a Young function F.

    In s = log(t/max|X|) the objective O is convex with slope
    t*(1 - E[x F'(x) - F(x)]) at x = |X|/t; the root of E[x F'(x) - F(x)] = 1
    is bracketed from t = E|X| to a width of 1e-8.  The value is
    the least O at the two ends and where their tangents meet: within
    O(width**2) of the minimum whether it is smooth or a kink of O (at an
    atom, under kl).  Only that last point costs a pass of F.
    """
    top = float(np.abs(dist.atoms).max())
    if top == 0.0:
        return 0.0
    x, p = np.abs(dist.atoms) / top, dist.probs
    seen = {}

    def g(s):
        t = float(np.exp(s))
        xs = x * np.exp(-s)
        f = np.asarray(F(xs))
        lhs = _expectation(p, xs * np.asarray(F_prime(xs)) - f)
        seen[s] = (t * (1.0 + _expectation(p, f)), t * (1.0 - lhs))
        return _log(lhs)

    with np.errstate(over="ignore", invalid="ignore"):
        s = math.log(_expectation(p, x))
        a, b = _root_in_log(g, s, g(s), 1e-8)
        (va, da), (vb, db) = seen[a], seen[b]
        value = min(va, vb)
        if math.isfinite(da - db) and da < db:
            u = min(max(a + (vb - va - db * (b - a)) / (da - db), a), b)
            value = min(value, float(np.exp(u)) * (1.0 + _expectation(p, F(x * np.exp(-u)))))
    return top * value


def orlicz_norm(dist: EmpiricalDistribution, pair: YoungPair) -> float:
    """Orlicz norm via the one-variable Amemiya form inf_t t*(1 + E Phi(|X|/t)).

    The minimiser solves E Psi(Phi'(|X|/t)) = 1, computed as
    E[x Phi'(x) - Phi(x)] = 1 at x = |X|/t (Krasnosel'skii & Rutickii 1961).
    This is the norm dual to the Luxemburg unit ball of the complementary
    function and satisfies luxemburg <= orlicz <= 2 * luxemburg.
    """
    return _amemiya(dist, pair.Phi, pair.spec.phi_prime)


def young_norm_bound(dist: EmpiricalDistribution, pair: YoungPair) -> float:
    """One-variable Young-risk bound inf_t t*(1 + E Psi(|X|/t)).

    The minimiser solves E[y Psi'(y) - Psi(y)] = E Phi(Psi'(y)) = 1 at
    y = |X|/t.  Freezing the shift variable at zero in the Young-pair risk
    norm at unit aversion gives this upper form; it is the functional the
    norm-equivalence constants (1/max{1,beta}, (Psi(1)+1)/min{1,beta}) relate
    to the divergence norm of the Young spec.  It is not the classical
    Orlicz norm: the factor-2 sandwich with the Luxemburg norm can fail for it.
    """
    return _amemiya(dist, pair.Psi, pair.spec.psi_prime)


def _truncation_levels(w: np.ndarray, p: np.ndarray, ez: float):
    """lam -> c_Z(lam) for |Z| = w with E|Z| = ez: one sort, then a binary
    search per lam.  With w ascending, lam * E max{c, |Z|/lam} equals
    c*lam*P_k + tail_k on w_k <= c*lam <= w_(k+1), with P_k = P(|Z| <= w_k)
    and tail_k = E[|Z|; |Z| > w_k], so c = (1 - tail_k/lam) / P_k on the
    first segment with w_k*P_k + tail_k >= lam.  At lam = E|Z| the level is
    essinf(|Z|/lam), and for constant Z it is one."""
    order = np.argsort(w)
    s = w[order]
    mass = np.cumsum(p[order])
    tail = np.append(np.cumsum((p[order] * s)[::-1])[-2::-1], 0.0)
    reach = s * mass + tail
    spread = float(s[-1] - s[0])

    def level(lam: float) -> float:
        if spread / lam <= 1e-15:
            return 1.0
        if lam <= ez * (1.0 + 1e-15):
            return float(s[0] / lam)
        k = int(np.searchsorted(reach, lam))
        if k == 0:
            return float(s[0] / lam)
        c = (1.0 - tail[k - 1] / lam) / mass[k - 1]
        return float(min(max(c, s[k - 1] / lam), s[k] / lam if k < s.size else 1.0))

    return level


def truncation_level(z_dist: EmpiricalDistribution, lam: float) -> float:
    """The level c in [essinf(|Z|/lam), 1] with E max{c, |Z|/lam} = 1.

    E max{c, |Z|/lam} is piecewise linear in c with breakpoints at the atoms;
    see :func:`_truncation_levels`.
    """
    w = np.abs(z_dist.atoms)
    p = z_dist.probs
    ez = _expectation(p, w)
    if ez <= 0:
        raise InvalidParameterError("truncation level undefined for Z == 0")
    if lam < ez * (1.0 - 1e-12):
        raise InvalidParameterError(f"lambda must be >= E|Z| = {ez!r}")
    return _truncation_levels(w, p, ez)(lam)


def dual_norm(z_dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> float:
    """Dual norm of Z against the divergence norm, for phi in Delta2.

    Equals E|Z| whenever |Z|/E|Z| already lies in the divergence ball;
    otherwise it is the smallest lambda >= E|Z| whose truncated density
    max{c_Z(lambda), |Z|/lambda} satisfies E phi(...) <= beta: the bracket
    end inside the ball of log(E phi(...) / beta) = 0 in s = log(lambda/E|Z|),
    with |Z| sorted once for every c_Z(lambda).
    """
    beta = _check_beta(beta)
    if not spec.delta2:
        raise UnsupportedDivergenceError(
            f"dual norm characterization requires the Delta2 condition; {spec.name} is not flagged"
        )
    w = np.abs(z_dist.atoms)
    p = z_dist.probs
    ez = _expectation(p, w)
    if ez == 0.0:
        return 0.0
    level = _truncation_levels(w, p, ez)

    def g(s):
        lam = float(ez * np.exp(s))
        return _log(_expectation(p, spec.phi(np.maximum(w / lam, level(lam)))) / beta)

    with np.errstate(over="ignore"):
        g0 = g(0.0)
        if g0 <= 0.0:
            return ez
        _, b = _root_in_log(g, 0.0, g0)
    return float(ez * np.exp(b))


def norm_report(
    dist: EmpiricalDistribution,
    spec: DivergenceSpec,
    beta,
    pair: Optional[YoungPair] = None,
    trace_points: int = 0,
) -> NormReport:
    """Compute all norms of X at once (the same variable serves as Z for the
    dual norm, which is absent when phi is not Delta2)."""
    from .divergence import young_pair as _young_pair

    beta = _check_beta(beta)
    pair = pair if pair is not None else _young_pair(spec)
    dn = None
    trace = None
    if spec.delta2:
        dn = dual_norm(dist, spec, beta)
        if trace_points > 0:
            w = np.abs(dist.atoms)
            ez = _expectation(dist.probs, w)
            if ez > 0:
                level = _truncation_levels(w, dist.probs, ez)
                lams = np.linspace(ez, max(2.0 * ez, dn * 2.0), trace_points)
                trace = [(float(l), level(float(l))) for l in lams]
    return NormReport(
        phi_beta_norm=phi_beta_norm(dist, spec, beta),
        luxemburg=luxemburg_norm(dist, pair),
        orlicz=orlicz_norm(dist, pair),
        dual_norm=dn,
        c_lambda_trace=trace,
    )
