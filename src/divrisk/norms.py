"""Divergence norms, Orlicz/Luxemburg norms and the dual norm.

The divergence norm is ||X|| = rho(|X|).  For the Young pair (Phi, Psi)
derived from the same divergence the Luxemburg norm is the smallest lambda
with E Phi(|X|/lambda) <= 1 and the Orlicz norm is the one-variable infimum
inf_t t*(1 + E Psi(|X|/t)); the two are equivalent within a factor of two.

The dual norm of Z admits a one-variable characterization when phi satisfies
the Delta2 condition: it is the smallest lambda >= E|Z| such that the
truncated density max{c_Z(lambda), |Z|/lambda} stays inside the divergence
ball, where the truncation level c_Z(lambda) restores unit mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ._search import golden_min
from .divergence import DivergenceSpec, YoungPair
from .empirical import EmpiricalDistribution
from .errors import InvalidParameterError, NumericsError, UnsupportedDivergenceError
from .risk import _check_beta, evaluate_primal

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


def _abs_dist(dist: EmpiricalDistribution) -> EmpiricalDistribution:
    return dist.map_atoms(np.abs)


def phi_beta_norm(dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> float:
    """Divergence norm rho(|X|)."""
    return evaluate_primal(_abs_dist(dist), spec, beta).value


def luxemburg_norm(dist: EmpiricalDistribution, pair: YoungPair) -> float:
    """Smallest lambda > 0 with E Phi(|X|/lambda) <= 1 (zero for X == 0).

    lambda -> E Phi(|X|/lambda) is non-increasing and continuous, and is
    already 0 at lambda = max|X| since Phi vanishes on [0, 1]; bisection
    against level one therefore starts from a feasible right end.
    """
    w = np.abs(dist.atoms)
    p = dist.probs
    top = float(w.max())
    if top == 0.0:
        return 0.0

    def level(lam: float) -> float:
        return float(np.dot(p, np.asarray(pair.Phi(w / lam))))

    hi = top
    lo = top
    for _ in range(200):
        lo *= 0.5
        if level(lo) > 1.0:
            break
    else:
        raise NumericsError("Luxemburg bracket expansion exhausted")
    for _ in range(120):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if level(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def _one_variable_inf(dist: EmpiricalDistribution, fn) -> float:
    """inf_t t*(1 + E fn(|X|/t)) by golden section over log t."""
    w = np.abs(dist.atoms)
    p = dist.probs
    top = float(w.max())
    if top == 0.0:
        return 0.0

    def objective(log_t):
        t = np.exp(log_t)
        vals = np.asarray(fn(w[None, :] / t[:, None]))
        return t * (1.0 + vals @ p)

    lo = np.array([np.log(top) - 22.0])
    hi = np.array([np.log(top) + 8.0])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for _ in range(3):
            log_t, val = golden_min(objective, lo, hi, iters=80)
            span = float(hi[0] - lo[0])
            pos = float(log_t[0])
            if lo[0] + 0.02 * span < pos < hi[0] - 0.02 * span:
                break
            if pos <= lo[0] + 0.02 * span:
                lo -= 16.0
            else:
                hi += 16.0
    return float(val[0])


def orlicz_norm(dist: EmpiricalDistribution, pair: YoungPair) -> float:
    """Orlicz norm via the one-variable Amemiya form inf_t t*(1 + E Phi(|X|/t)).

    This is the norm dual to the Luxemburg unit ball of the complementary
    function and satisfies luxemburg <= orlicz <= 2 * luxemburg.
    """
    return _one_variable_inf(dist, pair.Phi)


def young_norm_bound(dist: EmpiricalDistribution, pair: YoungPair) -> float:
    """One-variable Young-risk bound inf_t t*(1 + E Psi(|X|/t)).

    Freezing the shift variable at zero in the Young-pair risk norm at unit
    aversion gives this upper form; it is the functional the norm-equivalence
    constants (1/max{1,beta}, (Psi(1)+1)/min{1,beta}) relate to the
    divergence norm of the Young spec.  It is not the classical Orlicz norm:
    the factor-2 sandwich with the Luxemburg norm can fail for it.
    """
    return _one_variable_inf(dist, pair.Psi)


def truncation_level(z_dist: EmpiricalDistribution, lam: float) -> float:
    """The level c in [essinf(|Z|/lam), 1] with E max{c, |Z|/lam} = 1.

    With s = |Z|/lam sorted ascending, E max{c, S} is linear in c between
    consecutive atoms: on s_k <= c <= s_(k+1) it equals c*P_k + tail_k, with
    P_k = P(S <= s_k) and tail_k = E[S; S > s_k].  The level is therefore
    (1 - tail_k) / P_k on the first segment whose right end reaches one.  At
    lam = E|Z| the boundary value essinf(|Z|/lam) is returned, and for
    constant Z the level is identically one.
    """
    w = np.abs(z_dist.atoms)
    p = z_dist.probs
    ez = float(np.dot(p, w))
    if ez <= 0:
        raise InvalidParameterError("truncation level undefined for Z == 0")
    if lam < ez * (1.0 - 1e-12):
        raise InvalidParameterError(f"lambda must be >= E|Z| = {ez!r}")
    scaled = w / lam
    if float(scaled.max() - scaled.min()) <= 1e-15:
        return 1.0
    if lam <= ez * (1.0 + 1e-15):
        return float(scaled.min())

    order = np.argsort(scaled)
    s = scaled[order]
    mass = np.cumsum(p[order])
    tail = np.append(np.cumsum((p[order] * s)[::-1])[-2::-1], 0.0)
    k = int(np.searchsorted(s * mass + tail, 1.0))  # E max{s_k, S} first >= 1
    if k == 0:
        return float(s[0])
    c = (1.0 - tail[k - 1]) / mass[k - 1]
    return float(min(max(c, s[k - 1]), s[k] if k < s.size else 1.0))


def dual_norm(z_dist: EmpiricalDistribution, spec: DivergenceSpec, beta) -> float:
    """Dual norm of Z against the divergence norm, for phi in Delta2.

    Equals E|Z| whenever |Z|/E|Z| already lies in the divergence ball;
    otherwise it is the smallest lambda >= E|Z| whose truncated density
    max{c_Z(lambda), |Z|/lambda} satisfies E phi(...) <= beta, located by
    bisection on that feasibility predicate with geometric upper expansion.
    """
    beta = _check_beta(beta)
    if not spec.delta2:
        raise UnsupportedDivergenceError(
            f"dual norm characterization requires the Delta2 condition; {spec.name} is not flagged"
        )
    w = np.abs(z_dist.atoms)
    p = z_dist.probs
    ez = float(np.dot(p, w))
    if ez == 0.0:
        return 0.0
    if float(np.dot(p, np.asarray(spec.phi(w / ez)))) <= beta:
        return ez

    def feasible(lam: float) -> bool:
        c = truncation_level(z_dist, lam)
        zstar = np.maximum(c, w / lam)
        return float(np.dot(p, np.asarray(spec.phi(zstar)))) <= beta

    hi = ez
    for _ in range(200):
        hi *= 2.0
        if feasible(hi):
            break
    else:
        raise NumericsError("dual norm upper bracket expansion exhausted")
    lo = max(ez, hi / 2.0)
    for _ in range(120):
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
            ez = float(np.dot(dist.probs, w))
            if ez > 0:
                lams = np.linspace(ez, max(2.0 * ez, dn * 2.0), trace_points)
                trace = [(float(l), truncation_level(dist, float(l))) for l in lams]
    return NormReport(
        phi_beta_norm=phi_beta_norm(dist, spec, beta),
        luxemburg=luxemburg_norm(dist, pair),
        orlicz=orlicz_norm(dist, pair),
        dual_norm=dn,
        c_lambda_trace=trace,
    )
