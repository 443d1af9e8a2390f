"""Risk-minimal portfolio allocation over the probability simplex.

By the dual representation rho(X) = sup{E[XZ] : Z >= 0, E Z = 1,
E phi(Z) <= beta}, w -> rho(X_w) is a support function.  The optimal density
Z* that the risk evaluator returns with rho(X_w), in either regime, thus
gives an exact cut g.v <= rho(X_v) with g_i = E[X_i Z*] and equality at w.
A mixture of such densities is feasible too, so for the cut g of any mixture,
min_i g_i <= min_w rho(X_w) by weak duality.

The solver is a proximal bundle method with cut aggregation (Kiwiel, Math.
Prog. 46, 1990) that keeps two cuts, the aggregate and the newest.  Each step
minimises their maximum plus |v - w|^2 / (2t) over the simplex through the
sort-based simplex projection (Duchi et al., ICML 2008), with the weight of
the mixture found by bisection on the slope of the one-dimensional dual.  The
best mixture of the two cuts certifies the result: its lower bound and
density are kept, and ``converged`` means that the best evaluated risk is
within 1e-5 of the loss spread of that bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .divergence import DivergenceSpec
from .empirical import EmpiricalDistribution, _checked
from .errors import DataError, InvalidParameterError, OracleSizeError
from .risk import _check_beta, evaluate_primal, evaluate_primal_batch

__all__ = [
    "AssetPanel",
    "PortfolioSolution",
    "minimize_portfolio_risk",
    "grid_oracle_portfolio",
    "panel_from_csv",
]

_CERT_TOL = 1e-5  # converged: best risk - certified lower bound <= this times the loss spread


@dataclass(frozen=True, eq=False)
class AssetPanel:
    """Loss matrix (scenarios x assets) with scenario probabilities."""

    losses: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        losses, probs = _checked(np.atleast_2d(self.losses), self.probs, ndim=2, axis=0)
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "probs", probs)

    @property
    def n_assets(self) -> int:
        return self.losses.shape[1]

    @property
    def n_scenarios(self) -> int:
        return self.losses.shape[0]

    def portfolio_dist(self, weights) -> EmpiricalDistribution:
        return EmpiricalDistribution(atoms=self.losses @ np.asarray(weights, float), probs=self.probs)


@dataclass(frozen=True)
class PortfolioSolution:
    """The best evaluated weights, their risk and an optimality certificate.

    ``iterations`` counts risk evaluations.  ``density`` is a dual density Z
    on the panel's scenarios (Z >= 0, E Z = 1, E phi(Z) <= beta) whose bound
    min_i E[X_i Z] <= min_w rho(X_w) is the best the solver found;
    ``converged`` means ``risk - min_i E[X_i Z]`` is at most 1e-5 of the loss
    spread, which can be checked from ``density`` alone.
    """

    weights: np.ndarray
    risk: float
    t_star: Optional[float]
    mu_star: Optional[float]
    iterations: int
    converged: bool
    density: np.ndarray = field(compare=False, repr=False)


def _project_simplex(v):
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, v.size + 1) > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def _argmax_concave(slope):
    """lam in [0, 1] maximising a concave function of lam, by bisection on
    the sign of its (super)gradient ``slope(lam)``."""
    if slope(0.0) <= 0.0:
        return 0.0
    if slope(1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
    return lo


def minimize_portfolio_risk(
    panel: AssetPanel,
    spec: DivergenceSpec,
    beta,
    max_iters: int = 60,
    polish_sweeps: int = 4,
) -> PortfolioSolution:
    """Minimise rho of the portfolio loss over simplex weights.

    Starting from equal weights with step t = 1 / |g - mean g|, each step
    minimises max(a.v, b.v) + |v - w|^2 / (2t) over the simplex, where a is
    the aggregate cut and b the newest; this is v = P(w - t(a + lam(b - a)))
    with lam maximising the concave dual.  When rho(X_v) falls by at least a
    tenth of the model's predicted decrease, w moves to v and t doubles;
    otherwise t halves.  Either way a becomes the lam-mixture and b v's cut.
    After each evaluation the lower bound rises to the best mixture's
    min_i (a + lam(b - a))_i.  The run stops once the best risk is
    within 1e-5 of the loss spread of the bound (``converged``) or after
    ``max_iters`` risk evaluations.  ``polish_sweeps`` is accepted and
    ignored.  Only the risk value is contractual; with ties (e.g. identical
    assets) the returned weights are whichever were evaluated best.
    """
    beta = _check_beta(beta)
    losses, probs = panel.losses, panel.probs
    tol = _CERT_TOL * float(losses.max() - losses.min())

    def evaluate(weights):
        """Risk at the weights, with its cut: q = p Z* / E[p Z*], g = L^T q."""
        ev = evaluate_primal(panel.portfolio_dist(weights), spec, beta)
        q = probs * ev.density
        q /= q.sum()
        return ev, (q, losses.T @ q)

    w = np.full(panel.n_assets, 1.0 / panel.n_assets)
    best, cut = evaluate(w)
    best_w, risk_w, agg, new = w, best.value, cut, cut
    # the projection ignores a constant: steps see the cuts less a common
    # shift, or a large common loss rounds into the weights
    shift = float(cut[1].mean())
    t = 1.0 / (float(np.linalg.norm(cut[1] - shift)) or 1.0)
    lower, evaluations = -np.inf, 1
    while True:
        (qa, ga), (qn, gn) = agg, new
        dg = gn - ga
        lam = _argmax_concave(lambda s: dg[np.argmin(ga + s * dg)])
        bound = float(np.min(ga + lam * dg))
        if bound > lower:
            lower, density = bound, (qa + lam * (qn - qa)) / probs
        if best.value - lower <= tol or evaluations >= max_iters:
            break

        def step(s):
            return _project_simplex(w - t * (ga - shift + s * dg))

        lam = _argmax_concave(lambda s: dg @ step(s))
        v = step(lam)
        model = max(ga @ v, gn @ v)
        ev, cut = evaluate(v)
        evaluations += 1
        if ev.value < best.value:
            best, best_w = ev, v
        # the cuts are exact minorants wherever w is, so the aggregate is kept
        # after w moves too; resetting it there stalls in narrow valleys
        agg, new = (qa + lam * (qn - qa), ga + lam * dg), cut
        if ev.value <= risk_w - 0.1 * (risk_w - model):
            w, risk_w, t = v, ev.value, 2.0 * t
        else:
            t = 0.5 * t
    return PortfolioSolution(
        weights=best_w,
        risk=best.value,
        t_star=best.t_star,
        mu_star=best.mu_star,
        iterations=evaluations,
        converged=best.value - lower <= tol,
        density=density,
    )


# bench/tracing.py wraps this name; the benchmark's tracer fails without it
_exchange_polish = None


def grid_oracle_portfolio(panel: AssetPanel, spec: DivergenceSpec, beta, resolution: int = 1001) -> float:
    """Exhaustive 2-asset oracle: min of rho(X_w) over a uniform weight grid.

    Error is bounded by the grid modulus times the Lipschitz constant of
    w -> rho(X_w), itself at most the asset spread by subadditivity and
    positive homogeneity.
    """
    beta = _check_beta(beta)
    if panel.n_assets != 2:
        raise OracleSizeError(f"grid oracle needs exactly 2 assets, got {panel.n_assets}")
    if resolution < 2:
        raise InvalidParameterError("resolution must be at least 2")
    w1 = np.linspace(0.0, 1.0, resolution)
    atoms = w1[:, None] * panel.losses[:, 0][None, :] + (1.0 - w1)[:, None] * panel.losses[:, 1][None, :]
    vals = evaluate_primal_batch(atoms, panel.probs, spec, beta)
    return float(vals.min())


def panel_from_csv(path) -> AssetPanel:
    """Read an asset panel from CSV: header of asset names, one row per
    scenario, optional probability column named 'p' (renormalised)."""
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [s.strip() for s in line.split(",")]
            if header is None:
                if any(not s for s in parts):
                    raise DataError(f"{path}: line {lineno}: empty column name in header")
                header = parts
                continue
            if len(parts) != len(header):
                raise DataError(f"{path}: line {lineno}: expected {len(header)} columns, got {len(parts)}")
            try:
                rows.append([float(s) for s in parts])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: cannot parse number: {exc}") from exc
    if header is None or not rows:
        raise DataError(f"{path}: need a header row and at least one scenario row")
    table = np.asarray(rows, dtype=float)
    if "p" in header:
        pcol = header.index("p")
        probs = table[:, pcol]
        if np.any(probs <= 0):
            raise DataError(f"{path}: probabilities in column 'p' must be strictly positive")
        losses = np.delete(table, pcol, axis=1)
        probs = probs / probs.sum()
    else:
        losses = table
        probs = np.full(table.shape[0], 1.0 / table.shape[0])
    if losses.shape[1] == 0:
        raise DataError(f"{path}: no asset columns")
    return AssetPanel(losses=losses, probs=probs)
