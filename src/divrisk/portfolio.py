"""Risk-minimal portfolio allocation over the probability simplex.

Minimising rho(X_w) in the weights w is jointly convex with the inner
variables (t, mu), so a single minimisation over (w, mu, t) suffices.  The
implementation alternates an exact inner solve (the risk evaluator) with
projected subgradient steps in w, where the subgradient is supplied by the
optimal dual density that the evaluator returns with the risk, in either
regime: d rho(X_w)/d w_i = E X_i Z*.  A batched line-search polish along
coordinate-exchange segments finishes the run; risk along any simplex
segment is convex, so nested grid refinement is reliable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .divergence import DivergenceSpec
from .empirical import EmpiricalDistribution
from .errors import DataError, InvalidParameterError, OracleSizeError
from .risk import _check_beta, evaluate_primal, evaluate_primal_batch

__all__ = [
    "AssetPanel",
    "PortfolioSolution",
    "minimize_portfolio_risk",
    "grid_oracle_portfolio",
    "panel_from_csv",
]

_FW_GAP_TOL = 1e-5  # converged: Frank-Wolfe gap <= this times the loss spread


@dataclass(frozen=True, eq=False)
class AssetPanel:
    """Loss matrix (scenarios x assets) with scenario probabilities."""

    losses: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        losses = np.atleast_2d(np.asarray(self.losses, dtype=float))
        probs = np.asarray(self.probs, dtype=float)
        if losses.ndim != 2 or losses.size == 0:
            raise DataError("losses must be a non-empty (scenarios, assets) matrix")
        if not np.all(np.isfinite(losses)):
            raise DataError("losses must be finite")
        if probs.ndim != 1 or probs.size != losses.shape[0]:
            raise DataError("probs must align with the scenario axis of losses")
        if np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise DataError("scenario probabilities must be positive and sum to 1")
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
    weights: np.ndarray
    risk: float
    t_star: Optional[float]
    mu_star: Optional[float]
    iterations: int
    converged: bool


def _project_simplex(v):
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, v.size + 1) > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def minimize_portfolio_risk(
    panel: AssetPanel,
    spec: DivergenceSpec,
    beta,
    max_iters: int = 60,
    polish_sweeps: int = 4,
) -> PortfolioSolution:
    """Minimise rho of the portfolio loss over simplex weights.

    Projected subgradient with a diminishing 1/k schedule and best-iterate
    tracking, stopped when the best risk improves by less than 1e-8 over 20
    consecutive iterations; the polish phase then runs batched golden-style
    refinements along weight-exchange segments.  ``converged`` is a
    certificate: the Frank-Wolfe gap <g, w> - min_i g_i, with g_i = E X_i Z*
    at the returned weights, bounds rho(X_w) minus the optimal risk, and must
    be at most 1e-5 of the loss spread.  Only the risk value is contractual;
    with ties (e.g. identical assets) the returned weights are whatever the
    iteration settles on.
    """
    beta = _check_beta(beta)
    losses = panel.losses
    m = panel.n_assets
    w = np.full(m, 1.0 / m)

    def risk_and_density(weights):
        """Risk plus a dual-optimal density (the subgradient generator)."""
        ev = evaluate_primal(panel.portfolio_dist(weights), spec, beta)
        return ev, ev.density

    best_ev, z = risk_and_density(w)
    best_w = w.copy()
    best_risk = best_ev.value
    iterations = 0
    stall = 0
    step0 = 1.0
    if m > 1:
        for k in range(1, max_iters + 1):
            iterations += 1
            grad = losses.T @ (panel.probs * z)
            gnorm = float(np.linalg.norm(grad - grad.mean()))
            if gnorm < 1e-14:
                break
            w = _project_simplex(w - (step0 / k) * grad / gnorm)
            ev, z = risk_and_density(w)
            if ev.value < best_risk - 1e-8:
                best_risk, best_w = ev.value, w.copy()
                stall = 0
            else:
                stall += 1
                if stall >= 20:
                    break

        w = best_w.copy()
        for _ in range(polish_sweeps):
            improved = _exchange_polish(panel, spec, beta, w, best_risk)
            if improved is None:
                break
            w, best_risk = improved

    final, z = risk_and_density(w)
    grad = losses.T @ (panel.probs * z)
    fw_gap = float(grad @ w - grad.min())  # bounds rho(X_w) - min_w rho(X_w)
    return PortfolioSolution(
        weights=w,
        risk=final.value,
        t_star=final.t_star,
        mu_star=final.mu_star,
        iterations=iterations,
        converged=fw_gap <= _FW_GAP_TOL * float(losses.max() - losses.min()),
    )


def _exchange_polish(panel, spec, beta, w, current_risk):
    """One sweep of pairwise weight-exchange line searches (batched grids).

    For each ordered pair (i, j), risk is convex along w + delta*(e_i - e_j);
    three nested 33-point grids resolve delta to ~3e-5 of its range.  Returns
    (w, risk) on improvement beyond 1e-10, else None.
    """
    m = w.size
    best_w, best_risk = w, current_risk
    improved = False
    for i in range(m):
        for j in range(i + 1, m):
            span_lo, span_hi = -best_w[i], best_w[j]
            if span_hi - span_lo <= 1e-14:
                continue
            lo, hi = span_lo, span_hi
            for _ in range(3):
                deltas = np.linspace(lo, hi, 33)
                trial_w = np.repeat(best_w[None, :], deltas.size, axis=0)
                trial_w[:, i] += deltas
                trial_w[:, j] -= deltas
                atoms = trial_w @ panel.losses.T
                vals = evaluate_primal_batch(atoms, panel.probs, spec, beta)
                kbest = int(np.argmin(vals))
                width = (hi - lo) / 32.0
                lo = max(span_lo, deltas[kbest] - width)
                hi = min(span_hi, deltas[kbest] + width)
            if vals[kbest] < best_risk - 1e-10:
                best_w = trial_w[kbest]
                best_risk = float(vals[kbest])
                improved = True
    return (best_w, best_risk) if improved else None


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
