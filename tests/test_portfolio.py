import numpy as np
import pytest

import divrisk as dr
from divrisk.errors import DataError, OracleSizeError

from _oracles import random_feasible_density


def uniform_panel(losses):
    losses = np.asarray(losses, float)
    return dr.AssetPanel(losses=losses, probs=np.full(losses.shape[0], 1.0 / losses.shape[0]))


def test_single_asset(kl):
    panel = uniform_panel([[1.0], [2.0], [3.0]])
    sol = dr.minimize_portfolio_risk(panel, kl, 0.5)
    assert sol.weights == pytest.approx([1.0])
    direct = dr.evaluate_primal(dr.from_samples([1.0, 2.0, 3.0]), kl, 0.5).value
    assert sol.risk == pytest.approx(direct, abs=1e-9)
    assert sol.converged


def test_converged_is_backed_by_the_frank_wolfe_gap(kl):
    # 50 scenarios x 4 comparably risky assets: a common factor plus t(5) noise
    rng = np.random.default_rng(1)
    factor = rng.standard_normal(50)
    losses = rng.uniform(0.8, 1.25, 4) * (0.45 * factor[:, None] + rng.standard_t(5, (50, 4)))
    panel = uniform_panel(losses)
    sol = dr.minimize_portfolio_risk(panel, kl, 0.5, max_iters=2)
    z = dr.solve_dual(panel.portfolio_dist(sol.weights), kl, 0.5).z
    g = losses.T @ (panel.probs * z)
    assert float(g @ sol.weights - g.min()) > 1e-5 * float(losses.max() - losses.min())
    assert not sol.converged


def test_identical_assets(kl):
    panel = uniform_panel([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    sol = dr.minimize_portfolio_risk(panel, kl, 0.3)
    direct = dr.evaluate_primal(dr.from_samples([1.0, 2.0, 0.5]), kl, 0.3).value
    assert sol.risk == pytest.approx(direct, abs=1e-7)


def test_perfect_hedge(chi2):
    panel = uniform_panel([[-1.0, 1.0], [1.0, -1.0]])
    sol = dr.minimize_portfolio_risk(panel, chi2, 0.25)
    assert sol.risk == pytest.approx(0.0, abs=1e-7)
    assert sol.weights == pytest.approx([0.5, 0.5], abs=1e-4)
    oracle = dr.grid_oracle_portfolio(panel, chi2, 0.25, 1001)
    assert abs(sol.risk - oracle) <= 1e-3


def test_grid_oracle_identical_assets(kl):
    panel = uniform_panel([[1.0, 1.0], [2.0, 2.0]])
    direct = dr.evaluate_primal(dr.from_samples([1.0, 2.0]), kl, 0.4).value
    assert dr.grid_oracle_portfolio(panel, kl, 0.4, 101) == pytest.approx(direct, abs=1e-9)


def test_cross_validation_random_panels(specs):
    rng = np.random.default_rng(61)
    for i in range(6):
        spec = list(specs.values())[i % 4]
        losses = rng.normal(0, 1, (int(rng.integers(3, 7)), 2))
        panel = uniform_panel(losses)
        beta = float(rng.uniform(0.1, 1.0))
        sol = dr.minimize_portfolio_risk(panel, spec, beta)
        oracle = dr.grid_oracle_portfolio(panel, spec, beta, 1001)
        assert abs(sol.risk - oracle) <= 1e-3


def test_joint_objective_matches_nested(chi2):
    rng = np.random.default_rng(62)
    losses = rng.normal(0, 1, (5, 2))
    panel = uniform_panel(losses)
    sol = dr.minimize_portfolio_risk(panel, chi2, 0.4)
    dist = panel.portfolio_dist(sol.weights)
    nested = dr.evaluate_primal(dist, chi2, 0.4).value
    assert sol.risk == pytest.approx(nested, abs=1e-9)
    if sol.t_star is not None:
        joint = sol.t_star * (
            0.4 + sol.mu_star + float(np.dot(dist.probs, np.asarray(chi2.psi(dist.atoms / sol.t_star - sol.mu_star))))
        )
        assert joint == pytest.approx(nested, abs=1e-6)


def test_corner_bound_and_convexity(specs):
    rng = np.random.default_rng(63)
    spec = specs["power:1.5"]
    losses = rng.normal(0, 1, (5, 3))
    panel = uniform_panel(losses)
    beta = 0.6
    sol = dr.minimize_portfolio_risk(panel, spec, beta)
    corners = [
        dr.evaluate_primal(panel.portfolio_dist(np.eye(3)[i]), spec, beta).value for i in range(3)
    ]
    assert sol.risk <= min(corners) + 1e-7
    # convexity along a random segment
    w1 = rng.dirichlet(np.ones(3))
    w2 = rng.dirichlet(np.ones(3))
    r1 = dr.evaluate_primal(panel.portfolio_dist(w1), spec, beta).value
    r2 = dr.evaluate_primal(panel.portfolio_dist(w2), spec, beta).value
    rm = dr.evaluate_primal(panel.portfolio_dist(0.5 * (w1 + w2)), spec, beta).value
    assert rm <= 0.5 * (r1 + r2) + 1e-7


def test_weak_duality_floor(chi2):
    rng = np.random.default_rng(64)
    losses = rng.normal(0, 1, (4, 2))
    panel = uniform_panel(losses)
    beta = 0.3
    sol = dr.minimize_portfolio_risk(panel, chi2, beta)
    dist0 = panel.portfolio_dist(np.array([0.5, 0.5]))
    for _ in range(6):
        z = random_feasible_density(rng, dist0, chi2, beta)
        floor = min(float(np.dot(panel.probs, losses[:, i] * z)) for i in range(2))
        assert sol.risk >= floor - 1e-6


def test_panel_validation():
    with pytest.raises(DataError):
        dr.AssetPanel(losses=[[1.0, 2.0]], probs=[0.5, 0.5])
    with pytest.raises(DataError):
        dr.AssetPanel(losses=[[np.inf, 2.0]], probs=[1.0])
    with pytest.raises(OracleSizeError):
        dr.grid_oracle_portfolio(
            dr.AssetPanel(losses=[[1.0, 2.0, 3.0]], probs=[1.0]),
            dr.make_builtin_divergence("kl"),
            0.5,
        )


def test_panel_csv(tmp_path, kl):
    f = tmp_path / "panel.csv"
    f.write_text("a, b, p\n-1.0, 1.0, 2\n1.0, -1.0, 2\n")
    panel = dr.panel_from_csv(f)
    assert panel.n_assets == 2
    assert panel.probs == pytest.approx([0.5, 0.5])

    f2 = tmp_path / "panel2.csv"
    f2.write_text("a, b\n# comment\n-1.0, 1.0\n1.0, -1.0\n")
    panel2 = dr.panel_from_csv(f2)
    assert panel2.probs == pytest.approx([0.5, 0.5])
    assert np.allclose(panel2.losses, [[-1.0, 1.0], [1.0, -1.0]])

    bad = tmp_path / "bad.csv"
    bad.write_text("a, b\n1.0\n")
    with pytest.raises(DataError, match="line 2"):
        dr.panel_from_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("a, b\n")
    with pytest.raises(DataError):
        dr.panel_from_csv(empty)
