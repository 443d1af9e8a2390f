import math

import numpy as np
import pytest

import divrisk as dr
from divrisk.errors import DataError, OracleSizeError, StaleMultiplierError

from conftest import random_dist
from _oracles import random_feasible_density


def test_constant_dual(specs):
    d = dr.from_samples([2.5, 2.5, 2.5])
    for spec in specs.values():
        sol = dr.solve_dual(d, spec, 0.5)
        assert sol.objective == pytest.approx(2.5, abs=1e-9)
        assert sol.mean_slack <= 1e-8
        assert sol.divergence_slack >= -1e-8


def test_chi2_symmetric_optimal_density(chi2):
    d = dr.from_samples([-1.0, 1.0])
    sol = dr.solve_dual(d, chi2, 0.25)
    assert sol.objective == pytest.approx(0.5, abs=1e-6)
    assert sol.z[0] == pytest.approx(0.5, abs=1e-4)
    assert sol.z[1] == pytest.approx(1.5, abs=1e-4)


def test_kl_boundary_density(kl):
    # Z = (0, 2) is feasible at beta = log 2 since E phi(Z) = log 2, so the
    # supremum is the essential supremum 1, matching is_attained = False
    d = dr.from_samples([0.0, 1.0])
    beta = math.log(2.0)
    z_extreme = np.array([0.0, 2.0])
    div = float(np.dot(d.probs, np.asarray(kl.phi(z_extreme))))
    assert div == pytest.approx(beta, abs=1e-15)
    sol = dr.solve_dual(d, kl, beta)
    assert sol.objective == pytest.approx(1.0, abs=1e-6)
    assert not dr.is_attained(d, kl, beta)


def test_optimal_density_postconditions(kl):
    d = dr.from_samples([0.0, 1.0])
    beta = 0.1
    roots = dr.solve_characterizing_equations(d, kl, beta)
    assert roots is not None
    sol = dr.optimal_density(d, kl, beta, *roots)
    z = sol.z
    assert float(np.dot(d.probs, z)) == pytest.approx(1.0, abs=1e-6)
    assert float(np.dot(d.probs, np.asarray(kl.phi(z)))) == pytest.approx(beta, abs=1e-6)
    primal = dr.evaluate_primal(d, kl, beta).value
    assert sol.objective == pytest.approx(primal, abs=1e-6)


def test_optimal_density_rejects_stale_multipliers(kl):
    d = dr.from_samples([0.0, 1.0])
    with pytest.raises(StaleMultiplierError):
        dr.optimal_density(d, kl, 0.1, 1.0, 5.0)
    with pytest.raises(StaleMultiplierError):
        dr.optimal_density(d, kl, 0.1, None, 0.0)


def test_brute_force_examples(chi2, kl):
    const = dr.from_samples([3.0, 3.0])
    assert dr.brute_force_dual(const, chi2, 0.5) == pytest.approx(3.0, abs=1e-9)

    d = dr.from_samples([-1.0, 1.0])
    assert dr.brute_force_dual(d, chi2, 0.25) == pytest.approx(0.5, abs=1e-4)

    d2 = dr.from_samples([0.0, 1.0])
    bf = dr.brute_force_dual(d2, kl, 0.3)
    assert dr.solve_dual(d2, kl, 0.3).objective == pytest.approx(bf, abs=1e-4)

    single = dr.from_samples([7.0])
    assert dr.brute_force_dual(single, kl, 1.0) == 7.0

    with pytest.raises(OracleSizeError):
        dr.brute_force_dual(dr.from_samples([1, 2, 3, 4]), kl, 0.5)


def test_oracle_equivalence_small(specs):
    rng = np.random.default_rng(31)
    for i in range(10):
        spec = list(specs.values())[i % 4]
        n = int(rng.integers(2, 4))
        d = random_dist(rng, n=n, scale=0.8, shift=0.0)
        beta = float(rng.uniform(0.05, 1.5))
        bf = dr.brute_force_dual(d, spec, beta)
        sd = dr.solve_dual(d, spec, beta).objective
        assert abs(sd - bf) <= 5e-4


def test_weak_duality_for_random_feasible_densities(specs):
    rng = np.random.default_rng(32)
    for i in range(12):
        spec = list(specs.values())[i % 4]
        d = random_dist(rng)
        beta = float(rng.uniform(0.1, 2.0))
        primal = dr.evaluate_primal(d, spec, beta).value
        for _ in range(5):
            z = random_feasible_density(rng, d, spec, beta)
            assert float(np.dot(d.probs, d.atoms * z)) <= primal + 1e-6


def test_strong_duality_randomized(specs):
    rng = np.random.default_rng(33)
    for i in range(24):
        spec = list(specs.values())[i % 4]
        d = random_dist(rng)
        beta = float(rng.uniform(0.05, 3.0))
        primal = dr.evaluate_primal(d, spec, beta).value
        sol = dr.solve_dual(d, spec, beta)
        assert abs(sol.objective - primal) <= 1e-5
        assert sol.mean_slack <= 1e-8
        assert sol.divergence_slack >= -1e-8
        assert np.all(sol.z >= 0)


def test_divergence_ball_form(chi2):
    d = dr.EmpiricalDistribution(atoms=np.array([-1.0, 0.5, 2.0]), probs=np.array([0.25, 0.5, 0.25]))
    e, ok = dr.divergence_ball_form(d, chi2, 0.3, d.probs)
    assert ok and e == pytest.approx(d.mean, abs=1e-12)

    sol = dr.solve_dual(d, chi2, 0.3)
    q = d.probs * sol.z
    assert q.sum() == pytest.approx(1.0, abs=1e-8)
    e2, ok2 = dr.divergence_ball_form(d, chi2, 0.3, q)
    assert ok2
    assert e2 == pytest.approx(sol.objective, abs=1e-9)

    # point mass on the maximal atom is outside a small ball
    point = np.array([0.0, 0.0, 1.0])
    div = dr.discrete_divergence(point, d.probs, chi2)
    assert div > 0.3
    e3, ok3 = dr.divergence_ball_form(d, chi2, 0.3, point)
    assert not ok3 and e3 == 2.0

    with pytest.raises(DataError):
        dr.divergence_ball_form(d, chi2, 0.3, np.array([0.5, 0.5]))


def test_dual_solution_source_tags(specs, kl):
    d = dr.from_samples([0.0, 1.0])
    assert dr.solve_dual(d, kl, 0.1).source == "characterizing-equations"
    # far beyond the boundary the equations have no root: the extreme density
    sol = dr.solve_dual(d, kl, 3.0)
    assert sol.source == "extreme-density"
    assert sol.objective == pytest.approx(1.0, abs=1e-6)
