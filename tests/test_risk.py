import math

import numpy as np
import pytest

import divrisk as dr
from divrisk.errors import DataError, InvalidParameterError

from conftest import random_dist
from _oracles import evar_objective_oracle, grid_zoom_min, primal_oracle_2d


def plug_in_objective(dist, spec, beta, t, mu):
    vals = np.asarray(spec.psi(dist.atoms / t - mu))
    return t * (beta + mu + float(np.dot(dist.probs, vals)))


def test_constant_is_translation_fixed_point(specs):
    for spec in specs.values():
        for c in (-2.0, 0.0, 3.0):
            d = dr.from_samples([c, c, c])
            ev = dr.evaluate_primal(d, spec, 0.7)
            assert ev.value == pytest.approx(c, abs=1e-12)
            assert not ev.attained
            assert ev.t_star is None and ev.mu_star is None


def test_invalid_beta(kl):
    d = dr.from_samples([0.0, 1.0])
    with pytest.raises(InvalidParameterError):
        dr.evaluate_primal(d, kl, 0.0)
    with pytest.raises(InvalidParameterError):
        dr.evaluate_primal(d, kl, -1.0)


def test_kl_two_point_boundary(kl):
    # at beta = log 2 the objective reduces to t*log2 + t*log(1/2 + e^{1/t}/2),
    # whose infimum is the essential supremum 1, approached as t -> 0
    d = dr.from_samples([0.0, 1.0])
    beta = math.log(2.0)

    def objective(ts):
        # stabilised: t*log2 + t*log(0.5 + 0.5*exp(1/t)) = 1 + t*log1p(exp(-1/t))
        ts = np.asarray(ts, float)
        return 1.0 + ts * np.log1p(np.exp(-1.0 / ts))

    _, oracle = grid_zoom_min(objective, 1e-10, 1e3, npts=4000, levels=3, log=True)
    assert oracle == pytest.approx(1.0, abs=1e-9)
    ev = dr.evaluate_primal(d, kl, beta)
    assert ev.value == pytest.approx(oracle, abs=1e-7)


def test_chi2_symmetric_two_point(chi2):
    # dual oracle over the one-parameter family z = (1 - s, 1 + s):
    # maximise s subject to s^2 <= beta, so E XZ = sqrt(beta) = 0.5
    s = np.linspace(0.0, 1.0, 10**6)
    feasible = s[s**2 <= 0.25]
    oracle = feasible.max()
    assert oracle == pytest.approx(0.5, abs=1e-6)
    d = dr.from_samples([-1.0, 1.0])
    ev = dr.evaluate_primal(d, chi2, 0.25)
    assert ev.value == pytest.approx(0.5, abs=1e-7)
    assert ev.attained
    r1, r2 = ev.residuals
    assert abs(r1) < 1e-6 and abs(r2) < 1e-6


def test_primal_matches_generic_2d_oracle(specs):
    rng = np.random.default_rng(20)
    for name in ("chi2", "power:1.5"):
        for _ in range(3):
            d = random_dist(rng, n=5)
            beta = float(rng.uniform(0.1, 0.8))
            ours = dr.evaluate_primal(d, specs[name], beta).value
            oracle = primal_oracle_2d(d.atoms, d.probs, specs[name], beta)
            assert ours == pytest.approx(oracle, abs=5e-6)


def test_evar_cross_check(kl):
    rng = np.random.default_rng(21)
    for _ in range(10):
        d = random_dist(rng)
        for beta in (0.1, 1.0):
            ours = dr.evaluate_primal(d, kl, beta).value
            oracle = evar_objective_oracle(d.atoms, d.probs, beta)
            assert ours == pytest.approx(oracle, abs=1e-7)


def test_characterizing_equations_examples(specs, kl, chi2):
    # degenerate: constant X never yields a root (t -> 0)
    const = dr.from_samples([4.0, 4.0])
    assert dr.solve_characterizing_equations(const, kl, 0.5) is None

    d = dr.from_samples([0.0, 1.0])
    beta = math.log(2.0)
    roots = dr.solve_characterizing_equations(d, kl, beta)
    assert roots is not None
    t, mu = roots
    primal = dr.evaluate_primal(d, kl, beta).value
    assert plug_in_objective(d, kl, beta, t, mu) == pytest.approx(primal, abs=1e-7)

    d2 = dr.from_samples([-1.0, 1.0])
    roots2 = dr.solve_characterizing_equations(d2, chi2, 0.25)
    assert roots2 is not None
    assert plug_in_objective(d2, chi2, 0.25, *roots2) == pytest.approx(0.5, abs=1e-7)


def test_characterizing_residuals_within_tolerance(specs):
    rng = np.random.default_rng(22)
    found = 0
    for i in range(20):
        d = random_dist(rng)
        spec = list(specs.values())[i % 4]
        beta = float(rng.uniform(0.05, 1.5))
        roots = dr.solve_characterizing_equations(d, spec, beta)
        if roots is None:
            continue
        found += 1
        t, mu = roots
        z = np.asarray(spec.psi_prime(d.atoms / t - mu))
        r1 = 1.0 - float(np.dot(d.probs, z))
        r2 = beta - float(np.dot(d.probs, np.asarray(spec.phi(z))))
        assert abs(r1) <= 1e-8 and abs(r2) <= 1e-8
        primal = dr.evaluate_primal(d, spec, beta).value
        assert plug_in_objective(d, spec, beta, t, mu) == pytest.approx(primal, abs=1e-6)
    assert found >= 10


def test_alpha_bar_closed_forms(specs, kl, chi2):
    for beta in (0.1, 1.0, 5.0):
        assert dr.alpha_bar(kl, beta) == pytest.approx(1.0 - math.exp(-beta), abs=1e-10)
    # chi2 at beta = 1: alpha + alpha^2/(1-alpha) = 1 solves to alpha = 1/2
    assert dr.alpha_bar(chi2, 1.0) == pytest.approx(0.5, abs=1e-10)
    # in general alpha/(1 - alpha) = beta, to full relative precision
    for beta in (1e-9, 1e-3, 1.0, 50.0):
        assert dr.alpha_bar(chi2, beta) == pytest.approx(beta / (1.0 + beta), rel=1e-12, abs=0.0)
    # kl's load is -log(1 - alpha), so alpha_bar = 1 - exp(-beta) to full
    # relative precision, down to the smallest beta (below the 1 - 1e-15 cap)
    for beta in (1e-300, 1e-12, 1e-9, 1e-3, 1.0, 50.0):
        assert dr.alpha_bar(kl, beta) == pytest.approx(-math.expm1(-beta), rel=1e-14, abs=0.0)
    for spec in specs.values():
        assert dr.alpha_bar(spec, 1e-9) < 1e-4
        ab = dr.alpha_bar(spec, 2.0)
        assert 0.0 <= ab < 1.0


def test_is_attained_examples(kl):
    const = dr.from_samples([7.0])
    assert not dr.is_attained(const, kl, 0.5)
    d = dr.from_samples([0.0, 1.0])
    # boundary: P(X = 1) = 1/2 equals 1 - alpha_bar exactly, strictness fails
    assert not dr.is_attained(d, kl, math.log(2.0))
    assert dr.is_attained(d, kl, 0.1)


def test_coherence_axioms_batch(specs):
    rng = np.random.default_rng(23)
    n = 6
    probs = rng.dirichlet(np.ones(n))
    for spec in specs.values():
        beta = float(rng.uniform(0.1, 1.5))
        X = rng.normal(0, 1, (50, n))
        Y = rng.normal(0, 1, (50, n))
        rx = dr.evaluate_primal_batch(X, probs, spec, beta)
        ry = dr.evaluate_primal_batch(Y, probs, spec, beta)
        # A1 monotonicity
        upper = X + np.abs(Y)
        ru = dr.evaluate_primal_batch(upper, probs, spec, beta)
        assert np.all(rx <= ru + 1e-7)
        # A2 translation equivariance
        c = rng.normal(0, 2, 50)
        rc = dr.evaluate_primal_batch(X + c[:, None], probs, spec, beta)
        assert np.max(np.abs(rc - (rx + c))) < 1e-7
        # A3 subadditivity
        rxy = dr.evaluate_primal_batch(X + Y, probs, spec, beta)
        assert np.all(rxy <= rx + ry + 1e-7)
        # A4 positive homogeneity
        lam = rng.uniform(0.1, 4.0, 50)
        rl = dr.evaluate_primal_batch(lam[:, None] * X, probs, spec, beta)
        assert np.max(np.abs(rl - lam * rx) / np.maximum(1.0, lam)) < 1e-7


def test_risk_aversion_monotonicity(specs):
    rng = np.random.default_rng(24)
    for i in range(12):
        spec = list(specs.values())[i % 4]
        d = random_dist(rng, nonneg=True)
        b1 = float(rng.uniform(0.05, 1.0))
        b2 = b1 * float(rng.uniform(1.0, 4.0))
        r1 = dr.evaluate_primal(d, spec, b1).value
        r2 = dr.evaluate_primal(d, spec, b2).value
        assert r1 <= r2 + 1e-7
        assert r2 <= (b2 / b1) * r1 + 1e-7


def test_bounds(specs):
    rng = np.random.default_rng(25)
    for i in range(16):
        spec = list(specs.values())[i % 4]
        d = random_dist(rng)
        beta = float(rng.uniform(0.05, 3.0))
        v = dr.evaluate_primal(d, spec, beta).value
        assert d.mean - 1e-9 <= v <= d.esssup + 1e-9


def test_avar_lower_bound(specs):
    rng = np.random.default_rng(26)
    for i in range(10):
        spec = list(specs.values())[i % 4]
        d = random_dist(rng)
        beta = float(rng.uniform(0.1, 2.0))
        rho = dr.evaluate_primal(d, spec, beta).value
        ab = dr.alpha_bar(spec, beta)
        for alpha in np.linspace(0.0, ab, 8):
            assert d.avar(float(alpha)) <= rho + 1e-7


def test_batch_matches_scalar(specs):
    rng = np.random.default_rng(27)
    n = 5
    probs = rng.dirichlet(np.ones(n))
    X = rng.normal(0, 1.5, (8, n))
    for spec in specs.values():
        batch = dr.evaluate_primal_batch(X, probs, spec, 0.4)
        for row, expect in zip(X, batch):
            d = dr.EmpiricalDistribution(atoms=row, probs=probs)
            assert dr.evaluate_primal(d, spec, 0.4).value == pytest.approx(expect, abs=1e-10)


@pytest.mark.parametrize("probs", [
    [0.4, 0.6, 1.0],        # sums to 2
    [0.4, 0.8, -0.2],       # negative
    [0.5, 0.5],             # too short
    [0.5, 0.5, 0.0],        # zero
    [0.5, np.nan, 0.5],
])
def test_batch_rejects_invalid_probabilities(kl, probs):
    X = np.array([[1.0, 0.0, 2.0], [0.5, 0.2, -1.0]])
    with pytest.raises(DataError):
        dr.evaluate_primal_batch(X, probs, kl, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_batch_rejects_non_finite_atoms(kl, bad):
    X = np.array([[1.0, 0.0, 2.0], [0.5, bad, -1.0]])
    with pytest.raises(DataError):
        dr.evaluate_primal_batch(X, np.full(3, 1.0 / 3.0), kl, 0.5)
