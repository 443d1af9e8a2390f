"""Properties of the characterizing-equation core on hard inputs.

The draws put ties at the maximum, probabilities of 1e-12 (before
renormalising), atoms at scales 1e-6 to 1e6 with common offsets, and beta
at the attainment boundary: beta = B(0+) * (1 + rel) with rel in
{0, +-1e-12, +-1e-6, -1/2, 1}, where B(0+) = phi(0)*(1 - p) + p*phi(1/p) and
p = P(X = esssup X).  A root of the characterizing equations exists exactly
when rel < 0 (and X is not constant).

Tolerances: nothing computed in the units of X resolves less than an ulp
of its largest atom, so comparisons in those units allow n ulps of max|X|
on top of the relative tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import divrisk as dr

from _oracles import evar_objective_oracle, random_feasible_density

SPEC_NAMES = ("kl", "chi2", "power:1.5", "power:3")
EPS = np.finfo(float).eps


def boundary_level(spec, dist):
    top = dist.atoms == dist.esssup
    p, rest = dist.probs[top].sum(), dist.probs[~top].sum()
    return spec.phi_at_zero * rest + p * float(spec.phi(1.0 / p))


@st.composite
def risk_problems(draw, names=SPEC_NAMES):
    name = draw(st.sampled_from(names))
    n = draw(st.one_of(st.integers(1, 6), st.integers(1, 400)))
    seed = draw(st.integers(0, 2**32 - 1))
    tie_frac = draw(st.sampled_from([0.0, 0.0, 0.3, 0.9]))
    tiny_frac = draw(st.sampled_from([0.0, 0.5, 1.0]))
    scale = 10.0 ** draw(st.sampled_from([-6, 0, 6]))
    offset = draw(st.sampled_from([0.0, 0.0, 1.0, -1e3]))
    rel = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-6, -1e-6, -0.5, 1.0]))
    rng = np.random.default_rng(seed)
    x = (rng.uniform(-1.0, 1.0, n) + offset) * scale
    x[rng.random(n) < tie_frac] = x.max()
    w = rng.uniform(0.0, 1.0, n)
    w[rng.random(n) < tiny_frac * 0.5] = 1e-12
    w = np.maximum(w, 1e-12)
    dist = dr.EmpiricalDistribution(atoms=x, probs=w / w.sum())
    return name, dist, rel


def _beta(spec, dist, rel):
    level = boundary_level(spec, dist)
    return level * (1.0 + rel) if level > 0.0 else 0.5  # constant X: B(0+) = phi(1) = 0


def _tol(dist, rel_tol):
    spread = dist.esssup - dist.essinf
    return rel_tol * spread + dist.n * EPS * float(np.abs(dist.atoms).max())


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(risk_problems())
def test_regime_is_exact(specs, problem):
    name, dist, rel = problem
    spec = specs[name]
    beta = _beta(spec, dist, rel)
    ev = dr.evaluate_primal(dist, spec, beta)
    assert ev.attained == dr.is_attained(dist, spec, beta)
    # at rel = 0 the regime turns on the last bit of B(0+), and phi(1/p)
    # resolves B(0+) to 1e-12 only while 1/p is not within 1e-3 of 1
    if rel != 0.0 and dist.prob_at_esssup() <= 1.0 - 1e-3:
        assert ev.attained == (rel < 0.0), (name, rel, dist.n)
    assert (ev.t_star is None) == (not ev.attained)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(risk_problems(), st.integers(0, 2**32 - 1))
def test_strong_duality_with_a_feasible_density(specs, problem, seed):
    name, dist, rel = problem
    spec = specs[name]
    beta = _beta(spec, dist, rel)
    value = dr.evaluate_primal(dist, spec, beta).value
    sol = dr.solve_dual(dist, spec, beta)
    tol = _tol(dist, 1e-9)
    assert abs(sol.objective - value) <= tol, (name, rel, sol.source)
    assert np.all(sol.z >= 0.0)
    assert sol.mean_slack <= 1e-12
    assert sol.divergence_slack >= -(1e-9 * beta + 1e-15), (name, rel, sol.divergence_slack)
    # weak duality against an independent feasible density
    z = random_feasible_density(np.random.default_rng(seed), dist, spec, beta)
    assert float(np.dot(dist.probs, dist.atoms * z)) <= value + tol


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(risk_problems(), st.sampled_from([1.0 + 1e-9, 1.5, 4.0]))
def test_between_mean_and_esssup_and_monotone_in_beta(specs, problem, factor):
    name, dist, rel = problem
    spec = specs[name]
    beta = _beta(spec, dist, rel)
    value = dr.evaluate_primal(dist, spec, beta).value
    tol = _tol(dist, 1e-12)
    assert dist.mean - tol <= value <= dist.esssup + tol
    assert value <= dr.evaluate_primal(dist, spec, beta * factor).value + tol


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(risk_problems(names=("kl",)))
def test_kl_value_matches_the_evar_oracle(specs, problem):
    _, dist, rel = problem
    spec = specs["kl"]
    spread = dist.esssup - dist.essinf
    if spread == 0.0:
        return
    beta = _beta(spec, dist, rel)
    value = dr.evaluate_primal(dist, spec, beta).value
    # the oracle runs on atoms normalised to [-1, 0]
    oracle = evar_objective_oracle((dist.atoms - dist.esssup) / spread, dist.probs, beta)
    assert abs((value - dist.esssup) / spread - oracle) <= 1e-7


def test_kl_just_beyond_the_boundary_is_not_attained(kl):
    # B(0+) = log 2 on [0, 1]; just above it the equations have no root
    d = dr.from_samples([0.0, 1.0])
    ev = dr.evaluate_primal(d, kl, math.log(2.0) * (1.0 + 1e-6))
    assert not ev.attained
    assert ev.value == 1.0
    assert ev.t_star is None and ev.residuals is None


def test_chi2_two_atoms_with_a_tiny_top_probability(chi2):
    # closed form on two atoms: with E Z = 1, E (Z - 1)^2 = s^2/(p0 p1) where
    # s = p1 (z1 - 1), so rho = E X + min(sqrt(beta p0 p1), p0) (x1 - x0)
    p1 = 1e-13
    d = dr.EmpiricalDistribution(atoms=np.array([0.0, 1.0]), probs=np.array([1.0 - p1, p1]))
    beta = 0.5 * boundary_level(chi2, d)
    want = p1 + min(math.sqrt(beta * (1.0 - p1) * p1), 1.0 - p1)
    ev = dr.evaluate_primal(d, chi2, beta)
    assert ev.attained
    assert ev.value == pytest.approx(want, abs=1e-15)
    # the density keeps beta - E phi(Z) ~ 1e-12 beta in reserve: gap t*(beta - E phi(Z))
    assert dr.solve_dual(d, chi2, beta).objective == pytest.approx(want, abs=1e-12)
