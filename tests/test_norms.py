import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import optimize

import divrisk as dr
from divrisk.errors import UnsupportedDivergenceError
from divrisk.norms import young_norm_bound

from conftest import BUILTIN_NAMES, random_dist
from _oracles import dual_norm_grid_oracle, luxemburg_oracle, one_variable_norm_oracle


def cosh_shift():
    """A custom spec without a closed conjugate: phi(x) = cosh(x - 1) - 1."""
    return dr.divergence_from_callables(
        name="cosh-shift",
        phi=lambda x: np.cosh(x - 1.0) - 1.0,
        phi_prime=lambda x: np.sinh(np.asarray(x, float) - 1.0),
        phi_at_zero=float(np.cosh(1.0) - 1.0),
        delta2=False,
    )


@st.composite
def norm_draws(draw, max_n=8):
    """X with ties at the maximum, probabilities of 1e-12 (before
    renormalising) and atoms at scales 1e-9 to 1e9."""
    name = draw(st.sampled_from(BUILTIN_NAMES))
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_t(4, n) * 10.0 ** draw(st.sampled_from([-9, 0, 9]))
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = x.max()
    w = rng.uniform(0.0, 1.0, n)
    w[rng.random(n) < draw(st.sampled_from([0.0, 0.5]))] = 1e-12
    w = np.maximum(w, 1e-12)
    return name, dr.EmpiricalDistribution(atoms=x, probs=w / w.sum())


def young_risk_norm(dist, pair, beta):
    """||X||_{Phi,beta}: the risk evaluator run with the Young conjugate."""
    return dr.evaluate_primal(dist.map_atoms(np.abs), pair.spec, beta).value


def test_phi_beta_norm_basics(specs, kl):
    zero = dr.from_samples([0.0, 0.0])
    for spec in specs.values():
        assert dr.phi_beta_norm(zero, spec, 0.7) == pytest.approx(0.0, abs=1e-12)
    neg = dr.from_samples([-3.0, -3.0])
    assert dr.phi_beta_norm(neg, kl, 0.5) == pytest.approx(3.0, abs=1e-9)


def test_phi_beta_norm_beta_scaling(specs):
    rng = np.random.default_rng(41)
    b1, b2 = 0.5, 1.0
    for spec in specs.values():
        d = random_dist(rng)
        n1 = dr.phi_beta_norm(d, spec, b1)
        n2 = dr.phi_beta_norm(d, spec, b2)
        assert n1 <= n2 + 1e-8
        assert n2 <= (b2 / b1) * n1 + 1e-8


def test_luxemburg_examples(young_pairs):
    pair = young_pairs["chi2"]
    zero = dr.from_samples([0.0])
    assert dr.luxemburg_norm(zero, pair) == 0.0
    # constant c: (c/lambda - 1)^2 = 1 solves to lambda = c/2
    for c in (1.0, 4.0, 0.3):
        d = dr.from_samples([c, c])
        assert dr.luxemburg_norm(d, pair) == pytest.approx(c / 2.0, abs=1e-9 * max(1, c))


def test_luxemburg_indicator_hand_solve(young_pairs):
    # atom a with probability q, else 0: q * Phi(a/lambda) = 1
    pair = young_pairs["chi2"]
    a, q = 2.0, 0.25
    d = dr.EmpiricalDistribution(atoms=np.array([a, 0.0]), probs=np.array([q, 1 - q]))
    # chi2 Young inverse: Phi^{-1}(v) = 1 + sqrt(v)
    lam_hand = a / (1.0 + math.sqrt(1.0 / q))
    assert dr.luxemburg_norm(d, pair) == pytest.approx(lam_hand, abs=1e-9)

    pair_kl = young_pairs["kl"]
    d2 = dr.EmpiricalDistribution(atoms=np.array([3.0, 0.0]), probs=np.array([0.4, 0.6]))
    target = 1.0 / 0.4
    root = optimize.brentq(lambda x: x * math.log(x) - target, 1.0, 50.0, xtol=1e-14)
    assert dr.luxemburg_norm(d2, pair_kl) == pytest.approx(3.0 / root, abs=1e-9)


def test_luxemburg_matches_scipy_oracle(specs, young_pairs):
    rng = np.random.default_rng(42)
    for name in specs:
        pair = young_pairs[name]
        for _ in range(4):
            d = random_dist(rng)
            ours = dr.luxemburg_norm(d, pair)
            oracle = luxemburg_oracle(d.atoms, d.probs, pair.Phi)
            assert ours == pytest.approx(oracle, abs=1e-9 * max(1.0, oracle))


def test_orlicz_zero_and_oracle(young_pairs):
    pair = young_pairs["chi2"]
    assert dr.orlicz_norm(dr.from_samples([0.0]), pair) == 0.0
    rng = np.random.default_rng(43)
    for _ in range(4):
        d = random_dist(rng, n=2)
        ours = dr.orlicz_norm(d, pair)
        oracle = one_variable_norm_oracle(d.atoms, d.probs, pair.Phi)
        assert ours == pytest.approx(oracle, abs=1e-6)


def test_orlicz_luxemburg_sandwich(specs, young_pairs):
    rng = np.random.default_rng(44)
    for i in range(24):
        name = list(specs)[i % 4]
        pair = young_pairs[name]
        d = random_dist(rng)
        lux = dr.luxemburg_norm(d, pair)
        orl = dr.orlicz_norm(d, pair)
        assert lux <= orl + 1e-8
        assert orl <= 2.0 * lux + 1e-8


def test_orlicz_equivalence_constants(specs, young_pairs):
    # (1/max{1,beta}) ||X||_{Phi,beta} <= bound <= ((Psi(1)+1)/min{1,beta}) ||X||_{Phi,beta}
    rng = np.random.default_rng(45)
    for i in range(16):
        name = list(specs)[i % 4]
        spec, pair = specs[name], young_pairs[name]
        d = random_dist(rng)
        beta = float(rng.uniform(0.1, 2.5))
        bound = young_norm_bound(d, pair)
        young_norm = young_risk_norm(d, pair, beta)
        psi1 = float(pair.Psi(1.0))
        assert young_norm / max(1.0, beta) <= bound + 1e-7
        assert bound <= (psi1 + 1.0) / min(1.0, beta) * young_norm + 1e-7


def test_young_gap_norm_sandwich(specs, young_pairs):
    rng = np.random.default_rng(46)
    for i in range(16):
        name = list(specs)[i % 4]
        spec, pair = specs[name], young_pairs[name]
        d = random_dist(rng)
        beta = float(rng.uniform(0.1, 2.0))
        base = dr.phi_beta_norm(d, spec, beta)
        young = young_risk_norm(d, pair, beta)
        gap = pair.d
        assert beta / (beta + gap) * base <= young + 1e-7
        assert young <= (beta + gap) / beta * base + 1e-7


def test_norm_axioms(specs, young_pairs):
    rng = np.random.default_rng(47)
    n = 5
    probs = rng.dirichlet(np.ones(n))
    x = rng.normal(0, 1, n)
    y = rng.normal(0, 1, n)
    beta = 0.5
    for name in specs:
        spec, pair = specs[name], young_pairs[name]
        funcs = {
            "phi_beta": lambda v: dr.phi_beta_norm(
                dr.EmpiricalDistribution(atoms=v, probs=probs), spec, beta
            ),
            "luxemburg": lambda v: dr.luxemburg_norm(
                dr.EmpiricalDistribution(atoms=v, probs=probs), pair
            ),
            "orlicz": lambda v: dr.orlicz_norm(
                dr.EmpiricalDistribution(atoms=v, probs=probs), pair
            ),
        }
        for label, norm in funcs.items():
            nx, ny = norm(x), norm(y)
            assert nx > 0 and ny > 0
            for a in (0.3, 2.0):
                assert norm(a * x) == pytest.approx(abs(a) * nx, abs=1e-8 * max(1, abs(a))), label
            assert norm(x + y) <= nx + ny + 1e-7, label


def test_dual_norm_constant_one(specs):
    one = dr.from_samples([1.0, 1.0, 1.0])
    for spec in specs.values():
        assert dr.dual_norm(one, spec, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_dual_norm_two_atom_hand_case(chi2):
    # |Z| = (0, 2) uniform: E|Z| = 1, E phi(|Z|) = 1 > beta, and the truncated
    # density satisfies E phi = (2/lam - 1)^2 = beta, so lam* = 2/(1 + sqrt(beta))
    d = dr.from_samples([0.0, 2.0])
    beta = 0.25
    lam_hand = 2.0 / (1.0 + math.sqrt(beta))
    ours = dr.dual_norm(d, chi2, beta)
    assert ours == pytest.approx(lam_hand, abs=1e-8)
    oracle = dual_norm_grid_oracle(d.atoms, d.probs, chi2, beta)
    assert abs(ours - oracle) <= 5e-4


def test_dual_norm_matches_grid_oracle(specs):
    rng = np.random.default_rng(48)
    for i in range(8):
        name = list(specs)[i % 4]
        d = random_dist(rng, n=int(rng.integers(2, 6)))
        beta = float(rng.uniform(0.1, 1.0))
        ours = dr.dual_norm(d, specs[name], beta)
        oracle = dual_norm_grid_oracle(d.atoms, d.probs, specs[name], beta)
        assert abs(ours - oracle) <= 5e-4


def test_truncation_identity_on_probed_grid(specs):
    rng = np.random.default_rng(49)
    for _ in range(6):
        d = random_dist(rng)
        w = np.abs(d.atoms)
        ez = float(np.dot(d.probs, w))
        if ez == 0:
            continue
        for lam in np.linspace(ez, 4.0 * ez + 1.0, 25):
            c = dr.truncation_level(d, float(lam))
            val = float(np.dot(d.probs, np.maximum(c, w / lam)))
            assert abs(val - 1.0) <= 1e-9


def test_truncation_boundary_and_constant():
    d = dr.from_samples([0.0, 2.0])
    assert dr.truncation_level(d, 1.0) == pytest.approx(0.0, abs=1e-12)
    const = dr.from_samples([3.0, 3.0])
    assert dr.truncation_level(const, 3.0) == 1.0
    assert dr.truncation_level(const, 5.0) == 1.0


def test_truncation_level_continuity_smoke():
    rng = np.random.default_rng(50)
    d = random_dist(rng, n=6)
    w = np.abs(d.atoms)
    ez = float(np.dot(d.probs, w))
    lams = np.linspace(ez * (1 + 1e-9), 6.0 * ez, 200)
    cs = np.array([dr.truncation_level(d, float(l)) for l in lams])
    jumps = np.abs(np.diff(cs))
    floor = 1e-7
    for i in range(1, len(jumps)):
        neighbour = max(jumps[i - 1], floor)
        assert jumps[i] <= 10.0 * neighbour + floor


def test_dual_norm_attainment_witness(specs):
    rng = np.random.default_rng(51)
    checked = 0
    for i in range(24):
        name = list(specs)[i % 4]
        spec = specs[name]
        d = random_dist(rng)
        beta = float(rng.uniform(0.02, 0.3))
        w = np.abs(d.atoms)
        ez = float(np.dot(d.probs, w))
        if ez == 0 or float(np.dot(d.probs, np.asarray(spec.phi(w / ez)))) <= beta:
            continue
        lam = dr.dual_norm(d, spec, beta)
        c = dr.truncation_level(d, lam)
        zstar = np.maximum(c, w / lam)
        assert float(np.dot(d.probs, zstar)) == pytest.approx(1.0, abs=1e-7)
        assert float(np.dot(d.probs, np.asarray(spec.phi(zstar)))) == pytest.approx(beta, abs=1e-7)
        checked += 1
    assert checked >= 4


def test_hoelder_inequality(specs):
    rng = np.random.default_rng(52)
    for i in range(20):
        name = list(specs)[i % 4]
        spec = specs[name]
        n = int(rng.integers(2, 8))
        probs = rng.dirichlet(np.ones(n))
        x = rng.normal(0, 1.5, n)
        z = rng.normal(0, 1.5, n)
        dx = dr.EmpiricalDistribution(atoms=x, probs=probs)
        dz = dr.EmpiricalDistribution(atoms=z, probs=probs)
        beta = float(rng.uniform(0.1, 1.5))
        lhs = abs(float(np.dot(probs, x * z)))
        rhs = dr.phi_beta_norm(dx, spec, beta) * dr.dual_norm(dz, spec, beta)
        assert lhs <= rhs + 1e-6


def test_dual_norm_requires_delta2():
    d = dr.from_samples([0.0, 2.0])
    with pytest.raises(UnsupportedDivergenceError):
        dr.dual_norm(d, cosh_shift(), 0.5)


def test_norm_report(chi2, young_pairs):
    rng = np.random.default_rng(53)
    d = random_dist(rng)
    rep = dr.norm_report(d, chi2, 0.5, pair=young_pairs["chi2"], trace_points=16)
    assert rep.phi_beta_norm > 0
    assert rep.luxemburg <= rep.orlicz <= 2 * rep.luxemburg + 1e-8
    assert rep.dual_norm is not None
    if rep.c_lambda_trace is not None:
        for lam, c in rep.c_lambda_trace:
            assert 0.0 <= c <= 1.0


def test_young_gap_in_closed_form(specs):
    # d = max{phi(0), psi(0)}, also without a closed conjugate (cosh-shift)
    expected = {"kl": math.exp(-1.0), "chi2": 1.0, "power:1.5": 1.0 / 1.5, "power:3": 1.0 / 3.0}
    for name, d in expected.items():
        assert dr.young_pair(specs[name]).d == pytest.approx(d, rel=1e-15)
    assert dr.young_pair(cosh_shift()).d == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-15)


def test_specs_keep_the_shape_contract(specs, young_pairs):
    custom = cosh_shift()
    all_specs = list(specs.values()) + [p.spec for p in young_pairs.values()] + [custom, dr.young_pair(custom).spec]
    grid = np.linspace(-1.5, 3.0, 6).reshape(2, 3)
    for spec in all_specs:
        for fn in (spec.phi, spec.phi_prime, spec.psi, spec.psi_prime, spec.psi_second):
            if fn is None:
                continue
            assert isinstance(fn(0.0), float), spec.name
            assert np.shape(fn(grid)) == (2, 3), spec.name


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_norms_are_positively_homogeneous_at_extreme_scales(specs, young_pairs, name):
    rng = np.random.default_rng(54)
    d = dr.EmpiricalDistribution(atoms=rng.standard_t(4, 6), probs=rng.dirichlet(np.ones(6)))
    spec, pair = specs[name], young_pairs[name]
    norms = {
        "luxemburg": lambda v: dr.luxemburg_norm(v, pair),
        "orlicz": lambda v: dr.orlicz_norm(v, pair),
        "young_norm_bound": lambda v: young_norm_bound(v, pair),
        "dual_norm": lambda v: dr.dual_norm(v, spec, 0.1),
    }
    # the dual norm is a root of its equation here, not E|Z|
    assert norms["dual_norm"](d) > 1.01 * float(np.dot(d.probs, np.abs(d.atoms)))
    for label, norm in norms.items():
        base = norm(d)
        for c in (1e-12, 1e-6, 1e6, 1e12):
            scaled = norm(d.map_atoms(lambda x: c * x))
            assert scaled == pytest.approx(c * base, rel=1e-12), (label, c)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(norm_draws(max_n=40))
def test_orlicz_luxemburg_sandwich_on_hard_inputs(young_pairs, problem):
    name, d = problem
    lux = dr.luxemburg_norm(d, young_pairs[name])
    orl = dr.orlicz_norm(d, young_pairs[name])
    assert lux <= orl * (1.0 + 1e-12), (name, lux, orl)
    assert orl <= 2.0 * lux * (1.0 + 1e-12), (name, lux, orl)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(norm_draws(), st.integers(0, 2**32 - 1), st.sampled_from([0.01, 0.1, 0.5, 2.0]))
def test_hoelder_on_hard_inputs(specs, problem, seed, beta):
    name, dx = problem
    rng = np.random.default_rng(seed)
    dz = dx.map_atoms(lambda x: rng.standard_t(4, x.size) * 10.0 ** rng.choice([-9, 0, 9]))
    lhs = abs(float(np.dot(dx.probs, dx.atoms * dz.atoms)))
    rhs = dr.phi_beta_norm(dx, specs[name], beta) * dr.dual_norm(dz, specs[name], beta)
    assert lhs <= rhs * (1.0 + 1e-9), (name, beta, lhs, rhs)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(norm_draws(max_n=5), st.sampled_from([0.01, 0.1, 0.5]))
def test_dual_norm_matches_grid_oracle_on_hard_inputs(specs, problem, beta):
    name, d = problem
    ours = dr.dual_norm(d, specs[name], beta)
    oracle = dual_norm_grid_oracle(d.atoms, d.probs, specs[name], beta)
    # the oracle's lambda grid spans [E|Z|, lam_hi] in 4000 points with
    # lam_hi < 2 * lambda*, so two of its steps are 1e-3 * lambda*
    assert abs(ours - oracle) <= 1e-3 * ours, (name, beta, ours, oracle)
