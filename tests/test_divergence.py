import math
import warnings

import numpy as np
import pytest

import divrisk as dr
from divrisk.errors import (
    DataError,
    InvalidParameterError,
    UnsupportedDivergenceError,
)

from _oracles import conjugate_oracle, plain_kernels


def test_builtin_identifiers(specs):
    assert specs["kl"].name == "kl"
    assert specs["chi2"].name == "chi2"
    assert dr.make_builtin_divergence("power:1.5").name == "power:1.5"
    with pytest.raises(UnsupportedDivergenceError):
        dr.make_builtin_divergence("hellinger")
    with pytest.raises(InvalidParameterError):
        dr.make_builtin_divergence("power:0.8")
    with pytest.raises(InvalidParameterError):
        dr.make_builtin_divergence("power:1.0")
    with pytest.raises(InvalidParameterError):
        dr.make_builtin_divergence("power")
    with pytest.raises(InvalidParameterError):
        dr.make_builtin_divergence("power:abc")


def test_phi_unit_root_and_zero(specs):
    for spec in specs.values():
        assert spec.phi(1.0) == 0.0
        assert spec.phi(0.0) == spec.phi_at_zero
        assert math.isinf(spec.phi(-0.5))


def test_kl_closed_conjugate(kl):
    assert kl.psi(1.0) == pytest.approx(1.0, abs=0)
    # psi(y) >= y holds with equality only at y = 1 for the exponential form
    ys = np.linspace(-5, 5, 101)
    assert np.all(kl.psi(ys) >= ys)


def test_chi2_conjugate_at_two(chi2):
    oracle = conjugate_oracle(lambda x: (x - 1.0) ** 2, 2.0)
    assert oracle == pytest.approx(3.0, abs=1e-9)
    assert chi2.psi(2.0) == pytest.approx(3.0, abs=1e-12)


def test_numeric_conjugate_examples(specs, kl, chi2):
    oracle = conjugate_oracle(lambda x: x * math.log(x) if x > 0 else 0.0, 0.0, hi=5.0)
    assert oracle == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert dr.numeric_conjugate(kl, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-10)
    # equality case of Fenchel-Young at the unit: psi(phi'(1)) = phi'(1)
    for spec in specs.values():
        slope = spec.phi_prime(1.0)
        assert dr.numeric_conjugate(spec, slope) == pytest.approx(slope, abs=1e-10)
    # maximiser clamps to x = 0 below the slope at zero
    assert dr.numeric_conjugate(chi2, -4.0) == pytest.approx(-1.0, abs=1e-12)


def test_numeric_conjugate_matches_closed_form(specs):
    ys = np.linspace(-10.0, 10.0, 81)
    for spec in specs.values():
        numeric = np.array([dr.numeric_conjugate(spec, y) for y in ys])
        closed = np.asarray(spec.psi(ys))
        assert np.max(np.abs(numeric - closed)) < 1e-8


def test_fenchel_young_random(specs):
    rng = np.random.default_rng(101)
    xs = rng.uniform(0.0, 50.0, 1000)
    ys = rng.uniform(-10.0, 10.0, 1000)
    for spec in specs.values():
        lhs = xs * ys
        rhs = np.asarray(spec.phi(xs)) + np.asarray(spec.psi(ys))
        assert np.all(lhs <= rhs + 1e-9)


def test_subderivative_consistency(specs):
    # x * psi'(x) = phi(psi'(x)) + psi(x) at 200 sampled points
    xs = np.linspace(-6.0, 6.0, 200)
    for spec in specs.values():
        z = np.asarray(spec.psi_prime(xs))
        gap = xs * z - (np.asarray(spec.phi(z)) + np.asarray(spec.psi(xs)))
        assert np.max(np.abs(gap)) < 1e-8


def test_psi_monotone_and_dominates_identity(specs):
    ys = np.linspace(-20.0, 20.0, 400)
    for spec in specs.values():
        vals = np.asarray(spec.psi(ys))
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals >= ys - 1e-10)


def test_phi_convexity_on_random_triples(specs):
    rng = np.random.default_rng(7)
    pts = np.sort(rng.uniform(0.0, 40.0, (300, 3)), axis=1)
    pts = pts[(pts[:, 0] < pts[:, 1]) & (pts[:, 1] < pts[:, 2])]
    lam = (pts[:, 1] - pts[:, 0]) / (pts[:, 2] - pts[:, 0])
    for spec in specs.values():
        v = np.asarray(spec.phi(pts))
        chord = (1 - lam) * v[:, 0] + lam * v[:, 2]
        assert np.all(v[:, 1] <= chord + 1e-12 * np.maximum(1.0, np.abs(chord)))


def test_growth_condition(specs):
    for spec in specs.values():
        r = [spec.phi(x) / x for x in (1e2, 1e4, 1e6)]
        assert r[0] < r[1] < r[2]


def test_delta2_probe(specs):
    for spec in specs.values():
        assert spec.delta2
        T, k = spec.delta2_constants
        xs = np.geomspace(T, 1e6, 4096)
        assert np.all(np.asarray(spec.phi(2 * xs)) <= k * np.asarray(spec.phi(xs)) + 1e-9)


# ---------------------------------------------------------------------------
# Young pairs


def test_young_examples_chi2(young_pairs):
    pair = young_pairs["chi2"]
    assert pair.Phi(0.5) == 0.0
    assert pair.Phi(3.0) == pytest.approx(4.0, abs=0)
    assert pair.d == pytest.approx(1.0, abs=1e-12)


def test_young_gap_kl(young_pairs):
    # min of x*log(x) on [0, 1] is -1/e at x = 1/e, where Phi vanishes
    assert young_pairs["kl"].d == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_young_shape_and_gap_bounds(specs, young_pairs):
    xs = np.concatenate([np.linspace(0.0, 1.0, 201), np.geomspace(1.0, 50.0, 200)])
    for name, spec in specs.items():
        pair = young_pairs[name]
        phi_v = np.asarray(spec.phi(xs))
        Phi_v = np.asarray(pair.Phi(xs))
        assert pair.Phi(0.0) == 0.0
        assert np.all(Phi_v[xs <= 1.0] == 0.0)
        assert np.all(np.diff(Phi_v) >= -1e-12)
        # Phi never exceeds the positive part of phi, and the uniform gap
        # bounds the difference both ways (phi can dip below Phi on (0, 1))
        assert np.all(Phi_v <= np.maximum(0.0, phi_v) + 1e-12)
        assert np.all(np.abs(phi_v - Phi_v) <= pair.d + 1e-12)
        ys = np.linspace(-6.0, 6.0, 121)
        assert np.all(np.asarray(pair.Psi(ys)) <= np.asarray(spec.psi(ys)) + pair.d + 1e-10)


def test_young_psi_matches_numeric_conjugate(specs, young_pairs):
    ys = np.linspace(-4.0, 6.0, 61)
    for name in specs:
        pair = young_pairs[name]
        numeric = np.array([dr.numeric_conjugate(pair.spec, y) for y in ys])
        assert np.max(np.abs(numeric - np.asarray(pair.Psi(ys)))) < 1e-8


def test_young_psi_of_kl_near_overflow(kl, young_pairs):
    # right of psi'(y) = 1 the conjugates agree; near y = 705, x*y at the
    # maximiser x = e^(y - 1) overflows while x*log(x) does not yet
    ys = np.linspace(700.0, 709.7, 98)
    Psi = np.asarray(young_pairs["kl"].Psi(ys))
    assert np.all(np.isfinite(Psi))
    np.testing.assert_allclose(Psi, np.asarray(kl.psi(ys)), rtol=1e-12)


def test_young_spec_runs_as_divergence(young_pairs):
    spec = young_pairs["chi2"].spec
    assert spec.phi(1.0) == 0.0
    assert spec.phi_at_zero == 0.0
    assert spec.delta2


# ---------------------------------------------------------------------------
# discrete divergence


def test_discrete_divergence_examples(specs, kl, chi2):
    for spec in specs.values():
        p = np.array([0.2, 0.3, 0.5])
        assert dr.discrete_divergence(p, p, spec) == pytest.approx(0.0, abs=1e-15)
    val = dr.discrete_divergence([1.0, 0.0], [0.5, 0.5], kl)
    assert val == pytest.approx(math.log(2.0), abs=1e-12)
    val = dr.discrete_divergence([0.75, 0.25], [0.5, 0.5], chi2)
    assert val == pytest.approx(0.25, abs=1e-15)


def test_discrete_divergence_nonneg_strict(specs):
    rng = np.random.default_rng(5)
    for spec in specs.values():
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            div = dr.discrete_divergence(q, p, spec)
            assert div >= 0.0
            if np.max(np.abs(q - p)) > 1e-6:
                assert div > 0.0


def test_discrete_divergence_errors(kl):
    with pytest.raises(DataError):
        dr.discrete_divergence([0.5, 0.5], [0.3, 0.3, 0.4], kl)
    with pytest.raises(DataError):
        dr.discrete_divergence([0.5, 0.5], [1.0, 0.0], kl)
    with pytest.raises(DataError):
        dr.discrete_divergence([0.7, 0.7], [0.5, 0.5], kl)


# ---------------------------------------------------------------------------
# numeric-conjugate-backed construction


@pytest.fixture(scope="module")
def cosh_spec():
    # phi(x) = cosh(x - 1) - 1: convex, phi(1) = 0, superlinear, NOT Delta2
    return dr.divergence_from_callables(
        name="cosh-shift",
        phi=lambda x: np.cosh(x - 1.0) - 1.0,
        phi_prime=lambda x: np.sinh(np.asarray(x, float) - 1.0),
        phi_at_zero=float(np.cosh(1.0) - 1.0),
        delta2=False,
    )


def test_custom_spec_psi_prime_is_argmax(cosh_spec):
    # conjugate maximiser solves sinh(x - 1) = y, i.e. x = 1 + asinh(y)
    ys = np.linspace(-3.0, 5.0, 41)
    expect = 1.0 + np.arcsinh(ys)
    got = np.asarray(cosh_spec.psi_prime(ys))
    free = expect >= 0  # below that the maximiser clamps at x = 0
    assert np.max(np.abs(got[free] - expect[free])) < 1e-9


def test_custom_spec_conjugate_vs_scipy(cosh_spec):
    for y in (-2.0, -0.3, 0.0, 0.7, 2.5):
        oracle = conjugate_oracle(lambda x: math.cosh(x - 1.0) - 1.0, y, hi=50.0)
        assert cosh_spec.psi(y) == pytest.approx(oracle, abs=1e-8)


def test_custom_spec_fenchel_young(cosh_spec):
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.0, 10.0, 200)
    ys = rng.uniform(-3.0, 3.0, 200)
    rhs = np.asarray(cosh_spec.phi(xs)) + np.asarray(cosh_spec.psi(ys))
    assert np.all(xs * ys <= rhs + 1e-9)


def test_infinite_at_zero_rejected():
    with pytest.raises(InvalidParameterError):
        dr.divergence_from_callables(
            name="burg",
            phi=lambda x: x - 1.0 - np.log(x),
            phi_prime=lambda x: 1.0 - 1.0 / np.asarray(x, float),
            phi_at_zero=math.inf,
        )


def _kernel_grid():
    tiny = np.finfo(float).smallest_subnormal
    base = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 2.2e-308, 1e-300, -1e-300,
                     1e-16, 0.5, 1.0, 1.0 + 2e-16, 2.0, -0.5, -1.0, -2.0, -2.0 - 4e-16, -2.0 + 4e-16,
                     -3.0, 7.25, 700.0, 710.0, -745.0, -746.0, 1e300, -1e300, np.inf, -np.inf])
    rng = np.random.default_rng(7)
    return np.concatenate([base, rng.standard_normal(200) * 10.0 ** rng.integers(-6, 4, 200)])


@pytest.mark.parametrize("name", ["kl", "chi2", "power:1.5", "power:2", "power:3"])
@pytest.mark.parametrize("kernel", ["phi", "psi", "psi_prime", "psi_second"])
def test_in_place_kernels_match_the_plain_expressions_bitwise(name, kernel):
    fn = getattr(dr.make_builtin_divergence(name), kernel)
    plain = plain_kernels(name)[kernel]
    grid = _kernel_grid()
    inputs = [float(v) for v in grid[:40]] + [grid, grid[:7], grid[:228].reshape(12, 19), grid[::3]]
    for x in inputs:
        arr = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            want = plain(arr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fn(x)
        if np.ndim(x) == 0:
            assert type(got) is float
        else:
            assert got.shape == arr.shape and got.dtype == np.float64
        assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes(), (name, kernel, x)
        assert np.asarray(fn(arr)).tobytes() == np.asarray(want, dtype=float).tobytes()
