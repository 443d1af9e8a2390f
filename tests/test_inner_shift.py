"""Property tests for the inner shift solve E psi'((y - nu)/t) = 1.

The evaluator hands the solver rows affinely normalised to [-1, 0], with t
from deep in the small-t regime up to large t.  Most draws here lie in
[0, 1], a translate of those rows, which moves the shift by the same
amount; the kl draws add offsets up to 1e9.  The draws put ties at the
maximum and probabilities of 1e-12 (before renormalising), with n up to
1e4.  The row facts the solver reads come from the core's own
``_row_facts``, as the evaluator computes them.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import divrisk as dr
from divrisk.divergence import validate_divergence
from divrisk.errors import InvalidParameterError
from divrisk.risk import _WIDEN_ITERS, _Passes, _row_facts, _solve_inner_nu

from _oracles import inner_shift_oracle

SPEC_NAMES = ("kl", "chi2", "power:1.5", "power:3", "young(kl)", "cosh-shift")
EPS = np.finfo(float).eps


def _solve(y, probs, spec, t, nu0=None, passes=None):
    return _solve_inner_nu(y, probs, spec, t, _row_facts(y, probs, spec), nu0, passes)


def _cosh_spec():
    return dr.divergence_from_callables(
        name="cosh-shift",
        phi=lambda x: np.cosh(x - 1.0) - 1.0,
        phi_prime=lambda x: np.sinh(np.asarray(x, float) - 1.0),
        phi_at_zero=float(np.cosh(1.0) - 1.0),
    )


@pytest.fixture(scope="module")
def inner_specs(specs):
    out = dict(specs)
    out["young(kl)"] = dr.young_pair(specs["kl"]).spec
    out["cosh-shift"] = _cosh_spec()
    return out


@st.composite
def inner_problems(draw):
    name = draw(st.sampled_from(SPEC_NAMES))
    # the numeric conjugate of a custom spec costs ~100 passes per psi' call
    n_max = 300 if name == "cosh-shift" else 10_000
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, n_max)))
    seed = draw(st.integers(0, 2**32 - 1))
    tie_frac = draw(st.sampled_from([0.0, 0.0, 0.3, 0.9]))
    tiny_frac = draw(st.sampled_from([0.0, 0.5, 1.0]))
    log10_t = draw(st.floats(-8.0, 3.0))
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 1.0, n)
    y[rng.random(n) < tie_frac] = y.max()
    y = y - y.min()
    if y.max() > 0:
        y = y / y.max()
    w = rng.uniform(0.0, 1.0, n)
    w[rng.random(n) < tiny_frac * 0.5] = 1e-12
    w = np.maximum(w, 1e-12)
    return name, y, w / w.sum(), 10.0**log10_t


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inner_problems())
def test_inner_shift_in_bracket_and_at_brentq_residual(inner_specs, problem):
    name, y, probs, t = problem
    spec = inner_specs[name]
    nu = float(_solve(y[None, :], probs, spec, np.array([t]))[0][0])

    c = float(spec.phi_prime(1.0))
    # an end may move by round-off in the probabilities: t times a few ulps
    slack = 1e-12 * (1.0 + t)
    assert y.min() - c * t - slack <= nu <= y.max() - c * t + slack

    with np.errstate(over="ignore"):
        resid = abs(float(np.dot(probs, np.asarray(spec.psi_prime((y - nu) / t)))) - 1.0)
    _, oracle_resid = inner_shift_oracle(y, probs, spec, t)
    assert resid <= max(1e-12, 10.0 * oracle_resid), (name, t, resid, oracle_resid)


def test_inner_shift_rows_match_single_rows(specs):
    rng = np.random.default_rng(5)
    y = rng.uniform(0.0, 1.0, (6, 40))
    y[:, :5] = 1.0
    probs = rng.dirichlet(np.ones(40))
    t = np.geomspace(1e-6, 1e2, 6)
    for spec in specs.values():
        rows = _solve(y, probs, spec, t)[0]
        single = [_solve(y[i : i + 1], probs, spec, t[i : i + 1])[0][0] for i in range(6)]
        assert np.allclose(rows, single, rtol=0.0, atol=1e-12 * (1.0 + t))


def test_warm_start_reaches_the_same_root(specs):
    rng = np.random.default_rng(6)
    y = rng.uniform(0.0, 1.0, (1, 500))
    probs = rng.dirichlet(np.ones(500))
    t = np.array([0.05])
    for spec in specs.values():
        cold = _solve(y, probs, spec, t)[0]
        for nu0 in (-1e3, 0.3, 1e3):
            warm = _solve(y, probs, spec, t, np.array([nu0]))[0]
            assert warm == pytest.approx(cold, abs=1e-12)


def test_wrong_psi_second_rejected(specs):
    for spec in specs.values():
        validate_divergence(spec)
        wrong = dataclasses.replace(spec, psi_second=lambda y: 2.0 * np.asarray(spec.psi_second(y)) + 0.1)
        with pytest.raises(InvalidParameterError, match="psi_second"):
            validate_divergence(wrong)


@st.composite
def perturbed_problems(draw):
    """Atoms in [-1, 0] with ties at the maximum, and probabilities whose sum
    is off 1 by delta, as round-off leaves it.  Where the mass off the
    maximum is tiny, one end of the exact bracket then has the wrong sign."""
    name = draw(st.sampled_from(("chi2", "power:1.5", "power:3")))
    n = draw(st.integers(2, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    tie_frac = draw(st.sampled_from([0.0, 0.3, 0.9]))
    tiny_rest = draw(st.booleans())
    delta = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -9.0))
    t = 10.0 ** draw(st.floats(-2.0, 3.0))
    from_left = draw(st.booleans())
    rng = np.random.default_rng(seed)
    y = -rng.uniform(0.0, 1.0, n)
    y[rng.random(n) < tie_frac] = 0.0
    y[0], y[1] = 0.0, -1.0
    w = rng.uniform(0.0, 1.0, n) + 1e-3
    if tiny_rest:
        w[y < 0.0] *= 1e-12
    return name, y, w / w.sum() * (1.0 + delta), t, from_left


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(perturbed_problems())
def test_far_end_with_the_wrong_sign_is_widened(specs, problem):
    # the far end of the bracket is checked only when a row needs it; a wrong
    # sign there must still move the bracket outward, never end the solve
    name, y, probs, t, from_left = problem
    spec = specs[name]
    f_tol = 4.0 * EPS * math.sqrt(y.size)

    def f(nu):
        return float(np.einsum("ij,j->i", np.asarray(spec.psi_prime((y[None, :] - nu) / t)), probs)[0]) - 1.0

    left, right = -1.0, 0.0  # [min y - c t, max y - c t] with c = phi'(1) = 0
    nu, _, w = _solve(y[None, :], probs, spec, np.array([t]), np.array([left]) if from_left else None)
    nu = float(nu[0])
    resid = float(np.einsum("ij,j->i", w, probs)[0]) - 1.0
    # beyond f_tol only where no float shift does better
    assert abs(resid) <= f_tol or f(np.nextafter(nu, -np.inf)) >= 0.0 >= f(np.nextafter(nu, np.inf)), (name, t, resid)
    # the root lies beyond an end with the wrong sign, inside the widened bracket
    reach = 2.0**_WIDEN_ITERS * (1.0 + t)
    if f(right) > f_tol:
        assert right < nu <= right + reach
    elif f(left) < -f_tol:
        assert left - reach <= nu < left
    else:
        assert left <= nu <= right


@st.composite
def kl_shift_problems(draw):
    n = draw(st.integers(1, 2000))
    seed = draw(st.integers(0, 2**32 - 1))
    tie_frac = draw(st.sampled_from([0.0, 0.0, 0.3, 0.9]))
    p_top = draw(st.sampled_from([None, 1e-6, 1e-12]))
    offset = draw(st.sampled_from([0.0, 1.0, -1e3, 1e6, 1e9]))
    log10_t = draw(st.floats(-8.0, 3.0))
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 1.0, n)
    y[rng.random(n) < tie_frac] = 1.0
    y[0] = 1.0
    w = rng.uniform(0.0, 1.0, n)
    top = y == 1.0
    if p_top is not None and not top.all():
        w[~top] *= (1.0 - p_top) / w[~top].sum()
        w[top] = p_top / top.sum()
    return y + offset, w / w.sum(), 10.0**log10_t


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kl_shift_problems())
def test_kl_closed_form_shift_matches_brentq(kl, problem):
    y, probs, t = problem
    passes = _Passes()
    nu, z, w = _solve(y[None, :], probs, kl, np.array([t]), None, passes)
    assert passes.psi_prime == 1
    # z and psi'(z) carry no error from nu, whatever the offset: E psi'(z)
    # misses 1 only by the round-off of two sums of n terms, E e^y and E[e^y/E e^y]
    assert abs(float(np.einsum("ij,j->i", w, probs)[0]) - 1.0) <= 2.0 * EPS * (y.size + 1)
    assert np.allclose(w, np.asarray(kl.psi_prime(z)), rtol=1e-12, atol=1e-300)
    # a float nu resolves only to its own ulp, as does the oracle's
    nu_oracle, _ = inner_shift_oracle(y, probs, kl, t)
    p_top = float(probs[y == y.max()].sum())
    tol = 16.0 * EPS * (np.abs(y).max() + t * (1.0 - math.log(p_top)))
    assert abs(nu[0] - nu_oracle) <= tol, (nu[0], nu_oracle, t)
