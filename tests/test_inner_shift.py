"""Property tests for the inner shift solve E psi'((y - nu)/t) = 1.

Inputs follow what the evaluator hands the solver: atoms affinely normalised
to [0, 1], t from deep in the small-t regime up to large t.  The draws put
ties at the maximum and probabilities of 1e-12 (before renormalising), with
n up to 1e4.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import divrisk as dr
from divrisk.divergence import validate_divergence
from divrisk.errors import InvalidParameterError
from divrisk.risk import _solve_inner_nu

from _oracles import inner_shift_oracle

SPEC_NAMES = ("kl", "chi2", "power:1.5", "power:3", "young(kl)", "cosh-shift")


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
    nu = float(_solve_inner_nu(y[None, :], probs, spec, np.array([t]))[0][0])

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
        rows = _solve_inner_nu(y, probs, spec, t)[0]
        single = [_solve_inner_nu(y[i : i + 1], probs, spec, t[i : i + 1])[0][0] for i in range(6)]
        assert np.allclose(rows, single, rtol=0.0, atol=1e-12 * (1.0 + t))


def test_warm_start_reaches_the_same_root(specs):
    rng = np.random.default_rng(6)
    y = rng.uniform(0.0, 1.0, (1, 500))
    probs = rng.dirichlet(np.ones(500))
    t = np.array([0.05])
    for spec in specs.values():
        cold = _solve_inner_nu(y, probs, spec, t)[0]
        for nu0 in (-1e3, 0.3, 1e3):
            warm = _solve_inner_nu(y, probs, spec, t, np.array([nu0]))[0]
            assert warm == pytest.approx(cold, abs=1e-12)


def test_wrong_psi_second_rejected(specs):
    for spec in specs.values():
        validate_divergence(spec)
        wrong = dataclasses.replace(spec, psi_second=lambda y: 2.0 * np.asarray(spec.psi_second(y)) + 0.1)
        with pytest.raises(InvalidParameterError, match="psi_second"):
            validate_divergence(wrong)
