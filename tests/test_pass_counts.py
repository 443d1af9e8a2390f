"""Machine-independent cost guard for evaluate_primal.

Each builtin spec is wrapped so that every call to psi', psi'' and phi is
counted; one evaluate_primal on a seeded t(4) sample must stay within the
bounds below.  The bounds are about 1.25x the counts the Newton outer search
makes (kl, chi2, power:1.5, power:3 at beta 0.1 / 0.5 / 2 on n = 1000 atoms,
at beta 0.5 on n = 1e6): a search that falls back to bisection, an inner
solve that loses its warm start or checks bracket ends it does not need, or
a shift solved again at t*, exceeds them.  psi'' counts include the
(rows,)-sized calls of the inner Newton step as well as the n-sized passes.
kl makes one psi' pass per probe, since its shift is closed form, and its
one psi'' call is the scalar psi''(phi'(1)) of the start; its probes take B
from their slope sums, so its phi calls are the scalar phi(1/p) of the
regime test and the residual at the end.  chi2 and power:p solve for a
threshold on the sorted atoms and make no psi' or psi'' pass at all: their
phi calls are the regime test's and the one check of the density they
return, and their n-sized passes are the moment passes over the active
suffix, bounded in the same way.

The core logs the psi' and suffix passes it made on its DIVRISK_LOG=debug
line; the psi' count must equal the wrapped count.

The facts the search reads of each row (its minimum, maximum and top mass)
are computed once per evaluation, not once per probe: the ndarray min and
max reductions of one evaluate_primal, counted with sys.setprofile, are
bounded independently of beta and so of the probe count.  Building an
EmpiricalDistribution sorts nothing; the quantile side sorts once.

Each norm is one root search; its n-sized passes are the calls of Phi and
Phi' (Luxemburg, Orlicz), Psi and Psi' (young_norm_bound) or phi (dual norm
at beta 0.1), bounded at about 1.25x the counts made on the same sample.
A golden-section search and bisections to the same widths make 48-49, 83,
83 and 32 there; a root search that falls back to bisection exceeds the
bounds.
"""

import dataclasses
import logging
import re
import sys

import numpy as np
import pytest

import divrisk as dr
from divrisk.norms import young_norm_bound

# (spec, beta): (psi' calls, psi'' calls, phi calls) allowed per evaluation
BOUNDS = {
    ("kl", 0.1): (5, 2, 8),
    ("kl", 0.5): (5, 2, 8),
    ("kl", 2.0): (7, 2, 9),
    ("chi2", 0.1): (0, 0, 2),
    ("chi2", 0.5): (0, 0, 2),
    ("chi2", 2.0): (0, 0, 2),
    ("power:1.5", 0.1): (0, 0, 2),
    ("power:1.5", 0.5): (0, 0, 2),
    ("power:1.5", 2.0): (0, 0, 2),
    ("power:3", 0.1): (0, 0, 2),
    ("power:3", 0.5): (0, 0, 2),
    ("power:3", 2.0): (0, 0, 2),
}
# at n = 1e6, beta 0.5
LARGE_BOUNDS = {"kl": (7, 2, 9), "chi2": (0, 0, 2)}
COUNTED = ("psi_prime", "psi_second", "phi")
# (n, spec, beta): moment passes over the active suffix allowed per evaluation
SUFFIX_BOUNDS = {
    (1000, "chi2", 0.1): 5,
    (1000, "chi2", 0.5): 5,
    (1000, "chi2", 2.0): 6,
    (1000, "power:1.5", 0.1): 5,
    (1000, "power:1.5", 0.5): 5,
    (1000, "power:1.5", 2.0): 5,
    (1000, "power:3", 0.1): 9,
    (1000, "power:3", 0.5): 8,
    (1000, "power:3", 2.0): 9,
    (10**6, "chi2", 0.5): 6,
    (10**6, "power:1.5", 0.5): 6,
    (10**6, "power:3", 0.5): 8,
}
# spec: n-sized passes allowed to (luxemburg, orlicz, young_norm_bound, dual_norm)
NORM_BOUNDS = {
    "kl": (18, 34, 29, 18),
    "chi2": (18, 31, 31, 16),
    "power:1.5": (18, 31, 31, 18),
    "power:3": (18, 29, 31, 16),
}

# spec: ndarray min and max reductions allowed per evaluation, at every beta
# (the row minimum and maximum; chi2 and power:p read the largest atom below
# the maximum from the sorted atoms)
MINMAX_BOUNDS = {"kl": 3, "chi2": 2, "power:1.5": 2, "power:3": 2}
# spec: risk evaluations allowed per portfolio solve at the defaults, 50 x 4
PORTFOLIO_BOUNDS = {"kl": 21, "chi2": 21, "power:1.5": 25, "power:3": 25}
# 2000 x 20, any builtin
LARGE_PORTFOLIO_BOUND = 25


def _t4_sample(n):
    rng = np.random.default_rng(2020)
    return dr.EmpiricalDistribution(atoms=rng.standard_t(4, n), probs=rng.dirichlet(np.ones(n)))


@pytest.fixture(scope="module")
def sample():
    return _t4_sample(1000)


def _counting(spec, counts):
    def wrap(name):
        fn = getattr(spec, name)

        def counted(x):
            counts[name] += 1
            return fn(x)

        return counted

    return dataclasses.replace(spec, **{name: wrap(name) for name in COUNTED if getattr(spec, name) is not None})


@pytest.mark.parametrize("name, beta", sorted(BOUNDS))
def test_calls_per_evaluation(specs, sample, name, beta):
    counts = dict.fromkeys(COUNTED, 0)
    ev = dr.evaluate_primal(sample, _counting(specs[name], counts), beta)
    assert ev.attained
    assert ev.value == dr.evaluate_primal(sample, specs[name], beta).value
    for k, bound in zip(COUNTED, BOUNDS[name, beta]):
        assert counts[k] <= bound, (k, counts)


@pytest.mark.parametrize("name", sorted(LARGE_BOUNDS))
def test_calls_per_evaluation_at_a_million_atoms(specs, name):
    counts = dict.fromkeys(COUNTED, 0)
    assert dr.evaluate_primal(_t4_sample(1_000_000), _counting(specs[name], counts), 0.5).attained
    for k, bound in zip(COUNTED, LARGE_BOUNDS[name]):
        assert counts[k] <= bound, (k, counts)


@pytest.mark.parametrize("n, name, beta", sorted(SUFFIX_BOUNDS))
def test_suffix_passes_per_evaluation(specs, caplog, n, name, beta):
    dist = _t4_sample(n)
    with caplog.at_level(logging.DEBUG, logger="divrisk.risk"):
        assert dr.evaluate_primal(dist, specs[name], beta).attained
    line = [r.getMessage() for r in caplog.records if r.name == "divrisk.risk"][-1]
    assert "0 psi' passes" in line, line
    passes = int(re.search(r"(\d+) suffix passes", line).group(1))
    assert 0 < passes <= SUFFIX_BOUNDS[n, name, beta], line


def _array_method_calls(fn, names):
    """Calls of the ndarray methods ``names`` that fn() makes, seen by sys.setprofile."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), np.ndarray) and arg.__name__ in names:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls[0]


@pytest.mark.parametrize("name, beta", sorted(BOUNDS))
def test_row_reductions_per_evaluation(specs, sample, name, beta):
    calls = _array_method_calls(lambda: dr.evaluate_primal(sample, specs[name], beta), ("min", "max"))
    assert calls <= MINMAX_BOUNDS[name], calls


def test_distribution_sorts_on_first_quantile_read(sample):
    def build():
        return dr.EmpiricalDistribution(atoms=sample.atoms, probs=sample.probs)

    assert _array_method_calls(build, ("argsort",)) == 0
    d = build()
    sigma = dr.StepSpectrum.avar_spectrum(0.9)
    assert _array_method_calls(lambda: (d.quantile(0.5), d.avar(0.9), d.spectral_risk(sigma)), ("argsort",)) == 1


def _logged_passes(caplog):
    lines = [r.getMessage() for r in caplog.records if r.name == "divrisk.risk"]
    return [int(re.search(r"(\d+) psi' passes", line).group(1)) for line in lines]


@pytest.mark.parametrize("name", ["kl", "chi2", "power:1.5", "power:3", "young(kl)"])
def test_debug_line_counts_the_psi_prime_passes(specs, young_pairs, sample, caplog, name):
    spec = young_pairs["kl"].spec if name == "young(kl)" else specs[name]
    # two atoms with a top probability of 4.7e-13: the inner solve then also
    # takes its steps in units of t from an atom
    tiny_top = dr.EmpiricalDistribution(atoms=np.array([0.0, 1.0]), probs=np.array([1.0 - 4.7e-13, 4.7e-13]))
    counts = dict.fromkeys(COUNTED, 0)
    with caplog.at_level(logging.DEBUG, logger="divrisk.risk"):
        for dist, beta in ((sample, 0.5), (tiny_top, 0.1)):
            before = counts["psi_prime"]
            dr.evaluate_primal(dist, _counting(spec, counts), beta)
            assert _logged_passes(caplog)[-1] == counts["psi_prime"] - before
        # rows of one batch share the count of their core run
        before = counts["psi_prime"]
        dr.evaluate_primal_batch(np.stack([sample.atoms, -sample.atoms]), sample.probs, _counting(spec, counts), 0.5)
        assert _logged_passes(caplog)[-1] == counts["psi_prime"] - before


@pytest.mark.parametrize("name", sorted(NORM_BOUNDS))
def test_passes_per_norm(specs, young_pairs, sample, name):
    calls = [0]

    def counting(fn):
        def counted(x):
            calls[0] += 1
            return fn(x)

        return counted

    pair = young_pairs[name]
    young = dataclasses.replace(pair.spec, phi_prime=counting(pair.spec.phi_prime), psi_prime=counting(pair.spec.psi_prime))
    pair = dataclasses.replace(pair, Phi=counting(pair.Phi), Psi=counting(pair.Psi), spec=young)
    spec = dataclasses.replace(specs[name], phi=counting(specs[name].phi))
    norms = {
        "luxemburg": lambda: dr.luxemburg_norm(sample, pair),
        "orlicz": lambda: dr.orlicz_norm(sample, pair),
        "young_norm_bound": lambda: young_norm_bound(sample, pair),
        "dual_norm": lambda: dr.dual_norm(sample, spec, 0.1),
    }
    for (label, norm), bound in zip(norms.items(), NORM_BOUNDS[name]):
        calls[0] = 0
        norm()
        assert calls[0] <= bound, (label, calls[0])


def _factor_panel(n, m):
    """n scenarios x m comparably risky assets: a common factor plus t(5) noise."""
    rng = np.random.default_rng(1)
    factor = rng.standard_normal(n)
    losses = rng.uniform(0.8, 1.25, m) * (0.45 * factor[:, None] + rng.standard_t(5, (n, m)))
    return dr.AssetPanel(losses=losses, probs=np.full(n, 1.0 / n))


def _counted_portfolio(monkeypatch, panel, spec):
    calls = [0]
    evaluate = dr.portfolio.evaluate_primal

    def counted(*args):
        calls[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(dr.portfolio, "evaluate_primal", counted)
    sol = dr.minimize_portfolio_risk(panel, spec, 0.5)
    assert sol.iterations == calls[0]
    return sol, calls[0]


@pytest.mark.parametrize("name", sorted(PORTFOLIO_BOUNDS))
def test_evaluations_per_portfolio_solve(specs, monkeypatch, name):
    sol, calls = _counted_portfolio(monkeypatch, _factor_panel(50, 4), specs[name])
    assert sol.converged
    assert calls <= PORTFOLIO_BOUNDS[name], calls


@pytest.mark.parametrize("name", sorted(PORTFOLIO_BOUNDS))
def test_large_portfolio_is_certified_in_few_evaluations(specs, monkeypatch, name):
    sol, calls = _counted_portfolio(monkeypatch, _factor_panel(2000, 20), specs[name])
    assert sol.converged
    assert calls <= LARGE_PORTFOLIO_BOUND, calls
