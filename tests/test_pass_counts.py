"""Machine-independent cost guard for evaluate_primal.

Each builtin spec is wrapped so that every call to psi', psi'' and phi is
counted; one evaluate_primal on a seeded t(4) sample of n = 1000 atoms must
stay within the bounds below.  The bounds are about 1.25x the counts the
Newton outer search makes (kl, chi2, power:1.5, power:3 at beta 0.1 / 0.5 /
2): a search that falls back to bisection, or an inner solve that loses its
warm start, exceeds them.  psi'' counts include the (rows,)-sized calls of
the inner Newton step as well as the n-sized passes.
"""

import dataclasses

import numpy as np
import pytest

import divrisk as dr

# (spec, beta): (psi' calls, psi'' calls, phi calls) allowed per evaluation
BOUNDS = {
    ("kl", 0.1): (14, 14, 8),
    ("kl", 0.5): (14, 14, 8),
    ("kl", 2.0): (20, 20, 9),
    ("chi2", 0.1): (12, 12, 8),
    ("chi2", 0.5): (13, 14, 8),
    ("chi2", 2.0): (19, 23, 9),
    ("power:1.5", 0.1): (17, 20, 7),
    ("power:1.5", 0.5): (18, 22, 8),
    ("power:1.5", 2.0): (20, 27, 8),
    ("power:3", 0.1): (25, 33, 9),
    ("power:3", 0.5): (35, 49, 10),
    ("power:3", 2.0): (33, 44, 10),
}
COUNTED = ("psi_prime", "psi_second", "phi")


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(2020)
    return dr.EmpiricalDistribution(atoms=rng.standard_t(4, 1000), probs=rng.dirichlet(np.ones(1000)))


def _counting(spec, counts):
    def wrap(name):
        fn = getattr(spec, name)

        def counted(x):
            counts[name] += 1
            return fn(x)

        return counted

    return dataclasses.replace(spec, **{name: wrap(name) for name in COUNTED})


@pytest.mark.parametrize("name, beta", sorted(BOUNDS))
def test_calls_per_evaluation(specs, sample, name, beta):
    counts = dict.fromkeys(COUNTED, 0)
    ev = dr.evaluate_primal(sample, _counting(specs[name], counts), beta)
    assert ev.attained
    assert ev.value == dr.evaluate_primal(sample, specs[name], beta).value
    for k, bound in zip(COUNTED, BOUNDS[name, beta]):
        assert counts[k] <= bound, (k, counts)
