import numpy as np
import pytest

import divrisk as dr
from divrisk.errors import DataError, InvalidParameterError, SpectrumError


def test_from_samples_examples():
    d = dr.from_samples([3.0])
    assert d.n == 1 and d.probs[0] == 1.0

    d = dr.from_samples([1, 2, 3, 4])
    assert d.n == 4
    assert np.all(d.probs == 0.25)

    d = dr.from_samples([5.0, 5.0])
    assert d.n == 2 and np.all(d.probs == 0.5)
    assert d.esssup == 5.0
    assert d.prob_at_esssup() == 1.0


def test_from_samples_errors():
    with pytest.raises(DataError):
        dr.from_samples([])
    with pytest.raises(DataError):
        dr.from_samples([1.0, np.nan])
    with pytest.raises(DataError):
        dr.from_samples([1.0, np.inf])


def test_distribution_validation():
    with pytest.raises(DataError):
        dr.EmpiricalDistribution(atoms=np.array([1.0, 2.0]), probs=np.array([0.5, 0.6]))
    with pytest.raises(DataError):
        dr.EmpiricalDistribution(atoms=np.array([1.0, 2.0]), probs=np.array([1.0, 0.0]))


def test_order_is_built_by_its_first_reader_with_a_stable_sort():
    # tied atoms with 1e-12 probabilities: the cumulative masses depend on the
    # order of the ties, which a stable sort keeps as given
    rng = np.random.default_rng(8)
    n = 500
    atoms = np.round(rng.standard_normal(n), 1)
    w = rng.uniform(0.0, 1.0, n)
    w[rng.random(n) < 0.5] = 1e-12
    d = dr.EmpiricalDistribution(atoms=atoms, probs=w / w.sum())
    assert "_order" not in vars(d)  # building sorts nothing
    order = sorted(range(n), key=lambda i: atoms[i])  # Python's sort is stable
    ref = dr.EmpiricalDistribution(atoms=d.atoms[order], probs=d.probs[order])
    us = np.concatenate([np.linspace(0.0, 1.0, 101, endpoint=False), ref._order[1][:-1]])
    assert np.array_equal(d.quantile(us), ref.quantile(us))
    cached = d._order
    for alpha in (0.0, 0.3, 0.5, 0.97, float(ref._order[1][n // 2])):
        assert d.avar(alpha) == ref.avar(alpha)
    edges = np.linspace(0.0, 1.0, 9)
    sigma = dr.StepSpectrum(breaks=edges, values=edges[:-1] + edges[1:])
    assert d.spectral_risk(sigma) == ref.spectral_risk(sigma)
    assert d._order is cached  # one sort serves every reader


def test_quantile_examples():
    d = dr.from_samples([1, 2, 3, 4])
    assert d.quantile(0.6) == 3.0
    assert d.quantile(0.0) == 1.0
    # jump point: cumulative mass 0.25 sits exactly at the first atom
    assert d.quantile(0.25) == 2.0
    with pytest.raises(InvalidParameterError):
        d.quantile(1.0)
    with pytest.raises(InvalidParameterError):
        d.quantile(-0.1)


def test_quantile_generalized_inverse():
    rng = np.random.default_rng(2)
    d = dr.EmpiricalDistribution(atoms=rng.normal(0, 1, 7), probs=rng.dirichlet(np.ones(7)))
    us = np.linspace(0.0, 1.0 - 1e-12, 1000)
    qs = d.quantile(us)
    assert np.all(np.diff(qs[np.argsort(us)]) >= 0)
    for u, q in zip(us[::37], qs[::37]):
        cdf = d.probs[d.atoms <= q].sum()
        assert cdf >= u


def test_avar_examples():
    d = dr.from_samples([1, 2, 3, 4])
    assert d.avar(0.5) == pytest.approx(3.5, abs=1e-14)
    assert d.avar(0.0) == pytest.approx(d.mean, abs=1e-14)
    c = dr.from_samples([2.5, 2.5, 2.5])
    for a in (0.0, 0.3, 0.9):
        assert c.avar(a) == pytest.approx(2.5, abs=1e-14)
    with pytest.raises(InvalidParameterError):
        d.avar(1.0)


def test_avar_monotone_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        d = dr.EmpiricalDistribution(atoms=rng.normal(0, 2, n), probs=rng.dirichlet(np.ones(n)))
        alphas = np.linspace(0.0, 0.99, 40)
        vals = np.array([d.avar(a) for a in alphas])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals >= d.mean - 1e-12)
        assert np.all(vals <= d.esssup + 1e-12)


def test_spectral_flat_is_mean():
    rng = np.random.default_rng(4)
    d = dr.EmpiricalDistribution(atoms=rng.normal(0, 1, 6), probs=rng.dirichlet(np.ones(6)))
    flat = dr.StepSpectrum(breaks=np.array([0.0, 1.0]), values=np.array([1.0]))
    assert d.spectral_risk(flat) == pytest.approx(d.mean, abs=1e-12)


def test_spectral_reproduces_avar():
    rng = np.random.default_rng(5)
    d = dr.EmpiricalDistribution(atoms=rng.normal(0, 1, 5), probs=rng.dirichlet(np.ones(5)))
    for alpha in (0.0, 0.25, 0.6, 0.9):
        sigma = dr.StepSpectrum.avar_spectrum(alpha)
        assert d.spectral_risk(sigma) == pytest.approx(d.avar(alpha), abs=1e-12)


def test_spectral_linear_weight_approximation():
    # sigma(u) = 2u approximated by a 64-step midpoint spectrum; the exact
    # integral against the {0, 10} quantile is 7.5
    d = dr.from_samples([0.0, 10.0])
    m = 64
    edges = np.linspace(0.0, 1.0, m + 1)
    vals = edges[:-1] + edges[1:]  # midpoint values of 2u, integrate to 1 exactly
    sigma = dr.StepSpectrum(breaks=edges, values=vals)
    assert d.spectral_risk(sigma) == pytest.approx(7.5, abs=0.2)


def test_spectrum_validation():
    with pytest.raises(SpectrumError):
        dr.StepSpectrum(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([1.5, 0.5]))  # decreasing
    with pytest.raises(SpectrumError):
        dr.StepSpectrum(breaks=np.array([0.0, 1.0]), values=np.array([1.5]))  # not normalised
    with pytest.raises(SpectrumError):
        dr.StepSpectrum(breaks=np.array([0.0, 1.0]), values=np.array([-1.0]))
    with pytest.raises(SpectrumError):
        dr.StepSpectrum(breaks=np.array([0.1, 1.0]), values=np.array([1.0]))


def test_csv_single_column(tmp_path):
    f = tmp_path / "samples.csv"
    f.write_text("# a comment line\n1.0\n2.0\n3.0  # trailing comment\n\n4.0\n")
    d = dr.from_csv(f)
    assert d.n == 4
    assert np.all(d.probs == 0.25)
    assert list(d.atoms) == [1.0, 2.0, 3.0, 4.0]


def test_csv_weighted(tmp_path):
    f = tmp_path / "weighted.csv"
    f.write_text("1.0, 1\n2.0, 3\n")
    d = dr.from_csv(f)
    assert d.probs[0] == pytest.approx(0.25)
    assert d.probs[1] == pytest.approx(0.75)


def test_csv_errors(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1.0\nnot_a_number\n")
    with pytest.raises(DataError, match="line 2"):
        dr.from_csv(f)
    f.write_text("1.0, 2.0\n3.0\n")
    with pytest.raises(DataError, match="line 2"):
        dr.from_csv(f)
    f.write_text("# only comments\n")
    with pytest.raises(DataError):
        dr.from_csv(f)
    f.write_text("1.0, 0.0\n2.0, 1.0\n")
    with pytest.raises(DataError):
        dr.from_csv(f)
