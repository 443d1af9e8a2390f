"""Finitely supported random variables and their distributional primitives.

The quantile function follows the step convention F^{-1}(u) = inf{x : F(x) > u},
which is right-continuous in u and returns the smallest atom at u = 0.  All
tail integrals (average value-at-risk, spectral risk) are computed exactly as
finite sums over quantile steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DataError, InvalidParameterError, SpectrumError

__all__ = ["EmpiricalDistribution", "StepSpectrum", "from_samples", "from_csv"]

_PROB_TOL = 1e-12


def _checked(atoms, probs, ndim: int = 1, axis: int = -1):
    """atoms and probs as float arrays: atoms with ndim axes, probs a vector
    aligned with the given axis of atoms.

    Raises DataError unless the atoms are non-empty and finite and probs is a
    vector of finite, strictly positive probabilities summing to one.  Every
    entry point that takes atoms and probabilities from a caller checks them
    here.
    """
    atoms = np.asarray(atoms, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if atoms.ndim != ndim or probs.ndim != 1 or atoms.shape[axis] != probs.size:
        raise DataError(f"atoms must have {ndim} axes and probs must be a vector aligned with axis {axis}")
    if atoms.size == 0:
        raise DataError("empty distribution")
    if not np.all(np.isfinite(atoms)):
        raise DataError("atoms must be finite")
    if np.any(probs <= 0) or not np.all(np.isfinite(probs)):
        raise DataError("probabilities must be strictly positive and finite")
    if abs(probs.sum() - 1.0) > _PROB_TOL:
        raise DataError(f"probabilities sum to {probs.sum()!r}, expected 1")
    return atoms, probs


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Atoms x_i with strictly positive probabilities p_i summing to one.

    Building one checks its inputs and sorts nothing: the order statistics,
    which only the quantile side (``quantile``, ``avar``, ``spectral_risk``)
    reads, are built by their first reader and kept on the instance.
    """

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        atoms, probs = _checked(self.atoms, self.probs)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @cached_property
    def _order(self):
        """(sorted atoms, cumulative masses along them), by a stable sort: tied
        atoms keep their input order, so the masses add up in a fixed order."""
        order = np.argsort(self.atoms, kind="stable")
        return self.atoms[order], np.cumsum(self.probs[order])

    @property
    def n(self) -> int:
        return self.atoms.size

    @property
    def mean(self) -> float:
        return float(np.dot(self.probs, self.atoms))

    @property
    def esssup(self) -> float:
        return float(self.atoms.max())

    @property
    def essinf(self) -> float:
        return float(self.atoms.min())

    def prob_at_esssup(self) -> float:
        """P(X = esssup X); duplicates of the maximal atom accumulate."""
        return float(self.probs[self.atoms == self.esssup].sum())

    def quantile(self, u):
        """Step quantile F^{-1}(u) = inf{x : F(x) > u} for u in [0, 1)."""
        ua = np.asarray(u, dtype=float)
        if np.any((ua < 0) | (ua >= 1)):
            raise InvalidParameterError("quantile level must lie in [0, 1)")
        xs, cum = self._order
        idx = np.searchsorted(cum, ua, side="right")
        idx = np.minimum(idx, self.n - 1)
        out = xs[idx]
        return float(out) if np.ndim(u) == 0 else out

    def avar(self, alpha: float) -> float:
        """Average value-at-risk: the exact tail integral of the quantile.

        avar(alpha) = (1/(1-alpha)) * integral_alpha^1 F^{-1}(u) du, reducing
        to the mean at alpha = 0 and to the essential supremum as alpha -> 1.
        """
        if not 0 <= alpha < 1:
            raise InvalidParameterError("avar level must lie in [0, 1)")
        xs, cum = self._order
        k = int(np.searchsorted(cum, alpha, side="right"))
        k = min(k, self.n - 1)
        tail = xs[k] * (cum[k] - alpha) + float(np.dot(xs[k + 1 :], np.diff(cum)[k:]))
        return tail / (1.0 - alpha)

    def spectral_risk(self, sigma: "StepSpectrum") -> float:
        """integral_0^1 sigma(u) F^{-1}(u) du by exact piecewise integration."""
        if not isinstance(sigma, StepSpectrum):
            raise SpectrumError("sigma must be a StepSpectrum")
        knots = np.union1d(sigma.breaks, np.concatenate(([0.0], self._order[1])))
        knots = knots[(knots >= 0.0) & (knots <= 1.0)]
        left, right = knots[:-1], knots[1:]
        widths = right - left
        keep = widths > 0
        left, widths = left[keep], widths[keep]
        sig = sigma.value_at(left)
        # quantile is safe at u < 1; left endpoints are < 1 by construction
        quant = self.quantile(left)
        return float(np.dot(sig * quant, widths))

    def map_atoms(self, fn) -> "EmpiricalDistribution":
        """Distribution of fn(X) with atoms transformed pointwise."""
        return EmpiricalDistribution(atoms=np.asarray(fn(self.atoms), dtype=float), probs=self.probs)


@dataclass(frozen=True, eq=False)
class StepSpectrum:
    """Non-decreasing, nonnegative step density on [0, 1] integrating to one.

    Takes value ``values[i]`` on ``[breaks[i], breaks[i+1])``.
    """

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        breaks = np.asarray(self.breaks, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if breaks.ndim != 1 or values.ndim != 1 or breaks.size != values.size + 1:
            raise SpectrumError("need len(breaks) == len(values) + 1")
        if abs(breaks[0]) > 1e-12 or abs(breaks[-1] - 1.0) > 1e-12:
            raise SpectrumError("breaks must start at 0 and end at 1")
        if np.any(np.diff(breaks) <= 0):
            raise SpectrumError("breaks must be strictly increasing")
        if np.any(values < 0) or np.any(np.diff(values) < 0):
            raise SpectrumError("spectrum must be nonnegative and non-decreasing")
        total = float(np.dot(values, np.diff(breaks)))
        if abs(total - 1.0) > 1e-10:
            raise SpectrumError(f"spectrum integrates to {total!r}, expected 1")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)

    @classmethod
    def avar_spectrum(cls, alpha: float) -> "StepSpectrum":
        """The tail spectrum (1/(1-alpha)) * 1_{[alpha, 1]}."""
        if not 0 <= alpha < 1:
            raise InvalidParameterError("avar level must lie in [0, 1)")
        if alpha == 0.0:
            return cls(breaks=np.array([0.0, 1.0]), values=np.array([1.0]))
        w = 1.0 / (1.0 - alpha)
        return cls(breaks=np.array([0.0, alpha, 1.0]), values=np.array([0.0, w]))

    def value_at(self, u):
        ua = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, ua, side="right") - 1, 0, self.values.size - 1)
        out = self.values[idx]
        return float(out) if np.ndim(u) == 0 else out


def from_samples(values: Sequence[float]) -> EmpiricalDistribution:
    """Uniform empirical distribution over the given observations.

    Duplicates are kept as separate atoms; probabilities are 1/n.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError("need a non-empty 1-D sample vector")
    return EmpiricalDistribution(atoms=arr, probs=np.full(arr.size, 1.0 / arr.size))


def from_csv(path) -> EmpiricalDistribution:
    """Read samples from CSV: one value column, optional weight column.

    Lines starting with '#' (or trailing '#' comments) are ignored.  Weights,
    when present, must be strictly positive and are renormalised to sum one.
    """
    values, weights = [], []
    ncols = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [s.strip() for s in line.split(",")]
            parts = [s for s in parts if s]
            if len(parts) not in (1, 2):
                raise DataError(f"{path}: line {lineno}: expected 1 or 2 columns, got {len(parts)}")
            if ncols is None:
                ncols = len(parts)
            elif len(parts) != ncols:
                raise DataError(f"{path}: line {lineno}: inconsistent column count")
            try:
                values.append(float(parts[0]))
                if ncols == 2:
                    weights.append(float(parts[1]))
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: cannot parse number: {exc}") from exc
    if not values:
        raise DataError(f"{path}: no data rows")
    if ncols == 1:
        return from_samples(values)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise DataError(f"{path}: weights must be strictly positive and finite")
    return EmpiricalDistribution(atoms=np.asarray(values, dtype=float), probs=w / w.sum())
