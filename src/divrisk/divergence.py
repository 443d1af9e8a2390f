"""Divergence functions, convex conjugates and induced Young pairs.

A divergence function is a convex, lower-semicontinuous ``phi`` with
``phi(1) = 0``, domain ``[0, inf)`` (finite at 0) and superlinear growth
``phi(x)/x -> inf``.  Its convex conjugate ``psi(y) = sup_{x>=0} x*y - phi(x)``
is finite everywhere, non-decreasing and satisfies ``psi(y) >= y``; the pair
obeys the Fenchel-Young inequality ``x*y <= phi(x) + psi(y)`` with equality
along ``y = phi'(x)``.

Three builtin families are provided:

* ``kl``        phi(x) = x*log(x), phi(0) = 0, psi(y) = exp(y - 1)
* ``chi2``      phi(x) = (x - 1)**2, psi(y) = y + y**2/4 for y >= -2, else -1
* ``power:<p>`` phi(x) = (x**p - p*x + p - 1) / (p*(p - 1)) for p > 1

Truncating a divergence function at its unit root yields a Young function
``Phi`` (zero on [0, 1], max{0, phi} beyond), which generates the Orlicz and
Luxemburg norms used by :mod:`divrisk.norms`.  The uniform gap
``d = sup |phi - Phi|`` controls how far the Young norm can drift from the
divergence norm; it is ``max{phi(0), psi(0)}`` in closed form, since phi and
Phi differ only on [0, 1], where phi lies between its minimum ``-psi(0)``
and ``phi(0)``.

Subderivative convention: at kinks the right subderivative is used, so all
scalar searches against ``phi'`` and ``psi'`` bisect monotone maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    DataError,
    InvalidParameterError,
    NumericsError,
    UnsupportedDivergenceError,
)

__all__ = [
    "DivergenceSpec",
    "YoungPair",
    "make_builtin_divergence",
    "divergence_from_callables",
    "numeric_conjugate",
    "young_pair",
    "discrete_divergence",
]


def _maybe_scalar(out):
    return float(out) if np.ndim(out) == 0 else out


def _wrap(fn) -> Callable:
    """Lift an array-only implementation to accept floats or arrays."""

    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            out = fn(arr)
        return _maybe_scalar(out)

    return wrapped


@dataclass(frozen=True)
class DivergenceSpec:
    """A divergence function phi bundled with its conjugate and subderivatives.

    All callables accept floats or numpy arrays and return the same shape.
    ``phi`` returns ``+inf`` for negative arguments; ``phi_prime`` is the
    right subderivative (``-inf`` allowed at 0); ``psi_prime`` maps into
    ``[0, inf)`` and doubles as the maximiser of ``x*y - phi(x)``.
    ``psi_second`` is the derivative of ``psi_prime`` (right derivative at
    kinks, 0 where ``psi_prime`` vanishes), or None when the spec has no
    closed form for it; the inner shift solve of :mod:`divrisk.risk` takes
    Newton steps with it and bisects without it.
    """

    name: str
    phi: Callable
    phi_prime: Callable
    psi: Callable
    psi_prime: Callable
    phi_at_zero: float
    delta2: bool
    has_closed_conjugate: bool
    delta2_constants: Optional[Tuple[float, float]] = None  # (T, k) for the probe
    psi_second: Optional[Callable] = None

    def __repr__(self):  # keep reprs short; callables are noise
        return f"DivergenceSpec({self.name!r})"


@dataclass(frozen=True)
class YoungPair:
    """Young function Phi derived from a divergence, with conjugate Psi.

    ``d`` is the uniform gap ``sup_x |phi(x) - Phi(x)|``; ``spec`` packages
    Phi itself as a DivergenceSpec (it is one) so the risk evaluator can run
    with Psi in place of psi.
    """

    Phi: Callable
    Psi: Callable
    d: float
    spec: DivergenceSpec


# ---------------------------------------------------------------------------
# builtins
#
# phi, psi, psi' and psi'' take float arrays (``_wrap`` converts their input)
# and write into one output array with ``out=`` ufuncs, then fix up the
# special cases through boolean masks.  Each makes the operations of the
# plain numpy expression in its comment, in the same order, so its values
# are bit-identical to that expression's; it only skips the temporaries, each
# an n-sized allocation with its page faults.  The evaluator makes tens of
# such passes over the atoms per risk value.


_BLOCK = 8192  # elements per block, where a kernel needs two operands at once


def _ramp(y, slope):
    """np.maximum(0.0, 1.0 + slope * y) in a new array."""
    out = np.multiply(y, slope, out=np.empty_like(y))
    out += 1.0
    return np.maximum(out, 0.0, out=out)


def _kl_spec() -> DivergenceSpec:
    def phi(x):
        # np.where(x > 0, x * np.log(x), np.where(x == 0, 0.0, np.inf))
        out = np.log(x, out=np.empty_like(x))
        out *= x
        out[x == 0] = 0.0
        out[~(x >= 0)] = np.inf
        return out

    def phi_prime(x):
        pos = x > 0
        safe = np.where(pos, x, 1.0)
        return np.where(pos, np.log(safe) + 1.0, -np.inf)

    def psi(y):
        # np.exp(y - 1.0)
        out = np.subtract(y, 1.0, out=np.empty_like(y))
        return np.exp(out, out=out)

    return DivergenceSpec(
        name="kl",
        phi=_wrap(phi),
        phi_prime=_wrap(phi_prime),
        psi=_wrap(psi),
        psi_prime=_wrap(psi),  # psi' = psi for the exponential conjugate
        phi_at_zero=0.0,
        delta2=True,
        has_closed_conjugate=True,
        delta2_constants=(2.0, 4.0),  # 2x*log(2x) <= 4*x*log(x) for x >= 2
        psi_second=_wrap(psi),
    )


def _chi2_spec() -> DivergenceSpec:
    def phi(x):
        # np.where(x >= 0, (x - 1.0) ** 2, np.inf)
        out = np.subtract(x, 1.0, out=np.empty_like(x))
        np.square(out, out=out)
        out[~(x >= 0)] = np.inf
        return out

    def phi_prime(x):
        return 2.0 * (x - 1.0)

    def psi(y):
        # np.where(y >= -2.0, y + 0.25 * y * y, -1.0)
        out = np.multiply(y, 0.25, out=np.empty_like(y))
        out *= y
        out += y
        out[~(y >= -2.0)] = -1.0
        return out

    def psi_prime(y):
        # np.maximum(0.0, 1.0 + 0.5 * y)
        return _ramp(y, 0.5)

    def psi_second(y):
        # np.where(y > -2.0, 0.5, 0.0)
        out = np.greater(y, -2.0, out=np.empty_like(y))
        out *= 0.5
        return out

    return DivergenceSpec(
        name="chi2",
        phi=_wrap(phi),
        phi_prime=_wrap(phi_prime),
        psi=_wrap(psi),
        psi_prime=_wrap(psi_prime),
        phi_at_zero=1.0,
        delta2=True,
        has_closed_conjugate=True,
        delta2_constants=(2.0, 9.0),  # ((2x-1)/(x-1))**2 <= 9 for x >= 2
        psi_second=_wrap(psi_second),
    )


def _power_spec(p: float) -> DivergenceSpec:
    if not math.isfinite(p) or p <= 1.0:
        raise InvalidParameterError(
            f"power divergence needs p > 1 (superlinear growth fails otherwise), got p={p}"
        )
    q = p / (p - 1.0)
    denom = p * (p - 1.0)

    def phi(x):
        # xp = np.where(x >= 0, x, 0.0)
        # np.where(x >= 0, (np.power(xp, p) - p * xp + p - 1.0) / denom, np.inf)
        out = np.maximum(x, 0.0, out=np.empty(x.shape))  # xp, except NaN at NaN
        flat = out.reshape(-1)
        # np.power(xp, p) - p * xp needs both operands at once: block by block,
        # the second takes a block rather than a full-size array
        for i in range(0, flat.size, _BLOCK):
            blk = flat[i : i + _BLOCK]
            scaled = blk * p
            np.power(blk, p, out=blk)
            blk -= scaled
        out += p
        out -= 1.0
        out /= denom
        out[~(x >= 0)] = np.inf
        return out

    def phi_prime(x):
        xp = np.maximum(x, 0.0)
        return (np.power(xp, p - 1.0) - 1.0) / (p - 1.0)

    # u = np.maximum(0.0, 1.0 + (p - 1.0) * y) in psi, psi' and psi''
    def psi(y):
        # (np.power(u, q) - 1.0) / p
        out = _ramp(y, p - 1.0)
        np.power(out, q, out=out)
        out -= 1.0
        out /= p
        return out

    def psi_prime(y):
        # np.power(u, 1.0 / (p - 1.0))
        out = _ramp(y, p - 1.0)
        return np.power(out, 1.0 / (p - 1.0), out=out)

    def psi_second(y):
        # np.where(u > 0.0, np.power(u, 1.0 / (p - 1.0) - 1.0), 0.0): u**(negative)
        # is inf at u = 0 for p > 2, where psi' vanishes
        out = _ramp(y, p - 1.0)
        zero = ~(out > 0.0)
        np.power(out, 1.0 / (p - 1.0) - 1.0, out=out)
        out[zero] = 0.0
        return out

    phi_w = _wrap(phi)
    # phi(2x)/phi(x) decreases on [2, inf) (towards 2**p), so its supremum
    # there is the value at x = 2
    k = phi_w(4.0) / phi_w(2.0)

    return DivergenceSpec(
        name=f"power:{p:g}",
        phi=phi_w,
        phi_prime=_wrap(phi_prime),
        psi=_wrap(psi),
        psi_prime=_wrap(psi_prime),
        phi_at_zero=1.0 / p,
        delta2=True,
        has_closed_conjugate=True,
        delta2_constants=(2.0, k),
        psi_second=_wrap(psi_second),
    )


def make_builtin_divergence(name: str) -> DivergenceSpec:
    """Build a validated builtin divergence from its string identifier.

    Accepted identifiers: ``"kl"``, ``"chi2"`` and ``"power:<p>"`` with
    decimal p > 1 (e.g. ``"power:1.5"``).
    """
    ident = name.strip()
    if ident == "kl":
        spec = _kl_spec()
    elif ident == "chi2":
        spec = _chi2_spec()
    elif ident.startswith("power:"):
        try:
            p = float(ident.split(":", 1)[1])
        except ValueError as exc:
            raise InvalidParameterError(f"cannot parse power parameter in {name!r}") from exc
        spec = _power_spec(p)
    elif ident == "power":
        raise InvalidParameterError("power divergence needs a parameter, e.g. 'power:1.5'")
    else:
        raise UnsupportedDivergenceError(f"unknown divergence {name!r}")
    validate_divergence(spec)
    return spec


# ---------------------------------------------------------------------------
# numeric conjugation


def _conjugate_search(phi, phi_prime, y):
    """sup_{x>=0} x*y - phi(x) via bracket growth and bisection on phi'.

    Returns (value, maximiser) as arrays of the shape of y.  The bracket upper
    end grows geometrically (x4) until phi'(X) exceeds y; termination is
    guaranteed by superlinear growth.
    """
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        slope0 = float(np.asarray(phi_prime(0.0)))
        at_zero = yv <= slope0
        upper = np.ones_like(yv)
        for _ in range(300):
            need = (~at_zero) & (np.asarray(phi_prime(upper)) <= yv)
            if not need.any():
                break
            upper = np.where(need, upper * 4.0, upper)
        else:
            raise NumericsError("conjugate bracket expansion exhausted")
        lo = np.zeros_like(yv)
        hi = upper
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            small = np.asarray(phi_prime(mid)) <= yv
            lo = np.where(small, mid, lo)
            hi = np.where(small, hi, mid)
        xstar = np.where(at_zero, 0.0, 0.5 * (lo + hi))
        value = xstar * yv - np.asarray(phi(xstar))
    return value.reshape(np.shape(y)), xstar.reshape(np.shape(y))


def numeric_conjugate(spec: DivergenceSpec, y):
    """Numerically evaluate the convex conjugate sup_{x>=0} x*y - phi(x).

    Independent of ``spec.psi``; used to cross-validate closed forms and to
    back specs without one.  Accepts floats or arrays.
    """
    value, _ = _conjugate_search(spec.phi, spec.phi_prime, y)
    return _maybe_scalar(value)


def divergence_from_callables(
    name: str,
    phi: Callable,
    phi_prime: Callable,
    phi_at_zero: float,
    delta2: bool = False,
    delta2_constants: Optional[Tuple[float, float]] = None,
) -> DivergenceSpec:
    """Assemble a spec from phi alone, deriving psi and psi' numerically.

    ``psi_prime`` is the maximiser of the conjugate problem, which is a valid
    subderivative selection wherever phi is strictly convex.
    """
    if not math.isfinite(phi_at_zero):
        raise InvalidParameterError(
            f"divergence {name!r} has non-finite phi(0); domain must be all of [0, inf)"
        )
    phi_w = _wrap(lambda x: np.where(x >= 0, np.asarray(phi(np.maximum(x, 0.0))), np.inf))

    def psi(y):
        return _conjugate_search(phi_w, phi_prime, y)[0]

    def psi_prime(y):
        return _conjugate_search(phi_w, phi_prime, y)[1]

    spec = DivergenceSpec(
        name=name,
        phi=phi_w,
        phi_prime=_wrap(lambda x: np.asarray(phi_prime(x))),
        psi=_wrap(psi),
        psi_prime=_wrap(psi_prime),
        phi_at_zero=float(phi_at_zero),
        delta2=delta2,
        has_closed_conjugate=False,
        delta2_constants=delta2_constants,
    )
    validate_divergence(spec)
    return spec


# ---------------------------------------------------------------------------
# construction-time validation


def validate_divergence(spec: DivergenceSpec, n_grid: int = 64) -> None:
    """Check the divergence-function axioms on sampled grids.

    Raises InvalidParameterError on violation.  Covers: phi(1) = 0, finite
    phi(0), convexity, superlinear growth, psi >= identity, psi
    non-decreasing, psi_second (when given) as the derivative of psi', and
    Fenchel-Young with equality along y = phi'(x).
    """
    if not math.isfinite(spec.phi_at_zero) or spec.phi_at_zero < 0:
        raise InvalidParameterError(f"{spec.name}: phi(0) must be finite and nonnegative")
    if abs(spec.phi(1.0)) > 1e-12:
        raise InvalidParameterError(f"{spec.name}: phi(1) = {spec.phi(1.0)!r}, expected 0")
    if abs(spec.phi(0.0) - spec.phi_at_zero) > 1e-12:
        raise InvalidParameterError(f"{spec.name}: phi(0) disagrees with declared phi_at_zero")

    xs = np.concatenate([np.logspace(-6, 2, n_grid), np.linspace(0.0, 8.0, n_grid)])
    xs = np.unique(xs)
    vals = np.asarray(spec.phi(xs))
    if not np.all(np.isfinite(vals)):
        raise InvalidParameterError(f"{spec.name}: phi not finite on [0, inf)")

    # convexity on consecutive triples, relative slack 1e-12
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    lam = (x1 - x0) / (x2 - x0)
    chord = (1 - lam) * vals[:-2] + lam * vals[2:]
    scale = np.maximum(1.0, np.abs(chord))
    if np.any(vals[1:-1] > chord + 1e-12 * scale):
        raise InvalidParameterError(f"{spec.name}: phi fails sampled convexity")

    # superlinear growth; an overflow to +inf counts as growth past float range
    probes = np.array([1e2, 1e4, 1e6])
    ratios = np.asarray(spec.phi(probes)) / probes
    prev = None
    for r in ratios:
        if np.isinf(r):
            break
        if prev is not None and r <= prev:
            raise InvalidParameterError(f"{spec.name}: phi(x)/x not increasing at 1e2, 1e4, 1e6")
        prev = r

    ys = np.linspace(-10.0, 10.0, n_grid)
    psis = np.asarray(spec.psi(ys))
    if np.any(psis < ys - 1e-10):
        raise InvalidParameterError(f"{spec.name}: psi(y) >= y fails on sampled grid")
    if np.any(np.diff(psis) < -1e-12):
        raise InvalidParameterError(f"{spec.name}: psi not non-decreasing on sampled grid")

    # psi'' against a central difference of psi', at the grid points where
    # psi' is smooth on the scale of the difference (no kink within h)
    if spec.psi_second is not None:
        h = 1e-6 * np.maximum(1.0, np.abs(ys))
        mid = np.asarray(spec.psi_prime(ys))
        left = (mid - np.asarray(spec.psi_prime(ys - h))) / h
        right = (np.asarray(spec.psi_prime(ys + h)) - mid) / h
        central = 0.5 * (left + right)
        scale = np.maximum(1.0, np.abs(central))
        smooth = np.abs(right - left) <= 1e-3 * scale
        off = np.abs(np.asarray(spec.psi_second(ys)) - central) > 1e-5 * scale
        if np.any(smooth & off):
            raise InvalidParameterError(
                f"{spec.name}: psi_second disagrees with a central difference of psi_prime"
            )

    # Fenchel-Young inequality plus equality along y = phi'(x)
    xf = np.linspace(0.05, 6.0, 25)
    yf = np.linspace(-4.0, 4.0, 25)
    gap = np.asarray(spec.phi(xf))[:, None] + np.asarray(spec.psi(yf))[None, :] - xf[:, None] * yf[None, :]
    if np.any(gap < -1e-10):
        raise InvalidParameterError(f"{spec.name}: Fenchel-Young inequality fails")
    slopes = np.asarray(spec.phi_prime(xf))
    eq_gap = xf * slopes - (np.asarray(spec.phi(xf)) + np.asarray(spec.psi(slopes)))
    if np.any(np.abs(eq_gap) > 1e-8):
        raise InvalidParameterError(f"{spec.name}: Fenchel-Young equality fails on y = phi'(x)")


# ---------------------------------------------------------------------------
# Young pair


def young_pair(spec: DivergenceSpec) -> YoungPair:
    """Truncate phi to the Young function Phi and conjugate it.

    Phi vanishes on [0, 1] and equals max{0, phi} beyond.  The gap
    d = sup|phi - Phi| is max{phi(0), psi(0)} exactly: right of 1 the two
    coincide, since phi >= 0 there (checked below), so on [0, 1] the convex
    phi ranges between its minimum -psi(0) and max{phi(0), phi(1)} = phi(0).
    """
    base_phi = spec.phi
    base_phi_prime = spec.phi_prime

    # supported construction requires phi >= 0 right of the unit root
    probe = np.linspace(1.0, 64.0, 257)
    if float(np.min(np.asarray(base_phi(probe)))) < -1e-12:
        raise UnsupportedDivergenceError(
            f"{spec.name}: Young truncation implemented for phi >= 0 on [1, inf) only"
        )

    def Phi(x):
        inside = (x >= 0) & (x <= 1.0)
        out = np.where(inside, 0.0, np.maximum(0.0, np.asarray(base_phi(x))))
        return np.where(x < 0, np.inf, out)

    def Phi_prime(x):
        return np.where(x < 1.0, 0.0, np.maximum(0.0, np.asarray(base_phi_prime(np.maximum(x, 1.0)))))

    Phi_w = _wrap(Phi)
    Phi_prime_w = _wrap(Phi_prime)

    if spec.has_closed_conjugate:
        base_psi = spec.psi
        base_psi_prime = spec.psi_prime

        def Psi(y):
            xs = np.maximum(1.0, np.asarray(base_psi_prime(np.minimum(y, 1e300))))
            val = xs * y - np.asarray(Phi_w(xs))
            # inf - inf where the maximiser or Phi(maximiser) overflows: Phi
            # and phi coincide out there, so the conjugates agree and the
            # base closed form applies
            val = np.where(np.isnan(val), np.asarray(base_psi(y)), val)
            return np.where(y <= 0, 0.0, val)

        def Psi_prime(y):
            return np.where(y < 0, 0.0, np.maximum(1.0, np.asarray(base_psi_prime(np.maximum(y, 0.0)))))

        Psi_w = _wrap(Psi)
        Psi_prime_w = _wrap(Psi_prime)
    else:

        def Psi(y):
            return _conjugate_search(Phi_w, Phi_prime_w, y)[0]

        def Psi_prime(y):
            return _conjugate_search(Phi_w, Phi_prime_w, y)[1]

        Psi_w = _wrap(Psi)
        Psi_prime_w = _wrap(Psi_prime)

    d = max(spec.phi_at_zero, float(spec.psi(0.0)))

    t2 = spec.delta2_constants
    young_spec = DivergenceSpec(
        name=f"young({spec.name})",
        phi=Phi_w,
        phi_prime=Phi_prime_w,
        psi=Psi_w,
        psi_prime=Psi_prime_w,
        phi_at_zero=0.0,
        delta2=spec.delta2,
        has_closed_conjugate=spec.has_closed_conjugate,
        delta2_constants=(max(t2[0], 2.0), t2[1]) if t2 else None,
    )
    validate_divergence(young_spec)
    return YoungPair(Phi=Phi_w, Psi=Psi_w, d=d, spec=young_spec)


# ---------------------------------------------------------------------------
# divergence of discrete measures


def discrete_divergence(q, p, spec: DivergenceSpec, sum_tol: float = 1e-12) -> float:
    """phi-divergence sum(p_i * phi(q_i / p_i)) of probability vectors.

    p must be strictly positive (absolute continuity is then automatic on the
    common support); both vectors must sum to one within ``sum_tol``.
    """
    qa = np.asarray(q, dtype=float)
    pa = np.asarray(p, dtype=float)
    if qa.shape != pa.shape or qa.ndim != 1:
        raise DataError(f"probability vectors must share one dimension, got {qa.shape} vs {pa.shape}")
    if np.any(pa <= 0):
        raise DataError("reference probabilities must be strictly positive")
    if np.any(qa < 0):
        raise DataError("probabilities must be nonnegative")
    if abs(qa.sum() - 1.0) > sum_tol or abs(pa.sum() - 1.0) > sum_tol:
        raise DataError("probability vectors must sum to 1")
    vals = np.asarray(spec.phi(qa / pa))
    return float(np.sum(pa * vals))
