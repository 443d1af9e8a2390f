"""Solver-independent references and the per-operation output checks.

Nothing here calls a divrisk solver.  The risk references use closed dual
forms that the library does not implement:

* kl: the entropic value-at-risk, inf_t t*(beta + log E exp(X/t))
  (Ahmadi-Javid, JOTA 2012), by golden section over log t with a shifted
  log-sum-exp so that the t -> 0 limit (the essential supremum) is exact.
* chi2 and power:p: with E Z = 1 the ball E phi(Z) <= beta is the L^p ball
  ||Z||_p <= R, R = (1 + k*beta)**(1/p) (k = 1 for chi2 with p = 2, and
  k = p*(p-1) for power:p), so by Hoelder duality
  rho = min_c c + R*||(X - c)_+||_q with q = p/(p-1), a convex search in c.

Each check returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import math

import numpy as np

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_ITERS = 160
VALUE_RTOL = 1e-6      # risk/norm value against the reference, times the scale
RESIDUAL_TOL = 1e-6    # characterizing-equation residuals when attained
GAP_TOL = 1e-5         # CLI dual: reported duality gap
ORDER_RTOL = 1e-9      # slack for inequalities such as mean <= rho <= esssup


def _golden(f, a, b, iters=GOLDEN_ITERS):
    """Minimum value of a unimodal f on [a, b], endpoints included."""
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best = min(fc, fd, f(a), f(b))
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
        best = min(best, fc, fd)
    return best


def evar(x, p, beta):
    """inf_{t>0} t*(beta + log E exp(X/t))."""
    top = float(x.max())
    spread = top - float(x.min())
    if spread == 0.0:
        return top
    shifted = x - top

    def f(log_t):
        t = math.exp(log_t)
        return top + t * (beta + math.log(float(np.dot(p, np.exp(shifted / t)))))

    return _golden(f, math.log(spread) - 45.0, math.log(spread / beta) + 6.0)


def hoelder_risk(x, p, beta, power, k):
    """min_c c + R*||(X - c)_+||_q for the L^power ball of radius R."""
    top = float(x.max())
    spread = top - float(x.min())
    if spread == 0.0:
        return top
    q = power / (power - 1.0)
    radius = (1.0 + k * beta) ** (1.0 / power)

    def f(c):
        gap = np.maximum(x - c, 0.0) / spread
        return c + radius * spread * float(np.dot(p, gap**q)) ** (1.0 / q)

    width = spread
    while f(top - 2.0 * width) < f(top - width):
        width *= 2.0
    return _golden(f, top - 2.0 * width, top)


def risk_reference(spec_name, x, p, beta):
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if spec_name == "kl":
        return evar(x, p, beta)
    if spec_name == "chi2":
        return hoelder_risk(x, p, beta, 2.0, 1.0)
    if spec_name.startswith("power:"):
        power = float(spec_name.split(":", 1)[1])
        return hoelder_risk(x, p, beta, power, power * (power - 1.0))
    raise ValueError(f"no reference for divergence {spec_name!r}")


def boundary_level(spec_name, p_top):
    """B(0+) = phi(0)*(1 - p_top) + p_top*phi(1/p_top), the attainment edge."""
    z = 1.0 / p_top
    if spec_name == "kl":
        return math.log(z)
    if spec_name == "chi2":
        return (1.0 - p_top) + p_top * (z - 1.0) ** 2
    power = float(spec_name.split(":", 1)[1])
    denom = power * (power - 1.0)
    return (1.0 - p_top) / power + p_top * (z**power - power * z + power - 1.0) / denom


def avar(x, p, alpha):
    """(1/(1-alpha)) * integral_alpha^1 F^{-1}(u) du by summing sorted atoms."""
    order = np.argsort(x, kind="stable")
    xs, ps = x[order], p[order]
    upper = np.minimum(np.cumsum(ps), 1.0)
    lower = upper - ps
    mass = np.clip(upper - np.maximum(lower, alpha), 0.0, None)
    return float(np.dot(xs, mass)) / (1.0 - alpha)


def scale_of(x):
    return 1.0 + float(np.max(np.abs(x)))


def close(value, ref, scale, rtol=VALUE_RTOL):
    return value is not None and math.isfinite(value) and abs(value - ref) <= rtol * scale


# ---------------------------------------------------------------------------
# checks


def check_risk_value(value, ref, x, p, errors, label="value"):
    """rho against the reference, and mean <= rho <= esssup."""
    scale = scale_of(x)
    if not close(value, ref, scale):
        errors.append(f"{label} {value!r} differs from reference {ref!r}")
        return
    slack = ORDER_RTOL * scale
    mean, top = float(np.dot(p, x)), float(x.max())
    if not mean - slack <= value <= top + slack:
        errors.append(f"{label} {value!r} outside [mean {mean!r}, esssup {top!r}]")


def check_residuals(spec, x, p, beta, t_star, mu_star, reported, errors):
    """Recompute both characterizing-equation residuals from (t*, mu*)."""
    if t_star is None or mu_star is None or reported is None:
        errors.append("attained result lacks (t*, mu*) or residuals")
        return
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        z = np.asarray(spec.psi_prime(x / t_star - mu_star), dtype=float)
        r1 = 1.0 - float(np.dot(p, z))
        r2 = beta - float(np.dot(p, np.asarray(spec.phi(z), dtype=float)))
    for r in (r1, r2, *reported):
        if not abs(r) <= RESIDUAL_TOL:
            errors.append(f"residuals {(r1, r2)} / reported {tuple(reported)} exceed {RESIDUAL_TOL}")
            return


def check_evaluation(ev, spec, x, p, beta, ref, expect_attained):
    errors = []
    check_risk_value(ev.value, ref, x, p, errors)
    if ev.attained != expect_attained:
        errors.append(f"attained={ev.attained}, expected {expect_attained}")
    if ev.attained:
        check_residuals(spec, x, p, beta, ev.t_star, ev.mu_star, ev.residuals, errors)
    return errors


def check_cli_report(command, status, report, keys, inp, spec, beta, alpha, ref, expect_attained):
    """Checks for one `divrisk.cli.main` call; `ref` is rho at (inp, spec, beta)."""
    if status != 0:
        return [f"exit status {status}"]
    if report is None or list(report) != keys:
        return [f"report keys {list(report or ())} differ from the schema {keys}"]
    x, p = inp.atoms, inp.probs
    errors = []
    if command == "risk":
        check_risk_value(report["value"], ref, x, p, errors)
        if report["attained"] != expect_attained:
            errors.append(f"attained={report['attained']}, expected {expect_attained}")
        if report["attained"]:
            check_residuals(spec, x, p, beta, report["t_star"], report["mu_star"], report["residuals"], errors)
    elif command == "dual":
        z = np.asarray(report["z"], dtype=float)
        scale = scale_of(x)
        if not report["duality_gap"] <= GAP_TOL:
            errors.append(f"duality gap {report['duality_gap']!r} > {GAP_TOL}")
        check_risk_value(report["objective"], ref, x, p, errors, label="objective")
        div = float(np.dot(p, np.asarray(spec.phi(z), dtype=float)))
        if z.min() < 0 or abs(float(np.dot(p, z)) - 1.0) > 1e-9 or div > beta * (1 + ORDER_RTOL) + 1e-12:
            errors.append(f"density infeasible: E Z = {np.dot(p, z)!r}, E phi(Z) = {div!r}, beta = {beta!r}")
        if abs(float(np.dot(p, x * z)) - report["objective"]) > 1e-9 * scale:
            errors.append("objective differs from E X*Z of the reported density")
    elif command == "norm":
        ax = np.abs(x)
        check_risk_value(report["phi_beta_norm"], ref, ax, p, errors, label="phi_beta_norm")
        lux, orl = report["luxemburg"], report["orlicz"]
        if not (lux > 0 and lux * (1 - ORDER_RTOL) <= orl <= 2.0 * lux * (1 + ORDER_RTOL)):
            errors.append(f"luxemburg {lux!r} <= orlicz {orl!r} <= 2*luxemburg fails")
        if report["dual_norm"] is None:
            errors.append("dual_norm missing for a Delta2 divergence")
    elif command == "dualnorm":
        mean_abs = float(np.dot(p, np.abs(x)))
        if abs(report["mean_abs"] - mean_abs) > 1e-12 * scale_of(x):
            errors.append(f"mean_abs {report['mean_abs']!r} != {mean_abs!r}")
        if not report["dual_norm"] >= mean_abs * (1 - ORDER_RTOL):
            errors.append(f"dual norm {report['dual_norm']!r} below E|Z| = {mean_abs!r}")
    elif command == "avar":
        value, want = report["value"], avar(x, p, alpha)
        if not close(value, want, scale_of(x), rtol=ORDER_RTOL):
            errors.append(f"avar {value!r} differs from reference {want!r}")
    return errors


def check_portfolio(sol, losses, probs, spec_name, beta, baseline_risk):
    """Simplex weights, a risk that matches the reference at those weights,
    and no worse than min(equal-weight, best single-asset) risk."""
    w = np.asarray(sol.weights, dtype=float)
    errors = []
    if w.shape != (losses.shape[1],) or w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
        return [f"weights off the simplex: {w!r}"]
    x = losses @ w
    ref = risk_reference(spec_name, x, probs, beta)
    if not close(sol.risk, ref, scale_of(losses)):
        errors.append(f"risk {sol.risk!r} differs from reference {ref!r} at the returned weights")
    if not sol.risk <= baseline_risk + VALUE_RTOL * scale_of(losses):
        errors.append(f"risk {sol.risk!r} above min(equal-weight, single-asset) risk {baseline_risk!r}")
    return errors
