"""The benchmark's three workloads.

Each workload turns a seed into raw inputs (`generate`, harness work), builds
the program's input objects from them (`setup`, the part `setup_s` times)
and lists one round of operations with the measured input properties
(`round_ops`).  A run repeats the round, so every run measures whole rounds
of the same mix.  Each operation is one
call into a public divrisk function, looked up through its module attribute
at call time so that the tracer's wrappers take effect.

Why these three:

* primal-large is kernel bound: n = 1e5 atoms, so the psi' element
  evaluations of the inner and outer searches dominate; dual, norms, cli and
  portfolio do nothing.
* cli-mixed is overhead bound: n in {10, 1e3} makes thousands of small numpy
  calls set the time; it is the only workload with CSV parsing, JSON output,
  the norm bisections and (on its boundary-regime quarter) the projected-
  ascent dual fallback.
* portfolio-small is the only workload with evaluate_primal_batch (the
  exchange polish) and per-iteration EmpiricalDistribution builds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

SPECS = ("kl", "chi2", "power:1.5", "power:3")
BETAS = (0.1, 0.5, 2.0)
CLI_COMMANDS = ("risk", "dual", "norm", "dualnorm", "avar")
AVAR_ALPHA = 0.9
PORTFOLIO_BETA = 0.5
# A fixed work budget for the portfolio solver: at its defaults the number of
# iterations and polish sweeps swings 3-8x with the panel, which would make
# the per-op time a property of the seed rather than of the code.
PORTFOLIO_BUDGET = {"max_iters": 20, "polish_sweeps": 1}


class SetupError(RuntimeError):
    """Generated inputs do not have the property the workload promises."""


@dataclass
class Op:
    label: str                      # e.g. "risk/kl", used for per-kind counts
    call: Callable[[], object]
    check: Callable[[object], list]
    observe: Callable[[object], dict] = lambda result: {}


def _traced(tracer, spec):
    return spec if tracer is None else tracer.trace_spec(spec)


# ---------------------------------------------------------------------------
# primal-large


class PrimalLarge:
    name = "primal-large"
    n = 100_000

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        offset = seed % len(BETAS)
        cases = []
        for i, spec in enumerate(SPECS):
            atoms = rng.standard_t(4, self.n)
            probs = rng.dirichlet(np.ones(self.n))
            cases.append((spec, BETAS[(i + offset) % len(BETAS)], atoms, probs))
        return cases

    def setup(self, dr, raw):
        specs = {name: dr.make_builtin_divergence(name) for name in SPECS}
        dists = [dr.EmpiricalDistribution(atoms=a, probs=p) for _, _, a, p in raw]
        return specs, dists

    def round_ops(self, dr, raw, state, tracer, workdir):
        specs, dists = state
        refs = functools.cache(lambda i: ref.risk_reference(raw[i][0], raw[i][2], raw[i][3], raw[i][1]))
        ops = []
        for i, (name, beta, atoms, probs) in enumerate(raw):
            spec, dist = _traced(tracer, specs[name]), dists[i]

            def call(dist=dist, spec=spec, beta=beta):
                return dr.risk.evaluate_primal(dist, spec, beta)

            def check(ev, i=i, name=name, beta=beta, atoms=atoms, probs=probs):
                return ref.check_evaluation(ev, specs[name], atoms, probs, beta, refs(i), True)

            ops.append(Op(f"{name}/beta={beta:g}", call, check))
        return ops, {
            "n": [self.n] * len(raw),
            "cases": [f"{name}/beta={beta:g}" for name, beta, _, _ in raw],
            "p_top_max": max(float(p[np.argmax(a)]) for _, _, a, p in raw),
        }


# ---------------------------------------------------------------------------
# cli-mixed


class CliMixed:
    name = "cli-mixed"
    # (n, kind, beta); a boundary input's beta is 2 * B(0+) for each spec
    inputs = ((10, "attained", 0.5), (1000, "attained", 0.1), (10, "boundary", None), (1000, "attained", 2.0))

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for n, kind, beta in self.inputs:
            atoms = rng.standard_t(4, n) * rng.uniform(0.5, 2.0) + rng.uniform(-1.0, 1.0)
            w = rng.uniform(0.5, 1.5, n)
            if kind == "boundary":
                # a third of the mass tied at the maximum, all atoms positive
                atoms = np.abs(atoms) + 0.1
                atoms[:3] = atoms.max() + 1.0
                w[:3] *= 0.5 * w[3:].sum() / w[:3].sum()
            out.append((kind, beta, atoms, w))
        return out

    def setup(self, dr, raw):
        import divrisk.cli  # noqa: F401  (the CLI module is not imported by the package)

        return {name: dr.make_builtin_divergence(name) for name in SPECS}

    def _beta(self, kind, beta, spec_name, probs, atoms):
        if kind != "boundary":
            return beta
        p_top = float(probs[atoms == atoms.max()].sum())
        return 2.0 * ref.boundary_level(spec_name, p_top)

    def round_ops(self, dr, raw, state, tracer, workdir):
        specs = state
        schema = json.loads((Path(dr.__file__).parent / "report_schema.json").read_text())
        refs = functools.cache(lambda i, name, beta, absolute: ref.risk_reference(
            name, np.abs(raw[i][2]) if absolute else raw[i][2], raw[i][3] / raw[i][3].sum(), beta))
        ops, kinds, boundary_ops = [], Counter(), 0
        for i, (kind, beta0, atoms, w) in enumerate(raw):
            path = os.path.join(workdir, f"input{i}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{a!r},{b!r}\n" for a, b in zip(atoms.tolist(), w.tolist())))
            dist = dr.EmpiricalDistribution(atoms=atoms, probs=w / w.sum())
            unattained = set()
            for c, command in enumerate(CLI_COMMANDS):
                name = SPECS[(i + c) % len(SPECS)]
                beta = self._beta(kind, beta0, name, dist.probs, atoms)
                if command == "avar":
                    argv = ["--command", "avar", "--alpha", repr(AVAR_ALPHA), "--input", path]
                    label = "avar"
                else:
                    argv = ["--command", command, "--divergence", name, "--beta", repr(beta), "--input", path]
                    label = f"{command}/{name}"
                    # the regime is confirmed on the program before any op is timed
                    if not dr.risk.evaluate_primal(dist, specs[name], beta).attained:
                        unattained.add(name)
                    if (name in unattained) != (kind == "boundary"):
                        raise SetupError(f"input {i} ({kind}) under {name} at beta {beta!r} is in the wrong regime")
                kinds[label] += 1
                reference = (lambda i=i, name=name, beta=beta, ab=(command == "norm"): refs(i, name, beta, ab))
                ops.append(self._op(dr, command, argv, label, schema[command], dist, specs.get(name),
                                    beta, kind == "attained", reference))
            boundary_ops += len(CLI_COMMANDS) if unattained else 0
        return ops, {
            "n": [int(a.size) for _, _, a, _ in raw],
            "kinds": [kind for kind, _, _, _ in raw],
            "boundary_share_ops": boundary_ops / len(ops),
            "ops_per_round": dict(sorted(kinds.items())),
        }

    def _op(self, dr, command, argv, label, keys, dist, spec, beta, attained, reference):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = dr.cli.main(argv)
            return status, buf.getvalue()

        def parse(result):
            status, text = result
            try:
                return status, json.loads(text)
            except ValueError:
                return status, None

        def check(result):
            status, report = parse(result)
            want = None if command in ("dualnorm", "avar") else reference()
            return ref.check_cli_report(command, status, report, keys, dist, spec, beta,
                                        AVAR_ALPHA, want, attained)

        def observe(result):
            status, report = parse(result)
            obs = {"command": command, "output_kb": len(result[1].encode()) / 1024.0}
            if command == "dual" and report is not None:
                obs["duality_gap"] = report["duality_gap"]
            return obs

        return Op(label, call, check, observe)


# ---------------------------------------------------------------------------
# portfolio-small


class PortfolioSmall:
    name = "portfolio-small"
    panels = ((50, 4, "kl"), (100, 6, "chi2"))

    def generate(self, seed):
        # comparably risky assets: a common normal factor plus t(5) noise
        rng = np.random.default_rng(seed)
        out = []
        for scenarios, assets, spec in self.panels:
            mu = rng.uniform(-0.1, 0.1, assets)
            vol = rng.uniform(0.8, 1.25, assets)
            load = rng.uniform(0.3, 0.6, assets)
            factor = rng.standard_normal(scenarios)
            losses = mu + vol * (load * factor[:, None] + rng.standard_t(5, (scenarios, assets)))
            out.append((spec, losses, np.full(scenarios, 1.0 / scenarios)))
        return out

    def setup(self, dr, raw):
        specs = {name: dr.make_builtin_divergence(name) for name, _, _ in raw}
        panels = [dr.AssetPanel(losses=losses, probs=probs) for _, losses, probs in raw]
        return specs, panels

    def round_ops(self, dr, raw, state, tracer, workdir):
        specs, panels = state
        ops = []
        for (name, losses, probs), panel in zip(raw, panels):
            m = losses.shape[1]
            corners = [np.full(m, 1.0 / m)] + list(np.eye(m))
            baseline = min(ref.risk_reference(name, losses @ w, probs, PORTFOLIO_BETA) for w in corners)
            spec = _traced(tracer, specs[name])

            def call(panel=panel, spec=spec):
                return dr.portfolio.minimize_portfolio_risk(panel, spec, PORTFOLIO_BETA, **PORTFOLIO_BUDGET)

            def check(sol, name=name, losses=losses, probs=probs, baseline=baseline):
                return ref.check_portfolio(sol, losses, probs, name, PORTFOLIO_BETA, baseline)

            def observe(sol, panel=panel, name=name):
                obs = {"iterations": sol.iterations, "converged": float(sol.converged)}
                if tracer is not None:
                    with tracer.paused():
                        obs["fw_gap"] = frank_wolfe_gap(dr, panel, specs[name], sol.weights)
                return obs

            ops.append(Op(f"{losses.shape[0]}x{m}/{name}", call, check, observe))
        return ops, {
            "panels": [f"{losses.shape[0]}x{losses.shape[1]}/{name}" for name, losses, _ in raw],
            "beta": PORTFOLIO_BETA,
            "budget": PORTFOLIO_BUDGET,
        }


def frank_wolfe_gap(dr, panel, spec, weights):
    """<g, w> - min_i g_i with g_i = E X_i Z*, Z* from solve_dual at w."""
    z = dr.dual.solve_dual(panel.portfolio_dist(weights), spec, PORTFOLIO_BETA).z
    g = panel.losses.T @ (panel.probs * z)
    return float(g @ np.asarray(weights) - g.min())


WORKLOADS = {w.name: w for w in (PrimalLarge, CliMixed, PortfolioSmall)}
