"""Spans and counts recorded from outside divrisk, and the per-layer metrics.

`Tracer.install` replaces the public module attributes that divrisk's own
callers look up at call time (for example `divrisk.norms.evaluate_primal` or
`divrisk.dual.solve_characterizing_equations`) with wrappers that open a
span; `Tracer.trace_spec` does the same for a spec's psi, psi' and phi
through `dataclasses.replace`.  A span is (name, start, end, parent, op id)
plus one count -- array elements for a divergence call, rows for a batch
evaluation -- that goes to the innermost span, which is the span being
opened.  Spans live in flat arrays and are written once, at the end.

A span's self time is its duration minus that of its child spans; calls are
sequential, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import statistics
from array import array
from time import perf_counter

import numpy as np


def _elems(x, *rest):
    return float(np.size(x))


def _rows(atoms, *rest):
    return float(np.shape(atoms)[0])


# (module, attribute, span name, count); one function may sit under several
# modules that imported it by name, and every copy is wrapped
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("empirical", "from_csv", "empirical.from_csv", None),
    ("risk", "evaluate_primal", "risk.evaluate_primal", None),
    ("norms", "evaluate_primal", "risk.evaluate_primal", None),
    ("portfolio", "evaluate_primal", "risk.evaluate_primal", None),
    ("risk", "evaluate_primal_batch", "risk.evaluate_primal_batch", _rows),
    ("portfolio", "evaluate_primal_batch", "risk.evaluate_primal_batch", _rows),
    ("risk", "solve_characterizing_equations", "risk.solve_characterizing_equations", None),
    ("dual", "solve_characterizing_equations", "risk.solve_characterizing_equations", None),
    ("dual", "solve_dual", "dual.solve_dual", None),
    ("dual", "optimal_density", "dual.optimal_density", None),
    ("norms", "norm_report", "norms.norm_report", None),
    ("norms", "phi_beta_norm", "norms.phi_beta_norm", None),
    ("norms", "luxemburg_norm", "norms.luxemburg_norm", None),
    ("norms", "orlicz_norm", "norms.orlicz_norm", None),
    ("norms", "dual_norm", "norms.dual_norm", None),
    ("norms", "truncation_level", "norms.truncation_level", None),
    ("portfolio", "minimize_portfolio_risk", "portfolio.minimize_portfolio_risk", None),
    ("portfolio", "_exchange_polish", "portfolio.polish", None),
)

# outcome flags read off a result, averaged into a *_frac metric
NOTES = {
    "risk.evaluate_primal": ("risk.unattained", lambda ev: float(not ev.attained)),
    "dual.solve_dual": ("dual.fallback", lambda sol: float(sol.source != "characterizing-equations")),
}


class Tracer:
    def __init__(self):
        self.names, self._ids = [], {}
        self.name, self.parent, self.op = array("i"), array("i"), array("i")
        self.start, self.end, self.count = array("d"), array("d"), array("d")
        self.notes = {}
        self.op_id = -1
        self._stack = [-1]
        self._active = True
        self._saved = []

    def _id(self, span):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, fn, span, count=None):
        nid = self._id(span)
        note_key, note_fn = NOTES.get(span, (None, None))

        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.count.append(count(*args) if count else 0.0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.start[idx], self.end[idx] = start, end
            if note_key:
                self.notes.setdefault(note_key, []).append(note_fn(result))
            return result

        return traced

    def trace_spec(self, spec):
        return dataclasses.replace(
            spec,
            psi=self.wrap(spec.psi, "divergence.psi", _elems),
            psi_prime=self.wrap(spec.psi_prime, "divergence.psi_prime", _elems),
            phi=self.wrap(spec.phi, "divergence.phi", _elems),
        )

    def install(self):
        for mod_name, attr, span, count in WRAPPED:
            module = importlib.import_module(f"divrisk.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span, count))
        divergence = importlib.import_module("divrisk.divergence")
        make = divergence.make_builtin_divergence
        self._saved.append((divergence, "make_builtin_divergence", make))
        divergence.make_builtin_divergence = self.wrap(
            lambda name: self.trace_spec(make(name)), "divergence.make_builtin_divergence")

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def columns(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "count": np.frombuffer(self.count),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.columns())


def layer_metrics(tracer, n_ops, observations):
    """Per-layer metrics, per operation unless the name says otherwise.

    `observations` holds one dict per op: its latency ("ms") plus what the
    workload read off the result (command, output size, gaps, iterations).
    """
    col = tracer.columns()
    name, parent, count = col["name"], col["parent"], col["count"]
    dur = col["end"] - col["start"]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
    ids = tracer._ids

    def mask(span, under=None):
        m = name == ids.get(span, -2)
        return m if under is None else m & (parent_name == ids.get(under, -2))

    def calls(span, under=None):
        return int(mask(span, under).sum())

    def per_op(value):
        return float(value) / n_ops

    def self_ms(*spans):
        return per_op(sum(self_time[mask(s)].sum() for s in spans) * 1e3)

    def ratio(a, b):
        return float(a) / b if b else 0.0

    def notes(key):
        vals = tracer.notes.get(key, [])
        return ratio(sum(vals), len(vals))

    def observed(key, agg):
        vals = [o[key] for o in observations if key in o]
        return float(agg(vals)) if vals else 0.0

    out = {}
    div = ("divergence.psi_prime", "divergence.psi", "divergence.phi")
    for span in div:
        out[f"{span}.calls"] = per_op(calls(span))
        out[f"{span}.elems"] = per_op(count[mask(span)].sum())
    out["divergence.bytes_computed_mb"] = per_op(sum(count[mask(s)].sum() for s in div) * 16 / 1e6)
    out["divergence.self_ms"] = self_ms(*div)

    ep, batch, sce = "risk.evaluate_primal", "risk.evaluate_primal_batch", "risk.solve_characterizing_equations"
    out[f"{ep}.calls"] = per_op(calls(ep))
    out[f"{ep}.self_ms"] = self_ms(ep)
    out[f"{batch}.calls"] = per_op(calls(batch))
    out[f"{batch}.rows"] = per_op(count[mask(batch)].sum())
    out[f"{batch}.self_ms"] = self_ms(batch)
    out[f"{sce}.calls"] = per_op(calls(sce))
    out[f"{sce}.self_ms"] = self_ms(sce)
    probes = calls("divergence.psi", under=ep)
    out["risk.outer_probes_per_eval"] = ratio(probes, calls(ep))
    out["risk.inner_iters_per_probe"] = ratio(calls("divergence.psi_prime", under=ep), probes)
    out["risk.unattained_frac"] = notes("risk.unattained")

    out["dual.solve_dual.calls"] = per_op(calls("dual.solve_dual"))
    out["dual.solve_dual.self_ms"] = self_ms("dual.solve_dual")
    out["dual.fallback_frac"] = notes("dual.fallback")
    out["dual.optimal_density.calls"] = per_op(calls("dual.optimal_density"))
    out["dual.duality_gap_max"] = observed("duality_gap", max)

    for fn in ("phi_beta_norm", "luxemburg_norm", "orlicz_norm", "dual_norm"):
        out[f"norms.{fn}.self_ms"] = self_ms(f"norms.{fn}")
    out["norms.truncation_level.calls"] = per_op(calls("norms.truncation_level"))

    mpr = "portfolio.minimize_portfolio_risk"
    iterations = observed("iterations", sum)
    out[f"{mpr}.self_ms"] = self_ms(mpr)
    out["portfolio.iterations"] = per_op(iterations)
    out["portfolio.converged_frac"] = observed("converged", statistics.fmean)
    out["portfolio.step_ms"] = ratio(dur[mask(ep, under=mpr)].sum() * 1e3, iterations)
    out["portfolio.polish_ms"] = per_op(dur[mask("portfolio.polish")].sum() * 1e3)
    out["portfolio.polish_rows"] = per_op(count[mask(batch, under="portfolio.polish")].sum())
    out["portfolio.fw_gap_max"] = observed("fw_gap", max)

    out["empirical.from_csv.calls"] = per_op(calls("empirical.from_csv"))
    out["empirical.from_csv.self_ms"] = self_ms("empirical.from_csv")
    out["cli.main.calls"] = per_op(calls("cli.main"))
    out["cli.main.self_ms"] = self_ms("cli.main")
    for command in ("risk", "dual", "norm", "dualnorm", "avar"):
        lat = [o["ms"] for o in observations if o.get("command") == command]
        out[f"cli.{command}.p50_ms"] = statistics.median(lat) if lat else 0.0
    out["cli.output_kb"] = observed("output_kb", statistics.fmean)
    return out
