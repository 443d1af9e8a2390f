"""Command-line front-end.

Commands map onto the library modules: risk, dual, norm, dualnorm, avar
(sample CSV input) and portfolio (panel CSV input).  Reports are emitted as
JSON (floats rendered with 17 significant digits so golden files are stable)
or as plain text.  Exit codes: 0 success, 2 validation/parse failures,
3 numeric failures.  Set DIVRISK_LOG=debug for verbose logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import divergence, dual, empirical, norms, portfolio, risk
from .errors import (
    DataError,
    DivriskError,
    InvalidParameterError,
    NumericsError,
)

COMMANDS = ("risk", "dual", "norm", "dualnorm", "avar", "portfolio")
_NEEDS_DIVERGENCE = ("risk", "dual", "norm", "dualnorm", "portfolio")

log = logging.getLogger("divrisk.cli")


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str
    divergence: Optional[str] = None
    beta: Optional[float] = None
    alpha: Optional[float] = None
    output: str = "json"
    tol: Optional[float] = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InvalidParameterError(f"unknown command {self.command!r}")
        if self.output not in ("json", "text"):
            raise InvalidParameterError(f"output must be 'json' or 'text', got {self.output!r}")
        if self.command in _NEEDS_DIVERGENCE:
            if self.divergence is None:
                raise InvalidParameterError(f"command {self.command!r} requires --divergence")
            if self.beta is None:
                raise InvalidParameterError(f"command {self.command!r} requires --beta")
        if self.beta is not None and self.beta <= 0:
            raise InvalidParameterError("beta must be positive")
        if self.command == "avar" and self.alpha is None:
            raise InvalidParameterError("command 'avar' requires --alpha")
        if self.alpha is not None and not 0 <= self.alpha < 1:
            raise InvalidParameterError("alpha must lie in [0, 1)")


def _format_float(x: float) -> str:
    s = format(float(x), ".17g")
    if not any(ch in s for ch in ".eE") and s.lstrip("+-").isdigit():
        s += ".0"
    return s


def _to_json(obj, indent=0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_to_json(v, indent) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _to_text(report: dict) -> str:
    lines = []
    for key, val in report.items():
        if isinstance(val, (list, tuple, np.ndarray)):
            val = "[" + ", ".join(_format_float(v) for v in val) + "]"
        elif isinstance(val, float):
            val = _format_float(val)
        lines.append(f"{key}: {val}")
    return "\n".join(lines)


def _report_risk(config, spec, dist) -> dict:
    ev = risk.evaluate_primal(dist, spec, config.beta)
    ab = risk.alpha_bar(spec, config.beta)
    return {
        "command": "risk",
        "divergence": spec.name,
        "beta": config.beta,
        "value": ev.value,
        "t_star": ev.t_star,
        "mu_star": ev.mu_star,
        "attained": ev.attained,
        "residuals": list(ev.residuals) if ev.residuals is not None else None,
        "alpha_bar": ab,
        "avar_at_alpha_bar": dist.avar(ab),
        "mean": dist.mean,
        "esssup": dist.esssup,
    }


def _report_dual(config, spec, dist) -> dict:
    # one run of the core gives both sides of the duality gap
    ev = risk.evaluate_primal(dist, spec, config.beta)
    sol = dual._dual_of_evaluation(dist, spec, config.beta, ev)
    gap = abs(sol.objective - ev.value)
    tol = config.tol if config.tol is not None else 1e-5
    if gap > tol:
        log.warning("duality gap %.3e exceeds tolerance %.1e", gap, tol)
    return {
        "command": "dual",
        "divergence": spec.name,
        "beta": config.beta,
        "objective": sol.objective,
        "z": list(sol.z),
        "mean_slack": sol.mean_slack,
        "divergence_slack": sol.divergence_slack,
        "source": sol.source,
        "duality_gap": gap,
    }


def _report_norm(config, spec, dist) -> dict:
    rep = norms.norm_report(dist, spec, config.beta)
    return {
        "command": "norm",
        "divergence": spec.name,
        "beta": config.beta,
        "phi_beta_norm": rep.phi_beta_norm,
        "luxemburg": rep.luxemburg,
        "orlicz": rep.orlicz,
        "dual_norm": rep.dual_norm,
    }


def _report_dualnorm(config, spec, dist) -> dict:
    value = norms.dual_norm(dist, spec, config.beta)
    return {
        "command": "dualnorm",
        "divergence": spec.name,
        "beta": config.beta,
        "dual_norm": value,
        "mean_abs": dual._expectation(dist.probs, np.abs(dist.atoms)),
    }


def _report_avar(config, dist) -> dict:
    return {
        "command": "avar",
        "alpha": config.alpha,
        "value": dist.avar(config.alpha),
    }


def _report_portfolio(config, spec, panel) -> dict:
    sol = portfolio.minimize_portfolio_risk(panel, spec, config.beta)
    return {
        "command": "portfolio",
        "divergence": spec.name,
        "beta": config.beta,
        "weights": list(sol.weights),
        "risk": sol.risk,
        "t_star": sol.t_star,
        "mu_star": sol.mu_star,
        "iterations": sol.iterations,
        "converged": sol.converged,
    }


def run(config: RunConfig):
    """Execute one command; returns (exit_status, serialized_report)."""
    spec = None
    if config.command in _NEEDS_DIVERGENCE:
        spec = divergence.make_builtin_divergence(config.divergence)
    if config.command == "portfolio":
        panel = portfolio.panel_from_csv(config.input_path)
        report = _report_portfolio(config, spec, panel)
    else:
        dist = empirical.from_csv(config.input_path)
        if config.command == "risk":
            report = _report_risk(config, spec, dist)
        elif config.command == "dual":
            report = _report_dual(config, spec, dist)
        elif config.command == "norm":
            report = _report_norm(config, spec, dist)
        elif config.command == "dualnorm":
            report = _report_dualnorm(config, spec, dist)
        else:
            report = _report_avar(config, dist)
    text = _to_json(report) if config.output == "json" else _to_text(report)
    return 0, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divrisk",
        description="Divergence risk measures, duals, norms and portfolios on empirical data.",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--divergence", help="kl | chi2 | power:<p>")
    parser.add_argument("--beta", type=float, help="risk aversion radius (> 0)")
    parser.add_argument("--alpha", type=float, help="tail level in [0, 1) for avar")
    parser.add_argument("--input", required=True, dest="input_path", help="CSV input path")
    parser.add_argument("--output", default="json", choices=("json", "text"))
    parser.add_argument("--tol", type=float, default=None, help="override diagnostic tolerance")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("DIVRISK_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            input_path=args.input_path,
            divergence=args.divergence,
            beta=args.beta,
            alpha=args.alpha,
            output=args.output,
            tol=args.tol,
        )
        status, text = run(config)
    except (DataError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except DivriskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    print(text)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
