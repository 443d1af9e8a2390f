"""Run every workload untraced over several seeds and traced once, print all
metrics with their units, and write bench/BENCH_<label>.json.

    python3 bench/report.py --label baseline --seeds 1,2,3,4,5,6,7,8,9,10

For each end-to-end metric the table gives the median over the seeds and the
spread, (q3 - q1) / median with the quartiles of statistics.quantiles(n=4),
the figure the bound in BENCHMARK.json is compared with.  The traced run
uses the first seed; the tracing overhead is the relative drop of its
ops_per_s against the untraced run of that seed.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# which end-to-end metric each layer's metrics should move, and on which
# workload; written beside the baseline so later changes can cite it
LAYER_MAP = [
    {"layer": "divergence",
     "metrics": ["divergence.{psi_prime,psi,phi}.{calls,elems}", "divergence.bytes_computed_mb",
                 "divergence.self_ms"],
     "moves": ["op_p50_ms"], "on": ["primal-large (elems)", "cli-mixed (calls)"]},
    {"layer": "risk",
     "metrics": ["risk.evaluate_primal.{calls,self_ms}", "risk.evaluate_primal_batch.{calls,rows,self_ms}",
                 "risk.solve_characterizing_equations.{calls,self_ms}", "risk.outer_probes_per_eval",
                 "risk.inner_iters_per_probe", "risk.unattained_frac"],
     "moves": ["op_p50_ms", "ops_per_s"], "on": ["primal-large", "cli-mixed", "portfolio-small"]},
    {"layer": "dual",
     "metrics": ["dual.solve_dual.{calls,self_ms}", "dual.fallback_frac", "dual.optimal_density.calls",
                 "dual.duality_gap_max"],
     "moves": ["op_p90_ms"], "on": ["cli-mixed"], "unchanged_on": ["primal-large"]},
    {"layer": "norms",
     "metrics": ["norms.{phi_beta_norm,luxemburg_norm,orlicz_norm,dual_norm}.self_ms",
                 "norms.truncation_level.calls"],
     "moves": ["ops_per_s"], "on": ["cli-mixed"]},
    {"layer": "portfolio",
     "metrics": ["portfolio.minimize_portfolio_risk.self_ms", "portfolio.iterations", "portfolio.converged_frac",
                 "portfolio.step_ms", "portfolio.polish_ms", "portfolio.polish_rows", "portfolio.fw_gap_max"],
     "moves": ["op_p50_ms"], "on": ["portfolio-small"]},
    {"layer": "empirical, cli",
     "metrics": ["empirical.from_csv.{calls,self_ms}", "cli.main.{calls,self_ms}",
                 "cli.{risk,dual,norm,dualnorm,avar}.p50_ms", "cli.output_kb"],
     "moves": ["op_p50_ms"], "on": ["cli-mixed"]},
]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    found = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
             for line in lines if line.startswith(("inputs ", "all-metrics "))}
    return {"result": json.loads(lines[-1]), "inputs": found["inputs"], "all": found["all-metrics"]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine():
    import numpy

    model = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"cpus": os.cpu_count(), "cpu": model, "python": platform.python_version(), "numpy": numpy.__version__}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="local")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(op_p90_ms="ms", failed_frac="ratio")
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    report = {"label": args.label, "machine": machine(), "run_seconds": args.seconds, "seeds": seeds,
              "layer_map": LAYER_MAP, "workloads": {}}
    for workload in args.workloads.split(","):
        # the traced run follows the untraced run of its seed, so that the
        # overhead compares two runs close in time on a drifting machine
        untraced = [run(workload, seeds[0], args.seconds, 0)]
        traced = run(workload, seeds[0], args.seconds, 1)
        untraced += [run(workload, seed, args.seconds, 0) for seed in seeds[1:]]
        e2e = {}
        for name in untraced[0]["all"]:
            values = [r["all"].get(name) for r in untraced]
            if None in values:
                continue
            e2e[name] = {"unit": units[name], "median": statistics.median(values), "values": values}
            if len(values) >= 2 and e2e[name]["median"]:
                e2e[name]["spread"] = spread(values)
        fast, slow = untraced[0]["all"]["ops_per_s"], traced["all"]["trace.ops_per_s"]
        report["workloads"][workload] = {
            "why": whys.get(workload, ""),
            "inputs": untraced[0]["inputs"],
            "attempted": [r["result"]["attempted"] for r in untraced],
            "failed": [r["result"]["failed"] for r in untraced],
            "end_to_end": e2e,
            "per_layer": {k: {"unit": units[k], "value": v} for k, v in traced["all"].items()},
            "trace_overhead_pct": 100.0 * (fast - slow) / fast,
        }

        print(f"== {workload}: seeds {seeds}, {sum(report['workloads'][workload]['attempted'])} ops, "
              f"{sum(report['workloads'][workload]['failed'])} failed")
        print(f"   inputs {json.dumps(untraced[0]['inputs'], sort_keys=True)}")
        for name, m in e2e.items():
            extra = f"  spread {m['spread']:.3f}" if "spread" in m else ""
            print(f"   {name:<44} {m['median']:>14.6g} {m['unit']:<6}{extra}")
        for name, m in report["workloads"][workload]["per_layer"].items():
            print(f"   {name:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"   {'trace_overhead_pct':<44} {report['workloads'][workload]['trace_overhead_pct']:>14.3g} %")
        sys.stdout.flush()

    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
