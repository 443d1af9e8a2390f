"""Run one benchmark workload against the divrisk sources of this checkout.

    python3 bench/run.py --workload cli-mixed --seed 1 --trace 0

A closed loop with one caller: each operation starts when the previous one
has returned and been checked.  The loop repeats whole rounds of the
workload's mix, as many as bring the run closest to --seconds (at least
one; by default run_seconds of BENCHMARK.json).  With --trace 0 the last
line is the end-to-end metrics; with --trace 1 the public functions are
wrapped in spans and the last line is the per-layer metrics (spans go to
.bench_out/).  The lines before it give the measured input properties and
every metric computed, including op_p90_ms (at >= 100 ops) and failed_frac,
which BENCHMARK.json does not list.  Names and units come from
BENCHMARK.json; bench/report.py prints them as a table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9
P90_MIN_OPS = 100


def import_divrisk():
    """Import divrisk from this checkout's src/, never from elsewhere."""
    if not (SRC / "divrisk" / "__init__.py").is_file():
        raise SystemExit(f"error: no divrisk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import divrisk

    if Path(divrisk.__file__).resolve().parent != SRC / "divrisk":
        raise SystemExit(f"error: imported divrisk from {divrisk.__file__}, not from {SRC}")
    return divrisk


def setup_probe(workload, seed):
    """Child process: time `import divrisk` plus building the program's inputs."""
    t0 = time.perf_counter()
    dr = import_divrisk()
    t1 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    raw = wl.generate(seed)
    t2 = time.perf_counter()
    wl.setup(dr, raw)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def measure_setup(workload, seed):
    """Median over fresh interpreters, so each sample pays the import."""
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def run_loop(ops, seconds, tracer):
    """Whole rounds, as many as bring the run closest to `seconds`; returns
    per-op records and the number of rounds."""
    records = []
    begin = time.perf_counter()
    rounds = 0
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(records)
            error = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception:  # a raising op is counted as failed, and the loop goes on
                error = traceback.format_exc()
            ms = (time.perf_counter() - t0) * 1e3
            if error is None:
                errors = op.check(result)
                obs = op.observe(result)
            else:
                errors, obs = [error], {}
            if errors and sum(1 for r in records if r["errors"]) < 3:
                print(f"FAILED {op.label}: {'; '.join(errors)}", file=sys.stderr)
            records.append({"label": op.label, "ms": ms, "errors": errors, **obs})
        rounds += 1
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return records, rounds


def end_to_end(records, setup_s):
    """ops_per_s is completed operations over the summed time of all
    operations, so the checks between them are left out.  peak_rss_mb is
    the peak of the whole process: divrisk's working set plus the harness
    (interpreter, numpy, the generated inputs and the reference checks)."""
    lat = sorted(r["ms"] for r in records)
    failed = sum(1 for r in records if r["errors"])
    out = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(lat),
        "ops_per_s": (len(records) - failed) / (sum(lat) / 1e3),
        "failed_frac": failed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(lat) >= P90_MIN_OPS:
        out["op_p90_ms"] = statistics.quantiles(lat, n=10)[-1]
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    dr = import_divrisk()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    raw = wl.generate(args.seed)
    state = wl.setup(dr, raw)

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        ops, properties = wl.round_ops(dr, raw, state, tracer, str(workdir))
        if tracer is not None:
            tracer.install()
        try:
            records, rounds = run_loop(ops, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = end_to_end(records, setup_s)
    if tracer is not None:
        metrics = {**layer_metrics(tracer, len(records), records), "trace.ops_per_s": metrics["ops_per_s"]}
        tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    failed = sum(1 for r in records if r["errors"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} ops in {rounds} rounds of {len(ops)}, {failed} failed")
    print("inputs " + json.dumps(properties, sort_keys=True))
    print("all-metrics " + json.dumps({k: v for k, v in metrics.items() if v is not None}))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
