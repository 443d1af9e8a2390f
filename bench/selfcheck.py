"""The benchmark's own checks.

    python3 bench/selfcheck.py

1. Every workload's output check passes the program's real results and fails
   them once shifted by 1e-3 (primal-large runs at n = 2000 here).
2. Machine-independent per-layer metrics (everything not in ms or 1/s)
   repeat exactly across two traced runs of one seed, also when the runs
   complete different numbers of rounds.
3. Without the divrisk sources the benchmark exits non-zero and prints no
   result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SHIFT = 1e-3
# the field of each CLI report that carries the answer
CLI_ANSWER = {"risk": "value", "dual": "objective", "norm": "phi_beta_norm", "dualnorm": "mean_abs", "avar": "value"}


def shifted(result):
    if isinstance(result, tuple):  # (exit status, CLI stdout)
        status, text = result
        report = json.loads(text)
        report[CLI_ANSWER[report["command"]]] += SHIFT
        return status, json.dumps(report)
    field = "value" if hasattr(result, "value") else "risk"
    return dataclasses.replace(result, **{field: getattr(result, field) + SHIFT})


def check_wrong_answers(dr):
    from workloads import WORKLOADS, PrimalLarge

    problems = []
    small = PrimalLarge()
    small.n = 2000
    for wl in (small, WORKLOADS["cli-mixed"](), WORKLOADS["portfolio-small"]()):
        raw = wl.generate(1)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            for op in wl.round_ops(dr, raw, wl.setup(dr, raw), None, workdir)[0]:
                result = op.call()
                if op.check(result):
                    problems.append(f"{wl.name} {op.label}: correct result rejected: {op.check(result)}")
                if not op.check(shifted(result)):
                    problems.append(f"{wl.name} {op.label}: result shifted by {SHIFT} accepted")
    return problems


def traced(workload, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def check_counts_repeat():
    problems = []
    for workload, seconds in (("primal-large", (1, 1)), ("cli-mixed", (1, 3)), ("portfolio-small", (1, 1))):
        first, second = (traced(workload, s) for s in seconds)
        for name, m in first.items():
            if m["unit"] not in ("ms", "1/s") and m["value"] != second[name]["value"]:
                problems.append(f"{workload} {name}: {m['value']!r} then {second[name]['value']!r}")
    return problems


def check_fails_without_program():
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run([*command, "--workload", "cli-mixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=tmp, timeout=180, check=False)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"stripped checkout: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main():
    sys.path.insert(0, str(HERE))
    from run import import_divrisk

    dr = import_divrisk()
    OUT_DIR.mkdir(exist_ok=True)
    failed = False
    for name, check in (("wrong answers fail", lambda: check_wrong_answers(dr)),
                        ("counts repeat", check_counts_repeat),
                        ("fails without the program", check_fails_without_program)):
        problems = check()
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {name}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
