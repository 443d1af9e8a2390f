"""The modules that ``import divrisk`` and ``import divrisk.cli`` load.

Each import runs in a fresh interpreter, as the benchmark's setup probe
times it.  Beyond numpy, ``import divrisk`` loads its own modules and three
small ones of the standard library, and no logging: the risk core looks the
logger up only in a program that has imported logging.  Nor does it load
``divrisk.threshold``, which the first chi2 or power:p evaluation loads.
The CLI adds what argparse, json and logging load, and nothing else.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import divrisk

SRC = str(Path(divrisk.__file__).resolve().parents[1])
PACKAGE_EXTRAS = {"__future__", "copy", "dataclasses"}


def _added(before: str, after: str) -> set:
    """Modules a fresh interpreter loads for ``after`` once ``before`` ran."""
    code = (
        f"import sys\n{before}\nloaded = set(sys.modules)\n{after}\n"
        "added = sorted(set(sys.modules) - loaded)\nimport json\nprint(json.dumps(added))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return set(json.loads(out.stdout))


def test_package_import_loads_no_logging():
    added = _added("import numpy", "import divrisk")
    assert "logging" not in added and "divrisk.threshold" not in added
    assert {m for m in added if m.split(".")[0] != "divrisk"} <= PACKAGE_EXTRAS, added


def test_cli_adds_only_argparse_json_and_logging():
    added = _added("import divrisk", "import divrisk.cli") - {"divrisk.cli"}
    allowed = _added("import divrisk", "import argparse, json, logging")
    assert {"argparse", "json", "logging"} <= added
    assert added <= allowed, added - allowed
