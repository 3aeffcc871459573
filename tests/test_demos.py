"""Every demo script runs to completion (exit 0) as its own process, and the
README's library example runs as written."""
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert block, "README has no Library use python block"
    proc = run_python(["-c", block.group(1)])
    assert proc.returncode == 0, proc.stderr
    gap = float(proc.stdout)  # the final gap J* - J(theta_T) it prints
    assert math.isfinite(gap) and gap >= 0.0
