"""Every demo script runs to completion (exit 0) as its own process and prints
the pinned stdout, and the README's library example runs as written.

Each demo runs in a child with BLAS on one thread, as the golden cases do,
and its stdout is compared by sha256 with DEMO_DIGESTS. A change that is
meant to alter a demo's output re-pins them with `PYTHONPATH=src python
tests/test_demos.py`, which prints the DEMO_DIGESTS table for the current
code.
"""
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

DEMO_DIGESTS = {
    'estimator_checks': 'a7433134a443e06d0686e12b0c159f8951c8bce526e541b9c0aa11cb3ee07059',
    'momentum_variance': '7d9f3549dc23ca30d610f02af64f6a56224c2e54949ad7cd816fb7dc6f55fee3',
    'oracle_tour': '92ddf595e8630f9f8c5562c3dccac06efebd097c5de9f372155bd5a2673aab49',
    'pointmass_gaussian': 'c7017606ea4f2b3cd1dc79224f8e6291990375b670c69ffeaf6d12d211cf2186',
    'subproblem_solvers': 'a294280a51f4d3cc10c5ae7a03f6e7c82d28c29d545a4a90ad40b183330fe264',
}


def run_python(args):
    env = {**os.environ, **BLAS_ONE_THREAD}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def stdout_digest(proc) -> str:
    return hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert stdout_digest(proc) == DEMO_DIGESTS.get(demo.stem), proc.stdout


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert block, "README has no Library use python block"
    proc = run_python(["-c", block.group(1)])
    assert proc.returncode == 0, proc.stderr
    gap = float(proc.stdout)  # the final gap J* - J(theta_T) it prints
    assert math.isfinite(gap) and gap >= 0.0


if __name__ == "__main__":
    print("DEMO_DIGESTS = {")
    for demo in DEMOS:
        proc = run_python([str(demo)])
        if proc.returncode != 0:
            sys.exit(f"{demo.name} exited {proc.returncode}:\n{proc.stderr}")
        print(f"    {demo.stem!r}: {stdout_digest(proc)!r},")
    print("}")
