"""Benchmark for npghm: three serial training workloads measured end to end,
and a separate traced run that breaks the time down by layer.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md``.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# The benchmark pins BLAS to one thread: dense solves write different last
# bits at different thread counts, so output digests are only comparable at a
# fixed count.
BLAS_THREADS = "1"
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}


def use_checkout_source() -> None:
    """Import npghm from this checkout's ``src``, never from site-packages."""
    if not (SRC / "npghm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no npghm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
