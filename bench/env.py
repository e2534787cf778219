"""Process set-up shared by the benchmark's entry points.

Call :func:`prepare` before numpy is imported: it caps BLAS threads at the
number of usable cores, leaves ``FRACLAG_THREADS`` unset, and puts the
package source on the path of this process and of every child it starts.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
SPEC = ROOT / "BENCHMARK.json"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Exit with an error unless the package source is present; then set
    the environment every workload runs in."""
    if not (SRC / "fraclag" / "__init__.py").is_file():
        raise SystemExit(f"error: no fraclag package under {SRC}; run from a full checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    os.environ.pop("FRACLAG_THREADS", None)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
