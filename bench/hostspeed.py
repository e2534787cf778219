"""Host-speed probes that put a run's timings on a common scale.

The shared 2-vCPU host the benchmark was tuned on changes speed by up to
1.7x for seconds to minutes at a time, so whole runs land in slow or fast
stretches and their raw call times spread by up to 30% from run to run.  A
workload therefore times a probe before each of its untraced calls: work of
the same kind as the call that the package does not do.  ``run.scaled``
multiplies each call time by the probe's reference time over the probe's
times nearest the call, so the timings read as times on that host at its
reference speed.

Each reference is a round figure near the probe's median on that host.  It
only fixes the scale: a run compares with another through the same
constant.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import env


class Probe(NamedTuple):
    name: str
    reference_s: float
    work: Callable[[], object]

    def __call__(self) -> float:
        """Wall time of one run of the probe's work."""
        t0 = perf_counter()
        self.work()
        return perf_counter() - t0


def _numpy_work() -> Callable[[], None]:
    """Elementwise passes over 8 MB vectors, as a diagonal shifted solve.
    They write into a preallocated vector: with temporaries, the time would
    depend on the allocator's state, which the calls before it leave."""
    x = np.logspace(0.0, 16.0, 10**6)
    one = np.ones_like(x)
    y = np.empty_like(x)

    def work():
        for k in range(20):
            np.multiply(x, 0.37 + k, out=y)
            np.add(y, 1.0, out=y)
            np.divide(one, y, out=y)

    return work


def _lapack_work() -> Callable[[], None]:
    """Cholesky factorizations of an 800x800 SPD matrix, as a dense solve."""
    z = np.random.default_rng(0).standard_normal((800, 800))
    a = z @ z.T + 800.0 * np.eye(800)

    def work():
        for _ in range(4):
            np.linalg.cholesky(a)

    return work


def _python_work() -> None:
    """Interpreter bytecode, as planning and per-call overhead."""
    s = 0
    for i in range(50_000):
        s += i * i


def _spawn_work() -> None:
    """A fresh interpreter that imports numpy, as a CLI process."""
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=env.ROOT,
                   stdin=subprocess.DEVNULL, check=True)


def spawn_probe() -> Probe:
    return Probe("spawn", 0.175, _spawn_work)


def probe_for(workload: str) -> Probe:
    """The probe matched to the calls of ``workload``."""
    if workload == "diag-1m":
        return Probe("numpy", 0.050, _numpy_work())
    if workload == "dense-800":
        return Probe("lapack", 0.060, _lapack_work())
    if workload == "param-sweep":
        return Probe("python", 0.005, _python_work)
    if workload == "cli-oneshot":
        return spawn_probe()
    raise ValueError(f"no probe for workload {workload!r}")
