"""Per-layer measurements of the traced run that are not spans of the
workload loop: micro-timings of planning and estimate calls, cold rule
builds in a fresh process, the oracle, file I/O and CLI imports.

Layers a workload runs are probed with that workload's own calls.  The
``integrands``, ``oracle``, ``io`` and ``cli`` layers are only loaded by
``cli-oneshot``, so every workload probes them with cli-oneshot's inputs.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import timeit
from pathlib import Path
from time import perf_counter

import numpy as np

from fraclag import (
    error_sweep,
    eps1,
    f1,
    gauss_laguerre,
    io,
    make_plan,
    mode_counts,
    node_system,
    plan_for_tolerance,
)

import cli_calls
import env
from workloads import PAPER, PAPER_N, Call, Inputs, advertised_error

IMPORT_PROBES = 3
ORACLE_POINTS = 4
_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def node_systems(call: Call, n: int) -> list:
    """The call's shifted systems in solve order, from the public API."""
    sizes, counts = mode_counts(n, call.p, call.mode)
    systems = []
    for size, count, which in zip(sizes, counts, ("first", "second")):
        rule = gauss_laguerre(size)
        systems.extend(
            node_system(rule.nodes[j], rule.weights[j], which, call.p) for j in range(count)
        )
    return systems


def micro_s(fn, number: int = 50, repeat: int = 5) -> float:
    """Median over ``repeat`` batches of the per-call time of ``fn()``."""
    return statistics.median(t / number for t in timeit.repeat(fn, number=number, repeat=repeat))


def child(*args: str) -> dict:
    """Run ``bench/child.py`` in a fresh interpreter; return its JSON."""
    done = subprocess.run(
        [sys.executable, str(env.BENCH / "child.py"), *args],
        cwd=env.ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {args} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def planning(sized: list[tuple[Call, int]]) -> dict[str, float]:
    """Layers below ``apply_resolvent``, probed with the workload's calls at
    the rule sizes they ran at."""
    points = sorted({(call.p, n) for call, n in sized}, key=repr)
    tols = sorted({advertised_error(call, n) if call.tol is None else call.tol
                   for call, n in sized})
    params = sorted({call.p for call, _ in sized}, key=repr)
    sizes = sorted({size for call, n in sized for size in mode_counts(n, call.p, call.mode)[0]})
    cold = child("rules", *map(str, sizes))["rule_build_s"]
    return {
        "laguerre.rule_build_ms": 1e3 * sum(cold.values()),
        "estimates.eps1_us": 1e6 * statistics.median(
            micro_s(lambda: eps1(n, p), number=500) for p, n in points),
        "planner.plan_us": 1e6 * statistics.median(
            micro_s(lambda: make_plan(n, p), number=200) for p, n in points),
        "planner.tol_plan_ms": 1e3 * statistics.median(
            micro_s(lambda: plan_for_tolerance(tol, p), number=5, repeat=3)
            for p in params for tol in tols),
        "operators.node_systems_us": 1e6 * statistics.median(
            micro_s(lambda: node_systems(call, n), number=20) for call, n in sized),
    }


def _importtime() -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fraclag"],
        cwd=env.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    cumulative = {}
    for line in done.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            cumulative.setdefault(match.group(2), 1e-6 * int(match.group(1)))
    return cumulative


def front_end(cli_inputs: Inputs, workdir: Path, process_s: list[float] | None) -> dict[str, float]:
    """``integrands``, ``oracle``, ``io`` and ``cli`` on cli-oneshot's inputs.

    ``process_s`` are measured CLI process times; when ``None``, one process
    of each cli-oneshot command is run here.
    """
    vec = workdir / "probe_vec.txt"
    io.write_vector(vec, cli_inputs.b)
    grid = np.logspace(0.0, 16.0, ORACLE_POINTS)
    t0 = perf_counter()
    error_sweep(PAPER, PAPER_N, grid)
    sweep_s = perf_counter() - t0
    imports = [_importtime() for _ in range(IMPORT_PROBES)]
    import_s = statistics.median(m["fraclag"] for m in imports)
    if process_s is None:
        files = cli_calls.write_inputs(cli_inputs, workdir)
        process_s = [cli_calls.run(command, files).seconds for command in cli_inputs.commands]
    return {
        "integrands.f1_call_us": 1e6 * micro_s(lambda: f1(1.0, 100.0, PAPER), number=2000),
        "oracle.sweep_ms_per_point": 1e3 * sweep_s / ORACLE_POINTS,
        "io.read_ms": 1e3 * micro_s(lambda: io.read_vector(vec), number=20),
        "io.write_ms": 1e3 * micro_s(lambda: io.write_vector(vec, cli_inputs.b), number=20),
        "cli.import_s": import_s,
        "cli.import_scipy_integrate_s": statistics.median(m["scipy.integrate"] for m in imports),
        "cli.import_scipy_linalg_s": statistics.median(m["scipy.linalg"] for m in imports),
        "cli.run_ms": 1e3 * (statistics.median(process_s) - import_s),
    }
