"""fraclag benchmark: four seeded closed-loop workloads with one caller each.

    python3 bench/run.py --workload diag-1m --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that gives the per-layer metrics (see
BENCHMARK.json for both lists).  A run repeats whole cycles of calls for at
least ``--seconds``, and an untraced run for at least MIN_CYCLES cycles.
End-to-end timings are scaled to a reference host speed measured by a
probe timed before each untraced call (see ``hostspeed``).
Every call is checked against an independent reference.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run also
writes ``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json`` with the
recorded environment, and a traced run its spans as JSON lines.
"""

from __future__ import annotations

import env

env.prepare()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from fraclag import mode_counts  # noqa: E402

import cli_calls  # noqa: E402
import probes  # noqa: E402
from hostspeed import Probe, probe_for, spawn_probe  # noqa: E402
from tracing import APPLY, CALL, NO_TRACE, SOLVE, MemoryProbe, TimedOperator, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    NO_RESULT,
    WORKLOADS,
    Inputs,
    Verdict,
    advertised_error,
    execute,
    generate,
    judge,
)

SETUP_RUNS = 5
# Whole cycles an untraced run makes at least: with 11 cycles the tail
# percentile (10 samples beyond it) lies inside the slowest kind of call.
MIN_CYCLES = 11
TRACE_MIN_CYCLES = 4
REPLICA_SECONDS = 1.0
TAIL_BEYOND = 10
MB = 1e6
F64 = 8

UNITS = {
    "setup_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "calls_per_s": "1/s",
    "peak_mb": "MB",
    "err_ratio": "ratio",
    "pass_frac": "ratio",
    "laguerre.rule_build_ms": "ms",
    "estimates.eps1_us": "us",
    "planner.plan_us": "us",
    "planner.tol_plan_ms": "ms",
    "planner.solves_per_call": "count",
    "planner.kept_frac": "ratio",
    "operators.node_systems_us": "us",
    "operators.solve_ms": "ms",
    "operators.solves_per_s": "1/s",
    "operators.bytes_computed_mb": "MB",
    "operators.apply_self_ms": "ms",
    "operators.held_mb": "MB",
    "operators.negligible_solve_frac": "ratio",
    "integrands.f1_call_us": "us",
    "oracle.sweep_ms_per_point": "ms",
    "io.read_ms": "ms",
    "io.write_ms": "ms",
    "cli.import_s": "s",
    "cli.import_scipy_integrate_s": "s",
    "cli.import_scipy_linalg_s": "s",
    "cli.run_ms": "ms",
    "trace.traced_call_p50_ms": "ms",
    "trace.untraced_call_p50_ms": "ms",
}
COMPUTED = ("planner.solves_per_call", "planner.kept_frac", "operators.bytes_computed_mb",
            "operators.negligible_solve_frac")


@dataclass
class Loop:
    """Outcome of a closed loop: latencies and kinds of untraced operations,
    latencies of untraced whole cycles, and every operation's verdict."""

    seconds: list[float] = field(default_factory=list)
    kinds: list = field(default_factory=list)
    cycle_seconds: list[float] = field(default_factory=list)
    probe_seconds: list[float] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    items: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def closed_loop(items, step, seconds: float, min_cycles: int, tracer: Tracer | None = None,
                probe: Probe | None = None, sweep: bool = False) -> Loop:
    """Repeat the cycle ``items`` with one caller.  With a tracer, odd cycles
    are traced and even ones are not, so both see the same conditions.
    ``probe``, if given, is timed before each untraced call: each item, or
    the whole cycle if ``sweep``."""
    loop = Loop()
    start = perf_counter()
    cycle = 0
    while cycle < min_cycles or perf_counter() - start < seconds:
        trace = tracer if tracer is not None and cycle % 2 else NO_TRACE
        probing = probe is not None and trace is NO_TRACE
        if probing and sweep:
            loop.probe_seconds.append(probe())
        busy = 0.0
        for item in items:
            if probing and not sweep:
                loop.probe_seconds.append(probe())
            elapsed, verdict = step(item, trace, loop.errors)
            if trace is NO_TRACE:
                loop.seconds.append(elapsed)
                loop.kinds.append(item)
            busy += elapsed
            loop.verdicts.append(verdict)
            loop.items.append(item)
        if trace is NO_TRACE:
            loop.cycle_seconds.append(busy)
        cycle += 1
    return loop


def inprocess_step(inputs: Inputs, op):
    def step(call, trace, errors):
        target = op if trace is NO_TRACE else TimedOperator(op, trace)
        y = None
        t0 = perf_counter()
        try:
            with trace.call_span():
                y, n = execute(target, inputs.b, call, trace)
        except Exception:  # a failing call is counted, and the loop goes on
            errors.append(traceback.format_exc())
        elapsed = perf_counter() - t0
        return elapsed, NO_RESULT if y is None else judge(inputs, call, y, n)

    return step


class CliStep:
    def __init__(self, files, gate: cli_calls.Gate):
        self.files = files
        self.gate = gate
        self.max_rss = 0

    def __call__(self, command, trace, errors):
        with trace.call_span():
            proc = cli_calls.run(command, self.files)
        self.max_rss = max(self.max_rss, proc.max_rss_bytes)
        if proc.returncode != 0:
            errors.append(self.files["out"].with_suffix(".err").read_text(errors="replace"))
        return proc.seconds, self.gate.check(command, proc, self.files)


@dataclass
class Memory:
    peak_mb: float
    held_mb: float
    negligible_frac: float
    sized: list


def memory_pass(inputs: Inputs, op) -> Memory:
    """One untimed cycle under ``tracemalloc``: traced peak during each
    call above what was allocated before it, memory held when the last
    solve returns, and solves whose scaled contribution, measured like the
    call's error, is below the call's advertised error."""
    probe = MemoryProbe(op, inputs.eigen_coords)
    b_norm = float(np.abs(inputs.eigen_coords(inputs.b)).max())
    peak = held = 0
    negligible = solves = 0
    sized = []
    tracemalloc.start()
    try:
        for call in inputs.calls:
            probe.held.clear()
            probe.norms.clear()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                y, n = execute(probe, inputs.b, call)
            except Exception:  # the timed loop counts the failure
                continue
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            held = max(held, max(probe.held) - base)
            del y
            limit = advertised_error(call, n)
            systems = probes.node_systems(call, n)
            negligible += sum(call.p.prefactor * abs(s.scale) * norm / b_norm < limit
                              for s, norm in zip(systems, probe.norms))
            solves += len(systems)
            sized.append((call, n))
    finally:
        tracemalloc.stop()
    return Memory(peak / MB, held / MB, negligible / max(solves, 1), sized)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    ``(value, percentile, samples beyond)``; the maximum if there are too
    few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def computed_counts(inputs: Inputs, sized: list) -> dict[str, float]:
    """Solves, kept fraction and compulsory array traffic per call, counted
    from sizes, not measured.  A diagonal solve reads b and the diagonal
    and writes y; a dense solve reads A, writes the shifted matrix, factors
    it in place and reads the factor twice; the reduction reads y and the
    accumulator and writes the accumulator; the final scaling reads and
    writes one vector.  Caches are ignored."""
    dim = inputs.dimension
    per_solve = 6 * F64 * dim * dim if inputs.q is not None else 3 * F64 * dim
    solves = nodes = 0
    for call, n in sized:
        sizes, kept = mode_counts(n, call.p, call.mode)
        solves += sum(kept)
        nodes += sum(sizes)
    traffic = solves * (per_solve + 3 * F64 * dim) + len(sized) * 2 * F64 * dim
    return {
        "planner.solves_per_call": solves / len(sized),
        "planner.kept_frac": solves / nodes,
        "operators.bytes_computed_mb": traffic / len(sized) / MB,
    }


def traced_p50_ms(tracer: Tracer) -> float:
    return 1e3 * statistics.median(c[CALL] for c in tracer.per_call().values())


def span_metrics(tracer: Tracer) -> tuple[dict[str, float], float]:
    """Operator metrics from the traced calls, and the median over them of
    solve time plus the self time of ``apply_resolvent``."""
    applied = list(tracer.per_call().values())
    solve_s = [c.get(SOLVE, 0.0) for c in applied]
    apply_self = [c[APPLY + ".self"] for c in applied]
    metrics = {
        "operators.solve_ms": 1e3 * statistics.median(solve_s),
        "operators.solves_per_s": sum(c.get("solves", 0) for c in applied) / sum(solve_s),
        "operators.apply_self_ms": 1e3 * statistics.median(apply_self),
    }
    return metrics, 1e3 * statistics.median(s + a for s, a in zip(solve_s, apply_self))


def environment(inputs: Inputs) -> dict:
    try:
        l3 = (Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip())
    except OSError:
        l3 = None
    return {
        "workload": inputs.name,
        "seed": inputs.seed,
        "nproc": env.NPROC,
        "l3_cache": l3,
        "vector_bytes": F64 * inputs.dimension,
        "blas_threads": {var: os.environ[var] for var in env.BLAS_THREAD_VARS},
        "FRACLAG_THREADS": os.environ.get("FRACLAG_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def load_spec() -> dict:
    with open(env.SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def checked(metrics: dict[str, float], wanted: list[dict]) -> dict[str, dict]:
    """The metrics with their units, in BENCHMARK.json's order; exits if a
    name or unit disagrees with it."""
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    for m in wanted:
        if UNITS[m["name"]] != m["unit"]:
            raise SystemExit(f"error: unit of {m['name']} is {UNITS[m['name']]}, BENCHMARK.json says {m['unit']}")
    return {name: {"value": metrics[name], "unit": UNITS[name]} for name in names}


def kind_median(kinds: list, seconds: list[float]) -> float:
    """Median latency of each kind of call in the cycle, averaged over the
    kinds.  The median of all calls together would sit between two kinds
    when the cycle has an even number of them, and jump with the gap."""
    by_kind: dict = {}
    for kind, elapsed in zip(kinds, seconds):
        by_kind.setdefault(kind, []).append(elapsed)
    return statistics.mean(statistics.median(v) for v in by_kind.values())


def scaled(seconds: list[float], probe_seconds: list[float], reference_s: float) -> list[float]:
    """Each time scaled to the reference host speed: multiplied by the
    probe's reference over the median of the probe timed just before it and
    those timed before its two neighbours.  The host changes speed over
    seconds, so nearby probes follow it better than the run's median."""
    return [t * reference_s / statistics.median(probe_seconds[max(0, i - 1):i + 2])
            for i, t in enumerate(seconds)]


def timings(inputs: Inputs, loop: Loop, setup: list[float], calls: list[float]) -> dict[str, float]:
    value, _, _ = tail(calls)
    return {
        "setup_s": statistics.median(setup),
        "call_p50_ms": 1e3 * (statistics.median(calls) if inputs.sweep else kind_median(loop.kinds, calls)),
        "call_tail_ms": 1e3 * value,
        "calls_per_s": len(calls) / sum(calls),
    }


def end_to_end_metrics(inputs: Inputs, loop: Loop, probe: Probe, setup: list[float],
                       setup_probe: list[float], peak_mb: float, notes: list[str]) -> dict[str, float]:
    """Timings are scaled to the reference host speed: call times by
    ``probe``, timed before each call, and set-up times by the spawn probe,
    timed before each set-up (``setup_probe``).  The raw values go to
    ``notes``."""
    calls = loop.cycle_seconds if inputs.sweep else loop.seconds
    value, pct, beyond = tail(calls)
    notes.append(f"call_tail_ms is p{pct:.2f} of {len(calls)} calls, {beyond} samples beyond it")
    spawn = spawn_probe()
    for name, used, samples in (("set-up", spawn, setup_probe), ("calls", probe, loop.probe_seconds)):
        notes.append(f"{name}: {used.name} probe median {1e3 * statistics.median(samples):.2f} ms"
                     f" over {len(samples)} (reference {1e3 * used.reference_s:.0f} ms)")
    raw = timings(inputs, loop, setup, calls)
    notes.append("raw " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    ratios = [v.ratio for v in loop.verdicts if v.ratio is not None]
    return {
        **timings(inputs, loop, scaled(setup, setup_probe, spawn.reference_s),
                  scaled(calls, loop.probe_seconds, probe.reference_s)),
        "peak_mb": peak_mb,
        "err_ratio": max(ratios) if ratios else None,
        "pass_frac": 1.0 - sum(v.failed for v in loop.verdicts) / len(loop.verdicts),
    }


def per_layer_metrics(inputs: Inputs, loop: Loop, memory: Memory, tracer: Tracer,
                      applied: Tracer, workdir: Path, notes: list[str]) -> dict[str, float]:
    """``tracer`` holds the spans of the workload's calls and ``applied``
    those of in-process calls (the same tracer, except for cli-oneshot)."""
    operator_metrics, accounted_ms = span_metrics(applied)
    traced_p50 = traced_p50_ms(tracer)
    untraced_p50 = 1e3 * statistics.median(loop.seconds)
    cli_inputs = inputs if inputs.commands else generate("cli-oneshot", inputs.seed)
    metrics = {
        **probes.planning(memory.sized),
        **computed_counts(inputs, memory.sized),
        **operator_metrics,
        "operators.held_mb": memory.held_mb,
        "operators.negligible_solve_frac": memory.negligible_frac,
        **probes.front_end(cli_inputs, workdir, loop.seconds if inputs.commands else None),
        "trace.traced_call_p50_ms": traced_p50,
        "trace.untraced_call_p50_ms": untraced_p50,
    }
    notes.append(
        f"accounting over traced apply calls: median solve {metrics['operators.solve_ms']:.3f} ms,"
        f" median apply self {metrics['operators.apply_self_ms']:.3f} ms, median of their sum"
        f" {accounted_ms:.3f} ms, traced call p50 {traced_p50_ms(applied):.3f} ms")
    notes.append(f"tracing overhead: traced call p50 {traced_p50:.3f} ms vs untraced"
                 f" {untraced_p50:.3f} ms ({100 * (traced_p50 / untraced_p50 - 1):+.2f}%)")
    notes.append("computed, not measured: " + ", ".join(COMPUTED))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = generate(name, seed)
    spec = load_spec()
    out_dir = env.BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{name}_seed{seed}"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        setup, setup_probe = [], []
        for _ in range(0 if trace else SETUP_RUNS):
            setup_probe.append(spawn_probe()())
            setup.append(probes.child("setup", name, str(seed))["setup_s"])
        probe = None if trace else probe_for(name)
        op = inputs.operator_factory()()
        memory = memory_pass(inputs, op)
        tracer = applied = Tracer() if trace else None
        min_cycles = TRACE_MIN_CYCLES if trace else MIN_CYCLES
        if inputs.commands:
            files = cli_calls.write_inputs(inputs, workdir)
            cli_step = CliStep(files, cli_calls.Gate(inputs, files))
            loop = closed_loop(inputs.commands, cli_step, seconds, min_cycles, tracer, probe)
            peak_mb = cli_step.max_rss / MB
            if trace:
                applied = Tracer()
                closed_loop(inputs.calls, inprocess_step(inputs, op), REPLICA_SECONDS,
                            TRACE_MIN_CYCLES, applied)
                applied.write(out_dir / f"spans_{tag}_replica.jsonl")
        else:
            loop = closed_loop(inputs.calls, inprocess_step(inputs, op), seconds, min_cycles, tracer,
                               probe, inputs.sweep)
            peak_mb = memory.peak_mb

        attempted = len(loop.verdicts)
        failed = sum(v.failed for v in loop.verdicts)
        notes = [f"fail_frac = {failed}/{attempted} = {failed / attempted:.4f}"]
        grid = {item for item in loop.items if getattr(item, "grid_case", False)}
        if grid:
            missed = {item for item, v in zip(loop.items, loop.verdicts) if v.failed and item in grid}
            notes.append(f"tolerance misses on the 40-case grid: {len(missed)}/{len(grid)} cases")
        if trace:
            metrics = per_layer_metrics(inputs, loop, memory, tracer, applied, workdir, notes)
            tracer.write(out_dir / f"spans_{tag}.jsonl")
        else:
            metrics = end_to_end_metrics(inputs, loop, probe, setup, setup_probe, peak_mb, notes)
        result = {
            "correct": all(v.correct for v in loop.verdicts),
            "attempted": attempted,
            "failed": failed,
            "metrics": checked(metrics, spec["per_layer" if trace else "end_to_end"]),
        }
        record = {**result, "environment": environment(inputs), "notes": notes,
                  "setup_samples_s": setup, "setup_probe_samples_s": setup_probe,
                  "probe_samples_s": loop.probe_seconds, "call_samples_s": loop.seconds,
                  "errors": loop.errors[:5]}
        (out_dir / f"BENCH_{tag}_trace{int(trace)}.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8")
        for key, item in record["environment"].items():
            print(f"# {key}: {item}")
        for line in notes + loop.errors[:1]:
            print(f"# {line}")
        for metric, item in result["metrics"].items():
            print(f"{name} {metric} = {item['value']} {item['unit']}")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=env.ROOT, capture_output=True, text=True, timeout=900, check=False,
            )
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                raise SystemExit(f"error: {name} trace {trace} failed:\n{done.stderr}")
            part = json.loads(done.stdout.strip().splitlines()[-1])
            combined["correct"] &= part["correct"]
            combined["attempted"] += part["attempted"]
            combined["failed"] += part["failed"]
            for metric, item in part["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = item
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
