"""Self-tests of the benchmark; run with ``python3 -m pytest bench``."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import env

env.prepare()

from fraclag import CallbackOperator, DiagonalOperator  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
from workloads import PAPER, PAPER_N, CYCLE_MODES, WORKLOADS, Call, Inputs, Verdict, generate  # noqa: E402


def _same(a: Inputs, b: Inputs) -> bool:
    arrays = ("b", "entries", "q", "ev")
    return a.calls == b.calls and a.commands == b.commands and all(
        np.array_equal(getattr(a, k), getattr(b, k)) if getattr(a, k) is not None
        else getattr(b, k) is None for k in arrays)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_reproduces_inputs_for_a_seed(name):
    assert _same(generate(name, 7), generate(name, 7))
    assert not _same(generate(name, 7), generate(name, 8))


def _run(*args, cwd=env.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_spec(trace, section):
    done = _run("--workload", "param-sweep", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = {m["name"]: m["unit"] for m in run.load_spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name in spec:
        assert f"param-sweep {name} = " in done.stdout


def test_units_cover_the_spec_exactly():
    spec = run.load_spec()
    assert set(run.UNITS) == {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}


def _fixed_calls_inputs() -> Inputs:
    entries = np.logspace(0.0, 16.0, 161)
    b = np.random.default_rng(0).standard_normal(entries.size)
    calls = [Call(PAPER, mode, n=PAPER_N) for mode in CYCLE_MODES]
    return Inputs("gate", 0, b, calls, entries=entries)


@pytest.mark.parametrize("perturbation,failed", [(0.0, 0), (1e-3, 3)])
def test_gate_counts_a_perturbed_solve(perturbation, failed):
    inputs = _fixed_calls_inputs()
    exact = DiagonalOperator(inputs.entries)
    op = CallbackOperator(inputs.dimension,
                          lambda s, t, b: exact.solve_shifted(s, t, b) * (1.0 + perturbation))
    loop = run.closed_loop(inputs.calls, run.inprocess_step(inputs, op), 0.0, 1)
    assert len(loop.verdicts) == 3
    assert sum(v.failed for v in loop.verdicts) == failed
    assert all(v.correct for v in loop.verdicts) == (failed == 0)


def test_gate_counts_a_raising_call():
    inputs = _fixed_calls_inputs()

    def broken(sigma, tau, b):
        raise FloatingPointError("boom")

    loop = run.closed_loop(inputs.calls, run.inprocess_step(inputs, CallbackOperator(161, broken)), 0.0, 1)
    assert [v.failed for v in loop.verdicts] == [True] * 3
    assert len(loop.errors) == 3


def test_call_median_averages_the_kinds():
    assert run.kind_median(["apply", "sweep"] * 3, [1.0, 3.0, 1.2, 2.8, 0.8, 3.4]) == pytest.approx(2.0)


def test_timings_are_scaled_to_the_reference_speed():
    """A run whose probes took twice their reference reports half its raw times."""
    probe = hostspeed.Probe("fixed", 0.1, lambda: None)
    spawn_ref = hostspeed.spawn_probe().reference_s
    loop = run.Loop(seconds=[0.4] * 3, kinds=["a"] * 3, probe_seconds=[0.2] * 3,
                    verdicts=[Verdict(1.0, False, True)] * 3)
    metrics = run.end_to_end_metrics(_fixed_calls_inputs(), loop, probe, [1.0] * 3,
                                     [2 * spawn_ref] * 3, 1.0, [])
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert metrics["call_p50_ms"] == pytest.approx(200.0)
    assert metrics["call_tail_ms"] == pytest.approx(200.0)
    assert metrics["calls_per_s"] == pytest.approx(5.0)


def test_each_time_is_scaled_by_the_probes_nearest_it():
    # a slow stretch in the middle doubles both the calls and the probes
    times = [1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0]
    probe_times = [0.1, 0.1, 0.2, 0.2, 0.2, 0.1, 0.1]
    assert run.scaled(times, probe_times, 0.1) == pytest.approx([1.0] * 7)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(40)]
    value, pct, beyond = run.tail(samples)
    assert value == 29.0 and pct == 75.0 and beyond == 10
    assert sum(s > value for s in samples) == 10


def test_fails_without_the_package(tmp_path):
    shutil.copy(env.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(env.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "param-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
