"""cli-oneshot calls: one fresh ``python -m fraclag.cli`` process each, with
its own maximum resident set size from ``wait4``."""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from fraclag import DiagonalOperator, apply_resolvent, io, standard_estimate
from fraclag.cli import main as cli_main

import env
from workloads import ENVELOPE, NO_RESULT, CliCommand, Inputs, Verdict, judge


@dataclass(frozen=True)
class Process:
    seconds: float
    max_rss_bytes: int
    returncode: int


def write_inputs(inputs: Inputs, workdir: Path) -> dict[str, Path]:
    """Input files in the package's own format; 17 significant digits make
    the round trip exact."""
    files = {"diag": workdir / "diag.txt", "vec": workdir / "vec.txt", "out": workdir / "out.txt"}
    io.write_vector(files["diag"], inputs.entries)
    io.write_vector(files["vec"], inputs.b)
    return files


def _argv(command: CliCommand, files: dict[str, Path]) -> list[str]:
    return [arg.format(**files) for arg in command.args]


def run(command: CliCommand, files: dict[str, Path]) -> Process:
    """One CLI process, timed from spawn to exit."""
    files["out"].unlink(missing_ok=True)
    with open(files["out"].with_suffix(".err"), "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fraclag.cli", *_argv(command, files)],
            cwd=env.ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(seconds, usage.ru_maxrss * 1024, proc.returncode)


class Gate:
    """Expected bytes and verdict of each command.

    ``apply`` must match an in-process ``apply_resolvent`` written with
    ``io.write_vector``; its accuracy is judged against the exact diagonal
    resolvent.  ``scalar-sweep`` must match the same command run in-process,
    and every ``err_total`` it reports must stay within ENVELOPE times the
    standard estimate.
    """

    def __init__(self, inputs: Inputs, files: dict[str, Path]):
        self.expected: dict[str, bytes] = {}
        self.verdict: dict[str, Verdict] = {}
        for command in inputs.commands:
            call = command.replica
            ref = files["out"].with_name(f"expected-{command.name}.txt")
            if command.name == "apply":
                y = apply_resolvent(DiagonalOperator(inputs.entries), inputs.b, call.p, call.n, call.mode)
                io.write_vector(ref, y)
                verdict = judge(inputs, call, y, call.n)
            else:
                argv = _argv(command, files)
                argv[argv.index(str(files["out"]))] = str(ref)
                if cli_main(argv) != 0:
                    raise RuntimeError(f"in-process {command.name} failed")
                with open(ref, encoding="utf-8") as handle:
                    worst = max(float(row["err_total"]) for row in csv.DictReader(handle))
                ratio = worst / standard_estimate(call.n, call.p)
                verdict = Verdict(ratio, ratio > ENVELOPE, ratio <= ENVELOPE)
            self.expected[command.name] = ref.read_bytes()
            self.verdict[command.name] = verdict

    def check(self, command: CliCommand, proc: Process, files: dict[str, Path]) -> Verdict:
        out = files["out"]
        if proc.returncode != 0 or not out.is_file() or out.read_bytes() != self.expected[command.name]:
            return NO_RESULT
        return self.verdict[command.name]
