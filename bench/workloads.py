"""Seeded workload generators and the correctness gate.

Every workload is a closed loop with one caller.  A *cycle* is the fixed
sequence of operations the caller repeats; an *operation* is one unit of
work, and the gate judges each one.  A *call*, the unit whose latency is
timed, is one operation, except in ``param-sweep``:

- ``diag-1m``: one ``apply_resolvent`` on a 10**6-entry diagonal.  Solves are
  elementwise passes over 8 MB vectors and every solution is held until the
  reduction, so the shifted solves and the reduction dominate.
- ``dense-800``: one ``apply_resolvent`` on an 800x800 dense matrix; each
  solve is a fresh O(N**3) Cholesky, so BLAS/LAPACK dominates.
- ``param-sweep``: each operation is ``plan_for_tolerance`` then a
  truncated apply on a 321-entry diagonal, for one case of a shuffled
  alpha/h/tol grid.  Solves take microseconds, so planning, estimates, rule
  construction and per-operation overhead dominate.  A call is one sweep
  over the whole grid: an operation takes about 0.5 ms, so its tail
  percentile would sit near p99.95, where host preemptions of several
  milliseconds decide it.
- ``cli-oneshot``: one fresh ``python -m fraclag.cli`` process.  Import
  dominates, and it is the only workload that loads ``cli``, ``io`` and
  ``oracle``.

The generators depend only on the seed.  The package receives only the
generated arrays and parameters.  Right-hand sides have seeded random signs
in the operator's eigenbasis (``b = s`` for a diagonal, ``b = Q s`` for the
dense matrix) so that the max-norm error, measured in that basis, is the
worst case over the spectrum and does not depend on the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from fraclag import (
    DenseOperator,
    DiagonalOperator,
    Params,
    apply_resolvent,
    balanced_estimate,
    exact_diagonal_apply,
    make_plan,
    plan_for_tolerance,
    standard_estimate,
)
from fraclag.cli import benchmark_diagonal

from tracing import APPLY, NO_TRACE, PLAN

WORKLOADS = ("diag-1m", "dense-800", "param-sweep", "cli-oneshot")

# the paper's operating point
PAPER = Params(alpha=0.5, h=0.01)
PAPER_N = 50
CYCLE_MODES = ("standard", "balanced", "truncated")

# the 40-case alpha/h/tol grid, plus the paper's point
SWEEP_ALPHAS = (0.6, 0.65, 0.7, 0.75, 0.8)
SWEEP_HS = (1e-6, 0.1)
SWEEP_TOLS = (1e-3, 1e-4, 1e-6, 1e-8)

# A fixed-n call fails above this multiple of its a-priori estimate
# (acceptance criterion 6).  The same factor bounds what the gate still
# calls a correct output for a call planned for a tolerance.
ENVELOPE = 10.0

CLI_POINTS = 20


@dataclass(frozen=True)
class Call:
    """One call: a fixed-``n`` apply in ``mode``, or, when ``tol`` is set,
    ``plan_for_tolerance(tol)`` followed by a truncated apply."""

    p: Params
    mode: str
    n: int | None = None
    tol: float | None = None

    @property
    def grid_case(self) -> bool:
        """Whether the call belongs to the 40-case alpha/h/tol grid."""
        return self.tol is not None and self.p != PAPER


@dataclass(frozen=True)
class CliCommand:
    """One ``fraclag`` subprocess; ``args`` follow the subcommand name and
    use ``{diag}``, ``{vec}`` and ``{out}`` as file placeholders."""

    name: str
    args: tuple[str, ...]
    replica: Call


@dataclass
class Inputs:
    """Generated inputs of one workload and seed."""

    name: str
    seed: int
    b: np.ndarray
    calls: list[Call]
    entries: np.ndarray | None = None
    q: np.ndarray | None = None
    ev: np.ndarray | None = None
    commands: list[CliCommand] = field(default_factory=list)
    sweep: bool = False
    _refs: dict = field(default_factory=dict, repr=False)

    @property
    def dimension(self) -> int:
        return self.b.size

    def operator_factory(self):
        """Zero-argument constructor of the operator, with its input data
        prepared beforehand so only the package's constructor is timed.
        The dense matrix is Q diag(ev) Q^T, symmetrized exactly."""
        if self.q is not None:
            a = (self.q * self.ev) @ self.q.T
            matrix = 0.5 * (a + a.T)
            return lambda: DenseOperator(matrix)
        entries = self.entries
        return lambda: DiagonalOperator(entries)

    def eigen_coords(self, v: np.ndarray) -> np.ndarray:
        """``v`` in the operator's eigenbasis."""
        return v if self.q is None else self.q.T @ v

    def reference(self, p: Params) -> np.ndarray:
        """Exact (I + h L^alpha)^{-1} b, independent of the quadrature."""
        if p not in self._refs:
            if self.q is not None:
                ref = self.q @ ((self.q.T @ self.b) / (1.0 + p.h * self.ev**p.alpha))
            else:
                ref = exact_diagonal_apply(self.entries, self.b, p)
            self._refs[p] = ref
        return self._refs[p]


def generate(name: str, seed: int) -> Inputs:
    """Inputs of workload ``name``; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    fixed = [Call(PAPER, mode, n=PAPER_N) for mode in CYCLE_MODES]

    def signs(size: int) -> np.ndarray:
        return rng.choice(np.array([-1.0, 1.0]), size)

    if name == "diag-1m":
        entries = np.logspace(0.0, 16.0, 10**6)
        return Inputs(name, seed, signs(entries.size), fixed, entries=entries)
    if name == "dense-800":
        z = rng.standard_normal((800, 800))
        q, r = np.linalg.qr(z)
        q *= np.sign(np.diag(r))
        ev = np.logspace(0.0, 4.0, 800)
        return Inputs(name, seed, q @ signs(800), fixed, q=q, ev=ev)
    if name == "param-sweep":
        points = [Params(a, h) for a in SWEEP_ALPHAS for h in SWEEP_HS] + [PAPER]
        calls = [Call(p, "truncated", tol=tol) for p in points for tol in SWEEP_TOLS]
        random.Random(seed).shuffle(calls)
        entries = np.logspace(0.0, 16.0, 321)
        return Inputs(name, seed, np.ones(entries.size), calls, entries=entries, sweep=True)
    if name == "cli-oneshot":
        entries = benchmark_diagonal()
        common = ("--alpha", f"{PAPER.alpha!r}", "--h", f"{PAPER.h!r}", "--n", str(PAPER_N))
        apply = CliCommand(
            "apply",
            ("apply", *common, "--mode", "truncated", "--diag-file", "{diag}",
             "--vector-file", "{vec}", "--out", "{out}"),
            Call(PAPER, "truncated", n=PAPER_N),
        )
        sweep = CliCommand(
            "scalar-sweep",
            ("scalar-sweep", *common, "--points", str(CLI_POINTS), "--out", "{out}"),
            Call(PAPER, "standard", n=PAPER_N),
        )
        return Inputs(name, seed, signs(entries.size),
                      [apply.replica], entries=entries, commands=[apply, sweep])
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def advertised_error(call: Call, n: int) -> float:
    """What the package promises for the call: ``tol`` for a planned call,
    else the mode's a-priori estimate at ``n``."""
    if call.tol is not None:
        return call.tol
    if call.mode == "standard":
        return standard_estimate(n, call.p)
    if call.mode == "balanced":
        return balanced_estimate(n, call.p)
    return make_plan(n, call.p).predicted_error


def execute(op, b: np.ndarray, call: Call, tracer=NO_TRACE) -> tuple[np.ndarray, int]:
    """Run one call through the public API; returns the result and the rule
    size it ran at."""
    n = call.n
    if call.tol is not None:
        with tracer.span(PLAN):
            n = plan_for_tolerance(call.tol, call.p).n
    with tracer.span(APPLY):
        y = apply_resolvent(op, b, call.p, n, call.mode)
    return y, n


class Verdict(NamedTuple):
    """Gate result of one call (``NO_RESULT`` when it raised or its
    output is unusable).

    ``ratio`` is measured over advertised error (``None`` if the call
    raised).  ``failed``: the call raised, or missed ``tol`` when planned
    for one, or exceeded ENVELOPE times its estimate at fixed ``n``.
    ``correct``: the output is finite and within ENVELOPE times what was
    advertised, so the program computed what it claims up to the
    acceptance envelope.
    """

    ratio: float | None
    failed: bool
    correct: bool


NO_RESULT = Verdict(None, True, False)


def judge(inputs: Inputs, call: Call, y: np.ndarray, n: int) -> Verdict:
    """Compare ``y`` with the independent reference of the call; the error
    is the max-norm in the operator's eigenbasis relative to ``b``'s."""
    ref = inputs.reference(call.p)
    if y.shape != ref.shape or not np.isfinite(y).all():
        return NO_RESULT
    err = (float(np.abs(inputs.eigen_coords(y - ref)).max())
           / float(np.abs(inputs.eigen_coords(inputs.b)).max()))
    ratio = err / advertised_error(call, n)
    limit = 1.0 if call.tol is not None else ENVELOPE
    return Verdict(ratio, ratio > limit, ratio <= ENVELOPE)
