"""Command-line front end: error sweeps, decay sequences, sizing plans,
operator benchmarks, and direct application to user-supplied data.

Exit codes: 0 on success, 1 for runtime or data errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import NoReturn

import numpy as np

from . import io
from .estimates import GSequences, eps1, eps2, g_sequences, n_star, n_star_star
from .integrands import _SPECTRAL_FLOOR, Params
from .laguerre import MAX_RULE_SIZE
from .operators import DenseOperator, DiagonalOperator, OperatorError, apply_scheme
from .oracle import SWEEP_HEADER, _entry_errors, error_sweep
from .planner import MODES, make_plan, mode_counts, plan_for_tolerance, scheme

__all__ = ["main", "run", "build_parser", "benchmark_diagonal"]


def _alpha_value(text: str) -> float:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = int(num) / int(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse alpha {text!r}")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _rule_size(text: str, what: str = "rule size") -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 1 <= value <= MAX_RULE_SIZE:
        raise argparse.ArgumentTypeError(f"{what} must be in [1, {MAX_RULE_SIZE}], got {text!r}")
    return value


def _rule_size_list(text: str) -> list[int]:
    sizes = [_rule_size(part) for part in text.split(",") if part]
    if not sizes:
        raise argparse.ArgumentTypeError(f"expected at least one rule size, got {text!r}")
    return sizes


def _spectral_point(text: str) -> float:
    value = _positive_float(text)
    if value < _SPECTRAL_FLOOR:
        raise argparse.ArgumentTypeError(f"spectral points must be >= {_SPECTRAL_FLOOR:g}, got {text!r}")
    return value


def benchmark_diagonal() -> np.ndarray:
    """The built-in test operator: 161 eigenvalues log-spaced over [1, 1e16]."""
    return 10.0 ** np.linspace(0.0, 16.0, 161)


def _emit(out, header, rows) -> None:
    if out is None:
        io.write_rows(sys.stdout, header, rows)
    else:
        io.write_csv(out, header, rows)


def _cmd_scalar_sweep(args, p: Params) -> int:
    if args.lambda_max < args.lambda_min:
        print("usage error: --lambda-max must be >= --lambda-min", file=sys.stderr)
        return 2
    # 10**log10(x) overflows for x near the double limit.  Only the points
    # that overflow are replaced: elsewhere the last point can differ from
    # --lambda-max in its last bit, and those grids stay as they were
    with np.errstate(all="ignore"):
        grid = np.logspace(math.log10(args.lambda_min), math.log10(args.lambda_max), args.points)
    grid[~np.isfinite(grid)] = args.lambda_max
    records = error_sweep(p, args.n, grid, args.mode)
    _emit(args.out, SWEEP_HEADER, map(dataclasses.astuple, records))
    return 0


def _cmd_sequences(args, p: Params) -> int:
    ns = n_star(p)
    nss = n_star_star(p)
    header = ["n", *GSequences._fields, "eps1", "eps2", "n_star", "n_star_star"]
    rows = [(n, *g_sequences(n, p), eps1(n, p), eps2(n, p), ns, nss) for n in range(1, args.n_max + 1)]
    _emit(args.out, header, rows)
    return 0


# the Plan attributes a plan row holds, in column order
_PLAN_HEADER = ["n", "m", "k_n", "j_n", "k_m", "j_m", "predicted_error", "inversions"]


def _cmd_plan(args, p: Params) -> int:
    if args.tol is not None:
        plans = [plan_for_tolerance(args.tol, p)]
    else:
        plans = [make_plan(n, p) for n in args.n]
    _emit(args.out, _PLAN_HEADER, [[getattr(plan, name) for name in _PLAN_HEADER] for plan in plans])
    return 0


def _cmd_operator_error(args, p: Params) -> int:
    op = DiagonalOperator(io.read_diagonal(args.diag_file) if args.diag_file else benchmark_diagonal())
    wanted = MODES if args.mode == "all" else (args.mode,)
    header = ["n", "inversions", *(f"{kind}_{mode}" for mode in MODES for kind in ("err", "est"))]
    cost_mode = "truncated" if args.mode == "all" else args.mode
    built = [{mode: scheme(n, p, mode) for mode in MODES} for n in args.n_list]
    # one closed form for every measured cell, taken in row order
    errors = _entry_errors(op, [schemes[mode] for schemes in built for mode in wanted])
    rows = []
    for n, schemes in zip(args.n_list, built):
        row = [n, schemes[cost_mode].solves]
        for mode in MODES:
            row += [float(next(errors).max()) if mode in wanted else "", schemes[mode].predicted_error]
        rows.append(row)
    _emit(args.out, header, rows)
    return 0


def _cmd_apply(args, p: Params) -> int:
    if args.matrix_file:
        op = DenseOperator(io.read_matrix(args.matrix_file))
    else:
        op = DiagonalOperator(io.read_diagonal(args.diag_file))
    b = io.read_vector(args.vector_file)
    ran = scheme(args.n, p, args.mode)
    io.write_vector(args.out, apply_scheme(op, b, ran))
    (n, m), (k_n, k_m) = mode_counts(args.n, p, args.mode)
    print(
        f"plan: n={n} m={m} k_n={k_n} k_m={k_m} solves={ran.solves} "
        f"predicted_error={ran.predicted_error:.6e}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclag",
        description="Resolvents of fractional operator powers by Gauss-Laguerre quadrature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--alpha", type=_alpha_value, required=True,
                        help="fractional power in (0, 1); decimal or a fraction like 2/3")
        sp.add_argument("--h", type=_positive_float, required=True, help="time step h > 0")

    sp = sub.add_parser("scalar-sweep", help="measured and estimated errors over a spectral grid")
    common(sp)
    sp.add_argument("--n", type=_rule_size, required=True, help="first-integrand rule size")
    sp.add_argument("--lambda-min", type=_spectral_point, default=1.0)
    sp.add_argument("--lambda-max", type=_spectral_point, default=1e16)
    sp.add_argument("--points", type=lambda text: _rule_size(text, "number of grid points"),
                    default=200, help="grid size, log-spaced")
    sp.add_argument("--mode", choices=MODES, default="standard")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_scalar_sweep)

    sp = sub.add_parser("sequences", help="decay sequences g_I..g_IV and their envelopes")
    common(sp)
    sp.add_argument("--n-max", type=_rule_size, required=True)
    sp.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    sp.set_defaults(func=_cmd_sequences)

    sp = sub.add_parser("plan", help="rule sizes, truncation indices and predicted error")
    common(sp)
    pick = sp.add_mutually_exclusive_group(required=True)
    pick.add_argument("--n", type=_rule_size_list, help="comma-separated rule sizes")
    pick.add_argument("--tol", type=_positive_float, help="target error; smallest adequate n is chosen")
    sp.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    sp.set_defaults(func=_cmd_plan)

    sp = sub.add_parser("operator-error", help="measured vs estimated operator errors per rule size")
    common(sp)
    sp.add_argument("--n-list", type=_rule_size_list, required=True, help="comma-separated rule sizes")
    sp.add_argument("--mode", choices=MODES + ("all",), default="all")
    sp.add_argument("--diag-file", default=None,
                    help="diagonal entries file; defaults to the built-in benchmark operator")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_operator_error)

    sp = sub.add_parser("apply", help="apply the approximate resolvent to a vector")
    common(sp)
    sp.add_argument("--n", type=_rule_size, required=True)
    sp.add_argument("--mode", choices=MODES, default="standard")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix-file", help="dense SPD matrix, comma-separated rows")
    source.add_argument("--diag-file", help="diagonal entries, one per line; +inf allowed")
    sp.add_argument("--vector-file", required=True, help="right-hand side, one entry per line")
    sp.add_argument("--out", required=True, help="result vector path")
    sp.set_defaults(func=_cmd_apply)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, Params(args.alpha, args.h))
    except (OperatorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The ``fraclag`` process: ``main()``, then exit without interpreter
    teardown.

    Finalizing the imported modules and stopping the BLAS threads is a large
    share of a short command's time and reaches no output: by the time
    ``main()`` returns, every output file is closed and every thread it
    started is joined, and stdout and stderr are flushed here.  The status
    goes through ``sys.exit`` as usual when a flush fails, so a closed pipe
    is reported, and under a tracer, a profiler or a ``sys.monitoring`` tool
    (Python 3.12+), which write their results at exit.  Exceptions from
    ``main()``, argparse's exits among them, take the usual path; in-process
    callers call ``main()``.
    """
    status = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(status)
    monitoring = getattr(sys, "monitoring", None)
    monitored = monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6))
    if sys.gettrace() is None and sys.getprofile() is None and not monitored:
        os._exit(status)
    sys.exit(status)


if __name__ == "__main__":
    run()
