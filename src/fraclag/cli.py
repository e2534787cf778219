"""Command-line front end: error sweeps, decay sequences, sizing plans,
operator benchmarks, and direct application to user-supplied data.

Exit codes: 0 on success, 1 for runtime or data errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import io
from .estimates import eps1, eps2, g_sequences, n_star, n_star_star
from .integrands import Params
from .laguerre import MAX_RULE_SIZE
from .operators import DenseOperator, DiagonalOperator, OperatorError, apply_resolvent
from .oracle import SWEEP_HEADER, OracleError, error_sweep, exact_diagonal_apply
from .planner import MODES, make_plan, plan_for_tolerance, scheme

__all__ = ["main", "build_parser", "benchmark_diagonal"]


class UsageError(Exception):
    """Flag values outside their documented ranges."""


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
    if not value > 0.0 or math.isinf(value) or math.isnan(value):
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
    if value < 1.0:
        raise argparse.ArgumentTypeError(f"spectral points must be >= 1, got {text!r}")
    return value


def benchmark_diagonal() -> np.ndarray:
    """The built-in test operator: 161 eigenvalues log-spaced over [1, 1e16]."""
    return 10.0 ** np.linspace(0.0, 16.0, 161)


def _emit(out, header, rows) -> None:
    if out is None:
        io.write_rows(sys.stdout, header, rows)
    else:
        io.write_csv(out, header, rows)


def _cmd_scalar_sweep(args) -> int:
    if args.lambda_max < args.lambda_min:
        raise UsageError("--lambda-max must be >= --lambda-min")
    p = Params(alpha=args.alpha, h=args.h)
    grid = np.logspace(math.log10(args.lambda_min), math.log10(args.lambda_max), args.points)
    records = error_sweep(p, args.n, grid, args.mode)
    _emit(args.out, SWEEP_HEADER, map(dataclasses.astuple, records))
    return 0


def _cmd_sequences(args) -> int:
    p = Params(alpha=args.alpha, h=args.h)
    ns = n_star(p)
    nss = n_star_star(p)
    header = ["n", "g_I", "g_II", "g_III", "g_IV", "eps1", "eps2", "n_star", "n_star_star"]
    rows = []
    for n in range(1, args.n_max + 1):
        g = g_sequences(n, p)
        rows.append((n, g.g_I, g.g_II, g.g_III, g.g_IV,
                     eps1(n, p), eps2(n, p), ns, nss))
    _emit(args.out, header, rows)
    return 0


_PLAN_HEADER = ["n", "m", "k_n", "j_n", "k_m", "j_m", "predicted_error", "inversions"]


def _plan_row(plan):
    return (plan.n, plan.m, plan.k_n, plan.j_n, plan.k_m, plan.j_m,
            plan.predicted_error, plan.inversions)


def _cmd_plan(args) -> int:
    p = Params(alpha=args.alpha, h=args.h)
    if args.tol is not None:
        plans = [plan_for_tolerance(args.tol, p)]
    else:
        plans = [make_plan(n, p) for n in args.n]
    _emit(args.out, _PLAN_HEADER, [_plan_row(plan) for plan in plans])
    return 0


def _cmd_operator_error(args) -> int:
    p = Params(alpha=args.alpha, h=args.h)
    entries = io.read_diagonal(args.diag_file) if args.diag_file else benchmark_diagonal()
    op = DiagonalOperator(entries)
    b = np.ones(op.dimension)
    exact = exact_diagonal_apply(entries, b, p)
    wanted = MODES if args.mode == "all" else (args.mode,)
    header = ["n", "inversions", "err_standard", "est_standard",
              "err_balanced", "est_balanced", "err_truncated", "est_truncated"]
    cost_mode = "truncated" if args.mode == "all" else args.mode
    rows = []
    for n in args.n_list:
        err = {
            mode: float(np.abs(apply_resolvent(op, b, p, n, mode) - exact).max())
            for mode in wanted
        }
        rows.append((
            n, scheme(n, p, cost_mode).solves,
            err.get("standard", ""), scheme(n, p, "standard").predicted_error,
            err.get("balanced", ""), scheme(n, p, "balanced").predicted_error,
            err.get("truncated", ""), scheme(n, p, "truncated").predicted_error,
        ))
    _emit(args.out, header, rows)
    return 0


def _cmd_apply(args) -> int:
    p = Params(alpha=args.alpha, h=args.h)
    if args.matrix_file:
        op = DenseOperator(io.read_matrix(args.matrix_file))
    else:
        op = DiagonalOperator(io.read_diagonal(args.diag_file))
    b = io.read_vector(args.vector_file)
    result = apply_resolvent(op, b, p, args.n, args.mode)
    io.write_vector(args.out, result)
    ran = scheme(args.n, p, args.mode)
    (n, m), (k_n, k_m) = ran.sizes, ran.kept
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
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OperatorError, OracleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
