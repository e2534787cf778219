"""Fresh-interpreter measurements, run as a child process.

    python3 bench/child.py setup <workload> <seed>
        Time ``import fraclag``, then (untimed) generate the workload's
        inputs, then time operator construction plus one warm-up call.
    python3 bench/child.py rules <n> [<n> ...]
        Time a cold ``gauss_laguerre(n)`` for each size.

Prints one JSON object.  Nothing but the standard library is imported
before the timed ``import fraclag``.
"""

import json
import sys
from time import perf_counter

import env


def _setup(name: str, seed: int) -> dict:
    t0 = perf_counter()
    import fraclag  # noqa: F401

    import_s = perf_counter() - t0
    from workloads import execute, generate

    inputs = generate(name, seed)
    if inputs.commands:
        return {"import_s": import_s, "setup_s": import_s}
    factory = inputs.operator_factory()
    t1 = perf_counter()
    op = factory()
    execute(op, inputs.b, inputs.calls[-1])
    return {"import_s": import_s, "setup_s": import_s + perf_counter() - t1}


def _rules(sizes: list[int]) -> dict:
    from fraclag import gauss_laguerre

    times = {}
    for n in sizes:
        t0 = perf_counter()
        gauss_laguerre(n)
        times[str(n)] = perf_counter() - t0
    return {"rule_build_s": times}


def main(argv: list[str]) -> None:
    env.prepare()
    if argv[0] == "setup":
        out = _setup(argv[1], int(argv[2]))
    elif argv[0] == "rules":
        out = _rules([int(a) for a in argv[1:]])
    else:
        raise SystemExit(f"unknown child command {argv[0]!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
