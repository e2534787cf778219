# Sweep the spectral axis and compare measured quadrature errors with the
# a-priori q estimates, for a couple of parameter sets.  Writes one CSV per
# configuration next to this script.

from dataclasses import astuple
from pathlib import Path

import numpy as np

from fraclag import SWEEP_HEADER, Params, error_sweep
from fraclag.io import write_csv

HERE = Path(__file__).parent

configs = [
    (0.3, 1e-2, 30),
    (0.75, 1e-3, 30),
    (0.5, 1e-1, 30),
]

grid = 10.0 ** np.linspace(0.0, 16.0, 100)

for alpha, h, n in configs:
    p = Params(alpha, h)
    records = error_sweep(p, n, grid)
    out = HERE / f"sweep_alpha{alpha:g}_h{h:g}_n{n}.csv"
    write_csv(out, SWEEP_HEADER, map(astuple, records))
    print(f"alpha={alpha:g} h={h:g} n={n} -> {out.name}")

    # quick in-band summary: how often the active estimate tracks the
    # measured per-integral error within a factor of 10
    ok = total = 0
    for r in records:
        sel1 = r.q_I if r.regime1 == "I" else r.q_II
        sel2 = r.q_III if r.regime2 == "III" else r.q_IV
        for err, sel in ((r.err_int1, sel1), (r.err_int2, sel2)):
            if max(err, sel) < 1e-12:
                continue  # below what the reference integrator resolves
            total += 1
            ok += 0.1 <= err / sel <= 10.0
    print(f"  estimate within 10x of measurement on {ok}/{total} comparisons")
