# Apply the three variants to a diagonal operator spanning 16 decades and
# report measured accuracy against the closed form, per rule size and mode.
# The point: balanced and truncated reach the same accuracy for a fraction
# of the shifted solves.

import numpy as np

from fraclag import (
    DiagonalOperator,
    Params,
    apply_resolvent,
    exact_diagonal_apply,
    scheme,
)

d = 10.0 ** np.linspace(0.0, 16.0, 161)
op = DiagonalOperator(d)
b = np.ones(op.dimension)

p = Params(0.5, 1e-2)
exact = exact_diagonal_apply(d, b, p)

print(f"alpha={p.alpha} h={p.h} diag=10^[0..16]")
print(f"{'n':>4} {'mode':>10} {'solves':>7} {'max error':>12}")
for n in (10, 20, 30, 40, 50, 60):
    for mode in ("standard", "balanced", "truncated"):
        got = apply_resolvent(op, b, p, n, mode)
        err = float(np.abs(got - exact).max())
        print(f"{n:>4} {mode:>10} {scheme(n, p, mode).solves:>7} {err:>12.3e}")

# solves needed to push the max-entry error under 1e-6, per mode
print()
for mode in ("standard", "balanced", "truncated"):
    for n in range(5, 200):
        err = float(np.abs(apply_resolvent(op, b, p, n, mode) - exact).max())
        if err <= 1e-6:
            print(f"{mode}: n={n}, {scheme(n, p, mode).solves} solves, error {err:.2e}")
            break
