# Print the rule-size planning tables: for a list of first-rule sizes n,
# the balanced second-rule size m, truncation indices k_n/k_m, predicted
# kept-term counts j_n/j_m, and the a-priori error of the truncated scheme.

from fraclag import Params, make_plan

for alpha in (0.6, 0.75):
    p = Params(alpha, 1.0)
    print(f"alpha = {alpha}, h = 1")
    print(f"{'n':>4} {'m':>4} {'k_n':>4} {'j_n':>4} {'k_m':>4} {'j_m':>4} "
          f"{'solves':>7} {'predicted':>12}")
    for n in (5, 10, 15, 20, 25, 50, 100):
        plan = make_plan(n, p)
        print(f"{plan.n:>4} {plan.m:>4} {plan.k_n:>4} {plan.j_n:>4} "
              f"{plan.k_m:>4} {plan.j_m:>4} {plan.inversions:>7} "
              f"{plan.predicted_error:>12.3e}")
    print()

# cost of the three variants at a fixed accuracy target
from fraclag import plan_for_tolerance, scheme

p = Params(0.5, 1e-2)
for tol in (1e-4, 1e-6, 1e-8):
    n = plan_for_tolerance(tol, p).n
    cost = {mode: scheme(n, p, mode).solves for mode in ("standard", "balanced", "truncated")}
    print(f"tol={tol:.0e}: n={n}, standard cost {cost['standard']}, "
          f"balanced {cost['balanced']}, truncated {cost['truncated']}")
