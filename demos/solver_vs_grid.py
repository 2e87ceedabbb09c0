"""The simplex-constrained rating solver against an exhaustive grid oracle.

Leaf ratings minimize the blended-shape squared error over the probability
simplex.  The production path is an active-set solver on the Gram form; the
oracle enumerates every grid point with coordinates in multiples of 0.01.
The solver should land at or below the oracle's objective every time, a few
orders of magnitude faster.

The oracle and the stacked-row `solve` front end are test code: they live in
the repository's `tests/reference_solver.py`, which this demo puts on
`sys.path`.  The library itself ships only the Gram-form solver.
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from reference_solver import SimplexProblem, oracle_solve, solve  # noqa: E402

rng = np.random.default_rng(0)

print("one problem in detail:")
targets = rng.normal(size=(8, 2))
candidates = rng.normal(size=(8, 3, 2))
problem = SimplexProblem(targets=targets, candidates=candidates)
sol = solve(problem)
ref = oracle_solve(problem, 1e-2)
print("  solver  w=%s  objective=%.10f" % (np.round(sol.w, 6), sol.objective))
print("  oracle  w=%s  objective=%.10f" % (np.round(ref.w, 6), ref.objective))
print("  solver - oracle = %.3e" % (sol.objective - ref.objective))

print("\n200 random problems (C in {2,3}, 5..20 rows):")
problems = []
for _ in range(200):
    C = int(rng.choice([2, 3]))
    R = int(rng.integers(5, 21))
    problems.append(
        SimplexProblem(targets=rng.normal(size=(R, 2)),
                       candidates=rng.normal(size=(R, C, 2)))
    )

start = time.perf_counter()
solutions = [solve(p) for p in problems]
solver_s = time.perf_counter() - start

start = time.perf_counter()
references = [oracle_solve(p, 1e-2) for p in problems]
oracle_s = time.perf_counter() - start

gaps = [s.objective - r.objective for s, r in zip(solutions, references)]
print("  worst solver-minus-oracle gap: %.3e (negative = solver better)" % max(gaps))
print("  solver %.4fs total, grid oracle %.2fs total" % (solver_s, oracle_s))
print("  all converged: %s" % all(s.converged for s in solutions))
