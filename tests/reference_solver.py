"""The solver's stacked-row front end and its brute-force grid oracle.

`SimplexProblem` holds one least-squares instance as stacked rows, and
`solve` runs it through the library's `solve_gram_batch`.  Training and
inference call `solve_gram_batch` on Gram forms directly, so only the tests
and the solver demo use this module.

`oracle_solve` is an independent brute-force check: it enumerates every
simplex grid point with coordinates that are multiples of a grid step and
returns the best.  It exists so the solver can be validated against
something that cannot share its bugs.
"""

from dataclasses import dataclass

import numpy as np

from recforest.simplex import solve_gram_batch


@dataclass
class SimplexProblem:
    """Stacked rows of one constrained least-squares instance.

    targets: (R, 2) landmark coordinates to reproduce.
    candidates: (R, C, 2) the C pool models' coordinates for each row.
    """

    targets: np.ndarray
    candidates: np.ndarray

    def __post_init__(self):
        self.targets = np.asarray(self.targets, dtype=np.float64)
        self.candidates = np.asarray(self.candidates, dtype=np.float64)
        if self.targets.ndim != 2 or self.targets.shape[1] != 2:
            raise ValueError("targets must have shape (R, 2)")
        if self.targets.shape[0] < 1:
            raise ValueError("problem needs at least one row")
        R = self.targets.shape[0]
        if (
            self.candidates.ndim != 3
            or self.candidates.shape[0] != R
            or self.candidates.shape[2] != 2
        ):
            raise ValueError("candidates must have shape (R, C, 2)")
        if self.candidates.shape[1] < 1:
            raise ValueError("problem needs at least one candidate model")
        if not np.all(np.isfinite(self.targets)) or not np.all(
            np.isfinite(self.candidates)
        ):
            raise ValueError("problem contains non-finite values")

    @property
    def model_count(self) -> int:
        return self.candidates.shape[1]

    def objective(self, w) -> float:
        """Sum of squared residuals of weights `w` on this problem."""
        w = np.asarray(w, dtype=np.float64)
        blend = np.einsum("rcd,c->rd", self.candidates, w)
        resid = self.targets - blend
        return float(np.einsum("rd,rd->", resid, resid))

    def gram(self):
        """(G, h, const) with objective(w) = w'Gw - 2h'w + const."""
        G = np.einsum("rcd,red->ce", self.candidates, self.candidates)
        h = np.einsum("rcd,rd->c", self.candidates, self.targets)
        const = float(np.einsum("rd,rd->", self.targets, self.targets))
        return G, h, const


@dataclass
class SimplexSolution:
    w: np.ndarray
    objective: float
    iterations: int
    converged: bool


def solve(problem: SimplexProblem, tolerance=1e-8, max_iterations=1000):
    """Minimize the problem over the simplex.

    Deterministic for fixed inputs.  If the iteration budget runs out the
    best iterate found is returned with converged=False rather than raising.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    G, h, _ = problem.gram()
    w, iterations, converged = solve_gram_batch(
        G[None], h[None], tolerance=tolerance, max_iterations=max_iterations
    )
    w0 = w[0]
    return SimplexSolution(
        w=w0,
        objective=problem.objective(w0),
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
    )


def _simplex_grid(parts: int, total: int) -> np.ndarray:
    """Integer compositions of `total` into `parts` nonnegative parts."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    if (total + 1) ** (parts - 1) > 1 << 26:
        raise ValueError("grid too fine to enumerate for this many models")
    axes = np.indices((total + 1,) * (parts - 1), dtype=np.int64)
    flat = axes.reshape(parts - 1, -1).T
    keep = flat[flat.sum(axis=1) <= total]
    last = total - keep.sum(axis=1)
    return np.hstack([keep, last[:, None]])


def oracle_solve(problem: SimplexProblem, grid_step: float) -> SimplexSolution:
    """Exhaustive grid search over the simplex; the testing oracle.

    Evaluates every w whose coordinates are multiples of `grid_step` and sum
    to 1, and returns the best (first encountered on ties).  Exponential in
    the model count, hence restricted to C <= 4.
    """
    C = problem.model_count
    if C > 4:
        raise ValueError("oracle_solve supports at most 4 models, got %d" % C)
    if not 0 < grid_step <= 1:
        raise ValueError("grid_step must be in (0, 1]")
    k = max(1, round(1.0 / grid_step))
    grid = _simplex_grid(C, k).astype(np.float64) / k
    G, h, const = problem.gram()
    f = (
        np.einsum("pi,ij,pj->p", grid, G, grid)
        - 2.0 * grid @ h
        + const
    )
    best = int(np.argmin(f))
    w = grid[best]
    return SimplexSolution(
        w=w,
        objective=problem.objective(w),
        iterations=grid.shape[0],
        converged=True,
    )
