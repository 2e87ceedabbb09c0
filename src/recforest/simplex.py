"""Least squares over the probability simplex.

Solves, for a set of 2-D rows (target y, candidates x_1..x_C),

    minimize   sum_r || y_r - sum_c w_c x_rc ||^2
    subject to w >= 0,  sum(w) = 1.

The workhorse is a primal active-set method: starting from the uniform
vector with every coordinate in the working support, it alternates exact
equality-constrained solves on the support with feasibility line searches
that drop blocking coordinates, and grows the support where the reduced
gradient is negative.  Its first round, on every row's full support, is
one bordered system over the whole batch; most rows end there, and only the
rest are gathered for more rounds.  On these tiny dense QPs (C is the pool
size, typically <= 20) it terminates in a few support changes with a
machine-precision optimum.  Rows the active set cannot finish (singular
subproblems, cycling) fall back to projected gradient with Barzilai-Borwein
steps.
"""

import numpy as np

_SUPPORT_EPS = 1e-10


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v onto {w >= 0, sum(w) = 1}.

    Sort-based O(C log C) algorithm; exact up to float arithmetic (components
    outside the support come out exactly 0).
    """
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    K, C = v.shape
    u = np.sort(v, axis=1)[:, ::-1]
    cssv = np.cumsum(u, axis=1) - 1.0
    denom = np.arange(1, C + 1)
    cond = u * denom > cssv
    rho = C - 1 - np.argmax(cond[:, ::-1], axis=1)  # last index where cond holds
    theta = cssv[np.arange(K), rho] / (rho + 1.0)
    return np.clip(v - theta[:, None], 0.0, None)


def _by_row(ufunc, x):
    """ufunc.reduce of each row of x (K, C), column by column: numpy is slow on short rows."""
    return ufunc.reduce(x.T.copy(), axis=0)


def _kkt_residual(w, grad):
    """Per-row KKT violation for min f(w) on the simplex; 0 at an optimum."""
    supp = w > 1e-12
    lam = np.einsum("ki,ki->k", grad, w)
    on = _by_row(np.maximum, np.where(supp, np.abs(grad - lam[:, None]), 0.0))
    off = _by_row(np.maximum, np.where(~supp, np.maximum(lam[:, None] - grad, 0.0), 0.0))
    scale = 1.0 + _by_row(np.maximum, np.abs(grad))
    return np.maximum(on, off), scale


def _solve_systems(A, b):
    """np.linalg.solve of each system A[k] x = b[k]; NaN rows for a singular
    one.  A batch with a singular system splits in halves until it is
    isolated, each nonsingular part one call; gesv solves each system on its
    own, so every row's bits match its lone solve."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        if A.shape[0] == 1:
            return np.full(b.shape, np.nan)
        half = A.shape[0] // 2
        return np.concatenate([_solve_systems(A[:half], b[:half]),
                               _solve_systems(A[half:], b[half:])])


def _eqp_solve(G, h, supp):
    """Minimize w'Gw - 2h'w s.t. sum(w[supp]) = 1, w[~supp] = 0, per row.

    Returns (w, nu, ok) where nu is the equality multiplier (the gradient on
    the support equals -nu at the solution) and ok flags rows whose linear
    system was solvable.
    """
    K, C = h.shape
    A = np.empty((K, C + 1, C + 1))
    rhs = np.empty((K, C + 1, 1))
    np.multiply(G, 2.0, out=A[:, :C, :C])
    A[:, :C, C] = A[:, C, :C] = supp
    A[:, C, C] = 0.0
    np.multiply(h, 2.0, out=rhs[:, :C, 0])
    rhs[:, C] = 1.0
    if not supp.all():  # pin each off-support coordinate to 0
        k_idx, i_idx = np.nonzero(~supp)
        rhs[k_idx, i_idx] = 0.0
        A[k_idx, i_idx, :] = 0.0
        A[k_idx, i_idx, i_idx] = 1.0
    sol = _solve_systems(A, rhs)[:, :, 0]
    return sol[:, :C], sol[:, C], _by_row(np.logical_and, np.isfinite(sol))


def _ratio_step(w, supp, rows, w_eq):
    """Step rows `rows` of w toward w_eq until a coordinate hits zero; drop it."""
    wc = w[rows]
    d = w_eq - wc
    blocking = (d < 0) & supp[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(blocking, wc / -d, np.inf)
    j = np.argmin(ratio, axis=1)
    alpha = ratio[np.arange(rows.size), j]
    w_new = np.clip(wc + alpha[:, None] * d, 0.0, None)
    w_new[np.arange(rows.size), j] = 0.0
    w[rows] = w_new
    supp[rows, j] = False


def _active_set_batch(G, h, tolerance):
    """Primal active-set pass over a batch; rows it cannot certify are
    flagged for the gradient fallback.

    Round one has every row on its full support: one bordered system over
    the whole batch, no gather, and a feasible row is optimal (no coordinate
    is left to add; a NaN gradient fails, as in later rounds).  Only the
    rows it leaves go round again.  Returns (w, rounds, solved, grad), grad
    holding each solved row's gradient from the test that finished it.
    Every row's trajectory depends only on its own (G, h), so results are
    independent of batch composition.
    """
    K, C = h.shape
    supp = np.ones((K, C), dtype=bool)
    w_eq, _, ok = _eqp_solve(G, h, supp)
    feas = ok & (_by_row(np.minimum, w_eq) >= -1e-12)
    w = np.where(feas[:, None], np.clip(w_eq, 0.0, None), 1.0 / C)
    grad = 2.0 * (np.einsum("kij,kj->ki", G, w) - h)
    solved = feas & (np.inf >= -tolerance * (1.0 + _by_row(np.maximum, np.abs(grad))))
    failed, rounds = ~ok, np.ones(K, dtype=np.int64)
    _ratio_step(w, supp, np.nonzero(ok & ~feas)[0], w_eq[ok & ~feas])

    active = np.nonzero(~solved & ~failed)[0]
    for _ in range(4 * C + 11):
        if active.size == 0:
            break
        Ga, ha, sa = G[active], h[active], supp[active]
        w_eq, nu, ok = _eqp_solve(Ga, ha, sa)
        rounds[active] += 1
        failed[active[~ok]] = True
        feas = _by_row(np.minimum, w_eq) >= -1e-12

        go = ok & feas
        if go.any():
            rows = active[go]
            w_new = np.clip(w_eq[go], 0.0, None)
            w[rows] = w_new
            g = 2.0 * (np.einsum("kij,kj->ki", Ga[go], w_new) - ha[go])
            reduced = np.where(sa[go], np.inf, g + nu[go][:, None])
            scale = 1.0 + _by_row(np.maximum, np.abs(g))
            optimal = _by_row(np.minimum, reduced) >= -tolerance * scale
            solved[rows[optimal]] = True
            grad[rows[optimal]] = g[optimal]
            grow = rows[~optimal]
            if grow.size:
                supp[grow, np.argmin(reduced[~optimal], axis=1)] = True

        _ratio_step(w, supp, active[ok & ~feas], w_eq[ok & ~feas])
        active = np.nonzero(~solved & ~failed)[0]

    return w, rounds, solved, grad


def _polish_on_support(G, h, w, f):
    """Exact equality-constrained solve on each row's detected support.

    Pins off-support coordinates to zero and solves the KKT system for the
    rest.  Rows where the system is singular or the result infeasible keep
    their iterate.  Returns possibly-improved (w, f).
    """
    supp = w > _SUPPORT_EPS
    sol, _, ok = _eqp_solve(G, h, supp)
    feasible = ok & (sol.min(axis=1) >= -1e-9) & np.isfinite(sol).all(axis=1)
    sol = np.clip(sol, 0.0, None)
    Gs = np.einsum("kij,kj->ki", G, sol)
    f_sol = np.einsum("ki,ki->k", sol, Gs) - 2.0 * np.einsum("ki,ki->k", h, sol)
    accept = feasible & (f_sol <= f + 1e-12 * (1.0 + np.abs(f)))
    return np.where(accept[:, None], sol, w), np.where(accept, f_sol, f)


def _pgd_batch(G, h, tolerance, max_iterations):
    """Projected gradient with BB steps; the fallback path.

    Guaranteed to return a feasible iterate; used for rows whose active-set
    subproblems were singular or cycled.
    """
    K, C = h.shape

    def quad(wv):
        Gw = np.einsum("kij,kj->ki", G, wv)
        return np.einsum("ki,ki->k", wv, Gw) - 2.0 * np.einsum("ki,ki->k", h, wv), Gw

    trace = np.einsum("kii->k", G)
    base_step = 1.0 / np.maximum(2.0 * trace, 1e-30)

    w = np.full((K, C), 1.0 / C)
    f, Gw = quad(w)
    grad = 2.0 * (Gw - h)
    resid, scale = _kkt_residual(w, grad)
    converged = resid <= tolerance * scale
    iterations = np.zeros(K, dtype=np.int64)

    prev_w = None
    prev_grad = None
    for it in range(1, max_iterations + 1):
        if converged.all():
            break
        if prev_w is None:
            alpha = base_step
        else:
            dw = w - prev_w
            dg = grad - prev_grad
            num = np.einsum("ki,ki->k", dw, dw)
            den = np.einsum("ki,ki->k", dw, dg)
            alpha = np.where(den > 1e-30, num / np.maximum(den, 1e-30), base_step)
            alpha = np.clip(alpha, 1e-12, 1e12)
        w_try = project_to_simplex(w - alpha[:, None] * grad)
        f_try, Gw_try = quad(w_try)
        # nonmonotone BB steps are fine, but guard against divergence: fall
        # back to the guaranteed-descent short step when the objective jumps
        bad = f_try > f + 1e-12 * (1.0 + np.abs(f))
        if bad.any():
            w_base = project_to_simplex(w - base_step[:, None] * grad)
            f_base, Gw_base = quad(w_base)
            w_try = np.where(bad[:, None], w_base, w_try)
            f_try = np.where(bad, f_base, f_try)
            Gw_try = np.where(bad[:, None], Gw_base, Gw_try)
        grad_try = 2.0 * (Gw_try - h)
        live = ~converged
        prev_w = np.where(live[:, None], w, prev_w if prev_w is not None else w)
        prev_grad = np.where(
            live[:, None], grad, prev_grad if prev_grad is not None else grad
        )
        w = np.where(live[:, None], w_try, w)
        f = np.where(live, f_try, f)
        grad = np.where(live[:, None], grad_try, grad)
        iterations[live] = it
        resid, scale = _kkt_residual(w, grad)
        converged = converged | (resid <= tolerance * scale)

    w, f = _polish_on_support(G, h, w, f)
    return w, iterations


def solve_gram_batch(G, h, tolerance=1e-8, max_iterations=1000):
    """Solve K simplex least-squares problems given their Gram forms.

    G: (K, C, C), h: (K, C).  Returns (w, iterations, converged) where each
    row of w is a simplex vector.  Round one solves all K rows at once, and
    the final KKT test recomputes the gradient only for fallback rows.
    Every row's result depends only on its own data, so batching K problems
    matches K separate solves bit for bit.
    """
    G = np.ascontiguousarray(G, dtype=np.float64)
    h = np.ascontiguousarray(h, dtype=np.float64)
    K, C = h.shape
    if C == 1:
        return np.ones((K, 1)), np.zeros(K, dtype=np.int64), np.ones(K, dtype=bool)

    w, iterations, solved, grad = _active_set_batch(G, h, tolerance)
    if not solved.all():
        rest = np.nonzero(~solved)[0]
        w_rest, it_rest = _pgd_batch(G[rest], h[rest], tolerance, max_iterations)
        w[rest] = w_rest
        iterations[rest] += it_rest
        grad[rest] = 2.0 * (np.einsum("kij,kj->ki", G[rest], w_rest) - h[rest])

    resid, scale = _kkt_residual(w, grad)
    return w, iterations, resid <= tolerance * scale
