"""Simplex least-squares solver against its brute-force grid oracle."""

import numpy as np
import pytest

from recforest.simplex import project_to_simplex, solve_gram_batch

from reference_solver import SimplexProblem, oracle_solve, solve


def random_problem(rng, max_rows=8, max_models=5, scale=1.0):
    R = int(rng.integers(1, max_rows))
    C = int(rng.integers(1, max_models))
    targets = rng.normal(size=(R, 2)) * scale
    candidates = rng.normal(size=(R, C, 2)) * scale
    return SimplexProblem(targets, candidates)


class TestProjection:
    def test_feasible_point_is_fixed(self):
        w = np.array([[0.2, 0.3, 0.5]])
        np.testing.assert_allclose(project_to_simplex(w), w, atol=1e-15)

    def test_known_values(self):
        np.testing.assert_allclose(
            project_to_simplex(np.array([[0.2, 0.9]])), [[0.15, 0.85]]
        )
        # far outside: snaps to the nearest vertex, exactly
        out = project_to_simplex(np.array([[-1.0, 3.0]]))
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0

    def test_rows_land_on_simplex(self):
        rng = np.random.default_rng(42)
        v = rng.normal(size=(200, 6)) * 10
        w = project_to_simplex(v)
        assert w.min() >= 0.0
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(50, 4))
        w = project_to_simplex(v)
        np.testing.assert_allclose(project_to_simplex(w), w, atol=1e-12)

    def test_is_nearest_feasible_point(self):
        # distance to the projection must not exceed distance to any probe
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=(1, 4)) * 3
            w = project_to_simplex(v)[0]
            probes = rng.dirichlet(np.ones(4), size=200)
            d_w = np.sum((v[0] - w) ** 2)
            d_p = np.sum((v[0][None] - probes) ** 2, axis=1)
            assert d_w <= d_p.min() + 1e-12


class TestSolve:
    def test_single_model_is_trivial(self):
        p = SimplexProblem(np.array([[1.0, 2.0]]), np.array([[[0.5, 0.5]]]))
        s = solve(p)
        np.testing.assert_allclose(s.w, [1.0])
        assert s.converged

    def test_exact_vertex_recovery(self):
        # one candidate reproduces the targets exactly; weight must
        # concentrate there with zero residual
        rng = np.random.default_rng(0)
        targets = rng.normal(size=(6, 2))
        candidates = rng.normal(size=(6, 3, 2))
        candidates[:, 1, :] = targets
        s = solve(SimplexProblem(targets, candidates))
        np.testing.assert_allclose(s.w, [0.0, 1.0, 0.0], atol=1e-9)
        assert s.objective <= 1e-16

    def test_symmetric_midpoint(self):
        # target at the origin, candidates at (-1,0) and (1,0): the best
        # blend is the midpoint, and the third (useless) candidate gets 0
        p = SimplexProblem(
            np.array([[0.0, 0.0]]),
            np.array([[[-1.0, 0.0], [1.0, 0.0], [0.0, 2.0]]]),
        )
        s = solve(p)
        np.testing.assert_allclose(s.w, [0.5, 0.5, 0.0], atol=1e-12)
        assert s.objective == pytest.approx(0.0, abs=1e-15)

    def test_invariants_hold(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = random_problem(rng, max_models=9, scale=float(rng.uniform(0.1, 10)))
            s = solve(p)
            assert s.w.min() >= -1e-9
            assert abs(s.w.sum() - 1.0) <= 1e-9
            direct = p.objective(s.w)
            assert abs(direct - s.objective) <= 1e-9 * (1.0 + abs(direct))

    def test_beats_random_simplex_probes(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = random_problem(rng, max_models=6)
            s = solve(p)
            probes = rng.dirichlet(np.ones(p.model_count), size=100)
            for w in probes:
                assert s.objective <= p.objective(w) + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        p = random_problem(rng, max_models=7)
        a = solve(p)
        b = solve(p)
        assert np.array_equal(a.w, b.w)
        assert a.objective == b.objective

    def test_iteration_cap_returns_instead_of_raising(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, max_models=6)
        s = solve(p, max_iterations=1)
        assert s.w.min() >= -1e-9
        assert abs(s.w.sum() - 1.0) <= 1e-9

    def test_rejects_bad_arguments(self):
        p = SimplexProblem(np.array([[1.0, 2.0]]), np.array([[[0.5, 0.5]]]))
        with pytest.raises(ValueError):
            solve(p, tolerance=0.0)
        with pytest.raises(ValueError):
            solve(p, max_iterations=0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        targets = rng.normal(size=(5, 2))
        candidates = rng.normal(size=(5, 4, 2))
        perm = np.array([2, 0, 3, 1])
        s = solve(SimplexProblem(targets, candidates))
        s_perm = solve(SimplexProblem(targets, candidates[:, perm, :]))
        np.testing.assert_allclose(s_perm.w, s.w[perm], atol=1e-8)


class TestProblemValidation:
    def test_shape_errors(self):
        with pytest.raises(ValueError):
            SimplexProblem(np.zeros((3, 3)), np.zeros((3, 2, 2)))
        with pytest.raises(ValueError):
            SimplexProblem(np.zeros((3, 2)), np.zeros((4, 2, 2)))
        with pytest.raises(ValueError):
            SimplexProblem(np.zeros((0, 2)), np.zeros((0, 2, 2)))

    def test_nonfinite_rejected(self):
        t = np.zeros((2, 2))
        c = np.zeros((2, 2, 2))
        t[0, 0] = np.nan
        with pytest.raises(ValueError):
            SimplexProblem(t, c)


class TestOracle:
    def test_symmetric_case(self):
        p = SimplexProblem(
            np.array([[0.0, 0.0]]),
            np.array([[[-1.0, 0.0], [1.0, 0.0], [0.0, 2.0]]]),
        )
        o = oracle_solve(p, 0.01)
        np.testing.assert_allclose(o.w, [0.5, 0.5, 0.0], atol=1e-12)
        assert o.objective == pytest.approx(0.0, abs=1e-15)

    def test_rejects_large_pools_and_bad_steps(self):
        rng = np.random.default_rng(0)
        p = SimplexProblem(rng.normal(size=(2, 2)), rng.normal(size=(2, 5, 2)))
        with pytest.raises(ValueError):
            oracle_solve(p, 0.1)
        p3 = SimplexProblem(rng.normal(size=(2, 2)), rng.normal(size=(2, 3, 2)))
        with pytest.raises(ValueError):
            oracle_solve(p3, 0.0)
        with pytest.raises(ValueError):
            oracle_solve(p3, 1.5)

    def test_nested_grids_never_get_worse(self):
        # every multiple of 0.1 is a multiple of 0.02, so refining the grid
        # can only lower (or keep) the best objective
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = random_problem(rng, max_models=4)
            coarse = oracle_solve(p, 0.1)
            fine = oracle_solve(p, 0.02)
            assert fine.objective <= coarse.objective + 1e-12

    def test_solver_matches_oracle_on_random_problems(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = random_problem(rng, max_models=5, scale=float(rng.uniform(0.1, 5)))
            s = solve(p)
            o = oracle_solve(p, 0.01)
            assert s.objective <= o.objective + 1e-6 * (1.0 + abs(o.objective))


class TestBatch:
    def test_batch_matches_individual_solves(self):
        rng = np.random.default_rng(11)
        C = 5
        problems = []
        grams, linears = [], []
        for _ in range(40):
            R = int(rng.integers(1, 30))
            p = SimplexProblem(rng.normal(size=(R, 2)), rng.normal(size=(R, C, 2)))
            problems.append(p)
            G, h, _ = p.gram()
            grams.append(G)
            linears.append(h)
        W, _, conv = solve_gram_batch(np.array(grams), np.array(linears))
        assert conv.all()
        for i, p in enumerate(problems):
            np.testing.assert_array_equal(W[i], solve(p).w)

    def test_rows_independent_past_round_one(self, monkeypatch):
        """Interior optima (round one), vertex optima of rounds 2-5, a rank-2
        row that goes to the gradient fallback and a singular row (identical
        candidates, whose system fails): each row's w, iterations and
        converged flag are the same alone, in the batch and reversed."""
        from recforest import simplex

        real_fallback = simplex._pgd_batch
        fallback = []

        def counting(G, h, *args):
            fallback.append(len(h))
            return real_fallback(G, h, *args)

        monkeypatch.setattr(simplex, "_pgd_batch", counting)

        def gram(p):
            G, h, _ = p.gram()
            return G[None], h[None]

        def rounds(p):
            fallback.clear()
            n = int(solve_gram_batch(*gram(p))[1][0])
            return "fallback" if fallback else n

        rng = np.random.default_rng(19)
        C = 5
        x = rng.normal(size=(6, C, 2))
        problems = [SimplexProblem(np.einsum("rcd,c->rd", x, w), x)
                    for w in rng.dirichlet(np.ones(C), size=3)]
        kinds = [2, 2, 3, 3, 4, 4, 5, 5, "fallback"]  # two rows finish in each round
        found = {kind: [] for kind in kinds}
        while any(len(found[kind]) < kinds.count(kind) for kind in kinds):
            R = int(rng.choice([1, 6]))
            p = SimplexProblem(rng.normal(size=(R, 2)) * 4, rng.normal(size=(R, C, 2)))
            n = rounds(p)
            if n in found and len(found[n]) < kinds.count(n):
                found[n].append(p)
        problems += [p for kind in dict.fromkeys(kinds) for p in found[kind]]
        problems.append(SimplexProblem(rng.normal(size=(4, 2)),
                                       np.repeat(rng.normal(size=(4, 1, 2)), C, axis=1)))
        assert [rounds(p) for p in problems] == [1, 1, 1] + kinds + ["fallback"]
        _, _, ok = simplex._eqp_solve(*gram(problems[-1]), np.ones((1, C), dtype=bool))
        assert not ok[0]

        G = np.concatenate([gram(p)[0] for p in problems])
        h = np.concatenate([gram(p)[1] for p in problems])
        alone = [solve_gram_batch(G[k:k + 1], h[k:k + 1]) for k in range(len(problems))]
        forward = solve_gram_batch(G, h)
        backward = solve_gram_batch(G[::-1], h[::-1])
        for k, one in enumerate(alone):
            for batch, row in ((forward, k), (backward, len(problems) - 1 - k)):
                for got, want in zip(batch, one):
                    assert got[row].tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("full_support", [True, False])
    def test_singular_row_isolated_by_halving(self, monkeypatch, full_support):
        """One singular bordered system in a 1,024-row batch costs O(log K)
        solve calls, not one per row, and every row's (w, nu, ok) is bit for
        bit its lone solve."""
        from recforest import simplex

        rng = np.random.default_rng(41)
        K, C, R = 1024, 5, 12
        x = rng.normal(size=(K, R, C))
        x[300, :, 1] = x[300, :, 0]  # identical candidates: a singular system
        G = np.einsum("krc,kre->kce", x, x)
        h = np.einsum("krc,kr->kc", x, rng.normal(size=(K, R)))
        supp = np.ones((K, C), dtype=bool) if full_support else rng.random((K, C)) < 0.7
        supp[:, :2] = True  # the singular row keeps both copies on its support

        real_solve = np.linalg.solve
        calls = []

        def counting(*args):
            calls.append(args[0].shape[0])
            return real_solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting)
        batch = simplex._eqp_solve(G, h, supp)
        assert len(calls) <= 2 * int(np.log2(K)) + 1
        assert not batch[2][300] and batch[2].sum() == K - 1
        for k in range(K):
            alone = simplex._eqp_solve(G[k:k + 1], h[k:k + 1], supp[k:k + 1])
            for got, want in zip(batch, alone):
                assert got[k:k + 1].tobytes() == want.tobytes()
