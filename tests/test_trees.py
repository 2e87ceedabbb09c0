"""Recommendation-tree training: costs, split gains, growth, determinism."""

import logging
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from recforest.data import ModelProtocol, ResponseDataset
from recforest.forest import (
    Leaf,
    RecTrainConfig,
    Split,
    SplitParams,
    _RecCriterion,
    bootstrap_indices,
    train_forest,
)
from recforest.seeds import derive_seed
from recforest.synth import generate, metadata_arrays, preset_config, two_cluster_config

from helpers import (
    evaluate_split,
    fit_node_rating,
    node_cost,
    random_dataset,
    random_masks,
    subset_rows,
    train_tree,
)
from reference_solver import SimplexProblem, oracle_solve, solve


def tiny_dataset(responses, ground_truth, visible, masks, features=None):
    responses = np.asarray(responses, dtype=np.float64)
    M, C, N, _ = responses.shape
    proto = ModelProtocol(np.asarray(masks, dtype=bool))
    gt = np.asarray(ground_truth, dtype=np.float64).copy()
    vis = np.asarray(visible, dtype=bool)
    gt[~vis] = np.nan
    if features is None:
        features = np.zeros((M, proto.feature_count))
    return ResponseDataset(
        protocol=proto,
        responses=responses,
        ground_truth=gt,
        visible=vis,
        features=np.asarray(features, dtype=np.float64),
        normalizer=np.ones(M),
    )


class TestNodeCost:
    def test_exact_response_costs_zero(self):
        gt = [[[1.0, 2.0]]]
        ds = tiny_dataset([[[[1.0, 2.0]]]], gt, [[True]], [[True]])
        assert node_cost([0], ds, [1.0]) == 0.0

    def test_offset_response_costs_squared_norm(self):
        ds = tiny_dataset([[[[4.0, 6.0]]]], [[[1.0, 2.0]]], [[True]], [[True]])
        assert node_cost([0], ds, [1.0]) == pytest.approx(25.0, abs=1e-12)

    def test_mean_over_instances(self):
        # residual norms squared {25, 9} across two single-instance samples
        responses = [[[[4.0, 6.0]]], [[[3.0, 2.0]]]]
        gt = [[[1.0, 2.0]], [[0.0, 2.0]]]
        ds = tiny_dataset(responses, gt, [[True], [True]], [[True]])
        assert node_cost([0, 1], ds, [1.0]) == pytest.approx(17.0, abs=1e-12)

    def test_no_visible_instances_raises(self):
        ds = tiny_dataset(
            np.zeros((2, 1, 2, 2)),
            np.zeros((2, 2, 2)),
            [[True, False], [True, False]],
            [[True, True]],
        )
        with pytest.raises(ValueError):
            node_cost(np.array([], dtype=int), ds, [1.0])

    def test_repeated_indices_weight_instances(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, M=6)
        w = np.full(ds.model_count, 1.0 / ds.model_count)
        doubled = node_cost([0, 0, 1], ds, w)
        manual = (
            2 * node_cost([0], ds, w) * ds.visible[0].sum()
            + node_cost([1], ds, w) * ds.visible[1].sum()
        ) / (2 * ds.visible[0].sum() + ds.visible[1].sum())
        assert doubled == pytest.approx(manual, rel=1e-12)


class TestFitNodeRating:
    def test_exact_model_gets_indicator(self):
        rng = np.random.default_rng(0)
        gt = rng.normal(size=(4, 3, 2))
        responses = rng.normal(size=(4, 3, 3, 2))
        responses[:, 2] = gt  # model 2 reproduces the truth
        ds = tiny_dataset(responses, gt, np.ones((4, 3), bool), np.ones((3, 3), bool))
        w, cost = fit_node_rating(np.arange(4), ds)
        np.testing.assert_allclose(w, [0.0, 0.0, 1.0], atol=1e-9)
        assert cost <= 1e-16

    def test_single_model_pool(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, C=1)
        w, _ = fit_node_rating(np.arange(ds.sample_count), ds)
        np.testing.assert_array_equal(w, [1.0])

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ds = random_dataset(rng, M=int(rng.integers(3, 10)), C=3)
            subset = np.arange(ds.sample_count)
            w, cost = fit_node_rating(subset, ds)
            problem, count = _stacked(subset, ds)
            ref = oracle_solve(problem, 1e-2).objective / count
            assert cost <= ref + 1e-6 * (1.0 + abs(ref))


def _stacked(subset, ds):
    """Independent stacking: explicit loops, no shared library path."""
    targets, candidates = [], []
    for m in subset:
        for n in range(ds.landmark_count):
            if ds.visible[m, n]:
                targets.append(ds.ground_truth[m, n])
                candidates.append(ds.responses[m, :, n, :])
    return SimplexProblem(np.array(targets), np.array(candidates)), len(targets)


class TestEvaluateSplit:
    def _two_group_dataset(self):
        # group A (samples 0..3) fit exactly by model 0, group B by model 1;
        # feature 0 separates the groups
        rng = np.random.default_rng(5)
        gt = rng.normal(size=(8, 2, 2))
        responses = rng.normal(size=(8, 2, 2, 2))
        responses[:4, 0] = gt[:4]
        responses[4:, 1] = gt[4:]
        features = np.zeros((8, 4))
        features[4:, 0] = 1.0
        features[:, 1:] = rng.random((8, 3))
        return tiny_dataset(
            responses, gt, np.ones((8, 2), bool), np.ones((2, 2), bool), features
        )

    def test_perfect_split_gain_equals_parent_cost(self):
        ds = self._two_group_dataset()
        subset = np.arange(8)
        w_parent, parent_cost = fit_node_rating(subset, ds)
        assert parent_cost > 0
        gain, w_l, w_r, left, right = evaluate_split(
            subset, ds, SplitParams(0, 0.5)
        )
        assert gain == pytest.approx(parent_cost, rel=1e-9)
        np.testing.assert_allclose(w_l, [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(w_r, [0.0, 1.0], atol=1e-9)
        np.testing.assert_array_equal(np.sort(np.concatenate([left, right])), subset)

    def test_all_left_is_infeasible_sentinel(self):
        ds = self._two_group_dataset()
        gain, w_l, w_r, left, right = evaluate_split(
            np.arange(8), ds, SplitParams(0, 2.0)
        )
        assert np.isneginf(gain)
        assert w_l is None and w_r is None
        assert right.size == 0

    def test_gain_matches_independent_recomputation(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ds = random_dataset(rng, M=20, C=2)
            subset = np.arange(20)
            f = int(rng.integers(ds.feature_count))
            tau = float(np.median(ds.features[:, f]))
            gain, _, _, left, right = evaluate_split(subset, ds, SplitParams(f, tau))
            if np.isneginf(gain):
                continue
            ref = _reference_gain(subset, left, right, ds)
            assert gain == pytest.approx(ref, abs=1e-9)

    def test_out_of_range_feature_raises(self):
        ds = self._two_group_dataset()
        with pytest.raises(ValueError):
            evaluate_split(np.arange(8), ds, SplitParams(99, 0.5))


def _reference_gain(subset, left, right, ds):
    """Gain recomputed from scratch: explicit stacking, solver, mean costs."""
    costs = {}
    counts = {}
    for name, idx in (("p", subset), ("l", left), ("r", right)):
        problem, count = _stacked(idx, ds)
        sol = solve(problem)
        costs[name] = sol.objective / count
        counts[name] = count
    k = counts["l"] + counts["r"]
    return costs["p"] - (counts["l"] * costs["l"] + counts["r"] * costs["r"]) / k


def _audit_gains(root, subset, ds, report):
    """Compare every split's gain under `root` with `_reference_gain`;
    report["worst"] keeps the largest gap, report["splits"] the count."""
    if isinstance(root, Leaf):
        return
    fi, tau = root.params.feature_index, root.params.threshold
    go_left = ds.features[subset, fi] <= tau
    left, right = subset[go_left], subset[~go_left]
    ref = _reference_gain(subset, left, right, ds)
    report["worst"] = max(report["worst"], abs(root.gain - ref))
    report["splits"] += 1
    _audit_gains(root.left, left, ds, report)
    _audit_gains(root.right, right, ds, report)


class TestTrainTree:
    def test_identical_samples_single_leaf(self):
        rng = np.random.default_rng(2)
        one = random_dataset(rng, M=1, C=2)
        ds = ResponseDataset(
            protocol=one.protocol,
            responses=np.repeat(one.responses, 9, axis=0),
            ground_truth=np.repeat(one.ground_truth, 9, axis=0),
            visible=np.repeat(one.visible, 9, axis=0),
            features=np.repeat(one.features, 9, axis=0),
            normalizer=np.repeat(one.normalizer, 9),
        )
        root = train_tree(ds, RecTrainConfig(min_samples_per_leaf=2),
                          np.random.default_rng(0))
        assert isinstance(root, Leaf)
        assert root.sample_count == 9

    def test_max_depth_zero_single_leaf(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, M=30)
        root = train_tree(ds, RecTrainConfig(max_depth=0), np.random.default_rng(1))
        assert isinstance(root, Leaf)

    def test_two_cluster_root_split_recovers_indicators(self):
        ds, meta = generate(two_cluster_config(sample_count=160, rng_seed=5))
        _, cid = metadata_arrays(meta)
        config = RecTrainConfig(
            max_depth=4,
            min_samples_per_leaf=10,
            candidate_feature_count=ds.feature_count,
            candidate_threshold_count=10,
            rng_seed=5,
        )
        root = train_tree(ds, config, np.random.default_rng(derive_seed(5, "tree", 0)))
        assert isinstance(root, Split)
        go_left = ds.features[:, root.params.feature_index] <= root.params.threshold
        side = cid[go_left]
        other = cid[~go_left]
        assert len(set(side.tolist())) == 1 and len(set(other.tolist())) == 1
        assert side[0] != other[0]
        for child, cluster in ((root.left, side[0]), (root.right, other[0])):
            assert isinstance(child, Leaf)
            expected = np.eye(2)[cluster]
            np.testing.assert_allclose(child.rating, expected, atol=1e-3)


class TestTrainForest:
    def test_single_full_tree_equals_train_tree(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, M=40)
        config = RecTrainConfig(tree_count=1, bootstrap_fraction=1.0, rng_seed=9)
        forest = train_forest(ds, config)
        direct = train_tree(
            ds, config, np.random.default_rng(derive_seed(9, "tree", 0))
        )
        assert forest.trees[0] == direct

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, M=50)
        config = RecTrainConfig(tree_count=3, max_depth=5, min_samples_per_leaf=4,
                                rng_seed=21)
        assert train_forest(ds, config).trees == train_forest(ds, config).trees

    def test_unconverged_solve_warns_and_keeps_iterate(self, monkeypatch, caplog):
        from recforest import forest as module

        real = module.solve_gram_batch

        def first_row_unconverged(G, h, **kwargs):
            w, iterations, converged = real(G, h, **kwargs)
            converged = converged.copy()
            converged[0] = False
            return w, iterations, converged

        ds = random_dataset(np.random.default_rng(10), M=30)
        config = RecTrainConfig(tree_count=1, max_depth=2, rng_seed=4)
        expected = train_forest(ds, config)
        monkeypatch.setattr(module, "solve_gram_batch", first_row_unconverged)
        with caplog.at_level(logging.WARNING, logger="recforest.forest"):
            got = train_forest(ds, config)
        assert got.trees == expected.trees
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings
        assert all("did not converge on 1 of" in r.getMessage() for r in warnings)

    def test_worker_count_does_not_change_forest(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, M=40)
        config = RecTrainConfig(tree_count=4, max_depth=4, rng_seed=2)
        serial = train_forest(ds, config, workers=1)
        parallel = train_forest(ds, config, workers=3)
        assert serial.trees == parallel.trees

    def test_two_cluster_low_error_for_two_seeds(self):
        ds, _ = generate(two_cluster_config(sample_count=200, rng_seed=1))
        for seed in (0, 1):
            config = RecTrainConfig(tree_count=2, max_depth=6,
                                    min_samples_per_leaf=10, rng_seed=seed)
            forest = train_forest(ds, config)
            assert _train_error(forest, ds) <= 1e-2

    def test_monotone_capacity(self):
        ds, _ = generate(two_cluster_config(sample_count=200, rng_seed=2))
        errs = []
        for depth in (0, 2):
            config = RecTrainConfig(tree_count=1, max_depth=depth, rng_seed=3)
            errs.append(_train_error(train_forest(ds, config), ds))
        assert errs[1] <= errs[0]

    def test_no_visible_instances_rejected(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, M=6)
        stripped = ResponseDataset(
            protocol=ds.protocol,
            responses=ds.responses,
            ground_truth=np.full_like(ds.ground_truth, np.nan),
            visible=np.zeros_like(ds.visible),
            features=ds.features,
            normalizer=ds.normalizer,
        )
        with pytest.raises(ValueError):
            train_forest(stripped, RecTrainConfig(tree_count=1))
        with pytest.raises(ValueError, match="node has no visible landmark instances"):
            train_tree(stripped, RecTrainConfig(), np.random.default_rng(0))

    def test_bootstrap_draw_shapes(self):
        config = RecTrainConfig(bootstrap_fraction=1.0)
        np.testing.assert_array_equal(
            bootstrap_indices(config, 7, np.random.default_rng(0)), np.arange(7)
        )
        config = RecTrainConfig(bootstrap_fraction=0.5)
        draw = bootstrap_indices(config, 10, np.random.default_rng(0))
        assert draw.shape == (5,)
        assert draw.min() >= 0 and draw.max() < 10


class TestLockstep:
    """The trees of one process grow together, sharing each simplex solve."""

    CONFIG = RecTrainConfig(tree_count=5, max_depth=5, min_samples_per_leaf=4,
                            rng_seed=5)

    @pytest.mark.parametrize("fraction", [1.0, 0.6])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_tree_does_not_depend_on_batch_mates(self, workers, fraction):
        ds = random_dataset(np.random.default_rng(23), M=60)
        config = replace(self.CONFIG, bootstrap_fraction=fraction)
        five = train_forest(ds, config, workers=workers).trees
        two = train_forest(ds, replace(config, tree_count=2), workers=workers).trees
        assert two == five[:2]

    def test_forest_trees_equal_trees_grown_alone(self):
        ds = random_dataset(np.random.default_rng(23), M=60)
        forest = train_forest(ds, self.CONFIG)
        for t, tree in enumerate(forest.trees):
            rng = np.random.default_rng(derive_seed(self.CONFIG.rng_seed, "tree", t))
            assert train_tree(ds, self.CONFIG, rng) == tree

    def test_fewer_solves_and_no_stats_at_small_nodes(self, monkeypatch):
        from recforest import forest as module

        real_solve = module.solve_gram_batch
        real_stats = module._RecCriterion.mask_stats
        calls = []
        sizes = []

        def counting(G, h, **kwargs):
            calls.append(len(h))
            return real_solve(G, h, **kwargs)

        def recording(self, idx, masks):
            sizes.append(idx.size)
            return real_stats(self, idx, masks)

        monkeypatch.setattr(module, "solve_gram_batch", counting)
        monkeypatch.setattr(module._RecCriterion, "mask_stats", recording)
        ds = random_dataset(np.random.default_rng(29), M=80)
        config = replace(self.CONFIG, tree_count=4)
        forest = train_forest(ds, config)
        together = len(calls)
        calls.clear()
        alone = [
            train_tree(ds, config, np.random.default_rng(
                derive_seed(config.rng_seed, "tree", t)))
            for t in range(config.tree_count)
        ]
        assert alone == forest.trees
        assert together < len(calls)
        assert min(sizes) >= 2 * config.min_samples_per_leaf
        # nodes the cut applies to did occur: leaves above max_depth that
        # hold fewer than 2 * min_samples_per_leaf samples
        small = []
        stack = [(root, 0) for root in forest.trees]
        while stack:
            node, depth = stack.pop()
            if isinstance(node, Split):
                stack += [(node.left, depth + 1), (node.right, depth + 1)]
            elif depth < config.max_depth:
                small.append(node.sample_count < 2 * config.min_samples_per_leaf)
        assert any(small)


def _leaf_count(node):
    """Training samples under `node`: the sum of its leaves' counts."""
    if isinstance(node, Split):
        return _leaf_count(node.left) + _leaf_count(node.right)
    return node.sample_count


class TestLevelGrowth:
    """Each depth of a tree draws from its own stream, and a node solves
    each candidate partition once."""

    @pytest.mark.parametrize("fraction", [1.0, 0.6])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_shallow_tree_is_the_deep_tree_cut(self, depth, fraction):
        ds = random_dataset(np.random.default_rng(31), M=150)
        config = RecTrainConfig(tree_count=3, max_depth=depth + 3, min_samples_per_leaf=3,
                                bootstrap_fraction=fraction, rng_seed=11)
        deep = train_forest(ds, config).trees
        shallow = train_forest(ds, replace(config, max_depth=depth)).trees
        cut = 0
        stack = [(short, full, 0) for short, full in zip(shallow, deep)]
        while stack:
            short, full, d = stack.pop()
            if d == depth:
                assert isinstance(short, Leaf)
                assert short.sample_count == _leaf_count(full)
                cut += isinstance(full, Split)
            elif isinstance(short, Split):
                assert isinstance(full, Split)
                assert (short.params, short.gain) == (full.params, full.gain)
                stack += [(short.left, full.left, d + 1),
                          (short.right, full.right, d + 1)]
            else:
                assert short == full
        assert cut  # the deep trees do split below the cut

    def test_no_partition_solved_twice(self, monkeypatch):
        """A partition may reach `mask_stats` once per feature that makes it:
        two candidates of one feature with the same left count are one."""
        from recforest import classforest
        from recforest import forest as module

        calls = []
        for criterion in (module._RecCriterion, classforest._ClassCriterion):
            def recording(self, idx, masks, real=criterion.mask_stats):
                calls.append((type(self), idx, masks.copy()))
                return real(self, idx, masks)

            monkeypatch.setattr(criterion, "mask_stats", recording)
        ds = random_dataset(np.random.default_rng(37), M=150)
        config = RecTrainConfig(tree_count=2, max_depth=6, min_samples_per_leaf=3,
                                candidate_threshold_count=20, rng_seed=3)
        train_forest(ds, config)
        classforest.train_class_forest(ds, np.arange(150) % ds.model_count, config)
        assert {kind for kind, _, _ in calls} == {module._RecCriterion,
                                                 classforest._ClassCriterion}
        for _, idx, masks in calls:
            rows, counts = np.unique(masks, axis=0, return_counts=True)
            vals = ds.features[idx]
            for row, k in zip(rows[counts > 1], counts[counts > 1]):
                inside = np.where(row[:, None], vals, -np.inf).max(axis=0)
                outside = np.where(row[:, None], np.inf, vals).min(axis=0)
                # the features with a threshold that makes `row`
                assert (inside < outside).sum() >= k


class TestFitBatchSize:
    """How many nodes share a `fit_batch` changes only the speed."""

    @pytest.mark.parametrize("fraction", [1.0, 0.6])
    def test_trees_do_not_depend_on_fit_rows(self, monkeypatch, fraction):
        from recforest import classforest
        from recforest import forest as module

        real_fit = module._RecCriterion.fit_batch
        fits = []

        def counting(self, stats):
            fits.append(len(stats[-1]))
            return real_fit(self, stats)

        monkeypatch.setattr(module._RecCriterion, "fit_batch", counting)
        ds = random_dataset(np.random.default_rng(41), M=300)
        labels = np.arange(300) % ds.model_count
        # 2 * Q = 2 * 3 * 50 candidate rows a node: 6 nodes a batch by default
        config = RecTrainConfig(tree_count=4, max_depth=7, min_samples_per_leaf=3,
                                candidate_feature_count=3, candidate_threshold_count=50,
                                bootstrap_fraction=fraction, rng_seed=13)

        def grow():
            fits.clear()
            return (train_forest(ds, config).trees,
                    classforest.train_class_forest(ds, labels, config).trees, len(fits))

        rec, cls, calls = grow()
        counts = []
        for rows in (1, 1 << 20):
            monkeypatch.setattr(module, "_FIT_ROWS", rows)
            rec_other, cls_other, n = grow()
            assert rec_other == rec and cls_other == cls
            counts.append(n)
        # one node per batch, the default groups and one batch per level
        assert counts[0] > calls > counts[1]


@pytest.mark.parametrize("draw", ["fold", "bootstrap"])
def test_subset_criterion_is_the_full_criterions_rows(draw):
    """What lets one criterion serve every cross-validation fold."""
    ds = random_dataset(np.random.default_rng(41), M=90)
    rows = subset_rows(draw, ds.sample_count)
    full = _RecCriterion(ds)
    part = _RecCriterion(ds.subset(rows))
    for name in ("E", "inst"):
        assert np.array_equal(getattr(part, name), getattr(full, name)[rows])


@pytest.mark.parametrize("draw", ["fold", "bootstrap"])
def test_mask_stats_match_direct_sums(draw):
    """Right children come by subtraction from the node total; they must
    match direct masked sums over the complement masks."""
    ds = random_dataset(np.random.default_rng(43), M=90)
    criterion = _RecCriterion(ds)
    rng = np.random.default_rng(47)
    for seed in range(5):
        idx = subset_rows(draw, ds.sample_count, seed=seed)
        masks = random_masks(rng, idx.size)
        Q = len(masks)
        got = criterion.mask_stats(idx, masks)
        for half, m in ((slice(None, Q), masks), (slice(Q, None), ~masks)):
            w = m.astype(np.float64)
            rows = criterion.E[idx]
            direct = np.einsum("qs,s...->q...", w, rows)
            scale = np.abs(rows.sum(axis=0)).max()
            assert np.abs(got[0][half] - direct).max() <= 1e-12 * scale
            assert np.array_equal(got[1][half], w @ criterion.inst[idx])
            assert np.array_equal(got[2][half], m.sum(axis=1))


# criterion 3's training config, on pixel-scale coordinates
_AUDIT_CONFIG = RecTrainConfig(tree_count=2, max_depth=4, min_samples_per_leaf=5, rng_seed=13)


@pytest.mark.parametrize("offset", [100.0, 1000.0])
def test_gains_stay_exact_far_from_the_origin(offset, caplog):
    """Shifting every response and ground-truth point moves no residual, so
    criterion 3's gain audit must hold at its own bound, and every solver
    row must converge, however far the points lie from the origin."""
    ds, _ = generate(preset_config("aflw-like-5view", sample_count=600))
    moved = replace(ds, responses=ds.responses + offset,
                    ground_truth=ds.ground_truth + offset)
    with caplog.at_level(logging.WARNING, logger="recforest.forest"):
        forest = train_forest(moved, _AUDIT_CONFIG)
    report = {"worst": 0.0, "splits": 0}
    for root in forest.trees:
        _audit_gains(root, np.arange(moved.sample_count), moved, report)
    assert report["splits"] >= 1 and report["worst"] <= 1e-9, report
    assert "did not converge" not in caplog.text


def _tree_layout(node, shape, ratings):
    """Preorder (feature, threshold) per split and sample count per leaf into
    `shape`, and the leaf ratings into `ratings`."""
    if isinstance(node, Split):
        shape.append((node.params.feature_index, node.params.threshold))
        _tree_layout(node.left, shape, ratings)
        _tree_layout(node.right, shape, ratings)
    else:
        shape.append(node.sample_count)
        ratings.append(node.rating)
    return shape, ratings


def test_rigid_motion_per_sample_keeps_trees_and_ratings():
    """Rotating and translating a sample's responses and ground truth
    together keeps every residual's length, so each tree keeps its splits
    and its leaf ratings up to rounding."""
    ds, _ = generate(preset_config("aflw-like-5view", sample_count=600))
    rng = np.random.default_rng(61)
    angle = rng.uniform(0.0, 2.0 * math.pi, ds.sample_count)
    cos, sin = np.cos(angle), np.sin(angle)
    rot = np.stack([np.stack([cos, -sin], axis=-1), np.stack([sin, cos], axis=-1)], axis=-2)
    shift = rng.uniform(-300.0, 300.0, (ds.sample_count, 2))
    moved = replace(
        ds,
        responses=np.einsum("mij,mcnj->mcni", rot, ds.responses) + shift[:, None, None],
        ground_truth=np.einsum("mij,mnj->mni", rot, ds.ground_truth) + shift[:, None],
    )
    drift = 0.0
    for still, turned in zip(train_forest(ds, _AUDIT_CONFIG).trees,
                             train_forest(moved, _AUDIT_CONFIG).trees):
        shape, ratings = _tree_layout(still, [], [])
        turned_shape, turned_ratings = _tree_layout(turned, [], [])
        assert turned_shape == shape
        drift = max(drift, np.abs(np.array(turned_ratings) - np.array(ratings)).max())
    assert drift <= 1e-12


_TRAIN_AND_SAVE = """
import sys
from recforest.forest import RecTrainConfig, train_forest
from recforest.serialize import save_forest
from recforest.synth import generate, preset_config
ds, _ = generate(preset_config("aflw-like-5view", sample_count=400))
save_forest(train_forest(ds, RecTrainConfig(tree_count=3)), sys.argv[1])
"""


def test_blas_thread_count_does_not_change_forest(tmp_path):
    """Node statistics are a BLAS product large enough for OpenBLAS to split
    across threads; the forest file must not depend on how it splits."""
    import recforest

    src = os.path.dirname(os.path.dirname(os.path.abspath(recforest.__file__)))
    files = []
    for threads in ("1", "2"):
        path = tmp_path / ("forest-%s-threads.json" % threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _TRAIN_AND_SAVE, str(path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        files.append(path.read_bytes())
    assert files[0] == files[1]


_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")
_BLAS_SETTERS = tuple(name.replace("_get_", "_set_") for name in _BLAS_GETTERS)


def _blas_threads():
    from recforest.forest import _openblas_functions

    return [get() for get in _openblas_functions(_BLAS_GETTERS)]


def test_pool_workers_run_one_blas_thread():
    """`_share` gives each pool worker one BLAS thread and leaves the calling
    process's setting alone."""
    from concurrent.futures import ProcessPoolExecutor

    from recforest.forest import _openblas_functions, _share

    setters = _openblas_functions(_BLAS_SETTERS)
    before = _blas_threads()
    if not before or len(setters) != len(before):
        pytest.skip("no OpenBLAS thread-count functions found")
    try:
        for set_threads in setters:
            set_threads(2)
        if _blas_threads() != [2] * len(before):
            pytest.skip("OpenBLAS cannot run two threads here")
        with ProcessPoolExecutor(max_workers=1, initializer=_share,
                                 initargs=({}, None)) as pool:
            assert pool.submit(_blas_threads).result() == [1] * len(before)
        assert _blas_threads() == [2] * len(before)
    finally:
        for set_threads, count in zip(setters, before):
            set_threads(count)


def test_pool_reuses_the_first_blas_lookup(monkeypatch):
    """The OpenBLAS setters are looked up once in a process, before its first
    pool starts; a later pool's forked workers inherit them."""
    from recforest import forest as module

    ds = random_dataset(np.random.default_rng(55), M=40)
    config = RecTrainConfig(tree_count=2, max_depth=3, rng_seed=5)
    expected = train_forest(ds, config, workers=2).trees

    def looked_up_again(names):
        raise AssertionError("OpenBLAS looked up again")

    monkeypatch.setattr(module, "_openblas_functions", looked_up_again)
    assert train_forest(ds, config, workers=2).trees == expected


def test_pool_forests_are_released_once_read():
    """`_grow_forests` keeps no pool result once its trees are read: after
    forest k comes back, every forest before k - 1 is garbage."""
    import gc
    import weakref

    from recforest.forest import _grow_forests

    ds = random_dataset(np.random.default_rng(57), M=40)
    rows = np.arange(ds.sample_count)
    jobs = [("", RecTrainConfig(tree_count=2, max_depth=3, rng_seed=s), rows)
            for s in range(5)]
    refs = []
    for k, trees in enumerate(_grow_forests({"": _RecCriterion(ds)}, ds.features, jobs, 2)):
        refs.append([weakref.ref(root) for root in trees])
        del trees
        gc.collect()
        assert all(ref() is None for old in refs[:max(0, k - 1)] for ref in old), k
    assert len(refs) == len(jobs)


def test_all_feasible_fit_batch_solves_the_stats_uncopied(monkeypatch):
    """With every candidate row feasible, `fit_batch` hands the solver the
    error Grams themselves, C-contiguous, so it copies nothing."""
    from recforest import forest as module

    ds = random_dataset(np.random.default_rng(59), M=40, full_cover=True)
    criterion = _RecCriterion(ds)
    idx = np.arange(ds.sample_count)
    masks = np.arange(ds.sample_count)[None, :] < np.array([[10], [20], [30]])
    stats = tuple(map(np.concatenate, zip(*(criterion.mask_stats(idx, m)
                                            for m in (masks, masks[::-1])))))
    real, seen = module.solve_gram_batch, []

    def spy(G, h):
        seen.append((G, h))
        return real(G, h)

    monkeypatch.setattr(module, "solve_gram_batch", spy)
    _, _, feasible, _ = criterion.fit_batch(stats)
    assert feasible.all() and len(seen) == 1
    G, _ = seen[0]
    assert np.shares_memory(G, stats[0])
    assert G.flags.c_contiguous


def _train_error(forest, ds):
    from recforest.forest import predict_many

    landmarks, _, _ = predict_many(forest, ds.responses, ds.features)
    d = np.linalg.norm(landmarks - ds.ground_truth, axis=2)
    errs = [
        np.mean(d[m, ds.visible[m]]) / ds.normalizer[m]
        for m in range(ds.sample_count)
        if ds.visible[m].any()
    ]
    return float(np.mean(errs))


class TestGainAudit:
    """Every accepted split's stored gain must match an independent walker."""

    def _audit(self, root, subset, ds):
        if isinstance(root, Leaf):
            assert root.sample_count == subset.size
            return 1
        go_left = ds.features[subset, root.params.feature_index] <= root.params.threshold
        left, right = subset[go_left], subset[~go_left]
        ref = _reference_gain(subset, left, right, ds)
        assert root.gain == pytest.approx(ref, abs=1e-9)
        # refit dominance: optimized children never cost more than the parent
        k_l = int(ds.visible[left].sum())
        k_r = int(ds.visible[right].sum())
        _, c_p = fit_node_rating(subset, ds)
        _, c_l = fit_node_rating(left, ds)
        _, c_r = fit_node_rating(right, ds)
        assert (k_l * c_l + k_r * c_r) / (k_l + k_r) <= c_p + 1e-9
        return self._audit(root.left, left, ds) + self._audit(root.right, right, ds)

    def test_trained_tree_gains_and_partition(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, M=60, C=3, N=6)
        config = RecTrainConfig(
            tree_count=2, max_depth=4, min_samples_per_leaf=5, rng_seed=31
        )
        forest = train_forest(ds, config)
        for root in forest.trees:
            leaves = self._audit(root, np.arange(ds.sample_count), ds)
            assert leaves >= 1

    def test_accepted_gains_exceed_min_gain(self):
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, M=50)
        config = RecTrainConfig(tree_count=2, max_depth=5, min_gain=1e-9, rng_seed=7)
        forest = train_forest(ds, config)

        def walk(node):
            if isinstance(node, Split):
                assert node.gain > config.min_gain
                walk(node.left)
                walk(node.right)

        for root in forest.trees:
            walk(root)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        for bad in (
            dict(tree_count=0),
            dict(max_depth=-1),
            dict(min_samples_per_leaf=0),
            dict(candidate_feature_count=0),
            dict(candidate_threshold_count=0),
            dict(min_gain=-1.0),
            dict(bootstrap_fraction=0.0),
            dict(bootstrap_fraction=1.5),
            dict(tree_count=1.5),
            dict(tree_count=True),
            dict(rng_seed=0.5),
            dict(min_samples_per_leaf=2.5),
            dict(max_depth=None),
            dict(candidate_feature_count=2.0),
            dict(candidate_threshold_count=2.5),
            dict(candidate_threshold_count=np.bool_(True)),
            dict(min_gain="x"),
            dict(bootstrap_fraction=None),
            dict(min_gain=math.inf),
        ):
            with pytest.raises(ValueError):
                RecTrainConfig(**bad).validate()
        RecTrainConfig(tree_count=np.int64(2), candidate_feature_count=np.uint8(3),
                       rng_seed=np.int32(7), min_gain=np.float32(0.1)).validate()

    def test_split_params_validation(self):
        with pytest.raises(ValueError):
            SplitParams(-1, 0.0)
        with pytest.raises(ValueError):
            SplitParams(0, float("nan"))
