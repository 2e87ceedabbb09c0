"""Classification-forest baseline: labels, entropy, both inference modes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from recforest.classforest import (
    _ClassCriterion,
    derive_labels,
    entropy,
    predict_posterior_rating_many,
    predict_top_vote_many,
    train_class_forest,
)
from recforest.data import ModelProtocol, ResponseDataset
from recforest.forest import (
    Leaf,
    RecForest,
    RecTrainConfig,
    Split,
    predict_many,
)
from recforest.synth import GenConfig, generate, metadata_arrays, two_cluster_config

from helpers import (
    class_mask_stats_direct,
    random_dataset,
    random_masks,
    subset_rows,
    top_vote_oracle,
    tree_votes,
)


class TestEntropy:
    def test_pure_labels_zero(self):
        assert entropy([2, 2, 2, 2], 4) == 0.0

    def test_balanced_binary_ln2(self):
        assert entropy([0, 1], 2) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_three_one_split(self):
        # 3:1 split, hand expression first, then the frozen decimal
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        got = entropy([0, 0, 0, 1], 2)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.5623351446188083, abs=1e-4)

    def test_range_and_purity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            C = int(rng.integers(2, 6))
            labels = rng.integers(0, C, size=int(rng.integers(1, 40)))
            h = entropy(labels, C)
            assert 0.0 <= h <= math.log(C) + 1e-12
            assert (h == 0.0) == (np.unique(labels).size == 1)

    def test_unused_classes_ignored(self):
        # padding the class count must not change the value
        assert entropy([0, 1], 5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            entropy([], 3)

    @pytest.mark.parametrize("labels, class_count", [
        (np.array([0.2, 1.9, 1.2]), 3),
        ([True, False], 2),
        (np.array([0, 5]), 3),
        (np.array([-1, 0]), 2),
        ([0, True, 2], 3),
        (np.array([0, True, 2], dtype=object), 3),
        ([0, 2 ** 70], 3),
    ])
    def test_labels_must_be_class_indices(self, labels, class_count):
        with pytest.raises(ValueError, match="^labels (must be integer|out of range)"):
            entropy(labels, class_count)


def _fit_dataset(rng, M=10, C=3, N=4):
    """Dataset where derive_labels has an unambiguous fallback answer."""
    ds = random_dataset(rng, M=M, C=C, N=N)
    return ds


class TestDeriveLabels:
    def test_exact_fit_wins(self):
        rng = np.random.default_rng(0)
        base = _fit_dataset(rng)
        responses = base.responses.copy()
        responses[:, 2] = np.where(
            base.visible[:, :, None], base.ground_truth, 0.0
        )
        ds = ResponseDataset(
            protocol=base.protocol,
            responses=responses,
            ground_truth=base.ground_truth,
            visible=base.visible,
            features=base.features,
            normalizer=base.normalizer,
        )
        labels = derive_labels(ds)
        assert np.array_equal(labels, np.full(ds.sample_count, 2))

    def test_tie_takes_smallest_index(self):
        masks = np.ones((3, 2), dtype=bool)
        proto = ModelProtocol(masks)
        gt = np.zeros((1, 2, 2))
        responses = np.zeros((1, 3, 2, 2))
        responses[0, 0] += 1.0   # total sq error 8
        responses[0, 2] -= 1.0   # total sq error 8, same as model 0
        responses[0, 1] += 2.0   # clearly worse
        ds = ResponseDataset(
            protocol=proto,
            responses=responses,
            ground_truth=gt,
            visible=np.ones((1, 2), dtype=bool),
            features=np.zeros((1, proto.feature_count)),
            normalizer=np.ones(1),
        )
        assert derive_labels(ds)[0] == 0

    def test_only_visible_landmarks_count(self):
        masks = np.ones((2, 2), dtype=bool)
        proto = ModelProtocol(masks)
        gt = np.zeros((1, 2, 2))
        gt[0, 1] = np.nan  # landmark 1 hidden
        visible = np.array([[True, False]])
        responses = np.zeros((1, 2, 2, 2))
        responses[0, 0, 0] = 0.1    # small error where it matters
        responses[0, 0, 1] = 50.0   # huge error at the hidden landmark
        responses[0, 1, 0] = 1.0
        ds = ResponseDataset(
            protocol=proto,
            responses=responses,
            ground_truth=gt,
            visible=visible,
            features=np.zeros((1, proto.feature_count)),
            normalizer=np.ones(1),
        )
        assert derive_labels(ds)[0] == 0

    def test_matches_argmin_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ds = _fit_dataset(rng, M=8, C=4, N=5)
            labels = derive_labels(ds)
            for m in range(ds.sample_count):
                totals = []
                for c in range(ds.model_count):
                    err = 0.0
                    for n in range(ds.landmark_count):
                        if ds.visible[m, n]:
                            d = ds.responses[m, c, n] - ds.ground_truth[m, n]
                            err += float(d @ d)
                    totals.append(err)
                assert labels[m] == int(np.argmin(totals))

    def test_cluster_id_passthrough(self):
        rng = np.random.default_rng(3)
        ds = _fit_dataset(rng, M=6, C=3)
        cid = np.array([0, 1, 2, 2, 1, 0])
        assert np.array_equal(derive_labels(ds, cid), cid)
        with pytest.raises(ValueError):
            derive_labels(ds, cid[:4])
        with pytest.raises(ValueError):
            derive_labels(ds, np.array([0, 1, 2, 3, 1, 0]))


class TestTraining:
    def test_pure_labels_single_leaf(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, M=9, C=3)
        forest = train_class_forest(
            ds, np.ones(9, dtype=np.int64),
            RecTrainConfig(tree_count=3, rng_seed=1),
        )
        for root in forest.trees:
            assert isinstance(root, Leaf)
            assert root.sample_count == 9
            assert np.array_equal(root.rating, [0.0, 1.0, 0.0])

    def test_two_cluster_separable(self):
        ds, meta = generate(two_cluster_config(200))
        _, cid = metadata_arrays(meta)
        forest = train_class_forest(
            ds, derive_labels(ds, cid),
            RecTrainConfig(tree_count=1, max_depth=6,
                           min_samples_per_leaf=4, rng_seed=2),
        )
        root = forest.trees[0]
        assert isinstance(root, Split)
        # every leaf should be pure: posterior an exact indicator
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, Split):
                stack.extend((node.left, node.right))
            else:
                assert np.isin(node.rating, (0.0, 1.0)).all()

    def test_same_seed_same_forest(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, M=30, C=3)
        labels = derive_labels(ds)
        config = RecTrainConfig(tree_count=4, max_depth=4, rng_seed=21)
        a = train_class_forest(ds, labels, config)
        b = train_class_forest(ds, labels, config)
        assert a.trees == b.trees

    def test_label_validation(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, M=6, C=3)
        config = RecTrainConfig(tree_count=1)
        with pytest.raises(ValueError):
            train_class_forest(ds, np.zeros(5, dtype=np.int64), config)
        with pytest.raises(ValueError):
            train_class_forest(ds, np.full(6, 3, dtype=np.int64), config)
        for bad in (np.full(6, 0.7), np.zeros(6), np.zeros(6, dtype=bool),
                    [0, 1, True, 2, 0, 1], np.array([0, 1, 2, False, 0, 1], dtype=object)):
            with pytest.raises(ValueError, match="labels must be integer model indices"):
                train_class_forest(ds, bad, config)
            with pytest.raises(ValueError, match="cluster_id must be integer model indices"):
                derive_labels(ds, bad)
        # an empty list is no label array of the wrong type, only of the wrong length
        with pytest.raises(ValueError, match="cluster_id length"):
            derive_labels(ds, [])
        assert derive_labels(ds, np.arange(6, dtype=np.uint8) % 3).dtype == np.int64


def _leaf_forest(proto, posterior, gamma=0.5):
    return RecForest(
        trees=[Leaf(rating=posterior, sample_count=4)],
        protocol=proto,
        gamma=gamma,
        kind="classification",
    )


class TestLockstep:
    CONFIG = RecTrainConfig(tree_count=5, max_depth=5, min_samples_per_leaf=4,
                            rng_seed=5)

    @pytest.mark.parametrize("fraction", [1.0, 0.6])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_tree_does_not_depend_on_batch_mates(self, workers, fraction):
        ds = random_dataset(np.random.default_rng(23), M=60)
        labels = derive_labels(ds)
        config = replace(self.CONFIG, bootstrap_fraction=fraction)
        five = train_class_forest(ds, labels, config, workers=workers).trees
        two = train_class_forest(
            ds, labels, replace(config, tree_count=2), workers=workers
        ).trees
        assert two == five[:2]

    def test_no_stats_at_small_nodes(self, monkeypatch):
        from recforest import classforest as module

        real_stats = module._ClassCriterion.mask_stats
        sizes = []

        def recording(self, idx, masks):
            sizes.append(idx.size)
            return real_stats(self, idx, masks)

        monkeypatch.setattr(module._ClassCriterion, "mask_stats", recording)
        ds = random_dataset(np.random.default_rng(29), M=80)
        train_class_forest(ds, derive_labels(ds), self.CONFIG)
        assert sizes
        assert min(sizes) >= 2 * self.CONFIG.min_samples_per_leaf


@pytest.mark.parametrize("draw", ["fold", "bootstrap"])
def test_subset_criterion_is_the_full_criterions_rows(draw):
    """What lets one criterion serve every cross-validation fold."""
    ds = random_dataset(np.random.default_rng(41), M=90)
    labels = derive_labels(ds)
    rows = subset_rows(draw, ds.sample_count)
    full = _ClassCriterion(labels, ds.model_count)
    part = _ClassCriterion(labels[rows], ds.model_count)
    assert np.array_equal(part.one_hot, full.one_hot[rows])


@pytest.mark.parametrize("draw", ["fold", "bootstrap"])
def test_mask_stats_match_direct_sums(draw):
    """Label counts are exact, so right children by subtraction are too."""
    ds = random_dataset(np.random.default_rng(43), M=90)
    criterion = _ClassCriterion(derive_labels(ds), ds.model_count)
    rng = np.random.default_rng(47)
    for seed in range(5):
        idx = subset_rows(draw, ds.sample_count, seed=seed)
        masks = random_masks(rng, idx.size)
        got = criterion.mask_stats(idx, masks)
        for stat, direct in zip(got, class_mask_stats_direct(criterion, idx, masks)):
            assert np.array_equal(stat, direct)


@pytest.mark.parametrize("fraction", [1.0, 0.6])
def test_forest_equals_forest_grown_on_direct_sums(monkeypatch, fraction):
    ds, meta = generate(GenConfig(sample_count=300, rng_seed=3))
    _, labels = metadata_arrays(meta)
    config = RecTrainConfig(tree_count=4, max_depth=6, min_samples_per_leaf=4,
                            bootstrap_fraction=fraction, rng_seed=5)
    forest = train_class_forest(ds, labels, config)
    monkeypatch.setattr(_ClassCriterion, "mask_stats", class_mask_stats_direct)
    assert train_class_forest(ds, labels, config) == forest


class TestTopVote:
    def test_winner_responses_verbatim(self):
        masks = np.array([[True, True], [True, False]])
        proto = ModelProtocol(masks)  # slots: (0,0),(0,1),(1,0)
        forest = _leaf_forest(proto, [0.2, 0.8], gamma=0.5)
        responses = np.arange(8, dtype=float).reshape(1, 2, 2, 2)
        features = np.array([[0.9, 0.3, 0.7]])
        landmarks, conf, flags = predict_top_vote_many(forest, responses, features)
        assert np.array_equal(landmarks[0], responses[0, 1])
        # model 1 marks only landmark 0; its score sits in slot 2
        assert np.array_equal(conf[0], [0.7, 0.0])
        assert np.array_equal(flags[0], [True, False])

    def test_majority_and_tie_rule(self):
        masks = np.ones((2, 1), dtype=bool)
        proto = ModelProtocol(masks)
        leaf0 = Leaf(rating=[0.9, 0.1], sample_count=1)
        leaf1 = Leaf(rating=[0.1, 0.9], sample_count=1)
        responses = np.array([[[[1.0, 1.0]], [[5.0, 5.0]]]])
        features = np.array([[0.6, 0.6]])
        majority = RecForest(trees=[leaf0, leaf0, leaf1], protocol=proto,
                             kind="classification")
        landmarks, _, _ = predict_top_vote_many(majority, responses, features)
        assert np.array_equal(landmarks[0], [[1.0, 1.0]])
        tied = RecForest(trees=[leaf1, leaf0], protocol=proto, kind="classification")
        landmarks, _, _ = predict_top_vote_many(tied, responses, features)
        assert np.array_equal(landmarks[0], [[1.0, 1.0]])

    def test_confidence_clamped(self):
        masks = np.ones((2, 1), dtype=bool)
        proto = ModelProtocol(masks)
        forest = _leaf_forest(proto, [1.0, 0.0])
        responses = np.zeros((1, 2, 1, 2))
        landmarks, conf, _ = predict_top_vote_many(
            forest, responses, np.array([[1.4, 0.2]])
        )
        assert conf[0, 0] == 1.0

    def test_negative_zero_reads_zero_as_in_every_blend(self):
        # the one-hot blend adds the other models' +0.0 terms
        proto = ModelProtocol(np.ones((2, 1), dtype=bool))
        forest = _leaf_forest(proto, [1.0, 0.0])
        responses = np.array([[[[-0.0, 2.0]], [[-3.0, 0.0]]]])
        landmarks, conf, _ = predict_top_vote_many(
            forest, responses, np.array([[-0.0, 0.4]])
        )
        assert np.array_equal(landmarks, [[[0.0, 2.0]]]) and conf[0, 0] == 0.0
        assert not np.signbit(landmarks).any() and not np.signbit(conf).any()

    def test_shape_validation(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, M=4, C=3)
        forest = train_class_forest(
            ds, derive_labels(ds), RecTrainConfig(tree_count=1)
        )
        with pytest.raises(ValueError):
            predict_top_vote_many(forest, ds.responses[:, :2], ds.features)
        with pytest.raises(ValueError):
            predict_top_vote_many(forest, ds.responses, ds.features[:, :-1])


@pytest.mark.parametrize("source", ["random", "generator"])
def test_top_vote_matches_per_sample_oracle_bit_for_bit(source):
    if source == "random":
        ds = random_dataset(np.random.default_rng(21), M=120, C=4, N=6)
        labels = derive_labels(ds)
    else:
        ds, meta = generate(GenConfig(sample_count=300, rng_seed=4))
        labels = metadata_arrays(meta)[1]
    config = RecTrainConfig(tree_count=4, max_depth=4, min_samples_per_leaf=3, rng_seed=2)
    forest = train_class_forest(ds, labels, config)
    votes = tree_votes(forest, ds.features)
    assert ((votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
    got = predict_top_vote_many(forest, ds.responses, ds.features)
    want = top_vote_oracle(forest, ds.responses, ds.features)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


class TestPosteriorRating:
    def test_even_posterior_averages_responses(self):
        masks = np.ones((2, 1), dtype=bool)
        proto = ModelProtocol(masks)
        forest = _leaf_forest(proto, [0.5, 0.5])
        responses = np.array([[[[0.0, 0.0]], [[2.0, 2.0]]]])
        features = np.array([[0.8, 0.4]])
        landmarks, conf, _ = predict_posterior_rating_many(
            forest, responses, features
        )
        assert np.allclose(landmarks[0], [[1.0, 1.0]], atol=1e-12)
        assert conf[0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_indicator_posterior_matches_top_vote(self):
        # a forest certain of one model must agree with the hard vote
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, M=6, C=3, full_cover=True)
        forest = _leaf_forest(ds.protocol, [0.0, 1.0, 0.0], gamma=0.3)
        soft = predict_posterior_rating_many(forest, ds.responses, ds.features)
        hard = predict_top_vote_many(forest, ds.responses, ds.features)
        for a, b in zip(soft, hard):
            assert np.allclose(a, b, atol=1e-12)

    def test_same_blend_path_as_recommendation_forest(self):
        # posterior-as-rating must equal a recommendation forest holding
        # the same trees, whose leaf ratings are the posteriors
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, M=40, C=3)
        labels = derive_labels(ds)
        cls = train_class_forest(
            ds, labels,
            RecTrainConfig(tree_count=3, max_depth=4, rng_seed=17),
        )
        rec = RecForest(
            trees=list(cls.trees),
            protocol=cls.protocol,
            gamma=cls.gamma,
        )
        ours = predict_posterior_rating_many(cls, ds.responses, ds.features)
        theirs = predict_many(rec, ds.responses, ds.features)
        for a, b in zip(ours, theirs):
            assert np.array_equal(a, b)


class TestMirrorConfusability:
    def test_posterior_spreads_over_mirror_pair_more_often(self):
        # symmetric pool: a mirror pair at +-60 plus two middle models;
        # occlusion keeps the class signal ambiguous between the mirror
        # clusters while the rating criterion can hedge onto the middles
        from recforest.forest import aggregate_rating, train_forest

        cfg = GenConfig(
            sample_count=900,
            landmark_count=10,
            cluster_centers=(-60.0, -20.0, 20.0, 60.0),
            cluster_half_width=20.0,
            in_noise=0.02,
            out_noise_slope=0.002,
            score_sharpness=3.0,
            score_noise=0.40,
            occlusion_rate=0.30,
            in_cluster_only=True,
            rng_seed=0,
        )
        ds, meta = generate(cfg)
        _, cid = metadata_arrays(meta)
        train = ds.subset(np.arange(600))
        test = ds.subset(np.arange(600, 900))
        config = RecTrainConfig(
            tree_count=5, max_depth=5, min_samples_per_leaf=8, rng_seed=3
        )
        rec = train_forest(train, config)
        cls = train_class_forest(train, derive_labels(train, cid[:600]), config)
        mirror = np.nonzero((cid[600:] == 0) | (cid[600:] == 3))[0]
        W_rec = aggregate_rating(rec.trees, test.features[mirror], 4)
        W_post = aggregate_rating(cls.trees, test.features[mirror], 4)
        joint_rec = int(np.sum((W_rec[:, 0] > 0.2) & (W_rec[:, 3] > 0.2)))
        joint_post = int(np.sum((W_post[:, 0] > 0.2) & (W_post[:, 3] > 0.2)))
        assert joint_post >= 10
        assert joint_post > joint_rec


class TestForestValidation:
    def test_gamma_and_tree_count(self):
        masks = np.ones((2, 1), dtype=bool)
        proto = ModelProtocol(masks)
        leaf = Leaf(rating=[1.0, 0.0], sample_count=1)
        with pytest.raises(ValueError):
            RecForest(trees=[], protocol=proto, kind="classification")
        with pytest.raises(ValueError):
            RecForest(trees=[leaf], protocol=proto, gamma=1.5, kind="classification")

    def test_kind(self):
        proto = ModelProtocol(np.ones((2, 1), dtype=bool))
        trees = [Leaf(rating=[1.0, 0.0], sample_count=1)]
        assert RecForest(trees, proto).kind == "recommendation"
        assert RecForest(trees, proto, kind="classification").kind == "classification"
        with pytest.raises(ValueError, match="kind"):
            RecForest(trees, proto, kind="other")

    def test_leaf_validation(self):
        with pytest.raises(ValueError):
            Leaf(rating=[0.7, 0.7], sample_count=1)
        with pytest.raises(ValueError):
            Leaf(rating=[1.0, 0.0], sample_count=0)
