"""Forest inference: rating aggregation, blending, gamma calibration."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recforest.classforest import (
    derive_labels,
    predict_posterior_rating_many,
    predict_top_vote_many,
    train_class_forest,
)
from recforest.data import ModelProtocol
from recforest.forest import (
    Leaf,
    RecForest,
    RecTrainConfig,
    Split,
    SplitParams,
    accuracy_maximizing_threshold,
    aggregate_rating,
    calibrate_gamma,
    predict,
    predict_many,
    train_forest,
)
from recforest.synth import generate, two_cluster_config

from helpers import random_dataset


def _proto(C=2, N=2):
    return ModelProtocol(np.ones((C, N), dtype=bool))


class TestBlend:
    def test_convex_combination_of_responses(self):
        forest = RecForest([Leaf(rating=[0.5, 0.5], sample_count=1)], _proto())
        responses = np.array(
            [[[0.0, 0.0], [0.0, 0.0]], [[2.0, 2.0], [2.0, 2.0]]]
        )
        out = predict(forest, responses, np.full(4, 0.5))
        np.testing.assert_allclose(out.landmarks, np.ones((2, 2)), atol=1e-15)

    def test_confidence_single_mask_term(self):
        # landmark 1 visible only in model 0's protocol, score 0.9
        proto = ModelProtocol(np.array([[True, True], [True, False]]))
        forest = RecForest([Leaf(rating=[0.7, 0.3], sample_count=1)], proto)
        features = np.zeros(proto.feature_count)
        features[proto.feature_index(0, 1)] = 0.9
        out = predict(forest, np.zeros((2, 2, 2)), features)
        assert out.visibility_confidence[1] == pytest.approx(0.63, abs=1e-12)

    def test_count_weighted_aggregation(self):
        trees = [
            Leaf(rating=[1.0, 0.0], sample_count=30),
            Leaf(rating=[0.0, 1.0], sample_count=10),
        ]
        W = aggregate_rating(trees, np.zeros((1, 4)), 2)
        np.testing.assert_allclose(W[0], [0.75, 0.25], atol=1e-15)

    def test_flags_threshold_at_gamma(self):
        proto = _proto()
        forest = RecForest([Leaf(rating=[1.0, 0.0], sample_count=1)], proto,
                           gamma=0.6)
        features = np.array([0.8, 0.2, 0.0, 0.0])  # model 0 slots then model 1
        out = predict(forest, np.zeros((2, 2, 2)), features)
        np.testing.assert_array_equal(out.visibility_flag, [True, False])

    def test_confidence_clamped_to_unit_interval(self):
        proto = _proto(C=1, N=1)
        forest = RecForest([Leaf(rating=[1.0], sample_count=1)], proto)
        out = predict(forest, np.zeros((1, 1, 2)), np.array([1.7]))
        assert out.visibility_confidence[0] == 1.0

    def test_dimension_mismatch_rejected(self):
        forest = RecForest([Leaf(rating=[0.5, 0.5], sample_count=1)], _proto())
        with pytest.raises(ValueError):
            predict(forest, np.zeros((3, 2, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            predict(forest, np.zeros((2, 2, 2)), np.zeros(5))


class TestAggregateProperties:
    def _forest(self, rng, ds, trees=5):
        config = RecTrainConfig(tree_count=trees, max_depth=4,
                                min_samples_per_leaf=4,
                                rng_seed=int(rng.integers(1 << 16)))
        return train_forest(ds, config)

    def test_aggregated_rating_on_simplex(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, M=40)
        forest = self._forest(rng, ds)
        feats = rng.random((200, ds.feature_count))
        W = aggregate_rating(forest.trees, feats, ds.model_count)
        assert (W >= -1e-9).all()
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-9)

    def test_linearity_equivalence(self):
        # count-weighted rating averaging == per-tree prediction averaging
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, M=40, C=3, N=5)
        forest = self._forest(rng, ds)
        responses = rng.normal(size=(64, 3, 5, 2))
        feats = rng.random((64, ds.feature_count))
        landmarks, confidence, _ = predict_many(forest, responses, feats)

        slots = ds.protocol.slot_grid
        masks = ds.protocol.masks
        num = np.zeros((64, 5, 2))
        raw_conf = np.zeros((64, 5))
        total = np.zeros(64)
        for tree in forest.trees:
            # per-tree blended prediction, explicit loops
            s = np.array(
                [_leaf_of(tree, feats[i]).sample_count for i in range(64)]
            )
            for i in range(64):
                w = _leaf_of(tree, feats[i]).rating
                num[i] += s[i] * np.einsum("cnd,c->nd", responses[i], w)
                for n in range(5):
                    v = 0.0
                    for c in range(3):
                        if masks[c, n]:
                            v += w[c] * feats[i, slots[c, n]]
                    raw_conf[i, n] += s[i] * v
            total += s
        np.testing.assert_allclose(
            landmarks, num / total[:, None, None], atol=1e-12
        )
        np.testing.assert_allclose(
            confidence, np.clip(raw_conf / total[:, None], 0.0, 1.0), atol=1e-12
        )


@pytest.fixture(scope="module")
def trained_forests():
    return {kind: _trained(kind) for kind in ("rec", "class")}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["rec", "class"]),
       a=st.lists(st.integers(0, 19), min_size=1, max_size=12),
       b=st.lists(st.integers(0, 19), min_size=1, max_size=12))
def test_rows_of_a_union_predict_as_apart(trained_forests, kind, a, b):
    """Every batch predictor gives rows A and B, predicted together, the
    bytes it gives each apart: routing a fold's rows at once rests on it."""
    ds, forest = trained_forests[kind]
    predictors = [predict_many]
    if kind == "class":
        predictors += [predict_top_vote_many, predict_posterior_rating_many]
    for predictor in predictors:
        both = predictor(forest, ds.responses[a + b], ds.features[a + b])
        apart = [predictor(forest, ds.responses[rows], ds.features[rows]) for rows in (a, b)]
        for got, (part_a, part_b) in zip(both, zip(*apart)):
            assert got[:len(a)].tobytes() == part_a.tobytes()
            assert got[len(a):].tobytes() == part_b.tobytes()


def _leaf_of(node, features):
    while isinstance(node, Split):
        if features[node.params.feature_index] <= node.params.threshold:
            node = node.left
        else:
            node = node.right
    return node


PREDICTORS = pytest.mark.parametrize(
    "predictor, kind, single",
    [
        (predict_many, "rec", False),
        (predict_top_vote_many, "class", False),
        (predict_posterior_rating_many, "class", False),
        (predict, "rec", True),
    ],
)


def _trained(kind):
    ds = random_dataset(np.random.default_rng(14), M=20)
    config = RecTrainConfig(tree_count=2, max_depth=3, rng_seed=1)
    if kind == "rec":
        return ds, train_forest(ds, config)
    return ds, train_class_forest(ds, derive_labels(ds), config)


@pytest.mark.parametrize("bad", ["features", "responses"])
@PREDICTORS
def test_non_finite_inputs_rejected(predictor, kind, single, bad):
    ds, forest = _trained(kind)
    responses = ds.responses.copy()
    features = ds.features.copy()
    if bad == "features":
        features[1, 0] = np.nan
    else:
        responses[1, 0, 0, 1] = np.inf
    if single:
        responses, features = responses[1], features[1]
    with pytest.raises(ValueError, match="finite"):
        predictor(forest, responses, features)


@PREDICTORS
def test_scalar_features_rejected(predictor, kind, single):
    ds, forest = _trained(kind)
    responses = ds.responses[1] if single else ds.responses
    with pytest.raises(ValueError, match="features"):
        predictor(forest, responses, 5.0)


class TestGammaCalibration:
    def test_separated_confidences(self):
        conf = np.array([0.9, 0.9, 0.1, 0.1])
        labels = np.array([True, True, False, False])
        gamma, acc = accuracy_maximizing_threshold(conf, labels)
        assert acc == 1.0
        assert gamma == 0.9  # smallest candidate above 0.1

    def test_equal_confidences_majority_visible(self):
        conf = np.full(5, 0.4)
        labels = np.array([True, True, True, False, False])
        gamma, acc = accuracy_maximizing_threshold(conf, labels)
        assert acc == pytest.approx(0.6)
        assert gamma == 0.0

    def test_equal_confidences_majority_invisible(self):
        conf = np.full(5, 0.4)
        labels = np.array([True, False, False, False, False])
        gamma, acc = accuracy_maximizing_threshold(conf, labels)
        assert acc == pytest.approx(0.8)
        assert gamma == 1.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            conf = np.round(rng.random(40), 2)  # force ties
            labels = rng.random(40) < 0.6
            gamma, acc = accuracy_maximizing_threshold(conf, labels)
            best_g, best_a = _scan_oracle(conf, labels)
            assert gamma == best_g
            assert acc == best_a

    def test_calibrate_updates_forest(self):
        ds, _ = generate(two_cluster_config(sample_count=80, rng_seed=4))
        forest = train_forest(ds, RecTrainConfig(tree_count=1, max_depth=3,
                                                 rng_seed=0))
        gamma = calibrate_gamma(forest, ds)
        assert forest.gamma == gamma
        _, conf, _ = predict_many(forest, ds.responses, ds.features)
        _, best_acc = _scan_oracle(conf.ravel(), ds.visible.ravel())
        acc = np.mean((conf >= gamma) == ds.visible)
        assert acc == pytest.approx(best_acc, abs=1e-12)

    def test_calibrate_rejects_another_protocol(self):
        # same C, N and F, other masks: the parent calibrated 1.0 on it
        ds, _ = generate(two_cluster_config(sample_count=80, rng_seed=4))
        forest = train_forest(ds, RecTrainConfig(tree_count=1, max_depth=3, rng_seed=0))
        other = replace(ds, protocol=ModelProtocol(ds.protocol.masks[::-1]))
        with pytest.raises(ValueError, match="forest protocol does not match dataset protocol"):
            calibrate_gamma(forest, other)
        assert forest.gamma == 0.5

    @pytest.mark.parametrize("gamma", [float("nan"), 1.5, -0.25])
    def test_prediction_rejects_gamma_set_out_of_range(self, gamma):
        """A `gamma` set after construction is checked where it is used: NaN
        or 1.5 would flag every landmark invisible without an error."""
        ds, _ = generate(two_cluster_config(sample_count=80, rng_seed=4))
        config = RecTrainConfig(tree_count=1, max_depth=3, rng_seed=0)
        for forest in (train_forest(ds, config),
                       train_class_forest(ds, derive_labels(ds), config)):
            forest.gamma = gamma
            for predict_fn in (predict_many, predict_top_vote_many,
                               predict_posterior_rating_many):
                with pytest.raises(ValueError, match="gamma"):
                    predict_fn(forest, ds.responses, ds.features)
            with pytest.raises(ValueError, match="gamma"):
                predict(forest, ds.responses[0], ds.features[0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy_maximizing_threshold(np.array([]), np.array([], dtype=bool))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_confidence_rejected(self, bad):
        # NaN sorts above every candidate but is never >= one: (1.0, 1.0) at
        # the parent, where the accuracy at 1.0 is 0.5
        with pytest.raises(ValueError, match="confidences must be finite"):
            accuracy_maximizing_threshold([bad, 0.5], [True, False])


def _scan_oracle(conf, labels):
    """Brute-force scan over candidate thresholds; smallest argmax wins."""
    best_g, best_a = None, -1.0
    for g in sorted(set(np.concatenate([conf, [0.0, 1.0]]).tolist())):
        a = float(np.mean((conf >= g) == labels))
        if a > best_a:
            best_g, best_a = g, a
    return best_g, best_a
