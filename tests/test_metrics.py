"""Evaluation metrics and the cross-validated strategy comparison."""

import json
import math
import multiprocessing
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import ced_curve_points, curve_bits, pr_curve_points
from hypothesis import example, given, settings, strategies as st

from recforest import classforest, forest, metrics
from recforest.classforest import derive_labels, train_class_forest
from recforest.data import ResponseDataset
from recforest.forest import RecForest, RecTrainConfig, train_forest
from recforest.metrics import (
    STRATEGIES,
    CompareConfig,
    _eval_report,
    _sample_errors,
    _train_folds,
    ced_curve,
    curve_lines,
    fold_assignment,
    format_comparison,
    run_comparison,
    sample_error,
    visibility_scores,
)
from recforest.seeds import derive_seed
from recforest.synth import (
    GenConfig,
    generate,
    metadata_arrays,
    preset_config,
    two_cluster_config,
)


class TestSampleError:
    def test_exact_prediction_zero(self):
        truth = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert sample_error(truth, truth, [True, True], 2.0) == 0.0

    def test_single_offset(self):
        # one landmark off by a 3-4-5 triangle, normalizer 100 -> 5.0
        pred = np.array([[3.0, 4.0]])
        truth = np.array([[0.0, 0.0]])
        assert sample_error(pred, truth, [True], 100.0) == pytest.approx(5.0, abs=1e-12)

    def test_mean_over_visible(self):
        pred = np.array([[5.0, 0.0], [0.0, 15.0]])
        truth = np.zeros((2, 2))
        got = sample_error(pred, truth, [True, True], 100.0)
        assert got == pytest.approx(10.0, abs=1e-12)

    def test_invisible_landmarks_ignored(self):
        pred = np.array([[1.0, 0.0], [900.0, 900.0]])
        truth = np.array([[0.0, 0.0], [np.nan, np.nan]])
        assert sample_error(pred, truth, [True, False], 1.0) == pytest.approx(
            100.0, abs=1e-12
        )

    def test_rejections(self):
        pred = np.zeros((1, 2))
        with pytest.raises(ValueError):
            sample_error(pred, pred, [False], 1.0)
        with pytest.raises(ValueError):
            sample_error(pred, pred, [True], 0.0)
        with pytest.raises(ValueError):
            sample_error(pred, pred, [True], float("nan"))
        for predicted, truth, visible in (
            (np.zeros((3, 2)), np.zeros((4, 2)), [True] * 3),
            (np.zeros((3, 2)), np.zeros((3, 2)), [True] * 4),
            (np.zeros((3, 3)), np.zeros((3, 3)), [True] * 3),
            (np.zeros(2), np.zeros(2), [True]),
            (np.array([[np.nan, 0.0]]), np.zeros((1, 2)), [True]),
            (np.zeros((1, 2)), np.array([[0.0, np.inf]]), [True]),
        ):
            with pytest.raises(ValueError, match="^predicted and truth must be"):
                sample_error(predicted, truth, visible, 1.0)
        # a NaN at an invisible landmark is a sentinel, not an error
        assert sample_error([[1.0, 0.0], [np.nan, np.nan]], [[0.0, 0.0], [np.nan, np.nan]],
                            [True, False], 1.0) == 100.0


def test_sample_errors_equal_sample_error_bit_for_bit():
    ds, _ = generate(preset_config("aflw-like-5view", sample_count=300, rng_seed=3))
    hidden = np.arange(ds.sample_count) % 50 == 7
    visible = ds.visible & ~hidden[:, None]
    ds = ResponseDataset(
        protocol=ds.protocol,
        responses=ds.responses,
        ground_truth=np.where(visible[:, :, None], ds.ground_truth, np.nan),
        visible=visible,
        features=ds.features,
        normalizer=ds.normalizer,
    )
    rows = np.random.default_rng(5).permutation(ds.sample_count)[:250]
    landmarks = ds.responses[rows, 1]
    expected = np.array([
        sample_error(lm, ds.ground_truth[m], ds.visible[m], ds.normalizer[m])
        if ds.visible[m].any() else np.nan
        for lm, m in zip(landmarks, rows)
    ])
    assert np.isnan(expected).sum() == hidden[rows].sum() > 0
    assert np.unique(ds.visible[rows].sum(axis=1)).size > 3
    assert np.array_equal(_sample_errors(landmarks, ds, rows), expected, equal_nan=True)


class TestVisibilityScores:
    def test_hand_worked_ap(self):
        # ranked by 1-conf the labels read -,+,-,+,+,-: AP = 8/15
        conf = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        vis = np.array([True, False, True, False, False, True])
        flags = conf >= 0.35
        acc, ap, pr = visibility_scores(conf, flags, vis)
        assert ap == pytest.approx(8.0 / 15.0, abs=1e-12)
        assert acc == pytest.approx(2.0 / 6.0, abs=1e-12)
        assert pr[-1][0] == 1.0  # recall reaches 1 at the last block

    def test_tied_scores_one_block(self):
        conf = np.full(8, 0.5)
        vis = np.array([True] * 5 + [False] * 3)
        _, ap, pr = visibility_scores(conf, conf >= 0.5, vis)
        assert ap == pytest.approx(3.0 / 8.0, abs=1e-12)
        assert pr.shape == (1, 2) and pr.dtype == np.float64
        assert pr.tolist() == [[1.0, 3.0 / 8.0]]

    def test_perfect_separation(self):
        conf = np.array([0.9, 0.8, 0.1, 0.2])
        vis = np.array([True, True, False, False])
        acc, ap, _ = visibility_scores(conf, conf >= 0.5, vis)
        assert ap == 1.0
        assert acc == 1.0

    def test_no_positives(self):
        conf = np.array([0.9, 0.8])
        vis = np.array([True, True])
        acc, ap, pr = visibility_scores(conf, conf >= 0.5, vis)
        assert ap is None
        assert pr.shape == (0, 2) and pr.dtype == np.float64
        assert pr.tolist() == []
        assert acc == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        conf = rng.random(40)
        vis = rng.random(40) < 0.6
        flags = conf >= 0.5
        _, ap, _ = visibility_scores(conf, flags, vis)
        perm = rng.permutation(40)
        _, ap_p, _ = visibility_scores(conf[perm], flags[perm], vis[perm])
        assert ap_p == ap

    def test_monotone_transform_invariance(self):
        # AP depends only on the ranking, so cubing the scores changes nothing
        rng = np.random.default_rng(23)
        conf = rng.random(30)
        vis = rng.random(30) < 0.5
        if not (~vis).any():
            vis[0] = False
        flags = conf >= 0.5
        _, ap, _ = visibility_scores(conf, flags, vis)
        conf_t = 1.0 - (1.0 - conf) ** 3
        _, ap_t, _ = visibility_scores(conf_t, flags, vis)
        assert ap_t == ap

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_confidence_rejected(self, bad):
        with pytest.raises(ValueError, match="confidences must be finite"):
            visibility_scores([bad, 0.5, 0.2], [False, True, False], [False, True, False])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            visibility_scores([0.5, 0.5], [True], [True, False])
        with pytest.raises(ValueError):
            visibility_scores([], [], [])


class TestCedCurve:
    def test_all_zero_errors(self):
        curve = ced_curve(np.zeros(5), [0.0, 1.0, 2.0])
        assert curve.shape == (3, 2) and curve.dtype == np.float64
        assert curve.tolist() == [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]

    def test_fractions(self):
        curve = ced_curve([1.0, 2.0, 3.0], [2.0, 3.0])
        assert curve.shape == (2, 2) and curve.dtype == np.float64
        assert curve.tolist()[0] == [2.0, pytest.approx(2.0 / 3.0, abs=1e-12)]
        assert curve.tolist()[1] == [3.0, 1.0]

    def test_thresholds_sorted(self):
        curve = ced_curve([1.0, 2.0], [5.0, 0.5])
        assert [t for t, _ in curve] == [0.5, 5.0]
        fracs = [f for _, f in curve]
        assert fracs == sorted(fracs)

    def test_matches_direct_count(self):
        rng = np.random.default_rng(31)
        errors = rng.exponential(2.0, size=64)
        thresholds = rng.uniform(0.0, 8.0, size=9)
        for t, frac in ced_curve(errors, thresholds):
            assert frac == np.mean(errors <= t)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ced_curve([], [1.0])


# Values that tie, sit on a threshold, or are signed zeros and infinities.
CURVE_VALUES = st.sampled_from(
    [0.0, -0.0, 1e-300, 0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 7.5, math.inf, -math.inf]
)


@st.composite
def ced_cases(draw):
    """(errors, thresholds), some thresholds equal to an error value."""
    errors = draw(st.lists(CURVE_VALUES | st.floats(0.0, 100.0) | st.just(math.nan),
                           min_size=1, max_size=30))
    thresholds = draw(st.lists(st.sampled_from(errors) | CURVE_VALUES
                               | st.floats(allow_nan=True), max_size=12))
    return errors, thresholds


@st.composite
def visibility_cases(draw):
    """(confidences, visible): tied, all-equal, or without positives."""
    n = draw(st.integers(1, 40))
    conf = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        conf = [conf[0]] * n
    visible = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(conf), np.array(visible)


def _preset_report_inputs(decimals=None):
    """(errors, confidences, flags, visible) shaped like one preset compare:
    2,000 samples of 12 landmarks.  Three samples have no visible landmark
    and a NaN error, as `_sample_errors` gives them.  Confidences are
    rounded to `decimals` places when given, so that many tie."""
    rng = np.random.default_rng(12)
    visible = rng.random((2000, 12)) < 0.8
    visible[:3] = False
    errors = rng.exponential(3.0, size=2000)
    errors[:3] = np.nan
    conf = rng.random((2000, 12))
    if decimals is not None:
        conf = np.round(conf, decimals)
    return errors, conf, conf >= 0.5, visible


class TestCurvesMatchListOracle:
    """The (P, 2) float64 curves hold the list oracle's points bit for bit."""

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(case=ced_cases())
    @example(case=([2.0], [2.0]))
    @example(case=([1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 2.0]))
    @example(case=([0.5, 1.5], []))
    def test_ced_curve(self, case):
        errors, thresholds = case
        curve = ced_curve(errors, thresholds)
        assert curve.shape == (len(thresholds), 2) and curve.dtype == np.float64
        assert curve_bits(curve.tolist()) == curve_bits(ced_curve_points(errors, thresholds))

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(case=visibility_cases())
    @example(case=(np.array([0.3]), np.array([False])))
    @example(case=(np.array([0.3]), np.array([True])))
    @example(case=(np.full(6, 0.5), np.array([True, False] * 3)))
    @example(case=(np.array([0.2, 0.9, 0.2]), np.ones(3, dtype=bool)))
    def test_pr_curve(self, case):
        conf, visible = case
        _, ap, pr = visibility_scores(conf, conf >= 0.5, visible)
        points = pr_curve_points(conf, visible)
        assert pr.shape == (len(points), 2) and pr.dtype == np.float64
        assert curve_bits(pr.tolist()) == curve_bits(points)
        assert (ap is None) == visible.all()

    def test_eval_report_at_preset(self):
        errors, conf, flags, visible = _preset_report_inputs(decimals=3)
        report = _eval_report(errors, conf, flags, visible)
        scored = errors[visible.any(axis=1)]
        ced = ced_curve_points(scored, np.linspace(0.0, float(scored.max()), 51))
        pr = pr_curve_points(conf, visible)
        assert len(pr) > 900  # ties merge the 24,000 landmarks into ~1,000 points
        assert curve_bits(report.ced_curve.tolist()) == curve_bits(ced)
        assert curve_bits(report.pr_curve.tolist()) == curve_bits(pr)
        assert curve_lines(report.ced_curve) == curve_lines(ced)
        assert curve_lines(report.pr_curve) == curve_lines(pr)


def test_report_memory_at_preset():
    """One report keeps its curves as arrays: about 0.4 MB at the preset,
    where lists of (x, y) tuples kept about 2.7 MB."""
    inputs = _preset_report_inputs()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = _eval_report(*inputs)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1 << 20, kept
    assert len(report.pr_curve) > 23000  # one point per distinct confidence


class TestFoldAssignment:
    def test_partition_and_balance(self):
        fold = fold_assignment(23, 5, seed=3)
        assert fold.shape == (23,)
        assert fold.min() >= 0 and fold.max() < 5
        sizes = np.bincount(fold, minlength=5)
        assert sizes.sum() == 23
        assert sizes.max() - sizes.min() <= 1

    def test_deterministic(self):
        a = fold_assignment(50, 4, seed=9)
        b = fold_assignment(50, 4, seed=9)
        assert np.array_equal(a, b)
        c = fold_assignment(50, 4, seed=10)
        assert not np.array_equal(a, c)


def _tiny_train():
    return RecTrainConfig(
        tree_count=3, max_depth=5, min_samples_per_leaf=4, rng_seed=0
    )


class TestRunComparison:
    def test_reports_are_consistent(self):
        ds, meta = generate(two_cluster_config(120))
        yaw, cid = metadata_arrays(meta)
        config = CompareConfig(
            fold_count=3,
            cluster_centers=(-40.0, 40.0),
            rng_seed=1,
            train=_tiny_train(),
        )
        reports = run_comparison(ds, yaw, cid, config)
        assert set(reports) == set(STRATEGIES)
        included = int(ds.visible.any(axis=1).sum())
        for r in reports.values():
            assert r.per_sample_errors.shape == (included,)
            assert np.isfinite(r.per_sample_errors).all()
            assert r.mean_error == pytest.approx(
                float(np.mean(r.per_sample_errors)), abs=1e-12
            )
            assert 0.0 <= r.visibility_accuracy <= 1.0
            assert r.ced_curve[-1][1] == 1.0  # last threshold is the max error

    def test_fold_count_at_most_sample_count(self):
        ds, meta = generate(two_cluster_config(12, rng_seed=5))
        yaw, cid = metadata_arrays(meta)
        config = CompareConfig(
            strategies=("fixed-frontal", "rec-forest"),
            fold_count=12,
            cluster_centers=(-40.0, 40.0),
            rng_seed=1,
            train=RecTrainConfig(tree_count=1, max_depth=2, min_samples_per_leaf=2),
        )
        reports = run_comparison(ds, yaw, cid, config)  # leave-one-out
        included = int(ds.visible.any(axis=1).sum())
        for r in reports.values():
            assert r.per_sample_errors.shape == (included,)
            assert np.isfinite(r.per_sample_errors).all()
        for count in (13, 1000):
            with pytest.raises(ValueError, match="fold_count must be at most"):
                run_comparison(ds, yaw, cid, replace(config, fold_count=count))

    def test_deterministic_and_worker_invariant(self):
        ds, meta = generate(two_cluster_config(90, rng_seed=4))
        yaw, cid = metadata_arrays(meta)
        config = CompareConfig(
            strategies=("top-vote", "posterior-rating", "rec-forest"),
            fold_count=3,
            rng_seed=2,
            train=_tiny_train(),
        )
        a = run_comparison(ds, yaw, cid, config)
        b = run_comparison(ds, yaw, cid, config)
        c = run_comparison(ds, yaw, cid, config, workers=2)
        for s in config.strategies:
            for other in (b, c):
                assert other[s].mean_error == a[s].mean_error
                assert other[s].visibility_accuracy == a[s].visibility_accuracy
                assert other[s].visibility_ap == a[s].visibility_ap
                assert np.array_equal(
                    other[s].per_sample_errors, a[s].per_sample_errors
                )

    def test_single_model_pool_degenerates(self):
        # with one model every strategy blends the same single response
        cfg = GenConfig(
            sample_count=60,
            landmark_count=8,
            cluster_centers=(0.0,),
            cluster_half_width=20.0,
            score_noise=0.05,
            occlusion_rate=0.0,
            rng_seed=6,
        )
        ds, meta = generate(cfg)
        yaw, cid = metadata_arrays(meta)
        config = CompareConfig(
            fold_count=3,
            cluster_centers=(0.0,),
            rng_seed=3,
            train=_tiny_train(),
        )
        reports = run_comparison(ds, yaw, cid, config)
        baseline = reports["rec-forest"]
        for s in STRATEGIES:
            assert reports[s].mean_error == pytest.approx(
                baseline.mean_error, abs=1e-12
            )
            assert np.allclose(
                reports[s].per_sample_errors,
                baseline.per_sample_errors,
                atol=1e-12,
            )

    def test_frontal_fails_on_profiles(self):
        # noise-free in-cluster data: always picking the frontal expert is
        # catastrophic on the profile clusters, routing by scores is not
        cfg = GenConfig(
            sample_count=300,
            landmark_count=8,
            cluster_centers=(-60.0, 0.0, 60.0),
            cluster_half_width=20.0,
            in_noise=0.0,
            out_noise_slope=0.05,
            score_sharpness=6.0,
            score_noise=0.0,
            occlusion_rate=0.0,
            in_cluster_only=True,
            rng_seed=2,
        )
        ds, meta = generate(cfg)
        yaw, cid = metadata_arrays(meta)
        config = CompareConfig(
            strategies=("fixed-frontal", "rec-forest"),
            fold_count=3,
            cluster_centers=(-60.0, 0.0, 60.0),
            rng_seed=5,
            train=_tiny_train(),
        )
        reports = run_comparison(ds, yaw, cid, config)
        assert reports["fixed-frontal"].mean_error > 50.0
        assert reports["rec-forest"].mean_error < 1.0
        assert reports["rec-forest"].visibility_ap > reports["fixed-frontal"].visibility_ap

    def test_missing_centers_rejected(self):
        ds, meta = generate(two_cluster_config(40))
        yaw, cid = metadata_arrays(meta)
        config = CompareConfig(
            strategies=("fixed-frontal",), fold_count=2, train=_tiny_train()
        )
        with pytest.raises(ValueError):
            run_comparison(ds, yaw, cid, config)

    def test_no_visible_landmarks_rejected(self):
        ds, meta = generate(two_cluster_config(40))
        yaw, cid = metadata_arrays(meta)
        hidden = ResponseDataset(
            protocol=ds.protocol,
            responses=ds.responses,
            ground_truth=np.full(ds.ground_truth.shape, np.nan),
            visible=np.zeros(ds.visible.shape, dtype=bool),
            features=ds.features,
            normalizer=ds.normalizer,
        )
        config = CompareConfig(
            strategies=("fixed-frontal", "noisy-prior"),
            fold_count=2,
            cluster_centers=(-40.0, 40.0),
            train=_tiny_train(),
        )
        with pytest.raises(ValueError, match="no samples with visible landmarks"):
            run_comparison(hidden, yaw, cid, config)

    def test_bad_yaw_rejected(self):
        ds, meta = generate(two_cluster_config(40))
        _, cid = metadata_arrays(meta)
        config = CompareConfig(
            strategies=("rec-forest",), fold_count=2, train=_tiny_train()
        )
        with pytest.raises(ValueError):
            run_comparison(ds, np.zeros(3), cid, config)


class TestFoldForests:
    """Every fold's forests grow from one criterion pair in one pool."""

    @staticmethod
    def _inputs():
        ds, meta = generate(two_cluster_config(90, rng_seed=4))
        yaw, cid = metadata_arrays(meta)
        return ds, yaw, cid

    @pytest.mark.parametrize("fraction", [1.0, 0.6])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_equal_forests_trained_on_each_fold(self, workers, fraction):
        ds, _, cid = self._inputs()
        labels = derive_labels(ds, cid)
        train = replace(_tiny_train(), bootstrap_fraction=fraction)
        config = CompareConfig(strategies=("top-vote", "rec-forest"), fold_count=3,
                               rng_seed=2, train=train)
        folds = list(_train_folds(ds, labels, config, workers))
        assert len(folds) == config.fold_count
        for f, (_, fit_idx, _, fold_train, forests) in enumerate(folds):
            assert fold_train == replace(train, rng_seed=derive_seed(2, "train", f))
            fit_ds = ds.subset(fit_idx)
            rec = train_forest(fit_ds, fold_train)
            cls = train_class_forest(fit_ds, labels[fit_idx], fold_train)
            assert isinstance(forests["rec-forest"], RecForest)
            assert forests["rec-forest"].kind == "recommendation"
            assert isinstance(forests["class"], RecForest)
            assert forests["class"].kind == "classification"
            assert forests["rec-forest"].trees == rec.trees
            assert forests["class"].trees == cls.trees

    def test_one_pool_and_one_criterion_pair_per_comparison(self, monkeypatch):
        pools = []
        builds = []

        class CountingPool(forest.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        def counted(cls):
            real = cls.__init__

            def init(self, *args, **kwargs):
                builds.append(cls.__name__)
                real(self, *args, **kwargs)
            return init

        monkeypatch.setattr(forest, "ProcessPoolExecutor", CountingPool)
        for cls in (forest._RecCriterion, classforest._ClassCriterion):
            monkeypatch.setattr(cls, "__init__", counted(cls))
        ds, yaw, cid = self._inputs()
        config = CompareConfig(fold_count=3, cluster_centers=(-40.0, 40.0),
                               rng_seed=2, train=_tiny_train())
        run_comparison(ds, yaw, cid, config, workers=2)
        assert len(pools) == 1
        assert sorted(builds) == ["_ClassCriterion", "_RecCriterion"]

    def test_one_routing_per_forest_per_fold(self, monkeypatch):
        """Each fold routes each tree once, over its validation and test rows
        together, for every strategy that tree serves."""
        routed = []
        real_route = forest._route_payloads

        def counting(root, features, dim):
            routed.append(root)
            return real_route(root, features, dim)

        monkeypatch.setattr(forest, "_route_payloads", counting)
        ds, yaw, cid = self._inputs()
        config = CompareConfig(fold_count=3, cluster_centers=(-40.0, 40.0),
                               rng_seed=2, train=_tiny_train())
        run_comparison(ds, yaw, cid, config)
        assert len(routed) == config.fold_count * 2 * config.train.tree_count

    @pytest.mark.parametrize("workers", [1, 2])
    def test_folds_scored_while_later_forests_grow(self, monkeypatch, workers):
        """The first fold is scored before the last forest arrives."""
        events = []

        def received(*args, **kwargs):
            events.append("forest")
            return RecForest(*args, **kwargs)

        def scored(*args):
            events.append("score")
            return real_errors(*args)

        real_errors = metrics._sample_errors
        monkeypatch.setattr(metrics, "RecForest", received)
        monkeypatch.setattr(metrics, "_sample_errors", scored)
        ds, yaw, cid = self._inputs()
        config = CompareConfig(fold_count=3, cluster_centers=(-40.0, 40.0),
                               rng_seed=2, train=_tiny_train())
        run_comparison(ds, yaw, cid, config, workers=workers)
        assert events.count("forest") == 2 * config.fold_count
        last_forest = len(events) - 1 - events[::-1].index("forest")
        assert events.index("score") < last_forest

    def test_scoring_failure_stops_the_pool(self, monkeypatch):
        """A fold 0 scoring error leaves `run_comparison` as it is, and the
        pool, still growing later folds, is shut down."""
        def failing(*args):
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(metrics, "_sample_errors", failing)
        ds, yaw, cid = self._inputs()
        config = CompareConfig(fold_count=3, cluster_centers=(-40.0, 40.0),
                               rng_seed=2, train=_tiny_train())
        with pytest.raises(RuntimeError, match="scoring failed"):
            run_comparison(ds, yaw, cid, config, workers=2)
        assert multiprocessing.active_children() == []


class TestCompareConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategies": ("no-such-strategy",)},
            {"strategies": ()},
            {"fold_count": 1},
            {"validation_fraction": 0.0},
            {"validation_fraction": 1.0},
            {"pose_noise_deg": -1.0},
            {"pose_noise_deg": float("nan")},
            {"pose_noise_deg": float("inf")},
            {"cluster_centers": (float("nan"), 0.0, 10.0, 20.0, 30.0)},
            {"cluster_centers": (-30.0, float("-inf"))},
            {"cluster_centers": (0.0, float("inf"))},
            {"fold_count": 2.5},
            {"fold_count": True},
            {"rng_seed": 0.5},
            {"train": RecTrainConfig(tree_count=1.5)},
            {"validation_fraction": "0.2"},
            {"pose_noise_deg": [1]},
            {"strategies": "rec-forest"},
            {"train": {"tree_count": 3}},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            CompareConfig(**kwargs).validate()

    def test_numpy_values_pass(self):
        CompareConfig(cluster_centers=np.array([-40.0, 0.0, 40.0]), fold_count=np.int64(3),
                      pose_noise_deg=np.float32(10.0)).validate()


class TestFormatting:
    def _reports(self):
        ds, meta = generate(two_cluster_config(60))
        yaw, cid = metadata_arrays(meta)
        config = CompareConfig(
            strategies=("rec-forest", "top-vote"),
            fold_count=2,
            rng_seed=0,
            train=_tiny_train(),
        )
        return run_comparison(ds, yaw, cid, config)

    def test_table_layout(self):
        reports = self._reports()
        text = format_comparison(reports, fmt="table")
        lines = text.splitlines()
        assert lines[0].split() == ["strategy", "mean-error", "vis-accuracy", "vis-AP"]
        assert len(lines) == 3
        assert lines[1].startswith("top-vote")  # canonical strategy order
        assert lines[2].startswith("rec-forest")

    def test_records_json(self):
        reports = self._reports()
        doc = json.loads(format_comparison(reports, fmt="records"))
        assert doc["formatVersion"] == 1
        entry = doc["strategies"]["rec-forest"]
        assert entry["meanError"] == reports["rec-forest"].mean_error
        assert entry["visibilityAccuracy"] == reports["rec-forest"].visibility_accuracy

    def test_ap_none_renders_dash(self):
        from recforest.metrics import EvalReport

        report = EvalReport(
            mean_error=1.0,
            visibility_accuracy=1.0,
            visibility_ap=None,
            ced_curve=np.array([[0.0, 1.0]]),
            pr_curve=np.empty((0, 2)),
            per_sample_errors=np.array([1.0]),
        )
        text = format_comparison({"rec-forest": report}, fmt="table")
        assert text.splitlines()[1].rstrip().endswith("-")
        doc = json.loads(format_comparison({"rec-forest": report}, fmt="records"))
        assert doc["strategies"]["rec-forest"]["visibilityAP"] is None

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            format_comparison({}, fmt="csv")

    def test_curve_lines_round_trip(self):
        curve = [(0.1, 0.25), (1.0 / 3.0, 2.0 / 3.0)]
        text = curve_lines(curve)
        parsed = [tuple(float(v) for v in line.split()) for line in text.splitlines()]
        assert parsed == curve
