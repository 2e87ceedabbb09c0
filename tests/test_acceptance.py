"""Acceptance gate: ten criteria, one test and one pass/fail line each.

Each test computes its verdict first, records the line for the end-of-run
summary, then asserts, so failures still produce a FAIL line.
"""

import json
import math
import time

import numpy as np
import pytest

from recforest.classforest import (
    derive_labels,
    entropy,
    predict_posterior_rating_many,
    train_class_forest,
)
from recforest.cli import main
from recforest.forest import (
    RecTrainConfig,
    Split,
    accuracy_maximizing_threshold,
    aggregate_rating,
    predict_many,
    train_forest,
)
from recforest.metrics import STRATEGIES, CompareConfig, run_comparison
from recforest.seeds import derive_seed
from recforest.serialize import load_forest, save_forest
from recforest.synth import generate, metadata_arrays, preset_config, two_cluster_config

from conftest import record_acceptance
from helpers import random_dataset
from reference_solver import SimplexProblem, oracle_solve, solve
from test_trees import _audit_gains


def _random_problem(rng):
    C = int(rng.choice([2, 3]))
    R = int(rng.integers(5, 21))
    targets = rng.normal(size=(R, 2))
    candidates = rng.normal(size=(R, C, 2))
    return SimplexProblem(targets=targets, candidates=candidates)


def test_criterion_1_solver_oracle():
    rng = np.random.default_rng(derive_seed(0, "acceptance", "solver"))
    start = time.perf_counter()
    worst_gap = 0.0
    probe_ok = True
    for _ in range(200):
        problem = _random_problem(rng)
        sol = solve(problem)
        ref = oracle_solve(problem, 1e-2)
        gap = (sol.objective - ref.objective) / (1.0 + abs(ref.objective))
        worst_gap = max(worst_gap, gap)
        probes = rng.dirichlet(np.ones(problem.model_count), size=100)
        probe_vals = np.array([problem.objective(p) for p in probes])
        if probe_vals.min() < sol.objective - 1e-9 * (1.0 + abs(sol.objective)):
            probe_ok = False
    elapsed = time.perf_counter() - start
    passed = worst_gap <= 1e-6 and probe_ok and elapsed < 5.0
    record_acceptance(1, "solver matches grid oracle", passed)
    assert passed, (
        "worst relative gap %.3e, probes ok %s, %.2fs"
        % (worst_gap, probe_ok, elapsed)
    )


def _leaf_ratings(node, out):
    if isinstance(node, Split):
        _leaf_ratings(node.left, out)
        _leaf_ratings(node.right, out)
    else:
        out.append(node.rating)


def test_criterion_2_simplex_invariants():
    ds, _ = generate(preset_config("aflw-like-5view", sample_count=300, rng_seed=1))
    forest = train_forest(
        ds, RecTrainConfig(tree_count=5, max_depth=8, rng_seed=2)
    )
    ratings = []
    for root in forest.trees:
        _leaf_ratings(root, ratings)
    ratings = np.stack(ratings)
    rng = np.random.default_rng(derive_seed(0, "acceptance", "invariants"))
    features = rng.random((1000, ds.feature_count))
    W = aggregate_rating(forest.trees, features, ds.model_count)
    all_w = np.vstack([ratings, W])
    min_w = float(all_w.min())
    sum_err = float(np.abs(all_w.sum(axis=1) - 1.0).max())
    passed = min_w >= -1e-9 and sum_err <= 1e-9
    record_acceptance(2, "simplex invariants", passed)
    assert passed, "min weight %.3e, worst sum error %.3e" % (min_w, sum_err)


def test_criterion_3_gain_decomposition():
    rng = np.random.default_rng(derive_seed(0, "acceptance", "gains"))
    report = {"worst": 0.0, "splits": 0}
    for ds in (
        random_dataset(rng, M=60, C=3, N=6),
        generate(two_cluster_config(150))[0],
    ):
        forest = train_forest(
            ds,
            RecTrainConfig(
                tree_count=2, max_depth=4, min_samples_per_leaf=5, rng_seed=13
            ),
        )
        for root in forest.trees:
            _audit_gains(root, np.arange(ds.sample_count), ds, report)
    passed = report["splits"] >= 1 and report["worst"] <= 1e-9
    record_acceptance(3, "exact gain decomposition", passed)
    assert passed, "%d splits audited, worst gain gap %.3e" % (
        report["splits"],
        report["worst"],
    )


def test_criterion_4_two_cluster_recovery():
    start = time.perf_counter()
    ds, meta = generate(two_cluster_config(400))
    _, cid = metadata_arrays(meta)
    forest = train_forest(
        ds, RecTrainConfig(tree_count=1, max_depth=4, rng_seed=0)
    )
    root = forest.trees[0]
    split_ok = isinstance(root, Split)
    if split_ok:
        go_left = ds.features[:, root.params.feature_index] <= root.params.threshold
        left_ids, right_ids = set(cid[go_left]), set(cid[~go_left])
        split_ok = len(left_ids) == 1 and len(right_ids) == 1 and left_ids != right_ids
    W = aggregate_rating(forest.trees, ds.features, ds.model_count)
    indicators = np.zeros_like(W)
    indicators[np.arange(ds.sample_count), cid] = 1.0
    rating_gap = float(np.abs(W - indicators).max())
    landmarks, _, _ = predict_many(forest, ds.responses, ds.features)
    errors = []
    for m in range(ds.sample_count):
        vis = ds.visible[m]
        d = np.linalg.norm(landmarks[m, vis] - ds.ground_truth[m, vis], axis=1)
        errors.append(100.0 * d.mean() / ds.normalizer[m])
    train_error = float(np.mean(errors))
    elapsed = time.perf_counter() - start
    passed = (
        split_ok and rating_gap <= 1e-3 and train_error <= 1e-6 and elapsed < 10.0
    )
    record_acceptance(4, "two-cluster recovery", passed)
    assert passed, (
        "root split ok %s, rating gap %.3e, train error %.3e, %.2fs"
        % (split_ok, rating_gap, train_error, elapsed)
    )


def test_criterion_5_preset_strategy_ordering():
    start = time.perf_counter()
    centers = (-80.0, -40.0, 0.0, 40.0, 80.0)
    error_wins = 0
    ap_order_wins = 0
    seeds = range(5)
    for seed in seeds:
        ds, meta = generate(preset_config("aflw-like-5view", rng_seed=seed))
        yaw, cid = metadata_arrays(meta)
        config = CompareConfig(
            strategies=STRATEGIES,
            cluster_centers=centers,
            rng_seed=seed,
            train=RecTrainConfig(),
        )
        reports = run_comparison(ds, yaw, cid, config)
        ours = reports["rec-forest"]
        others = [reports[s] for s in STRATEGIES if s != "rec-forest"]
        if all(ours.mean_error < r.mean_error for r in others):
            error_wins += 1
        ap_ours = ours.visibility_ap
        ap_post = reports["posterior-rating"].visibility_ap
        ap_vote = reports["top-vote"].visibility_ap
        if ap_ours >= ap_post >= ap_vote:
            ap_order_wins += 1
    elapsed = time.perf_counter() - start
    passed = error_wins == 5 and ap_order_wins >= 4 and elapsed < 300.0
    record_acceptance(5, "preset strategy ordering", passed)
    assert passed, (
        "error wins %d/5, AP-order wins %d/5, %.1fs"
        % (error_wins, ap_order_wins, elapsed)
    )


def _route(root, x):
    node = root
    while isinstance(node, Split):
        if x[node.params.feature_index] <= node.params.threshold:
            node = node.left
        else:
            node = node.right
    return node


def test_criterion_6_linearity_equivalence():
    ds, _ = generate(preset_config("aflw-like-5view", sample_count=250, rng_seed=3))
    forest = train_forest(
        ds, RecTrainConfig(tree_count=5, max_depth=8, rng_seed=4)
    )
    rng = np.random.default_rng(derive_seed(0, "acceptance", "linearity"))
    M = 1000
    responses = rng.normal(size=(M, ds.model_count, ds.landmark_count, 2))
    features = rng.random((M, ds.feature_count))
    fast_lm, fast_conf, _ = predict_many(forest, responses, features)
    proto = ds.protocol
    slots = np.where(proto.masks, proto.slot_grid, 0)
    worst_lm = 0.0
    worst_conf = 0.0
    for m in range(M):
        scores = features[m][slots] * proto.masks
        num_lm = np.zeros((ds.landmark_count, 2))
        num_conf = np.zeros(ds.landmark_count)
        den = 0.0
        for root in forest.trees:
            leaf = _route(root, features[m])
            num_lm += leaf.sample_count * np.einsum(
                "cnd,c->nd", responses[m], leaf.rating
            )
            num_conf += leaf.sample_count * (leaf.rating @ scores)
            den += leaf.sample_count
        worst_lm = max(worst_lm, float(np.abs(num_lm / den - fast_lm[m]).max()))
        conf = np.clip(num_conf / den, 0.0, 1.0)
        worst_conf = max(worst_conf, float(np.abs(conf - fast_conf[m]).max()))
    passed = worst_lm <= 1e-12 and worst_conf <= 1e-12
    record_acceptance(6, "linearity equivalence", passed)
    assert passed, "worst landmark gap %.3e, confidence gap %.3e" % (
        worst_lm,
        worst_conf,
    )


def test_criterion_7_gamma_scan_oracle():
    rng = np.random.default_rng(derive_seed(0, "acceptance", "gamma"))
    exact = True
    for _ in range(50):
        size = int(rng.integers(5, 200))
        conf = np.round(rng.random(size), 2)  # duplicates exercise tie rules
        labels = rng.random(size) < rng.uniform(0.2, 0.8)
        gamma, accuracy = accuracy_maximizing_threshold(conf, labels)
        candidates = np.unique(np.concatenate([conf, [0.0, 1.0]]))
        scan = [(float(np.mean((conf >= t) == labels)), t) for t in candidates]
        best_acc = max(a for a, _ in scan)
        best_t = min(t for a, t in scan if a == best_acc)
        if gamma != best_t or accuracy != best_acc:
            exact = False
    record_acceptance(7, "gamma calibration oracle", exact)
    assert exact


def test_criterion_8_comparison_determinism(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["gen", "--out", data, "--m", "120", "--n", "8", "--seed", "3"]) == 0
    capsys.readouterr()
    argv = [
        "compare", "--data", data, "--folds", "3", "--trees", "3",
        "--max-depth", "5", "--seed", "7", "--format", "records",
    ]
    outputs = []
    for workers in (None, None, 4, 8):
        extra = [] if workers is None else ["--workers", str(workers)]
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    passed = all(o == outputs[0] for o in outputs[1:])
    json.loads(outputs[0])  # the report must stay machine-readable
    record_acceptance(8, "byte-identical comparison", passed)
    assert passed


def test_criterion_9_serialization_fidelity(tmp_path):
    rng = np.random.default_rng(derive_seed(0, "acceptance", "serialize"))
    ds = random_dataset(rng, M=80, C=3, N=6)
    config = RecTrainConfig(tree_count=3, max_depth=5, rng_seed=5)
    rec = train_forest(ds, config)
    cls = train_class_forest(ds, derive_labels(ds), config)
    responses = rng.normal(size=(1000, ds.model_count, ds.landmark_count, 2))
    features = rng.random((1000, ds.feature_count))
    passed = True
    for forest, predict in (
        (rec, predict_many),
        (cls, predict_posterior_rating_many),
    ):
        path = tmp_path / ("%s.json" % type(forest).__name__)
        save_forest(forest, path)
        loaded = load_forest(path)
        before = predict(forest, responses, features)
        after = predict(loaded, responses, features)
        if not all(np.array_equal(a, b) for a, b in zip(before, after)):
            passed = False
    record_acceptance(9, "serialization fidelity", passed)
    assert passed


def test_criterion_10_classification_baseline():
    checks = [
        entropy([1, 1, 1], 3) == 0.0,
        abs(entropy([0, 1], 2) - math.log(2.0)) <= 1e-12,
        abs(entropy([0, 0, 0, 1], 2) - 0.5623) <= 1e-4,
    ]
    ds, _ = generate(preset_config("aflw-like-5view", sample_count=500, rng_seed=9))
    labels = derive_labels(ds)
    agree = True
    for m in range(ds.sample_count):
        totals = np.zeros(ds.model_count)
        for c in range(ds.model_count):
            vis = ds.visible[m]
            d = ds.responses[m, c][vis] - ds.ground_truth[m][vis]
            totals[c] = float((d * d).sum())
        if labels[m] != int(np.argmin(totals)):
            agree = False
            break
    passed = all(checks) and agree
    record_acceptance(10, "classification baseline correctness", passed)
    assert passed, "entropy checks %s, label agreement %s" % (checks, agree)
