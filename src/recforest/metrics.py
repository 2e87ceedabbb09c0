"""Evaluation harness: normalized errors, visibility scoring, comparisons.

Landmark accuracy is the per-sample mean point-to-point distance over
ground-truth-visible landmarks, as a percentage of the sample's normalizer.
Visibility is scored two ways: flag accuracy at the calibrated threshold,
and average precision of ranking landmarks by (1 - confidence) with
invisible as the positive class (non-interpolated AP, so a hand computation
can check it exactly).

`run_comparison` trains and evaluates the five selection strategies on
identical cross-validation splits and derived seeds, calibrating gamma per
strategy per fold on a held-out validation slice of the training folds.
Output contains no timing or environment data, so a fixed seed reproduces
reports byte for byte at any worker count.
"""

import json
from contextlib import closing
from dataclasses import dataclass, field, replace

import numpy as np

from .classforest import _ClassCriterion, derive_labels
from .data import ResponseDataset, _check_fields
from .forest import RecForest, RecTrainConfig, _grow_forests, _RecCriterion, \
    accuracy_maximizing_threshold, aggregate_rating, blend_prediction
from .seeds import derive_seed

STRATEGIES = (
    "fixed-frontal",
    "noisy-prior",
    "top-vote",
    "posterior-rating",
    "rec-forest",
)


@dataclass
class EvalReport:
    """Pooled evaluation results for one strategy.  The curves are (P, 2)
    float64 arrays of (threshold, fraction) and (recall, precision) rows."""

    mean_error: float
    visibility_accuracy: float
    visibility_ap: float | None
    ced_curve: np.ndarray
    pr_curve: np.ndarray
    per_sample_errors: np.ndarray


def sample_error(predicted, truth, visible, normalizer) -> float:
    """Mean landmark distance over the visible set, % of the normalizer."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    visible = np.asarray(visible, dtype=bool)
    if not (predicted.ndim == 2 and predicted.shape[1] == 2 and truth.shape == predicted.shape
            and visible.shape == predicted.shape[:1]):
        raise ValueError("predicted and truth must be (N, 2) and visible (N,)")
    if not (np.isfinite(predicted[visible]).all() and np.isfinite(truth[visible]).all()):
        raise ValueError("predicted and truth must be finite at the visible landmarks")
    if normalizer <= 0 or not np.isfinite(normalizer):
        raise ValueError("normalizer must be positive and finite")
    if not visible.any():
        raise ValueError("sample has no visible landmarks to score")
    d = np.linalg.norm(predicted[visible] - truth[visible], axis=1)
    return float(100.0 * np.mean(d) / normalizer)


def visibility_scores(confidences, flags, visible_truth):
    """Score visibility predictions against ground truth.

    Returns (accuracy, ap, pr_curve).  Accuracy is flag agreement.  AP ranks
    landmarks by score = 1 - confidence with invisible as the positive
    class: sum of precision at each positive divided by the positive count,
    computed blockwise over distinct scores so ties share one operating
    point; `pr_curve` is a (P, 2) float64 array of their (recall,
    precision) rows.  No positives in the ground truth makes AP undefined;
    it is returned as None, and the curve is `np.empty((0, 2))`.
    """
    conf = np.asarray(confidences, dtype=np.float64).ravel()
    flg = np.asarray(flags, dtype=bool).ravel()
    vis = np.asarray(visible_truth, dtype=bool).ravel()
    if conf.shape != flg.shape or conf.shape != vis.shape:
        raise ValueError("confidences, flags, and truth must align")
    if conf.size == 0:
        raise ValueError("no scored landmarks")
    if not np.isfinite(conf).all():  # a NaN would sort last, as the lowest score
        raise ValueError("confidences must be finite")
    accuracy = float(np.mean(flg == vis))
    positive = ~vis
    total_pos = int(positive.sum())
    if total_pos == 0:
        return accuracy, None, np.empty((0, 2))
    scores = 1.0 - conf
    order = np.argsort(-scores)  # sums at block ends ignore the order of ties
    s_sorted = scores[order]
    cum_pos = np.cumsum(positive[order])
    # operating points: one per distinct score, at the block's last element
    last = np.ones(conf.size, dtype=bool)
    last[:-1] = s_sorted[:-1] != s_sorted[1:]
    ends = np.nonzero(last)[0]
    precision = cum_pos[ends] / (ends + 1.0)
    recall = cum_pos[ends] / total_pos
    gained = np.diff(np.concatenate([[0], cum_pos[ends]]))
    ap = float(np.sum(gained * precision) / total_pos)
    return accuracy, ap, np.column_stack([recall, precision])


def ced_curve(per_sample_errors, thresholds):
    """Cumulative error distribution: a (P, 2) float64 array of (threshold,
    fraction) rows, the fraction of samples at or below each threshold (0 at
    a NaN threshold).  Thresholds are sorted so the curve is non-decreasing."""
    errors = np.asarray(per_sample_errors, dtype=np.float64).ravel()
    if errors.size == 0:
        raise ValueError("no sample errors to summarize")
    t = np.sort(np.asarray(thresholds, dtype=np.float64).ravel())
    counts = np.searchsorted(np.sort(errors), t, side="right")
    return np.column_stack([t, np.where(np.isnan(t), 0, counts) / errors.size])


@dataclass(frozen=True)
class CompareConfig:
    """Settings for the cross-validated strategy comparison."""

    strategies: tuple[str, ...] = STRATEGIES
    fold_count: int = 5
    validation_fraction: float = 0.2
    pose_noise_deg: float = 25.0
    cluster_centers: tuple[float, ...] | None = None
    rng_seed: int = 0
    train: RecTrainConfig = field(default_factory=RecTrainConfig)

    def validate(self):
        _check_fields(self)
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(
                    "unknown strategy %r; valid: %s" % (s, ", ".join(STRATEGIES))
                )
        if len(self.strategies) == 0:
            raise ValueError("at least one strategy required")
        if self.fold_count < 2:
            raise ValueError("fold_count must be at least 2")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.pose_noise_deg < 0:
            raise ValueError("pose_noise_deg must be nonnegative")
        self.train.validate()


def fold_assignment(sample_count: int, fold_count: int, seed: int) -> np.ndarray:
    """Deterministic fold index per sample; each sample lands in exactly one
    fold and fold sizes differ by at most one."""
    perm = np.random.default_rng(derive_seed(seed, "folds")).permutation(sample_count)
    fold = np.empty(sample_count, dtype=np.int64)
    fold[perm] = np.arange(sample_count) % fold_count
    return fold


def _holdout_split(indices, fraction, rng):
    """Shuffle `indices` with `rng` and hold out round(fraction * size) of
    them, at least one, for validation.  Returns sorted (fit, validation)."""
    shuffled = rng.permutation(indices)
    val_count = max(1, int(round(fraction * shuffled.size)))
    if val_count >= shuffled.size:
        raise ValueError("validation slice leaves no training samples")
    return np.sort(shuffled[val_count:]), np.sort(shuffled[:val_count])


def _forest_ratings(dataset, rows, forests):
    """{strategy: rating (rows.size, C)} of the forest strategies on rows
    `rows`.  Each forest is routed once, by `aggregate_rating`, whose pass
    also tallies the votes that make top-vote's one-hot rating."""
    C = dataset.model_count
    ratings = {}
    for key, forest in forests.items():
        votes = np.zeros((rows.size, C), dtype=np.int64)
        rating = aggregate_rating(forest.trees, dataset.features[rows], C, votes)
        if key == "class":
            ratings["top-vote"] = np.eye(C)[np.argmax(votes, axis=1)]  # ties to the smallest
            ratings["posterior-rating"] = rating
        else:
            ratings[key] = rating
    return ratings


def _sample_errors(landmarks, dataset, rows):
    """`sample_error` of landmarks[i] against sample rows[i], bit for bit, one
    group of samples per visible count; NaN for a sample with none visible."""
    rows = np.asarray(rows, dtype=np.int64)
    visible = dataset.visible[rows]
    counts = visible.sum(axis=1)
    errors = np.full(rows.size, np.nan)
    for k in np.unique(counts[counts > 0]):
        group = np.nonzero(counts == k)[0]
        vis = visible[group]
        diff = landmarks[group][vis] - dataset.ground_truth[rows[group]][vis]
        d = np.linalg.norm(diff.reshape(group.size, k, 2), axis=2)
        errors[group] = 100.0 * d.mean(axis=1) / dataset.normalizer[rows[group]]
    return errors


def _eval_report(errors, confidences, flags, visible):
    """EvalReport of per-sample errors and per-landmark visibility outputs;
    samples with no visible landmark are left out of the error figures."""
    errors = errors[visible.any(axis=1)]
    if errors.size == 0:
        raise ValueError("no samples with visible landmarks to evaluate")
    accuracy, ap, pr = visibility_scores(
        confidences.ravel(), flags.ravel(), visible.ravel()
    )
    thresholds = np.linspace(0.0, float(errors.max()), 51)
    return EvalReport(
        mean_error=float(np.mean(errors)),
        visibility_accuracy=accuracy,
        visibility_ap=ap,
        ced_curve=ced_curve(errors, thresholds),
        pr_curve=pr,
        per_sample_errors=errors,
    )


def _train_folds(dataset, labels, config, workers):
    """Yield per fold (test_idx, fit_idx, val_idx, fold training config, forests).

    `forests` maps "rec-forest" and "class" to the forests the strategies
    need, each the one trained on `dataset.subset(fit_idx)`, bit for bit.
    One criterion of each kind and one `_grow_forests` call serve all folds;
    a fold comes back as soon as its forests are grown.
    """
    fold = fold_assignment(dataset.sample_count, config.fold_count, config.rng_seed)
    criteria = {}
    if "rec-forest" in config.strategies:
        criteria["rec-forest"] = _RecCriterion(dataset)
    if {"top-vote", "posterior-rating"} & set(config.strategies):
        criteria["class"] = _ClassCriterion(labels, dataset.model_count)
    folds, jobs = [], []
    for f in range(config.fold_count):
        val_rng = np.random.default_rng(derive_seed(config.rng_seed, "val", f))
        fit_idx, val_idx = _holdout_split(
            np.nonzero(fold != f)[0], config.validation_fraction, val_rng
        )
        fold_train = replace(config.train, rng_seed=derive_seed(config.rng_seed, "train", f))
        folds.append((np.nonzero(fold == f)[0], fit_idx, val_idx, fold_train))
        jobs += [(key, fold_train, fit_idx) for key in criteria]
    kinds = {"rec-forest": "recommendation", "class": "classification"}
    with closing(_grow_forests(criteria, dataset.features, jobs, workers)) as trees:
        for split in folds:
            yield split + ({key: RecForest(next(trees), dataset.protocol, kind=kinds[key])
                            for key in criteria},)


def run_comparison(dataset: ResponseDataset, yaw, cluster_id, config, workers=1):
    """Cross-validated comparison of selection strategies.

    yaw and cluster_id are the generator metadata arrays; yaw feeds the
    noisy-prior baseline and cluster_id labels the classification forest.
    Returns {strategy: EvalReport} with errors pooled over every sample's
    single test-fold appearance; `config.fold_count` may be at most the
    sample count (leave-one-out).  One criterion pair and, with
    `workers > 1`, one pool serve every fold; its workers get the criteria
    once.  A fold is scored as soon as its forests are grown, while the pool
    grows the rest, and each forest is routed once over the fold's
    validation and test rows.  Reports are identical at any worker count.
    """
    config.validate()
    M = dataset.sample_count
    if config.fold_count > M:
        raise ValueError("fold_count must be at most the sample count, %d" % M)
    yaw = np.asarray(yaw, dtype=np.float64)
    if yaw.shape != (M,) or not np.all(np.isfinite(yaw)):
        raise ValueError("yaw must be (M,) finite")
    labels_all = derive_labels(dataset, cluster_id)

    needs_centers = {"fixed-frontal", "noisy-prior"} & set(config.strategies)
    centers = None
    if needs_centers:
        if config.cluster_centers is None:
            raise ValueError(
                "cluster_centers required for strategies %s"
                % ", ".join(sorted(needs_centers))
            )
        centers = np.asarray(config.cluster_centers, dtype=np.float64)
        if centers.shape != (dataset.model_count,):
            raise ValueError("cluster_centers must list one center per model")

    N, C = dataset.landmark_count, dataset.model_count
    err = {s: np.full(M, np.nan) for s in config.strategies}
    conf_pool = {s: np.zeros((M, N)) for s in config.strategies}
    flag_pool = {s: np.zeros((M, N), dtype=bool) for s in config.strategies}

    with closing(_train_folds(dataset, labels_all, config, workers)) as folds:
        for f, (test_idx, _, val_idx, _, forests) in enumerate(folds):
            # fixed-frontal is the prior baseline with every yaw estimate at 0
            estimates = {"fixed-frontal": np.zeros(M)}
            if "noisy-prior" in config.strategies:
                rng = np.random.default_rng(derive_seed(config.rng_seed, "noisy-prior", f))
                estimates["noisy-prior"] = yaw + rng.normal(0.0, config.pose_noise_deg, size=M)
            rows = np.concatenate([val_idx, test_idx])
            ratings = _forest_ratings(dataset, rows, forests)
            for strat in config.strategies:
                if strat in estimates:  # one-hot on the nearest cluster center
                    choice = np.argmin(np.abs(estimates[strat][rows, None] - centers), axis=1)
                    ratings[strat] = np.eye(C)[choice]
                # each part blends on its own, as a call on its rows alone would
                W_val, W_test = np.split(ratings[strat], [val_idx.size])
                _, conf_val, _ = blend_prediction(dataset.protocol, dataset.responses[val_idx],
                                                  dataset.features[val_idx], W_val, 0.0)
                lm, conf, _ = blend_prediction(dataset.protocol, dataset.responses[test_idx],
                                               dataset.features[test_idx], W_test, 0.0)
                gamma, _ = accuracy_maximizing_threshold(conf_val.ravel(),
                                                         dataset.visible[val_idx].ravel())
                conf_pool[strat][test_idx] = conf
                flag_pool[strat][test_idx] = conf >= gamma
                err[strat][test_idx] = _sample_errors(lm, dataset, test_idx)

    return {
        strat: _eval_report(
            err[strat], conf_pool[strat], flag_pool[strat], dataset.visible
        )
        for strat in config.strategies
    }


def _report_record(report):
    return {
        "meanError": report.mean_error,
        "visibilityAccuracy": report.visibility_accuracy,
        "visibilityAP": report.visibility_ap,
    }


def format_comparison(reports, fmt="table") -> str:
    """Render comparison reports as a text table or machine records.

    Both forms are deterministic functions of the reports (no timing, no
    environment), so fixed-seed runs reproduce them byte for byte.
    """
    order = [s for s in STRATEGIES if s in reports]
    order += sorted(set(reports) - set(order))
    if fmt == "records":
        strategies = {s: _report_record(reports[s]) for s in order}
        payload = {"formatVersion": 1, "strategies": strategies}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt != "table":
        raise ValueError("format must be 'table' or 'records'")
    width = max(len(s) for s in order)
    lines = ["%-*s  %10s  %12s  %8s" % (width, "strategy", "mean-error", "vis-accuracy", "vis-AP")]
    for s in order:
        r = reports[s]
        ap = "%8.4f" % r.visibility_ap if r.visibility_ap is not None else "%8s" % "-"
        lines.append(
            "%-*s  %10.4f  %12.4f  %s" % (width, s, r.mean_error, r.visibility_accuracy, ap)
        )
    return "\n".join(lines) + "\n"


def curve_lines(curve) -> str:
    """Two-column text rendering of a curve, one point per line."""
    return "".join("%r %r\n" % (float(x), float(y)) for x, y in curve)
