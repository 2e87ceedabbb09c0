"""Classification-forest baseline: entropy-gain trees over the same features.

The baseline predicts which pool model a sample belongs to.  It trains a
`RecForest` of `kind="classification"`: the same `Split` and `Leaf` trees,
grown by the same trainer, where a leaf's `rating` is its class posterior.
Two inference modes blend a rating exactly like a recommendation forest:
top-vote's rating is one-hot on the model most trees vote for (its
responses come back verbatim), posterior-rating's the count-weighted
average leaf posterior.
"""

import numpy as np

from .data import ResponseDataset, _fits
from .forest import (
    RecForest,
    RecTrainConfig,
    _SampleSums,
    _check_inputs,
    _run_tree_tasks,
    aggregate_rating,
    blend_prediction,
    predict_many,
)


def _check_labels(labels, class_count, noun):
    """`labels` as a 1-D int64 array of class (pool model) indices, each in
    [0, class_count): integers by `data._fits`'s rule, so not bools."""
    if np.ndim(labels) != 1:
        raise ValueError("%s must be a 1-D array" % noun)
    if not _fits(labels, tuple[int, ...]):
        raise ValueError("%s must be integer model indices, not bools or other numbers" % noun)
    labels = np.asarray(labels)  # not int64 if an int is out of its range: rejected below
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ValueError("%s out of range for %d classes" % (noun, class_count))
    return labels.astype(np.int64, copy=False)


def derive_labels(dataset: ResponseDataset, cluster_id=None) -> np.ndarray:
    """Model label per sample.

    Uses the generator-provided cluster ids when given; otherwise falls back
    to the model with the smallest total squared response error over the
    sample's visible landmarks, ties to the smallest index.
    """
    if cluster_id is not None:
        labels = _check_labels(cluster_id, dataset.model_count, "cluster_id")
        if labels.size != dataset.sample_count:
            raise ValueError("cluster_id length does not match the dataset")
        return labels.copy()
    gt0 = np.where(dataset.visible[:, :, None], dataset.ground_truth, 0.0)
    diff = dataset.responses - gt0[:, None, :, :]
    sq = np.einsum("mcnd,mcnd->mcn", diff, diff)
    sq = sq * dataset.visible[:, None, :]
    return np.argmin(sq.sum(axis=2), axis=1).astype(np.int64)


def entropy(labels, class_count: int) -> float:
    """Empirical entropy in nats of integer labels in [0, class_count);
    0*ln 0 taken as 0."""
    labels = _check_labels(labels, class_count, "labels")
    if labels.size == 0:
        raise ValueError("entropy of an empty subset is undefined")
    counts = np.bincount(labels, minlength=class_count).astype(np.float64)
    p = counts / labels.size
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())


class _ClassCriterion(_SampleSums):
    """Label-count statistics for entropy-gain splitting.

    A node's total cost is n*H(counts) = n*ln n - sum_c counts_c*ln counts_c,
    so the shared gain formula (parent - left - right) / parent_weight is
    exactly the information gain with proportional child weighting.  The
    table is the one-hot labels, so every count is an exact integer.
    """

    def __init__(self, labels, class_count):
        self.table = self.one_hot = np.zeros((labels.size, class_count))
        self.one_hot[np.arange(labels.size), labels] = 1.0
        self.dim = class_count

    @staticmethod
    def _total_entropy(counts, n):
        safe = np.where(counts > 0, counts, 1.0)
        plogp = (counts * np.log(safe)).sum(axis=-1)
        n_safe = np.where(n > 0, n, 1.0)
        return n * np.log(n_safe) - plogp

    def _stats(self, counts, n):
        return counts, n

    def fit_batch(self, stats):
        """(payloads, total costs, feasible, weights) per row; weight = n."""
        counts, n = stats
        feasible = n >= 1
        n_safe = np.where(feasible, n, 1.0).astype(np.float64)
        payloads = counts / n_safe[:, None]
        totals = np.where(feasible, self._total_entropy(counts, n_safe), np.inf)
        return payloads, totals, feasible, n


def train_class_forest(dataset: ResponseDataset, labels,
                       config: RecTrainConfig, workers: int = 1) -> RecForest:
    """Train the baseline forest on model labels with entropy gain.

    Same tree/bootstrap/candidate RNG discipline as the recommendation
    forest, so comparisons share every hyperparameter.
    """
    config.validate()
    labels = _check_labels(labels, dataset.model_count, "labels")
    if labels.size != dataset.sample_count:
        raise ValueError("labels length does not match the dataset")
    criterion = _ClassCriterion(labels, dataset.model_count)
    trees = _run_tree_tasks(criterion, dataset.features, config, workers)
    return RecForest(trees=trees, protocol=dataset.protocol, gamma=0.5,
                     kind="classification")


# ---------------------------------------------------------------------------
# Inference modes
# ---------------------------------------------------------------------------

def predict_top_vote_many(forest: RecForest, responses, features):
    """Majority vote over trees; the winning model answers alone.

    Each tree votes the argmax of its leaf posterior (ties to the smallest
    model index).  The rating is one-hot on the most-voted model c*, blended
    like every other rating: c*'s responses, with confidence equal to its own
    detection scores on its protocol's visible landmarks and 0 elsewhere.
    """
    responses, features = _check_inputs(forest, responses, features)
    C = forest.protocol.model_count
    votes = np.zeros((features.shape[0], C), dtype=np.int64)
    aggregate_rating(forest.trees, features, C, votes)
    W = np.eye(C)[np.argmax(votes, axis=1)]  # ties to the smallest index
    return blend_prediction(forest.protocol, responses, features, W, forest.gamma)


def predict_posterior_rating_many(forest: RecForest, responses, features):
    """Blend with the count-weighted average posterior as the rating."""
    return predict_many(forest, responses, features)
