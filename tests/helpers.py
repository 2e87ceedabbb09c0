"""Shared builders for small synthetic fixtures used across test modules."""

import numpy as np

from recforest.data import ModelProtocol, ResponseDataset, rating_vector
from recforest.forest import SplitParams
from recforest.simplex import SimplexProblem, solve


def random_dataset(rng, M=12, C=3, N=5, full_cover=False):
    """A small structurally valid dataset with random contents."""
    if full_cover:
        masks = np.ones((C, N), dtype=bool)
    else:
        masks = rng.random((C, N)) < 0.75
        masks[:, 0] = True
    proto = ModelProtocol(masks)
    responses = rng.normal(size=(M, C, N, 2))
    visible = rng.random((M, N)) < 0.8
    visible[:, 0] = True  # every sample keeps at least one visible landmark
    ground_truth = rng.normal(size=(M, N, 2))
    ground_truth[~visible] = np.nan
    features = rng.random((M, proto.feature_count))
    return ResponseDataset(
        protocol=proto,
        responses=responses,
        ground_truth=ground_truth,
        visible=visible,
        features=features,
        normalizer=rng.uniform(0.5, 2.0, size=M),
    )


def subset_rows(draw, M, seed=7):
    """Rows of a cross-validation fold ("fold": sorted, distinct) or of a
    bootstrap draw ("bootstrap": unsorted, with repeats)."""
    rng = np.random.default_rng(seed)
    if draw == "fold":
        return np.sort(rng.choice(M, size=2 * M // 3, replace=False))
    rows = rng.integers(0, M, size=M)
    assert np.unique(rows).size < rows.size
    return rows


# ---------------------------------------------------------------------------
# Node cost and rating fit, stacked-row form: a reference for the Gram
# aggregates that training uses
# ---------------------------------------------------------------------------

def _stack_problem(subset, dataset: ResponseDataset):
    """SimplexProblem over every visible landmark instance of `subset`.

    `subset` is a sample-index multiset; repeated indices contribute their
    instances repeatedly, matching bootstrap semantics.
    """
    idx = np.asarray(subset, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("subset must be a non-empty 1-D index array")
    vis = dataset.visible[idx]
    s_pos, n_pos = np.nonzero(vis)
    if s_pos.size == 0:
        raise ValueError("subset has no visible landmark instances")
    m_pos = idx[s_pos]
    targets = dataset.ground_truth[m_pos, n_pos]
    candidates = dataset.responses[m_pos, :, n_pos, :]
    return SimplexProblem(targets, candidates), s_pos.size


def node_cost(subset, dataset: ResponseDataset, w) -> float:
    """Mean squared blended-shape residual per visible landmark instance."""
    w = rating_vector(w)
    problem, count = _stack_problem(subset, dataset)
    if w.size != dataset.model_count:
        raise ValueError("rating length does not match the model pool")
    return problem.objective(w) / count


def fit_node_rating(subset, dataset: ResponseDataset, tolerance=1e-8,
                    max_iterations=1000):
    """Optimal rating for a node subset. Returns (rating, mean cost)."""
    problem, count = _stack_problem(subset, dataset)
    sol = solve(problem, tolerance=tolerance, max_iterations=max_iterations)
    return rating_vector(sol.w), sol.objective / count


def evaluate_split(subset, dataset: ResponseDataset, params: SplitParams):
    """Gain of one candidate split and the fitted child ratings.

    Returns (gain, left_rating, right_rating, left_subset, right_subset).
    Candidates that leave a child empty, or without any visible landmark
    instance, are infeasible: gain is -inf and the ratings are None.
    """
    idx = np.asarray(subset, dtype=np.int64)
    if params.feature_index >= dataset.feature_count:
        raise ValueError("feature_index out of range for this dataset")
    go_left = dataset.features[idx, params.feature_index] <= params.threshold
    left, right = idx[go_left], idx[~go_left]
    k_left = int(dataset.visible[left].sum())
    k_right = int(dataset.visible[right].sum())
    if left.size == 0 or right.size == 0 or k_left == 0 or k_right == 0:
        return -np.inf, None, None, left, right
    _, parent_cost = fit_node_rating(idx, dataset)
    w_left, cost_left = fit_node_rating(left, dataset)
    w_right, cost_right = fit_node_rating(right, dataset)
    k_parent = k_left + k_right
    gain = parent_cost - (k_left * cost_left + k_right * cost_right) / k_parent
    return gain, w_left, w_right, left, right


def class_mask_stats_direct(criterion, idx, masks):
    """`_ClassCriterion.mask_stats` by direct sums: label counts over each left
    mask, then over its complement, each with its own matrix product."""
    def sums(m):
        return m.astype(np.float64) @ criterion.one_hot[idx], m.sum(axis=1)
    return tuple(np.concatenate(pair) for pair in zip(sums(masks), sums(~masks)))


def random_masks(rng, S, Q=12):
    """Q random left masks over S node rows, with an all-left and an all-right
    row among them."""
    masks = rng.random((Q, S)) < rng.uniform(0.05, 0.95, size=(Q, 1))
    masks[0] = True
    masks[1] = False
    return masks
