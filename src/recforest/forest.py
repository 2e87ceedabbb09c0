"""Recommendation trees: joint split/rating training and blended inference.

A recommendation tree is a binary decision tree over recommendation features
whose leaves store model rating vectors.  Split quality is the reduction in
blended-shape reconstruction cost, where each candidate child's rating is
re-optimized by simplex-constrained least squares.  Inference routes a
feature vector through every tree, averages leaf ratings weighted by leaf
training-sample counts, and blends the pool responses with the result.

Node cost H is the MEAN squared residual per visible landmark instance, and
split gain weights children by their visible-instance counts.  With those
conventions the parent cost decomposes exactly into the children's weighted
costs under the parent rating, so an accepted split's gain is a true
(nonnegative) cost reduction and a content-free split gains exactly zero.
"""

import ctypes
import logging
import math
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .data import (ModelProtocol, Prediction, ResponseDataset, _check_fields, _rating_rows,
                   rating_vector)
from .seeds import derive_seed
from .simplex import solve_gram_batch

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SplitParams:
    """Routing rule: feature `feature_index` <= `threshold` goes left."""

    feature_index: int
    threshold: float

    def __post_init__(self):
        if self.feature_index < 0:
            raise ValueError("feature_index must be nonnegative")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")


@dataclass
class Split:
    params: SplitParams
    gain: float
    left: object
    right: object


@dataclass(eq=False)
class Leaf:
    rating: np.ndarray
    sample_count: int

    def __post_init__(self):
        self.rating = rating_vector(self.rating)
        if self.sample_count < 1:
            raise ValueError("leaf sample_count must be >= 1")

    def __eq__(self, other):
        return (
            isinstance(other, Leaf)
            and self.sample_count == other.sample_count
            and np.array_equal(self.rating, other.rating)
        )


@dataclass
class RecForest:
    """`Split`/`Leaf` trees over the pool `protocol`.  `kind` names what a
    leaf's `rating` holds: "recommendation" ratings or the "classification"
    baseline's class posterior.  Both kinds blend through `predict_many`."""

    trees: list
    protocol: ModelProtocol
    gamma: float = 0.5
    kind: str = "recommendation"

    def __post_init__(self):
        if len(self.trees) < 1:
            raise ValueError("forest needs at least one tree")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.kind not in ("recommendation", "classification"):
            raise ValueError("kind must be 'recommendation' or 'classification'")


@dataclass(frozen=True)
class RecTrainConfig:
    """Hyperparameters shared by the recommendation and classification forests.

    `candidate_feature_count=None` means ceil(sqrt(F)), resolved per dataset.
    `bootstrap_fraction=1.0` trains every tree on the full sample set (the
    deterministic draw); fractions below 1 sample ceil(fraction*M) indices
    with replacement from the tree's own RNG stream.
    """

    tree_count: int = 10
    max_depth: int = 12
    min_samples_per_leaf: int = 10
    candidate_feature_count: int | None = None
    candidate_threshold_count: int = 10
    min_gain: float = 1e-9
    bootstrap_fraction: float = 1.0
    rng_seed: int = 0

    def validate(self):
        _check_fields(self)
        if self.tree_count < 1:
            raise ValueError("tree_count must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_per_leaf < 1:
            raise ValueError("min_samples_per_leaf must be >= 1")
        if self.candidate_feature_count is not None and self.candidate_feature_count < 1:
            raise ValueError("candidate_feature_count must be >= 1")
        if self.candidate_threshold_count < 1:
            raise ValueError("candidate_threshold_count must be >= 1")
        if not self.min_gain >= 0:
            raise ValueError("min_gain must be >= 0")
        if not 0.0 < self.bootstrap_fraction <= 1.0:
            raise ValueError("bootstrap_fraction must be in (0, 1]")


# ---------------------------------------------------------------------------
# Training fast path: per-sample Gram aggregates
# ---------------------------------------------------------------------------

class _SampleSums:
    """Node statistics that are sums of per-sample rows of `self.table` (M, K).

    A subclass sets `table` and turns a batch of row sums (B, K) and sample
    counts (B,) into its statistics tuple with `_stats`.  The sample-index
    multiset `idx` of a node may repeat rows, as a bootstrap draw does.
    """

    def node_stats(self, idx):
        """Statistics of the node `idx` itself, as a batch of one row."""
        return self._stats(self.table[idx].sum(axis=0, keepdims=True),
                           np.array([idx.size]))

    def mask_stats(self, idx, masks):
        """Statistics of 2Q children of the node `idx` (S,), for left masks (Q, S).

        The node's rows are gathered once.  The Q left children are one
        matrix product; the Q right children that follow them are each the
        node total minus its left row.
        """
        rows = self.table[idx]
        left = masks.astype(np.float64) @ rows
        n = masks.sum(axis=1)
        return self._stats(np.concatenate([left, rows.sum(axis=0) - left]),
                           np.concatenate([n, idx.size - n]))


class _RecCriterion(_SampleSums):
    """Per-sample sufficient statistics for the blended-residual cost.

    A rating w sums to one, so sum_c w_c x_c - y = sum_c w_c (x_c - y).  For
    sample m, over its visible landmarks: E[m] = sum (x_c - y).(x_e - y), the
    error Gram, and inst[m] = visible count.  A node's cost at w is w'Ew with
    E summed over its subset: a sum of squares, with no cancellation at
    pixel-scale coordinates.  With both side by side in one `table` row per
    sample, candidate children cost one matrix product.
    """

    def __init__(self, dataset: ResponseDataset):
        vis = dataset.visible
        gt0 = np.where(vis[:, :, None], dataset.ground_truth, 0.0)
        err = dataset.responses - gt0[:, None]
        err *= vis[:, None, :, None]
        self.dim = C = dataset.model_count
        self.table = np.empty((dataset.sample_count, C * C + 1))
        # E and inst are column views: the einsum and the sum fill the table
        self.E, self.inst, _ = self._stats(self.table, None)
        np.einsum("mcnd,mend->mce", err, err, out=self.E)
        vis.sum(axis=1, out=self.inst)

    def _stats(self, sums, n):
        """(E, inst, n): views of the E and inst columns."""
        C = self.dim
        return sums[:, :C * C].reshape(-1, C, C), sums[:, -1], n

    def fit_batch(self, stats):
        """(payloads, total costs, feasible, weights) per row; weight = inst,
        total = w'Ew at the fitted rating w; an unconverged row keeps its best iterate."""
        E, inst, n = stats
        Q = n.shape[0]
        feasible = (n >= 1) & (inst >= 1)
        payloads = np.zeros((Q, self.dim))
        totals = np.full(Q, np.inf)
        if feasible.any():
            if not feasible.all():  # else the solver reads E uncopied
                E = E[feasible]
            W, _, converged = solve_gram_batch(E, np.zeros((E.shape[0], self.dim)))
            if not converged.all():
                logger.warning(
                    "simplex solver did not converge on %d of %d rows; "
                    "using the best iterate", int((~converged).sum()), converged.size,
                )
            totals[feasible] = np.einsum("ki,ki->k", W, np.einsum("kij,kj->ki", E, W))
            payloads[feasible] = W
        return payloads, totals, feasible, inst


def bootstrap_indices(config: RecTrainConfig, sample_count: int, rng):
    """The sample multiset a tree trains on.

    Fraction 1.0 is the deterministic identity draw (consumes no RNG);
    smaller fractions draw ceil(fraction*M) indices with replacement.
    """
    if config.bootstrap_fraction == 1.0:
        return np.arange(sample_count, dtype=np.int64)
    size = int(math.ceil(config.bootstrap_fraction * sample_count))
    return rng.integers(0, sample_count, size=size, dtype=np.int64)


_FIT_ROWS = 2048  # candidate rows per `fit_batch`, counted before duplicates drop


def _grow_levels(criterion, features, config, rows, rngs):
    """Grow one tree per numpy Generator in `rngs`, all a level at a time.

    A tree's Generator draws its sample multiset over `rows`, then one 64-bit
    key.  The stream derive_seed(key, "depth", d) draws the candidates of the
    tree's depth-d nodes in level order (left child before right, parent by
    parent): features without replacement, the first columns of the argsort
    of a (nodes, F) uniform matrix, then thresholds lo + u * (hi - lo) inside
    each feature's node range.  A node at max_depth, or with fewer than
    2 * min_samples_per_leaf samples, is a leaf and draws nothing.  So no
    draw depends on other trees or deeper levels.

    Candidates of a node with the same feature and left count are one
    partition, solved once.  A level's nodes go to `fit_batch` in groups of
    _FIT_ROWS // (2Q) nodes (14 at Q = 70), which changes no result.  The
    best candidate wins by gain, ties to the earliest; the node splits if
    that gain exceeds min_gain and both sides keep min_samples_per_leaf
    samples.  Leaves hold the fitted payload as `Leaf.rating` (a simplex
    rating, or a class posterior), all checked in one `_rating_rows` call.

    Returns [(root, counters)]; counters hold the tree's nodes and depth and
    the growth seconds of the whole call.
    """
    start = time.perf_counter()
    F = features.shape[1]
    n_feats = config.candidate_feature_count
    if n_feats is None:
        n_feats = int(math.ceil(math.sqrt(F)))
    n_feats = min(n_feats, F)
    n_thresh = config.candidate_threshold_count
    Q = n_feats * n_thresh
    per_fit = max(1, _FIT_ROWS // (2 * Q))
    least = config.min_samples_per_leaf
    idxs = [rows[bootstrap_indices(config, rows.size, rng)] for rng in rngs]
    keys = [int(rng.integers(1 << 64, dtype=np.uint64)) for rng in rngs]
    stats = tuple(map(np.concatenate, zip(*map(criterion.node_stats, idxs))))
    payloads, totals, feasible, weights = criterion.fit_batch(stats)
    if not feasible.all():
        raise ValueError("node has no visible landmark instances")
    counters = [{"nodes": 0, "depth": 0} for _ in rngs]
    roots = [Split(None, 0.0, None, None) for _ in rngs]  # a stand-in parent per tree
    leaves = []  # (parent, side, payload, samples), checked together at the end
    # a frontier node: (tree, samples, weight, payload, total cost, parent, side)
    frontier = [(t, idx, weights[t], payloads[t], totals[t], roots[t], "left")
                for t, idx in enumerate(idxs)]
    for depth in range(config.max_depth + 1):
        ready = []
        for node in frontier:
            t, idx, _, payload, _, parent, side = node
            counters[t]["nodes"] += 1
            counters[t]["depth"] = depth
            if depth < config.max_depth and idx.size >= 2 * least:
                ready.append(node)
            else:
                leaves.append((parent, side, payload, idx.size))
        frontier = []
        if not ready:
            break
        counts = np.bincount([node[0] for node in ready], minlength=len(keys))
        draws = [(np.random.default_rng(derive_seed(keys[t], "depth", depth)), counts[t])
                 for t in np.flatnonzero(counts)]
        feats = np.concatenate([np.argsort(rng.random((n, F)), axis=1, kind="stable")
                                [:, :n_feats] for rng, n in draws])
        unit = np.concatenate([rng.random((n, n_feats, n_thresh)) for rng, n in draws])
        for g in range(0, len(ready), per_fit):
            group = ready[g:g + per_fit]
            # a node's candidate features as rows (n_feats, samples), gathered
            # node by node: a whole group's gather raised the pool workers' peak
            vals = [features[node[1][None, :], f[:, None]]
                    for node, f in zip(group, feats[g:g + per_fit])]
            lo = np.array([v.min(axis=1) for v in vals])
            hi = np.array([v.max(axis=1) for v in vals])
            taus = lo[:, :, None] + unit[g:g + per_fit] * (hi - lo)[:, :, None]
            masks = [(v[:, None, :] <= tau[:, :, None]).reshape(Q, -1)
                     for v, tau in zip(vals, taus)]
            del vals
            lefts = np.array([mask.sum(axis=1) for mask in masks])
            # A partition is a (node, feature slot, left count); its candidates
            # point at the first of them, the one kept.  Pairwise, not by a
            # sort: the sort code alone raised the pool workers' peak.
            slot = lefts.reshape(-1, n_thresh)
            first = np.argmax(slot[:, :, None] == slot[:, None, :], axis=2)
            first = (first + np.arange(0, lefts.size, n_thresh)[:, None]).ravel()
            keep = first == np.arange(lefts.size)
            inverse = (np.cumsum(keep) - 1)[first]  # the partition's row among kept ones
            keep = keep.reshape(-1, Q)
            bounds = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
            stats = tuple(map(np.concatenate, zip(*(
                criterion.mask_stats(node[1], mask[kept])
                for node, mask, kept in zip(group, masks, keep)))))
            payloads, totals, feasible, weights = criterion.fit_batch(stats)
            # node i's unique candidate u has its left row at u + bounds[i],
            # its right row at u + bounds[i + 1]
            left = inverse.reshape(-1, Q) + bounds[:-1, None]
            right = inverse.reshape(-1, Q) + bounds[1:, None]
            fit = np.array([[node[2], node[4]] for node in group])  # weight, total cost
            with np.errstate(invalid="ignore"):
                gains = np.where(feasible[left] & feasible[right],
                                 (fit[:, 1:] - totals[left] - totals[right]) / fit[:, :1],
                                 -np.inf)
            best = np.argmax(gains, axis=1)
            for i, node in enumerate(group):
                t, idx, _, payload, _, up, side = node
                b = best[i]
                if not (gains[i, b] > config.min_gain
                        and least <= lefts[i, b] <= idx.size - least):
                    leaves.append((up, side, payload, idx.size))
                    continue
                f_pos, t_pos = divmod(b, n_thresh)
                params = SplitParams(int(feats[g + i, f_pos]), float(taus[i, f_pos, t_pos]))
                split = Split(params, float(gains[i, b]), None, None)
                setattr(up, side, split)
                go = masks[i][b]
                for part, row, child in ((idx[go], left[i, b], "left"),
                                         (idx[~go], right[i, b], "right")):
                    frontier.append((t, part, weights[row], payloads[row].copy(),
                                     totals[row], split, child))
    for (parent, side, _, count), rating in zip(leaves, _rating_rows([x[2] for x in leaves])):
        leaf = Leaf.__new__(Leaf)  # its rating is checked: skip `__post_init__`
        leaf.rating, leaf.sample_count = rating, count
        setattr(parent, side, leaf)
    elapsed = time.perf_counter() - start
    return [(root.left, dict(c, elapsed=elapsed)) for root, c in zip(roots, counters)]


def _grow_tree(criterion, features, config, rows, trees):
    """Grow trees `trees` of one forest over sample rows `rows` by
    `_grow_levels`, tree t from the Generator seeded
    derive_seed(config.rng_seed, "tree", t).  Returns [(root, counters)]."""
    return _grow_levels(criterion, features, config, rows, [
        np.random.default_rng(derive_seed(config.rng_seed, "tree", t)) for t in trees])


_shared = {}  # a pool worker's criteria and features, set by `_share`


def _openblas_functions(names):
    """The first of `names` that each OpenBLAS loaded in this process exports;
    none where the memory map or a library cannot be read."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh
                     if "openblas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            found += [getattr(lib, name) for name in names if hasattr(lib, name)][:1]
    except OSError:
        pass
    return found


@cache
def _blas_setters():
    """This process's OpenBLAS thread-count setters, looked up once; a forked
    pool worker inherits them from the process that started the pool."""
    return _openblas_functions(("scipy_openblas_set_num_threads64_",
                                "openblas_set_num_threads64_", "openblas_set_num_threads"))


def _share(criteria, features):
    """Pool initializer: the criteria and features of this worker's tasks,
    and one BLAS thread, so workers do not oversubscribe the cores."""
    _shared.update(criteria=criteria, features=features)
    for set_threads in _blas_setters():
        set_threads(1)


def _shared_chunk(key, config, rows, trees):
    """Pool task: `_grow_tree` on the criterion `key` given to `_share`."""
    return _grow_tree(_shared["criteria"][key], _shared["features"], config, rows, trees)


def _grow_forests(criteria, features, forests, workers):
    """Yield the trees of each forest, a (criterion key, config, rows) triple.

    A forest grows on rows `rows` of `criteria[key]` and `features`, which
    gives the forest trained on those rows alone, bit for bit.  Its trees
    split into min(workers, tree_count) contiguous chunks, each grown by
    `_grow_tree`; with `workers > 1` every chunk is a task of one pool whose
    workers get the criteria and features once, at start-up; with one chunk
    per forest no pool starts, and a forest grows when it is asked for.
    Forests come back in order, each as soon as its chunks are back,
    identical for any worker count; a chunk's result is dropped once its
    trees are read, so only unread results stay here, not all forests.
    Closing the generator early cancels the pending tasks.
    """
    tasks = [(key, config, rows, chunk.tolist())
             for key, config, rows in forests
             for chunk in np.array_split(np.arange(config.tree_count),
                                         max(1, min(workers, config.tree_count)))]
    pool = None
    if len(tasks) > len(forests):
        _blas_setters()  # looked up before the workers fork, which inherit them
        pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)), initializer=_share,
                                   initargs=(criteria, features))
    try:
        results = deque(pool.submit(_shared_chunk, *task).result if pool else
                        partial(_grow_tree, criteria[task[0]], features, *task[1:])
                        for task in tasks)
        trees = []
        for _, config, _, chunk in tasks:
            for t, (root, counters) in zip(chunk, results.popleft()()):
                logger.info("tree=%d depth=%d nodes=%d", t, counters["depth"],
                            counters["nodes"])
                trees.append(root)
            logger.info("trees=%d-%d elapsed=%.3fs", chunk[0], chunk[-1], counters["elapsed"])
            if chunk[-1] == config.tree_count - 1:  # the forest's last chunk
                yield trees
                trees = []
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _run_tree_tasks(criterion, features, config, workers):
    """One forest's trees over every row of `criterion`, by `_grow_forests`."""
    rows = np.arange(features.shape[0], dtype=np.int64)
    [trees] = _grow_forests({"": criterion}, features, [("", config, rows)], workers)
    return trees


def train_forest(dataset: ResponseDataset, config: RecTrainConfig,
                 workers: int = 1) -> RecForest:
    """Train a recommendation forest.

    Tree t is the tree `_grow_levels` grows alone from the Generator seeded
    by derive_seed(config.rng_seed, "tree", t).  The trees of one process grow
    a level at a time, sharing each simplex solve; `workers > 1` opens one
    pool whose workers get the call's one criterion once and a chunk of
    trees each.  Forests are reproducible bit for bit regardless of
    `workers`.
    """
    config.validate()
    if not dataset.visible.any():
        raise ValueError("dataset has no visible landmark instances")
    trees = _run_tree_tasks(_RecCriterion(dataset), dataset.features, config, workers)
    return RecForest(trees=trees, protocol=dataset.protocol, gamma=0.5)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _route_payloads(root, features, dim):
    """Route all feature rows; returns (leaf ratings (M, dim), counts (M,))."""
    M = features.shape[0]
    payloads = np.empty((M, dim))
    counts = np.empty(M)
    stack = [(root, np.arange(M, dtype=np.int64))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if isinstance(node, Split):
            go = features[rows, node.params.feature_index] <= node.params.threshold
            stack.append((node.left, rows[go]))
            stack.append((node.right, rows[~go]))
        else:
            payloads[rows] = node.rating
            counts[rows] = node.sample_count
    return payloads, counts


def aggregate_rating(trees, features, dim, votes=None) -> np.ndarray:
    """Count-weighted average of leaf ratings across trees, per feature row.

    Each tree routes the rows once.  Given `votes`, an (M, dim) int array,
    the same pass adds each tree's vote to it: the argmax of the row's leaf
    rating, ties to the smallest index.
    """
    M = features.shape[0]
    num = np.zeros((M, dim))
    den = np.zeros(M)
    for root in trees:
        payloads, counts = _route_payloads(root, features, dim)
        num += counts[:, None] * payloads
        den += counts
        if votes is not None:
            votes[np.arange(M), np.argmax(payloads, axis=1)] += 1
    return num / den[:, None]


def blend_prediction(protocol: ModelProtocol, responses, features, W, gamma):
    """Blend pool responses and detection scores with per-sample ratings W.

    responses (M, C, N, 2), features (M, F), W (M, C).  Returns (landmarks
    (M, N, 2), confidence (M, N) clamped to [0, 1], flags (M, N)).
    Confidence sums only over models whose protocol marks the landmark
    visible.
    """
    landmarks = np.einsum("mcnd,mc->mnd", responses, W)
    slots = np.where(protocol.masks, protocol.slot_grid, 0)
    scores = features[:, slots] * protocol.masks[None, :, :]
    confidence = np.einsum("mcn,mc->mn", scores, W)
    confidence = np.clip(confidence, 0.0, 1.0)
    return landmarks, confidence, confidence >= gamma


def _check_inputs(forest, responses, features):
    """Float64 (responses, features), checked against the forest's protocol;
    and the forest's `gamma`, which may have been set after construction."""
    if not 0.0 <= forest.gamma <= 1.0:  # NaN fails too
        raise ValueError("gamma must lie in [0, 1]")
    responses = np.asarray(responses, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    proto = forest.protocol
    if features.ndim != 2:
        raise ValueError("features must be a 2-D array, one row per sample")
    M = features.shape[0]
    if responses.shape != (M, proto.model_count, proto.landmark_count, 2):
        raise ValueError("responses shape does not match the forest protocol")
    if features.shape != (M, proto.feature_count):
        raise ValueError("features shape does not match the forest protocol")
    if not (np.isfinite(responses).all() and np.isfinite(features).all()):
        raise ValueError("responses and features must be finite")
    return responses, features


def predict_many(forest: RecForest, responses, features):
    """Batch inference. Returns (landmarks, confidence, flags) arrays.

    A classification forest goes the same way, its leaf posteriors acting
    as ratings.
    """
    responses, features = _check_inputs(forest, responses, features)
    W = aggregate_rating(forest.trees, features, forest.protocol.model_count)
    return blend_prediction(forest.protocol, responses, features, W, forest.gamma)


def predict(forest: RecForest, responses, features) -> Prediction:
    """Single-sample inference: responses (C, N, 2), features (F,), as a
    one-row `predict_many`."""
    landmarks, confidence, flags = predict_many(
        forest, np.asarray(responses)[None], np.asarray(features)[None])
    return Prediction(landmarks[0], confidence[0], flags[0])


# ---------------------------------------------------------------------------
# Visibility threshold calibration
# ---------------------------------------------------------------------------

def accuracy_maximizing_threshold(confidences, labels):
    """Smallest threshold (among distinct confidences plus 0 and 1) that
    maximizes accuracy of (confidence >= threshold) against boolean labels.

    Returns (threshold, accuracy).
    """
    conf = np.asarray(confidences, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    if conf.size == 0 or conf.shape != labels.shape:
        raise ValueError("confidences and labels must be matching non-empty arrays")
    if not np.isfinite(conf).all():  # NaN is never >= a threshold, yet sorts last
        raise ValueError("confidences must be finite")
    candidates = np.unique(np.concatenate([conf, [0.0, 1.0]]))
    order = np.argsort(conf)  # counts below a block of ties ignore their order
    sorted_conf = conf[order]
    sorted_labels = labels[order]
    pos_prefix = np.concatenate([[0], np.cumsum(sorted_labels)])
    neg_prefix = np.concatenate([[0], np.cumsum(~sorted_labels)])
    total_pos = pos_prefix[-1]
    cut = np.searchsorted(sorted_conf, candidates, side="left")
    true_pos = total_pos - pos_prefix[cut]
    true_neg = neg_prefix[cut]
    accuracy = (true_pos + true_neg) / conf.size
    best = int(np.argmax(accuracy))  # first max = smallest candidate
    return float(candidates[best]), float(accuracy[best])


def calibrate_gamma(forest: RecForest, dataset: ResponseDataset) -> tuple[float, float]:
    """Set forest.gamma to the accuracy-maximizing visibility threshold of
    `predict_many`'s confidences on `dataset`.  Returns (gamma, accuracy)."""
    if forest.protocol != dataset.protocol:
        raise ValueError("forest protocol does not match dataset protocol")
    if dataset.sample_count == 0:
        raise ValueError("validation dataset is empty")
    _, confidence, _ = predict_many(forest, dataset.responses, dataset.features)
    forest.gamma, accuracy = accuracy_maximizing_threshold(confidence, dataset.visible)
    return forest.gamma, accuracy
