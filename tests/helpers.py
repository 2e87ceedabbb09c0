"""Shared builders for small synthetic fixtures used across test modules."""

import base64
import json
import math

import numpy as np

from recforest.data import (
    ModelProtocol,
    ResponseDataset,
    SchemaError,
    _atomic_write,
    _fits,
    _float_array,
    _read_protocol,
    _require,
    rating_vector,
)
from recforest.forest import RecTrainConfig, Split, SplitParams, _grow_levels, _RecCriterion
from recforest.seeds import derive_seed
from recforest.synth import (
    CHIN_ANCHOR,
    TOP_ANCHOR,
    GenConfig,
    LatentSample,
    face_template,
)

from reference_solver import SimplexProblem, solve


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


def train_tree(dataset: ResponseDataset, config: RecTrainConfig, rng):
    """One recommendation tree over every sample, grown alone by
    `_grow_levels` from the numpy Generator `rng`."""
    config.validate()
    rows = np.arange(dataset.sample_count, dtype=np.int64)
    [(root, _)] = _grow_levels(_RecCriterion(dataset), dataset.features, config, rows, [rng])
    return root


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


def tree_votes(forest, features):
    """(M, C) vote counts: each tree, walked `Split` by `Split` to a leaf,
    votes the argmax of that leaf's posterior (ties to the smallest index)."""
    votes = np.zeros((features.shape[0], forest.protocol.model_count), dtype=np.int64)
    for m, row in enumerate(features):
        for node in forest.trees:
            while isinstance(node, Split):
                go_left = row[node.params.feature_index] <= node.params.threshold
                node = node.left if go_left else node.right
            votes[m, int(np.argmax(node.rating))] += 1
    return votes


def top_vote_oracle(forest, responses, features):
    """Top-vote outputs one sample and landmark at a time: the most-voted
    model (ties to the smallest index) answers with its own responses, and
    with its own detection score, clipped to [0, 1], on each landmark its
    protocol marks visible (0 elsewhere)."""
    proto = forest.protocol
    M, N = features.shape[0], proto.landmark_count
    landmarks = np.empty((M, N, 2))
    confidence = np.zeros((M, N))
    for m, counts in enumerate(tree_votes(forest, features)):
        winner = int(np.argmax(counts))
        landmarks[m] = responses[m, winner]
        for n in np.nonzero(proto.masks[winner])[0]:
            score = features[m, proto.slot_grid[winner, n]]
            confidence[m, n] = min(max(score, 0.0), 1.0)
    return landmarks, confidence, confidence >= forest.gamma


# ---------------------------------------------------------------------------
# Synthetic pool, one sample per loop pass: a reference for the block walk of
# `synth.generate`
# ---------------------------------------------------------------------------

def _project_one(points, yaw_deg):
    rad = math.radians(yaw_deg)
    x = points[:, 0] * math.cos(rad) + points[:, 2] * math.sin(rad)
    return np.stack([x, points[:, 1]], axis=1)


def _visible_at_one(normals, yaw_deg):
    rad = math.radians(yaw_deg)
    depth = -normals[:, 0] * math.sin(rad) + normals[:, 2] * math.cos(rad)
    return depth > 0


def generate_per_sample(config: GenConfig):
    """`synth.generate`, building each sample in its own loop pass from its
    own stream, drawn in the order yaw, response noise, occlusion dropout,
    score noise."""
    config.validate()
    M = config.sample_count
    N = config.landmark_count
    centers = np.asarray(config.cluster_centers, dtype=np.float64)
    C = centers.size
    points, normals = face_template(N)
    masks = np.stack([_visible_at_one(normals, c) for c in centers])
    protocol = ModelProtocol(masks)
    pair_c, pair_n = protocol.slot_pairs[:, 0], protocol.slot_pairs[:, 1]

    yaw_lo, yaw_hi = (float(v) for v in config.yaw_range)
    responses = np.empty((M, C, N, 2))
    ground_truth = np.full((M, N, 2), np.nan)
    visible = np.zeros((M, N), dtype=bool)
    features = np.empty((M, protocol.feature_count))
    normalizer = np.empty(M)
    metadata = []

    for m in range(M):
        rng = np.random.default_rng(derive_seed(config.rng_seed, "sample", m))
        if config.in_cluster_only:
            cluster = int(rng.integers(C))
            lo = max(yaw_lo, centers[cluster] - config.cluster_half_width)
            hi = min(yaw_hi, centers[cluster] + config.cluster_half_width)
            yaw = float(rng.uniform(lo, hi))
        else:
            yaw = float(rng.uniform(yaw_lo, yaw_hi))
        true_shape = _project_one(points, yaw)
        geo_visible = _visible_at_one(normals, yaw)

        sigma = config.in_noise + config.out_noise_slope * np.maximum(
            0.0, np.abs(yaw - centers) - config.cluster_half_width
        )
        noise = rng.normal(size=(C, N, 2))
        responses[m] = true_shape[None] + sigma[:, None, None] * noise

        dropped = rng.random(N) < config.occlusion_rate
        vis = geo_visible & ~dropped
        visible[m] = vis
        ground_truth[m, vis] = true_shape[vis]

        scale = float(
            np.linalg.norm(true_shape[TOP_ANCHOR] - true_shape[CHIN_ANCHOR])
        )
        normalizer[m] = scale
        err = np.linalg.norm(responses[m] - true_shape[None], axis=2)  # (C, N)
        eps = config.score_noise * rng.normal(size=(C, N))
        raw = np.where(
            vis[None, :],
            1.0 - config.score_sharpness * err / scale + eps,
            0.1 + eps,
        )
        raw = np.clip(raw, 0.0, 1.0)
        features[m] = raw[pair_c, pair_n]

        metadata.append(
            LatentSample(
                yaw=yaw,
                cluster_id=int(np.argmin(np.abs(yaw - centers))),
                true_shape=true_shape,
                true_visibility=geo_visible.copy(),
            )
        )

    dataset = ResponseDataset(
        protocol=protocol,
        responses=responses,
        ground_truth=ground_truth,
        visible=visible,
        features=features,
        normalizer=normalizer,
    )
    return dataset, metadata


# ---------------------------------------------------------------------------
# Dataset file, whole document at once: a reference for the block writer, the
# chunked reader, the per-sample packing reader of version 1 and the block
# reader of version 2 in `recforest.data`
# ---------------------------------------------------------------------------

def read_json_whole(path, what, element=lambda key, value: value):
    """`data._read_json`, parsing the whole document in one `json.load` and
    then passing each element of a top-level array to `element(key, value)`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError("unparseable %s: %s" % (what, exc)) from exc
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, list):
                doc[key] = [element(key, v) for v in value]
    return doc


_SAMPLE_KEYS = ("responses", "groundTruth", "visibilitySet", "features", "normalizer")
_BLOCK_COLUMNS = (("responses", "<f8"), ("groundTruth", "<f8"), ("visible", "u1"),
                  ("features", "<f8"), ("normalizer", "<f8"))


def _header(dataset, version):
    return {
        "formatVersion": version,
        "sampleCount": dataset.sample_count,
        "modelCount": dataset.model_count,
        "landmarkCount": dataset.landmark_count,
        "featureCount": dataset.feature_count,
        "masks": dataset.protocol.masks.astype(int).tolist(),
    }


def _hidden_nan(dataset):
    gt = dataset.ground_truth.copy()
    gt[~dataset.visible] = np.nan
    return gt


def save_dataset_whole(dataset: ResponseDataset, path):
    """The version-1 dataset file, one object of numbers per sample, built as
    one JSON value: the format `data.save_dataset` wrote before version 2,
    which `data.load_dataset` still reads."""
    columns = zip(dataset.responses.tolist(), _hidden_nan(dataset).tolist(),
                  [np.flatnonzero(row).tolist() for row in dataset.visible],
                  dataset.features.tolist(), dataset.normalizer.tolist())
    doc = _header(dataset, 1)
    doc["samples"] = [dict(zip(_SAMPLE_KEYS, values)) for values in columns]
    _atomic_write(path, [json.dumps(doc)])


def dataset_text_v2_whole(dataset: ResponseDataset, block=128):
    """The text of `data.save_dataset`: one `json.dumps` of the version-2
    document, each block's columns encoded from whole-array slices."""
    arrays = (dataset.responses, _hidden_nan(dataset), dataset.visible,
              dataset.features, dataset.normalizer)
    doc = _header(dataset, 2)
    doc["blocks"] = [
        {key: base64.b64encode(a[start:start + block].astype(dtype).tobytes()).decode("ascii")
         for (key, dtype), a in zip(_BLOCK_COLUMNS, arrays)}
        for start in range(0, dataset.sample_count, block)]
    return json.dumps(doc)


def assert_same_dataset(got, want):
    """Every array byte for byte, NaN positions included, and the protocol."""
    for name in ("responses", "ground_truth", "visible", "features", "normalizer"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.protocol == want.protocol


def _blocks_whole(blocks, M, C, N, F):
    """The columns of version-2 `blocks`: each block's strings decoded to
    arrays on their own, and each column's arrays then concatenated."""
    shapes = ((C, N, 2), (N, 2), (N,), (F,), ())
    keys = [key for key, _ in _BLOCK_COLUMNS]
    per_block = []
    for b, block in enumerate(blocks):
        _require(isinstance(block, dict) and sorted(block) == sorted(keys)
                 and all(type(block[key]) is str for key in keys),
                 "block %d must map exactly the keys %s to strings" % (b, ", ".join(keys)))
        arrays = []
        for (key, dtype), shape in zip(_BLOCK_COLUMNS, shapes):
            try:
                raw = base64.b64decode(block[key], validate=True)
            except ValueError as exc:  # binascii.Error, or text that is not ASCII
                raise SchemaError("block %d: %s is not base64: %s" % (b, key, exc)) from None
            row = np.dtype(dtype).itemsize * math.prod(shape)
            _require(len(raw) % row == 0, "block %d: %s is not a whole number of rows" % (b, key))
            arrays.append(np.frombuffer(raw, dtype).reshape((-1,) + shape))
        _require(len({len(a) for a in arrays}) == 1,
                 "block %d: columns hold different row counts" % b)
        per_block.append(arrays)
    total = sum(len(arrays[0]) for arrays in per_block)
    _require(total == M, "sampleCount header disagrees with block rows: %d != %d" % (M, total))
    columns = [np.concatenate([arrays[i] for arrays in per_block] + [np.zeros((0,) + shape, dtype)])
               for i, ((_, dtype), shape) in enumerate(zip(_BLOCK_COLUMNS, shapes))]
    _require(set(columns[2].ravel().tolist()) <= {0, 1}, "visible bytes must be 0 or 1")
    return columns


def load_dataset_whole(path) -> ResponseDataset:
    """`data.load_dataset`, converting the columns after the whole document
    is parsed."""
    doc = read_json_whole(path, "dataset file")
    _require(isinstance(doc, dict), "dataset document must be an object")
    version = doc.get("formatVersion")
    _require(_fits(version, int) and version in (1, 2),
             "unsupported formatVersion: %r" % (version,))
    rows_key = "samples" if version == 1 else "blocks"
    counts = ("sampleCount", "modelCount", "landmarkCount", "featureCount")
    for key in counts + ("masks", rows_key):
        _require(key in doc, "missing dataset field: %s" % key)
    for key in counts:
        _require(_fits(doc[key], int) and doc[key] >= 0,
                 "%s must be a nonnegative integer: %r" % (key, doc[key]))
    M, C, N, F = (doc[k] for k in counts)
    samples = doc[rows_key]
    _require(isinstance(samples, list), "%s must be a list" % rows_key)
    protocol = _read_protocol(doc["masks"])
    _require(protocol.masks.shape == (C, N), "masks shape does not match header C, N")
    _require(protocol.feature_count == F,
             "featureCount header disagrees with masks: %d != %d"
             % (F, protocol.feature_count))
    if version == 2:
        return ResponseDataset(protocol, *_blocks_whole(samples, M, C, N, F))
    _require(len(samples) == M,
             "sampleCount header disagrees with record count: %d != %d"
             % (M, len(samples)))

    visible = np.zeros((M, N), dtype=bool)
    for m, rec in enumerate(samples):
        _require(isinstance(rec, dict), "sample %d is not an object" % m)
        vis = rec.get("visibilitySet")
        _require(isinstance(vis, list), "sample %d missing visibilitySet" % m)
        for n in vis:
            _require(_fits(n, int) and 0 <= n < N,
                     "sample %d: visibility index out of range: %r" % (m, n))
        visible[m, vis] = True

    def column(key, shape):
        return _float_array([rec.get(key) for rec in samples], (M,) + shape,
                            "sample %s" % key)

    return ResponseDataset(
        protocol=protocol,
        responses=column("responses", (C, N, 2)),
        ground_truth=column("groundTruth", (N, 2)),
        visible=visible,
        features=column("features", (F,)),
        normalizer=column("normalizer", ()),
    )


def predictions_text_whole(landmarks, confidences, flags):
    """The text of `cli._write_predictions`: one `json.dumps(indent=1)` of
    the whole payload."""
    samples = [
        {"landmarks": lm, "confidences": conf, "flags": flg}
        for lm, conf, flg in zip(landmarks.tolist(), confidences.tolist(),
                                 flags.tolist())
    ]
    payload = {"formatVersion": 1, "sampleCount": len(samples), "samples": samples}
    return json.dumps(payload, indent=1) + "\n"


# ---------------------------------------------------------------------------
# Curves as lists of (x, y) float tuples: a reference for the (P, 2) arrays
# of `metrics.ced_curve` and `metrics.visibility_scores`
# ---------------------------------------------------------------------------

def ced_curve_points(per_sample_errors, thresholds):
    """`metrics.ced_curve`, one `np.mean(errors <= t)` per sorted threshold."""
    errors = np.asarray(per_sample_errors, dtype=np.float64).ravel()
    out = []
    for t in np.sort(np.asarray(thresholds, dtype=np.float64).ravel()):
        out.append((float(t), float(np.mean(errors <= t))))
    return out


def pr_curve_points(confidences, visible_truth):
    """The (recall, precision) points of `metrics.visibility_scores`: one per
    distinct score 1 - confidence, falling, with invisible as positive."""
    conf = np.asarray(confidences, dtype=np.float64).ravel()
    positive = ~np.asarray(visible_truth, dtype=bool).ravel()
    total_pos = int(positive.sum())
    if total_pos == 0:
        return []
    scores = 1.0 - conf
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    cum_pos = np.cumsum(positive[order])
    last = np.ones(conf.size, dtype=bool)
    last[:-1] = s_sorted[:-1] != s_sorted[1:]
    ends = np.nonzero(last)[0]
    precision = cum_pos[ends] / (ends + 1.0)
    recall = cum_pos[ends] / total_pos
    return list(zip(recall.tolist(), precision.tolist()))


def curve_bits(points):
    """Rows of a curve as `float.hex` strings, so equal means bit for bit."""
    return [[float.hex(float(v)) for v in row] for row in points]
