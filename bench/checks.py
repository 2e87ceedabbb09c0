"""Correctness checks computed apart from the library, from raw arrays.

Nothing here calls `recforest`: errors, ratings and confidences are
recomputed with numpy from the pool responses, ground truth, features and
protocol masks, so a fault in the library cannot also hide in its check.
"""

import numpy as np

RATING_TOL = 1e-8
CONFIDENCE_TOL = 1e-9
BLEND_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output disagrees with the independent computation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def per_sample_errors(predicted, truth, visible, normalizer):
    """Mean visible-landmark distance as % of the normalizer, per sample
    with at least one visible landmark (in sample order)."""
    visible = np.asarray(visible, dtype=bool)
    keep = visible.any(axis=1)
    diff = np.where(visible[:, :, None], np.asarray(predicted) - np.nan_to_num(truth), 0.0)
    dist = np.sqrt((diff ** 2).sum(axis=2))
    mean = dist.sum(axis=1)[keep] / visible.sum(axis=1)[keep]
    return 100.0 * mean / np.asarray(normalizer)[keep]


def mean_error(predicted, truth, visible, normalizer):
    return float(per_sample_errors(predicted, truth, visible, normalizer).mean())


def expert_errors(responses, truth, visible, normalizer):
    """Mean error of each pool model answering every sample alone."""
    return [
        mean_error(responses[:, c], truth, visible, normalizer)
        for c in range(responses.shape[1])
    ]


def recover_ratings(landmarks, responses):
    """Rating per sample that blends `responses` (M, C, N, 2) into
    `landmarks` (M, N, 2): least squares subject to sum(w) = 1, solved in
    the differences to model 0.  Returns (W, max residual)."""
    M, C = responses.shape[:2]
    base = responses[:, 0].reshape(M, -1)
    D = (responses[:, 1:].reshape(M, C - 1, -1) - base[:, None, :])
    y = landmarks.reshape(M, -1) - base
    gram = np.einsum("mik,mjk->mij", D, D)
    rhs = np.einsum("mik,mk->mi", D, y)
    v = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    W = np.concatenate([1.0 - v.sum(axis=1, keepdims=True), v], axis=1)
    blend = np.einsum("mcnd,mc->mnd", responses, W)
    return W, float(np.abs(blend - landmarks).max())


def slot_grid(masks):
    """Feature index of each (model, landmark) pair; features list the
    protocol-visible pairs model-major, landmarks ascending."""
    masks = np.asarray(masks, dtype=bool)
    return (np.cumsum(masks.ravel()) - 1).reshape(masks.shape)


def check_blend(landmarks, confidence, flags, responses, features, masks, gamma):
    """Landmarks are a simplex blend of the pool; confidences are that
    rating applied to the protocol-masked scores; flags are conf >= gamma."""
    W, residual = recover_ratings(landmarks, responses)
    require(residual <= BLEND_TOL * (1.0 + np.abs(landmarks).max()),
            "landmarks are not a blend of the pool responses (residual %.3g)" % residual)
    require(W.min() >= -RATING_TOL, "recovered rating has a negative entry %.3g" % W.min())
    require(np.abs(W.sum(axis=1) - 1.0).max() <= RATING_TOL, "recovered rating does not sum to 1")
    masks = np.asarray(masks, dtype=bool)
    scores = features[:, slot_grid(masks)] * masks[None]
    expected = np.clip(np.einsum("mcn,mc->mn", scores, W), 0.0, 1.0)
    gap = float(np.abs(expected - confidence).max())
    require(gap <= CONFIDENCE_TOL, "confidence differs from the recovered rating by %.3g" % gap)
    require(np.array_equal(flags, confidence >= gamma), "a flag disagrees with confidence >= gamma")


def check_beats_experts(landmarks, data):
    """The blended answer beats the best single pool model on these samples."""
    ours = mean_error(landmarks, data.ground_truth, data.visible, data.normalizer)
    best = min(expert_errors(data.responses, data.ground_truth, data.visible, data.normalizer))
    require(ours < best, "mean error %.4f does not beat the best expert %.4f" % (ours, best))
    return ours


def check_top_vote(landmarks, responses):
    """Each answer is verbatim the responses of a model in the pool."""
    match = (responses == landmarks[:, None]).all(axis=(2, 3))
    require(match.any(axis=1).all(), "a top-vote answer is no pool model's response")


def check_ced(curve):
    ys = [y for _, y in curve]
    require(len(ys) > 0, "empty CED curve")
    require(all(b >= a for a, b in zip(ys, ys[1:])), "CED curve decreases")
    require(ys[-1] == 1.0, "CED curve ends at %r, not 1" % ys[-1])
