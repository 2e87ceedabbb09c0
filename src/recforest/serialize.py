"""Forest persistence.

One JSON document per `RecForest`: format version, the forest's `kind`,
gamma, the pool protocol masks, and the trees as nested split/leaf nodes.
The kind only names the leaf vector's JSON key, "rating" for a
recommendation forest and "posterior" for a classification forest, whose
leaf `rating` is its class posterior.  Floats are
written with repr (shortest round-trip), so save -> load -> predict is
bit-identical to the in-memory forest.  Writes are atomic: the file appears
complete or not at all.
"""

import json

from .data import (
    SchemaError,
    _atomic_write,
    _fits,
    _float_array,
    _read_json,
    _read_protocol,
    _require,
)
from .forest import Leaf, RecForest, Split, SplitParams

FOREST_FORMAT_VERSION = 1

_KIND_TO_KEY = {"recommendation": "rating", "classification": "posterior"}


def _node_to_obj(node, rating_key):
    if isinstance(node, Split):
        return {
            "type": "split",
            "featureIndex": int(node.params.feature_index),
            "threshold": float(node.params.threshold),
            "gain": float(node.gain),
            "left": _node_to_obj(node.left, rating_key),
            "right": _node_to_obj(node.right, rating_key),
        }
    return {
        "type": "leaf",
        rating_key: [float(v) for v in node.rating],
        "sampleCount": int(node.sample_count),
    }


def save_forest(forest, path) -> None:
    """Write a forest of either kind to a JSON file.  A `gamma` that
    `load_forest` would reject is a `ValueError`, and nothing is written."""
    if not isinstance(forest, RecForest):
        raise TypeError("expected RecForest, got %r" % type(forest))
    if not 0.0 <= forest.gamma <= 1.0:  # NaN fails too
        raise ValueError("gamma must be in [0, 1]")
    key = _KIND_TO_KEY[forest.kind]
    try:  # both recurse once per tree level
        payload = {
            "formatVersion": FOREST_FORMAT_VERSION,
            "kind": forest.kind,
            "gamma": float(forest.gamma),
            "masks": forest.protocol.masks.astype(int).tolist(),
            "trees": [_node_to_obj(t, key) for t in forest.trees],
        }
        text = json.dumps(payload, indent=1) + "\n"
    except RecursionError:
        raise ValueError("forest too deep to save: a tree passes the recursion limit") from None
    _atomic_write(path, [text])


def _node_from_obj(obj, rating_key, feature_count, model_count):
    _require(isinstance(obj, dict), "tree node must be an object")
    kind = obj.get("type")
    if kind == "split":
        fi = obj.get("featureIndex")
        _require(_fits(fi, int) and 0 <= fi < feature_count,
                 "split featureIndex out of range")
        tau = obj.get("threshold")
        _require(_fits(tau, float), "split threshold must be finite")
        gain = obj.get("gain")
        _require(_fits(gain, float), "split gain must be finite")
        _require("left" in obj and "right" in obj, "split missing a child")
        return Split(
            params=SplitParams(feature_index=fi, threshold=float(tau)),
            gain=float(gain),
            left=_node_from_obj(obj["left"], rating_key, feature_count, model_count),
            right=_node_from_obj(obj["right"], rating_key, feature_count, model_count),
        )
    if kind == "leaf":
        vec = _float_array(obj.get(rating_key), (model_count,), "leaf " + rating_key)
        count = obj.get("sampleCount")
        _require(_fits(count, int) and count >= 1,
                 "leaf sampleCount must be a positive integer")
        try:
            return Leaf(rating=vec, sample_count=count)
        except ValueError as exc:
            raise SchemaError("invalid leaf %s: %s" % (rating_key, exc))
    raise SchemaError("tree node type must be 'split' or 'leaf'")


def load_forest(path):
    """Read a forest file back as a `RecForest` of the file's kind."""
    payload = _read_json(path, "forest file")
    _require(isinstance(payload, dict), "forest file must hold an object")
    _require(
        _fits(payload.get("formatVersion"), int)
        and payload["formatVersion"] == FOREST_FORMAT_VERSION,
        "unsupported forest formatVersion",
    )
    kind = payload.get("kind")
    _require(isinstance(kind, str) and kind in _KIND_TO_KEY,
             "forest kind must be recommendation or classification")
    gamma = payload.get("gamma")
    _require(
        _fits(gamma, float) and 0.0 <= gamma <= 1.0,
        "gamma must be in [0, 1]",
    )
    protocol = _read_protocol(payload.get("masks"))
    trees_obj = payload.get("trees")
    _require(isinstance(trees_obj, list) and trees_obj, "trees must be a nonempty list")
    key = _KIND_TO_KEY[kind]
    try:  # one call per tree level
        trees = [_node_from_obj(t, key, protocol.feature_count, protocol.model_count)
                 for t in trees_obj]
    except RecursionError:
        raise SchemaError("forest too deep to load: a tree passes the recursion limit") from None
    try:
        return RecForest(trees=trees, protocol=protocol, gamma=float(gamma), kind=kind)
    except ValueError as exc:
        raise SchemaError(str(exc))
