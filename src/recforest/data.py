"""Core domain types: model pool protocol, response dataset, predictions.

Conventions used throughout the library:

* a landmark is a length-2 float64 array `(x, y)` in shape-space units;
* `responses` has shape (M, C, N, 2): every pool model emits the full set of
  N landmarks for every sample, including landmarks its own protocol marks
  invisible;
* `ground_truth` has shape (M, N, 2) and is NaN wherever the landmark is not
  in the visible set -- those entries are sentinels and must never enter a
  computation;
* `visible` has shape (M, N) and is the dense boolean form of the visible
  pair set;
* `features` has shape (M, F) where F is the total number of
  (model, protocol-visible landmark) slots.

Datasets and protocols are immutable after construction and safe to share
across workers.
"""

import base64
import json
import numbers
import os
import re
import sys
import types
from dataclasses import dataclass, fields
from itertools import chain, filterfalse
from typing import get_args, get_origin

import numpy as np

RATING_ATOL = 1e-9


class SchemaError(ValueError):
    """A file or in-memory structure violates the dataset/forest schema."""


def rating_vector(values) -> np.ndarray:
    """Validate and normalize a model rating vector.

    Entries may undershoot zero by at most 1e-9 (numerical slack from the
    solver); they are clamped to 0.  The sum must be within 1e-9 of 1.
    Returns a fresh float64 array.
    """
    w = np.asarray(values, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("rating vector must be a non-empty 1-D array")
    return _rating_rows(w[None])[0]


def _rating_rows(values) -> np.ndarray:
    """`rating_vector`'s rules for each row of a (K, C) array, in one pass."""
    w = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("rating vector has non-finite entries")
    if np.any(w < -RATING_ATOL):
        raise ValueError("rating vector entry below -1e-9: %r" % (w.min(),))
    np.clip(w, 0.0, None, out=w)
    far = np.abs(w.sum(axis=1) - 1.0) > RATING_ATOL
    if far.any():
        raise ValueError("rating vector sums to %r, expected 1" % (w[far][0].sum(),))
    return w


class ModelProtocol:
    """Visibility protocol of a model pool.

    `masks[c, n]` is 1 when model c declares landmark n visible.  The
    feature vector has one slot per (c, n) pair with mask 1, laid out
    model-major with ascending landmark index inside each model, so each
    model's score block is contiguous.
    """

    def __init__(self, masks):
        masks = np.asarray(masks)
        if masks.ndim != 2:
            raise SchemaError("masks must be a (C, N) array")
        if not np.all((masks == 0) | (masks == 1)):
            raise SchemaError("masks must be binary")
        masks = masks.astype(bool)
        if masks.shape[0] == 0 or masks.shape[1] == 0:
            raise SchemaError("masks must have at least one model and landmark")
        if not masks.any(axis=1).all():
            raise SchemaError("every model must have at least one visible landmark")
        self.masks = masks
        self.model_count, self.landmark_count = masks.shape
        # slot_grid[c, n] = feature index, or -1 where mask is 0
        slot_grid = np.full(masks.shape, -1, dtype=np.int64)
        slot_grid[masks] = np.arange(int(masks.sum()))
        self.slot_grid = slot_grid
        pairs_c, pairs_n = np.nonzero(masks)
        self.slot_pairs = np.stack([pairs_c, pairs_n], axis=1)
        self.feature_count = int(masks.sum())
        for a in (self.masks, self.slot_grid, self.slot_pairs):
            a.setflags(write=False)

    def feature_index(self, c: int, n: int) -> int:
        """Feature slot of model c's score for landmark n.

        Rejects pairs the protocol marks invisible.
        """
        if not (0 <= c < self.model_count and 0 <= n < self.landmark_count):
            raise IndexError("model/landmark index out of range: (%d, %d)" % (c, n))
        slot = self.slot_grid[c, n]
        if slot < 0:
            raise ValueError(
                "landmark %d is not visible in model %d's protocol" % (n, c)
            )
        return int(slot)

    def feature_pair(self, f: int) -> tuple[int, int]:
        """Inverse of feature_index: slot f -> (model, landmark)."""
        if not 0 <= f < self.feature_count:
            raise IndexError("feature index out of range: %d" % f)
        c, n = self.slot_pairs[f]
        return int(c), int(n)

    def __eq__(self, other):
        return isinstance(other, ModelProtocol) and np.array_equal(
            self.masks, other.masks
        )


@dataclass
class ResponseDataset:
    """Model pool responses, ground truth, and recommendation features.

    `normalizer[m]` is the per-sample error scale (shape-space height of the
    sample); landmark errors are reported as percentages of it.
    """

    protocol: ModelProtocol
    responses: np.ndarray      # (M, C, N, 2)
    ground_truth: np.ndarray   # (M, N, 2); NaN outside the visible set
    visible: np.ndarray        # (M, N) bool
    features: np.ndarray       # (M, F)
    normalizer: np.ndarray     # (M,)

    def __post_init__(self):
        self.responses = np.asarray(self.responses, dtype=np.float64)
        self.ground_truth = np.asarray(self.ground_truth, dtype=np.float64)
        self.visible = np.asarray(self.visible, dtype=bool)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.normalizer = np.asarray(self.normalizer, dtype=np.float64)
        self._validate()
        for a in (
            self.responses,
            self.ground_truth,
            self.visible,
            self.features,
            self.normalizer,
        ):
            a.setflags(write=False)

    def _validate(self):
        C = self.protocol.model_count
        N = self.protocol.landmark_count
        F = self.protocol.feature_count
        lead = self.responses.shape[:1]  # (M,), or () if responses is a scalar
        for what, arr, shape in (
            ("responses", self.responses, lead + (C, N, 2)),
            ("ground truth", self.ground_truth, lead + (N, 2)),
            ("visibility", self.visible, lead + (N,)),
            ("features", self.features, lead + (F,)),
            ("normalizer", self.normalizer, lead),
        ):
            if arr.shape != shape:
                raise SchemaError("%s shape mismatch: %r" % (what, arr.shape))
        finite_gt = np.isfinite(self.ground_truth).all(axis=2) | ~self.visible
        for ok, what in (
            (np.isfinite(self.responses).all(axis=(1, 2, 3)), "non-finite response"),
            (finite_gt.all(axis=1), "non-finite ground truth at a visible landmark"),
            (np.isfinite(self.features).all(axis=1), "non-finite feature score"),
            (np.isfinite(self.normalizer) & (self.normalizer > 0),
             "normalizer must be positive and finite"),
        ):
            bad = np.flatnonzero(~ok)
            if bad.size:
                raise SchemaError("sample %d: %s" % (bad[0], what))

    @property
    def sample_count(self) -> int:
        return self.responses.shape[0]

    @property
    def model_count(self) -> int:
        return self.protocol.model_count

    @property
    def landmark_count(self) -> int:
        return self.protocol.landmark_count

    @property
    def feature_count(self) -> int:
        return self.protocol.feature_count

    def subset(self, indices) -> "ResponseDataset":
        """New dataset restricted to the given sample indices (copying rows)."""
        idx = np.asarray(indices, dtype=np.int64)
        return ResponseDataset(
            protocol=self.protocol,
            responses=self.responses[idx],
            ground_truth=self.ground_truth[idx],
            visible=self.visible[idx],
            features=self.features[idx],
            normalizer=self.normalizer[idx],
        )


@dataclass
class Prediction:
    """Blended landmark estimate plus per-landmark visibility."""

    landmarks: np.ndarray              # (N, 2)
    visibility_confidence: np.ndarray  # (N,), clamped to [0, 1]
    visibility_flag: np.ndarray        # (N,) bool; True iff confidence >= gamma

    def __post_init__(self):
        self.landmarks = np.asarray(self.landmarks, dtype=np.float64)
        self.visibility_confidence = np.asarray(
            self.visibility_confidence, dtype=np.float64
        )
        self.visibility_flag = np.asarray(self.visibility_flag, dtype=bool)


# ---------------------------------------------------------------------------
# Dataset file format (versioned JSON; version 2 holds the columns' bytes in base64)
# ---------------------------------------------------------------------------

DATASET_FORMAT_VERSION = 2
METADATA_FORMAT_VERSION = 1
_BLOCK = 128  # samples per dataset block, predictions-file block and `synth.generate` loop
# a version-2 block's keys, in file order, and the little-endian type of each column's bytes
_COLUMNS = {"responses": "<f8", "groundTruth": "<f8", "visible": "u1", "features": "<f8",
            "normalizer": "<f8"}


def _atomic_write(path, chunks):
    """Write an iterable of strings to `path` via a temp file, so the output
    is never partial.  Pass one string as a one-item list."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def save_dataset(dataset: ResponseDataset, path):
    """Serialize a dataset to a JSON document of format version 2: the header,
    then `blocks`, one object per `_BLOCK` samples mapping each of `_COLUMNS`
    to the base64 of its little-endian bytes (ground truth NaN outside the
    visible set), so floats round-trip bit for bit.  One block at a time."""

    def block(start):  # the text of the block from sample `start`, after a comma if not first
        rows = slice(start, start + _BLOCK)
        vis = dataset.visible[rows]
        gt = np.where(vis[..., None], dataset.ground_truth[rows], np.nan)
        arrays = (dataset.responses[rows], gt, vis, dataset.features[rows],
                  dataset.normalizer[rows])
        return ", " * bool(start) + json.dumps({
            key: base64.b64encode(np.asarray(a, dtype).tobytes()).decode()
            for (key, dtype), a in zip(_COLUMNS.items(), arrays)})

    head = json.dumps({  # up to the opening `[` of the blocks
        "formatVersion": DATASET_FORMAT_VERSION, "sampleCount": dataset.sample_count,
        "modelCount": dataset.model_count, "landmarkCount": dataset.landmark_count,
        "featureCount": dataset.feature_count,
        "masks": dataset.protocol.masks.astype(int).tolist(), "blocks": []})[:-2]
    _atomic_write(path, chain([head], map(block, range(0, dataset.sample_count, _BLOCK)), ["]}"]))


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _fits(value, kind):
    """Whether `value` has the annotated type `kind`: numbers (numpy's too) are
    not bools, a float is finite, a tuple may be a list or a 1-D array.  It is
    also the rule for JSON scalars: an integer is not `true`/`false`, which
    parse as bool, a subclass of int."""
    if kind is int:  # the parser's exact type first
        return type(value) is int or (isinstance(value, numbers.Integral)
                                      and not isinstance(value, bool))
    if kind is float and type(value) in (float, int):  # the parser's exact types first
        return abs(value) <= sys.float_info.max
    if kind is float:  # compared as a Python number: exact for an int, and no numpy warning
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(
            int(value) if isinstance(value, numbers.Integral) else float(value)) <= sys.float_info.max
    if get_origin(kind) is types.UnionType:
        return any(_fits(value, k) for k in get_args(kind))
    if get_origin(kind) is tuple:
        if isinstance(value, np.ndarray) and value.ndim == 1:
            value = value.tolist()  # Python scalars of the same kinds, for the paths above
        item = get_args(kind)[0]
        return isinstance(value, (tuple, list)) and all(_fits(v, item) for v in value)
    return isinstance(value, kind)


_TYPE_NAMES = {int: "an integer", int | None: "an integer or None", float: "a finite number",
               bool: "a boolean"}  # other annotations read as written


def _check_fields(config):
    """ValueError unless each field of the dataclass `config` `_fits` its annotation."""
    for f in fields(config):
        if not _fits(getattr(config, f.name), f.type):
            raise ValueError("%s must be %s" % (f.name, _TYPE_NAMES.get(f.type) or (
                f.type if get_origin(f.type) else f.type.__name__)))


_CHUNK = 1 << 20  # characters per read in `_read_json`
_WHITESPACE = re.compile(r"[ \t\n\r]*")


class _TextCursor:
    """A position in the text of a file object, read `_CHUNK` characters
    at a time; each read drops the text before the position."""

    def __init__(self, fh, scan_once):
        self.fh, self.scan_once = fh, scan_once
        self.buf, self.pos, self.eof = "", 0, False

    def _read(self, size=0):
        rest, self.buf = self.buf[self.pos:], ""  # free the read text first
        text = self.fh.read(max(size, _CHUNK))
        self.buf, self.pos, self.eof = rest + text, 0, not text

    def peek(self):
        """The next character that is not JSON whitespace ("" at the end)."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self._read()

    def value(self):
        """Parse the next JSON value.  A scan that fails, or that ends within
        2 characters of the text read so far, may be cut short by the read (a
        number in `1e-` or `-0`, a literal, a string): it is rescanned after
        reading as much again as the value's text so far, so a value of many
        chunks is rescanned a logarithmic number of times."""
        self.peek()
        while True:
            try:
                value, end = self.scan_once(self.buf, self.pos)
            except (StopIteration, ValueError):
                if self.eof:
                    raise ValueError("no JSON value at %d" % self.pos) from None
            else:
                if end < len(self.buf) - 2 or self.eof:
                    self.pos = end
                    return value
            self._read(len(self.buf) - self.pos)

    def expect(self, char):
        if self.peek() != char:
            raise ValueError("expected %r at %d" % (char, self.pos))
        self.pos += 1

    def members(self, open_char, close_char):
        """Read the brackets of an object or array, yielding once before
        each member or element, which the caller then reads."""
        self.expect(open_char)
        if self.peek() != close_char:
            while True:
                yield
                if self.peek() == close_char:
                    break
                self.expect(",")
        self.expect(close_char)


def _stream_json(fh, element):
    """The JSON object that makes up the whole text of `fh`, read
    `_CHUNK` characters at a time.  It walks the top-level object key by key;
    each element of a top-level array value is parsed on its own, replaced
    by `element(key, value)` there and then, and read text is dropped as the
    walk goes on.  A repeated key keeps its first position and takes its
    last value, as in `json`.  Anything else (a top-level value that is not
    an object, a byte-order mark, malformed or trailing text) raises."""
    cursor = _TextCursor(fh, json.JSONDecoder().scan_once)
    doc = {}
    for _ in cursor.members("{", "}"):
        if cursor.peek() != '"':
            raise ValueError("expected a key at %d" % cursor.pos)
        key = cursor.value()
        cursor.expect(":")
        if cursor.peek() == "[":
            doc[key] = [element(key, cursor.value()) for _ in cursor.members("[", "]")]
        else:
            doc[key] = cursor.value()
    if cursor.peek():
        raise ValueError("extra data at %d" % cursor.pos)
    return doc


def _read_json(path, what, element=lambda key, value: value):
    """Parse a JSON file whose top-level value is an object, `_CHUNK`
    characters at a time, through `_stream_json`, so the file's text is
    never held whole.  Each element of a top-level array is replaced by
    `element(key, value)` as soon as it is parsed; nothing else is passed
    to it.

    Nesting too deep for the parser fails there and then, as `json.load`
    overflows no later.  On any other failure or surprise the whole document
    is parsed once, with `json.load`, and an object's top-level arrays then
    go through `element` in the same way; that gives any other top-level
    value, and an error for text that is not JSON or not UTF-8.  Those
    errors raise SchemaError naming `what`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _stream_json(fh, element)
    except RecursionError as exc:
        raise SchemaError("unparseable %s: %s" % (what, exc)) from exc
    except ValueError:  # parse the whole document below
        pass
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError("unparseable %s: %s" % (what, exc)) from exc
    for key, value in doc.items() if isinstance(doc, dict) else ():
        if isinstance(value, list):
            doc[key] = [element(key, v) for v in value]
    return doc


def _float_array(value, shape, what):
    """A parsed JSON array of `shape` as float64.  Type rule: every entry is
    a JSON number or `null` (read as NaN); strings, booleans, objects, ragged
    nesting and numbers too large for a float raise SchemaError."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError("%s is not numeric: %s" % (what, exc)) from exc
    _require(arr.shape == shape or arr.size == 0 and 0 in shape,
             "%s shape mismatch" % what)
    # The shape matched, so `value` is lists nested regularly down to
    # scalars; numpy also converts "0.5" and true, so check each scalar.
    _require(_leaf_types(value, arr.ndim) <= {int, float, type(None)},
             "%s must hold only numbers and nulls" % what)
    return arr.reshape(shape)


def _leaf_types(value, depth):
    """Types of the scalars of `value`, lists nested regularly `depth` deep."""
    for _ in range(depth - 1):
        value = chain.from_iterable(value)
    return set(map(type, value))


def _pack_sample(key, sample):
    """`load_dataset`'s `element`: a version-1 sample, an object under the
    top-level `samples`, has its numeric fields that hold regular nested
    lists of JSON floats made float64 arrays, which `.tolist()` turns back
    into the same lists.  Every other value stays as parsed."""
    if key != "samples" or not isinstance(sample, dict):
        return sample
    for field in ("responses", "groundTruth", "features"):
        value = sample.get(field)
        if isinstance(value, list):
            try:
                arr = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                continue
            if _leaf_types(value, arr.ndim) == {float}:
                sample[field] = arr
    return sample


def _read_protocol(masks) -> ModelProtocol:
    """ModelProtocol from a parsed `masks` value, which must be a regular
    list of lists of the JSON integers 0 and 1."""
    _require(_fits(masks, tuple[tuple[int, ...], ...])
             and {v for row in masks for v in row} <= {0, 1}
             and len({len(row) for row in masks}) <= 1,
             "masks must be a regular list of lists of 0/1 integers")
    return ModelProtocol(np.array(masks, dtype=bool))


def _read_blocks(blocks, M, shapes):
    """The `_COLUMNS` arrays, of `shapes` and `M` rows in all, of a version-2
    file's `blocks`.  Each string is popped from its block as it is decoded."""
    parts, total = [[] for _ in _COLUMNS], 0
    for b, block in enumerate(blocks):
        _require(isinstance(block, dict) and block.keys() == _COLUMNS.keys()
                 and all(isinstance(text, str) for text in block.values()),
                 "block %d must map exactly the keys %s to strings" % (b, ", ".join(_COLUMNS)))
        rows = set()
        for (key, dtype), shape, part in zip(_COLUMNS.items(), shapes, parts):
            try:
                part.append(base64.b64decode(block.pop(key), validate=True))
            except ValueError as exc:  # binascii.Error, or a character outside ASCII
                raise SchemaError("block %d: %s is not base64: %s" % (b, key, exc)) from None
            n, extra = divmod(len(part[-1]), np.dtype((dtype, shape)).itemsize)
            _require(not extra, "block %d: %s is not a whole number of rows" % (b, key))
            rows.add(n)
        _require(len(rows) == 1, "block %d: columns hold different row counts" % b)
        total += rows.pop()
    _require(total == M, "sampleCount header disagrees with block rows: %d != %d" % (M, total))
    columns = [np.frombuffer(b"".join(part), dtype).reshape((M,) + shape)
               for dtype, shape, part in zip(_COLUMNS.values(), shapes, parts)]
    _require(not (columns[2] > 1).any(), "visible bytes must be 0 or 1")
    return columns


def load_dataset(path) -> ResponseDataset:
    """Load and validate a dataset file, naming the first violated invariant.

    Counts and `masks` entries must be JSON integers.  Version 2: each block
    maps the `_COLUMNS` to base64 strings of whole rows, `sampleCount` rows in
    all, `visible` bytes 0 or 1.  Version 1: `visibilitySet` indices are JSON
    integers, numeric array entries JSON numbers or `null` (NaN); each
    sample's lists become arrays as soon as it is parsed, with the arrays and
    messages of converting the whole document at once.  `ResponseDataset`
    checks the values (finiteness, normalizer).
    """
    doc = _read_json(path, "dataset file", _pack_sample)
    _require(isinstance(doc, dict), "dataset document must be an object")
    version = doc.get("formatVersion")
    _require(_fits(version, int) and version in (1, DATASET_FORMAT_VERSION),
             "unsupported formatVersion: %r" % (version,))
    counts = ("sampleCount", "modelCount", "landmarkCount", "featureCount")
    rows_key = "samples" if version == 1 else "blocks"
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
        shapes = [(C, N, 2), (N, 2), (N,), (F,), ()]
        return ResponseDataset(protocol, *_read_blocks(samples, M, shapes))
    _require(len(samples) == M,
             "sampleCount header disagrees with record count: %d != %d"
             % (M, len(samples)))

    def valid(n):  # a visibility index; one pass checks them all, one assignment sets them
        return _fits(n, int) and 0 <= n < N

    sets = [rec.get("visibilitySet") if isinstance(rec, dict) else None for rec in samples]
    ok = [isinstance(vis, list) and all(map(valid, vis)) for vis in sets]
    if not all(ok):
        m = ok.index(False)
        _require(isinstance(samples[m], dict), "sample %d is not an object" % m)
        _require(isinstance(sets[m], list), "sample %d missing visibilitySet" % m)
        raise SchemaError("sample %d: visibility index out of range: %r"
                          % (m, next(filterfalse(valid, sets[m]))))
    visible = np.zeros((M, N), dtype=bool)
    visible[np.repeat(np.arange(M), [len(vis) for vis in sets]),
            np.fromiter(chain.from_iterable(sets), np.int64)] = True

    def column(key, shape):
        values = [rec.get(key) for rec in samples]
        if values and all(isinstance(v, np.ndarray) and v.shape == shape
                          for v in values):
            return np.stack(values)
        values = [v.tolist() if isinstance(v, np.ndarray) else v for v in values]
        return _float_array(values, (M,) + shape, "sample %s" % key)

    return ResponseDataset(
        protocol=protocol,
        responses=column("responses", (C, N, 2)),
        ground_truth=column("groundTruth", (N, 2)),
        visible=visible,
        features=column("features", (F,)),
        normalizer=column("normalizer", ()),
    )


# ---------------------------------------------------------------------------
# Latent metadata sidecar (yaw + cluster id per sample, from the generator)
# ---------------------------------------------------------------------------

def save_metadata(yaw, cluster_id, path, cluster_centers=None):
    """Write what `load_metadata` reads, or raise `ValueError` naming the field."""
    yaw = np.asarray(yaw, dtype=np.float64)
    if yaw.shape != np.shape(cluster_id) or yaw.ndim != 1:
        raise ValueError("yaw and cluster_id must be matching 1-D arrays")
    if not _fits(cluster_id, tuple[int, ...]):
        raise ValueError("cluster_id must be integers, not bools or other numbers")
    cluster_id = np.asarray(cluster_id)  # float or object when an int is out of range
    if cluster_id.size and (cluster_id.dtype.kind not in "iu" or cluster_id.max() > 2**63 - 1):
        raise ValueError("cluster_id must fit in int64")
    centers = None if cluster_centers is None else np.asarray(cluster_centers, dtype=np.float64)
    for name, values in (("yaw", yaw), ("cluster_centers", centers)):
        if values is not None and not (values.ndim == 1 and np.isfinite(values).all()):
            raise ValueError("%s must list finite numbers" % name)
    doc = {
        "formatVersion": METADATA_FORMAT_VERSION,
        "yaw": yaw.tolist(),
        "clusterId": cluster_id.astype(np.int64).tolist(),
    }
    if centers is not None:
        doc["clusterCenters"] = centers.tolist()
    _atomic_write(path, [json.dumps(doc)])


def load_metadata(path):
    """Returns (yaw, cluster_id, cluster_centers-or-None) arrays."""
    doc = _read_json(path, "metadata file")
    _require(isinstance(doc, dict), "metadata document must be an object")
    _require(_fits(doc.get("formatVersion"), int)
             and doc["formatVersion"] == METADATA_FORMAT_VERSION,
             "unsupported formatVersion: %r" % (doc.get("formatVersion"),))
    yaw, cluster_id = doc.get("yaw"), doc.get("clusterId")
    centers = doc.get("clusterCenters")
    _require(_fits(yaw, tuple[float, ...]), "metadata yaw must list finite numbers")
    _require(_fits(cluster_id, tuple[int, ...]), "metadata clusterId must list integers")
    _require(all(-2**63 <= v < 2**63 for v in cluster_id), "metadata clusterId must fit in int64")
    _require(len(yaw) == len(cluster_id), "metadata yaw and clusterId lengths differ")
    _require(_fits(centers, tuple[float, ...] | None),
             "metadata clusterCenters must list finite numbers")
    return (np.asarray(yaw, dtype=np.float64), np.asarray(cluster_id, dtype=np.int64),
            None if centers is None else np.asarray(centers, dtype=np.float64))
