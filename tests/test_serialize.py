"""Forest persistence: round trips, schema validation, atomicity."""

import json
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from recforest.classforest import (
    derive_labels,
    predict_posterior_rating_many,
    train_class_forest,
)
from recforest.cli import main
from recforest.data import ModelProtocol, SchemaError
from recforest.forest import (
    Leaf,
    RecForest,
    RecTrainConfig,
    Split,
    SplitParams,
    predict_many,
    train_forest,
)
from recforest.serialize import FOREST_FORMAT_VERSION, load_forest, save_forest

from helpers import random_dataset


def _forests():
    rng = np.random.default_rng(41)
    ds = random_dataset(rng, M=60, C=3, N=6)
    config = RecTrainConfig(
        tree_count=3, max_depth=5, min_samples_per_leaf=4, rng_seed=11
    )
    rec = train_forest(ds, config)
    rec.gamma = 0.37
    cls = train_class_forest(ds, derive_labels(ds), config)
    cls.gamma = 0.84
    return ds, rec, cls


class TestRoundTrip:
    def test_recommendation_forest(self, tmp_path):
        ds, rec, _ = _forests()
        path = tmp_path / "rec.json"
        save_forest(rec, path)
        loaded = load_forest(path)
        assert type(loaded) is type(rec)
        assert loaded.kind == rec.kind == "recommendation"
        assert loaded.gamma == rec.gamma
        assert np.array_equal(loaded.protocol.masks, rec.protocol.masks)
        assert loaded.trees == rec.trees
        before = predict_many(rec, ds.responses, ds.features)
        after = predict_many(loaded, ds.responses, ds.features)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_classification_forest(self, tmp_path):
        ds, _, cls = _forests()
        path = tmp_path / "cls.json"
        save_forest(cls, path)
        loaded = load_forest(path)
        assert type(loaded) is type(cls)
        assert loaded.kind == cls.kind == "classification"
        assert json.loads(path.read_text())["kind"] == "classification"
        assert loaded.gamma == cls.gamma
        assert loaded.trees == cls.trees
        before = predict_posterior_rating_many(cls, ds.responses, ds.features)
        after = predict_posterior_rating_many(loaded, ds.responses, ds.features)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_save_is_stable(self, tmp_path):
        _, rec, _ = _forests()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_forest(rec, a)
        save_forest(rec, b)
        assert a.read_bytes() == b.read_bytes()
        save_forest(load_forest(a), b)  # resave of a loaded forest
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_other_types(self, tmp_path):
        with pytest.raises(TypeError):
            save_forest({"not": "a forest"}, tmp_path / "x.json")

    @pytest.mark.parametrize("gamma", [np.nan, 1.5, -0.1], ids=["nan", "above-1", "below-0"])
    def test_save_writes_only_what_load_reads(self, tmp_path, gamma):
        # set after construction, which checks it: the parent saved it, and
        # load_forest then raised SchemaError on the file
        _, rec, _ = _forests()
        rec.gamma = gamma
        with pytest.raises(ValueError, match="gamma"):
            save_forest(rec, tmp_path / "rec.json")
        assert list(tmp_path.iterdir()) == []  # no file, no temporary either


def _valid_doc():
    return {
        "formatVersion": FOREST_FORMAT_VERSION,
        "kind": "recommendation",
        "gamma": 0.5,
        "masks": [[1, 1], [1, 0]],
        "trees": [
            {
                "type": "split",
                "featureIndex": 1,
                "threshold": 0.25,
                "gain": 0.9,
                "left": {"type": "leaf", "rating": [1.0, 0.0], "sampleCount": 3},
                "right": {"type": "leaf", "rating": [0.5, 0.5], "sampleCount": 2},
            }
        ],
    }


def _write(tmp_path, doc):
    path = tmp_path / "forest.json"
    path.write_text(json.dumps(doc))
    return path


class TestSchemaValidation:
    def test_valid_document_loads(self, tmp_path):
        forest = load_forest(_write(tmp_path, _valid_doc()))
        assert forest.trees[0].params.feature_index == 1
        assert forest.trees[0].left.sample_count == 3

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(formatVersion=2),
            lambda d: d.update(kind="regression"),
            lambda d: d.pop("kind"),
            lambda d: d.update(gamma=1.5),
            lambda d: d.update(gamma="high"),
            lambda d: d.update(masks=[]),
            lambda d: d.update(masks="nope"),
            lambda d: d.update(trees=[]),
            lambda d: d.update(trees="nope"),
            lambda d: d.update(formatVersion=True),
            lambda d: d.update(gamma=True),
            lambda d: d.update(masks=[[True, True], [True, False]]),
            lambda d: d.update(masks=[[1.0, 1], [1, 0]]),
            lambda d: d.update(masks=[[1, 1], [1]]),
            lambda d: d.update(kind=[]),
        ],
    )
    def test_header_rejections(self, tmp_path, mutate):
        doc = _valid_doc()
        mutate(doc)
        with pytest.raises(SchemaError):
            load_forest(_write(tmp_path, doc))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda n: n.update(featureIndex=5),       # out of range
            lambda n: n.update(featureIndex=-1),
            lambda n: n.update(featureIndex="0"),
            lambda n: n.update(threshold=float("nan")),
            lambda n: n.update(gain=float("inf")),
            lambda n: n.pop("left"),
            lambda n: n.update(type="branch"),
            lambda n: n.update(featureIndex=True),
            lambda n: n.update(threshold=False),
            lambda n: n.update(threshold=10 ** 400),  # too large for a float
        ],
    )
    def test_split_rejections(self, tmp_path, mutate):
        doc = _valid_doc()
        mutate(doc["trees"][0])
        with pytest.raises(SchemaError):
            load_forest(_write(tmp_path, doc))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda leaf: leaf.update(rating=[1.0]),          # wrong length
            lambda leaf: leaf.update(rating=[0.7, 0.7]),     # not a simplex
            lambda leaf: leaf.update(rating=[-0.1, 1.1]),    # negative weight
            lambda leaf: leaf.update(rating="unit"),
            lambda leaf: leaf.pop("rating"),
            lambda leaf: leaf.update(sampleCount=0),
            lambda leaf: leaf.update(sampleCount=2.5),
            lambda leaf: leaf.update(sampleCount=True),
            lambda leaf: leaf.update(rating=[True, False]),
            lambda leaf: leaf.update(rating=["0.5", 0.5]),
        ],
    )
    def test_leaf_rejections(self, tmp_path, mutate):
        doc = _valid_doc()
        mutate(doc["trees"][0]["left"])
        with pytest.raises(SchemaError):
            load_forest(_write(tmp_path, doc))

    def test_posterior_key_required_for_classification(self, tmp_path):
        doc = _valid_doc()
        doc["kind"] = "classification"  # leaves still use the "rating" key
        with pytest.raises(SchemaError):
            load_forest(_write(tmp_path, doc))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(_valid_doc())[:40])
        with pytest.raises(SchemaError):
            load_forest(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SchemaError):
            load_forest(path)


_HEADROOM = 200  # frames between the caller and the lowered recursion limit
_CHAINS = range(_HEADROOM - 60, _HEADROOM + 20)  # splits per tree, across the limit


@contextmanager
def _recursion_headroom():
    """The recursion limit set `_HEADROOM` frames above the caller's stack,
    so the chains of `_CHAINS` cross it at any caller depth."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + _HEADROOM)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _chain_text(splits):
    """A forest file whose one tree is a chain of `splits` splits."""
    leaf = '{"type": "leaf", "rating": [1.0, 0.0], "sampleCount": 1}'
    split = '{"type": "split", "featureIndex": 0, "threshold": 0.5, "gain": 0.1, "left": '
    return ('{"formatVersion": 1, "kind": "recommendation", "gamma": 0.5, '
            '"masks": [[1, 0], [0, 1]], "trees": [%s]}'
            % (split * splits + leaf + (', "right": %s}' % leaf) * splits))


class TestDeepTrees:
    """A tree nested past the recursion limit fails with one clean error, on
    every chain length: the file may parse and then overflow the recursive
    node conversion, which once escaped as a `RecursionError` traceback."""

    def test_load_raises_schema_error(self, tmp_path):
        path, outcomes = tmp_path / "deep.json", set()
        with _recursion_headroom():
            for splits in _CHAINS:
                path.write_text(_chain_text(splits))
                try:
                    outcomes.add(len(load_forest(path).trees))
                except SchemaError as exc:
                    outcomes.add(str(exc).split(":")[0])
        assert 1 in outcomes and "forest too deep to load" in outcomes
        assert outcomes <= {1, "forest too deep to load", "unparseable forest file"}

    def test_overflowing_file_is_parsed_once(self, tmp_path, monkeypatch):
        """The streamed scan's overflow is the error: no whole-document
        `json.load` re-parse, which overflows the same way."""
        real, calls = json.load, []
        monkeypatch.setattr(json, "load", lambda *a, **k: calls.append(1) or real(*a, **k))
        path = tmp_path / "deep.json"
        path.write_text(_chain_text(_CHAINS.stop + 100))
        with _recursion_headroom(), pytest.raises(SchemaError, match="^unparseable forest"):
            load_forest(path)
        assert calls == []

    def test_save_raises_value_error(self, tmp_path):
        leaf = Leaf(rating=np.array([1.0, 0.0]), sample_count=1)
        tree, saved, failed = leaf, 0, 0
        for _ in range(_CHAINS.start):
            tree = Split(SplitParams(0, 0.5), 0.1, tree, leaf)
        with _recursion_headroom():
            for _ in _CHAINS:
                tree = Split(SplitParams(0, 0.5), 0.1, tree, leaf)
                forest = RecForest([tree], ModelProtocol([[1, 0], [0, 1]]))
                try:
                    save_forest(forest, tmp_path / ("f%d.json" % saved))
                    saved += 1
                except ValueError as exc:
                    assert "forest too deep to save" in str(exc)
                    failed += 1
        assert saved and failed
        assert {p.name for p in tmp_path.iterdir()} == {
            "f%d.json" % k for k in range(saved)}  # no partial or temporary file

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        path, codes = tmp_path / "deep.json", set()
        with _recursion_headroom():
            for splits in _CHAINS:
                path.write_text(_chain_text(splits))
                codes.add(main(["predict", "--forest", str(path), "--data",
                                str(tmp_path / "none"), "--out", str(tmp_path / "p.json")]))
        assert codes == {1}
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(_CHAINS)
        assert all(line.startswith("error: ") for line in lines)
        assert any("forest too deep to load" in line for line in lines)
