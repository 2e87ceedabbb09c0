"""Loader fuzzing: a valid dataset (format version 1 or 2), metadata or
forest file with one value replaced.

Any value at any depth, containers and the document itself included, is
swapped for a random JSON value.  The loader must then either return or
raise SchemaError; any other exception would reach the command line as a
traceback.  The dataset loader must also agree with the whole-document
reader of `tests/helpers.py`: the same arrays, byte for byte, or a
SchemaError with the same message.
"""

import base64
import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recforest.data import (
    _BLOCK,
    SchemaError,
    load_dataset,
    load_metadata,
    save_dataset,
    save_metadata,
)
from recforest.serialize import load_forest

from helpers import assert_same_dataset, load_dataset_whole, random_dataset, save_dataset_whole
from test_serialize import _valid_doc

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-(2 ** 1100), 2 ** 1100])  # too large for a float
    | st.floats()  # NaN and +-inf included
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

FUZZ = settings(derandomize=True, max_examples=200, database=None, deadline=None)


def _positions(value, path=()):
    """Every position in a parsed JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _positions(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def dataset_doc(fuzz_dir):
    path = fuzz_dir / "valid.json"
    save_dataset_whole(random_dataset(np.random.default_rng(0), M=2, C=2, N=3), path)
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def dataset_v2_doc(fuzz_dir):
    """A version-2 file of two blocks."""
    path = fuzz_dir / "valid-v2.json"
    save_dataset(random_dataset(np.random.default_rng(0), M=_BLOCK + 2, C=2, N=3), path)
    return json.loads(path.read_text())


def _loads_or_rejects(load, doc, path):
    """Write `doc` to `path` and load it; only SchemaError may escape."""
    path.write_text(json.dumps(doc))
    try:
        load(path)
    except SchemaError:
        pass


def test_unmodified_documents_load(fuzz_dir, dataset_doc, dataset_v2_doc):
    assert load_dataset(fuzz_dir / "valid.json").sample_count == 2
    assert load_dataset(fuzz_dir / "valid-v2.json").sample_count == _BLOCK + 2
    path = fuzz_dir / "valid-forest.json"
    path.write_text(json.dumps(_valid_doc()))
    assert len(load_forest(path).trees) == 1


def _loaded_or_message(load, path):
    try:
        return load(path)
    except SchemaError as exc:
        return "SchemaError: %s" % exc


def _assert_loads_as_whole_document(path):
    got = _loaded_or_message(load_dataset, path)
    want = _loaded_or_message(load_dataset_whole, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_dataset(got, want)


@FUZZ
@given(data=st.data(), value=JSON_VALUES)
def test_dataset_loader_raises_only_schema_errors(fuzz_dir, dataset_doc, data, value):
    position = data.draw(st.sampled_from(list(_positions(dataset_doc))))
    path = fuzz_dir / "dataset.json"
    path.write_text(json.dumps(_replaced(dataset_doc, position, value)))
    _assert_loads_as_whole_document(path)


@FUZZ
@given(data=st.data(), value=JSON_VALUES)
def test_version_2_loader_raises_only_schema_errors(fuzz_dir, dataset_v2_doc, data, value):
    position = data.draw(st.sampled_from(list(_positions(dataset_v2_doc))))
    path = fuzz_dir / "dataset-v2.json"
    path.write_text(json.dumps(_replaced(dataset_v2_doc, position, value)))
    _assert_loads_as_whole_document(path)


def _recoded(text, edit):
    """A base64 string whose decoded bytes `edit` has changed."""
    return base64.b64encode(edit(bytearray(base64.b64decode(text)))).decode()


def _set_column(block, key, edit):
    block[key] = _recoded(block[key], edit)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["blocks"][0].update(features="*" + d["blocks"][0]["features"][1:]),
         "block 0: features is not base64"),
        (lambda d: d["blocks"][1].update(responses=d["blocks"][1]["responses"][:-1]),
         "block 1: responses is not base64"),
        (lambda d: d["blocks"][1].update(normalizer=d["blocks"][1]["normalizer"] + "=="),
         "block 1: normalizer is not base64"),
        (lambda d: d["blocks"][0].update(groundTruth="\u00e9" * 4),
         "block 0: groundTruth is not base64"),
        (lambda d: _set_column(d["blocks"][0], "features", lambda b: b[:-1]),
         "block 0: features is not a whole number of rows"),
        (lambda d: _set_column(d["blocks"][1], "normalizer", lambda b: b + b[:8]),
         "block 1: columns hold different row counts"),
        (lambda d: [_set_column(d["blocks"][1], key, lambda b: b + b[:len(b) // 2])
                    for key in list(d["blocks"][1])],
         "sampleCount header disagrees with block rows: 130 != 131"),
        (lambda d: _set_column(d["blocks"][1], "visible", lambda b: b[:1] + b"\x02" + b[2:]),
         "visible bytes must be 0 or 1"),
        (lambda d: d["blocks"][1].pop("visible"),
         "block 1 must map exactly the keys responses, groundTruth, visible, features, "
         "normalizer to strings"),
        (lambda d: d["blocks"][0].update(extra=""),
         "block 0 must map exactly the keys"),
        (lambda d: d["blocks"][0].update(features=[0.5, 1.5]),
         "block 0 must map exactly the keys"),
        (lambda d: d["blocks"].__setitem__(1, None), "block 1 must map exactly the keys"),
        (lambda d: d.update(blocks={}), "blocks must be a list"),
        (lambda d: d.pop("blocks"), "missing dataset field: blocks"),
        (lambda d: d.update(formatVersion=True), "unsupported formatVersion: True"),
        (lambda d: d.update(formatVersion=3), "unsupported formatVersion: 3"),
    ],
    ids=["non-alphabet-character", "bad-padding", "excess-padding", "non-ascii-text",
         "one-byte-short", "extra-row-in-one-column", "extra-row-in-every-column",
         "visible-byte-2", "missing-block-key", "extra-block-key", "packable-list-column",
         "block-not-an-object", "blocks-not-a-list", "no-blocks", "bool-format-version",
         "unknown-format-version"],
)
def test_version_2_named_cases(fuzz_dir, dataset_v2_doc, mutate, message):
    doc = copy.deepcopy(dataset_v2_doc)
    mutate(doc)
    path = fuzz_dir / "dataset-v2-case.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="^" + re.escape(message)):
        load_dataset(path)
    _assert_loads_as_whole_document(path)


@FUZZ
@given(data=st.data(), value=JSON_VALUES)
def test_forest_loader_raises_only_schema_errors(fuzz_dir, data, value):
    doc = _valid_doc()
    position = data.draw(st.sampled_from(list(_positions(doc))))
    _loads_or_rejects(load_forest, _replaced(doc, position, value),
                      fuzz_dir / "forest.json")


@FUZZ
@given(data=st.data(), value=JSON_VALUES)
def test_metadata_loader_raises_only_schema_errors(fuzz_dir, data, value):
    path = fuzz_dir / "metadata.json"
    save_metadata([-40.0, 0.0, 62.5], [0, 1, 2], path, cluster_centers=[-40.0, 40.0])
    doc = json.loads(path.read_text())
    position = data.draw(st.sampled_from(list(_positions(doc))))
    _loads_or_rejects(load_metadata, _replaced(doc, position, value), path)
