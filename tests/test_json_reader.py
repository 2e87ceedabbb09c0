"""The chunked JSON reader, `data._read_json`, against the whole-document
reader of `tests/helpers.py`.

Every test reads with `data._CHUNK` cut down to a few characters, so chunk
boundaries fall inside keys, numbers, literals and strings.  The reader must
give the whole-document parse bit for bit (types, float bits, key order,
the arrays of `_pack_sample`) or the same SchemaError text.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from recforest import data
from recforest.data import SchemaError, _pack_sample, _read_json, load_dataset

from helpers import assert_same_dataset, load_dataset_whole, read_json_whole
from test_cli_fuzz import compare_documents, gen_documents
from test_loader_fuzz import (  # noqa: F401
    FUZZ,
    JSON_VALUES,
    _positions,
    _replaced,
    dataset_doc,
    dataset_v2_doc,
)
from test_serialize import _valid_doc

CHUNKS = (1, 2, 3, 7)


def canonical(value):
    """A parsed value as nested tuples that are equal only for values equal
    bit for bit: types, float bits, key order and packed arrays."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return ("object",) + tuple((k, canonical(v)) for k, v in value.items())
    if isinstance(value, list):
        return ("list",) + tuple(canonical(v) for v in value)
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def outcome(read, *args):
    try:
        return canonical(read(*args))
    except ValueError as exc:  # SchemaError, or int parsing's digit limit
        return "%s: %s" % (type(exc).__name__, exc)


def assert_chunked_reads_match(path, element=lambda key, value: value, chunks=CHUNKS):
    """`_read_json` at each chunk size gives `read_json_whole`'s outcome."""
    want = outcome(read_json_whole, path, "file", element)
    for size in chunks:
        with mock.patch.object(data, "_CHUNK", size):
            assert outcome(_read_json, path, "file", element) == want, size
    return want


def stream(path, element=lambda key, value: value):
    """`data._stream_json` alone, with no whole-document fallback."""
    with open(path, encoding="utf-8") as fh:
        return data._stream_json(fh, element)


# ---------------------------------------------------------------------------
# The loader fuzz corpus
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json-reader")


@pytest.fixture(scope="module")
def metadata_doc(fuzz_dir):
    path = fuzz_dir / "valid-metadata.json"
    data.save_metadata([-40.0, 0.0, 62.5], [0, 1, 2], path, cluster_centers=[-40.0, 40.0])
    return json.loads(path.read_text())


@FUZZ
@given(draw=st.data(), value=JSON_VALUES,
       kind=st.sampled_from(["dataset", "dataset-v2", "metadata", "forest"]))
def test_loader_corpus_reads_as_whole_document(fuzz_dir, dataset_doc, dataset_v2_doc,
                                               metadata_doc, draw, value, kind):
    doc = {"dataset": dataset_doc, "dataset-v2": dataset_v2_doc, "metadata": metadata_doc,
           "forest": _valid_doc()}[kind]
    position = draw.draw(st.sampled_from(list(_positions(doc))))
    path = fuzz_dir / ("%s.json" % kind)
    path.write_text(json.dumps(_replaced(doc, position, value)))
    if not kind.startswith("dataset"):
        assert_chunked_reads_match(path)
        return
    assert_chunked_reads_match(path, _pack_sample)
    try:
        want = load_dataset_whole(path)
    except SchemaError as exc:
        for size in CHUNKS:
            with mock.patch.object(data, "_CHUNK", size):
                with pytest.raises(SchemaError) as got:
                    load_dataset(path)
            assert str(got.value) == str(exc)
    else:
        for size in CHUNKS:
            with mock.patch.object(data, "_CHUNK", size):
                assert_same_dataset(load_dataset(path), want)


@FUZZ
@given(doc=gen_documents() | compare_documents().map(lambda case: case[0]))
def test_config_documents_read_as_whole_document(fuzz_dir, doc):
    path = fuzz_dir / "config.json"
    path.write_text(json.dumps(doc))
    assert_chunked_reads_match(path)


def test_valid_documents_need_no_fallback(fuzz_dir, dataset_doc, dataset_v2_doc,
                                          metadata_doc):
    """The whole-document parse is only the error path: the streamed walk
    reads every valid document by itself."""
    for name, doc in (("dataset", dataset_doc), ("dataset-v2", dataset_v2_doc),
                      ("metadata", metadata_doc), ("forest", _valid_doc())):
        path = fuzz_dir / ("plain-%s.json" % name)
        path.write_text(json.dumps(doc))
        for size in CHUNKS:
            with mock.patch.object(data, "_CHUNK", size):
                assert canonical(stream(path)) == canonical(doc)


# ---------------------------------------------------------------------------
# Chunk boundaries, at every cut
# ---------------------------------------------------------------------------

NESTED = {"a": [1, {"b": [2.5, None]}, "x"], "c": {}, "d": [], "e": -0.5e-3}

VALID_TEXTS = {
    "numbers": '{"v": [12.5e-3, 1.25, 7e+2, 3E-5, -0.0, 10, -0, 1e400],'
               ' "a": 1.5e-7, "b": -12, "c": 4.0}',
    "literals": '{"a": [NaN, -Infinity, Infinity, true, false, null],'
                ' "b": NaN, "c": -Infinity, "d": true}',
    "strings": '{"s": ["abc\\u00e9\\"x\\\\", "a string longer than a chunk"],'
               ' "k": "v\\n"}',
    "multibyte": '{"é": ["ü€\U0001d11e", "日本"],'
                 ' "€": "\U0001d11e"}',
    "crlf": json.dumps(NESTED, indent=1).replace("\n", "\r\n"),
    "compact": json.dumps(NESTED, separators=(",", ":")),
    "whitespace": ' \t\n{ "a" :[ 1 ,2 ] ,"b":{ } }\r\n ',
    "duplicate-keys": '{"a": [1], "b": 2, "a": [3, 4], "c": 5, "b": {"x": 1}}',
    "empty-object": "{}",
}

ERROR_TEXTS = {
    "empty-file": "",
    "empty-array": "[]",
    "top-level-array": "[1, 2.5]",
    "top-level-string": '"x"',
    "trailing-data": '{"a": [1]} {',
    "trailing-comma": '{"a": [1, 2,]}',
    "truncated-array": '{"a": [1, 2',
    "truncated-number": '{"a": 1.5e',
    "truncated-string": '{"a": "abc',
    "truncated-literal": '{"a": [Infin',
    "missing-colon": '{"a" 1}',
    "unquoted-key": '{a: 1}',
    "bom": "\ufeff{}",
    "control-character": '{"a": "x\ty"}',
}


@pytest.mark.parametrize("name", sorted(VALID_TEXTS))
def test_valid_text_at_every_cut(tmp_path, name):
    text = VALID_TEXTS[name]
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8"))
    want = assert_chunked_reads_match(path, chunks=range(1, len(text) + 2))
    assert want == canonical(read_json_whole(path, "file"))
    for size in range(1, len(text) + 2):
        with mock.patch.object(data, "_CHUNK", size):
            assert canonical(stream(path)) == want, size


def test_duplicate_key_keeps_first_position_and_last_value(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(VALID_TEXTS["duplicate-keys"])
    with mock.patch.object(data, "_CHUNK", 3):
        doc = _read_json(path, "file")
    assert list(doc.items()) == [("a", [3, 4]), ("b", {"x": 1}), ("c", 5)]


@pytest.mark.parametrize("name", sorted(ERROR_TEXTS))
def test_error_text_at_every_cut(tmp_path, name):
    text = ERROR_TEXTS[name]
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8"))
    assert_chunked_reads_match(path, chunks=range(1, len(text) + 2))


def test_invalid_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a": [1, 2], "b": "\xff\xfe"}')
    assert assert_chunked_reads_match(path).startswith("SchemaError: unparseable")


def test_nesting_too_deep(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": [' + "[" * 100_000 + "]" * 100_000 + "]}")
    assert assert_chunked_reads_match(path).startswith("SchemaError: unparseable")


def test_large_value_reads_ahead_geometrically(tmp_path):
    """A value of about 2,000 chunks is read, and rescanned, some 12 times,
    not once per chunk."""
    value = {"x": [0.125] * 1500, "s": "y" * 3000}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"big": value, "rows": [value, 1]}))
    read = data._TextCursor._read
    with mock.patch.object(data, "_CHUNK", 7), \
            mock.patch.object(data._TextCursor, "_read", autospec=True,
                              side_effect=read) as reads:
        doc = stream(path)
    assert doc == {"big": value, "rows": [value, 1]}
    assert reads.call_count <= 40, reads.call_count
