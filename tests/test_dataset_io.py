import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    assert_same_dataset,
    dataset_text_v2_whole,
    load_dataset_whole,
    random_dataset,
    save_dataset_whole,
)
from recforest.data import (
    _BLOCK,
    ResponseDataset,
    SchemaError,
    load_dataset,
    load_metadata,
    save_dataset,
    save_metadata,
)
from recforest.forest import RecTrainConfig, train_forest
from recforest.synth import generate, preset_config


@pytest.fixture(scope="module")
def preset_dataset():
    """The preset pool (M=2000), whose ground truth is NaN where occluded."""
    dataset, _ = generate(preset_config("aflw-like-5view"))
    assert np.isnan(dataset.ground_truth).any()
    return dataset


class TestDatasetValidation:
    def test_shape_mismatches_raise(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng)
        with pytest.raises(SchemaError):
            ResponseDataset(
                protocol=ds.protocol,
                responses=ds.responses[:, :, :-1],
                ground_truth=ds.ground_truth,
                visible=ds.visible,
                features=ds.features,
                normalizer=ds.normalizer,
            )
        with pytest.raises(SchemaError):
            ResponseDataset(
                protocol=ds.protocol,
                responses=ds.responses,
                ground_truth=ds.ground_truth,
                visible=ds.visible,
                features=ds.features[:, :-1],
                normalizer=ds.normalizer,
            )

    def test_nan_ground_truth_only_outside_visible(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng)
        gt = ds.ground_truth.copy()
        vis_rows = np.argwhere(ds.visible)
        m, n = vis_rows[0]
        gt[m, n] = np.nan
        with pytest.raises(SchemaError):
            ResponseDataset(
                protocol=ds.protocol,
                responses=ds.responses,
                ground_truth=gt,
                visible=ds.visible,
                features=ds.features,
                normalizer=ds.normalizer,
            )

    def test_nonpositive_normalizer_rejected(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng)
        bad = ds.normalizer.copy()
        bad[0] = 0.0
        with pytest.raises(SchemaError):
            ResponseDataset(
                protocol=ds.protocol,
                responses=ds.responses,
                ground_truth=ds.ground_truth,
                visible=ds.visible,
                features=ds.features,
                normalizer=bad,
            )

    def test_arrays_frozen_after_init(self):
        ds = random_dataset(np.random.default_rng(3))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0

    def test_subset_picks_rows(self):
        ds = random_dataset(np.random.default_rng(4), M=10)
        sub = ds.subset([7, 2, 2])
        assert sub.sample_count == 3
        np.testing.assert_array_equal(sub.responses[1], ds.responses[2])
        np.testing.assert_array_equal(sub.responses[2], ds.responses[2])
        assert sub.protocol == ds.protocol


class TestDatasetRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        ds = random_dataset(rng, M=20, C=4, N=6)
        path = tmp_path / "data.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.responses, ds.responses)
        np.testing.assert_array_equal(back.visible, ds.visible)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.normalizer, ds.normalizer)
        # visible ground truth identical; the rest stays NaN
        np.testing.assert_array_equal(
            back.ground_truth[back.visible], ds.ground_truth[ds.visible]
        )
        assert np.isnan(back.ground_truth[~back.visible]).all()
        assert back.protocol == ds.protocol

    def test_header_present(self, tmp_path):
        ds = random_dataset(np.random.default_rng(0), M=2)
        path = tmp_path / "d.json"
        save_dataset(ds, path)
        doc = json.loads(path.read_text())
        assert doc["formatVersion"] == 2
        assert doc["sampleCount"] == 2
        assert [list(block) for block in doc["blocks"]] == [
            ["responses", "groundTruth", "visible", "features", "normalizer"]]

    def test_save_leaves_no_temp_file(self, tmp_path):
        ds = random_dataset(np.random.default_rng(0), M=2)
        save_dataset(ds, tmp_path / "d.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json"]


def _with_edge_values(ds):
    """`ds` with floats whose text is easy to get wrong (a negative zero,
    the smallest subnormal, `1e+16`, `1e-05` and a 17-digit sum) in its
    responses, features and normalizer, in the first and last block, and
    with ground truth outside the visible set NaN, infinite or finite: it
    is written as NaN all the same."""
    special = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2]
    responses, features = ds.responses.copy(), ds.features.copy()
    for arr in (responses, features):
        arr.reshape(-1)[:5] = arr.reshape(-1)[-5:] = special
    normalizer = ds.normalizer.copy()
    normalizer[:3] = [5e-324, 1e16, 0.1 + 0.2]
    ground_truth = ds.ground_truth.copy()
    hidden = np.argwhere(~ds.visible)
    ground_truth[tuple(hidden[0])] = [1.5, np.inf]
    ground_truth[tuple(hidden[-1])] = [-0.0, 0.1 + 0.2]
    return ResponseDataset(protocol=ds.protocol, responses=responses,
                           ground_truth=ground_truth, visible=ds.visible,
                           features=features, normalizer=normalizer)


_SIZES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]


class TestBlockWriterAndPackingReader:
    """`save_dataset` and `load_dataset` against the whole-document writers
    and reader of `tests/helpers.py`; a version-2 file against the version-1
    document of the same dataset."""

    @pytest.mark.parametrize("M, edge", [(M, False) for M in _SIZES] + [(_BLOCK + 2, True)],
                             ids=[str(M) for M in _SIZES] + ["edge-values"])
    def test_bytes_equal_whole_document(self, tmp_path, M, edge):
        """The block writer's text is one `json.dumps` of the version-2
        document, and the file loads as the version-1 document does."""
        ds = random_dataset(np.random.default_rng(M), M=M, C=3, N=5)
        if edge:
            ds = _with_edge_values(ds)
        save_dataset(ds, tmp_path / "blocks.json")
        save_dataset_whole(ds, tmp_path / "v1.json")
        assert (tmp_path / "blocks.json").read_text() == dataset_text_v2_whole(ds)
        want = load_dataset_whole(tmp_path / "v1.json")
        assert_same_dataset(load_dataset(tmp_path / "blocks.json"), want)
        assert_same_dataset(load_dataset(tmp_path / "v1.json"), want)
        assert_same_dataset(load_dataset_whole(tmp_path / "blocks.json"), want)

    def test_preset_bytes_and_arrays(self, tmp_path, preset_dataset):
        save_dataset(preset_dataset, tmp_path / "blocks.json")
        save_dataset_whole(preset_dataset, tmp_path / "v1.json")
        assert (tmp_path / "blocks.json").read_text() == dataset_text_v2_whole(preset_dataset)
        back = load_dataset(tmp_path / "blocks.json")
        assert_same_dataset(back, load_dataset_whole(tmp_path / "v1.json"))
        assert np.array_equal(back.responses, preset_dataset.responses)

    def test_version_2_foreign_layout_loads_equal(self, tmp_path):
        """Indented, with the blocks before the header."""
        ds = random_dataset(np.random.default_rng(8), M=_BLOCK + 3)
        save_dataset(ds, tmp_path / "d.json")
        doc = json.loads((tmp_path / "d.json").read_text())
        (tmp_path / "foreign.json").write_text(
            json.dumps(dict(reversed(doc.items())), indent=2))
        assert list(json.loads((tmp_path / "foreign.json").read_text()))[0] == "blocks"
        assert_same_dataset(load_dataset(tmp_path / "foreign.json"),
                            load_dataset(tmp_path / "d.json"))

    def test_foreign_layout_loads_equal(self, tmp_path):
        """Indented, with the samples before the header."""
        ds = random_dataset(np.random.default_rng(8), M=_BLOCK + 3)
        save_dataset_whole(ds, tmp_path / "d.json")
        doc = json.loads((tmp_path / "d.json").read_text())
        (tmp_path / "foreign.json").write_text(
            json.dumps(dict(reversed(doc.items())), indent=2))
        assert list(json.loads((tmp_path / "foreign.json").read_text()))[0] == "samples"
        assert_same_dataset(load_dataset(tmp_path / "foreign.json"),
                            load_dataset(tmp_path / "d.json"))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(formatVersion={"features": [0.5, 1.5]}),
            lambda d: d.update(sampleCount={"responses": [[1.0, -0.0]]}),
            lambda d: d["samples"][1]["visibilitySet"].append(
                {"groundTruth": [1.0, float("nan")]}),
            lambda d: d["samples"][0]["features"].__setitem__(0, 1),
            lambda d: d["samples"][2]["features"].__setitem__(1, None),
            lambda d: d["samples"][1]["features"].append(0.5),
            lambda d: d["samples"][2]["responses"][0].pop(),
            lambda d: d["samples"][0]["groundTruth"].__setitem__(0, [1.0, "x"]),
            lambda d: d["samples"][1]["responses"][1].__setitem__(0, [1.0, 2 ** 1100]),
            lambda d: d["samples"][0].update(features=[{"features": [1.0]}]),
            lambda d: d.update(samples=[]),
        ],
        ids=[
            "packable-in-version",
            "packable-in-count",
            "packable-in-visibility-set",
            "int-feature",
            "null-feature",
            "long-features",
            "short-responses",
            "string-ground-truth",
            "huge-int-response",
            "packed-object-in-features",
            "no-samples",
        ],
    )
    def test_same_result_as_whole_document(self, tmp_path, mutate):
        """Values the hook leaves as parsed, and arrays it packed outside a
        sample, give the whole-document reader's arrays or message."""
        ds = random_dataset(np.random.default_rng(5), M=3)
        save_dataset_whole(ds, tmp_path / "d.json")
        doc = json.loads((tmp_path / "d.json").read_text())
        mutate(doc)
        (tmp_path / "d.json").write_text(json.dumps(doc))
        try:
            want = load_dataset_whole(tmp_path / "d.json")
        except SchemaError as exc:
            with pytest.raises(SchemaError) as got:
                load_dataset(tmp_path / "d.json")
            assert str(got.value) == str(exc)
        else:
            assert_same_dataset(load_dataset(tmp_path / "d.json"), want)

    def test_peak_memory_at_preset(self, tmp_path, preset_dataset):
        """Neither function holds the whole document as Python objects: the
        whole-document pair peaks near 37 and 32 MB here."""
        path = tmp_path / "d.json"
        peaks = []
        for call in (lambda: save_dataset(preset_dataset, path),
                     lambda: load_dataset(path)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 12.0, "save_dataset peak %.1f MB" % peaks[0]
        assert peaks[1] <= 22.0, "load_dataset peak %.1f MB" % peaks[1]

    def test_version_2_peak_memory_at_preset(self, tmp_path, preset_dataset):
        """Format version 2 lowers both peaks below those of version 1 here,
        1.8 and 8.6 MB: about 0.8 and 7.2 MB."""
        path = tmp_path / "d.json"
        peaks = []
        for call in (lambda: save_dataset(preset_dataset, path),
                     lambda: load_dataset(path)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.8, "save_dataset peak %.2f MB" % peaks[0]
        assert peaks[1] <= 8.6, "load_dataset peak %.2f MB" % peaks[1]

    def test_training_peak_memory_at_preset(self, preset_dataset):
        """Tree growth holds one group of a level's nodes at a time: fitting
        a whole level at once peaks near 12 MB here, groups of 32 nodes near
        6.5 MB."""
        dataset = preset_dataset.subset(np.arange(1280))
        tracemalloc.start()
        try:
            train_forest(dataset, RecTrainConfig(tree_count=5))
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= 3.0, "train_forest peak %.2f MB" % peak

    def test_load_never_holds_the_file_text(self, tmp_path, preset_dataset):
        """The 7.9 MB version-1 file is read `_CHUNK` characters at a time: a
        reader that also holds the whole text, as one `json.load` does, peaks
        near 15 MB here."""
        path = tmp_path / "d.json"
        save_dataset_whole(preset_dataset, path)
        tracemalloc.start()
        try:
            load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= 10.0, "load_dataset peak %.1f MB" % peak


class TestDatasetLoadRejections:
    def make_doc(self, tmp_path):
        ds = random_dataset(np.random.default_rng(5), M=3)
        path = tmp_path / "d.json"
        save_dataset_whole(ds, path)
        return json.loads(path.read_text()), path

    def write(self, doc, path):
        path.write_text(json.dumps(doc))

    def test_unparseable(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="unparseable"):
            load_dataset(path)

    def test_wrong_version(self, tmp_path):
        doc, path = self.make_doc(tmp_path)
        doc["formatVersion"] = 99
        self.write(doc, path)
        with pytest.raises(SchemaError, match="formatVersion"):
            load_dataset(path)

    def test_sample_count_mismatch(self, tmp_path):
        doc, path = self.make_doc(tmp_path)
        doc["sampleCount"] = 7
        self.write(doc, path)
        with pytest.raises(SchemaError, match="sampleCount"):
            load_dataset(path)

    def test_visibility_index_out_of_range(self, tmp_path):
        doc, path = self.make_doc(tmp_path)
        doc["samples"][1]["visibilitySet"].append(doc["landmarkCount"])
        self.write(doc, path)
        with pytest.raises(SchemaError, match="visibility index out of range"):
            load_dataset(path)

    def test_nonfinite_response(self, tmp_path):
        doc, path = self.make_doc(tmp_path)
        doc["samples"][0]["responses"][0][0][0] = None
        self.write(doc, path)
        with pytest.raises(SchemaError, match="non-finite response"):
            load_dataset(path)

    def test_negative_normalizer(self, tmp_path):
        doc, path = self.make_doc(tmp_path)
        doc["samples"][2]["normalizer"] = -1.0
        self.write(doc, path)
        with pytest.raises(SchemaError, match="normalizer"):
            load_dataset(path)

    def test_feature_count_disagreement(self, tmp_path):
        doc, path = self.make_doc(tmp_path)
        doc["featureCount"] += 1
        self.write(doc, path)
        with pytest.raises(SchemaError, match="featureCount"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(sampleCount=None),
            lambda d: d.update(sampleCount=True, samples=d["samples"][:1]),
            lambda d: d.update(modelCount=3.0),
            lambda d: d.update(formatVersion=True),
            lambda d: d.update(samples=5),
            lambda d: d["samples"][0].update(visibilitySet=[True]),
            lambda d: d["samples"][1].update(normalizer=True),
            lambda d: d["samples"][1].update(responses={}),
            lambda d: d["samples"][2].update(features="high"),
            lambda d: d["samples"][0]["responses"][0].__setitem__(1, [True, False]),
            lambda d: d["samples"][1]["features"].__setitem__(0, "0.5"),
            lambda d: d["samples"][0]["groundTruth"][
                d["samples"][0]["visibilitySet"][0]].__setitem__(0, True),
            lambda d: d["samples"][1].update(normalizer="1.5"),
            lambda d: d.update(masks=[[bool(v) for v in row] for row in d["masks"]]),
            lambda d: d["masks"][0].__setitem__(0, 1.0),
            lambda d: d["masks"][0].append(1),
            lambda d: d["samples"][2]["features"].__setitem__(0, 10 ** 400),
        ],
        ids=[
            "null-sample-count",
            "bool-sample-count",
            "float-model-count",
            "bool-format-version",
            "samples-not-a-list",
            "bool-visibility-index",
            "bool-normalizer",
            "object-responses",
            "string-features",
            "bool-response-pair",
            "string-feature-score",
            "bool-visible-ground-truth",
            "string-normalizer",
            "bool-masks",
            "float-mask-entry",
            "ragged-masks",
            "huge-int-feature-score",
        ],
    )
    def test_wrong_json_types(self, tmp_path, mutate):
        doc, path = self.make_doc(tmp_path)
        mutate(doc)
        self.write(doc, path)
        with pytest.raises(SchemaError):
            load_dataset(path)


class TestMetadataSidecar:
    def test_round_trip(self, tmp_path):
        yaw = np.array([-40.0, 0.0, 62.5])
        cid = np.array([0, 1, 2])
        path = tmp_path / "meta.json"
        save_metadata(yaw, cid, path, cluster_centers=[-40.0, 0.0, 40.0])
        yaw2, cid2, centers = load_metadata(path)
        np.testing.assert_array_equal(yaw2, yaw)
        np.testing.assert_array_equal(cid2, cid)
        np.testing.assert_array_equal(centers, [-40.0, 0.0, 40.0])

    def test_centers_optional(self, tmp_path):
        path = tmp_path / "meta.json"
        save_metadata([0.0], [0], path)
        _, _, centers = load_metadata(path)
        assert centers is None

    @pytest.mark.parametrize(
        "key, value",
        [
            ("clusterId", None),
            ("clusterId", [0, 0.7, 2]),
            ("clusterId", [0, True, 2]),
            ("yaw", [-40.0, "5", 62.5]),
            ("yaw", [-40.0, True, 62.5]),
            ("formatVersion", True),
            ("clusterCenters", [None, 1]),
            ("yaw", [-40.0, 10 ** 400, 62.5]),
            ("clusterId", [0, 2 ** 70, 2]),
            ("clusterCenters", [10 ** 400, 40.0]),
        ],
    )
    def test_wrong_json_types(self, tmp_path, key, value):
        path = tmp_path / "meta.json"
        save_metadata([-40.0, 0.0, 62.5], [0, 1, 2], path,
                      cluster_centers=[-40.0, 40.0])
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_metadata(path)

    @pytest.mark.parametrize(
        "yaw, cluster_id, centers, field",
        [
            ([math.nan, 0.0], [0, 1], None, "yaw"),
            ([0.0, math.inf], [0, 1], None, "yaw"),
            ([0.0, 1.0], [0, 1], [math.nan, 40.0], "cluster_centers"),
            ([0.0, 1.0], [0, 1], [-40.0, -math.inf], "cluster_centers"),
            ([0.0, 1.0], [0, 1], [[-40.0, 40.0]], "cluster_centers"),
            ([0.0, 1.0], [1.7, True], None, "cluster_id"),
            ([0.0, 1.0], [True, False], None, "cluster_id"),
            ([0.0, 1.0], np.array([0.0, 1.0]), None, "cluster_id"),
            ([0.0, 1.0, 2.0], [0, True, 2], None, "cluster_id"),
            ([0.0, 1.0], np.array([0, False], dtype=object), None, "cluster_id"),
            ([0.0, 1.0], [0, 2 ** 63], None, "cluster_id"),
            ([0.0, 1.0], np.array([0, 2 ** 63], dtype=np.uint64), None, "cluster_id"),
        ],
        ids=["nan-yaw", "inf-yaw", "nan-center", "inf-center", "2-d-centers",
             "float-id", "bool-ids", "float-array-ids", "bool-among-int-ids",
             "bool-in-object-array-ids", "int64-overflow-id", "uint64-overflow-id"],
    )
    def test_save_writes_only_what_load_reads(self, tmp_path, yaw, cluster_id, centers, field):
        path = tmp_path / "meta.json"
        with pytest.raises(ValueError, match=field):
            save_metadata(yaw, cluster_id, path, cluster_centers=centers)
        assert not path.exists()

    def test_any_integer_ids_saved(self, tmp_path):
        path = tmp_path / "meta.json"
        save_metadata([0.5, 1.5], np.array([2, 0], dtype=np.uint8), path, cluster_centers=(1, 2))
        yaw, cid, centers = load_metadata(path)
        assert cid.tolist() == [2, 0] and centers.tolist() == [1.0, 2.0]

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_metadata([0.0, 1.0], [0], tmp_path / "m.json")

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("yaw", [float("nan"), 0.0, 62.5], "yaw"),
            ("yaw", [-40.0, float("inf"), 62.5], "yaw"),
            ("clusterCenters", [float("nan"), 40.0], "cluster_centers"),
            ("clusterCenters", [-40.0, float("-inf")], "cluster_centers"),
        ],
    )
    def test_non_finite_values_rejected(self, tmp_path, key, value, field):
        path = tmp_path / "meta.json"
        save_metadata([-40.0, 0.0, 62.5], [0, 1, 2], path,
                      cluster_centers=[-40.0, 40.0])
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))  # NaN, Infinity: JSON's extensions
        with pytest.raises(SchemaError, match=field):
            load_metadata(path)
