"""Generator geometry, noise structure, and reproducibility."""

import dataclasses
import math

import numpy as np
import pytest

from recforest.synth import (
    CHIN_ANCHOR,
    GenConfig,
    TOP_ANCHOR,
    face_template,
    generate,
    metadata_arrays,
    preset_config,
    two_cluster_config,
)

from helpers import generate_per_sample


def _noise_free(**overrides):
    base = GenConfig(
        sample_count=40,
        landmark_count=10,
        cluster_centers=(-40.0, 40.0),
        cluster_half_width=20.0,
        in_noise=0.0,
        out_noise_slope=0.0,
        score_noise=0.0,
        occlusion_rate=0.0,
        rng_seed=7,
    )
    return dataclasses.replace(base, **overrides)


class TestTemplate:
    def test_anchor_layout(self):
        points, normals = face_template(12)
        assert points.shape == (12, 3)
        assert normals.shape == (12, 3)
        # the three anchors sit on the rotation axis facing the camera
        assert np.array_equal(points[:3, 0], np.zeros(3))
        assert np.array_equal(normals[:3], np.tile([0.0, 0.0, 1.0], (3, 1)))
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)

    def test_ring_mirror_symmetry(self):
        # ring index i and its angular partner R-1-i mirror in x and share z
        points, normals = face_template(11)
        ring_p, ring_n = points[3:], normals[3:]
        flipped = ring_p[::-1]
        assert np.allclose(ring_p[:, 0], -flipped[:, 0], atol=1e-9)
        assert np.allclose(ring_p[:, 2], flipped[:, 2], atol=1e-9)
        n_flipped = ring_n[::-1]
        assert np.allclose(ring_n[:, 0], -n_flipped[:, 0], atol=1e-9)
        assert np.allclose(ring_n[:, 2], n_flipped[:, 2], atol=1e-9)

    def test_too_few_landmarks(self):
        with pytest.raises(ValueError):
            face_template(3)


class TestProtocolMasks:
    def test_anchors_always_visible(self):
        ds, _ = generate(_noise_free())
        assert ds.protocol.masks[:, :3].all()

    def test_mirror_centers_mirror_masks(self):
        # symmetric cluster centers must yield mirrored ring visibility
        ds, _ = generate(_noise_free(cluster_centers=(-70.0, 70.0)))
        masks = ds.protocol.masks
        left_ring, right_ring = masks[0, 3:], masks[1, 3:]
        assert np.array_equal(left_ring, right_ring[::-1])
        assert left_ring.sum() == right_ring.sum()

    def test_profile_masks_are_one_sided(self):
        ds, _ = generate(_noise_free(cluster_centers=(-70.0, 70.0)))
        masks = ds.protocol.masks
        assert masks[0].sum() < ds.landmark_count
        assert not np.array_equal(masks[0], masks[1])


class TestNoiseFreeLimit:
    def test_responses_equal_truth(self):
        ds, meta = generate(_noise_free())
        for m, sample in enumerate(meta):
            for c in range(ds.model_count):
                assert np.array_equal(ds.responses[m, c], sample.true_shape)
            vis = ds.visible[m]
            assert np.array_equal(ds.ground_truth[m, vis], sample.true_shape[vis])
            assert np.isnan(ds.ground_truth[m, ~vis]).all()

    def test_scores_saturate(self):
        # zero landmark error: visible slots score 1.0, absent slots 0.1
        ds, _ = generate(_noise_free())
        pairs = ds.protocol.slot_pairs
        for m in range(ds.sample_count):
            vis = ds.visible[m][pairs[:, 1]]
            assert np.array_equal(ds.features[m][vis], np.ones(vis.sum()))
            absent = ds.features[m][~vis]
            assert np.allclose(absent, 0.1, atol=1e-12)

    def test_occlusion_hides_truth(self):
        ds, meta = generate(_noise_free(occlusion_rate=0.4, sample_count=120))
        geo = np.stack([s.true_visibility for s in meta])
        assert (ds.visible <= geo).all()      # dropout only removes
        assert ds.visible.sum() < geo.sum()   # and does remove at 40%
        assert np.isnan(ds.ground_truth[~ds.visible]).all()


class TestYawStructure:
    def test_in_cluster_only_containment(self):
        ds, meta = generate(_noise_free(in_cluster_only=True, sample_count=150))
        yaw, cid = metadata_arrays(meta)
        centers = np.array([-40.0, 40.0])
        assert np.all(np.abs(yaw - centers[cid]) <= 20.0 + 1e-9)

    def test_cluster_id_is_nearest_center(self):
        ds, meta = generate(preset_config("aflw-like-5view", sample_count=200))
        yaw, cid = metadata_arrays(meta)
        centers = np.asarray(PRESET_CENTERS)
        expected = np.argmin(np.abs(yaw[:, None] - centers[None, :]), axis=1)
        assert np.array_equal(cid, expected)

    def test_yaw_respects_range(self):
        ds, meta = generate(_noise_free(yaw_range=(-30.0, 25.0),
                                        cluster_centers=(-20.0, 20.0),
                                        sample_count=100))
        yaw, _ = metadata_arrays(meta)
        assert yaw.min() >= -30.0 and yaw.max() <= 25.0


class TestNoiseProfile:
    def test_error_grows_with_distance(self):
        # mean response error is flat inside a cluster and rises outside
        cfg = GenConfig(
            sample_count=1500,
            landmark_count=10,
            cluster_centers=(-80.0, 80.0),
            cluster_half_width=20.0,
            in_noise=0.02,
            out_noise_slope=0.003,
            score_noise=0.0,
            occlusion_rate=0.0,
            rng_seed=3,
        )
        ds, meta = generate(cfg)
        yaw, _ = metadata_arrays(meta)
        true_shapes = np.stack([s.true_shape for s in meta])
        err = np.linalg.norm(
            ds.responses - true_shapes[:, None], axis=3
        ).mean(axis=2)  # (M, C)
        edges = [0.0, 20.0, 60.0, 100.0, 180.0]
        for c, center in enumerate((-80.0, 80.0)):
            dist = np.abs(yaw - center)
            means = []
            for lo, hi in zip(edges[:-1], edges[1:]):
                sel = (dist >= lo) & (dist < hi)
                assert sel.sum() >= 30
                means.append(err[sel, c].mean())
            assert means[0] < means[1] < means[2] < means[3]

    def test_preset_in_cluster_beats_out(self):
        ds, meta = generate(preset_config("aflw-like-5view"))
        yaw, _ = metadata_arrays(meta)
        true_shapes = np.stack([s.true_shape for s in meta])
        err = np.linalg.norm(
            ds.responses - true_shapes[:, None], axis=3
        ).mean(axis=2)
        for c, center in enumerate(PRESET_CENTERS):
            inside = np.abs(yaw - center) <= 20.0
            assert inside.sum() >= 50 and (~inside).sum() >= 50
            assert err[inside, c].mean() < err[~inside, c].mean()

    def test_scores_stay_in_unit_interval(self):
        ds, _ = generate(preset_config("aflw-like-5view", sample_count=300))
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


class TestNormalizer:
    def test_matches_anchor_distance(self):
        ds, meta = generate(_noise_free(sample_count=25))
        for m, sample in enumerate(meta):
            span = np.linalg.norm(
                sample.true_shape[TOP_ANCHOR] - sample.true_shape[CHIN_ANCHOR]
            )
            assert ds.normalizer[m] == span
            assert ds.normalizer[m] > 0.0


class TestReproducibility:
    def test_same_seed_bitwise(self):
        cfg = preset_config("aflw-like-5view", sample_count=60)
        a, meta_a = generate(cfg)
        b, meta_b = generate(cfg)
        assert np.array_equal(a.responses, b.responses)
        assert np.array_equal(a.ground_truth, b.ground_truth, equal_nan=True)
        assert np.array_equal(a.visible, b.visible)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.normalizer, b.normalizer)
        assert np.array_equal(*map(lambda m: metadata_arrays(m)[0], (meta_a, meta_b)))

    def test_different_seed_differs(self):
        a, _ = generate(preset_config("aflw-like-5view", sample_count=40, rng_seed=0))
        b, _ = generate(preset_config("aflw-like-5view", sample_count=40, rng_seed=1))
        assert not np.array_equal(a.responses, b.responses)


class TestTwoClusterBenchmark:
    def test_own_model_scores_saturate(self):
        ds, meta = generate(two_cluster_config(80))
        _, cid = metadata_arrays(meta)
        pairs = ds.protocol.slot_pairs
        for m in range(ds.sample_count):
            own = pairs[:, 0] == cid[m]
            vis = ds.visible[m][pairs[:, 1]]
            sel = own & vis
            assert sel.any()
            assert np.array_equal(ds.features[m][sel], np.ones(sel.sum()))

    def test_other_model_scores_suppressed(self):
        ds, meta = generate(two_cluster_config(80))
        _, cid = metadata_arrays(meta)
        pairs = ds.protocol.slot_pairs
        for m in range(ds.sample_count):
            other = pairs[:, 0] != cid[m]
            vis = ds.visible[m][pairs[:, 1]]
            sel = other & vis
            assert ds.features[m][sel].max() < 1.0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"sample_count": 0},
            {"landmark_count": 3},
            {"yaw_range": (30.0, 30.0)},
            {"cluster_centers": ()},
            {"cluster_centers": (10.0, 10.0)},
            {"cluster_centers": (-120.0, 0.0), "yaw_range": (-150.0, 90.0)},
            {"cluster_centers": (-95.0, 0.0), "yaw_range": (-100.0, 90.0)},
            {"cluster_half_width": 0.0},
            {"in_noise": -0.1},
            {"out_noise_slope": -0.1},
            {"score_noise": -0.1},
            {"score_sharpness": 0.0},
            {"occlusion_rate": 1.0},
            {"yaw_range": (-1e308, 1e308)},
            {"yaw_range": (-math.inf, math.inf)},
            {"yaw_range": (-math.inf, 90.0)},
            {"cluster_centers": (math.nan,)},
            {"cluster_half_width": math.nan},
            {"cluster_half_width": math.inf},
            {"in_noise": math.nan},
            {"out_noise_slope": math.inf},
            {"score_noise": math.inf},
            {"score_sharpness": math.inf},
            {"occlusion_rate": math.nan},
            {"sample_count": 10.5},
            {"sample_count": True},
            {"landmark_count": 12.0},
            {"rng_seed": 0.5},
            {"in_noise": "0.1"},
            {"in_cluster_only": "yes"},
        ],
    )
    def test_rejections(self, overrides):
        cfg = dataclasses.replace(GenConfig(), **overrides)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_numpy_values_pass(self):
        GenConfig(cluster_centers=np.array([-40.0, 40.0]), in_noise=np.float32(0.1),
                  sample_count=np.int64(10)).validate()

    @pytest.mark.parametrize("yaw_range", [(-90.0, 0.0, 90.0), (0.0,)])
    def test_yaw_range_needs_two_entries(self, yaw_range):
        with pytest.raises(ValueError, match="^yaw_range must be two numbers: lo,hi$"):
            generate(GenConfig(yaw_range=yaw_range))

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config("no-such-preset")


class TestPerSampleOracle:
    """`generate` walks samples in blocks; it must give the bytes of the
    one-sample-per-pass reference, block edges and both yaw branches
    included."""

    @pytest.mark.parametrize(
        "config",
        [
            *(pytest.param(preset_config("aflw-like-5view", rng_seed=s),
                           id="preset-seed%d" % s) for s in range(3)),
            *(pytest.param(preset_config("aflw-like-5view", sample_count=m),
                           id="M%d" % m) for m in (1, 127, 128, 129, 300)),
            pytest.param(two_cluster_config(400), id="two-cluster"),
            pytest.param(two_cluster_config(150, rng_seed=3), id="two-cluster-seed3"),
            pytest.param(preset_config("aflw-like-5view", sample_count=200,
                                       landmark_count=8, cluster_centers=(-30.0, 30.0)),
                         id="N8-two-centers"),
            pytest.param(preset_config("aflw-like-5view", sample_count=200,
                                       score_noise=0.0), id="no-score-noise"),
            pytest.param(preset_config("aflw-like-5view", sample_count=200,
                                       occlusion_rate=0.0), id="no-occlusion"),
        ],
    )
    def test_same_bytes_as_per_sample_loop(self, config):
        ds, meta = generate(config)
        ref, ref_meta = generate_per_sample(config)
        assert np.array_equal(ds.protocol.masks, ref.protocol.masks)
        for name in ("responses", "ground_truth", "visible", "features",
                     "normalizer"):
            got, want = getattr(ds, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name  # NaN positions too
        assert len(meta) == len(ref_meta) == config.sample_count
        for got, want in zip(meta, ref_meta):
            assert type(got.yaw) is float and got.yaw == want.yaw
            assert type(got.cluster_id) is int and got.cluster_id == want.cluster_id
            for name in ("true_shape", "true_visibility"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name


PRESET_CENTERS = (-80.0, -40.0, 0.0, 40.0, 80.0)
