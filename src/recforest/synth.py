"""Synthetic multi-view landmark benchmark with a pool of view experts.

Samples are yaw rotations of a fixed 3-D face-like template (a ring of
points on an ellipsoid plus three on-axis anchors), orthographically
projected to 2-D.  Self-occlusion arises geometrically: a landmark is
visible when its outward surface normal faces the camera after rotation.
Each pool model is an expert for one yaw cluster: accurate inside the
cluster, increasingly noisy away from it, with a fixed landmark-visibility
protocol taken from the cluster center.  Detection scores fire near the true
landmark when it is actually visible and stay low otherwise.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import _BLOCK, ModelProtocol, ResponseDataset, _check_fields
from .seeds import derive_seed

TOP_ANCHOR = 0
NOSE_ANCHOR = 1
CHIN_ANCHOR = 2
_RING_SPAN_DEG = 110.0
_RING_HEIGHTS = (0.25, -0.05, -0.35)
_RING_RADII = (0.8, 0.45)  # ellipse semi-axes (x, z)


@dataclass(frozen=True)
class GenConfig:
    """Generator parameters; defaults match the `aflw-like-5view` preset.

    `in_cluster_only` restricts yaw to the union of the cluster intervals
    [center - half_width, center + half_width] instead of the full range,
    which makes cleanly separable multi-cluster benchmarks constructible.
    """

    sample_count: int = 2000
    landmark_count: int = 12
    cluster_centers: tuple[float, ...] = (-80.0, -40.0, 0.0, 40.0, 80.0)
    cluster_half_width: float = 20.0
    yaw_range: tuple[float, ...] = (-90.0, 90.0)
    in_noise: float = 0.02
    out_noise_slope: float = 0.001
    score_sharpness: float = 6.0
    score_noise: float = 0.08
    occlusion_rate: float = 0.05
    in_cluster_only: bool = False
    rng_seed: int = 0

    @property
    def model_count(self) -> int:
        return len(self.cluster_centers)

    def validate(self):
        _check_fields(self)
        if self.sample_count < 1:
            raise ValueError("M must be ≥ 1")
        if self.landmark_count < 4:
            raise ValueError("landmark_count must be >= 4")
        if len(self.yaw_range) != 2:
            raise ValueError("yaw_range must be two numbers: lo,hi")
        lo, hi = (float(v) for v in self.yaw_range)
        if not lo < hi:
            raise ValueError("yaw_range must be a nonempty interval")
        if not math.isfinite(hi - lo):
            raise ValueError("yaw_range must have a finite width")
        centers = np.asarray(self.cluster_centers, dtype=np.float64)
        if centers.size < 1:
            raise ValueError("need at least one cluster center")
        if centers.size > 1 and not np.all(np.diff(centers) > 0):
            raise ValueError("cluster_centers must be strictly increasing")
        if centers.min() < lo or centers.max() > hi:
            raise ValueError("cluster_centers must lie inside yaw_range")
        if np.abs(centers).max() >= 90.0:
            raise ValueError("cluster_centers must be strictly inside (-90, 90)")
        if self.cluster_half_width <= 0:
            raise ValueError("cluster_half_width must be positive")
        if self.in_noise < 0 or self.out_noise_slope < 0 or self.score_noise < 0:
            raise ValueError("noise levels must be nonnegative")
        if self.score_sharpness <= 0:
            raise ValueError("score_sharpness must be positive")
        if not 0.0 <= self.occlusion_rate < 1.0:
            raise ValueError("occlusion_rate must be in [0, 1)")


@dataclass
class LatentSample:
    yaw: float
    cluster_id: int
    true_shape: np.ndarray       # (N, 2)
    true_visibility: np.ndarray  # (N,) bool


def face_template(landmark_count: int):
    """3-D template points and outward normals, (N, 3) each.

    Landmarks 0..2 are the top, nose, and chin anchors on the rotation axis
    (normals straight at the camera, so they stay visible at any |yaw| <
    90); the rest sit on an ellipsoid ring spanning +-110 degrees with
    cycling heights, normals from the ellipse cross-section.
    """
    if landmark_count < 4:
        raise ValueError("template needs at least 4 landmarks")
    anchors = np.array(
        [
            [0.0, 0.6, 0.35],   # top of forehead
            [0.0, 0.0, 0.55],   # nose tip
            [0.0, -0.65, 0.3],  # chin
        ]
    )
    anchor_normals = np.tile([0.0, 0.0, 1.0], (3, 1))
    ring_count = landmark_count - 3
    theta = np.deg2rad(np.linspace(-_RING_SPAN_DEG, _RING_SPAN_DEG, ring_count))
    a, c = _RING_RADII
    heights = np.array([_RING_HEIGHTS[i % 3] for i in range(ring_count)])
    ring = np.stack([a * np.sin(theta), heights, c * np.cos(theta)], axis=1)
    ring_normals = np.stack(
        [np.sin(theta) / a, np.zeros(ring_count), np.cos(theta) / c], axis=1
    )
    ring_normals /= np.linalg.norm(ring_normals, axis=1, keepdims=True)
    return np.vstack([anchors, ring]), np.vstack([anchor_normals, ring_normals])


def _cos_sin(yaw_deg):
    rad = math.radians(yaw_deg)
    return math.cos(rad), math.sin(rad)


def _project(points, cos, sin):
    """Rotate about the vertical axis by K yaws and drop depth; (K, N, 2)."""
    x = points[:, 0] * cos[:, None] + points[:, 2] * sin[:, None]
    return np.stack([x, np.broadcast_to(points[:, 1], x.shape)], axis=2)


def _visible_at(normals, cos, sin):
    """Camera-facing test: rotated normal has positive depth; (K, N)."""
    depth = -normals[:, 0] * sin[:, None] + normals[:, 2] * cos[:, None]
    return depth > 0


def generate(config: GenConfig):
    """Generate a dataset and its latent metadata.

    Per-sample randomness comes from a stream seeded by (rng_seed, "sample",
    m), drawn in a fixed order (yaw, response noise, occlusion dropout,
    score noise), so generation is reproducible and per-sample
    parallelizable.  Samples go in blocks of `_BLOCK`: a loop only makes
    each sample's draws, and the rest is array operations per block, with
    the same bytes as one sample at a time.  The bound keeps memory flat.
    """
    config.validate()
    M = config.sample_count
    N = config.landmark_count
    centers = np.asarray(config.cluster_centers, dtype=np.float64)
    C = centers.size
    points, normals = face_template(N)
    protocol = ModelProtocol(
        _visible_at(normals, *np.array([_cos_sin(c) for c in centers]).T)
    )
    pair_c, pair_n = protocol.slot_pairs[:, 0], protocol.slot_pairs[:, 1]

    yaw_lo, yaw_hi = (float(v) for v in config.yaw_range)
    responses = np.empty((M, C, N, 2))
    ground_truth = np.full((M, N, 2), np.nan)
    visible = np.empty((M, N), dtype=bool)
    features = np.empty((M, protocol.feature_count))
    normalizer = np.empty(M)
    metadata = []

    for start in range(0, M, _BLOCK):
        rows = slice(start, min(start + _BLOCK, M))
        B = rows.stop - start
        yaw, cos_sin = np.empty(B), np.empty((2, B))
        dropout, eps = np.empty((B, N)), np.empty((B, C, N))
        for i, m in enumerate(range(start, rows.stop)):
            rng = np.random.default_rng(derive_seed(config.rng_seed, "sample", m))
            lo, hi = yaw_lo, yaw_hi
            if config.in_cluster_only:
                cluster = int(rng.integers(C))
                lo = max(yaw_lo, centers[cluster] - config.cluster_half_width)
                hi = min(yaw_hi, centers[cluster] + config.cluster_half_width)
            yaw[i] = rng.uniform(lo, hi)
            cos_sin[:, i] = _cos_sin(yaw[i])
            rng.standard_normal(out=responses[m])
            rng.random(out=dropout[i])
            rng.standard_normal(out=eps[i])

        true_shape = _project(points, *cos_sin)  # (B, N, 2)
        geo_visible = _visible_at(normals, *cos_sin)  # (B, N)
        distance = np.abs(yaw[:, None] - centers)  # (B, C)
        sigma = config.in_noise + config.out_noise_slope * np.maximum(
            0.0, distance - config.cluster_half_width
        )
        block = responses[rows]
        block *= sigma[:, :, None, None]
        block += true_shape[:, None]

        vis = geo_visible & ~(dropout < config.occlusion_rate)
        visible[rows] = vis
        ground_truth[rows][vis] = true_shape[vis]

        # 1-D norms (dot products): an axis-wise norm can differ in the last bit
        top_chin = true_shape[:, TOP_ANCHOR] - true_shape[:, CHIN_ANCHOR]
        scale = np.array([np.linalg.norm(v) for v in top_chin])
        normalizer[rows] = scale
        err = np.linalg.norm(block - true_shape[:, None], axis=3)  # (B, C, N)
        eps *= config.score_noise
        raw = np.where(
            vis[:, None, :],
            1.0 - config.score_sharpness * err / scale[:, None, None] + eps,
            0.1 + eps,
        )
        features[rows] = np.clip(raw, 0.0, 1.0)[:, pair_c, pair_n]

        metadata.extend(
            LatentSample(yaw=float(y), cluster_id=int(c), true_shape=shape,
                         true_visibility=geo)
            for y, c, shape, geo in zip(
                yaw, np.argmin(distance, axis=1), true_shape, geo_visible
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


PRESETS = {
    "aflw-like-5view": GenConfig(),
}


def preset_config(name: str, **overrides) -> GenConfig:
    """Named preset with optional field overrides."""
    if name not in PRESETS:
        raise ValueError(
            "unknown preset %r (available: %s)" % (name, ", ".join(sorted(PRESETS)))
        )
    return replace(PRESETS[name], **overrides)


def two_cluster_config(sample_count=400, rng_seed=0, **overrides) -> GenConfig:
    """Cleanly separable two-cluster benchmark.

    In-cluster responses are exact (zero noise) and detection scores are
    noise-free, so each cluster's own model scores 1.0 on every slot while
    the other model's scores fall with distance; a single feature threshold
    separates the clusters.
    """
    base = GenConfig(
        sample_count=sample_count,
        landmark_count=8,
        cluster_centers=(-40.0, 40.0),
        cluster_half_width=20.0,
        in_noise=0.0,
        out_noise_slope=0.05,
        score_sharpness=6.0,
        score_noise=0.0,
        occlusion_rate=0.0,
        in_cluster_only=True,
        rng_seed=rng_seed,
    )
    return replace(base, **overrides)


def metadata_arrays(metadata):
    """(yaw, cluster_id) arrays from a LatentSample list."""
    yaw = np.array([s.yaw for s in metadata], dtype=np.float64)
    cluster_id = np.array([s.cluster_id for s in metadata], dtype=np.int64)
    return yaw, cluster_id
