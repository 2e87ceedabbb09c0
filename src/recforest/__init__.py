"""Ensembles of model recommendation trees for landmark estimation.

A pool of expert models each covers one view cluster; at test time a
recommendation forest maps detection-score features to a rating vector on
the probability simplex, and the pool's shape responses are blended by
that rating into landmark and visibility predictions.
"""

from .classforest import (
    derive_labels,
    entropy,
    predict_posterior_rating_many,
    predict_top_vote_many,
    train_class_forest,
)
from .data import (
    ModelProtocol,
    Prediction,
    ResponseDataset,
    SchemaError,
    load_dataset,
    load_metadata,
    rating_vector,
    save_dataset,
    save_metadata,
)
from .forest import (
    Leaf,
    RecForest,
    RecTrainConfig,
    Split,
    SplitParams,
    accuracy_maximizing_threshold,
    aggregate_rating,
    blend_prediction,
    calibrate_gamma,
    predict,
    predict_many,
    train_forest,
)
from .metrics import (
    CompareConfig,
    EvalReport,
    ced_curve,
    format_comparison,
    run_comparison,
    sample_error,
    visibility_scores,
)
from .seeds import derive_seed
from .serialize import load_forest, save_forest
from .simplex import project_to_simplex
from .synth import (
    GenConfig,
    LatentSample,
    face_template,
    generate,
    metadata_arrays,
    preset_config,
    two_cluster_config,
)

__all__ = [
    "CompareConfig",
    "EvalReport",
    "GenConfig",
    "LatentSample",
    "Leaf",
    "ModelProtocol",
    "Prediction",
    "RecForest",
    "RecTrainConfig",
    "ResponseDataset",
    "SchemaError",
    "Split",
    "SplitParams",
    "accuracy_maximizing_threshold",
    "aggregate_rating",
    "blend_prediction",
    "calibrate_gamma",
    "ced_curve",
    "derive_labels",
    "derive_seed",
    "entropy",
    "face_template",
    "format_comparison",
    "generate",
    "load_dataset",
    "load_forest",
    "load_metadata",
    "metadata_arrays",
    "predict",
    "predict_many",
    "predict_posterior_rating_many",
    "predict_top_vote_many",
    "preset_config",
    "project_to_simplex",
    "rating_vector",
    "run_comparison",
    "sample_error",
    "save_dataset",
    "save_forest",
    "save_metadata",
    "train_class_forest",
    "train_forest",
    "two_cluster_config",
    "visibility_scores",
]

__version__ = "0.1.0"
