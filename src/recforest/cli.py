"""Command line: dataset generation, training, prediction, evaluation,
and the cross-validated strategy comparison.

Option precedence is flags over --config file over preset defaults.  All
randomness flows from each command's --seed through tagged sub-seeds, so
results are byte-reproducible for a fixed seed at any --workers count.
The RECFOREST_WORKERS environment variable sets the default worker count.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .classforest import derive_labels, predict_top_vote_many, train_class_forest
from .data import (
    _atomic_write,
    _fits,
    _read_json,
    _write_samples,
    load_dataset,
    load_metadata,
    save_dataset,
    save_metadata,
)
from .forest import (
    RecTrainConfig,
    accuracy_maximizing_threshold,
    predict_many,
    train_forest,
)
from .metrics import (
    CompareConfig,
    _eval_report,
    _holdout_split,
    _report_record,
    _sample_errors,
    curve_lines,
    format_comparison,
    run_comparison,
)
from .seeds import derive_seed
from .serialize import load_forest, save_forest
from .synth import PRESETS, GenConfig, generate, metadata_arrays

WORKERS_ENV = "RECFOREST_WORKERS"

DATASET_FILE = "dataset.json"
METADATA_FILE = "metadata.json"


def _resolve_workers(value):
    if value is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is None:
            return 1
        try:
            value = int(raw)
        except ValueError:
            raise ValueError("%s must be an integer" % WORKERS_ENV)
    if value < 1:
        raise ValueError("workers must be >= 1")
    return value


def _read_config(path):
    if path is None:
        return {}
    doc = _read_json(path, "config file %s" % path)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _parse_floats(text, label):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError("%s must be comma-separated numbers" % label)


def _merge_dataclass(cls, label, base, config_doc, args):
    """`cls` from `base` and its own defaults, overridden by the config file's
    values and then by the flags given on the command line, and validated."""
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(config_doc) - set(names))
    if unknown:
        raise ValueError(
            "unknown config keys for %s: %s" % (label, ", ".join(unknown))
        )
    merged = dict(base, **config_doc)
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    config = cls(**merged)
    config.validate()
    return config


def _load_metadata(path, required=False):
    """The data directory's metadata arrays, read only by the commands that
    use them; None if the file is absent and not `required`."""
    meta_path = os.path.join(path, METADATA_FILE)
    if os.path.exists(meta_path):
        return load_metadata(meta_path)
    if required:
        raise ValueError("no %s in %s" % (METADATA_FILE, path))
    return None


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args):
    base = asdict(PRESETS[args.preset])
    doc = _read_config(args.config)
    if args.cluster_centers is not None:
        args.cluster_centers = _parse_floats(args.cluster_centers, "--centers")
    if args.yaw_range is not None:
        args.yaw_range = _parse_floats(args.yaw_range, "--yaw-range")
    config = _merge_dataclass(GenConfig, "gen", base, doc, args)
    dataset, metadata = generate(config)
    yaw, cluster_id = metadata_arrays(metadata)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(dataset, os.path.join(args.out, DATASET_FILE))
    save_metadata(
        yaw,
        cluster_id,
        os.path.join(args.out, METADATA_FILE),
        cluster_centers=config.cluster_centers,
    )
    print(
        "M=%d C=%d N=%d F=%d visible-fraction=%.4f"
        % (
            dataset.sample_count,
            dataset.model_count,
            dataset.landmark_count,
            dataset.feature_count,
            float(dataset.visible.mean()),
        )
    )
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args):
    workers = _resolve_workers(args.workers)
    doc = _read_config(args.config)
    val_fraction = args.val if args.val is not None else doc.pop("val", 0.2)
    doc.pop("val", None)
    config = _merge_dataclass(RecTrainConfig, "train", {}, doc, args)
    if not (_fits(val_fraction, float) and 0.0 < val_fraction < 1.0):
        raise ValueError("--val must be in (0, 1)")
    dataset = load_dataset(os.path.join(args.data, DATASET_FILE))
    rng = np.random.default_rng(derive_seed(config.rng_seed, "val"))
    fit_idx, val_idx = _holdout_split(
        np.arange(dataset.sample_count), val_fraction, rng
    )
    fit_ds = dataset.subset(fit_idx)
    if args.method == "rec":
        forest = train_forest(fit_ds, config, workers=workers)
    else:
        meta = _load_metadata(args.data)
        labels = derive_labels(dataset, meta[1] if meta is not None else None)
        forest = train_class_forest(fit_ds, labels[fit_idx], config, workers=workers)
    # a classification forest's posterior-rating output is predict_many's
    _, conf, _ = predict_many(
        forest, dataset.responses[val_idx], dataset.features[val_idx]
    )
    gamma, accuracy = accuracy_maximizing_threshold(
        conf.ravel(), dataset.visible[val_idx].ravel()
    )
    forest.gamma = gamma
    save_forest(forest, args.out)
    print(
        "method=%s trees=%d gamma=%r val-visibility-accuracy=%.4f"
        % (args.method, len(forest.trees), gamma, accuracy)
    )
    return 0


# ---------------------------------------------------------------------------
# predict / eval
# ---------------------------------------------------------------------------

def _forest_outputs(forest, dataset, selector):
    if forest.protocol != dataset.protocol:
        raise ValueError("forest protocol does not match dataset protocol")
    top_vote = forest.kind == "classification" and selector == "top-vote"
    predict = predict_top_vote_many if top_vote else predict_many
    return predict(forest, dataset.responses, dataset.features)


def _write_predictions(path, landmarks, confidences, flags):
    """Write the predictions file of `landmarks` (M, N, 2), `confidences`
    (M, N) and `flags` (M, N) through `data._write_samples`.

    The text is that of `json.dumps(payload, indent=1) + "\\n"` for the
    payload `{"formatVersion": 1, "sampleCount": M, "samples": [...]}`, one
    `{"landmarks", "confidences", "flags"}` object per sample."""
    M, N = flags.shape
    sample = json.dumps({"landmarks": np.zeros((N, 2)).tolist(), "confidences": [0.0] * N,
                         "flags": [True] * N}, indent=1).replace("\n", "\n  ")  # a list item

    def block(rows):
        floats = np.concatenate([landmarks[rows].reshape(-1, 2 * N), confidences[rows]],
                                axis=1).tolist()
        words = np.where(flags[rows], "true", "false").tolist()
        return [(*f, *w) for f, w in zip(floats, words)]

    head = '{\n "formatVersion": 1,\n "sampleCount": %d,\n "samples": [' % M
    _write_samples(path, head + "\n  " if M else head, sample, ",\n  ",
                   "\n ]\n}\n" if M else "]\n}\n", M, block)


def cmd_predict(args):
    forest = load_forest(args.forest)
    dataset = load_dataset(os.path.join(args.data, DATASET_FILE))
    landmarks, confidences, flags = _forest_outputs(forest, dataset, args.selector)
    _write_predictions(args.out, landmarks, confidences, flags)
    print("wrote %d predictions to %s" % (dataset.sample_count, args.out))
    return 0


def cmd_eval(args):
    forest = load_forest(args.forest)
    dataset = load_dataset(os.path.join(args.data, DATASET_FILE))
    landmarks, confidences, flags = _forest_outputs(forest, dataset, args.selector)
    errors = _sample_errors(landmarks, dataset, range(dataset.sample_count))
    report = _eval_report(errors, confidences, flags, dataset.visible)
    if args.format == "records":
        doc = dict(formatVersion=1, **_report_record(report))
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        ap = report.visibility_ap
        ap_text = "%.4f" % ap if ap is not None else "-"
        text = (
            "mean-error    %.4f\nvis-accuracy  %.4f\nvis-AP        %s\n"
            % (report.mean_error, report.visibility_accuracy, ap_text)
        )
    if args.out:
        _atomic_write(args.out, [text])
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args):
    workers = _resolve_workers(args.workers)
    doc = _read_config(args.config)
    train_doc = doc.pop("train", {})
    if not isinstance(train_doc, dict):
        raise ValueError("config key 'train' must be an object")
    train_config = _merge_dataclass(RecTrainConfig, "train", {}, train_doc, args)

    if args.strategies is not None:
        args.strategies = tuple(tok.strip() for tok in args.strategies.split(","))
    if args.cluster_centers is not None:
        args.cluster_centers = _parse_floats(args.cluster_centers, "--centers")

    dataset = load_dataset(os.path.join(args.data, DATASET_FILE))
    yaw, cluster_id, meta_centers = _load_metadata(args.data, required=True)
    base = dict(asdict(CompareConfig()), cluster_centers=meta_centers, train=train_config)
    config = _merge_dataclass(CompareConfig, "compare", base, doc, args)
    reports = run_comparison(dataset, yaw, cluster_id, config, workers=workers)
    text = format_comparison(reports, args.format)
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report_name = "report.json" if args.format == "records" else "report.txt"
        _atomic_write(os.path.join(args.out, report_name), [text])
        for name, report in reports.items():
            _atomic_write(os.path.join(args.out, "%s-ced.txt" % name),
                          [curve_lines(report.ced_curve)])
            _atomic_write(os.path.join(args.out, "%s-pr.txt" % name),
                          [curve_lines(report.pr_curve)])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a `ValueError`, so `main` prints one
    `error:` line and exits 1 as for any other bad input."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="recforest",
        description="Model recommendation forests over synthetic multi-view "
        "landmark pools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    growth = argparse.ArgumentParser(add_help=False)  # flags of `train` and `compare`
    growth.add_argument("--trees", type=int, dest="tree_count")
    growth.add_argument("--max-depth", type=int, dest="max_depth")
    growth.add_argument("--min-samples-leaf", type=int, dest="min_samples_per_leaf")
    growth.add_argument("--candidate-features", type=int, dest="candidate_feature_count")
    growth.add_argument("--candidate-thresholds", type=int, dest="candidate_threshold_count")
    growth.add_argument("--min-gain", type=float, dest="min_gain")
    growth.add_argument("--bootstrap", type=float, dest="bootstrap_fraction")
    growth.add_argument("--seed", type=int, dest="rng_seed")
    growth.add_argument("--workers", type=int, default=None)
    growth.add_argument("--verbose", action="store_true")
    scoring = argparse.ArgumentParser(add_help=False)  # flags of `predict` and `eval`
    scoring.add_argument("--forest", required=True)
    scoring.add_argument("--data", required=True)
    scoring.add_argument("--selector", choices=("top-vote", "posterior-rating"),
                         default="top-vote",
                         help="prediction rule for classification forests")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--preset", default="aflw-like-5view", choices=sorted(PRESETS))
    p.add_argument("--config", help="JSON file with generator fields")
    p.add_argument("--m", type=int, dest="sample_count")
    p.add_argument("--n", type=int, dest="landmark_count")
    p.add_argument("--centers", dest="cluster_centers",
                   help="comma-separated cluster centers in degrees")
    p.add_argument("--half-width", type=float, dest="cluster_half_width")
    p.add_argument("--yaw-range", dest="yaw_range", help="lo,hi in degrees")
    p.add_argument("--in-noise", type=float, dest="in_noise")
    p.add_argument("--out-noise-slope", type=float, dest="out_noise_slope")
    p.add_argument("--score-sharpness", type=float, dest="score_sharpness")
    p.add_argument("--score-noise", type=float, dest="score_noise")
    p.add_argument("--occlusion-rate", type=float, dest="occlusion_rate")
    p.add_argument("--in-cluster-only", action="store_true", default=None,
                   dest="in_cluster_only")
    p.add_argument("--seed", type=int, dest="rng_seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", parents=[growth],
                       help="train a forest and calibrate gamma")
    p.add_argument("--data", required=True, help="directory from `gen`")
    p.add_argument("--out", required=True, help="forest file to write")
    p.add_argument("--method", choices=("rec", "class"), default="rec")
    p.add_argument("--val", type=float, default=None,
                   help="fraction held out for gamma calibration (default 0.2)")
    p.add_argument("--config", help="JSON file with training fields")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[scoring], help="write per-sample predictions")
    p.add_argument("--out", required=True, help="record file to write")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", parents=[scoring], help="score a forest against ground truth")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", parents=[growth],
                       help="cross-validated strategy comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="directory for report and curve files")
    p.add_argument("--strategies", help="comma list, default all five")
    p.add_argument("--folds", type=int, dest="fold_count")
    p.add_argument("--val", type=float, dest="validation_fraction")
    p.add_argument("--pose-noise", type=float, dest="pose_noise_deg")
    p.add_argument("--centers", dest="cluster_centers",
                   help="override cluster centers for the prior baselines")
    p.add_argument("--config", help="JSON file with comparison fields")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "verbose", False):
            logging.basicConfig(level=logging.INFO, format="%(message)s")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
