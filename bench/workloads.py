"""The four workloads: set-up, one round of operations, and their checks.

Every input comes from the library's generator on preset
`aflw-like-5view` (M=2000, C=5, N=12, F=46), seeded from the workload seed:
training data from `2*seed`, held-out data from `2*seed + 1`, forests from
`seed`.  A round runs the same operations every time, so the share of
failed operations does not depend on how many rounds fit in a run.  Each
workload's `details` are the medians of its single operations, kept in the
run's record beside the end-to-end metrics.
"""

import hashlib
import io
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import recforest as rf
from recforest import cli

from checks import (
    check_beats_experts,
    check_blend,
    check_ced,
    check_top_vote,
    expert_errors,
    mean_error,
    require,
)

PRESET = "aflw-like-5view"
CLASS_TRAININGS_PER_ROUND = 3


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the tests shrink them, the benchmark uses these."""

    samples: int = 2000
    trees: int = 10
    cli_trees: int = 3
    folds: int = 5
    setup_repeats: int = 5


class Run:
    """Operations attempted and failed, and timing samples, of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = defaultdict(list)
        self.round_s = 0.0

    def op(self, label, fn, *args):
        """One operation: it fails if it raises or a check rejects its output."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # counted as a failed operation; the run goes on
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append("%s: %s: %s" % (label, type(exc).__name__, exc))
            return None

    def timed(self, metric, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.samples[metric].append(elapsed)
        self.round_s += elapsed
        return out

    def checking(self):
        """Context for the benchmark's own checks: never traced."""
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def median(self, metric):
        return statistics.median(self.samples[metric])


def _generate(sizes, seed):
    return rf.generate(rf.preset_config(PRESET, sample_count=sizes.samples, rng_seed=seed))


def _same_every_round(store, key, arrays):
    """A fixed seed must give bit-identical outputs in every round."""
    first = store.setdefault(key, arrays)
    require(all(np.array_equal(a, b) for a, b in zip(first, arrays)),
            "%s output differs from the first round's" % key)


class Train:
    """Train a recommendation and a classification forest in one process."""

    def __init__(self, sizes, seed, workdir, workers):
        self.sizes, self.seed = sizes, seed
        self.first = {}

    def setup(self):
        self.data, meta = _generate(self.sizes, 2 * self.seed)
        self.heldout, _ = _generate(self.sizes, 2 * self.seed + 1)
        self.labels = rf.metadata_arrays(meta)[1]
        self.config = rf.RecTrainConfig(tree_count=self.sizes.trees, rng_seed=self.seed)

    def round(self, run):
        run.op("train_rec", self._train_rec, run)
        # the class forest trains ten times faster; more samples of it per
        # round steady its median
        for _ in range(CLASS_TRAININGS_PER_ROUND):
            run.op("train_class", self._train_class, run)

    def _train_rec(self, run):
        forest = run.timed("train_rec_s", rf.train_forest, self.data, self.config)
        with run.checking():
            h = self.heldout
            out = rf.predict_many(forest, h.responses, h.features)
            check_blend(*out, h.responses, h.features, h.protocol.masks, forest.gamma)
            check_beats_experts(out[0], h)
            _same_every_round(self.first, "recommendation forest", out)

    def _train_class(self, run):
        forest = run.timed("train_class_s", rf.train_class_forest,
                           self.data, self.labels, self.config)
        with run.checking():
            h = self.heldout
            top = rf.predict_top_vote_many(forest, h.responses, h.features)
            check_top_vote(top[0], h.responses)
            post = rf.predict_posterior_rating_many(forest, h.responses, h.features)
            check_blend(*post, h.responses, h.features, h.protocol.masks, forest.gamma)
            _same_every_round(self.first, "classification forest", top + post)

    def details(self, run):
        return {
            "train_rec_s": (run.median("train_rec_s"), "s"),
            "train_class_s": (run.median("train_class_s"), "s"),
        }


class Serve:
    """Load a saved forest and answer held-out faces, singly and in batch."""

    def __init__(self, sizes, seed, workdir, workers):
        self.sizes, self.seed = sizes, seed
        self.path = os.path.join(workdir, "forest.json")

    def setup(self):
        data, _ = _generate(self.sizes, 2 * self.seed)
        self.heldout, _ = _generate(self.sizes, 2 * self.seed + 1)
        config = rf.RecTrainConfig(tree_count=self.sizes.trees, rng_seed=self.seed)
        forest = rf.train_forest(data, config)
        rf.save_forest(forest, self.path)
        self.reference = rf.predict_many(forest, self.heldout.responses, self.heldout.features)

    def round(self, run):
        h = self.heldout
        forest = run.op("load", self._load, run)
        run.op("predict_batch", self._batch, run, forest)
        for m in range(h.sample_count):
            run.op("predict_single", self._single, run, forest, m)

    def _load(self, run):
        forest = run.timed("forest_load_s", rf.load_forest, self.path)
        require(isinstance(forest, rf.RecForest), "loaded forest is not a recommendation forest")
        return forest

    def _batch(self, run, forest):
        h = self.heldout
        out = run.timed("predict_batch_s", rf.predict_many, forest, h.responses, h.features)
        with run.checking():
            require(all(np.array_equal(a, b) for a, b in zip(out, self.reference)),
                    "loaded forest predicts differently from the in-memory one")
            check_blend(*out, h.responses, h.features, h.protocol.masks, forest.gamma)
            check_beats_experts(out[0], h)

    def _single(self, run, forest, m):
        h = self.heldout
        p = run.timed("predict_single_s", rf.predict, forest, h.responses[m], h.features[m])
        landmarks, confidence, flags = self.reference
        require(np.array_equal(p.landmarks, landmarks[m])
                and np.array_equal(p.visibility_confidence, confidence[m])
                and np.array_equal(p.visibility_flag, flags[m]),
                "single predict differs from predict_many row %d" % m)

    def details(self, run):
        singles = np.asarray(run.samples["predict_single_s"])
        return {
            "forest_load_ms": (1e3 * run.median("forest_load_s"), "ms"),
            "predict_single_p50_us": (1e6 * float(np.percentile(singles, 50)), "us"),
            "predict_single_p99_us": (1e6 * float(np.percentile(singles, 99)), "us"),
            "predict_batch_samples_per_s": (
                self.heldout.sample_count / run.median("predict_batch_s"), "samples/s"),
        }


class Compare:
    """The cross-validated five-strategy comparison over a process pool."""

    def __init__(self, sizes, seed, workdir, workers):
        self.sizes, self.seed, self.workers = sizes, seed, workers
        self.first = {}

    def setup(self):
        self.data, meta = _generate(self.sizes, 2 * self.seed)
        self.yaw, self.cluster_id = rf.metadata_arrays(meta)
        self.centers = rf.preset_config(PRESET).cluster_centers
        self.config = rf.CompareConfig(
            fold_count=self.sizes.folds,
            cluster_centers=self.centers,
            rng_seed=self.seed,
            train=rf.RecTrainConfig(tree_count=self.sizes.trees, rng_seed=self.seed),
        )

    def round(self, run):
        run.op("compare", self._compare, run)

    def _compare(self, run):
        reports = run.timed("compare_s", rf.run_comparison, self.data, self.yaw,
                            self.cluster_id, self.config, workers=self.workers)
        d = self.data
        errors = {name: r.mean_error for name, r in reports.items()}
        frontal = int(np.argmin(np.abs(self.centers)))
        own = mean_error(d.responses[:, frontal], d.ground_truth, d.visible, d.normalizer)
        require(abs(errors["fixed-frontal"] - own) <= 1e-9 * own,
                "fixed-frontal mean error %r != %r from the raw responses"
                % (errors["fixed-frontal"], own))
        require(min(errors, key=errors.get) == "rec-forest",
                "rec-forest is not the most accurate strategy: %r" % errors)
        best = min(expert_errors(d.responses, d.ground_truth, d.visible, d.normalizer))
        require(errors["rec-forest"] < best, "rec-forest does not beat the best expert")
        for report in reports.values():
            check_ced(report.ced_curve)
        _same_every_round(self.first, "comparison",
                          [r.per_sample_errors for r in reports.values()])

    def details(self, run):
        return {"compare_s": (run.median("compare_s"), "s")}


class CliRoundtrip:
    """gen -> train -> predict -> eval through the command line, in-process."""

    def __init__(self, sizes, seed, workdir, workers):
        self.sizes, self.seed = sizes, seed
        self.gen_dir = os.path.join(workdir, "gen")
        self.heldout_dir = os.path.join(workdir, "heldout")
        self.forest = os.path.join(workdir, "forest.json")
        self.predictions = os.path.join(workdir, "predictions.json")
        self.report = os.path.join(workdir, "eval.json")
        self.digests = {}

    def setup(self):
        self.generated, _ = _generate(self.sizes, 2 * self.seed)
        self.heldout, _ = _generate(self.sizes, 2 * self.seed + 1)
        os.makedirs(self.heldout_dir, exist_ok=True)
        rf.save_dataset(self.heldout, os.path.join(self.heldout_dir, "dataset.json"))

    def round(self, run):
        run.op("cli_gen", self._command, run, "cli_gen_s",
               os.path.join(self.gen_dir, "dataset.json"), self._check_gen,
               "gen", "--out", self.gen_dir, "--m", self.sizes.samples,
               "--seed", 2 * self.seed)
        run.op("cli_train", self._command, run, "cli_train_s", self.forest, self._check_train,
               "train", "--data", self.gen_dir, "--out", self.forest,
               "--trees", self.sizes.cli_trees, "--seed", self.seed)
        run.op("cli_predict", self._command, run, "cli_predict_s", self.predictions,
               self._check_predict,
               "predict", "--forest", self.forest, "--data", self.heldout_dir,
               "--out", self.predictions)
        run.op("cli_eval", self._command, run, "cli_eval_s", self.report, self._check_eval,
               "eval", "--forest", self.forest, "--data", self.heldout_dir,
               "--format", "records", "--out", self.report)

    def _command(self, run, metric, output, check, *argv):
        """Run one command; check its output file fully the first time, and
        later require the same bytes, which a fixed seed reproduces."""
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run.timed(metric, cli.main, [str(a) for a in argv])
        require(code == 0, "recforest %s exited %r: %s" % (argv[0], code, err.getvalue()))
        with open(output, "rb") as fh:
            digest = hashlib.sha256(fh.read()).digest()
        if output not in self.digests:
            with run.checking():
                check()
            self.digests[output] = digest
        require(digest == self.digests[output],
                "%s differs from the first round's" % os.path.basename(output))

    def _check_gen(self):
        loaded = rf.load_dataset(os.path.join(self.gen_dir, "dataset.json"))
        g = self.generated
        require(np.array_equal(loaded.protocol.masks, g.protocol.masks)
                and np.array_equal(loaded.responses, g.responses)
                and np.array_equal(loaded.ground_truth, g.ground_truth, equal_nan=True)
                and np.array_equal(loaded.visible, g.visible)
                and np.array_equal(loaded.features, g.features)
                and np.array_equal(loaded.normalizer, g.normalizer),
                "generated dataset does not load back equal")

    def _check_train(self):
        with open(self.forest) as fh:
            doc = json.load(fh)
        require(doc["kind"] == "recommendation" and len(doc["trees"]) == self.sizes.cli_trees
                and 0.0 <= doc["gamma"] <= 1.0, "train wrote an unexpected forest")

    def _read_predictions(self):
        with open(self.predictions) as fh:
            samples = json.load(fh)["samples"]
        return (
            np.array([s["landmarks"] for s in samples], dtype=np.float64),
            np.array([s["confidences"] for s in samples], dtype=np.float64),
            np.array([s["flags"] for s in samples], dtype=bool),
        )

    def _check_predict(self):
        with open(self.forest) as fh:
            gamma = json.load(fh)["gamma"]
        h = self.heldout
        out = self._read_predictions()
        check_blend(*out, h.responses, h.features, h.protocol.masks, gamma)
        check_beats_experts(out[0], h)

    def _check_eval(self):
        with open(self.report) as fh:
            reported = json.load(fh)["meanError"]
        h = self.heldout
        own = mean_error(self._read_predictions()[0], h.ground_truth, h.visible, h.normalizer)
        require(abs(reported - own) <= 1e-9 * own,
                "eval meanError %r != %r from predictions.json" % (reported, own))

    def details(self, run):
        return {name: (run.median(name), "s")
                for name in ("cli_gen_s", "cli_train_s", "cli_predict_s", "cli_eval_s")}


WORKLOADS = {
    "train": Train,
    "serve": Serve,
    "compare": Compare,
    "cli-roundtrip": CliRoundtrip,
}
