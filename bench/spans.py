"""Span tracing of the library from outside it, and the per-layer metrics.

The traced run wraps library functions by replacing every reference to
them in the loaded `recforest` modules, so no tracing code lives in `src/`.
Each wrapped call records one span (name, start, end, parent, phase) in
memory; counters record work done at the same boundaries.  A hook whose
target no longer exists is listed as missing and its metrics read 0.
"""

import json
import os
import pickle
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase")

    def __init__(self, name, start, end, parent, phase):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.phase = phase

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Per span: its duration minus the part of it its child spans cover.

    `parent` is an index into `spans` (or None).  Children may overlap one
    another, so the covered part is the union of their clipped intervals.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach, span.start), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


class Tracer:
    """In-memory spans and counters; `phase` tags what they belong to."""

    def __init__(self, pool_workers=1):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.missing = []
        self.phase = "setup"
        self.active = True
        # worker count of the untraced run, for the computed pool traffic
        self.pool_workers = pool_workers
        self._stack = []

    def count(self, key, amount=1):
        self.counts[self.phase][key] += amount

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not traced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, fn, name, after=None):
        """Wrapper recording a span named `name` (or `name(args)` when it is
        callable, None for no span) and calling `after(tracer, args, kwargs,
        result)` for counters."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            if label is None:
                result = fn(*args, **kwargs)
            else:
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                span = Span(label, time.perf_counter(), None, parent, tracer.phase)
                tracer.spans.append(span)
                tracer._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    tracer._stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Write the spans as JSON lines: name, phase, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.phase, span.start,
                                     span.end, span.parent]) + "\n")


# ---------------------------------------------------------------------------
# Hooks: (module, attribute path, span name, counter callback)
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _after_solve(tracer, args, kwargs, result):
    _, iterations, converged = result
    tracer.count("simplex.rows", int(_arg(args, kwargs, 1, "h").shape[0]))
    tracer.count("simplex.iterations", int(iterations.sum()))
    tracer.count("simplex.unconverged_rows", int((~converged).sum()))


def _after_fallback(tracer, args, kwargs, result):
    tracer.count("simplex.fallback_rows", int(_arg(args, kwargs, 0, "G").shape[0]))


def _after_mask_stats(tracer, args, kwargs, result):
    tracer.count("forest.mask_stats_candidates",
                 int(_arg(args, kwargs, 2, "masks").shape[0]))


def _after_train_forest(tracer, args, kwargs, forest):
    """Tree shape, walked through the public Split/Leaf node types."""
    from recforest import forest as module

    for root in forest.trees:
        stack = [(root, 0)]
        while stack:
            node, depth = stack.pop()
            tracer.count("forest.nodes")
            if isinstance(node, module.Split):
                stack.append((node.left, depth + 1))
                stack.append((node.right, depth + 1))
            else:
                tracer.count("forest.leaves")
                deepest = tracer.counts[tracer.phase]["forest.max_depth"]
                tracer.counts[tracer.phase]["forest.max_depth"] = max(deepest, depth)


def _after_tree_tasks(tracer, args, kwargs, result):
    """Tasks and pickled argument bytes a pool of `pool_workers` would get.

    Computed, since the traced run trains in one process: a forked pool
    would lose the workers' spans.
    """
    if tracer.pool_workers <= 1:
        return
    task, data, config = args[0], args[1], args[2]
    one = len(pickle.dumps((task, data, config, 0)))
    tracer.count("forest.pool_tasks", config.tree_count)
    tracer.count("forest.task_bytes", one * config.tree_count)


def _file_bytes(key, pos, name):
    def after(tracer, args, kwargs, result):
        tracer.count(key, os.path.getsize(_arg(args, kwargs, pos, name)))
    return after


def _after_generate(tracer, args, kwargs, result):
    tracer.count("synth.samples", result[0].sample_count)


def _grow_name(args):
    from recforest import forest as module

    return "forest.grow" if isinstance(args[0], module._RecCriterion) else "classforest.grow"


HOOKS = [
    ("simplex", "solve_gram_batch", "simplex.solve", _after_solve),
    ("simplex", "_pgd_batch", None, _after_fallback),
    ("forest", "_RecCriterion.__init__", "forest.criterion_build", None),
    ("forest", "_RecCriterion.mask_stats", "forest.mask_stats", _after_mask_stats),
    ("forest", "_RecCriterion.fit_batch", "forest.fit_batch", None),
    ("forest", "_grow_tree", _grow_name, None),
    ("forest", "train_forest", "forest.train", _after_train_forest),
    ("forest", "_run_tree_tasks", None, _after_tree_tasks),
    ("forest", "_route_payloads", "forest.route", None),
    ("forest", "aggregate_rating", "forest.aggregate", None),
    ("forest", "blend_prediction", "forest.blend", None),
    ("forest", "predict", "forest.predict", None),
    ("forest", "accuracy_maximizing_threshold", "metrics.threshold", None),
    ("classforest", "_ClassCriterion.mask_stats", "classforest.mask_stats", None),
    ("classforest", "_ClassCriterion.fit_batch", "classforest.fit_batch", None),
    ("classforest", "predict_top_vote_many", "classforest.top_vote", None),
    ("classforest", "predict_posterior_rating_many", "classforest.posterior_rating", None),
    ("metrics", "sample_error", "metrics.sample_error", None),
    ("metrics", "visibility_scores", "metrics.visibility_scores", None),
    ("metrics", "run_comparison", "metrics.compare", None),
    ("data", "save_dataset", "data.save_dataset", _file_bytes("data.dataset_bytes", 1, "path")),
    ("data", "load_dataset", "data.load_dataset", None),
    ("data", "ResponseDataset.subset", "data.subset", None),
    ("serialize", "save_forest", "serialize.save_forest",
     _file_bytes("serialize.forest_bytes", 1, "path")),
    ("serialize", "load_forest", "serialize.load_forest", None),
    ("synth", "generate", "synth.generate", _after_generate),
    ("cli", "cmd_predict", "cli.predict", None),
    ("cli", "cmd_eval", "cli.eval", None),
]


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "recforest" or name.startswith("recforest."))]


@contextmanager
def installed(tracer):
    """Wrap every hook target while the block runs, then restore them.

    A module-level function is replaced in every library module that holds
    a reference to it, since modules import one another's names.
    """
    import recforest.cli  # noqa: F401  (the package loads every other submodule)

    undo = []
    try:
        for module_name, path, name, after in HOOKS:
            module = sys.modules.get("recforest." + module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                tracer.missing.append("%s.%s" % (module_name, path))
                continue
            wrapper = tracer.wrap(original, name, after)
            if owner_path:
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original))
                continue
            for mod in _library_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (unit, hook span/counter names it needs)
LAYER_METRICS = {
    "simplex.calls": ("count", ["simplex.solve"]),
    "simplex.rows": ("count", ["simplex.solve"]),
    "simplex.rows_per_call": ("count", ["simplex.solve"]),
    "simplex.iterations": ("count", ["simplex.solve"]),
    "simplex.fallback_rows": ("count", ["simplex._pgd_batch"]),
    "simplex.unconverged_rows": ("count", ["simplex.solve"]),
    "simplex.self_s": ("s", ["simplex.solve"]),
    "forest.criterion_builds": ("count", ["forest.criterion_build"]),
    "forest.criterion_build_s": ("s", ["forest.criterion_build"]),
    "forest.mask_stats_calls": ("count", ["forest.mask_stats"]),
    "forest.mask_stats_candidates": ("count", ["forest.mask_stats"]),
    "forest.mask_stats_s": ("s", ["forest.mask_stats"]),
    "forest.fit_batch_self_s": ("s", ["forest.fit_batch"]),
    "forest.grow_self_s": ("s", ["forest.grow"]),
    "forest.nodes": ("count", ["forest.train"]),
    "forest.leaves": ("count", ["forest.train"]),
    "forest.max_depth": ("count", ["forest.train"]),
    "forest.pool_tasks": ("count", ["forest._run_tree_tasks"]),
    "forest.task_bytes": ("B", ["forest._run_tree_tasks"]),
    "forest.route_calls": ("count", ["forest.route"]),
    "forest.route_s": ("s", ["forest.route"]),
    "forest.aggregate_self_s": ("s", ["forest.aggregate"]),
    "forest.blend_s": ("s", ["forest.blend"]),
    "forest.predict_overhead_us": ("us", ["forest.predict"]),
    "classforest.mask_stats_s": ("s", ["classforest.mask_stats"]),
    "classforest.fit_batch_s": ("s", ["classforest.fit_batch"]),
    "classforest.top_vote_s": ("s", ["classforest.top_vote"]),
    "classforest.posterior_rating_s": ("s", ["classforest.posterior_rating"]),
    "metrics.sample_error_calls": ("count", ["metrics.sample_error"]),
    "metrics.sample_error_s": ("s", ["metrics.sample_error"]),
    "metrics.threshold_s": ("s", ["metrics.threshold"]),
    "metrics.visibility_scores_s": ("s", ["metrics.visibility_scores"]),
    "metrics.compare_self_s": ("s", ["metrics.compare"]),
    "data.save_dataset_s": ("s", ["data.save_dataset"]),
    "data.load_dataset_s": ("s", ["data.load_dataset"]),
    "data.dataset_bytes": ("B", ["data.save_dataset"]),
    "data.subset_s": ("s", ["data.subset"]),
    "serialize.save_forest_s": ("s", ["serialize.save_forest"]),
    "serialize.load_forest_s": ("s", ["serialize.load_forest"]),
    "serialize.forest_bytes": ("B", ["serialize.save_forest"]),
    "synth.generate_s": ("s", ["synth.generate"]),
    "synth.samples_per_s": ("1/s", ["synth.generate"]),
    "cli.predict_write_s": ("s", ["cli.predict"]),
    "cli.eval_self_s": ("s", ["cli.eval"]),
    "trace.overhead_s": ("s", []),
    "trace.spans": ("count", []),
}

# span name -> the hook target it comes from
_HOOK_OF_SPAN = {
    name: "%s.%s" % (module, path)
    for module, path, name, _ in HOOKS if isinstance(name, str)
}
_HOOK_OF_SPAN["forest.grow"] = "forest._grow_tree"


def layer_metrics(tracer, rounds, overhead_s):
    """Per-layer values from the spans and counters of the traced rounds.

    Work and time are per round (the same operations every round) except
    `synth.*`, which is per `generate` call over the set-up too, and
    `forest.predict_overhead_us`, per single-sample `predict` call.
    Returns (metrics, names of metrics whose hook is missing).
    """
    selfs = self_times(tracer.spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    for span, self_s in zip(tracer.spans, selfs):
        if span.phase == "round":
            total[span.name] += span.duration
            own[span.name] += self_s
            calls[span.name] += 1
    counts = tracer.counts["round"]
    gen_s = sum(s.duration for s in tracer.spans if s.name == "synth.generate")
    gen_calls = sum(1 for s in tracer.spans if s.name == "synth.generate")
    gen_samples = sum(c["synth.samples"] for c in tracer.counts.values())
    per = 1.0 / max(rounds, 1)
    solve_calls = calls["simplex.solve"]
    values = {
        "simplex.calls": solve_calls * per,
        "simplex.rows": counts["simplex.rows"] * per,
        "simplex.rows_per_call": counts["simplex.rows"] / solve_calls if solve_calls else 0.0,
        "simplex.iterations": counts["simplex.iterations"] * per,
        "simplex.fallback_rows": counts["simplex.fallback_rows"] * per,
        "simplex.unconverged_rows": counts["simplex.unconverged_rows"] * per,
        "simplex.self_s": own["simplex.solve"] * per,
        "forest.criterion_builds": calls["forest.criterion_build"] * per,
        "forest.criterion_build_s": total["forest.criterion_build"] * per,
        "forest.mask_stats_calls": calls["forest.mask_stats"] * per,
        "forest.mask_stats_candidates": counts["forest.mask_stats_candidates"] * per,
        "forest.mask_stats_s": total["forest.mask_stats"] * per,
        "forest.fit_batch_self_s": own["forest.fit_batch"] * per,
        "forest.grow_self_s": own["forest.grow"] * per,
        "forest.nodes": counts["forest.nodes"] * per,
        "forest.leaves": counts["forest.leaves"] * per,
        "forest.max_depth": counts["forest.max_depth"],
        "forest.pool_tasks": counts["forest.pool_tasks"] * per,
        "forest.task_bytes": counts["forest.task_bytes"] * per,
        "forest.route_calls": calls["forest.route"] * per,
        "forest.route_s": total["forest.route"] * per,
        "forest.aggregate_self_s": own["forest.aggregate"] * per,
        "forest.blend_s": total["forest.blend"] * per,
        "forest.predict_overhead_us": (
            1e6 * own["forest.predict"] / calls["forest.predict"]
            if calls["forest.predict"] else 0.0
        ),
        "classforest.mask_stats_s": total["classforest.mask_stats"] * per,
        "classforest.fit_batch_s": total["classforest.fit_batch"] * per,
        "classforest.top_vote_s": total["classforest.top_vote"] * per,
        "classforest.posterior_rating_s": total["classforest.posterior_rating"] * per,
        "metrics.sample_error_calls": calls["metrics.sample_error"] * per,
        "metrics.sample_error_s": total["metrics.sample_error"] * per,
        "metrics.threshold_s": total["metrics.threshold"] * per,
        "metrics.visibility_scores_s": total["metrics.visibility_scores"] * per,
        "metrics.compare_self_s": own["metrics.compare"] * per,
        "data.save_dataset_s": total["data.save_dataset"] * per,
        "data.load_dataset_s": total["data.load_dataset"] * per,
        "data.dataset_bytes": counts["data.dataset_bytes"] * per,
        "data.subset_s": total["data.subset"] * per,
        "serialize.save_forest_s": total["serialize.save_forest"] * per,
        "serialize.load_forest_s": total["serialize.load_forest"] * per,
        "serialize.forest_bytes": counts["serialize.forest_bytes"] * per,
        "synth.generate_s": gen_s / gen_calls if gen_calls else 0.0,
        "synth.samples_per_s": gen_samples / gen_s if gen_s > 0 else 0.0,
        "cli.predict_write_s": own["cli.predict"] * per,
        "cli.eval_self_s": own["cli.eval"] * per,
        "trace.overhead_s": overhead_s,
        "trace.spans": sum(calls.values()) * per,
    }
    missing_hooks = set(tracer.missing)
    missing = sorted(
        name for name, (_, needs) in LAYER_METRICS.items()
        if any(_HOOK_OF_SPAN.get(n, n) in missing_hooks for n in needs)
    )
    for name in missing:
        values[name] = 0.0
    return values, missing
