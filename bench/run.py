"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload train --seed 1 --seconds 15 --trace 0

With `--trace 0` the result holds the end-to-end metrics every workload
reports (`setup_s`, `peak_rss_mb`, `task_s`); with `--trace 1` it holds the
per-layer metrics of a traced run (see spans.py).
The library is imported from `src/` of this checkout, never from an
installed copy.  The result, with the failures and the environment, is also
written to `bench/runs/`, and a traced run writes its spans there too.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy loads, so the
# figures measure the program and not the thread scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
COMPARE_WORKERS = 2


def pool_workers():
    return min(COMPARE_WORKERS, len(os.sched_getaffinity(0)))


def import_library():
    """Import recforest from this checkout's sources; exit 1 without them."""
    package = SRC / "recforest"
    if not (package / "__init__.py").is_file():
        raise SystemExit("bench: no library sources at %s" % package)
    sys.path.insert(0, str(SRC))
    import recforest

    if Path(recforest.__file__).resolve().parent != package:
        raise SystemExit("bench: imported recforest from %s, not %s"
                         % (recforest.__file__, package))


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment():
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def set_up(workload, repeats, run):
    """Set the workload up `repeats` times; the median is `setup_s`."""
    for _ in range(repeats):
        run.timed("setup_s", workload.setup)
    return run.median("setup_s")


def run_rounds(workload, run, seconds):
    """Whole rounds until the next would pass `seconds`; at least one.
    Each round's timed operations add up to one `task_s` sample.  Returns
    the round count and the peak RSS after the first round: the resident
    set creeps up with every round, so a later reading would depend on how
    many rounds fit in the run."""
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    while rounds == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        run.round_s = 0.0
        workload.round(run)
        run.samples["task_s"].append(run.round_s)
        last = time.perf_counter() - began
        rounds += 1
        if rounds == 1:
            rss_mb = peak_rss_mb()
    return rounds, rss_mb


def measure(name, seed, seconds, sizes, workdir):
    from workloads import WORKLOADS, Run

    workload = WORKLOADS[name](sizes, seed, workdir, pool_workers())
    run = Run()
    setup_s = set_up(workload, sizes.setup_repeats, run)
    rounds, rss_mb = run_rounds(workload, run, seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "task_s": (run.median("task_s"), "s"),
    }
    details = {k: {"value": v, "unit": u} for k, (v, u) in workload.details(run).items()}
    return run, rounds, metrics, {"details": details}


def measure_traced(name, seed, seconds, sizes, workdir):
    """Traced rounds alternate with untraced ones; the difference of their
    median wall times is the tracing overhead.  Training runs in one
    process, since a forked pool's spans would be lost."""
    from spans import LAYER_METRICS, Tracer, installed, layer_metrics
    from workloads import WORKLOADS, Run

    tracer = Tracer(pool_workers=pool_workers() if name == "compare" else 1)
    workload = WORKLOADS[name](sizes, seed, workdir, 1)
    run = Run(tracer)
    with installed(tracer):
        set_up(workload, sizes.setup_repeats, run)
    tracer.phase = "round"
    walls = {True: [], False: []}
    start = time.perf_counter()
    while True:
        for traced in (True, False):
            began = time.perf_counter()
            with installed(tracer) if traced else nullcontext():
                workload.round(run)
            walls[traced].append(time.perf_counter() - began)
        pair = walls[True][-1] + walls[False][-1]
        if time.perf_counter() - start + pair > seconds:
            break
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    tracer.missing = sorted(set(tracer.missing))
    values, missing = layer_metrics(tracer, len(walls[True]), overhead)
    metrics = {key: (values[key], unit) for key, (unit, _) in LAYER_METRICS.items()}
    spans_path = RUNS / ("%s-seed%d.spans.jsonl" % (name, seed))
    tracer.write(spans_path)
    extra = {"missing": missing, "missing_hooks": tracer.missing,
             "spans_file": spans_path.name}
    return run, len(walls[True]), metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS, Sizes

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RUNS)
    try:
        go = measure_traced if args.trace else measure
        run, rounds, metrics, extra = go(args.workload, args.seed, args.seconds,
                                         Sizes(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, rounds=rounds, failures=run.failures,
                  samples={k: v for k, v in run.samples.items() if len(v) <= 100},
                  environment=environment(), **extra)
    suffix = "-trace" if args.trace else ""
    with open(RUNS / ("%s-seed%d%s.json" % (args.workload, args.seed, suffix)), "w") as fh:
        json.dump(record, fh, indent=1)
    for failure in run.failures:
        print("failed: %s" % failure, file=sys.stderr)
    if extra.get("missing"):
        print("missing per-layer metrics (hook target gone): %s"
              % ", ".join(extra["missing"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
