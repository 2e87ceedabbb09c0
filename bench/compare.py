"""Summarise one set of benchmark results, or compare two sets.

    python3 bench/compare.py DIR          # spread of each metric in one set
    python3 bench/compare.py BASE HEAD    # HEAD's medians against BASE's

A set is a directory of result files as `bench/run.py` writes them to
`bench/runs/` (copy that directory aside to keep a set).  Spread is the
distance between the first and third quartile as a share of the median.
HEAD regresses on a metric when its median is worse than BASE's by more
than the bound in BENCHMARK.json; when either set spreads wider than the
bound the verdict is "unresolved".  The workloads' per-operation details
and the per-layer medians of traced runs are shown side by side, without a
verdict.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory):
    """{(workload, trace): {metric: [values]}} and failed shares."""
    values = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            record = json.load(fh)
        key = (record["workload"], record["trace"])
        for name, metric in {**record["metrics"], **record.get("details", {})}.items():
            values[key][name].append(metric["value"])
        failed[key].append(record["failed"] / record["attempted"])
    return values, failed


def spread(xs):
    if len(xs) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(xs, n=4)
    median = statistics.median(xs)
    return (q3 - q1) / abs(median) if median else float("inf")


def worse_share(base, head, better):
    """How much worse head is than base, as a share of base (negative: better)."""
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def main(argv):
    if len(argv) not in (1, 2):
        raise SystemExit(__doc__)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, base_failed = load_set(argv[0])
    head, head_failed = load_set(argv[1]) if len(argv) == 2 else (None, None)
    regressions = 0
    for key in sorted(base):
        workload, traced = key
        if traced:
            continue
        print("%s  (%d runs, failed share %s)" % (
            workload, len(base_failed[key]), sorted(set(base_failed[key]))))
        for name, xs in base[key].items():
            if name not in spec:  # a per-operation detail of the workload
                ys = head.get(key, {}).get(name) if head is not None else None
                print("  %-28s median %-12.6g spread %6.3f%s" % (
                    name, statistics.median(xs), spread(xs),
                    "  -> %.6g" % statistics.median(ys) if ys else ""))
                continue
            bound = spec[name]["bound"]
            if head is None:
                s = spread(xs)
                print("  %-28s median %-12.6g spread %6.3f  bound %.3f%s" % (
                    name, statistics.median(xs), s, bound,
                    "  WIDE" if s > bound else ""))
                continue
            ys = head.get(key, {}).get(name)
            if not ys:
                print("  %-28s missing in %s" % (name, argv[1]))
                continue
            change = worse_share(statistics.median(xs), statistics.median(ys),
                                 spec[name]["better"])
            if max(spread(xs), spread(ys)) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print("  %-28s %-12.6g -> %-12.6g worse by %+7.3f  bound %.3f  %s" % (
                name, statistics.median(xs), statistics.median(ys), change, bound, verdict))
        if head is not None and sorted(set(base_failed[key])) != sorted(set(head_failed[key])):
            print("  failed share differs: %s -> %s" % (
                sorted(set(base_failed[key])), sorted(set(head_failed[key]))))
            regressions += 1
    if head is not None:
        for key in sorted(k for k in base if k[1]):
            print("%s traced  (per-layer medians)" % key[0])
            for name, xs in base[key].items():
                ys = head.get(key, {}).get(name)
                print("  %-32s %-12.6g -> %s" % (
                    name, statistics.median(xs),
                    "%.6g" % statistics.median(ys) if ys else "missing"))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
