#!/usr/bin/env bash
# How far a declared re-baseline moves the five-strategy comparison.
#
#   scripts/rebaseline_report.sh REV [WORKDIR]
#
# Exports `src/` at REV with `git archive` (the repository itself is left
# untouched), as scripts/byte_identity.sh does.  For each preset seed 0-4 it
# runs, once with that library and once with this working tree's `src/`:
#
#   gen --seed S, then compare --seed S --workers 2 --format records
#
# and prints, per seed and strategy, the mean error and the visibility AP
# under REV and under the working tree, with the difference (head - REV) and
# the relative difference |head - REV| / |REV|, then the same over the mean
# of the five seeds.  Always exits 0 once every command has run; the report
# states what moved.  WORKDIR defaults to a new temporary directory and is
# kept for inspection.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 REV [WORKDIR]" >&2
    exit 2
fi
rev=$1
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=${2:-$(mktemp -d)}
mkdir -p "$work/base"
git -C "$repo" archive "$rev" src | tar -x -C "$work/base"

run_all() {  # run_all SRC_DIR OUT_DIR
    local src=$1 out=$2 seed
    rm -rf "$out"
    mkdir -p "$out"
    for seed in 0 1 2 3 4; do
        PYTHONPATH="$src" python3 -m recforest.cli gen --out "$out/data-$seed" \
            --seed "$seed" > /dev/null
        PYTHONPATH="$src" python3 -m recforest.cli compare --data "$out/data-$seed" \
            --seed "$seed" --workers 2 --format records \
            --out "$out/compare-$seed" > /dev/null
    done
}

run_all "$work/base/src" "$work/base-out"
run_all "$repo/src" "$work/head-out"
python3 - "$rev" "$work/base-out" "$work/head-out" <<'EOF'
import json
import sys

rev, base, head = sys.argv[1:]
seeds = range(5)
fields = (("meanError", "mean error"), ("visibilityAP", "visibility AP"))


def strategies(root, seed):
    with open("%s/compare-%d/report.json" % (root, seed)) as f:
        return json.load(f)["strategies"]


runs = {seed: (strategies(base, seed), strategies(head, seed)) for seed in seeds}
names = sorted(runs[0][0])
for key, label in fields:
    print("%s, %s -> working tree" % (label, rev))
    print("%-6s %-17s %20s %20s %11s %9s" % ("seed", "strategy", rev, "working tree",
                                             "difference", "relative"))
    rows = [(str(seed), name, runs[seed][0][name][key], runs[seed][1][name][key])
            for name in names for seed in seeds]
    rows += [("mean", name,
              sum(runs[seed][0][name][key] for seed in seeds) / len(seeds),
              sum(runs[seed][1][name][key] for seed in seeds) / len(seeds))
             for name in names]
    for seed, name, old, new in rows:
        rel = abs(new - old) / abs(old) if old else float(new != old)
        print("%-6s %-17s %20.15f %20.15f %+11.2e %9.2e" % (seed, name, old, new, new - old, rel))
    print()
EOF
echo "rebaseline report: $rev against the working tree (outputs in $work)"
