#!/usr/bin/env bash
# Byte-identity check of the command line against another revision.
#
#   scripts/byte_identity.sh REV [WORKDIR]
#
# Exports `src/` at REV with `git archive` (the repository itself is left
# untouched), runs the same commands once with that library and once with
# this working tree's `src/`, each into its own output tree, and compares
# the two trees with `diff -r`.  Every file a command writes and every
# command's stdout is compared.  Exits 0 when nothing differs, 1 otherwise.
# WORKDIR defaults to a new temporary directory and is kept for inspection.
#
# Commands: gen (M=400, seed 5); gen of 257 samples in two clusters at
# -40/40 with yaw drawn only inside them (--in-cluster-only, seed 9), which
# crosses two edges of the generator's sample blocks; gen of 150 samples
# (seed 4) with a --config file that sets a float, a boolean and a tuple
# field (in_noise, in_cluster_only, cluster_centers); train rec and class at
# --workers 1 and 2; train rec with a --config file that sets min_gain and
# bootstrap_fraction; train rec with --val 0.35, and with a --config file
# that sets "val": 0.3, so the held-out fraction is read from both; predict
# with the rec forest and with the class forest under both selectors; eval
# of the same three in records (with --out) and table formats; predict and
# eval (records) with the rec forest on the M=400 dataset file re-written in
# a layout `save_dataset` never writes (indented, top-level keys reversed so
# the samples come before the header); predict
# and eval (records) with the rec forest on the M=400 dataset file re-written
# with `separators=(",", ":")`, one value a line and \r\n line breaks; predict
# and eval (records) with the rec forest under --selector posterior-rating,
# which a recommendation forest ignores; predict and eval (records) with the
# rec forest on the M=400 dataset file re-written as its version-1 document
# (one object of numbers per sample), so a version-1 file is shown to give
# the same outputs; predict and eval (records) with the rec forest on that
# version-1 document with sample 0's responses
# rounded to JSON integers and one invisible ground-truth pair `null`, so the
# loader converts those samples from their parsed lists; train class at
# --workers 2 on a copy of the M=400 data directory without metadata.json,
# so the class labels come from `derive_labels`' fallback and no metadata
# is read, then predict and eval (records) with that forest; compare
# with records, curve files and the table at --workers 1 and 2; compare with
# 4-tree forests on 60% bootstrap draws over 3 folds (a --config file) at
# --workers 3, so every fold maps its draws onto dataset rows; compare of
# only the noisy-prior and top-vote strategies at --workers 2, so no fold
# has a recommendation forest; compare with
# curve files on a 40-sample gen (seed 3) over 40 folds, leave-one-out, the
# most folds the sample count allows, at --workers 2.
#
# The version-1 documents are built by `v1_doc` below from a dataset file of
# either format version, so they match between a revision that writes
# version 1 and one that writes version 2; the dataset files `gen` writes,
# and their foreign, compact and no-metadata copies, differ between two such
# revisions.
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
echo '{"train": {"bootstrap_fraction": 0.6, "tree_count": 4}, "fold_count": 3}' \
    > "$work/compare-bootstrap.json"
echo '{"in_noise": 0.03, "in_cluster_only": true, "cluster_centers": [-40, 0.0, 40.5]}' \
    > "$work/gen-config.json"
echo '{"min_gain": 1e-6, "bootstrap_fraction": 0.7}' > "$work/train-config.json"
echo '{"val": 0.3}' > "$work/train-val.json"
v1_doc='import base64, json, sys
import numpy as np


def v1_doc(path):
    """The version-1 document of a dataset file of format version 1 or 2."""
    doc = json.load(open(path))
    if doc["formatVersion"] == 1:
        return doc
    counts = ("sampleCount", "modelCount", "landmarkCount", "featureCount")
    M, C, N, F = (doc[key] for key in counts)
    shapes = {"responses": (C, N, 2), "groundTruth": (N, 2), "visible": (N,),
              "features": (F,), "normalizer": ()}
    columns = {key: np.concatenate([np.zeros((0,) + shape)] + [
        np.frombuffer(base64.b64decode(block[key]), "u1" if key == "visible" else "<f8")
        .reshape((-1,) + shape) for block in doc["blocks"]]).tolist()
        for key, shape in shapes.items()}
    columns["visibilitySet"] = [[n for n in range(N) if row[n]] for row in columns.pop("visible")]
    keys = ("responses", "groundTruth", "visibilitySet", "features", "normalizer")
    out = {"formatVersion": 1, **{key: doc[key] for key in counts + ("masks",)}}
    out["samples"] = [dict(zip(keys, values)) for values in zip(*(columns[k] for k in keys))]
    return out
'

run_all() {  # run_all SRC_DIR OUT_DIR
    local src=$1 out=$2 w sel
    rm -rf "$out"
    mkdir -p "$out"
    cli() { PYTHONPATH="$src" python3 -m recforest.cli "$@"; }
    cli gen --out "$out/data" --m 400 --seed 5 > "$out/gen.txt"
    cli gen --out "$out/data-in-cluster" --m 257 --in-cluster-only \
        --centers=-40,40 --seed 9 > "$out/gen-in-cluster.txt"
    cli gen --out "$out/data-config" --m 150 --config "$work/gen-config.json" \
        --seed 4 > "$out/gen-config.txt"
    for w in 1 2; do
        cli train --data "$out/data" --out "$out/rec-w$w.json" \
            --workers "$w" > "$out/train-rec-w$w.txt"
        cli train --data "$out/data" --out "$out/class-w$w.json" \
            --method class --workers "$w" > "$out/train-class-w$w.txt"
    done
    cli train --data "$out/data" --out "$out/rec-config.json" \
        --config "$work/train-config.json" > "$out/train-rec-config.txt"
    cli train --data "$out/data" --out "$out/rec-val-flag.json" \
        --val 0.35 > "$out/train-rec-val-flag.txt"
    cli train --data "$out/data" --out "$out/rec-val-config.json" \
        --config "$work/train-val.json" > "$out/train-rec-val-config.txt"
    cli predict --forest "$out/rec-w1.json" --data "$out/data" \
        --out "$out/predict-rec.json" > /dev/null
    cli eval --forest "$out/rec-w1.json" --data "$out/data" \
        --format records --out "$out/eval-rec.json" > "$out/eval-rec.txt"
    cli eval --forest "$out/rec-w1.json" --data "$out/data" \
        > "$out/eval-rec-table.txt"
    mkdir -p "$out/data-foreign"
    python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
json.dump(dict(reversed(doc.items())), open(sys.argv[2], "w"), indent=2)' \
        "$out/data/dataset.json" "$out/data-foreign/dataset.json"
    cli predict --forest "$out/rec-w1.json" --data "$out/data-foreign" \
        --out "$out/predict-rec-foreign.json" > /dev/null
    cli eval --forest "$out/rec-w1.json" --data "$out/data-foreign" \
        --format records --out "$out/eval-rec-foreign.json" > "$out/eval-rec-foreign.txt"
    mkdir -p "$out/data-compact"
    python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
json.dump(doc, open(sys.argv[2], "w", newline="\r\n"), indent=1, separators=(",", ":"))' \
        "$out/data/dataset.json" "$out/data-compact/dataset.json"
    cli predict --forest "$out/rec-w1.json" --data "$out/data-compact" \
        --out "$out/predict-rec-compact.json" > /dev/null
    cli eval --forest "$out/rec-w1.json" --data "$out/data-compact" \
        --format records --out "$out/eval-rec-compact.json" > "$out/eval-rec-compact.txt"
    mkdir -p "$out/data-v1"
    python3 -c "$v1_doc
json.dump(v1_doc(sys.argv[1]), open(sys.argv[2], 'w'))" \
        "$out/data/dataset.json" "$out/data-v1/dataset.json"
    cli predict --forest "$out/rec-w1.json" --data "$out/data-v1" \
        --out "$out/predict-rec-v1.json" > /dev/null
    cli eval --forest "$out/rec-w1.json" --data "$out/data-v1" \
        --format records --out "$out/eval-rec-v1.json" > "$out/eval-rec-v1.txt"
    mkdir -p "$out/data-unpacked"
    python3 -c "$v1_doc"'
doc = v1_doc(sys.argv[1])
first = doc["samples"][0]
first["responses"] = [[[round(v) for v in pair] for pair in rows] for rows in first["responses"]]
sample = next(s for s in doc["samples"] if len(s["visibilitySet"]) < doc["landmarkCount"])
hidden = min(set(range(doc["landmarkCount"])) - set(sample["visibilitySet"]))
sample["groundTruth"][hidden] = [None, None]
json.dump(doc, open(sys.argv[2], "w"))' \
        "$out/data/dataset.json" "$out/data-unpacked/dataset.json"
    cli predict --forest "$out/rec-w1.json" --data "$out/data-unpacked" \
        --out "$out/predict-rec-unpacked.json" > /dev/null
    cli eval --forest "$out/rec-w1.json" --data "$out/data-unpacked" \
        --format records --out "$out/eval-rec-unpacked.json" > "$out/eval-rec-unpacked.txt"
    mkdir -p "$out/data-nometa"
    cp "$out/data/dataset.json" "$out/data-nometa/dataset.json"
    cli train --data "$out/data-nometa" --out "$out/class-nometa.json" \
        --method class --workers 2 > "$out/train-class-nometa.txt"
    cli predict --forest "$out/class-nometa.json" --data "$out/data-nometa" \
        --out "$out/predict-class-nometa.json" > /dev/null
    cli eval --forest "$out/class-nometa.json" --data "$out/data-nometa" \
        --format records --out "$out/eval-class-nometa.json" > "$out/eval-class-nometa.txt"
    cli predict --forest "$out/rec-w1.json" --data "$out/data" \
        --selector posterior-rating --out "$out/predict-rec-selector.json" > /dev/null
    cli eval --forest "$out/rec-w1.json" --data "$out/data" \
        --selector posterior-rating --format records \
        --out "$out/eval-rec-selector.json" > "$out/eval-rec-selector.txt"
    for sel in top-vote posterior-rating; do
        cli predict --forest "$out/class-w1.json" --data "$out/data" \
            --selector "$sel" --out "$out/predict-class-$sel.json" > /dev/null
        cli eval --forest "$out/class-w1.json" --data "$out/data" \
            --selector "$sel" --format records \
            --out "$out/eval-class-$sel.json" > "$out/eval-class-$sel.txt"
        cli eval --forest "$out/class-w1.json" --data "$out/data" \
            --selector "$sel" > "$out/eval-class-$sel-table.txt"
    done
    for w in 1 2; do
        cli compare --data "$out/data" --out "$out/compare-w$w" \
            --workers "$w" > "$out/compare-w$w.txt"
    done
    cli compare --data "$out/data" --out "$out/compare-bootstrap-w3" \
        --config "$work/compare-bootstrap.json" --workers 3 \
        > "$out/compare-bootstrap-w3.txt"
    cli compare --data "$out/data" --out "$out/compare-subset" \
        --strategies noisy-prior,top-vote --workers 2 > "$out/compare-subset.txt"
    cli gen --out "$out/data-loo" --m 40 --seed 3 > "$out/gen-loo.txt"
    cli compare --data "$out/data-loo" --folds 40 --out "$out/compare-loo" \
        --workers 2 > "$out/compare-loo.txt"
}

run_all "$work/base/src" "$work/base-out"
run_all "$repo/src" "$work/head-out"
if diff -r "$work/base-out" "$work/head-out"; then
    echo "byte identity: no difference between $rev and the working tree" \
         "($(find "$work/head-out" -type f | wc -l) files, in $work)"
else
    echo "byte identity: outputs differ from $rev (see $work)" >&2
    exit 1
fi
