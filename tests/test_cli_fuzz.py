"""Command line fuzzing: `gen --config` with every generator field drawn,
`compare --config` with every comparison and training field drawn, the
`predict` and `eval` arguments, and `train` flags and `--config` fields.

Each field of the config document gets a valid value, or, for a drawn set
of at most two fields, a wrong JSON type, a non-finite number or an
out-of-range number.  The command must then exit 0, or exit 1 with a
single `error:` line; an exception escaping `main` would reach the user as
a traceback.  Sample and landmark counts stay small (at most 64 and 32)
or invalid, never large, so no example can ask for a huge allocation.  A
`compare` document with an invalid field must exit 1.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from recforest.cli import main
from recforest.metrics import STRATEGIES

NON_FINITE = [math.nan, math.inf, -math.inf]
TOO_LARGE = [2 ** 1100, -(2 ** 1100)]  # JSON integers too large for a float
WRONG_TYPE = st.sampled_from([None, True, "1", [], {}])


def _float_field(valid, out_of_range):
    return valid, st.sampled_from(NON_FINITE + TOO_LARGE + out_of_range)


CENTERS = st.lists(
    st.floats(-85.0, 85.0), min_size=1, max_size=5, unique=True
).map(sorted)

# field: (valid values, invalid values besides the wrong JSON types)
FIELDS = {
    "sample_count": (st.integers(1, 64), st.sampled_from([0, -3, 1.5, math.nan])),
    "landmark_count": (st.integers(4, 32), st.sampled_from([3, 0, -1, math.inf])),
    "cluster_centers": (CENTERS, st.sampled_from(
        [[], [math.nan], [-math.inf, 0.0], [0.0, math.inf], [10.0, 10.0],
         [20.0, -20.0], [-95.0, 0.0], [0.0, 90.0], [2 ** 1100]])),
    "cluster_half_width": _float_field(st.floats(0.5, 60.0), [0.0, -1.0]),
    "yaw_range": (st.sampled_from([[-90.0, 90.0], [-90, 90], [-1000.0, 1000.0]]),
                  st.sampled_from(
        [[-1e308, 1e308], [-math.inf, math.inf], [math.nan, 90.0],
         [-90.0, math.inf], [30.0, 30.0], [90.0, -90.0], [0.0],
         [-90.0, 0.0, 90.0], [-(2 ** 1100), 2 ** 1100]])),
    "in_noise": _float_field(st.floats(0.0, 0.1), [-0.1, 1e308]),
    "out_noise_slope": _float_field(st.floats(0.0, 0.01), [-0.001, 1e308]),
    "score_sharpness": _float_field(st.floats(0.5, 10.0), [0.0, -1.0, 1e308]),
    "score_noise": _float_field(st.floats(0.0, 0.2), [-0.1, 1e308]),
    "occlusion_rate": _float_field(st.floats(0.0, 0.9), [1.0, -0.1, 1.5]),
    "in_cluster_only": (st.booleans(), st.sampled_from([0, 1, "true", math.nan])),
    "rng_seed": (st.integers(-(2 ** 70), 2 ** 70),
                 st.sampled_from([1.5, math.nan, math.inf])),
}


@st.composite
def gen_documents(draw):
    bad = draw(st.sets(st.sampled_from(sorted(FIELDS)), max_size=2))
    doc = {}
    for name, (valid, invalid) in FIELDS.items():
        doc[name] = draw(WRONG_TYPE | invalid if name in bad else valid)
    return doc


VALID = {
    "sample_count": 8, "landmark_count": 6, "cluster_centers": [-40.0, 40.0],
    "cluster_half_width": 20.0, "yaw_range": [-90.0, 90.0], "in_noise": 0.02,
    "out_noise_slope": 0.001, "score_sharpness": 6.0, "score_noise": 0.08,
    "occlusion_rate": 0.05, "in_cluster_only": False, "rng_seed": 0,
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("gen-fuzz")


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(doc=gen_documents())
@example(doc=dict(VALID, yaw_range=[-1e308, 1e308]))
@example(doc=dict(VALID, yaw_range=[-math.inf, math.inf]))
@example(doc=dict(VALID, in_noise=2 ** 1100))
def test_gen_config_exits_cleanly(fuzz_dir, doc):
    path = fuzz_dir / "gen.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["gen", "--out", str(fuzz_dir / "data"), "--config", str(path)])
    if rc == 0:
        assert out.getvalue().startswith("M=%d " % doc["sample_count"])
        assert err.getvalue() == ""
    else:
        assert rc == 1
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

_WRONG_TYPES = [None, True, "1", [], {}]


def _field(valid, invalid, optional=False, is_list=False):
    """(valid values, invalid values): the given ones plus the wrong JSON
    types, without those the field accepts."""
    wrong = [v for v in _WRONG_TYPES
             if not (optional and v is None or is_list and v == [])]
    return valid, st.sampled_from(invalid + wrong)


# Every prior baseline needs centers, so each valid strategy list has one.
STRATEGY_LISTS = st.sets(st.sampled_from(
    [s for s in STRATEGIES if s != "noisy-prior"])).map(
    lambda rest: ["noisy-prior"] + sorted(rest))

COMPARE_FIELDS = {
    "strategies": _field(STRATEGY_LISTS, [[], ["oracle"], "rec-forest", [1]],
                         is_list=True),
    "fold_count": _field(st.just(2), [1, 0, -2, 2.0, math.nan, 41, 1000]),
    "validation_fraction": _field(
        st.floats(0.1, 0.5), [0.0, 1.0, -0.5] + NON_FINITE + TOO_LARGE),
    "pose_noise_deg": _field(st.floats(0.0, 40.0), [-1.0] + NON_FINITE + TOO_LARGE),
    "cluster_centers": _field(
        st.lists(st.floats(-85.0, 85.0), min_size=5, max_size=5),
        [[math.nan, 0.0, 10.0, 20.0, 30.0], [-30.0, 0.0, math.inf, 20.0, 30.0],
         [-math.inf] * 5, [0.0, 10.0, 20.0], [2 ** 1100, 0.0, 10.0, 20.0, 30.0]],
        is_list=True),
    "rng_seed": _field(st.integers(-(2 ** 70), 2 ** 70), [1.5] + NON_FINITE),
}

TRAIN_FIELDS = {
    "tree_count": _field(st.just(1), [0, -1, 1.0, math.nan, math.inf]),
    "max_depth": _field(st.integers(0, 4), [-1, 2.5, math.nan]),
    "min_samples_per_leaf": _field(st.integers(1, 8), [0, -3, math.inf]),
    "candidate_feature_count": _field(st.none() | st.integers(1, 6),
                                      [0, -1, math.nan], optional=True),
    "candidate_threshold_count": _field(st.integers(1, 6), [0, -1, math.inf]),
    "min_gain": _field(st.floats(0.0, 0.1), [-1e-3, math.nan, -math.inf] + TOO_LARGE),
    "bootstrap_fraction": _field(
        st.floats(0.3, 1.0), [0.0, 1.5, -0.2] + NON_FINITE + TOO_LARGE),
    "rng_seed": _field(st.integers(0, 2 ** 32), [0.5, math.nan]),
}


FIELDS_AND_TRAIN = dict(COMPARE_FIELDS, **{"train." + name: values
                                           for name, values in TRAIN_FIELDS.items()})


@st.composite
def compare_documents(draw):
    """(document, whether any field is invalid).  A drawn "train" replaces
    the train object with a value that is not an object."""
    bad = draw(st.sets(st.sampled_from(sorted(FIELDS_AND_TRAIN) + ["train"]),
                       max_size=2))
    doc = {"train": {}}
    for name, (valid, invalid) in FIELDS_AND_TRAIN.items():
        value = draw(invalid if name in bad else valid)
        if name.startswith("train."):
            doc["train"][name[len("train."):]] = value
        else:
            doc[name] = value
    if "train" in bad:
        doc["train"] = draw(st.sampled_from([None, True, 1, "x", []]))
    return doc, bool(bad)


COMPARE_VALID = {
    "strategies": list(STRATEGIES), "fold_count": 2, "validation_fraction": 0.2,
    "pose_noise_deg": 25.0, "cluster_centers": [-60.0, -30.0, 0.0, 30.0, 60.0],
    "rng_seed": 0,
    "train": {"tree_count": 1, "max_depth": 3},
}


@pytest.fixture(scope="module")
def compare_data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("compare-fuzz") / "data")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--out", out, "--m", "40", "--n", "6", "--seed", "1"]) == 0
    return out


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(case=compare_documents())
@example(case=(dict(COMPARE_VALID, fold_count=41), True))
@example(case=(dict(COMPARE_VALID, fold_count=1000), True))
@example(case=(dict(COMPARE_VALID, fold_count=40), False))
@example(case=(dict(COMPARE_VALID, pose_noise_deg=math.nan), True))
@example(case=(dict(COMPARE_VALID, pose_noise_deg=math.inf), True))
@example(case=(dict(COMPARE_VALID, cluster_centers=[math.nan, 0.0, 10.0, 20.0, 30.0]),
               True))
def test_compare_config_exits_cleanly(compare_data, tmp_path_factory, case):
    doc, invalid = case
    path = tmp_path_factory.getbasetemp() / "compare.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["compare", "--data", compare_data, "--config", str(path)])
    if invalid:
        assert rc == 1
    if rc == 0:
        assert out.getvalue().startswith("strategy")
        assert err.getvalue() == ""
    else:
        assert rc == 1
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# predict / eval
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def predict_files(tmp_path_factory):
    """(directory, data directory, forest files): a rec and a class forest
    trained on the data, and a rec forest of another protocol."""
    root = tmp_path_factory.mktemp("predict-fuzz")
    data, other = str(root / "data"), str(root / "other")
    forests = {}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--out", data, "--m", "40", "--n", "6", "--seed", "1"]) == 0
        assert main(["gen", "--out", other, "--m", "20", "--n", "6",
                     "--centers=-30,30", "--seed", "2"]) == 0
        for name, source, method in (("rec", data, "rec"), ("class", data, "class"),
                                     ("foreign", other, "rec")):
            forests[name] = str(root / ("%s.json" % name))
            assert main(["train", "--data", source, "--out", forests[name],
                         "--method", method, "--trees", "2", "--max-depth", "3"]) == 0
    return root, data, forests


@st.composite
def predict_eval_cases(draw):
    """One `predict` or `eval` run: forest kind, a cut of the forest file to
    a drawn fraction of its bytes (None keeps it whole), and the values of
    --selector, --format (eval) and --out (None, a file, or a file in a
    missing directory).  "oracle" and "csv" are not valid choices."""
    command = draw(st.sampled_from(["predict", "eval"]))
    return dict(
        command=command,
        forest=draw(st.sampled_from(["rec", "class"] * 2 + ["foreign"])),
        cut=draw(st.floats(0.0, 1.0)) if draw(st.integers(0, 3)) == 0 else None,
        selector=draw(st.sampled_from([None, "top-vote", "posterior-rating", "oracle"])),
        format=draw(st.sampled_from([None, "table", "records", "csv"]))
        if command == "eval" else None,
        out=draw(st.sampled_from(["file", "file", "missing"]
                                 + [None, None] * (command == "eval"))),
    )


def _run_main(argv):
    """(exit code, stdout, stderr) of `main(argv)`; a SystemExit that
    escapes `main` gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=80, database=None, deadline=None)
@given(case=predict_eval_cases())
@example(case=dict(command="eval", forest="class", cut=None, selector="posterior-rating",
                   format="records", out="file"))
@example(case=dict(command="predict", forest="rec", cut=0.5, selector=None,
                   format=None, out="file"))
@example(case=dict(command="predict", forest="foreign", cut=None, selector=None,
                   format=None, out="file"))
@example(case=dict(command="eval", forest="rec", cut=None, selector=None,
                   format="table", out="missing"))
def test_predict_and_eval_exit_cleanly(predict_files, case):
    """Exit 0; or exit 1 with one `error:` line for a truncated forest file,
    a forest of another protocol, an --out in a missing directory or a
    value that is not a valid choice.  Never a traceback or a usage block."""
    root, data, forests = predict_files
    forest = forests[case["forest"]]
    broken = False
    if case["cut"] is not None:
        text = open(forest, "rb").read()
        kept = text[:int(case["cut"] * len(text))]
        broken = kept.rstrip() != text.rstrip()
        forest = str(root / "cut.json")
        with open(forest, "wb") as fh:
            fh.write(kept)
    out = {"file": str(root / "out.txt"), "missing": str(root / "missing" / "out.txt"),
           None: None}[case["out"]]
    argv = [case["command"], "--forest", forest, "--data", data]
    for flag, value in (("--selector", case["selector"]), ("--format", case["format"]),
                        ("--out", out)):
        if value is not None:
            argv += [flag, value]
    rc, stdout, stderr = _run_main(argv)
    assert "Traceback" not in stderr
    if case["selector"] == "oracle" or case["format"] == "csv":
        assert rc == 1
        assert stderr.startswith("error: argument ") and stderr.count("\n") == 1
        assert "usage:" not in stderr
    elif broken or case["forest"] == "foreign" or case["out"] == "missing":
        assert rc == 1
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        if case["out"] == "missing":
            assert stdout == ""
    else:
        assert rc == 0 and stderr == ""
        if case["command"] == "predict":
            assert json.loads(open(out).read())["sampleCount"] == 40
        elif case["format"] == "records":
            assert json.loads(stdout)["formatVersion"] == 1
        else:
            assert stdout.startswith("mean-error ")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

NOT_INT = ["1.5", "x", "nan", ""]
NOT_FLOAT = ["x", "1,5", ""]
NON_FINITE_TEXT = ["nan", "inf", "-inf", "1e400"]

# config field: (flag, valid values, invalid values, texts argparse rejects).
# Tree and candidate counts stay small when valid; a worker count is 1 or 2
# when valid, and never large.
TRAIN_FLAGS = {
    "tree_count": ("--trees", st.integers(1, 2), ["0", "-1"], NOT_INT),
    "max_depth": ("--max-depth", st.integers(0, 4) | st.just(10 ** 9), ["-1"], NOT_INT),
    "min_samples_per_leaf": ("--min-samples-leaf", st.integers(1, 8) | st.just(10 ** 9),
                             ["0", "-3"], NOT_INT),
    "candidate_feature_count": ("--candidate-features",
                                st.integers(1, 6) | st.just(1000), ["0", "-1"], NOT_INT),
    "candidate_threshold_count": ("--candidate-thresholds", st.integers(1, 6),
                                  ["0", "-1"], NOT_INT),
    "min_gain": ("--min-gain", st.floats(0.0, 0.1), ["-1e-3", "nan", "-inf"], NOT_FLOAT),
    "bootstrap_fraction": ("--bootstrap", st.floats(0.3, 1.0),
                           ["0", "1.5", "-0.2"] + NON_FINITE_TEXT, NOT_FLOAT),
    "val": ("--val", st.floats(0.1, 0.5), ["0", "1", "-0.5"] + NON_FINITE_TEXT, NOT_FLOAT),
    "rng_seed": ("--seed", st.integers(-(2 ** 70), 2 ** 70), [], NOT_INT),
    "method": ("--method", st.sampled_from(["rec", "class"]), [], ["oracle", "Rec"]),
    "workers": ("--workers", st.sampled_from([1, 2]), ["0", "-1"], NOT_INT),
}

TRAIN_CONFIG_FIELDS = dict(
    TRAIN_FIELDS,
    tree_count=_field(st.integers(1, 2), [0, -1, 1.0, math.nan, math.inf]),
    val=_field(st.floats(0.1, 0.5), [0.0, 1.0, -0.5] + NON_FINITE + TOO_LARGE),
)


@st.composite
def train_cases(draw):
    """(flags after `train --data --out`, config document or None, and the
    outcome: "ok" for valid values only, "error" when a value is invalid,
    "usage" when argparse must reject a flag's text).  Each flag and config
    field is present or absent; at most two of them are invalid.  A flag
    overrides its config field, so an invalid field's flag is left out."""
    bad = draw(st.sets(st.sampled_from(
        ["flag." + k for k in sorted(TRAIN_FLAGS)]
        + ["config." + k for k in sorted(TRAIN_CONFIG_FIELDS)]), max_size=2))
    doc, outcomes = {}, set()
    for name, (valid, invalid) in TRAIN_CONFIG_FIELDS.items():
        if "config." + name in bad:
            doc[name] = draw(invalid)
            outcomes.add("error")
        elif draw(st.booleans()):
            doc[name] = draw(valid)
    argv = []
    for name, (flag, valid, invalid, rejected) in TRAIN_FLAGS.items():
        if "config." + name in bad:
            continue
        if "flag." + name in bad:
            outcome = draw(st.sampled_from(["error"] * bool(invalid) + ["usage"]))
            outcomes.add(outcome)
            value = draw(st.sampled_from(invalid if outcome == "error" else rejected))
        elif draw(st.booleans()):
            value = draw(valid)
        else:
            continue
        argv.append("%s=%s" % (flag, value))
    if "tree_count" not in doc and not any(a.startswith("--trees=") for a in argv):
        argv.append("--trees=1")
    outcome = "usage" if "usage" in outcomes else "error" if outcomes else "ok"
    return argv, doc or None, outcome


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(case=train_cases())
@example(case=(["--trees=2", "--workers=2", "--bootstrap=0.5"], None, "ok"))
@example(case=(["--trees=1", "--val=nan"], None, "error"))
@example(case=(["--trees=1", "--min-gain=nan"], None, "error"))
@example(case=(["--bootstrap=inf"], {"tree_count": 1}, "error"))
@example(case=(["--trees=1"], {"val": math.inf}, "error"))
@example(case=(["--trees=1", "--method=class"], {"min_gain": math.nan}, "error"))
@example(case=(["--trees=nan"], None, "usage"))
@example(case=(["--trees=1", "--method=oracle"], None, "usage"))
def test_train_exits_cleanly(compare_data, tmp_path_factory, case):
    """Exit 0 for valid values; exit 1 with one `error:` line when a value
    is invalid or a flag's text is not of its type or not a valid choice.
    Never a traceback or a usage block."""
    argv, doc, expect = case
    root = tmp_path_factory.getbasetemp()
    forest = root / "train-fuzz.json"
    forest.unlink(missing_ok=True)
    if doc is not None:
        (root / "train.json").write_text(json.dumps(doc))
        argv = argv + ["--config", str(root / "train.json")]
    rc, stdout, stderr = _run_main(["train", "--data", compare_data,
                                    "--out", str(forest)] + argv)
    assert "Traceback" not in stderr
    if expect == "usage":
        assert rc == 1
        assert stderr.startswith("error: argument ") and stderr.count("\n") == 1
        assert "usage:" not in stderr
    elif expect == "error":
        assert rc == 1, stdout
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
    else:
        assert rc == 0 and stderr == "", stderr
        assert stdout.startswith("method=")
        assert json.loads(forest.read_text())["formatVersion"] == 1
