import gzip
import io
import json
import os
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spinrbm.cli
import spinrbm.training
from conftest import (idx_image_bytes, random_model, read_pgm, resealed,
                      stats_at, synthetic_digits, with_config,
                      write_synthetic_idx)
from spinrbm.cli import OPTIONS, _openblas_thread_calls, build_parser, main
from spinrbm.data import DataStats
from spinrbm.model import GradientPair, RbmModel
from spinrbm.training import TrainConfig, load_checkpoint, save_checkpoint

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRAIN_FLAGS = ["--n-hidden", "32", "--epochs", "2", "--batch-size", "128",
               "--eval-batch", "128"]

# rbm train of a small model on the synthetic digits (see REFUSALS)
TRAIN = ["train", "--data", "{data}", *TRAIN_FLAGS]

# a value below the range of each option that has a lower bound, and of
# every command's --seed, with the error line it ends in
OUT_OF_RANGE = [
    ("train", "subset", -1, "--subset must be >= 0 (0 = all), got -1"),
    ("train", "n_hidden", 0, "--n-hidden must be >= 1, got 0"),
    ("train", "epochs", -1, "--epochs must be >= 0, got -1"),
    ("train", "batch_size", 0, "--batch-size must be >= 1, got 0"),
    ("train", "k", -1, "--k must be >= 0, got -1"),
    ("train", "eval_batch", 0, "--eval-batch must be >= 1, got 0"),
    ("train", "learning_rate", -0.5,
     "--learning-rate must be finite and > 0, got -0.5"),
    ("sample", "chains", 0, "--chains must be >= 1, got 0"),
    ("sample", "steps", "-1",
     "--steps must be sorted ascending and nonnegative, got [-1]"),
    ("reconstruct", "count", 0, "--count must be >= 1, got 0"),
    ("eval", "batch_size", 0, "--batch-size must be >= 1, got 0"),
    ("eval", "steps", "4,2",
     "--steps must be sorted ascending and nonnegative, got [4, 2]"),
    ("weights", "count", 0, "--count must be >= 1, got 0"),
] + [(command, "seed", -1, "--seed must lie in [0, 2**64), got -1")
     for command in OPTIONS]

# each count option named one beyond what its input holds (2000 synthetic
# images, a 32-hidden checkpoint), with the error line it ends in
BEYOND_INPUT = [
    ("train", "subset", 2001,
     "--subset 2001 exceeds the 2000 images of {data}/train-images-idx3-ubyte"),
    ("reconstruct", "count", 2001,
     "--count 2001 exceeds the 2000 rows of the data"),
    ("eval", "batch_size", 2001,
     "--batch-size 2001 exceeds the 2000 rows of the data"),
    ("weights", "count", 33,
     "--count 33 exceeds the 32 hidden units of the checkpoint"),
]

# a prefix of one flag of each command, and of --config on every command
# ({conf}: the config file's path), with a value
PREFIXES = [("train", "--learning", "0.002"), ("sample", "--chain", "2"),
            ("reconstruct", "--coun", "2"), ("eval", "--batch", "64"),
            ("weights", "--cou", "4")] + [
    (command, "--conf", "{conf}") for command in OPTIONS]

# the rbm train options that became constants, each at the value it had
REMOVED = {"init_std": 0.1, "eval_every": 1, "binarize_threshold": 0.5}

# JSON nested 100000 deep, as an array and as an object
DEEP_JSON = {"array": "[" * 100000 + "]" * 100000,
             "object": '{"a": ' * 100000 + "1" + "}" * 100000}

# the input flags of each command; rbm sample of a test's own checkpoint;
# and inputs that do not exist
INPUTS = {command: [arg for key in ("checkpoint", "data")
                    if key in OPTIONS[command]
                    for arg in (f"--{key}", "{%s}" % key)]
          for command in OPTIONS}
SAMPLE_TINY = ["sample", "--checkpoint", "{tmp}/ck.rbm"]
MISSING = {"sample": ["--checkpoint", "{tmp}/missing.rbm"],
           "eval": ["--checkpoint", "{tmp}/missing.rbm",
                    "--data", "{tmp}/missing-data"]}


class Usage(str):
    """A refusal's error line that argparse prints, after its usage text,
    and ends in exit code 2 (see REFUSALS)."""


def named(command, name, value, source):
    """The argv and config text that name option name's value by its flag
    or by the config file."""
    if source == "flag":
        return [command, f"--{name.replace('_', '-')}={value}"], None
    return [command], json.dumps({name: value})


def wrong_types(name, default):
    """Config values of the wrong type for an option, each with its error."""
    noun = {int: "an int", float: "a float"}.get(type(default), "a str")
    return [(json.dumps({name: wrong}),
             f"config key {name!r} must be {noun}, got {wrong!r}")
            for wrong in ({int: 1.5, float: "0.5"}.get(type(default), 7), True)]


# (test id, argv, config file text or None, error line): each case ends in
# exit code 1 and that one stderr line (a Usage line: exit code 2 and
# argparse's usage text before it), with no --out left behind.  In argv
# and the line, {data}, {narrow}, {checkpoint}, {tmp} and {conf} stand for
# the synthetic IDX directory, an IDX file of 20x20 digits, the trained
# checkpoint, the test's directory and the config file.  An id test[param] is one case of a parametrized
# test; the rows of one id run in turn.
REFUSALS = [
    ("TestTrain::test_missing_data_fails_closed",
     ["train", "--data", "{tmp}/nope"], None,
     "no IDX image file found under {tmp}/nope"),
    ("TestTrain::test_subset_from_config_must_fit_the_images",
     ["train", "--preset", "desk", "--data", "{data}", *TRAIN_FLAGS],
     '{"subset": 2001}',
     "--subset 2001 exceeds the 2000 images of {data}/train-images-idx3-ubyte"),
    ("TestTrain::test_unknown_config_key_rejected", ["train"], '{"bogus": 1}',
     "unknown config key 'bogus' for train"),
    ("TestTrain::test_config_not_an_object_rejected", ["train"],
     '[{"epochs": 1}]', "{conf}: config must be a JSON object"),
    # a key has one spelling, its field name: the dash one is unknown
    ("TestTrain::test_config_key_given_twice_rejected[spellings]",
     ["train", "--data", "{data}"], '{"batch_size": 64, "batch-size": 128}',
     "unknown config key 'batch-size' for train"),
    ("TestTrain::test_config_key_given_twice_rejected[repeat]",
     ["train", "--data", "{data}"], '{"epochs": 0, "epochs": 1}',
     "{conf}: config key 'epochs' given twice"),
    *[(f"TestTrain::test_config_nested_too_deep_leaves_no_output[{shape}]",
       ["train", "--data", "{data}"], text,
       "{conf}: config nests too deep to parse")
      for shape, text in DEEP_JSON.items()],
    ("TestTrain::test_config_value_of_wrong_type_rejected", ["train"],
     '{"epochs": "3"}', "config key 'epochs' must be an int, got '3'"),
    # JSON holds integers of any size; float() of this one overflows
    ("TestTrain::test_integer_beyond_float_range_leaves_no_output", TRAIN,
     '{"learning_rate": 1' + "0" * 400 + "}",
     "--learning-rate must lie within float range, got a number beyond it"),
    ("TestTrain::test_negative_subset_rejected[flag]",
     [*TRAIN, "--subset", "-5"], None,
     "--subset must be >= 0 (0 = all), got -5"),
    ("TestTrain::test_negative_subset_rejected[config]", TRAIN,
     '{"subset": -5}', "--subset must be >= 0 (0 = all), got -5"),
    *[(f"TestTrain::test_bad_value_leaves_no_output[{case}]",
       [*TRAIN, flag, value], None, line) for case, flag, value, line in [
        ("n_hidden", "--n-hidden", "0", "--n-hidden must be >= 1, got 0"),
        ("batch_size", "--batch-size", "0", "--batch-size must be >= 1, got 0"),
        ("epochs", "--epochs", "-1", "--epochs must be >= 0, got -1"),
        ("subset_1", "--subset", "1",
         "--subset 1: need at least 2 samples for covariance statistics"),
        ("subset_60", "--subset", "60",
         "--batch-size 128 exceeds the 54 rows the training split holds "
         "after the held-out fold"),
        ("subset_2001", "--subset", "2001", "--subset 2001 exceeds the 2000 "
         "images of {data}/train-images-idx3-ubyte")]],
    # the W that cannot be drawn names its size, or the memory it needs
    # (6.12 PiB, which numpy refuses at once)
    *[("TestTrain::test_too_many_hidden_units_name_n_hidden",
       ["train", "--data", "{data}", "--n-hidden", n_hidden, "--batch-size",
        "64"], None, f"--n-hidden {n_hidden}: {reason}")
      for n_hidden, reason in [
          ("100000000000000000000", "Maximum allowed dimension exceeded"),
          ("1099511627776", "Unable to allocate 6.12 PiB for an array "
           "with shape (784, 1099511627776) and data type float64")]],
    # the options that became constants, even at the value each had: a flag
    # argparse does not know, a config key rbm train does not know
    *[row for key, value in REMOVED.items() for flag in [
        "--" + key.replace("_", "-")] for row in [
        (f"TestTrain::test_removed_option_refused[{key}-flag]",
         [*TRAIN, flag, str(value)], None,
         Usage(f"unrecognized arguments: {flag} {value}")),
        (f"TestTrain::test_removed_option_refused[{key}-config]", TRAIN,
         json.dumps({key: value}), f"unknown config key {key!r} for train")]],
    # a step that is not an integer, a chain count below one, and one whose
    # hidden fields (1.11 EiB) numpy refuses at once
    *[("TestSample::test_empty_steps_rejected",
       ["sample", *INPUTS["sample"], flag, value], None, line)
      for flag, value, line in [
          ("--steps", "", "--steps '': invalid literal for int() with base "
           "10: ''"),
          ("--steps", "0,x", "--steps '0,x': invalid literal for int() with "
           "base 10: 'x'"),
          ("--chains", "0", "--chains must be >= 1, got 0"),
          ("--chains", "-3", "--chains must be >= 1, got -3"),
          ("--chains", "10000000000000000", "--chains 10000000000000000: "
           "Unable to allocate 1.11 EiB for an array with shape "
           "(10000000000000000, 32) and data type float32")]],
    # a count below one and beyond the 2000 rows of the data
    *[("TestReconstruct::test_zero_count_rejected",
       ["reconstruct", *INPUTS["reconstruct"], "--count", count], None, line)
      for count, line in [
          ("0", "--count must be >= 1, got 0"),
          ("5000", "--count 5000 exceeds the 2000 rows of the data")]],
    # images of 400 pixels against the checkpoint's 784 visible units,
    # refused where the data is read, before any row is binarized or drawn
    *[(f"Test{owner}::test_data_of_the_wrong_width_names_its_file",
       [command, "--checkpoint", "{checkpoint}", "--data", "{narrow}"], None,
       "{narrow}: images of 400 pixels, the checkpoint has 784 visible units")
      for command, owner in (("eval", "Eval"), ("reconstruct", "Reconstruct"))],
    *[("TestEval::test_empty_steps_rejected",
       ["eval", *INPUTS["eval"], "--steps", steps], None, line)
      for steps, line in [
          (",", "--steps ',': invalid literal for int() with base 10: ''"),
          ("0,x", "--steps '0,x': invalid literal for int() with base 10: "
           "'x'")]],
    ("TestWeights::test_zero_count_rejected",
     ["weights", "--checkpoint", "{checkpoint}", "--count", "0"], None,
     "--count must be >= 1, got 0"),
    *[(f"TestOptions::test_required_option_missing[{command}-{name}]",
       [command, *[arg for other, default in options.items()
                   if default is None and other != name
                   for arg in (f"--{other}", f"{{tmp}}/{other}")]],
       None, f"--{name} is required")
      for command, options in OPTIONS.items()
      for name, default in options.items() if default is None],
    *[(f"TestOptions::test_config_value_of_wrong_type_rejected"
       f"[{command}-{name}]", [command], text, line)
      for command, options in OPTIONS.items()
      for name, default in options.items()
      for text, line in wrong_types(name, default)],
    *[(f"TestOptions::test_out_of_range_value_names_its_flag"
       f"[{command}-{name}-{source}]", [*argv, *INPUTS[command]], text, line)
      for command, name, value, line in OUT_OF_RANGE
      for source in ("flag", "config")
      for argv, text in [named(command, name, value, source)]],
    *[(f"TestOptions::test_named_count_beyond_its_input_rejected"
       f"[{command}-{name}-{source}]", [*argv, *INPUTS[command]], text, line)
      for command, name, value, line in BEYOND_INPUT
      for source in ("flag", "config")
      for argv, text in [named(command, name, value, source)]],
    # --steps is a comma list, read before the checkpoint is
    *[(f"TestOptions::test_steps_separated_by_spaces_rejected"
       f"[{command}-{source}]", [*argv, *MISSING[command]], text,
       "--steps '0 1': invalid literal for int() with base 10: '0 1'")
      for command in ("sample", "eval") for source in ("flag", "config")
      for argv, text in [named(command, "steps", "0 1", source)]],
    # a config file names each option by its field name alone
    *[(f"TestOptions::test_config_key_spelled_with_dashes_rejected"
       f"[{command}-{name}]", [command],
       json.dumps({name.replace("_", "-"): default}),
       f"unknown config key {name.replace('_', '-')!r} for {command}")
      for command, options in OPTIONS.items()
      for name, default in options.items() if "_" in name],
    # each prefix names one flag alone, and is refused all the same
    *[(f"TestOptions::test_flag_prefix_is_a_usage_error[{command}{prefix}]",
       [command, *INPUTS[command], *(TRAIN_FLAGS if command == "train" else []),
        prefix, value], None,
       Usage(f"unrecognized arguments: {prefix} {value}"))
      for command, prefix, value in PREFIXES],
    *[(f"TestOptions::test_bad_steps_rejected_before_the_checkpoint_is_read"
       f"[{command}]", [command, *MISSING[command], "--steps", "4,2"], None,
       "--steps must be sorted ascending and nonnegative, got [4, 2]")
      for command in ("sample", "eval")],
    *[(f"TestOptions::test_seed_outside_64_bits_rejected[{command}]",
       [*argv, "--seed", "-1"], None, "--seed must lie in [0, 2**64), got -1")
      for command, argv in [("train", TRAIN),
                            ("sample", ["sample", *INPUTS["sample"]])]],
    # every command binarizes at one pixel cut: none takes a threshold, by
    # its first name or the one that replaced it
    *[row for command in ("train", "reconstruct", "eval")
      for key in ("threshold", "binarize_threshold")
      for flag in ["--" + key.replace("_", "-")] for row in [
          (f"TestFixedThreshold::test_no_threshold_flag[{command}]",
           [command, flag, "0.5"], None,
           Usage(f"unrecognized arguments: {flag} 0.5")),
          (f"TestFixedThreshold::test_no_threshold_config_key[{command}]",
           [command], json.dumps({key: 0.5}),
           f"unknown config key {key!r} for {command}")]],
]


def refusal_tests(cls):
    """cls with a test for each test id that REFUSALS files under it, in
    place of a hand-written test per id."""
    tests = {}
    for case_id, *row in REFUSALS:
        owner, _, test = case_id.partition("::")
        name, _, param = test.partition("[")
        if owner == cls.__name__:
            tests.setdefault(name, {}).setdefault(param[:-1], []).append(row)
    for name, cases in tests.items():
        setattr(cls, name, _refusal_test(cases))
    return cls


def _refusal_test(cases):
    """A test that runs the rows of each case in turn; parametrized by the
    case ids, unless it has one case and no id."""
    if list(cases) == [""]:
        def test(self, refuse, rows=cases[""]):
            for row in rows:
                refuse(*row)
        return test

    @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
    def test(self, refuse, rows):
        for row in rows:
            refuse(*row)
    return test


def _env_with_src():
    src = str(Path(spinrbm.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": src}


def raising(exc):
    """A stand-in for a call that fails with exc."""
    def call(*args):
        raise exc
    return call


def run_outputs(out):
    """The checkpoint bytes and metrics rows (less wall_ms) of a run."""
    rows = [line.rsplit(",", 1)[0]
            for line in (out / "metrics.csv").read_text().splitlines()]
    return (out / "checkpoint.rbm").read_bytes(), rows


def tiny_checkpoint(path, model=None, sigma=np.eye(4), **config):
    """A checkpoint of a 2x2-pixel model (n_v = 4, n_h = 3)."""
    if model is None:
        model = random_model(np.random.default_rng(0), 4, 3)
    model = replace(model, stats=DataStats(mu=model.mu, sigma=sigma))
    save_checkpoint(model, TrainConfig(n_hidden=3, **config), path)
    return path


@pytest.fixture(scope="module")
def digits(tmp_path_factory):
    """A directory of 2000 synthetic digits, made once per module."""
    return write_synthetic_idx(tmp_path_factory.mktemp("idx"))


@pytest.fixture(scope="module")
def trained_run(digits, tmp_path_factory):
    """A run trained on synthetic digits, made once per module: no test
    writes into its directory."""
    out = tmp_path_factory.mktemp("trained") / "run"
    code = main(["train", "--data", str(digits), "--out", str(out),
                 "--seed", "5", *TRAIN_FLAGS])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def narrow_digits(tmp_path_factory):
    """An IDX file of 50 synthetic 20x20 digits, made once per module."""
    path = tmp_path_factory.mktemp("narrow") / "narrow-images-idx3-ubyte"
    images, _ = synthetic_digits(np.random.default_rng(20), 50, side=20)
    path.write_bytes(idx_image_bytes(images))
    return path


@pytest.fixture
def refuse(digits, narrow_digits, trained_run, tmp_path, capsys):
    """The one runner of a refusal: main(argv), with --out and the config
    file of the given text, must end in exit code 1 and the one stderr line
    error: <line>, print nothing and leave no --out behind (see REFUSALS)."""
    places = {"data": digits, "narrow": narrow_digits,
              "checkpoint": trained_run / "checkpoint.rbm",
              "tmp": tmp_path, "conf": tmp_path / "conf.json"}
    out = tmp_path / "out"

    def run(argv, config, line):
        argv = [arg.format(**places) for arg in argv] + ["--out", str(out)]
        if config is not None:
            places["conf"].write_text(config)
            argv += ["--config", str(places["conf"])]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        captured = capsys.readouterr()
        err = captured.err
        if isinstance(line, Usage):
            usage, _, err = err.rpartition("\nrbm: ")
            assert (code, usage.startswith("usage: rbm ")) == (2, True)
        else:
            assert code == 1
        assert (err, captured.out) == (f"error: {line.format(**places)}\n", "")
        assert not out.exists()
    return run


@refusal_tests
class TestTrain:
    def test_help_says_what_k_picks(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")  # one line per option
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        lines = [" ".join(line.split())
                 for line in capsys.readouterr().out.splitlines()]
        assert exc.value.code == 0
        assert ("--k K default 0; 0 is belief-generated CD-0, K >= 1 is CD-K "
                "from the data batch") in lines

    def test_outputs_produced(self, trained_run):
        assert (trained_run / "checkpoint.rbm").is_file()
        assert (trained_run / "metrics.csv").is_file()
        assert (trained_run / "manifest.json").is_file()
        manifest = json.loads((trained_run / "manifest.json").read_text())
        assert manifest["config"]["n_hidden"] == 32

    def test_manifest_records_each_fact_once(self, trained_run):
        # the seed lives in the config echo alone
        manifest = json.loads((trained_run / "manifest.json").read_text())
        assert set(manifest) == {"command", "config", "data", "checkpoint",
                                 "metrics_csv", "subset", "holdout_rows",
                                 "recon_error_definition", "threads",
                                 "numpy_version"}
        assert manifest["config"]["seed"] == 5
        # metrics.csv is scored on a tenth of the 2000 rows, capped at
        # --eval-batch 128
        assert manifest["holdout_rows"] == 128

    def test_manifest_records_thread_setting(self, trained_run):
        manifest = json.loads((trained_run / "manifest.json").read_text())
        threads = manifest["threads"]
        assert set(threads) == {"cpu_count", "affinity_count", "blas_threads",
                                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS"}
        assert threads["cpu_count"] >= 1
        # this process loaded numpy before spinrbm.cli, so main set numpy's
        # OpenBLAS to one thread for the run
        assert threads["blas_threads"] == 1
        assert manifest["numpy_version"] == np.__version__

    def test_manifest_records_no_blas_threads_without_openblas(
            self, synthetic_idx_dir, tmp_path, monkeypatch):
        # numpy loaded before spinrbm.cli, and its BLAS is no OpenBLAS
        monkeypatch.setattr(spinrbm.cli, "_BLAS_PINNED", False)
        monkeypatch.setattr(spinrbm.cli, "_openblas_thread_calls", lambda: None)
        out = tmp_path / "run"
        assert main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS, "--epochs", "0"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"]["blas_threads"] is None

    def test_openblas_found_once_per_run(self, synthetic_idx_dir, tmp_path,
                                         monkeypatch):
        # the manifest's blas_threads comes from the pin, not a second search
        real = _openblas_thread_calls
        searches = []
        monkeypatch.setattr(spinrbm.cli, "_BLAS_PINNED", False)
        monkeypatch.setattr(spinrbm.cli, "_openblas_thread_calls",
                            lambda: searches.append(1) or real())
        out = tmp_path / "run"
        assert main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS, "--epochs", "0"]) == 0
        assert searches == [1]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"]["blas_threads"] == (
            None if real() is None else 1)

    def test_metrics_header(self, trained_run):
        header = (trained_run / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,energy_coefficient,recon_error,wall_ms"

    def test_seed_determinism(self, synthetic_idx_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--data", str(synthetic_idx_dir),
                         "--out", str(out), "--seed", "7", *TRAIN_FLAGS]) == 0
            outs.append(out)
        assert (outs[0] / "checkpoint.rbm").read_bytes() == \
               (outs[1] / "checkpoint.rbm").read_bytes()

    def test_run_replays_from_its_manifest(self, synthetic_idx_dir, tmp_path):
        # the manifest's config, data and subset train the same run again,
        # at the default CD-0 and at CD-1 from the data
        for k in (0, 1):
            first = tmp_path / f"first-k{k}"
            assert main(["train", "--data", str(synthetic_idx_dir), "--out",
                         str(first), "--seed", "3", "--subset", "1500",
                         "--learning-rate", "0.002", *TRAIN_FLAGS,
                         "--k", str(k)]) == 0
            manifest = json.loads((first / "manifest.json").read_text())
            assert manifest["config"]["k"] == k
            conf = tmp_path / f"replay-k{k}.json"
            conf.write_text(json.dumps(manifest["config"]))
            again = tmp_path / f"again-k{k}"
            assert main(["train", "--config", str(conf), "--data",
                         manifest["data"], "--subset", str(manifest["subset"]),
                         "--out", str(again)]) == 0
            assert run_outputs(again) == run_outputs(first)
        # and rbm eval reads the CD-1 checkpoint as any other
        assert main(["eval", "--checkpoint", str(first / "checkpoint.rbm"),
                     "--data", str(synthetic_idx_dir), "--out",
                     str(tmp_path / "eval-k1.csv"), "--batch-size", "128"]) == 0

    def test_preset_subset_caps_the_rows(self, synthetic_idx_dir, tmp_path):
        # desk's subset of 10000 keeps the 2000 rows there are, and the
        # manifest records those, so the run still replays from it
        first = tmp_path / "first"
        assert main(["train", "--preset", "desk", "--data",
                     str(synthetic_idx_dir), "--out", str(first), "--seed",
                     "3", *TRAIN_FLAGS]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["subset"] == 2000
        conf = tmp_path / "replay.json"
        conf.write_text(json.dumps(manifest["config"]))
        again = tmp_path / "again"
        assert main(["train", "--config", str(conf), "--data",
                     manifest["data"], "--subset", str(manifest["subset"]),
                     "--out", str(again)]) == 0
        assert run_outputs(again) == run_outputs(first)

    def test_every_config_field_is_an_option_of_its_name(self):
        # each TrainConfig field is an rbm train flag and config key of the
        # same name: there is no mapping between the two
        names = {f.name for f in fields(TrainConfig)}
        assert set(OPTIONS["train"]) == names | {"data", "out", "subset"}
        parser = build_parser()
        for f in fields(TrainConfig):
            args = parser.parse_args(
                ["train", f"--{f.name.replace('_', '-')}", str(f.default)])
            assert getattr(args, f.name) == f.default

    def test_config_file_with_flag_override(self, synthetic_idx_dir, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "data": str(synthetic_idx_dir), "out": str(tmp_path / "run"),
            "n_hidden": 16, "epochs": 3, "batch_size": 128, "eval_batch": 128,
            "seed": 1}))
        assert main(["train", "--config", str(conf), "--epochs", "1"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["n_hidden"] == 16
        assert manifest["config"]["epochs"] == 1  # CLI flag wins

    def test_one_image_file_name_in_a_directory(self, synthetic_idx_dir,
                                                tmp_path, refuse):
        # train-images.idx3-ubyte (a dot for the dash), raw or gzipped, is
        # not looked for in a directory, but loads when named as the file
        blob = (synthetic_idx_dir / "train-images-idx3-ubyte").read_bytes()
        for name, data in (("train-images.idx3-ubyte", blob),
                           ("train-images.idx3-ubyte.gz", gzip.compress(blob))):
            folder = tmp_path / name.replace(".", "_")
            folder.mkdir()
            (folder / name).write_bytes(data)
            refuse(["train", "--data", f"{{tmp}}/{folder.name}", *TRAIN_FLAGS],
                   None, f"no IDX image file found under {{tmp}}/{folder.name}")
        out = tmp_path / "run"
        assert main(["train", "--data", str(folder / name), "--out", str(out),
                     *TRAIN_FLAGS, "--epochs", "0"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["data"] == str(folder / name)

    def test_too_few_rows_name_the_file(self, tmp_path, refuse):
        # no --subset cut the rows: the error names the data file
        (tmp_path / "img").write_bytes(idx_image_bytes(np.zeros((1, 2, 2))))
        refuse(["train", "--data", "{tmp}/img", *TRAIN_FLAGS], None,
               "{tmp}/img: need at least 2 samples for covariance statistics")

    def test_images_without_pixels_rejected(self, tmp_path, refuse):
        for dims in ((100, 0, 0), (0, 28, 28)):
            (tmp_path / "img").write_bytes(idx_image_bytes(np.zeros(dims)))
            refuse(["train", "--data", "{tmp}/img", *TRAIN_FLAGS], None,
                   f"{{tmp}}/img: implausible dimensions {list(dims)} at "
                   "offset 4")

    def test_corrupt_gzip_leaves_no_output(self, tmp_path, refuse):
        blob = gzip.compress(idx_image_bytes(np.zeros((100, 2, 2))))
        (tmp_path / "img.gz").write_bytes(blob[:len(blob) // 2])
        refuse(["train", "--data", "{tmp}/img.gz", *TRAIN_FLAGS], None,
               "{tmp}/img.gz: corrupt gzip data: Compressed file ended "
               "before the end-of-stream marker was reached")

    def test_weights_beyond_float32_range_diverge(self, synthetic_idx_dir,
                                                   tmp_path, capsys):
        # the first Adam step moves W by ~1e300: the initial model is kept
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS, "--learning-rate", "1e300"])
        assert (code, capsys.readouterr().err) == (
            1, "error: training diverged: epoch 1 batch 0: W entries must be "
               "finite and within float32 range\n")
        model, _ = load_checkpoint(out / "checkpoint.rbm")
        assert np.abs(model.W).max() < 1.0
        assert (out / "metrics.csv").read_text().splitlines() == [
            "epoch,energy_coefficient,recon_error,wall_ms"]

    def test_overflowing_sampler_covariance_diverges(
            self, synthetic_idx_dir, tmp_path, capsys):
        # the first Adam step moves W by ~1e19, within float32 range, but
        # W^T Sigma W overflows it: the next negative batch cannot be drawn
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS, "--learning-rate", "1e19"])
        assert (code, capsys.readouterr().err) == (
            1, "error: training diverged: epoch 1 batch 1: covariance "
               "W^T Sigma W overflows float32\n")
        model, _ = load_checkpoint(out / "checkpoint.rbm")
        assert model.n_h == 32

    def test_overflowing_gibbs_field_diverges(self, synthetic_idx_dir,
                                              tmp_path, capsys):
        # W stays within float32 range, but the Gibbs fields off the data
        # overflow it
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS, "--k", "1",
                     "--learning-rate", "1e37"])
        assert (code, capsys.readouterr().err) == (
            1, "error: training diverged: epoch 1 batch 1: hidden field "
               "overflows float32\n")
        model, _ = load_checkpoint(out / "checkpoint.rbm")
        assert model.n_h == 32

    def test_refused_allocation_leaves_no_output(self, refuse, monkeypatch):
        # a MemoryError from a call that names no flag prints as it comes:
        # numpy's names the size it refused
        reason = ("Unable to allocate 5.70 TiB for an array with shape "
                  "(784, 1000000000) and data type float64")
        monkeypatch.setattr(spinrbm.cli, "init_model",
                            raising(MemoryError(reason)))
        refuse(TRAIN, None, reason)

    def test_divergence_saves_last_finite_model(self, synthetic_idx_dir,
                                                tmp_path, capsys, monkeypatch):
        # 1872 training rows in batches of 128: 15 steps per epoch, so the
        # 21st gradient falls mid-way through epoch 2, after the epoch-1 log;
        # a step completes its gradient in add_model_phase
        real = spinrbm.training.add_model_phase
        calls = []

        def failing(model, data_part, neg):
            calls.append(1)
            grads = real(model, data_part, neg)
            if len(calls) == 21:
                return GradientPair(d_b=grads.d_b * np.nan, d_W=grads.d_W)
            return grads

        monkeypatch.setattr(spinrbm.training, "add_model_phase", failing)
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir),
                     "--out", str(out), "--seed", "5", *TRAIN_FLAGS])
        assert (code, capsys.readouterr().err) == (
            1, "error: training diverged: epoch 2 batch 5: non-finite "
               "gradient\n")
        model, _ = load_checkpoint(out / "checkpoint.rbm")
        assert model.n_h == 32
        rows = (out / "metrics.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["epoch", "1"]


class TestBlasThreads:
    def test_package_import_loads_no_numpy(self):
        subprocess.run([sys.executable, "-c", "import spinrbm, sys; "
                        "assert 'numpy' not in sys.modules"],
                       env=_env_with_src(), check=True)

    def test_thread_variables_set_before_numpy_loads(self):
        # importing the command sets all three to 1, so the OpenBLAS that
        # numpy then loads starts with one thread
        env = {**_env_with_src(), **dict.fromkeys(THREAD_VARS, "2")}
        script = ("import os, spinrbm.cli as cli\n"
                  f"assert all(os.environ[v] == '1' for v in {THREAD_VARS})\n"
                  "calls = cli._openblas_thread_calls()\n"
                  "assert calls is None or calls[0]() == 1\n")
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_same_bytes_whatever_the_thread_variables(self, tmp_path):
        # rbm sets BLAS to one thread before numpy loads and splits its work
        # over two workers in a fixed way; main called in this process,
        # where numpy loaded first, sets numpy's OpenBLAS to one thread
        images, _ = synthetic_digits(np.random.default_rng(77), 600)
        (tmp_path / "train-images-idx3-ubyte").write_bytes(
            idx_image_bytes(images))
        args = ["train", "--data", str(tmp_path), "--n-hidden", "16",
                "--batch-size", "64", "--eval-batch", "64", "--epochs", "2"]

        runs = []
        for threads in ("1", "2", None):
            env = _env_with_src()
            for name in THREAD_VARS:
                env.pop(name, None)
                if threads is not None:
                    env[name] = threads
            out = tmp_path / f"run-{threads}"
            subprocess.run([sys.executable, "-m", "spinrbm.cli", *args,
                            "--out", str(out)],
                           env=env, check=True, capture_output=True)
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["threads"]["blas_threads"] == 1
            assert all(manifest["threads"][name] == threads
                       for name in THREAD_VARS)
            runs.append(run_outputs(out))
        assert main([*args, "--out", str(tmp_path / "in-process")]) == 0
        runs.append(run_outputs(tmp_path / "in-process"))
        assert len(runs[0][1]) == 3
        assert all(run == runs[0] for run in runs[1:])

    def test_main_restores_the_blas_thread_count(self, synthetic_idx_dir,
                                                 tmp_path):
        calls = _openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS is no OpenBLAS")
        get, put = calls
        before = get()
        put(2)
        try:
            seen = []
            real = spinrbm.cli.train

            def spy(*args, **kwargs):
                seen.append(get())
                return real(*args, **kwargs)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spinrbm.cli, "train", spy)
                assert main(["train", "--data", str(synthetic_idx_dir),
                             "--out", str(tmp_path / "run"),
                             *TRAIN_FLAGS]) == 0
            assert seen == [1] and get() == 2
        finally:
            put(before)

    def test_no_thread_calls_without_a_readable_map(self, monkeypatch):
        monkeypatch.setattr(spinrbm.cli, "open", raising(PermissionError()),
                            raising=False)
        assert _openblas_thread_calls() is None

    def test_no_thread_calls_when_no_library_exports_them(self, monkeypatch):
        # a mapped file named like OpenBLAS whose library lacks the calls
        maps = ("7f0000000000-7f0000001000 r-xp 00000000 08:01 42 "
                "/usr/lib/libopenblas.so.0\n")
        opened = []
        monkeypatch.setattr(spinrbm.cli, "open",
                            lambda path: io.StringIO(maps), raising=False)
        monkeypatch.setattr(spinrbm.cli, "ctypes", SimpleNamespace(
            CDLL=lambda path: opened.append(path) or SimpleNamespace()))
        assert _openblas_thread_calls() is None
        assert opened == ["/usr/lib/libopenblas.so.0"]

    @pytest.mark.parametrize("confstr", [
        pytest.param(raising(AttributeError()), id="no-confstr"),
        pytest.param(raising(ValueError()), id="unknown-name"),
        pytest.param(raising(OSError()), id="oserror"),
        pytest.param(lambda name: None, id="no-value"),
        pytest.param(lambda name: "musl 1.2.4", id="not-glibc"),
    ])
    def test_malloc_arena_cap_skipped_without_glibc(self, monkeypatch,
                                                    confstr):
        monkeypatch.setattr(spinrbm.cli.os, "confstr", confstr)
        # no mallopt call: the libc is never opened
        monkeypatch.setattr(spinrbm.cli, "ctypes", SimpleNamespace(
            CDLL=raising(AssertionError("libc opened"))))
        spinrbm.cli._one_malloc_arena()


@refusal_tests
class TestSample:
    def test_default_grid_layout(self, trained_run, tmp_path):
        out = tmp_path / "samples.pgm"
        assert main(["sample", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                     "--out", str(out), "--seed", "3"]) == 0
        img = read_pgm(out)
        # 7 step rows x 16 chains of 28x28 tiles with 1px padding
        assert img.shape == (7 * 29 + 1, 16 * 29 + 1)

    def test_single_step_grid(self, trained_run, tmp_path):
        out = tmp_path / "s.pgm"
        assert main(["sample", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                     "--out", str(out), "--steps", "0"]) == 0
        assert read_pgm(out).shape == (29 + 1, 16 * 29 + 1)

    def test_refused_allocation_leaves_no_pgm(self, refuse, monkeypatch):
        # a MemoryError without a message, as Python's own allocations
        # raise: every array of the chains scales with their count, so the
        # error names --chains; from a call that names no flag, main says
        # out of memory
        monkeypatch.setattr(spinrbm.cli, "gibbs_chain", raising(MemoryError()))
        refuse(["sample", *INPUTS["sample"], "--chains", "1000000000"], None,
               "--chains 1000000000: out of memory")
        monkeypatch.setattr(spinrbm.cli, "load_checkpoint",
                            raising(MemoryError()))
        refuse(["sample", *INPUTS["sample"]], None, "out of memory")

    def test_seed_determinism(self, trained_run, tmp_path):
        blobs = []
        for name in ("x.pgm", "y.pgm"):
            out = tmp_path / name
            assert main(["sample", "--checkpoint",
                         str(trained_run / "checkpoint.rbm"),
                         "--out", str(out), "--seed", "9"]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    # DataStats checks sigma and RbmModel checks W
    @pytest.mark.parametrize("array, value, reason", [
        pytest.param("sigma", np.nan, "sigma entries must be finite", id="nan"),
        pytest.param("sigma", np.inf, "sigma entries must be finite", id="inf"),
        pytest.param("sigma", 1e200, "sigma entries must be finite",
                     id="1e+200"),
        pytest.param("W", np.nan, "W entries must be finite", id="W-nan"),
        pytest.param("W", np.inf, "W entries must be finite", id="W-inf"),
        pytest.param("W", 1e200, "W entries must be finite", id="W-1e200"),
    ])
    def test_checkpoint_with_unusable_sigma_or_w_rejected(
            self, tmp_path, refuse, array, value, reason):
        path = tiny_checkpoint(tmp_path / "ck.rbm")
        blob = bytearray(path.read_bytes())
        # after the 20-byte header: b (4), W (4 x 3), mu (4), sigma (4 x 4)
        at, size = {"W": (20 + 8 * 4, 12),
                    "sigma": (20 + 8 * (4 + 12 + 4), 16)}[array]
        blob[at:at + 8 * size] = np.full(size, value).tobytes()
        path.write_bytes(resealed(bytes(blob)))
        refuse(SAMPLE_TINY, None,
               f"{{tmp}}/ck.rbm: {reason} and within float32 range")

    def test_checkpoint_with_overflowing_covariance_rejected(self, tmp_path,
                                                            refuse):
        # Sigma W = 1.2e38 lies within float32 range, W^T Sigma W does not
        model = RbmModel(W=np.ones((4, 3)), b=np.zeros(4), stats=stats_at(np.zeros(4)))
        tiny_checkpoint(tmp_path / "ck.rbm", model, np.full((4, 4), 3e37))
        refuse(SAMPLE_TINY, None, "covariance W^T Sigma W overflows float32")

    def test_checkpoint_with_sigma_that_is_no_covariance_rejected(
            self, tmp_path, refuse):
        tiny_checkpoint(tmp_path / "ck.rbm", sigma=-np.eye(4))
        refuse(SAMPLE_TINY, None, "sigma is not a covariance: W^T Sigma W "
                                  "has eigenvalue -1.25, largest -0.028")

    def test_visible_layer_that_is_no_square_image_rejected(self, tmp_path,
                                                            refuse):
        model = random_model(np.random.default_rng(0), 10, 3)
        tiny_checkpoint(tmp_path / "ck.rbm", model, sigma=np.eye(10))
        refuse(SAMPLE_TINY, None,
               "visible layer of 10 units is not a square image")

    def test_config_echo_of_wrong_type_rejected(self, tmp_path, refuse):
        path = tiny_checkpoint(tmp_path / "ck.rbm")
        config = TrainConfig(n_hidden=3)
        path.write_bytes(with_config(path.read_bytes(), config,
                                     {**config.__dict__, "epochs": float("nan")}))
        refuse(SAMPLE_TINY, None, "{tmp}/ck.rbm: epochs must be an int, got nan")

    @pytest.mark.parametrize("echo, reason", [
        (DEEP_JSON["array"], "config nests too deep to parse"),
        (json.dumps(TrainConfig(n_hidden=3).__dict__)[:-1] + ', "epochs": 99}',
         "config key 'epochs' given twice"),
        (json.dumps(TrainConfig(n_hidden=3).__dict__).replace(
            '"n_hidden"', '"n-hidden"'),
         "unknown checkpoint config key 'n-hidden'")],
        ids=["deep", "epochs_twice", "dash_key"])
    def test_config_echo_read_by_the_config_file_rules(self, tmp_path, refuse,
                                                       echo, reason):
        path = tiny_checkpoint(tmp_path / "ck.rbm")
        path.write_bytes(with_config(path.read_bytes(),
                                     TrainConfig(n_hidden=3), echo))
        refuse(SAMPLE_TINY, None, f"{{tmp}}/ck.rbm: {reason}")

    @pytest.mark.parametrize("key", sorted(REMOVED))
    def test_removed_option_in_the_echo_rejected(self, tmp_path, refuse, key):
        path = tiny_checkpoint(tmp_path / "ck.rbm")
        config = TrainConfig(n_hidden=3)
        path.write_bytes(with_config(path.read_bytes(), config,
                                     {**config.__dict__, key: REMOVED[key]}))
        refuse(SAMPLE_TINY, None,
               f"{{tmp}}/ck.rbm: unknown checkpoint config key {key!r}")

    def test_flipped_byte_error_line(self, tmp_path, refuse):
        # magic, version, checksum, n_v, n_h, b, W, mu, sigma, the config
        # length and the config echo
        blob = tiny_checkpoint(tmp_path / "ck.rbm").read_bytes()
        crc = "checksum mismatch: header holds 1a262732"
        for at, reason in ((0, "bad checkpoint magic b'SBM0'"),
                           (5, "unsupported checkpoint version 261"),
                           (8, "checksum mismatch: header holds 1a262733"),
                           (12, "config block size mismatch at offset 424"),
                           (17, "checkpoint truncated at offset 52"),
                           (20, crc), (60, crc), (170, crc), (300, crc),
                           (309, "config block size mismatch at offset 312"),
                           (len(blob) - 1, crc)):
            bad = bytearray(blob)
            bad[at] ^= 0x01
            (tmp_path / "ck.rbm").write_bytes(bytes(bad))
            refuse(SAMPLE_TINY, None, f"{{tmp}}/ck.rbm: {reason}")

    def test_overflowing_gibbs_field_rejected(self, tmp_path, refuse):
        # Sigma = 0 keeps phi at 0, but the fields of the Gibbs steps sum
        # entries of 2e38
        model = RbmModel(W=np.full((4, 3), 2e38), b=np.zeros(4),
                         stats=stats_at(np.zeros(4)))
        tiny_checkpoint(tmp_path / "ck.rbm", model, np.zeros((4, 4)))
        refuse(SAMPLE_TINY, None, "visible field overflows float32")

    def test_bad_checkpoint(self, tmp_path, refuse):
        (tmp_path / "ck.rbm").write_bytes(b"nope")
        refuse(SAMPLE_TINY, None, "{tmp}/ck.rbm: bad checkpoint magic b'nope'")

    def test_malformed_checkpoint_error_line(self, tmp_path, refuse):
        model = random_model(np.random.default_rng(0), 4, 3)
        config = TrainConfig(n_hidden=3)
        path = tmp_path / "ck.rbm"
        model = replace(model, stats=DataStats(mu=model.mu, sigma=np.eye(4)))
        save_checkpoint(model, config, path)
        blob = path.read_bytes()
        truncated = tmp_path / "truncated.rbm"
        truncated.write_bytes(blob[:30])
        unknown = tmp_path / "unknown.rbm"
        unknown.write_bytes(with_config(blob, config,
                                        {**config.__dict__, "bogus": 1}))
        missing = tmp_path / "missing.rbm"
        missing.write_bytes(with_config(
            blob, config, {k: v for k, v in config.__dict__.items()
                           if k != "eval_batch"}))
        no_hidden = tmp_path / "no_hidden.rbm"
        save_checkpoint(replace(model, W=np.zeros((4, 0))), config, no_hidden)
        mismatch = tmp_path / "mismatch.rbm"
        save_checkpoint(model, TrainConfig(n_hidden=5), mismatch)
        version_1 = tmp_path / "version_1.rbm"
        version_1.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        version_2 = tmp_path / "version_2.rbm"
        version_2.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
        version_3 = tmp_path / "version_3.rbm"
        version_3.write_bytes(blob[:4] + struct.pack("<I", 3) + blob[8:])
        version_4 = tmp_path / "version_4.rbm"
        version_4.write_bytes(blob[:4] + struct.pack("<I", 4) + blob[8:])
        for bad, reason in (
                (truncated, "checkpoint truncated at offset 20"),
                (unknown, "unknown checkpoint config key 'bogus'"),
                (missing, "missing checkpoint config key 'eval_batch'"),
                (no_hidden, "empty layer (n_v 4, n_h 0) at offset 12"),
                (mismatch, "checkpoint config key 'n_hidden' is 5, header n_h "
                           "is 3"),
                (version_1, "unsupported checkpoint version 1"),
                (version_2, "unsupported checkpoint version 2"),
                (version_3, "unsupported checkpoint version 3"),
                (version_4, "unsupported checkpoint version 4")):
            refuse(["sample", "--checkpoint", f"{{tmp}}/{bad.name}"], None,
                   f"{{tmp}}/{bad.name}: {reason}")


@refusal_tests
class TestReconstruct:
    def test_two_row_grid(self, trained_run, synthetic_idx_dir, tmp_path):
        out = tmp_path / "rec.pgm"
        assert main(["reconstruct", "--checkpoint",
                     str(trained_run / "checkpoint.rbm"),
                     "--data", str(synthetic_idx_dir), "--out", str(out)]) == 0
        assert read_pgm(out).shape == (2 * 29 + 1, 16 * 29 + 1)


@refusal_tests
class TestEval:
    def test_csv_schema_and_determinism(self, trained_run, synthetic_idx_dir,
                                        tmp_path):
        args = ["eval", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                "--data", str(synthetic_idx_dir), "--batch-size", "256",
                "--seed", "2"]
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        lines = out1.read_text().splitlines()
        assert lines[0] == "step,recon_error,energy_coefficient"
        assert len(lines) == 7  # header + steps 0,2,4,8,16,32
        for line in lines[1:]:
            _, err, coeff = line.split(",")
            assert 0.0 <= float(err) <= 1.0
            assert float(coeff) <= 1.0
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_step(self, trained_run, synthetic_idx_dir, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["eval", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                     "--data", str(synthetic_idx_dir), "--out", str(out),
                     "--steps", "0", "--batch-size", "128"]) == 0
        assert len(out.read_text().splitlines()) == 2


@refusal_tests
class TestWeights:
    def test_default_grid(self, trained_run, tmp_path):
        out = tmp_path / "w.pgm"
        assert main(["weights", "--checkpoint",
                     str(trained_run / "checkpoint.rbm"),
                     "--out", str(out), "--count", "16"]) == 0
        assert read_pgm(out).shape == (4 * 29 + 1, 4 * 29 + 1)

    def test_seed_determinism(self, trained_run, tmp_path):
        blobs = []
        for name in ("w1.pgm", "w2.pgm"):
            out = tmp_path / name
            assert main(["weights", "--checkpoint",
                         str(trained_run / "checkpoint.rbm"),
                         "--out", str(out), "--seed", "4"]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


@refusal_tests
class TestOptions:
    @pytest.mark.parametrize("command,name", [
        ("reconstruct", "count"), ("eval", "batch_size"),
        ("weights", "count")])
    def test_default_count_caps_at_its_input(self, trained_run, tmp_path,
                                             command, name):
        # 10 images and 32 hidden units: the default count (16, 1024, 64)
        # writes what the count of the input itself writes
        data = tmp_path / "img"
        images, _ = synthetic_digits(np.random.default_rng(3), 10)
        data.write_bytes(idx_image_bytes(images))
        args = [command, "--checkpoint", str(trained_run / "checkpoint.rbm")]
        if "data" in OPTIONS[command]:
            args += ["--data", str(data)]
        available = 32 if command == "weights" else 10
        default, given = tmp_path / "default", tmp_path / "given"
        assert main([*args, "--out", str(default)]) == 0
        assert main([*args, "--out", str(given),
                     f"--{name.replace('_', '-')}", str(available)]) == 0
        assert default.read_bytes() == given.read_bytes()


@refusal_tests
class TestFixedThreshold:
    """No command takes a pixel threshold (see REFUSALS)."""
