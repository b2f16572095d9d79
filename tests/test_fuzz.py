"""Fuzz the CLI's inputs: special floats written into the arrays of a valid
checkpoint, mutated or truncated IDX files, and train config files of any
JSON values must end in well-formed outputs (exit 0) or in exactly one
``error:`` line (exit 1), never in a traceback or a warning."""

import contextlib
import csv
import gzip
import io
import json
import math
import shutil
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (idx_image_bytes, random_model, read_pgm, resealed,
                      synthetic_digits)
from spinrbm.cli import OPTIONS, main
from spinrbm.data import DataStats
from spinrbm.training import TrainConfig, load_checkpoint, save_checkpoint

N_V, N_H = 4, 3
# b, W, mu and sigma follow the 20-byte header as little-endian float64
N_FLOATS = N_V + N_V * N_H + N_V + N_V * N_V
SPECIALS = [np.nan, np.inf, -np.inf, 1e300, -1e300, 3.5e38, -3.5e38, 2e38,
            1e-320, -0.0]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding a valid 4x3 checkpoint, checkpoint.rbm."""
    directory = tmp_path_factory.mktemp("fuzz")
    model = random_model(np.random.default_rng(0), N_V, N_H, centered=False)
    model = replace(model, stats=DataStats(mu=model.mu, sigma=np.eye(N_V)))
    save_checkpoint(model, TrainConfig(n_hidden=N_H), directory / "checkpoint.rbm")
    return directory


def run_cli(argv):
    """(exit code, stderr) of an in-process rbm run, any warning an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", ["sample", "weights"])
@settings(max_examples=200, derandomize=True, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, N_FLOATS - 1),
                                st.sampled_from(SPECIALS)),
                      min_size=1, max_size=4))
def test_special_floats_end_in_pgm_or_one_error_line(fuzz_dir, command, edits):
    blob = bytearray((fuzz_dir / "checkpoint.rbm").read_bytes())
    for index, value in edits:
        struct.pack_into("<d", blob, 20 + 8 * index, value)
    path = fuzz_dir / f"{command}.rbm"
    path.write_bytes(resealed(bytes(blob)))
    out = fuzz_dir / f"{command}.pgm"
    out.unlink(missing_ok=True)
    code, err = run_cli([command, "--checkpoint", str(path), "--out", str(out)])
    if code == 0:
        assert err == ""
        assert read_pgm(out).size > 0
    else:
        assert code == 1 and not out.exists()
        assert err.startswith("error: ") and len(err.splitlines()) == 1


# a small IDX input: 20 synthetic 8x8 digits, a 16-byte header and 1280
# pixel bytes; the run options are fixed, so no drawn value makes a run long
IDX_COUNT, IDX_SIDE = 20, 8
PIXELS = IDX_COUNT * IDX_SIDE * IDX_SIDE
IDX = idx_image_bytes(synthetic_digits(np.random.default_rng(3), IDX_COUNT,
                                       side=IDX_SIDE)[0])
GZ = gzip.compress(IDX, mtime=0)
RUN_FLAGS = {
    "train": ["--n-hidden", "3", "--batch-size", "4", "--eval-batch", "4",
              "--epochs", "1"],
    "eval": ["--batch-size", "4", "--steps", "0,1"],
}
METRICS_HEADER = ["epoch", "energy_coefficient", "recon_error", "wall_ms"]
EVAL_HEADER = ["step", "recon_error", "energy_coefficient"]


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    """A directory holding the checkpoint of a run trained on IDX,
    run/checkpoint.rbm."""
    directory = tmp_path_factory.mktemp("fuzz_idx")
    (directory / "images.idx").write_bytes(IDX)
    code, err = run_cli(["train", "--data", str(directory / "images.idx"),
                         "--out", str(directory / "run"), *RUN_FLAGS["train"]])
    assert code == 0, err
    return directory


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_ends_cleanly(idx_dir, command, blob):
    """Run command on blob as its IDX data: exit 0 with well-formed outputs,
    or exit 1 with exactly one error: line and no output."""
    data = idx_dir / f"{command}.idx"
    data.write_bytes(blob)
    out = idx_dir / f"{command}.out"
    shutil.rmtree(out, ignore_errors=True)
    out.unlink(missing_ok=True)
    argv = [command, "--data", str(data), "--out", str(out), *RUN_FLAGS[command]]
    if command == "eval":
        argv += ["--checkpoint", str(idx_dir / "run" / "checkpoint.rbm")]
    code, err = run_cli(argv)
    if code != 0:
        assert code == 1 and not out.exists()
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        return
    assert err == ""
    if command == "train":
        model, _ = load_checkpoint(out / "checkpoint.rbm")
        assert model.n_h == 3
        header, *rows = read_csv(out / "metrics.csv")
        assert header == METRICS_HEADER
    else:
        header, *rows = read_csv(out)
        assert header == EVAL_HEADER and [r[0] for r in rows] == ["0", "1"]
    assert rows and all(math.isfinite(float(x)) for row in rows for x in row)


def edited_header(edits):
    """The IDX header with each (offset, value) of edits written in."""
    header = bytearray(IDX[:16])
    for offset, value in edits:
        header[offset] = value
    return bytes(header)


def dims_header(dims):
    """The IDX header with count, rows and cols replaced by dims."""
    return IDX[:4] + struct.pack(">III", *dims)


# count, rows and cols that multiply to the payload, so the header parses
DIVISORS = [d for d in range(1, PIXELS + 1) if PIXELS % d == 0]
FITTING_DIMS = st.sampled_from(DIVISORS).flatmap(
    lambda count: st.sampled_from([d for d in DIVISORS if PIXELS // count % d == 0])
    .map(lambda rows: (count, rows, PIXELS // count // rows)))
HEADERS = st.one_of(
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 255)),
             min_size=1, max_size=4).map(edited_header),
    FITTING_DIMS.map(dims_header),
    st.tuples(*[st.integers(0, 2**32 - 1)] * 3).map(dims_header))


@pytest.mark.parametrize("command", ["train", "eval"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(header=HEADERS)
def test_idx_header_mutations_end_cleanly(idx_dir, command, header):
    assert_ends_cleanly(idx_dir, command, header + IDX[16:])


@pytest.mark.parametrize("command", ["train", "eval"])
@settings(max_examples=50, derandomize=True, deadline=None)
@given(keep=st.integers(0, len(IDX) - 1))
def test_idx_truncations_end_cleanly(idx_dir, command, keep):
    assert_ends_cleanly(idx_dir, command, IDX[:keep])


@pytest.mark.parametrize("command", ["train", "eval"])
@settings(max_examples=50, derandomize=True, deadline=None)
@given(keep=st.integers(0, len(GZ) - 1))
def test_gzip_truncations_end_cleanly(idx_dir, command, keep):
    assert_ends_cleanly(idx_dir, command, GZ[:keep])


# any JSON value: scalars of every type, and small arrays and objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 1) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=3)
# values of the right type for each train option, legal but for some seeds
# and floats, and small enough that no run is long: epochs, n_hidden and
# batch_size are always drawn, since their defaults make a run of minutes or
# fail on 20 images; --data and --out are given on the command line, which
# wins over the file
TYPED_VALUES = {
    "epochs": st.integers(0, 1), "n_hidden": st.integers(1, 4),
    "batch_size": st.integers(1, 6), "eval_batch": st.integers(1, 6),
    "k": st.integers(0, 2),
    "subset": st.integers(0, IDX_COUNT + 1),
    "seed": st.sampled_from([0, 7, 2**64 - 1, 2**64]),
    "learning_rate": st.floats(1e-4, 1.0) | st.floats(),
}
ALWAYS = ("epochs", "n_hidden", "batch_size")
# a typed config with up to two keys of the train options set to any value
CONFIGS = st.tuples(
    st.fixed_dictionaries(
        {key: TYPED_VALUES[key] for key in ALWAYS},
        optional={key: TYPED_VALUES[key] for key in TYPED_VALUES
                  if key not in ALWAYS}),
    st.dictionaries(st.sampled_from(sorted(OPTIONS["train"])), JSON_VALUES,
                    max_size=2),
).map(lambda typed_and_any: {**typed_and_any[0], **typed_and_any[1]})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(config=CONFIGS)
def test_config_values_end_cleanly(idx_dir, config):
    conf = idx_dir / "config.json"
    conf.write_text(json.dumps(config))
    out = idx_dir / "config.out"
    shutil.rmtree(out, ignore_errors=True)
    code, err = run_cli(["train", "--data", str(idx_dir / "images.idx"),
                         "--out", str(out), "--config", str(conf)])
    assert code in (0, 1)
    if code == 0:
        assert err == ""
        assert (out / "checkpoint.rbm").is_file()
    else:
        assert err.startswith("error: ") and len(err.splitlines()) == 1
