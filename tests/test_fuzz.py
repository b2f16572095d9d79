"""Fuzz the checkpoint consumers of the CLI: special floats written into the
arrays of a valid checkpoint must end in a PGM (exit 0) or in exactly one
``error:`` line (exit 1), never in a traceback or a warning."""

import contextlib
import io
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model, resealed
from spinrbm.cli import main
from spinrbm.data import DataStats
from spinrbm.images import read_pgm
from spinrbm.training import TrainConfig, save_checkpoint

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
