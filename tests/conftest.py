"""Shared fixtures: random tiny models, synthetic IDX files, brute-force
oracles kept deliberately independent of the library code paths."""

import importlib.util
import itertools
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from spinrbm.data import DataStats
from spinrbm.model import RbmModel


def stats_at(mu):
    """DataStats with mean mu and a zero covariance, for a model whose
    belief generation a test does not depend on."""
    mu = np.asarray(mu, dtype=np.float64)
    return DataStats(mu=mu, sigma=np.zeros((mu.size, mu.size)))


def random_model(rng, n_v, n_h, scale=0.5, centered=True):
    mu = np.zeros(n_v) if centered else rng.uniform(-0.9, 0.9, n_v)
    return RbmModel(W=rng.normal(0, scale, (n_v, n_h)),
                    b=rng.normal(0, scale, n_v), stats=stats_at(mu))


def random_spins(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1, -1).astype(np.int8)


def random_sigma(rng, n_v, rank):
    """An exactly symmetric n_v x n_v covariance of the given rank."""
    a = rng.normal(size=(n_v, rank))
    sigma = a @ a.T
    return (sigma + sigma.T) / 2


# --- brute-force oracles (plain python loops, no shared code with spinrbm) ---

def brute_energy(model, v, h):
    e = 0.0
    for j in range(model.n_v):
        e -= model.b[j] * (v[j] - model.mu[j])
    for j in range(model.n_v):
        for i in range(model.n_h):
            e -= (v[j] - model.mu[j]) * model.W[j, i] * h[i]
    return e


def brute_visible_probs(model):
    """Exact p(v) for every visible configuration, as a dict keyed by tuple."""
    weights = {}
    total = 0.0
    for v in itertools.product((-1, 1), repeat=model.n_v):
        s = 0.0
        for h in itertools.product((-1, 1), repeat=model.n_h):
            s += math.exp(-brute_energy(model, v, h))
        weights[v] = s
        total += s
    return {v: w / total for v, w in weights.items()}


def brute_nll(model, dataset):
    probs = brute_visible_probs(model)
    return -sum(math.log(probs[tuple(int(x) for x in row)]) for row in dataset) / len(dataset)


def brute_hidden_mean(model, v):
    """<h|v> by enumerating p(h|v) over all hidden states."""
    num = np.zeros(model.n_h)
    den = 0.0
    for h in itertools.product((-1, 1), repeat=model.n_h):
        w = math.exp(-brute_energy(model, v, h))
        num += w * np.array(h)
        den += w
    return num / den


# --- checkpoint bytes ---

def with_config(blob, config, fields):
    """Checkpoint bytes whose trailing config block is replaced by fields,
    or by JSON text as given."""
    old = json.dumps(config.__dict__, sort_keys=True).encode()
    assert blob.endswith(old)
    new = (fields if isinstance(fields, str) else json.dumps(fields)).encode()
    return resealed(blob[:-len(old) - 4] + struct.pack("<I", len(new)) + new)


def resealed(blob):
    """Checkpoint bytes with the header checksum recomputed, so that an
    edited payload reaches the checks behind it."""
    crc = zlib.crc32(blob[12:])
    return blob[:8] + struct.pack("<I", crc) + blob[12:]


# --- PGM output ---

def read_pgm(path):
    """The pixels of a PGM with the exact header write_pgm writes,
    P5\\n<w> <h>\\n255\\n; any other header fails."""
    magic, size, maxval, pixels = Path(path).read_bytes().split(b"\n", 3)
    width, height = (int(x) for x in size.split(b" "))
    assert (magic, size, maxval) == (b"P5", b"%d %d" % (width, height), b"255")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


# --- synthetic IDX data: the benchmark's digit generator, loaded by path ---

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py")
_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_inputs)
idx_image_bytes = _inputs.idx_image_bytes
synthetic_digits = _inputs.synthetic_digits


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def write_synthetic_idx(directory):
    """Write an IDX train image file of 2000 synthetic digit-like images
    into directory; returns the directory."""
    _inputs.write_digit_idx(directory, 99, 2000)
    return directory


@pytest.fixture
def synthetic_idx_dir(tmp_path):
    """Directory with an IDX train image file of synthetic digit-like data."""
    return write_synthetic_idx(tmp_path)
