"""Shared fixtures: random tiny models, synthetic IDX files, brute-force
oracles kept deliberately independent of the library code paths."""

import itertools
import json
import math
import struct

import numpy as np
import pytest

from spinrbm.model import RbmModel


def random_model(rng, n_v, n_h, scale=0.5, centered=True):
    mu = np.zeros(n_v) if centered else rng.uniform(-0.9, 0.9, n_v)
    return RbmModel(W=rng.normal(0, scale, (n_v, n_h)),
                    b=rng.normal(0, scale, n_v), mu=mu)


def random_spins(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1, -1).astype(np.int8)


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
    """Checkpoint bytes whose trailing config block is replaced by fields."""
    old = json.dumps(config.__dict__, sort_keys=True).encode()
    assert blob.endswith(old)
    new = json.dumps(fields).encode()
    return blob[:-len(old) - 4] + struct.pack("<I", len(new)) + new


# --- synthetic IDX data ---

def idx_image_bytes(images):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes()


def synthetic_digits(rng, n, side=28, n_templates=10, flip=0.05):
    """Digit-like binary images: smooth random blob templates plus flip noise."""
    yy, xx = np.mgrid[0:side, 0:side]
    templates = []
    for _ in range(n_templates):
        img = np.zeros((side, side))
        for _ in range(3):
            cy, cx = rng.uniform(side * 0.2, side * 0.8, 2)
            r = rng.uniform(side * 0.1, side * 0.25)
            img += np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r ** 2)))
        templates.append((img > np.median(img)).astype(np.uint8) * 255)
    templates = np.stack(templates)
    labels = rng.integers(0, n_templates, n)
    images = templates[labels]
    noisy = rng.random(images.shape) < flip
    return np.where(noisy, 255 - images, images).astype(np.uint8), labels


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def synthetic_idx_dir(tmp_path):
    """Directory with an IDX train image file of synthetic digit-like data."""
    gen = np.random.default_rng(99)
    images, _ = synthetic_digits(gen, 2000)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(idx_image_bytes(images))
    return tmp_path
