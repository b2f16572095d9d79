"""Benchmark inputs: synthetic 28x28 digit images written as an IDX file.

The generator is the one ``tests/conftest.py::synthetic_digits`` uses (the
input of the determinism acceptance test); ``selftest.py`` checks that the
two still produce the same bytes.  It is copied rather than imported so the
benchmark does not depend on pytest fixtures.
"""

import hashlib
import struct

import numpy as np

N_IMAGES = 12000
IDX_NAME = "train-images-idx3-ubyte"


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


def idx_image_bytes(images):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes()


def write_digit_idx(directory, seed, n=N_IMAGES):
    """Write ``n`` images from ``seed`` into ``directory``; return the
    file's size and sha256 for the machine record."""
    images, _ = synthetic_digits(np.random.default_rng(seed), n)
    blob = idx_image_bytes(images)
    (directory / IDX_NAME).write_bytes(blob)
    return {"file": IDX_NAME, "images": n, "bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest()}
