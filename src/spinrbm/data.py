"""MNIST-style IDX ingestion, spin binarization, and dataset statistics.

A dataset is an N x n_v int8 array of +/-1 spins, one row per image."""

import gzip
import math
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .model import check_float32_range, check_spins, spins_from_mask
from .sampling import make_rng
from .workers import split_rows

IDX_MAGIC_IMAGES = 0x00000803

# rows per block in compute_stats: each worker's float32 block holds at most
# this many rows, never the whole dataset
_ROWS = 4096


@dataclass(frozen=True)
class DataStats:
    """Visible mean mu and covariance sigma (n_v x n_v) of an RbmModel's data.

    mu and sigma hold finite entries within float32 range, and sigma is
    exactly symmetric: the samplers cast them to float32 (sigma32).
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if mu.ndim != 1:
            raise ValueError(f"mu must be a vector, got shape {mu.shape}")
        if sigma.shape != (mu.shape[0],) * 2:
            raise ValueError(
                f"sigma shape {sigma.shape} inconsistent with mu {mu.shape}")
        check_float32_range(mu, "mu")
        check_float32_range(sigma, "sigma")
        if not np.array_equal(sigma, sigma.T):
            raise ValueError("sigma must be symmetric")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @cached_property
    def sigma32(self):
        """sigma cast to float32 for the sampler, once per DataStats."""
        return self.sigma.astype(np.float32)


def _read_bytes(path):
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{path}: corrupt gzip data: {exc}") from exc
    return raw


def load_idx(path):
    """Parse a big-endian IDX image file (gzip accepted).

    Returns the images as a (count, rows, cols) uint8 tensor.
    """
    raw = _read_bytes(path)
    if len(raw) < 4:
        raise ValueError(f"{path}: truncated header at offset 0")
    magic = int.from_bytes(raw[0:4], "big")
    if magic != IDX_MAGIC_IMAGES:
        raise ValueError(f"{path}: bad magic 0x{magic:08x} at offset 0")
    header_len = 16  # magic, then count, rows, cols as big-endian u32
    if len(raw) < header_len:
        raise ValueError(f"{path}: truncated dimensions at offset 4")
    dims = [int.from_bytes(raw[4 + 4 * i: 8 + 4 * i], "big") for i in range(3)]
    count = math.prod(dims)
    if 0 in dims or count > (1 << 40):
        raise ValueError(f"{path}: implausible dimensions {dims} at offset 4")
    if len(raw) != header_len + count:
        raise ValueError(
            f"{path}: payload has {len(raw) - header_len} bytes at offset "
            f"{header_len}, expected {count}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=header_len)
    return data.reshape(dims)


def binarize(images, threshold=0.5):
    """Map uint8 images to int8 spin rows: +1 where pixel/255 > threshold.

    pixel/255 rises with the pixel: the +1 pixels are those >= one cutoff.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    try:
        images = np.asarray(images)
    except ValueError:  # numpy's "inhomogeneous shape" for a ragged list
        raise ValueError("images: entries of unequal shape") from None
    if images.ndim == 0:
        raise ValueError("images: expected an array of images, got a scalar")
    if images.dtype != np.uint8:
        raise ValueError(f"binarize takes uint8 pixels, got {images.dtype}")
    cutoff = int(np.count_nonzero(np.arange(256) / 255.0 <= threshold))
    above = images.reshape(images.shape[0], math.prod(images.shape[1:])) >= cutoff
    if above.size == 0:
        raise ValueError(f"spins: empty batch, shape {above.shape}")
    return spins_from_mask(above)


def compute_stats(spins):
    """Column mean mu and covariance sigma of an N x n_v spin array.

    sigma = (1/N) sum (v - mu)(v - mu)^T = G/N - mu mu^T, where the Gram
    G = S^T S of the spins is summed over blocks of _ROWS rows, each row
    half of the spins on one of the two workers.  A float32 block product
    holds integers of magnitude <= _ROWS < 2^24, so it is exact, and so is
    their float64 sum: G is the integer Gram, and sigma is exactly
    symmetric and does not depend on the row order, the split or the BLAS
    thread count.
    """
    spins = check_spins(spins, name="spins")
    n = spins.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples for covariance statistics")
    mu = spins.sum(axis=0, dtype=np.int64) / n
    sigma, *rest = split_rows(lambda lo, hi: _gram(spins[lo:hi]), n)
    for gram in rest:
        sigma += gram
    sigma /= n
    sigma -= np.outer(mu, mu)
    return DataStats(mu=mu, sigma=sigma)


def _gram(spins):
    """The integer Gram S^T S of a spin array, in float64, summed over
    float32 blocks of at most _ROWS rows."""
    gram = np.zeros((spins.shape[1],) * 2)
    for lo in range(0, spins.shape[0], _ROWS):
        block = spins[lo:lo + _ROWS].astype(np.float32)
        gram += block.T @ block
    return gram


def minibatches(spins, batch_size, seed, epoch):
    """Yield the epoch's minibatches of rows under a seeded permutation.

    Only the row count of spins is read.  The permutation depends only on
    (seed, epoch).  The final short batch is kept.
    """
    n = len(spins)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
    order = make_rng(seed, 0x6D696E69, epoch).permutation(n)
    for lo in range(0, n, batch_size):
        yield spins[order[lo:lo + batch_size]]
