"""MNIST-style IDX ingestion, spin binarization, and dataset statistics."""

import gzip
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .model import check_spins
from .sampling import make_rng

IDX_MAGIC_IMAGES = 0x00000803

# eigenvalue below this is treated as numerically zero rank
_RANK_TOL = 1e-12

# rows per block in binarize and compute_stats: their temporaries hold at
# most this many rows, never the whole dataset
_ROWS = 4096


class IdxParseError(ValueError):
    """Malformed IDX file; the message names the byte offset."""


@dataclass(frozen=True)
class Dataset:
    """Binarized images as spins, N x n_v with entries +/-1."""

    spins: np.ndarray

    def __post_init__(self):
        spins = np.atleast_2d(check_spins(self.spins, name="spins"))
        if spins.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        object.__setattr__(self, "spins", spins)

    @property
    def n(self):
        return self.spins.shape[0]

    @property
    def n_v(self):
        return self.spins.shape[1]


@dataclass(frozen=True)
class DataStats:
    """Empirical visible mean mu and a factor Q with Q Q^T = Sigma."""

    mu: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        Q = np.asarray(self.Q, dtype=np.float64)
        if mu.ndim != 1 or not np.all(np.isfinite(mu)):
            raise ValueError(f"mu must be a finite vector, got shape {mu.shape}")
        if Q.ndim != 2 or Q.shape[0] != mu.shape[0]:
            raise ValueError(f"Q shape {Q.shape} inconsistent with mu {mu.shape}")
        # NaN fails the comparison too; the sampler casts Q to float32
        if not np.all(np.abs(Q) <= np.finfo(np.float32).max):
            raise ValueError("Q entries must be finite and within float32 range")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "Q", Q)

    @cached_property
    def Q32(self):
        """Q cast to float32 for the sampler, once per DataStats."""
        return self.Q.astype(np.float32)


def _read_bytes(path):
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def load_idx(path):
    """Parse a big-endian IDX image file (gzip accepted).

    Returns the images as a (count, rows, cols) uint8 tensor.
    """
    raw = _read_bytes(path)
    if len(raw) < 4:
        raise IdxParseError(f"{path}: truncated header at offset 0")
    magic = int.from_bytes(raw[0:4], "big")
    if magic != IDX_MAGIC_IMAGES:
        raise IdxParseError(f"{path}: bad magic 0x{magic:08x} at offset 0")
    header_len = 16  # magic, then count, rows, cols as big-endian u32
    if len(raw) < header_len:
        raise IdxParseError(f"{path}: truncated dimensions at offset 4")
    dims = [int.from_bytes(raw[4 + 4 * i: 8 + 4 * i], "big") for i in range(3)]
    count = int(np.prod(dims, dtype=np.int64))
    if count < 0 or count > (1 << 40) or 0 in dims[1:]:
        raise IdxParseError(f"{path}: implausible dimensions {dims} at offset 4")
    if len(raw) != header_len + count:
        raise IdxParseError(
            f"{path}: payload has {len(raw) - header_len} bytes at offset "
            f"{header_len}, expected {count}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=header_len)
    return data.reshape(dims)


def binarize(images, threshold=0.5):
    """Map 0-255 pixels to spins: +1 where pixel/255 > threshold, else -1.

    Works in blocks of _ROWS rows, writing into one int8 array.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    images = np.asarray(images)
    flat = images.reshape(images.shape[0], -1)
    spins = np.empty(flat.shape, dtype=np.int8)
    for lo in range(0, flat.shape[0], _ROWS):
        out = spins[lo:lo + _ROWS]
        np.greater(flat[lo:lo + _ROWS] / 255.0, threshold, out=out.view(np.bool_))
        out += out  # {0, 1} -> {-1, +1}
        out -= 1
    return Dataset(spins=spins)


def compute_stats(dataset):
    """Column mean and eigendecomposition square root of the covariance.

    Sigma = (1/N) sum (v - mu)(v - mu)^T = G/N - mu mu^T, where the Gram
    G = S^T S of the spins is summed over blocks of _ROWS rows.  A float32
    block product holds integers of magnitude <= _ROWS < 2^24, so it is
    exact, and so is their float64 sum: Sigma does not depend on the row
    order or the BLAS thread count.  Q = V diag(sqrt(lambda)) over the
    eigenvalues above the rank tolerance (the rest, negative rounding
    included, are dropped), so Q is n_v x r with r <= n_v.
    Eigendecomposition rather than Cholesky because MNIST's Sigma is
    rank-deficient (constant border pixels).
    """
    spins = dataset.spins
    n, n_v = spins.shape
    if n < 2:
        raise ValueError("need at least 2 samples for covariance statistics")
    mu = spins.sum(axis=0, dtype=np.int64) / n
    sigma = np.zeros((n_v, n_v))
    for lo in range(0, n, _ROWS):
        block = spins[lo:lo + _ROWS].astype(np.float32)
        sigma += block.T @ block
    sigma /= n
    sigma -= np.outer(mu, mu)
    evals, evecs = np.linalg.eigh(sigma)
    keep = evals > _RANK_TOL
    Q = evecs[:, keep] * np.sqrt(evals[keep])
    return DataStats(mu=mu, Q=Q)


def minibatches(dataset, batch_size, seed, epoch):
    """Yield the epoch's minibatches under a seeded permutation.

    The permutation depends only on (seed, epoch).  The final short batch
    is kept.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if batch_size > dataset.n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {dataset.n}")
    order = make_rng(seed, 0x6D696E69, epoch).permutation(dataset.n)
    for lo in range(0, dataset.n, batch_size):
        yield dataset.spins[order[lo:lo + batch_size]]
