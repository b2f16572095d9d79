import gzip
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spinrbm
from conftest import idx_image_bytes, synthetic_digits
from spinrbm.data import (_ROWS, DataStats, binarize, compute_stats,
                          load_idx, minibatches)


def biased_spins(rng, n, n_v):
    """Spins with a different +1 probability per column."""
    p = rng.uniform(0.05, 0.95, n_v)
    return np.where(rng.random((n, n_v)) < p, 1, -1).astype(np.int8)


class TestLoadIdx:
    def test_minimal_image_file(self, tmp_path):
        payload = struct.pack(">IIII", 0x803, 1, 2, 2) + bytes([0, 100, 200, 255])
        p = tmp_path / "img"
        p.write_bytes(payload)
        images = load_idx(p)
        assert images.shape == (1, 2, 2)
        assert images[0].tolist() == [[0, 100], [200, 255]]

    def test_gzip_variant(self, tmp_path):
        images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        p = tmp_path / "img.gz"
        p.write_bytes(gzip.compress(idx_image_bytes(images)))
        assert np.array_equal(load_idx(p), images)

    @pytest.mark.parametrize("damage", ["truncated", "deflate", "crc"])
    def test_corrupt_gzip(self, tmp_path, damage):
        blob = bytearray(gzip.compress(idx_image_bytes(np.zeros((8, 2, 2)))))
        if damage == "truncated":
            del blob[len(blob) // 2:]
        elif damage == "deflate":
            blob[10] |= 0b110  # the first block's type becomes the reserved 3
        else:
            blob[-8] ^= 0xFF  # the CRC32 of the trailer
        p = tmp_path / "img.gz"
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="img.gz: corrupt gzip data"):
            load_idx(p)

    def test_truncated_payload(self, tmp_path):
        payload = struct.pack(">IIII", 0x803, 1, 2, 2) + bytes([0, 1])
        p = tmp_path / "img"
        p.write_bytes(payload)
        with pytest.raises(ValueError, match="offset 16"):
            load_idx(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "img"
        p.write_bytes(b"")
        with pytest.raises(ValueError, match="offset 0"):
            load_idx(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "img"
        for payload in (struct.pack(">IIII", 0xDEAD, 1, 1, 1) + b"\x00",
                        # an IDX label file: only image files are read
                        struct.pack(">II", 0x801, 3) + bytes([3, 1, 4])):
            p.write_bytes(payload)
            with pytest.raises(ValueError, match="bad magic"):
                load_idx(p)

    def test_images_without_pixels(self, tmp_path):
        p = tmp_path / "img"
        # 2^31 * 2^31 * 4 = 2^64 is 0 pixels in int64 arithmetic
        for dims in ((100, 0, 0), (100, 28, 0), (100, 0, 28), (0, 28, 28),
                     (1 << 31, 1 << 31, 4)):
            p.write_bytes(struct.pack(">IIII", 0x803, *dims))
            with pytest.raises(ValueError, match="implausible dimensions"):
                load_idx(p)


class TestBinarize:
    def test_all_zero(self):
        spins = binarize(np.zeros((2, 2, 2), dtype=np.uint8))
        assert spins.dtype == np.int8 and spins.shape == (2, 4)
        assert np.all(spins == -1)

    def test_all_max(self):
        assert np.all(binarize(np.full((2, 2, 2), 255, dtype=np.uint8)) == 1)

    def test_midpoint_pixel(self):
        # 128/255 ~ 0.502 > 0.5 -> +1; 127/255 < 0.5 -> -1
        assert binarize(np.array([[[128, 127]]], dtype=np.uint8)).tolist() == [[1, -1]]

    def test_idempotent_roundtrip(self, rng):
        images = rng.integers(0, 256, (5, 3, 3)).astype(np.uint8)
        spins = binarize(images)
        back = ((spins.astype(int) + 1) // 2 * 255).astype(np.uint8).reshape(5, 3, 3)
        assert np.array_equal(binarize(back), spins)

    def test_no_images_rejected(self):
        with pytest.raises(ValueError, match="spins: empty batch"):
            binarize(np.zeros((0, 28, 28), dtype=np.uint8))

    def test_matches_reference_for_every_pixel_value(self, rng):
        # more rows than one block, every pixel value 0..255 present
        images = rng.integers(0, 256, (2 * _ROWS + 3, 2, 128)).astype(np.uint8)
        images[0] = np.arange(256).reshape(2, 128)
        ref = np.where(images.reshape(len(images), -1) / 255.0 > 0.5, 1, -1)
        spins = binarize(images)
        assert spins.dtype == np.int8
        assert np.array_equal(spins, ref)

    def test_ragged_input_names_images(self, rng):
        # a ragged list, and the (images, labels) pair of synthetic_digits
        pair = synthetic_digits(rng, 5)
        for ragged in ([[1, 2, 3], [4, 5]], pair):
            with pytest.raises(ValueError,
                               match="^images: entries of unequal shape$"):
                binarize(ragged)
        # a scalar, and a flattened image, which would read as one-pixel rows
        for flat in (np.uint8(200), np.array([200, 10, 128], np.uint8)):
            line = f"images: expected an array of images, got shape {flat.shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
                binarize(flat)
        assert np.array_equal(binarize(pair[0]), binarize(list(pair[0])))

    @pytest.mark.parametrize("dtype", ["float32", "float64", "int64"])
    def test_rejects_other_dtypes(self, rng, dtype):
        images = rng.uniform(0, 255, (7, 5, 5)).astype(dtype)
        with pytest.raises(ValueError, match=f"uint8 pixels, got {dtype}$"):
            binarize(images)


class TestComputeStats:
    def test_constant_dataset(self):
        stats = compute_stats(np.ones((5, 3), dtype=np.int8))
        assert np.array_equal(stats.sigma, np.zeros((3, 3)))
        assert stats.mu == pytest.approx([1, 1, 1])

    def test_two_point_hand_case(self):
        stats = compute_stats(np.array([[1, 1], [-1, -1]], dtype=np.int8))
        assert stats.mu == pytest.approx([0, 0])
        # both spins always agree: every entry of Sigma is 1, exactly
        assert np.array_equal(stats.sigma, np.ones((2, 2)))

    def test_reconstruction(self, rng):
        spins = np.where(rng.random((10, 6)) < 0.5, 1, -1).astype(np.int8)
        stats = compute_stats(spins)
        centered = spins.astype(float) - stats.mu
        sigma = centered.T @ centered / 10
        assert np.abs(stats.sigma - sigma).max() < 1e-10

    def test_psd_by_construction(self, rng):
        spins = np.where(rng.random((30, 5)) < 0.3, 1, -1).astype(np.int8)
        stats = compute_stats(spins)
        evals = np.linalg.eigvalsh(stats.sigma)
        assert evals.min() > -1e-12

    def test_row_permutation_invariance(self, rng):
        # byte-identical, over more rows than one block
        spins = biased_spins(rng, 2 * _ROWS + 5, 48)
        a = compute_stats(spins)
        b = compute_stats(spins[rng.permutation(len(spins))])
        assert a.mu.tobytes() == b.mu.tobytes()
        assert a.sigma.tobytes() == b.sigma.tobytes()

    @pytest.mark.parametrize("n_constant", [0, 14])
    def test_matches_centered_reference(self, rng, n_constant):
        spins = biased_spins(rng, 2 * _ROWS + 5, 48)
        # constant pixels, as on MNIST's border, make Sigma rank-deficient
        spins[:, :n_constant // 2] = 1
        spins[:, 48 - n_constant // 2:] = -1
        stats = compute_stats(spins)
        assert np.linalg.matrix_rank(stats.sigma) == 48 - n_constant
        assert np.array_equal(stats.mu, spins.astype(np.float64).mean(axis=0))
        centered = spins - spins.mean(axis=0)
        sigma = centered.T @ centered / len(spins)
        assert np.abs(stats.sigma - sigma).max() < 1e-12

    def test_bitwise_equal_to_integer_gram_reference(self, rng):
        # over more rows than one block: the blockwise float32 Gram is the
        # int64 Gram, so Sigma = G/N - mu mu^T to the last bit, and exactly
        # symmetric
        spins = biased_spins(rng, 2 * _ROWS + 5, 48)
        gram = spins.T.astype(np.int64) @ spins.astype(np.int64)
        mu = spins.sum(axis=0, dtype=np.int64) / len(spins)
        ref = gram / len(spins) - np.outer(mu, mu)
        sigma = compute_stats(spins).sigma
        assert sigma.tobytes() == ref.tobytes()
        assert np.array_equal(sigma, sigma.T)

    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        # the block product of each row half of _ROWS + 5 rows x 300 units
        # is large enough for OpenBLAS to split it over two threads
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from spinrbm.data import compute_stats\n"
            "rng = np.random.default_rng(5)\n"
            "p = rng.uniform(0.05, 0.95, 300)\n"
            f"spins = np.where(rng.random(({_ROWS + 5}, 300)) < p, 1, -1)\n"
            "stats = compute_stats(spins.astype(np.int8))\n"
            "open(sys.argv[1], 'wb').write(stats.sigma.tobytes())\n")
        src = str(Path(spinrbm.__file__).parent.parent)
        blobs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS":
                   threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads}
            out = tmp_path / f"sigma{threads}.bin"
            subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                           check=True)
            blobs.append(out.read_bytes())
        assert len(blobs[0]) == 300 * 300 * 8
        assert blobs[0] == blobs[1]

    def test_peak_memory_below_one_float64_copy(self, rng):
        images = rng.integers(0, 256, (12000, 28, 28)).astype(np.uint8)
        float64_copy = images.size * 8
        tracemalloc.start()
        try:
            compute_stats(binarize(images))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < float64_copy

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            compute_stats(np.ones((1, 3), dtype=np.int8))


class TestDataStats:
    @pytest.mark.parametrize("mu, sigma, reason", [
        (np.full(2, np.nan), np.eye(2),
         "mu entries must be finite and within float32 range"),
        (np.full(2, 1e200), np.eye(2),
         "mu entries must be finite and within float32 range"),
        (np.zeros((2, 2)), np.eye(2), "mu must be a vector"),
        (np.zeros(2), np.eye(3), "inconsistent with mu"),
        (np.zeros(2), np.zeros(2), "inconsistent with mu"),
        (np.zeros(2), np.full((2, 2), np.nan), "within float32 range"),
        (np.zeros(2), np.full((2, 2), -np.inf), "within float32 range"),
        (np.zeros(2), np.full((2, 2), 1e200), "within float32 range"),
        (np.zeros(2), np.zeros((2, 3)), "inconsistent with mu"),
        (np.zeros(2), np.array([[1.0, 0.5], [0.5 + 1e-16, 1.0]]),
         "sigma must be symmetric"),
    ], ids=["nan_mu", "overflowing_mu", "matrix_mu", "sigma_rows",
            "vector_sigma", "nan_sigma", "inf_sigma", "overflowing_sigma",
            "non_square_sigma", "asymmetric_sigma"])
    def test_rejects_unusable_statistics(self, mu, sigma, reason):
        with pytest.raises(ValueError, match=reason):
            DataStats(mu=mu, sigma=sigma)

    def test_float32_extreme_accepted(self):
        top = np.finfo(np.float32).max
        stats = DataStats(mu=np.zeros(2), sigma=np.full((2, 2), -float(top)))
        assert stats.sigma32.dtype == np.float32
        assert np.all(stats.sigma32 == -top)


class TestMinibatches:
    def _spins(self, rng, n=17, n_v=4):
        return np.where(rng.random((n, n_v)) < 0.5, 1, -1).astype(np.int8)

    def test_full_batch_is_permutation(self, rng):
        spins = self._spins(rng)
        (batch,) = list(minibatches(spins, len(spins), seed=1, epoch=0))
        assert sorted(map(tuple, batch)) == sorted(map(tuple, spins))

    def test_partition_property(self, rng):
        spins = self._spins(rng)
        seen = [tuple(row) for b in minibatches(spins, 5, seed=1, epoch=2) for row in b]
        assert len(seen) == len(spins)
        assert sorted(seen) == sorted(map(tuple, spins))

    def test_short_final_batch_kept(self, rng):
        spins = self._spins(rng, n=10)
        sizes = [len(b) for b in minibatches(spins, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_determinism(self, rng):
        spins = self._spins(rng)
        a = [b.copy() for b in minibatches(spins, 5, seed=3, epoch=1)]
        b = [c.copy() for c in minibatches(spins, 5, seed=3, epoch=1)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_epoch_changes_order(self, rng):
        spins = self._spins(rng, n=50)
        a = next(iter(minibatches(spins, 50, seed=3, epoch=1)))
        b = next(iter(minibatches(spins, 50, seed=3, epoch=2)))
        assert not np.array_equal(a, b)

    def test_zero_batch_size_rejected(self, rng):
        with pytest.raises(ValueError):
            list(minibatches(self._spins(rng), 0, seed=0, epoch=0))

    def test_batch_larger_than_the_rows_rejected(self, rng):
        with pytest.raises(ValueError,
                           match="batch_size 18 exceeds dataset size 17"):
            list(minibatches(self._spins(rng, n=17), 18, seed=0, epoch=0))
