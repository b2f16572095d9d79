import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import idx_image_bytes
from spinrbm.data import (_ROWS, DataStats, Dataset, IdxParseError, binarize,
                          compute_stats, load_idx, minibatches)


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

    def test_truncated_payload(self, tmp_path):
        payload = struct.pack(">IIII", 0x803, 1, 2, 2) + bytes([0, 1])
        p = tmp_path / "img"
        p.write_bytes(payload)
        with pytest.raises(IdxParseError, match="offset 16"):
            load_idx(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "img"
        p.write_bytes(b"")
        with pytest.raises(IdxParseError, match="offset 0"):
            load_idx(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "img"
        for payload in (struct.pack(">IIII", 0xDEAD, 1, 1, 1) + b"\x00",
                        # an IDX label file: only image files are read
                        struct.pack(">II", 0x801, 3) + bytes([3, 1, 4])):
            p.write_bytes(payload)
            with pytest.raises(IdxParseError, match="bad magic"):
                load_idx(p)

    def test_images_without_pixels(self, tmp_path):
        p = tmp_path / "img"
        for dims in ((100, 0, 0), (100, 28, 0), (100, 0, 28)):
            p.write_bytes(struct.pack(">IIII", 0x803, *dims))
            with pytest.raises(IdxParseError, match="implausible dimensions"):
                load_idx(p)


class TestBinarize:
    def test_all_zero(self):
        ds = binarize(np.zeros((2, 2, 2), dtype=np.uint8))
        assert np.all(ds.spins == -1)

    def test_all_max(self):
        ds = binarize(np.full((2, 2, 2), 255, dtype=np.uint8))
        assert np.all(ds.spins == 1)

    def test_midpoint_pixel(self):
        # 128/255 ~ 0.502 > 0.5 -> +1; 127/255 < 0.5 -> -1
        ds = binarize(np.array([[[128, 127]]], dtype=np.uint8))
        assert ds.spins.tolist() == [[1, -1]]

    def test_threshold_flag(self):
        ds = binarize(np.array([[[128]]], dtype=np.uint8), threshold=0.9)
        assert ds.spins.tolist() == [[-1]]

    def test_idempotent_roundtrip(self, rng):
        images = rng.integers(0, 256, (5, 3, 3)).astype(np.uint8)
        ds = binarize(images)
        back = ((ds.spins.astype(int) + 1) // 2 * 255).astype(np.uint8).reshape(5, 3, 3)
        assert np.array_equal(binarize(back).spins, ds.spins)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            binarize(np.zeros((1, 1, 1), dtype=np.uint8), threshold=1.0)

    @pytest.mark.parametrize("threshold", [0.01, 0.25, 0.5, 127 / 255, 0.99])
    def test_matches_reference_for_every_pixel_value(self, rng, threshold):
        # more rows than one block, every pixel value 0..255 present
        images = rng.integers(0, 256, (2 * _ROWS + 3, 2, 128)).astype(np.uint8)
        images[0] = np.arange(256).reshape(2, 128)
        ref = np.where(images.reshape(len(images), -1) / 255.0 > threshold, 1, -1)
        spins = binarize(images, threshold).spins
        assert spins.dtype == np.int8
        assert np.array_equal(spins, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_matches_reference_for_other_dtypes(self, rng, dtype):
        images = rng.uniform(0, 255, (_ROWS + 7, 5, 5)).astype(dtype)
        ref = np.where(images.reshape(len(images), -1) / 255.0 > 0.3, 1, -1)
        assert np.array_equal(binarize(images, 0.3).spins, ref)


class TestComputeStats:
    def test_constant_dataset(self):
        ds = Dataset(spins=np.ones((5, 3), dtype=np.int8))
        stats = compute_stats(ds)
        assert stats.Q.shape == (3, 0)
        assert stats.mu == pytest.approx([1, 1, 1])

    def test_two_point_hand_case(self):
        ds = Dataset(spins=np.array([[1, 1], [-1, -1]], dtype=np.int8))
        stats = compute_stats(ds)
        assert stats.mu == pytest.approx([0, 0])
        assert stats.Q.shape == (2, 1)
        # eigenvalue 2, eigenvector (1,1)/sqrt(2) -> Q column (1,1) up to sign
        assert np.abs(stats.Q[:, 0]) == pytest.approx([1, 1])
        assert stats.Q[0, 0] == pytest.approx(stats.Q[1, 0])

    def test_reconstruction(self, rng):
        spins = np.where(rng.random((10, 6)) < 0.5, 1, -1).astype(np.int8)
        ds = Dataset(spins=spins)
        stats = compute_stats(ds)
        centered = spins.astype(float) - stats.mu
        sigma = centered.T @ centered / 10
        assert np.abs(stats.Q @ stats.Q.T - sigma).max() < 1e-10

    def test_psd_by_construction(self, rng):
        spins = np.where(rng.random((30, 5)) < 0.3, 1, -1).astype(np.int8)
        stats = compute_stats(Dataset(spins=spins))
        evals = np.linalg.eigvalsh(stats.Q @ stats.Q.T)
        assert evals.min() > -1e-12

    def test_row_permutation_invariance(self, rng):
        # byte-identical, over more rows than one block
        spins = biased_spins(rng, 2 * _ROWS + 5, 48)
        a = compute_stats(Dataset(spins=spins))
        b = compute_stats(Dataset(spins=spins[rng.permutation(len(spins))]))
        assert a.mu.tobytes() == b.mu.tobytes()
        assert a.Q.tobytes() == b.Q.tobytes()

    @pytest.mark.parametrize("n_constant", [0, 14])
    def test_matches_centered_reference(self, rng, n_constant):
        spins = biased_spins(rng, 2 * _ROWS + 5, 48)
        # constant pixels, as on MNIST's border, make Sigma rank-deficient
        spins[:, :n_constant // 2] = 1
        spins[:, 48 - n_constant // 2:] = -1
        stats = compute_stats(Dataset(spins=spins))
        assert stats.Q.shape == (48, 48 - n_constant)
        assert np.array_equal(stats.mu, spins.astype(np.float64).mean(axis=0))
        centered = spins - spins.mean(axis=0)
        sigma = centered.T @ centered / len(spins)
        assert np.abs(stats.Q @ stats.Q.T - sigma).max() < 1e-12

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
            compute_stats(Dataset(spins=np.ones((1, 3), dtype=np.int8)))


class TestDataStats:
    @pytest.mark.parametrize("mu, Q, reason", [
        (np.full(2, np.nan), np.eye(2), "mu must be a finite vector"),
        (np.zeros((2, 2)), np.eye(2), "mu must be a finite vector"),
        (np.zeros(2), np.eye(3), "inconsistent with mu"),
        (np.zeros(2), np.zeros(2), "inconsistent with mu"),
        (np.zeros(2), np.full((2, 2), np.nan), "within float32 range"),
        (np.zeros(2), np.full((2, 2), -np.inf), "within float32 range"),
        (np.zeros(2), np.full((2, 2), 1e200), "within float32 range"),
    ], ids=["nan_mu", "matrix_mu", "q_rows", "vector_q", "nan_q", "inf_q",
            "overflowing_q"])
    def test_rejects_unusable_statistics(self, mu, Q, reason):
        with pytest.raises(ValueError, match=reason):
            DataStats(mu=mu, Q=Q)

    def test_float32_extreme_accepted(self):
        top = np.finfo(np.float32).max
        stats = DataStats(mu=np.zeros(2), Q=np.full((2, 1), -float(top)))
        assert np.all(stats.Q32 == -top)


class TestMinibatches:
    def _dataset(self, rng, n=17, n_v=4):
        spins = np.where(rng.random((n, n_v)) < 0.5, 1, -1).astype(np.int8)
        return Dataset(spins=spins)

    def test_full_batch_is_permutation(self, rng):
        ds = self._dataset(rng)
        (batch,) = list(minibatches(ds, ds.n, seed=1, epoch=0))
        assert sorted(map(tuple, batch)) == sorted(map(tuple, ds.spins))

    def test_partition_property(self, rng):
        ds = self._dataset(rng)
        seen = [tuple(row) for b in minibatches(ds, 5, seed=1, epoch=2) for row in b]
        assert len(seen) == ds.n
        assert sorted(seen) == sorted(map(tuple, ds.spins))

    def test_short_final_batch_kept(self, rng):
        ds = self._dataset(rng, n=10)
        sizes = [len(b) for b in minibatches(ds, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_determinism(self, rng):
        ds = self._dataset(rng)
        a = [b.copy() for b in minibatches(ds, 5, seed=3, epoch=1)]
        b = [c.copy() for c in minibatches(ds, 5, seed=3, epoch=1)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_epoch_changes_order(self, rng):
        ds = self._dataset(rng, n=50)
        a = next(iter(minibatches(ds, 50, seed=3, epoch=1)))
        b = next(iter(minibatches(ds, 50, seed=3, epoch=2)))
        assert not np.array_equal(a, b)

    def test_zero_batch_size_rejected(self, rng):
        with pytest.raises(ValueError):
            list(minibatches(self._dataset(rng), 0, seed=0, epoch=0))
