from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model, random_spins, stats_at
from spinrbm.data import compute_stats
from spinrbm.metrics import energy_coefficient, eval_curve, recon_error
from spinrbm.model import RbmModel
from spinrbm.sampling import gibbs_chain, make_rng


def brute_coefficient(x, y):
    """Independent all-pairs evaluation with explicit loops."""
    def mean_dist(a, b):
        total = 0.0
        for p in a:
            for q in b:
                total += np.sqrt(((p - q) ** 2).sum())
        return total / (len(a) * len(b))

    d_xy = mean_dist(x.astype(float), y.astype(float))
    if d_xy == 0:
        return 0.0
    return (2 * d_xy - mean_dist(x.astype(float), x.astype(float))
            - mean_dist(y.astype(float), y.astype(float))) / (2 * d_xy)


def float64_coefficient(x, y):
    """The float64 all-pairs formula, with the same operation order as the
    library, for bit-for-bit comparison: d_xy sums the row halves of x."""
    def dist_sum(a, b):
        a, b = a.astype(np.float64), b.astype(np.float64)
        sq = 2.0 * (a.shape[1] - a @ b.T)
        np.maximum(sq, 0.0, out=sq)
        return float(np.sqrt(sq).sum())

    half = len(x) // 2
    d_xy = (dist_sum(x[:half], y) + dist_sum(x[half:], y)) / (len(x) * len(y))
    if d_xy == 0.0:
        return 0.0
    return (2.0 * d_xy - dist_sum(x, x) / len(x) ** 2
            - dist_sum(y, y) / len(y) ** 2) / (2.0 * d_xy)


class TestEnergyCoefficient:
    def test_bit_identical_to_float64(self):
        gen = np.random.default_rng(8)
        for n_x, n_y, n_v, p in ((64, 64, 784, 0.3), (33, 70, 100, 0.5),
                                 (200, 150, 784, 0.1), (5, 9, 1, 0.5)):
            x = np.where(gen.random((n_x, n_v)) < p, 1, -1).astype(np.int8)
            y = np.where(gen.random((n_y, n_v)) < 0.5, 1, -1).astype(np.int8)
            assert energy_coefficient(x, y) == float64_coefficient(x, y)

    def test_identical_batches_zero(self, rng):
        x = random_spins(rng, (20, 6))
        assert energy_coefficient(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_constant_batches(self):
        n_v, B = 9, 12
        x = np.ones((B, n_v), dtype=np.int8)
        y = -np.ones((B, n_v), dtype=np.int8)
        # d_xx = d_yy = 0, d_xy = 2 sqrt(n_v) -> coefficient exactly 1
        assert energy_coefficient(x, y) == 1.0

    def test_degenerate_same_point(self):
        x = np.ones((3, 4), dtype=np.int8)
        assert energy_coefficient(x, x) == 0.0

    def test_symmetry(self, rng):
        x = random_spins(rng, (15, 5))
        y = random_spins(rng, (11, 5))
        assert energy_coefficient(x, y) == pytest.approx(energy_coefficient(y, x))

    def test_matches_brute_force(self, rng):
        x = random_spins(rng, (9, 4))
        y = random_spins(rng, (7, 4))
        assert energy_coefficient(x, y) == pytest.approx(brute_coefficient(x, y))

    def test_same_distribution_concentrates_near_zero(self):
        gen = np.random.default_rng(7)
        p = gen.random(16) * 0.6 + 0.2
        x = np.where(gen.random((1024, 16)) < p, 1, -1).astype(np.int8)
        y = np.where(gen.random((1024, 16)) < p, 1, -1).astype(np.int8)
        assert abs(energy_coefficient(x, y)) < 0.02

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=30, deadline=None)
    def test_numerator_nonnegative(self, seed):
        gen = np.random.default_rng(seed)
        x = np.where(gen.random((gen.integers(1, 12), 5)) < 0.5, 1, -1).astype(np.int8)
        y = np.where(gen.random((gen.integers(1, 12), 5)) < 0.5, 1, -1).astype(np.int8)
        coeff = energy_coefficient(x, y)
        assert coeff >= -1e-9
        assert coeff <= 1.0 + 1e-12


class TestReconError:
    def test_zero_model_is_half(self, rng):
        m = RbmModel(W=np.zeros((6, 3)), b=np.zeros(6), stats=stats_at(np.zeros(6)))
        batch = random_spins(rng, (10, 6))
        assert recon_error(m, batch, make_rng(0)) == pytest.approx(0.5)

    def test_saturated_bias(self):
        m = RbmModel(W=np.zeros((4, 2)), b=np.full(4, 40.0),
                     stats=stats_at(np.zeros(4)))
        batch = np.ones((5, 4), dtype=np.int8)
        assert recon_error(m, batch, make_rng(1)) < 1e-9

    def test_range_and_permutation_invariance(self, rng):
        m = random_model(rng, 6, 4)
        batch = random_spins(rng, (30, 6))
        e = recon_error(m, batch, make_rng(2))
        assert 0.0 <= e <= 1.0
        e_perm = recon_error(m, batch[::-1].copy(), make_rng(3))
        assert e_perm == pytest.approx(e, abs=0.05)

    def test_deterministic_with_seed(self, rng):
        m = random_model(rng, 6, 4)
        batch = random_spins(rng, (30, 6))
        assert recon_error(m, batch, make_rng(5)) == recon_error(m, batch, make_rng(5))


class TestReconErrorVsSteps:
    """eval_curve: the curve that rbm eval writes."""

    def test_single_step_range(self, rng):
        m = random_model(rng, 6, 4)
        spins = random_spins(rng, (50, 6))
        m = replace(m, stats=compute_stats(spins))
        out = list(eval_curve(m, spins, 32, [0], 6))
        assert len(out) == 1 and out[0][0] == 0
        assert 0.0 <= out[0][1] <= 1.0

    def test_steps_must_be_sorted(self, rng):
        m = random_model(rng, 4, 2)
        spins = random_spins(rng, (20, 4))
        m = replace(m, stats=compute_stats(spins))
        with pytest.raises(ValueError, match="sorted ascending"):
            list(eval_curve(m, spins, 8, [4, 2], 7))

    def test_step_counts_echoed(self, rng):
        m = random_model(rng, 5, 3)
        spins = random_spins(rng, (40, 5))
        m = replace(m, stats=compute_stats(spins))
        out = list(eval_curve(m, spins, 16, [0, 2, 8], 8))
        assert [k for k, _, _ in out] == [0, 2, 8]

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_size_must_be_positive(self, rng, batch_size):
        m = random_model(rng, 4, 2)
        spins = random_spins(rng, (20, 4))
        m = replace(m, stats=compute_stats(spins))
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            list(eval_curve(m, spins, batch_size, [0], 7))

    @pytest.mark.parametrize("batch_size", [16, 64])
    def test_rows_keyed_like_rbm_eval(self, rng, batch_size):
        # the rbm eval CSV rests on these keys: the data batch, then the
        # chain, from stream 0x5C; the recon error at step k from (0x5D, k)
        m = random_model(rng, 6, 4)
        spins = random_spins(rng, (40, 6))
        m = replace(m, stats=compute_stats(spins))
        seed, steps, n = 11, [0, 1, 3], min(batch_size, 40)
        chain_rng = make_rng(seed, 0x5C)
        data = spins[chain_rng.choice(40, size=n, replace=False)]
        expected = [(k, recon_error(m, v, make_rng(seed, 0x5D, k)),
                     energy_coefficient(data, v))
                    for k, v in gibbs_chain(m, n, steps, chain_rng)]
        assert list(eval_curve(m, spins, batch_size, steps, seed)) == expected
