import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import brute_visible_probs, random_model, random_spins, stats_at
from spinrbm.data import DataStats, Dataset, compute_stats
from spinrbm.model import RbmModel
from spinrbm.sampling import (belief_generate, draw_spins, gibbs_chain,
                              gibbs_steps, make_rng, sample_hidden, sample_phi,
                              sample_visible)

N_MC = 10 ** 6


def with_data_stats(model, rng, n=200):
    """model carrying the statistics of n random spin rows."""
    data = random_spins(rng, (n, model.n_v))
    return replace(model, stats=compute_stats(Dataset(spins=data)))


class TestDrawSpins:
    def test_threshold_semantics(self):
        phi = np.array([[100.0, -100.0, 0.0]])
        u = np.array([[0.5, 0.5, 0.25]])
        out = draw_spins(phi, u)
        # sigma(2*100) ~ 1 -> +1; sigma(-200) ~ 0 -> -1; u=0.25 < 0.5 -> +1
        assert out.tolist() == [[1, -1, 1]]
        assert out.dtype == np.int8

    def test_matches_logistic_reference_exactly(self):
        # the in-place arithmetic must equal the plain expression bit for
        # bit, also where exp(-2 phi) overflows (phi = -400) or vanishes
        gen = np.random.default_rng(1)
        phi = gen.normal(0, 3, (300, 40))
        phi[:, :4] = [400.0, -400.0, 0.0, -0.0]
        u = gen.random(phi.shape)
        with np.errstate(over="ignore"):
            ref = np.where(u < 1 / (1 + np.exp(-2 * phi)), 1, -1)
            out = draw_spins(phi, u)
        assert out.dtype == np.int8
        assert np.array_equal(out, ref)

    def test_float32_matches_logistic_reference_exactly(self):
        # float32 fields are worked in float32; exp(-2 phi) overflows below
        # phi = -44.4, and -2 phi beyond |phi| = 1.7e38, which must give
        # p = 0 or 1 and raise no warning
        gen = np.random.default_rng(2)
        phi = gen.normal(0, 3, (300, 40)).astype(np.float32)
        phi[:, :8] = [44.0, -44.0, 400.0, -400.0, 0.0, -0.0, 3e38, -3e38]
        u = gen.random(phi.shape, dtype=np.float32)
        u[:3, :6] = 0.0
        with np.errstate(over="ignore"):
            p = 1 / (1 + np.exp(-2 * phi))
        assert p.dtype == np.float32
        ref = np.where(u < p, 1, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = draw_spins(phi, u)
        assert out.dtype == np.int8
        assert np.array_equal(out, ref)
        assert np.all(out[:, 3] == -1) and np.all(out[:, 2] == 1)
        assert np.all(out[:, 7] == -1) and np.all(out[:, 6] == 1)

    def test_float32_field_with_float64_uniforms(self):
        # mixed dtypes: p is computed in float32 and widened exactly; u is
        # compared in float64, never rounded to float32
        gen = np.random.default_rng(3)
        phi = gen.normal(0, 1, (200, 50)).astype(np.float32)
        p = (1 / (1 + np.exp(-2 * phi))).astype(np.float64)
        u = gen.random(phi.shape)
        # just below p in float64, but equal to p once rounded to float32
        u[:, 0] = np.nextafter(p[:, 0], 0.0)
        assert np.all(u[:, 0].astype(np.float32) == p[:, 0].astype(np.float32))
        u[:, 1] = p[:, 1]
        out = draw_spins(phi, u)
        assert np.array_equal(out, np.where(u < p, 1, -1))
        assert np.all(out[:, 0] == 1) and np.all(out[:, 1] == -1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            draw_spins(np.zeros((2, 3)), np.zeros((2, 4)))


class TestSampleHidden:
    def test_symmetric_at_zero_field(self):
        m = RbmModel(W=np.zeros((2, 1)), b=np.zeros(2), stats=stats_at(np.zeros(2)))
        v = np.ones((N_MC // 10, 2), dtype=np.int8)
        h = sample_hidden(m, v, make_rng(0))
        freq = (h == 1).mean()
        assert abs(freq - 0.5) < 3 * 0.5 / np.sqrt(h.size)

    def test_saturated_column(self):
        m = RbmModel(W=np.full((3, 1), 40.0), b=np.zeros(3),
                     stats=stats_at(np.zeros(3)))
        h = sample_hidden(m, np.ones((1000, 3), dtype=np.int8), make_rng(1))
        assert np.all(h == 1)

    def test_logistic_frequency(self):
        # phi = 0.5 per unit -> P(+1) = logistic(1)
        m = RbmModel(W=np.array([[0.5]]), b=np.zeros(1), stats=stats_at(np.zeros(1)))
        v = np.ones((N_MC, 1), dtype=np.int8)
        h = sample_hidden(m, v, make_rng(2))
        p = 1 / (1 + np.exp(-1.0))
        se = np.sqrt(p * (1 - p) / N_MC)
        assert abs((h == 1).mean() - p) < 3 * se

    def test_overflowing_field_rejected(self):
        # every W entry lies within float32 range, their sum does not; any
        # warning fails the suite, so this also pins that none is printed
        m = RbmModel(W=np.full((4, 3), 2e38), b=np.zeros(4),
                     stats=stats_at(np.zeros(4)))
        with pytest.raises(ValueError, match="hidden field overflows float32"):
            sample_hidden(m, np.ones((5, 4), dtype=np.int8), make_rng(2))


class TestSampleVisible:
    def test_decoupled_uniform(self):
        m = RbmModel(W=np.zeros((2, 1)), b=np.zeros(2), stats=stats_at(np.zeros(2)))
        v = sample_visible(m, np.ones((N_MC // 10, 1), dtype=np.int8), make_rng(3))
        freq = (v == 1).mean()
        assert abs(freq - 0.5) < 3 * 0.5 / np.sqrt(v.size)

    def test_bias_saturation(self):
        m = RbmModel(W=np.zeros((2, 1)), b=np.array([40.0, 40.0]),
                     stats=stats_at(np.zeros(2)))
        v = sample_visible(m, np.ones((500, 1), dtype=np.int8), make_rng(4))
        assert np.all(v == 1)

    def test_conditional_matches_enumeration(self, rng):
        m = random_model(rng, 2, 1)
        h = np.ones((N_MC, 1), dtype=np.int8)
        v = sample_visible(m, h, make_rng(5))
        field = m.b + m.W[:, 0]
        for j in range(2):
            p = 1 / (1 + np.exp(-2 * field[j]))
            se = np.sqrt(p * (1 - p) / N_MC)
            assert abs((v[:, j] == 1).mean() - p) < 3 * se

    @pytest.mark.parametrize("w, b", [(2e38, 0.0), (1.2e38, 1.2e38)],
                             ids=["product", "bias"])
    def test_overflowing_field_rejected(self, w, b):
        # W h alone overflows, or W h = 2.4e38 does not and b + W h does
        m = RbmModel(W=np.full((4, 2), w), b=np.full(4, b), stats=stats_at(np.zeros(4)))
        with pytest.raises(ValueError, match="visible field overflows float32"):
            sample_visible(m, np.ones((5, 2), dtype=np.int8), make_rng(5))


class TestGibbs:
    def test_zero_steps_identity(self, rng):
        m = random_model(rng, 4, 2)
        v0 = random_spins(rng, (5, 4))
        out = gibbs_steps(m, v0, 0, make_rng(6))
        assert np.array_equal(out, v0)

    def test_determinism(self, rng):
        m = random_model(rng, 4, 2)
        v0 = random_spins(rng, (5, 4))
        a = gibbs_steps(m, v0, 7, make_rng(42))
        b = gibbs_steps(m, v0, 7, make_rng(42))
        assert np.array_equal(a, b)

    def test_stationary_marginal(self, rng):
        # many parallel chains, burn-in + thinning; TV vs exact p(v)
        m = random_model(rng, 4, 2)
        probs = brute_visible_probs(m)
        chains = 1000
        v = random_spins(rng, (chains, 4))
        g = make_rng(7)
        v = gibbs_steps(m, v, 200, g)
        counts = np.zeros(16)
        kept = 0
        for _ in range(100):
            v = gibbs_steps(m, v, 10, g)
            idx = ((v == 1) << np.arange(4)).sum(axis=1)
            counts += np.bincount(idx, minlength=16)
            kept += chains
        emp = counts / kept
        exact = np.zeros(16)
        for key, p in probs.items():
            idx = sum((1 << j) for j, s in enumerate(key) if s == 1)
            exact[idx] = p
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 0.02


class TestSamplePhi:
    def test_zero_covariance(self, rng):
        m = random_model(rng, 3, 2)
        assert np.all(m.stats.sigma == 0)
        phi = sample_phi(m, 10, make_rng(8))
        assert np.all(phi == 0)

    def test_zero_weights(self, rng):
        m = RbmModel(W=np.zeros((3, 2)), b=np.zeros(3), stats=stats_at(np.zeros(3)))
        m = with_data_stats(m, rng)
        assert np.all(sample_phi(m, 10, make_rng(9)) == 0)

    def test_float32_output(self, rng):
        m = with_data_stats(random_model(rng, 5, 3), rng)
        phi = sample_phi(m, 10, make_rng(20))
        assert phi.dtype == np.float32 and phi.shape == (10, 3)
        assert m.stats.sigma.dtype == np.float64

    def test_covariance_law(self, rng):
        m = with_data_stats(random_model(rng, 6, 3), rng, n=500)
        n = 10 ** 5
        phi = sample_phi(m, n, make_rng(11))
        emp = phi.T @ phi / n
        target = m.W.T @ m.stats.sigma @ m.W
        # entrywise 5-standard-error band; var of a covariance entry ~
        # (C_ii C_jj + C_ij^2) / n for Gaussians
        var = (np.outer(np.diag(target), np.diag(target)) + target ** 2) / n
        assert np.all(np.abs(emp - target) < 5 * np.sqrt(var) + 1e-12)

    def test_covariance_law_rank_deficient(self):
        # data from 3 patterns: rank Sigma = 2 < n_h = 5, so W^T Sigma W is
        # singular and its factor comes from the eigendecomposition
        gen = np.random.default_rng(21)
        m = random_model(gen, 6, 5)
        patterns = random_spins(gen, (3, 6))
        stats = compute_stats(Dataset(spins=patterns[gen.integers(0, 3, 300)]))
        m = replace(m, stats=stats)
        assert np.linalg.matrix_rank(stats.sigma) == 2
        target = m.W.T @ stats.sigma @ m.W
        # the float32 C that sample_phi forms has no Cholesky factor
        C = m.W32.T @ (stats.sigma32 @ m.W32)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(C.astype(np.float64))
        n = 10 ** 5
        phi = sample_phi(m, n, make_rng(18))
        emp = phi.T @ phi / n
        var = (np.outer(np.diag(target), np.diag(target)) + target ** 2) / n
        assert np.all(np.abs(emp - target) < 5 * np.sqrt(var) + 1e-12)

    def test_linearity_in_w(self, rng):
        m = with_data_stats(random_model(rng, 4, 2), rng)
        scaled = replace(m, W=3.0 * m.W)
        a = sample_phi(m, 20, make_rng(12))
        b = sample_phi(scaled, 20, make_rng(12))
        assert b == pytest.approx(3.0 * a)


class TestBeliefGenerate:
    def test_output_is_spin_batch(self, rng):
        m = with_data_stats(random_model(rng, 5, 3), rng)
        gen = make_rng(13)
        v = gibbs_steps(m, belief_generate(m, 17, gen), 2, gen)
        assert v.shape == (17, 5)
        assert set(np.unique(v)) <= {-1, 1}

    def test_determinism(self, rng):
        m = with_data_stats(random_model(rng, 5, 3), rng)
        a = belief_generate(m, 8, make_rng(14))
        b = belief_generate(m, 8, make_rng(14))
        assert np.array_equal(a, b)

    def test_zero_weights_pixel_law(self):
        b = np.array([0.4, -0.3])
        stats = DataStats(mu=np.zeros(2), sigma=np.eye(2))
        m = RbmModel(W=np.zeros((2, 2)), b=b, stats=stats)
        v = belief_generate(m, N_MC // 10, make_rng(15))
        for j in range(2):
            p = 1 / (1 + np.exp(-2 * b[j]))
            se = np.sqrt(p * (1 - p) / v.shape[0])
            assert abs((v[:, j] == 1).mean() - p) < 4 * se

    def test_two_basin_model(self, rng):
        # hand-built model with two deep basins at +/- ones; belief generation
        # plus a few refinement sweeps should land in them
        n_v, n_h = 6, 3
        W = np.full((n_v, n_h), 0.8)
        data = np.vstack([np.ones((50, n_v)), -np.ones((50, n_v))]).astype(np.int8)
        stats = compute_stats(Dataset(spins=data))
        m = RbmModel(W=W, b=np.zeros(n_v), stats=stats)
        gen = make_rng(16)
        v = gibbs_steps(m, belief_generate(m, 400, gen), 8, gen)
        agreement = np.abs(v.sum(axis=1)) / n_v
        assert (agreement == 1.0).mean() >= 0.9

    def test_batch_validation(self, rng):
        m = with_data_stats(random_model(rng, 4, 2), rng)
        with pytest.raises(ValueError):
            belief_generate(m, 0, make_rng(17))


class TestGibbsChain:
    def test_matches_belief_generate_then_gibbs_steps(self, rng):
        m = with_data_stats(random_model(rng, 6, 3), rng)
        steps = [0, 1, 1, 4]
        seen = []
        for k, v in gibbs_chain(m, 20, steps, make_rng(18)):
            seen.append(k)
            ref_rng = make_rng(18)
            ref = belief_generate(m, 20, ref_rng)
            ref = gibbs_steps(m, ref, k, ref_rng)
            assert np.array_equal(v, ref)
        assert seen == steps

    @pytest.mark.parametrize("steps", [[2, 1], [-1, 0]])
    def test_bad_steps_rejected_before_drawing(self, rng, steps):
        m = with_data_stats(random_model(rng, 4, 2), rng)
        gen = make_rng(19)
        with pytest.raises(ValueError, match="ascending and nonnegative"):
            gibbs_chain(m, 8, steps, gen)
        assert gen.random() == make_rng(19).random()  # nothing drawn


def test_make_rng_streams_differ():
    a = make_rng(5, 1).random(4)
    b = make_rng(5, 2).random(4)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("key_a, key_b", [
    ((0, 161), (162,)),     # folded alike by the old golden-ratio key fold
    ((5,), (5, 0)),         # a trailing zero tag is a different key
    ((1, 2), (1, 2, 0)),
    ((1, 2), (2, 1)),
])
def test_make_rng_distinct_keys_give_distinct_streams(key_a, key_b):
    a = make_rng(*key_a).integers(1 << 64, size=8, dtype=np.uint64)
    b = make_rng(*key_b).integers(1 << 64, size=8, dtype=np.uint64)
    assert not np.any(a == b)


def test_make_rng_rejects_seed_outside_64_bits():
    for seed in (-1, 2 ** 64, 2 ** 64 + 5):
        with pytest.raises(ValueError, match="seed must lie in"):
            make_rng(seed)
    top = 2 ** 64 - 1
    assert make_rng(top).random() == \
        np.random.Generator(np.random.SFC64(np.random.SeedSequence(top))).random()
