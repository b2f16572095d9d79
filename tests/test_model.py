from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_hidden_mean, brute_nll, random_model,
                      random_spins)
from spinrbm.data import Dataset
from spinrbm.metrics import energy_coefficient, recon_error
from spinrbm.model import (RbmModel, energy, exact_nll, exact_nll_gradient,
                           hidden_field, hidden_mean, nll_gradient,
                           visible_field)
from spinrbm.sampling import gibbs_steps, make_rng, sample_hidden, sample_visible


def tiny(n_v=3, n_h=2, seed=0, **kw):
    return random_model(np.random.default_rng(seed), n_v, n_h, **kw)


class TestEnergy:
    def test_zero_parameters(self):
        m = RbmModel(W=np.zeros((3, 2)), b=np.zeros(3), mu=np.zeros(3))
        assert energy(m, [1, -1, 1], [-1, 1]) == 0.0

    def test_single_coupling(self):
        m = RbmModel(W=np.array([[0.7]]), b=np.zeros(1), mu=np.zeros(1))
        assert energy(m, [1], [1]) == pytest.approx(-0.7)

    @given(st.integers(0, 2 ** 5 - 1), st.integers(0, 2 ** 3 - 1))
    @settings(max_examples=50, deadline=None)
    def test_flip_symmetry_without_bias(self, vbits, hbits):
        m = tiny(5, 3, seed=1)
        m = RbmModel(W=m.W, b=np.zeros(5), mu=np.zeros(5))
        v = np.array([1 if vbits >> j & 1 else -1 for j in range(5)])
        h = np.array([1 if hbits >> i & 1 else -1 for i in range(3)])
        assert energy(m, v, h) == pytest.approx(energy(m, -v, -h))

    def test_matches_brute_force(self):
        from conftest import brute_energy
        m = tiny(4, 3, seed=2, centered=False)
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = random_spins(rng, 4)
            h = random_spins(rng, 3)
            assert energy(m, v, h) == pytest.approx(brute_energy(m, v, h))

    def test_shape_error(self):
        m = tiny()
        with pytest.raises(ValueError):
            energy(m, [1, -1], [1, 1])


class TestFields:
    def test_centering_zeroes_field(self):
        m = RbmModel(W=np.ones((3, 2)), b=np.zeros(3), mu=np.ones(3))
        assert hidden_field(m, [1, 1, 1]) == pytest.approx([0, 0])

    def test_identity_weights(self):
        m = RbmModel(W=np.eye(3), b=np.zeros(3), mu=np.zeros(3))
        v = np.array([1, -1, 1])
        assert hidden_field(m, v) == pytest.approx(v)

    def test_random_matches_matvec(self, rng):
        m = random_model(rng, 3, 2, centered=False)
        v = random_spins(rng, 3)
        expected = [sum(m.W[j, i] * (v[j] - m.mu[j]) for j in range(3))
                    for i in range(2)]
        assert hidden_field(m, v) == pytest.approx(expected)

    def test_visible_field_decoupled(self):
        b = np.array([0.3, -0.2])
        m = RbmModel(W=np.zeros((2, 3)), b=b, mu=np.zeros(2))
        assert visible_field(m, [1, -1, 1]) == pytest.approx(b)

    def test_visible_field_linearity(self, rng):
        m = random_model(rng, 4, 3)
        h = random_spins(rng, 3)
        f_plus = visible_field(m, h)
        f_minus = visible_field(m, -h)
        assert f_plus + f_minus == pytest.approx(2 * m.b)

    def test_visible_field_matches_matvec(self, rng):
        m = random_model(rng, 3, 2)
        h = random_spins(rng, 2)
        expected = [m.b[j] + sum(m.W[j, i] * h[i] for i in range(2))
                    for j in range(3)]
        assert visible_field(m, h) == pytest.approx(expected)


class TestHiddenMean:
    def test_zero_field_is_zero(self):
        m = RbmModel(W=np.zeros((3, 2)), b=np.zeros(3), mu=np.zeros(3))
        assert hidden_mean(m, [1, -1, 1]) == pytest.approx([0, 0])

    def test_saturation(self):
        m = RbmModel(W=np.full((2, 1), 50.0), b=np.zeros(2), mu=np.zeros(2))
        assert hidden_mean(m, [1, 1])[0] == pytest.approx(1.0)

    def test_matches_enumeration(self, rng):
        for _ in range(5):
            m = random_model(rng, 4, 2, centered=False)
            v = random_spins(rng, 4)
            assert hidden_mean(m, v) == pytest.approx(brute_hidden_mean(m, v))

    def test_enumeration_consistency_wider(self, rng):
        # conditional consistency invariant holds up to n_h = 10
        m = random_model(rng, 3, 10)
        v = random_spins(rng, 3)
        assert hidden_mean(m, v) == pytest.approx(brute_hidden_mean(m, v))


class TestExactNll:
    def test_uniform_model(self):
        m = RbmModel(W=np.zeros((4, 2)), b=np.zeros(4), mu=np.zeros(4))
        data = random_spins(np.random.default_rng(0), (8, 4))
        assert exact_nll(m, data) == pytest.approx(4 * np.log(2))

    def test_nonnegative(self, rng):
        m = random_model(rng, 4, 3)
        data = random_spins(rng, (10, 4))
        assert exact_nll(m, data) >= 0

    def test_matches_independent_enumeration(self, rng):
        m = random_model(rng, 3, 2, centered=False)
        data = random_spins(rng, (12, 3))
        assert exact_nll(m, data) == pytest.approx(brute_nll(m, data), rel=1e-12)

    def test_hidden_permutation_invariance(self, rng):
        m = random_model(rng, 4, 3)
        data = random_spins(rng, (6, 4))
        perm = RbmModel(W=m.W[:, [2, 0, 1]], b=m.b, mu=m.mu)
        assert exact_nll(m, data) == pytest.approx(exact_nll(perm, data))

    def test_column_sign_flip_invariance(self, rng):
        m = random_model(rng, 4, 3)
        data = random_spins(rng, (6, 4))
        flipped = RbmModel(W=m.W * np.array([1, -1, -1]), b=m.b, mu=m.mu)
        assert exact_nll(m, data) == pytest.approx(exact_nll(flipped, data))

    def test_size_guard(self):
        m = RbmModel(W=np.zeros((20, 5)), b=np.zeros(20), mu=np.zeros(20))
        with pytest.raises(ValueError, match="enumeration refused"):
            exact_nll(m, np.ones((1, 20), dtype=np.int8))


class TestGradient:
    def test_matched_batches_zero(self, rng):
        m = random_model(rng, 5, 3)
        batch = random_spins(rng, (7, 5))
        g = nll_gradient(m, batch, batch)
        assert np.allclose(g.d_b, 0) and np.allclose(g.d_W, 0)

    def test_opposite_constant_batches(self):
        m = RbmModel(W=np.zeros((4, 2)), b=np.zeros(4), mu=np.zeros(4))
        data = np.ones((3, 4), dtype=np.int8)
        neg = -np.ones((3, 4), dtype=np.int8)
        g = nll_gradient(m, data, neg)
        assert g.d_b == pytest.approx(-2 * np.ones(4))

    def test_matches_two_phase_reference(self):
        # one weighted pass over both phases equals model-phase mean minus
        # data-phase mean computed separately
        gen = np.random.default_rng(4)
        for n_v, n_h, n_d, n_m in ((784, 128, 256, 256), (20, 7, 9, 31)):
            m = random_model(gen, n_v, n_h, scale=0.1, centered=False)
            data = random_spins(gen, (n_d, n_v))
            neg = random_spins(gen, (n_m, n_v))

            def phase(v):
                vc = v - m.mu
                return v.mean(axis=0), vc.T @ np.tanh(vc @ m.W) / v.shape[0]

            (b_d, W_d), (b_m, W_m) = phase(data), phase(neg)
            g = nll_gradient(m, data, neg)
            assert np.abs(g.d_b - (b_m - b_d)).max() < 1e-12
            assert np.abs(g.d_W - (W_m - W_d)).max() < 1e-12

    def test_empty_batch_rejected(self, rng):
        m = random_model(rng, 4, 2)
        with pytest.raises(ValueError):
            nll_gradient(m, np.empty((0, 4), dtype=np.int8),
                         np.ones((1, 4), dtype=np.int8))

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_difference(self, seed):
        gen = np.random.default_rng(seed)
        m = random_model(gen, 5, 3, centered=False)
        data = random_spins(gen, (9, 5))
        g = exact_nll_gradient(m, data)
        step = 1e-5
        fd_b = np.zeros(5)
        for j in range(5):
            bp, bm = m.b.copy(), m.b.copy()
            bp[j] += step
            bm[j] -= step
            fd_b[j] = (exact_nll(RbmModel(W=m.W, b=bp, mu=m.mu), data)
                       - exact_nll(RbmModel(W=m.W, b=bm, mu=m.mu), data)) / (2 * step)
        fd_W = np.zeros((5, 3))
        for j in range(5):
            for i in range(3):
                Wp, Wm = m.W.copy(), m.W.copy()
                Wp[j, i] += step
                Wm[j, i] -= step
                fd_W[j, i] = (exact_nll(RbmModel(W=Wp, b=m.b, mu=m.mu), data)
                              - exact_nll(RbmModel(W=Wm, b=m.b, mu=m.mu), data)) / (2 * step)
        scale = max(np.abs(fd_b).max(), np.abs(fd_W).max())
        assert np.abs(g.d_b - fd_b).max() / scale < 1e-6
        assert np.abs(g.d_W - fd_W).max() / scale < 1e-6


class TestModelValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            RbmModel(W=np.zeros((3, 2)), b=np.zeros(2), mu=np.zeros(3))

    def test_non_finite_rejected(self):
        W = np.zeros((2, 2))
        W[0, 0] = np.nan
        with pytest.raises(ValueError):
            RbmModel(W=W, b=np.zeros(2), mu=np.zeros(2))

    def test_spin_validation(self):
        m = tiny()
        with pytest.raises(ValueError, match="exactly -1 or \\+1"):
            energy(m, [1, 0, 1], [1, 1])

    def test_float32_weights_cached_per_model(self, rng):
        m = random_model(rng, 5, 3)
        assert m.W32.dtype == np.float32
        assert m.W32.tobytes() == m.W.astype(np.float32).tobytes()
        assert m.W32 is m.W32
        scaled = replace(m, W=2.0 * m.W)
        assert scaled.W32 is not m.W32
        assert scaled.W32.tobytes() == (2.0 * m.W).astype(np.float32).tobytes()


# Every public function that takes spins, with the bad input x in one spin
# argument, and the width that argument must have (None: any width, but one
# width for all rows).  Model: n_v = 3, n_h = 2.
_M = tiny(3, 2)
_V = np.ones((2, 3), dtype=np.int8)
_SPIN_ARGUMENTS = [
    ("sample_hidden", 3, lambda x: sample_hidden(_M, x, make_rng(0))),
    ("sample_visible", 2, lambda x: sample_visible(_M, x, make_rng(0))),
    ("gibbs_steps", 3, lambda x: gibbs_steps(_M, x, 1, make_rng(0))),
    ("nll_gradient_data", 3, lambda x: nll_gradient(_M, x, _V)),
    ("nll_gradient_model", 3, lambda x: nll_gradient(_M, _V, x)),
    ("exact_nll", 3, lambda x: exact_nll(_M, x)),
    ("exact_nll_gradient", 3, lambda x: exact_nll_gradient(_M, x)),
    ("energy_v", 3, lambda x: energy(_M, x, [1, 1])),
    ("energy_h", 2, lambda x: energy(_M, [1, 1, 1], x)),
    ("hidden_field", 3, lambda x: hidden_field(_M, x)),
    ("visible_field", 2, lambda x: visible_field(_M, x)),
    ("energy_coefficient_x", 3, lambda x: energy_coefficient(x, _V)),
    ("energy_coefficient_y", 3, lambda x: energy_coefficient(_V, x)),
    ("recon_error", 3, lambda x: recon_error(_M, x, make_rng(0))),
    ("Dataset", None, lambda x: Dataset(spins=x)),
]


@pytest.mark.parametrize("width, call", [
    pytest.param(width, call, id=name) for name, width, call in _SPIN_ARGUMENTS])
def test_spin_arguments_rejected_at_the_boundary(width, call):
    n = width or 3
    zero = np.ones((2, n), dtype=np.int8)
    zero[1, 0] = 0
    with pytest.raises(ValueError, match="exactly -1 or \\+1"):
        call(zero)
    wrong_width = (np.ones((2, width + 1), dtype=np.int8) if width
                   else [[1, -1, 1], [1, -1]])  # rows of unequal width
    with pytest.raises(ValueError):
        call(wrong_width)
    with pytest.raises(ValueError, match="scalar"):
        call(1)
