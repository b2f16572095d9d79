import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (brute_hidden_mean, brute_nll, brute_visible_probs,
                      random_model, random_spins, stats_at)
from spinrbm.data import compute_stats
from spinrbm.metrics import energy_coefficient, eval_curve, recon_error, reconstruct
from spinrbm.model import (RbmModel, add_model_phase, data_phase, exact_nll,
                           exact_nll_gradient)
from spinrbm.sampling import gibbs_steps, make_rng, sample_hidden, sample_visible
from spinrbm.training import TrainConfig, train


def tiny(n_v=3, n_h=2, seed=0, **kw):
    return random_model(np.random.default_rng(seed), n_v, n_h, **kw)


def test_reconstruct_matches_loop_reference(rng):
    """tanh(b_j + sum_i W_ji h_i) over the h that sample_hidden draws from
    the same key."""
    m = random_model(rng, 5, 3, centered=False)
    v = random_spins(rng, (4, 5))
    h = sample_hidden(m, v, make_rng(7))
    expected = [[np.tanh(m.b[j] + sum(m.W[j, i] * h[r, i] for i in range(3)))
                 for j in range(5)] for r in range(4)]
    assert np.abs(reconstruct(m, v, make_rng(7)) - expected).max() < 1e-12


class TestHiddenMean:
    """The gradient marginalizes h to <h|v> = tanh(W^T (v - mu)): for one
    data row u and one model row v, d_W = (v - mu) <h|v>^T - (u - mu) <h|u>^T."""

    def test_zero_field_is_zero(self):
        m = RbmModel(W=np.zeros((3, 2)), b=np.zeros(3), stats=stats_at(np.zeros(3)))
        d_W = add_model_phase(m, data_phase(m, [[1, -1, 1]]), [[-1, 1, 1]]).d_W
        assert d_W == pytest.approx(np.zeros((3, 2)))

    def test_saturation(self):
        # <h|u> = tanh(0) = 0 and <h|v> = tanh(100) = 1
        m = RbmModel(W=np.full((2, 1), 50.0), b=np.zeros(2),
                     stats=stats_at(np.zeros(2)))
        d_W = add_model_phase(m, data_phase(m, [[1, -1]]), [[1, 1]]).d_W
        assert d_W == pytest.approx(np.ones((2, 1)))

    @staticmethod
    def check_against_enumeration(m, rng):
        u, v = random_spins(rng, m.n_v), random_spins(rng, m.n_v)
        expected = (np.outer(v - m.mu, brute_hidden_mean(m, v))
                    - np.outer(u - m.mu, brute_hidden_mean(m, u)))
        d_W = add_model_phase(m, data_phase(m, [u]), [v]).d_W
        assert d_W == pytest.approx(expected)

    def test_matches_enumeration(self, rng):
        for _ in range(5):
            self.check_against_enumeration(
                random_model(rng, 4, 2, centered=False), rng)

    def test_enumeration_consistency_wider(self, rng):
        # conditional consistency invariant holds up to n_h = 10
        self.check_against_enumeration(random_model(rng, 3, 10), rng)


class TestExactNll:
    def test_uniform_model(self):
        m = RbmModel(W=np.zeros((4, 2)), b=np.zeros(4), stats=stats_at(np.zeros(4)))
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
        perm = replace(m, W=m.W[:, [2, 0, 1]])
        assert exact_nll(m, data) == pytest.approx(exact_nll(perm, data))

    def test_column_sign_flip_invariance(self, rng):
        m = random_model(rng, 4, 3)
        data = random_spins(rng, (6, 4))
        flipped = replace(m, W=m.W * np.array([1, -1, -1]))
        assert exact_nll(m, data) == pytest.approx(exact_nll(flipped, data))

    def test_size_guard(self):
        # the table of the 2^n_h hidden states holds at most 2^24 entries,
        # n_v + n_h a row: 784 x 14 fits, 784 x 15 and 4 x 20 do not, and
        # each is refused before its table is allocated
        for n_v, n_h in ((784, 15), (4, 20)):
            m = RbmModel(W=np.zeros((n_v, n_h)), b=np.zeros(n_v),
                         stats=stats_at(np.zeros(n_v)))
            data = np.ones((1, n_v), dtype=np.int8)
            for oracle in (exact_nll, exact_nll_gradient):
                tracemalloc.start()
                try:
                    with pytest.raises(ValueError, match="enumeration refused"):
                        oracle(m, data)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1 << 20


def free_energy_term(m, v):
    """log sum_h exp(-U(v, h)) of each row of v: the hidden layer summed
    out, b.(v - mu) + sum_i log 2cosh(phi_i) with phi = W^T (v - mu)."""
    vc = v - m.mu
    phi = vc @ m.W
    return vc @ m.b + np.logaddexp(phi, -phi).sum(axis=1)


class TestOraclesPastTwentyFourUnits:
    """The oracles enumerate the hidden layer alone, so a model of more than
    24 units is scored exactly as long as n_h is small."""

    def test_nll_against_all_visible_states(self, rng):
        m = random_model(rng, 16, 12, scale=0.3, centered=False)
        data = random_spins(rng, (20, 16))
        log_w = free_energy_term(
            m, np.array(list(itertools.product((-1, 1), repeat=16))))
        top = log_w.max()
        log_z = top + np.log(np.exp(log_w - top).sum())
        expected = log_z - free_energy_term(m, data).mean()
        assert exact_nll(m, data) == pytest.approx(expected, rel=1e-12)

    def test_log_z_of_the_transpose(self, rng):
        # at b = 0 and mu = 0, U = -v.W.h is the energy of W^T with the
        # layers swapped, so Z(W) = Z(W^T); the first table holds the 12
        # hidden states of W, the second the 16 visible ones
        def log_z(W):
            n_v = W.shape[0]
            m = RbmModel(W=W, b=np.zeros(n_v), stats=stats_at(np.zeros(n_v)))
            v = random_spins(rng, (5, n_v))
            return exact_nll(m, v) + free_energy_term(m, v).mean()

        W = rng.normal(0, 0.3, (16, 12))
        assert log_z(W) == pytest.approx(log_z(W.T), rel=1e-12)

    def test_independent_units_at_the_paper_width(self, rng):
        # W = 0: the 784 visibles are independent, p(v_j) ~ exp(b_j v_j)
        n_v = 784
        mu = rng.uniform(-0.9, 0.9, n_v)
        m = RbmModel(W=np.zeros((n_v, 12)), b=rng.normal(0, 0.5, n_v),
                     stats=stats_at(mu))
        data = random_spins(rng, (30, n_v))
        nll = np.logaddexp(m.b, -m.b).sum() - (data @ m.b).mean()
        assert exact_nll(m, data) == pytest.approx(nll, rel=1e-12)
        g = exact_nll_gradient(m, data)
        assert np.abs(g.d_b - (np.tanh(m.b) - data.mean(axis=0))).max() < 1e-12
        assert np.abs(g.d_W).max() < 1e-12


# shapes with n_h < n_v and with n_h > n_v, centered and not
_ORACLE_CASES = [pytest.param(n_v, n_h, centered, id=f"{n_v}x{n_h}-{tag}")
                 for n_v, n_h in ((5, 3), (4, 1), (3, 5), (2, 6))
                 for centered, tag in ((True, "centered"), (False, "mu"))]


@pytest.mark.parametrize("n_v, n_h, centered", _ORACLE_CASES)
class TestOraclesMatchBruteForce:
    """Each exact oracle against the plain-loop references of conftest."""

    @staticmethod
    def case(n_v, n_h, centered):
        gen = np.random.default_rng(100 * n_v + n_h + centered)
        return (random_model(gen, n_v, n_h, scale=0.7, centered=centered),
                random_spins(gen, (11, n_v)))

    def test_nll(self, n_v, n_h, centered):
        m, data = self.case(n_v, n_h, centered)
        assert exact_nll(m, data) == pytest.approx(brute_nll(m, data), rel=1e-12)

    def test_gradient(self, n_v, n_h, centered):
        m, data = self.case(n_v, n_h, centered)
        probs = brute_visible_probs(m)

        def moments(rows, weights):
            d_b, d_W = np.zeros(n_v), np.zeros((n_v, n_h))
            for v, w in zip(rows, weights):
                v = np.array(v, dtype=float)
                d_b += w * v
                d_W += w * np.outer(v - m.mu, brute_hidden_mean(m, v))
            return d_b, d_W

        b_m, W_m = moments(probs.keys(), probs.values())
        b_d, W_d = moments(data, [1 / len(data)] * len(data))
        g = exact_nll_gradient(m, data)
        assert np.abs(g.d_b - (b_m - b_d)).max() < 1e-12
        assert np.abs(g.d_W - (W_m - W_d)).max() < 1e-12


class TestGradient:
    def test_matched_batches_zero(self, rng):
        m = random_model(rng, 5, 3)
        batch = random_spins(rng, (7, 5))
        g = add_model_phase(m, data_phase(m, batch), batch)
        assert np.allclose(g.d_b, 0) and np.allclose(g.d_W, 0)

    def test_opposite_constant_batches(self):
        m = RbmModel(W=np.zeros((4, 2)), b=np.zeros(4), stats=stats_at(np.zeros(4)))
        data = np.ones((3, 4), dtype=np.int8)
        neg = -np.ones((3, 4), dtype=np.int8)
        g = add_model_phase(m, data_phase(m, data), neg)
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
            g = add_model_phase(m, data_phase(m, data), neg)
            assert np.abs(g.d_b - (b_m - b_d)).max() < 1e-12
            assert np.abs(g.d_W - (W_m - W_d)).max() < 1e-12

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
            fd_b[j] = (exact_nll(replace(m, b=bp), data)
                       - exact_nll(replace(m, b=bm), data)) / (2 * step)
        fd_W = np.zeros((5, 3))
        for j in range(5):
            for i in range(3):
                Wp, Wm = m.W.copy(), m.W.copy()
                Wp[j, i] += step
                Wm[j, i] -= step
                fd_W[j, i] = (exact_nll(replace(m, W=Wp), data)
                              - exact_nll(replace(m, W=Wm), data)) / (2 * step)
        scale = max(np.abs(fd_b).max(), np.abs(fd_W).max())
        assert np.abs(g.d_b - fd_b).max() / scale < 1e-6
        assert np.abs(g.d_W - fd_W).max() / scale < 1e-6


class TestModelValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            RbmModel(W=np.zeros((3, 2)), b=np.zeros(2), stats=stats_at(np.zeros(3)))
        with pytest.raises(ValueError, match="mu shape"):
            RbmModel(W=np.zeros((3, 2)), b=np.zeros(3), stats=stats_at(np.zeros(2)))

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 1)])
    def test_weights_that_are_no_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="W must be a matrix, got shape"):
            RbmModel(W=np.zeros(shape), b=np.zeros(3), stats=stats_at(np.zeros(3)))

    def test_non_finite_rejected(self):
        W = np.zeros((2, 2))
        W[0, 0] = np.nan
        with pytest.raises(ValueError):
            RbmModel(W=W, b=np.zeros(2), stats=stats_at(np.zeros(2)))

    def test_float32_weights_cached_per_model(self, rng):
        m = random_model(rng, 5, 3)
        assert m.W32.dtype == np.float32
        assert m.W32.tobytes() == m.W.astype(np.float32).tobytes()
        assert m.W32 is m.W32
        scaled = replace(m, W=2.0 * m.W)
        assert scaled.W32 is not m.W32
        assert scaled.W32.tobytes() == (2.0 * m.W).astype(np.float32).tobytes()


# Every public function that takes spins, with the bad input x in one spin
# argument, the name of that argument, and the width it must have (None:
# any width, but one width for all rows).  Model: n_v = 3, n_h = 2.
_M = tiny(3, 2)
_V = np.ones((2, 3), dtype=np.int8)
_SPIN_ARGUMENTS = [
    ("sample_hidden", "v", 3, lambda x: sample_hidden(_M, x, make_rng(0))),
    ("sample_visible", "h", 2, lambda x: sample_visible(_M, x, make_rng(0))),
    ("gibbs_steps", "v0", 3, lambda x: gibbs_steps(_M, x, 1, make_rng(0))),
    ("data_phase", "data_batch", 3, lambda x: data_phase(_M, x)),
    ("add_model_phase", "model_batch", 3,
     lambda x: add_model_phase(_M, data_phase(_M, _V), x)),
    ("exact_nll", "dataset", 3, lambda x: exact_nll(_M, x)),
    ("exact_nll_gradient", "data_batch", 3, lambda x: exact_nll_gradient(_M, x)),
    ("energy_coefficient_x", "x", 3, lambda x: energy_coefficient(x, _V)),
    ("energy_coefficient_y", "y", 3, lambda x: energy_coefficient(_V, x)),
    ("recon_error", "batch", 3, lambda x: recon_error(_M, x, make_rng(0))),
    ("reconstruct", "v", 3, lambda x: reconstruct(_M, x, make_rng(0))),
    ("eval_curve", "spins", 3, lambda x: list(eval_curve(_M, x, 2, [0], 0))),
    ("compute_stats", "spins", None, compute_stats),
    ("train", "spins", 3, lambda x: train(x, _M, TrainConfig(n_hidden=2))),
]


@pytest.mark.parametrize("arg, width, call", [
    pytest.param(arg, width, call, id=name)
    for name, arg, width, call in _SPIN_ARGUMENTS])
def test_spin_arguments_rejected_at_the_boundary(arg, width, call):
    n = width or 3
    zero = np.ones((2, n), dtype=np.int8)
    zero[1, 0] = 0
    with pytest.raises(ValueError, match=f"^{arg}: entries must be exactly -1 or \\+1"):
        call(zero)
    # bool, complex and text arrays hold no spins, also where each entry
    # compares equal to +1 or -1
    for x in (np.ones((2, n), dtype=bool), np.ones((2, n), dtype=complex),
              np.full((2, n), "1")):
        with pytest.raises(ValueError, match=f"^{arg}: entries must be exactly -1 or \\+1"):
            call(x)
    with pytest.raises(ValueError, match=f"^{arg}: rows of unequal width"):
        call([[1, -1, 1], [1, -1]])
    if width:
        with pytest.raises(ValueError):
            call(np.ones((2, width + 1), dtype=np.int8))
    with pytest.raises(ValueError, match=f"^{arg}: empty batch"):
        call(np.ones((0, n), dtype=np.int8))
    # a scalar, one row as a vector and a 3-D stack are no matrix
    for x, shape in ((1, r"\(\)"), (np.ones(n, dtype=np.int8), rf"\({n},\)"),
                     (np.ones((2, 1, n), dtype=np.int8), rf"\(2, 1, {n}\)")):
        with pytest.raises(ValueError, match=f"^{arg}: expected a matrix of "
                                             f"spin rows, got shape {shape}$"):
            call(x)
