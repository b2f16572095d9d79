import math

import numpy as np
import pytest

from conftest import random_model, random_spins, with_config
from spinrbm.data import Dataset, compute_stats
from spinrbm.model import GradientPair, RbmModel, exact_nll, exact_nll_gradient
from spinrbm.training import (AdamState, TrainConfig, adam_step, init_model,
                              load_checkpoint, save_checkpoint, train)


def small_config(**kw):
    base = dict(n_hidden=4, epochs=5, batch_size=8, learning_rate=1e-2,
                init_std=0.1, seed=0, eval_every=1, eval_batch=16)
    base.update(kw)
    return TrainConfig(**base)


def pattern_dataset(n_v=8, copies=40):
    a = np.ones(n_v, dtype=np.int8)
    b = -np.ones(n_v, dtype=np.int8)
    b[: n_v // 2] = 1
    spins = np.vstack([np.tile(a, (copies, 1)), np.tile(b, (copies, 1))])
    return Dataset(spins=spins)


class TestInitModel:
    def test_zero_std(self):
        m = init_model(5, 3, 0.0, np.zeros(5), seed=1)
        assert np.all(m.W == 0) and np.all(m.b == 0)

    def test_determinism(self):
        a = init_model(5, 3, 0.1, np.zeros(5), seed=9)
        b = init_model(5, 3, 0.1, np.zeros(5), seed=9)
        assert np.array_equal(a.W, b.W)

    def test_weight_scale(self):
        m = init_model(784, 512, 0.1, np.zeros(784), seed=2)
        assert m.W.std() == pytest.approx(0.1, rel=0.02)

    def test_mu_comes_from_stats(self):
        mu = np.linspace(-0.5, 0.5, 4)
        m = init_model(4, 2, 0.1, mu, seed=0)
        assert np.array_equal(m.mu, mu)


class TestAdam:
    def test_zero_gradient_no_move(self):
        state = AdamState.zeros(3, 2)
        g = GradientPair(d_b=np.zeros(3), d_W=np.zeros((3, 2)))
        (b, W), state = adam_step(state, g, 1e-3, (np.ones(3), np.ones((3, 2))))
        assert b == pytest.approx(np.ones(3))
        assert W == pytest.approx(np.ones((3, 2)))
        assert state.t == 1

    def test_first_step_sign(self):
        # |g| >> eps: first update is ~ -lr * sign(g)
        state = AdamState.zeros(1, 1)
        g = GradientPair(d_b=np.array([2.0]), d_W=np.array([[-3.0]]))
        (b, W), _ = adam_step(state, g, 0.1, (np.zeros(1), np.zeros((1, 1))))
        assert b[0] == pytest.approx(-0.1, rel=1e-6)
        assert W[0, 0] == pytest.approx(0.1, rel=1e-6)

    def test_two_step_hand_unroll(self):
        lr, g = 0.01, 0.5
        b1, b2, eps = 0.9, 0.999, 1e-8
        # hand unroll for a constant scalar gradient
        theta = 0.0
        m = v = 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        state = AdamState.zeros(1, 1)
        params = (np.zeros(1), np.zeros((1, 1)))
        grads = GradientPair(d_b=np.array([g]), d_W=np.array([[g]]))
        for _ in range(2):
            params, state = adam_step(state, grads, lr, params)
        assert params[0][0] == pytest.approx(theta, rel=1e-12)
        assert params[1][0, 0] == pytest.approx(theta, rel=1e-12)

    def test_bit_identical_to_formula_and_inputs_untouched(self, rng):
        n_v, n_h, lr = 784, 128, 1e-3
        state = AdamState(m_b=rng.normal(size=n_v), m_W=rng.normal(size=(n_v, n_h)),
                          v_b=rng.random(n_v), v_W=rng.random((n_v, n_h)), t=4)
        grads = GradientPair(d_b=rng.normal(size=n_v), d_W=rng.normal(size=(n_v, n_h)))
        params = (rng.normal(size=n_v), rng.normal(size=(n_v, n_h)))
        inputs = [state.m_b, state.m_W, state.v_b, state.v_W,
                  grads.d_b, grads.d_W, *params]
        before = [a.copy() for a in inputs]
        (b, W), new = adam_step(state, grads, lr, params)
        b1, b2, eps, t = state.beta1, state.beta2, state.eps, 5
        c1, c2 = 1 - b1 ** t, 1 - b2 ** t
        for p, m, v, g, got_p, got_m, got_v in (
                (params[0], state.m_b, state.v_b, grads.d_b, b, new.m_b, new.v_b),
                (params[1], state.m_W, state.v_W, grads.d_W, W, new.m_W, new.v_W)):
            m_ref = b1 * m + (1 - b1) * g
            v_ref = b2 * v + (1 - b2) * g ** 2
            p_ref = p - lr * (m_ref / c1) / (np.sqrt(v_ref / c2) + eps)
            assert got_m.tobytes() == m_ref.tobytes()
            assert got_v.tobytes() == v_ref.tobytes()
            assert got_p.tobytes() == p_ref.tobytes()
        assert new.t == t
        assert all(np.array_equal(a, c) for a, c in zip(inputs, before))

    def test_non_finite_gradient_rejected(self):
        state = AdamState.zeros(1, 1)
        g = GradientPair(d_b=np.array([np.nan]), d_W=np.zeros((1, 1)))
        with pytest.raises(FloatingPointError):
            adam_step(state, g, 1e-3, (np.zeros(1), np.zeros((1, 1))))


class TestTrain:
    def test_zero_epochs_noop(self):
        ds = pattern_dataset()
        stats = compute_stats(ds)
        config = small_config(epochs=0)
        model, metrics = train(ds, stats, config)
        ref = init_model(ds.n_v, config.n_hidden, config.init_std, stats.mu,
                         config.seed)
        assert np.array_equal(model.W, ref.W)
        assert metrics == []

    def test_determinism(self):
        ds = pattern_dataset()
        stats = compute_stats(ds)
        config = small_config(epochs=3, seed=11)
        m1, r1 = train(ds, stats, config)
        m2, r2 = train(ds, stats, config)
        assert np.array_equal(m1.W, m2.W) and np.array_equal(m1.b, m2.b)
        assert [m.energy_coefficient for m in r1] == [m.energy_coefficient for m in r2]

    def test_stats_stay_float64_through_training_and_checkpoint(self, tmp_path):
        # the sampler works on a float32 copy of Q; Q itself stays float64,
        # in memory and in the checkpoint
        ds = pattern_dataset()
        stats = compute_stats(ds)
        Q = stats.Q.copy()
        model, _ = train(ds, stats, small_config(epochs=2))
        assert stats.Q.dtype == np.float64 and stats.Q.tobytes() == Q.tobytes()
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, AdamState.zeros(model.n_v, model.n_h),
                        small_config(), stats, path)
        _, _, _, s2 = load_checkpoint(path)
        assert s2.Q.dtype == np.float64 and s2.Q.tobytes() == Q.tobytes()

    def test_mu_never_trained(self):
        ds = pattern_dataset()
        stats = compute_stats(ds)
        model, _ = train(ds, stats, small_config(epochs=3))
        assert np.array_equal(model.mu, stats.mu)

    def test_data_pattern_energy_decreases(self):
        # free energy of the two data patterns drops from init to trained
        ds = pattern_dataset(n_v=8)
        stats = compute_stats(ds)
        config = small_config(n_hidden=4, epochs=200, batch_size=16,
                              learning_rate=1e-2, seed=3)
        trained, _ = train(ds, stats, config)
        init = init_model(ds.n_v, config.n_hidden, config.init_std, stats.mu,
                          config.seed)
        patterns = Dataset(spins=np.unique(ds.spins, axis=0))
        assert exact_nll(trained, patterns.spins) < exact_nll(init, patterns.spins)

    def test_metrics_cadence(self):
        ds = pattern_dataset()
        stats = compute_stats(ds)
        _, metrics = train(ds, stats, small_config(epochs=6, eval_every=2))
        assert [m.epoch for m in metrics] == [2, 4, 6]

    def test_cd_k_mode_runs(self):
        ds = pattern_dataset()
        stats = compute_stats(ds)
        config = small_config(epochs=2, negative_mode="cd_k_from_data", k=2)
        model, metrics = train(ds, stats, config)
        assert np.all(np.isfinite(model.W)) and metrics

    def test_batch_larger_than_training_split_rejected(self):
        # 80 rows less an 8-row held-out fold leave 72 for training
        ds = pattern_dataset()
        stats = compute_stats(ds)
        with pytest.raises(ValueError, match="holds 72 rows.*batch_size 75"):
            train(ds, stats, small_config(batch_size=75))


class TestExactDescent:
    def test_gradient_steps_decrease_exact_nll(self, rng):
        # replacing the negative phase by exact enumeration must descend
        model = random_model(rng, 5, 3, scale=0.3)
        data = random_spins(rng, (30, 5))
        lr = 1e-3
        last = exact_nll(model, data)
        for _ in range(10):
            g = exact_nll_gradient(model, data)
            model = RbmModel(W=model.W - lr * g.d_W, b=model.b - lr * g.d_b,
                             mu=model.mu)
            now = exact_nll(model, data)
            assert now < last
            last = now


class TestCheckpoint:
    def _random_state(self, rng, n_v=6, n_h=3, r=4):
        from spinrbm.data import DataStats
        model = random_model(rng, n_v, n_h, centered=False)
        adam = AdamState(m_b=rng.normal(size=n_v), m_W=rng.normal(size=(n_v, n_h)),
                         v_b=rng.random(n_v), v_W=rng.random((n_v, n_h)), t=17)
        stats = DataStats(mu=model.mu, Q=rng.normal(size=(n_v, r)))
        return model, adam, stats

    def test_roundtrip_bit_exact(self, rng, tmp_path):
        for i in range(10):
            model, adam, stats = self._random_state(rng)
            config = small_config(seed=i)
            path = tmp_path / f"ck{i}.rbm"
            save_checkpoint(model, adam, config, stats, path)
            m2, a2, c2, s2 = load_checkpoint(path)
            for a, b in ((model.W, m2.W), (model.b, m2.b), (model.mu, m2.mu),
                         (stats.Q, s2.Q), (adam.m_b, a2.m_b), (adam.m_W, a2.m_W),
                         (adam.v_b, a2.v_b), (adam.v_W, a2.v_W)):
                assert a.tobytes() == b.tobytes()
            assert a2.t == adam.t and c2 == config

    def test_corrupted_magic_rejected(self, rng, tmp_path):
        model, adam, stats = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, adam, small_config(), stats, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, rng, tmp_path):
        model, adam, stats = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, adam, small_config(), stats, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncation_at_every_offset_rejected(self, rng, tmp_path):
        model, adam, stats = self._random_state(rng, n_v=4, n_h=3, r=4)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, adam, small_config(), stats, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.rbm"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(ValueError, match=r"magic|offset \d+"):
                load_checkpoint(cut)

    def test_unknown_config_key_rejected(self, rng, tmp_path):
        model, adam, stats = self._random_state(rng)
        config = small_config()
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, adam, config, stats, path)
        path.write_bytes(with_config(path.read_bytes(), config,
                                     {**config.__dict__, "bogus": 1}))
        with pytest.raises(ValueError, match="'bogus'"):
            load_checkpoint(path)

    def test_sampling_without_recomputing_stats(self, rng, tmp_path):
        from spinrbm.sampling import belief_generate, make_rng
        model, adam, stats = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, adam, small_config(), stats, path)
        m2, _, _, s2 = load_checkpoint(path)
        v = belief_generate(m2, s2, 5, make_rng(0))
        assert v.shape == (5, model.n_v)


class TestConfigValidation:
    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            small_config(learning_rate=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            small_config(negative_mode="pcd")

    @pytest.mark.parametrize("field", ["learning_rate", "init_std"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_config(**{field: value})

    def test_negative_k(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            small_config(k=-1)
        assert small_config(k=0).k == 0
