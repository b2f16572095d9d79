import json
import math
import re
import threading

import numpy as np
import pytest

import spinrbm.training
from conftest import (random_model, random_sigma, random_spins, stats_at,
                      with_config)
from spinrbm.data import DataStats, compute_stats
from spinrbm.model import GradientPair, RbmModel, exact_nll, exact_nll_gradient
from spinrbm.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState,
                              TrainConfig, TrainingDiverged, adam_step,
                              check_option, init_model, load_checkpoint,
                              save_checkpoint, train)


def small_config(**kw):
    base = dict(n_hidden=4, epochs=5, batch_size=8, learning_rate=1e-2,
                init_std=0.1, seed=0, eval_every=1, eval_batch=16)
    base.update(kw)
    return TrainConfig(**base)


def pattern_spins(n_v=8, copies=40):
    a = np.ones(n_v, dtype=np.int8)
    b = -np.ones(n_v, dtype=np.int8)
    b[: n_v // 2] = 1
    return np.vstack([np.tile(a, (copies, 1)), np.tile(b, (copies, 1))])


def fit(spins, config):
    """train from the initial model of config on the statistics of spins."""
    return train(spins, init_model(compute_stats(spins), config), config)


class TestInitModel:
    def test_zero_std(self):
        m = init_model(stats_at(np.zeros(5)),
                       small_config(n_hidden=3, init_std=0.0, seed=1))
        assert np.all(m.W == 0) and np.all(m.b == 0)
        assert not np.signbit(m.W).any()

    def test_determinism(self):
        config = small_config(n_hidden=3, init_std=0.1, seed=9)
        a = init_model(stats_at(np.zeros(5)), config)
        b = init_model(stats_at(np.zeros(5)), config)
        assert np.array_equal(a.W, b.W)

    def test_weight_scale(self):
        m = init_model(stats_at(np.zeros(784)),
                       small_config(n_hidden=512, init_std=0.1, seed=2))
        assert m.W.shape == (784, 512)
        assert m.W.std() == pytest.approx(0.1, rel=0.02)

    def test_mu_comes_from_stats(self):
        mu = np.linspace(-0.5, 0.5, 4)
        stats = stats_at(mu)
        m = init_model(stats, small_config(n_hidden=2, init_std=0.1, seed=0))
        assert m.stats is stats and np.array_equal(m.mu, mu)


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
        b1, b2, eps, t = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, 5
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
        with pytest.raises(ValueError, match="non-finite gradient"):
            adam_step(state, g, 1e-3, (np.zeros(1), np.zeros((1, 1))))


class TestTrain:
    def test_zero_epochs_noop(self):
        ds = pattern_spins()
        config = small_config(epochs=0)
        start = init_model(compute_stats(ds), config)
        model, metrics = train(ds, start, config)
        assert model is start and np.array_equal(model.W, start.W)
        assert metrics == []

    def test_model_shape_must_match_data_and_config(self):
        ds = pattern_spins()
        start = init_model(compute_stats(ds), small_config(n_hidden=3))
        with pytest.raises(ValueError, match=r"\(8, 3\).*\(8, 4\)"):
            train(ds, start, small_config(n_hidden=4))

    def test_determinism(self):
        ds = pattern_spins()
        config = small_config(epochs=3, seed=11)
        m1, r1 = fit(ds, config)
        m2, r2 = fit(ds, config)
        assert np.array_equal(m1.W, m2.W) and np.array_equal(m1.b, m2.b)
        assert [m.energy_coefficient for m in r1] == [m.energy_coefficient for m in r2]

    def test_stats_stay_float64_through_training_and_checkpoint(self, tmp_path):
        # the sampler works on a float32 copy of sigma; sigma itself stays
        # float64, in memory and in the checkpoint
        ds = pattern_spins()
        stats = compute_stats(ds)
        sigma = stats.sigma.copy()
        config = small_config(epochs=2)
        model, _ = train(ds, init_model(stats, config), config)
        assert model.stats is stats
        assert (stats.sigma.dtype == np.float64
                and stats.sigma.tobytes() == sigma.tobytes())
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, small_config(), path)
        s2 = load_checkpoint(path)[0].stats
        assert (s2.sigma.dtype == np.float64
                and s2.sigma.tobytes() == sigma.tobytes())

    def test_mu_never_trained(self):
        ds = pattern_spins()
        stats = compute_stats(ds)
        config = small_config(epochs=3)
        model, _ = train(ds, init_model(stats, config), config)
        assert np.array_equal(model.mu, stats.mu)

    def test_data_pattern_energy_decreases(self):
        # free energy of the two data patterns drops from init to trained
        ds = pattern_spins(n_v=8)
        config = small_config(n_hidden=4, epochs=200, batch_size=16,
                              learning_rate=1e-2, seed=3)
        init = init_model(compute_stats(ds), config)
        trained, _ = train(ds, init, config)
        patterns = np.unique(ds, axis=0)
        assert exact_nll(trained, patterns) < exact_nll(init, patterns)

    def test_metrics_cadence(self):
        ds = pattern_spins()
        _, metrics = fit(ds, small_config(epochs=6, eval_every=2))
        assert [m.epoch for m in metrics] == [2, 4, 6]

    def test_cd_k_mode_runs(self):
        ds = pattern_spins()
        config = small_config(epochs=2, negative_mode="cd_k_from_data", k=2)
        model, metrics = fit(ds, config)
        assert np.all(np.isfinite(model.W)) and metrics

    def test_batch_larger_than_training_split_rejected(self):
        # 80 rows less an 8-row held-out fold leave 72 for training
        ds = pattern_spins()
        with pytest.raises(ValueError, match="holds 72 rows.*batch_size 75"):
            fit(ds, small_config(batch_size=75))

    def test_error_in_logged_evaluation_diverges(self, monkeypatch):
        # a sampler covariance or field that overflows float32 in the
        # held-out evaluation ends training, with the metrics logged before
        real = spinrbm.training._evaluate

        def failing(model, holdout, config, epoch, t0):
            if epoch == 3:
                raise ValueError("hidden field overflows float32")
            return real(model, holdout, config, epoch, t0)

        monkeypatch.setattr(spinrbm.training, "_evaluate", failing)
        with pytest.raises(TrainingDiverged,
                           match="epoch 3: hidden field overflows") as exc:
            fit(pattern_spins(), small_config(epochs=5))
        assert [m.epoch for m in exc.value.metrics] == [1, 2]
        assert exc.value.model.W.shape == (8, 4)


    @pytest.mark.parametrize("mode", ["belief_cd0", "cd_k_from_data"])
    def test_error_of_negative_phase_on_worker_diverges_as_on_caller(
            self, monkeypatch, mode):
        # 72 training rows in batches of 8: the 12th step is epoch 2 batch 2.
        # The negative phase runs on the worker thread and the data phase on
        # the caller; an error in either ends training the same way
        threads = []

        def failing_at_step_12(real):
            calls = []

            def fn(*args):
                calls.append(threading.current_thread())
                if len(calls) == 12:
                    raise ValueError("injected")
                return real(*args)
            threads.append(calls)
            return fn

        runs = []
        for name in ("_negative_batch", "data_phase"):
            with monkeypatch.context() as patch:
                patch.setattr(spinrbm.training, name, failing_at_step_12(
                    getattr(spinrbm.training, name)))
                with pytest.raises(TrainingDiverged,
                                   match="^epoch 2 batch 2: injected$") as exc:
                    fit(pattern_spins(), small_config(negative_mode=mode))
            runs.append(exc.value)
        negative_threads, data_threads = threads
        assert threading.main_thread() not in negative_threads
        assert set(data_threads) == {threading.main_thread()}
        # the same last in-range model, after 11 steps, and metrics so far
        worker, caller = runs
        assert worker.model.W.tobytes() == caller.model.W.tobytes()
        assert worker.model.b.tobytes() == caller.model.b.tobytes()
        assert [(m.epoch, m.energy_coefficient, m.recon_error)
                for m in worker.metrics] == [
            (m.epoch, m.energy_coefficient, m.recon_error)
            for m in caller.metrics]
        assert [m.epoch for m in worker.metrics] == [1]


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
                             stats=model.stats)
            now = exact_nll(model, data)
            assert now < last
            last = now


class TestCheckpoint:
    def _random_state(self, rng, n_v=6, n_h=3, r=4, **config):
        """A model whose data statistics have a sigma of rank r, and a
        config with its n_hidden."""
        model = random_model(rng, n_v, n_h, centered=False)
        stats = DataStats(mu=model.mu, sigma=random_sigma(rng, n_v, r))
        return (RbmModel(W=model.W, b=model.b, stats=stats),
                small_config(n_hidden=n_h, **config))

    def test_roundtrip_bit_exact(self, rng, tmp_path):
        for i in range(10):
            model, config = self._random_state(rng, seed=i)
            path = tmp_path / f"ck{i}.rbm"
            save_checkpoint(model, config, path)
            m2, c2 = load_checkpoint(path)
            for a, b in ((model.W, m2.W), (model.b, m2.b), (model.mu, m2.mu),
                         (model.stats.sigma, m2.stats.sigma)):
                assert a.tobytes() == b.tobytes()
            assert c2 == config

    @pytest.mark.parametrize("n_v, n_h, r", [(6, 3, 4), (4, 1, 1), (9, 5, 7)])
    def test_length_is_header_arrays_and_config(self, rng, tmp_path, n_v, n_h, r):
        # header, b, W, mu and sigma (n_v x n_v, whatever its rank r), then
        # the config echo behind its u32 length
        model, config = self._random_state(rng, n_v, n_h, r)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        config_json = json.dumps(config.__dict__, sort_keys=True).encode()
        assert path.stat().st_size == (20 + 8 * (2 * n_v + n_v * n_h + n_v * n_v)
                                       + 4 + len(config_json))
        assert path.read_bytes().endswith(config_json)

    @pytest.mark.parametrize("key", sorted(TrainConfig.__dataclass_fields__))
    def test_missing_config_key_rejected(self, rng, tmp_path, key):
        model, config = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        fields = {k: v for k, v in config.__dict__.items() if k != key}
        path.write_bytes(with_config(path.read_bytes(), config, fields))
        with pytest.raises(ValueError, match=f"missing checkpoint config key '{key}'"):
            load_checkpoint(path)

    def test_corrupted_magic_rejected(self, rng, tmp_path):
        model, config = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, rng, tmp_path):
        model, config = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncation_at_every_offset_rejected(self, rng, tmp_path):
        model, config = self._random_state(rng, n_v=4, n_h=3, r=4)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.rbm"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(ValueError, match=r"magic|offset \d+"):
                load_checkpoint(cut)

    def test_every_flipped_byte_rejected(self, rng, tmp_path):
        # the magic and the version are checked by value, the checksum
        # covers every byte after them: no flip of any byte loads
        model, config = self._random_state(rng, n_v=4, n_h=3, r=4)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        blob = path.read_bytes()
        flipped = tmp_path / "flipped.rbm"
        for at in range(len(blob)):
            for mask in (0x01, 0xFF):
                bad = bytearray(blob)
                bad[at] ^= mask
                flipped.write_bytes(bytes(bad))
                with pytest.raises(ValueError, match="flipped.rbm: "):
                    load_checkpoint(flipped)

    def test_checksum_mismatch_named(self, rng, tmp_path):
        model, config = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        blob = bytearray(path.read_bytes())
        blob[-2] ^= 0x01  # a byte of the config echo: no size changes
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="ck.rbm: checksum mismatch"):
            load_checkpoint(path)

    def test_threshold_out_of_range_rejected(self, rng, tmp_path):
        model, config = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        path.write_bytes(with_config(path.read_bytes(), config,
                                     {**config.__dict__, "binarize_threshold": 7}))
        with pytest.raises(ValueError,
                           match=r"ck.rbm: binarize_threshold must lie in \(0, 1\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, noun", [
        ("epochs", math.nan, "an int"), ("k", math.nan, "an int"),
        ("eval_batch", 2.5, "an int"), ("seed", True, "an int"),
        ("seed", 1.5, "an int"), ("epochs", "3", "an int"),
        ("learning_rate", "0.1", "a float"), ("negative_mode", 1, "a str")])
    def test_config_value_of_wrong_type_rejected(self, rng, tmp_path, key,
                                                  value, noun):
        model, config = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        path.write_bytes(with_config(path.read_bytes(), config,
                                     {**config.__dict__, key: value}))
        with pytest.raises(ValueError,
                           match=f"ck.rbm: {key} must be {noun}, got"):
            load_checkpoint(path)

    def test_config_block_that_is_no_object_rejected(self, rng, tmp_path):
        model, config = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        path.write_bytes(with_config(path.read_bytes(), config,
                                     sorted(config.__dict__)))
        with pytest.raises(ValueError,
                           match="ck.rbm: checkpoint config is not a JSON object"):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, rng, tmp_path):
        model, config = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        path.write_bytes(with_config(path.read_bytes(), config,
                                     {**config.__dict__, "bogus": 1}))
        with pytest.raises(ValueError, match="'bogus'"):
            load_checkpoint(path)

    def test_config_of_numpy_numbers_roundtrips(self, rng, tmp_path):
        # the echo is JSON: each number is stored as a Python int or float
        config = TrainConfig(n_hidden=np.int32(3), epochs=np.int64(2),
                             learning_rate=np.float32(0.5), seed=np.uint64(7),
                             init_std=np.float64(0.25), k=np.int8(1))
        model = random_model(rng, 4, 3)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        assert load_checkpoint(path)[1] == config
        echo = json.loads(path.read_bytes()[-len(
            json.dumps(config.__dict__, sort_keys=True)):])
        assert echo["learning_rate"] == 0.5 and echo["seed"] == 7

    def test_sampling_without_recomputing_stats(self, rng, tmp_path):
        from spinrbm.sampling import belief_generate, make_rng
        model, config = self._random_state(rng)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, config, path)
        m2, _ = load_checkpoint(path)
        v = belief_generate(m2, 5, make_rng(0))
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

    @pytest.mark.parametrize("field, value", [
        ("n_hidden", 0), ("epochs", -1), ("batch_size", 0), ("k", -1),
        ("eval_every", 0), ("eval_batch", 0), ("learning_rate", 0.0),
        ("init_std", -1.0), ("negative_mode", "pcd"),
        ("binarize_threshold", 2.0), ("seed", -1)])
    def test_error_begins_with_its_field(self, field, value):
        # rbm train swaps the field in front of the message for its flag
        with pytest.raises(ValueError, match=f"^{field} "):
            small_config(**{field: value})

    @pytest.mark.parametrize("field, value, noun", [
        ("epochs", math.nan, "an int"), ("eval_batch", 2.5, "an int"),
        ("seed", True, "an int"), ("n_hidden", "8", "an int"),
        ("k", np.float64(1.0), "an int"), ("learning_rate", "0.1", "a float"),
        ("init_std", None, "a float"), ("binarize_threshold", False, "a float"),
        ("negative_mode", 0, "a str")])
    def test_value_of_wrong_type_rejected(self, field, value, noun):
        message = f"{field} must be {noun}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{field: value})

    def test_numpy_and_integer_numbers_accepted(self):
        # and stored as Python numbers of the field's type
        config = TrainConfig(seed=np.int64(3), n_hidden=np.uint16(8),
                             learning_rate=1, init_std=np.float32(0.25))
        assert (config.seed, config.n_hidden) == (3, 8)
        assert (config.learning_rate, config.init_std) == (1, 0.25)
        for name in ("seed", "n_hidden", "learning_rate", "init_std"):
            assert type(getattr(config, name)) is type(
                TrainConfig.__dataclass_fields__[name].default)

    @pytest.mark.parametrize("field", ["learning_rate", "init_std",
                                       "binarize_threshold"])
    def test_integer_beyond_float_range_rejected(self, field):
        with pytest.raises(ValueError,
                           match=f"^{field} must lie within float range"):
            TrainConfig(**{field: 10 ** 400})

    @pytest.mark.parametrize("default, good, bad", [
        (0, -7, 0.0), (0.5, 2, "0.5"), ("x", "", b"x"), (None, "path", 7)])
    def test_check_option_takes_the_type_of_the_default(self, default, good,
                                                        bad):
        check_option("opt", good, default)
        for value in (bad, True, np.True_):
            with pytest.raises(ValueError, match="^opt must be "):
                check_option("opt", value, default)

    @pytest.mark.parametrize("value", [-3, 0, 1, 2.5, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match=r"binarize_threshold must lie in \(0, 1\)"):
            small_config(binarize_threshold=value)
        assert small_config(binarize_threshold=0.99).binarize_threshold == 0.99
