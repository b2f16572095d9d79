import gzip
import io
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spinrbm.cli
import spinrbm.training
from conftest import (idx_image_bytes, random_model, read_pgm, resealed,
                      stats_at, synthetic_digits, with_config,
                      write_synthetic_idx)
from spinrbm.cli import OPTIONS, _openblas_thread_calls, main
from spinrbm.data import DataStats
from spinrbm.model import GradientPair, RbmModel
from spinrbm.training import TrainConfig, load_checkpoint, save_checkpoint

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRAIN_FLAGS = ["--n-hidden", "32", "--epochs", "2", "--batch-size", "128",
               "--eval-batch", "128"]


def _env_with_src():
    src = str(Path(spinrbm.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": src}


def raising(exc):
    """A stand-in for a call that fails with exc."""
    def call(*args):
        raise exc
    return call


def assert_error_line(code, capsys, reason):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and reason in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def tiny_checkpoint(path, model=None, sigma=np.eye(4), **config):
    """A checkpoint of a 2x2-pixel model (n_v = 4, n_h = 3)."""
    if model is None:
        model = random_model(np.random.default_rng(0), 4, 3)
    model = replace(model, stats=DataStats(mu=model.mu, sigma=sigma))
    save_checkpoint(model, TrainConfig(n_hidden=3, **config), path)
    return path


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A run trained on synthetic digits, made once per module: no test
    writes into its directory."""
    data = write_synthetic_idx(tmp_path_factory.mktemp("idx"))
    out = tmp_path_factory.mktemp("trained") / "run"
    code = main(["train", "--data", str(data), "--out", str(out),
                 "--seed", "5", *TRAIN_FLAGS])
    assert code == 0
    return out


class TestTrain:
    def test_outputs_produced(self, trained_run):
        assert (trained_run / "checkpoint.rbm").is_file()
        assert (trained_run / "metrics.csv").is_file()
        assert (trained_run / "manifest.json").is_file()
        manifest = json.loads((trained_run / "manifest.json").read_text())
        assert manifest["config"]["n_hidden"] == 32

    def test_manifest_records_each_fact_once(self, trained_run):
        # the seed lives in the config echo alone
        manifest = json.loads((trained_run / "manifest.json").read_text())
        assert set(manifest) == {"command", "config", "data", "checkpoint",
                                 "metrics_csv", "subset",
                                 "recon_error_definition", "threads",
                                 "numpy_version"}
        assert manifest["config"]["seed"] == 5

    def test_manifest_records_thread_setting(self, trained_run):
        manifest = json.loads((trained_run / "manifest.json").read_text())
        threads = manifest["threads"]
        assert set(threads) == {"cpu_count", "affinity_count", "blas_threads",
                                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS"}
        assert threads["cpu_count"] >= 1
        # this process loaded numpy before spinrbm.cli, so main set numpy's
        # OpenBLAS to one thread for the run
        assert threads["blas_threads"] == 1
        assert manifest["numpy_version"] == np.__version__

    def test_manifest_records_no_blas_threads_without_openblas(
            self, synthetic_idx_dir, tmp_path, monkeypatch):
        # numpy loaded before spinrbm.cli, and its BLAS is no OpenBLAS
        monkeypatch.setattr(spinrbm.cli, "_BLAS_PINNED", False)
        monkeypatch.setattr(spinrbm.cli, "_openblas_thread_calls", lambda: None)
        out = tmp_path / "run"
        assert main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS, "--epochs", "0"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"]["blas_threads"] is None

    def test_metrics_header(self, trained_run):
        header = (trained_run / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,energy_coefficient,recon_error,wall_ms"

    def test_missing_data_fails_closed(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--data", str(tmp_path / "nope"), "--out", str(out)])
        assert code != 0
        assert not (out / "checkpoint.rbm").exists()

    def test_seed_determinism(self, synthetic_idx_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--data", str(synthetic_idx_dir),
                         "--out", str(out), "--seed", "7", *TRAIN_FLAGS]) == 0
            outs.append(out)
        assert (outs[0] / "checkpoint.rbm").read_bytes() == \
               (outs[1] / "checkpoint.rbm").read_bytes()

    def test_config_file_with_flag_override(self, synthetic_idx_dir, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "data": str(synthetic_idx_dir), "out": str(tmp_path / "run"),
            "n-hidden": 16, "epochs": 3, "batch-size": 128, "eval-batch": 128,
            "seed": 1}))
        assert main(["train", "--config", str(conf), "--epochs", "1"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["n_hidden"] == 16
        assert manifest["config"]["epochs"] == 1  # CLI flag wins

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"bogus": 1}))
        assert main(["train", "--config", str(conf)]) != 0

    def test_config_not_an_object_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps([{"epochs": 1}]))
        assert_error_line(main(["train", "--config", str(conf)]), capsys,
                          "JSON object")

    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"epochs": "3"}))
        assert_error_line(main(["train", "--config", str(conf)]), capsys,
                          "'epochs'")

    def test_integer_beyond_float_range_leaves_no_output(
            self, synthetic_idx_dir, tmp_path, capsys):
        # JSON holds integers of any size; float() of this one overflows
        conf = tmp_path / "conf.json"
        conf.write_text('{"learning_rate": 1' + "0" * 400 + "}")
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS, "--config", str(conf)])
        assert_error_line(code, capsys, "error: --learning-rate must lie "
                                        "within float range")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_subset_rejected(self, synthetic_idx_dir, tmp_path,
                                      capsys, source):
        out = tmp_path / "run"
        args = ["train", "--data", str(synthetic_idx_dir), "--out", str(out),
                *TRAIN_FLAGS]
        if source == "flag":
            args += ["--subset", "-5"]
        else:
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"subset": -5}))
            args += ["--config", str(conf)]
        assert_error_line(main(args), capsys, "--subset")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,reason", [
        ("--init-std", "nan", "--init-std must be finite"),
        ("--threshold", "1.5", "--threshold must lie in (0, 1)"),
        ("--n-hidden", "0", "--n-hidden must be >= 1, got 0"),
        ("--batch-size", "0", "--batch-size must be >= 1, got 0"),
        ("--eval-every", "0", "--eval-every must be >= 1, got 0"),
        ("--epochs", "-1", "--epochs must be >= 0, got -1"),
        ("--subset", "1", "need at least 2 samples"),
        ("--subset", "60", "training split holds 54 rows"),
        ("--init-std", "1e300", "--init-std")],
        ids=["init_std", "threshold", "n_hidden", "batch_size", "eval_every",
             "epochs", "subset_1", "subset_60", "init_std_1e300"])
    def test_bad_value_leaves_no_output(self, synthetic_idx_dir, tmp_path,
                                        capsys, flag, value, reason):
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS, flag, value])
        assert_error_line(code, capsys, reason)
        assert not out.exists()

    def test_images_without_pixels_rejected(self, tmp_path, capsys):
        data = tmp_path / "img"
        out = tmp_path / "run"
        for dims in ((100, 0, 0), (0, 28, 28)):
            data.write_bytes(idx_image_bytes(np.zeros(dims)))
            code = main(["train", "--data", str(data), "--out", str(out),
                         *TRAIN_FLAGS])
            assert_error_line(code, capsys,
                              f"{data}: implausible dimensions {list(dims)}")
            assert not out.exists()

    def test_corrupt_gzip_leaves_no_output(self, tmp_path, capsys):
        data = tmp_path / "img.gz"
        blob = gzip.compress(idx_image_bytes(np.zeros((100, 2, 2))))
        data.write_bytes(blob[:len(blob) // 2])
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--out", str(out),
                     *TRAIN_FLAGS])
        assert_error_line(code, capsys, "img.gz: corrupt gzip data")
        assert not out.exists()

    def test_weights_beyond_float32_range_diverge(self, synthetic_idx_dir,
                                                   tmp_path, capsys):
        # the first Adam step moves W by ~1e300: the initial model is kept
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS, "--learning-rate", "1e300"])
        assert_error_line(code, capsys, "training diverged")
        model, _ = load_checkpoint(out / "checkpoint.rbm")
        assert np.abs(model.W).max() < 1.0
        assert (out / "metrics.csv").read_text().splitlines() == [
            "epoch,energy_coefficient,recon_error,wall_ms"]

    def test_overflowing_sampler_covariance_diverges(
            self, synthetic_idx_dir, tmp_path, capsys):
        # the first Adam step moves W by ~1e19, within float32 range, but
        # W^T Sigma W overflows it: the next negative batch cannot be drawn
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS, "--learning-rate", "1e19"])
        assert_error_line(code, capsys, "training diverged: epoch 1 batch 1: "
                                        "covariance W^T Sigma W overflows")
        model, _ = load_checkpoint(out / "checkpoint.rbm")
        assert model.n_h == 32

    def test_overflowing_gibbs_field_diverges(self, synthetic_idx_dir,
                                              tmp_path, capsys):
        # W stays within float32 range, but the Gibbs fields off the data
        # overflow it
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS, "--negative-mode",
                     "cd_k_from_data", "--learning-rate", "1e37"])
        assert_error_line(code, capsys, "training diverged: epoch 1 batch 1: "
                                        "hidden field overflows float32")
        model, _ = load_checkpoint(out / "checkpoint.rbm")
        assert model.n_h == 32

    def test_initial_weights_beyond_float32_range_rejected(
            self, synthetic_idx_dir, tmp_path, capsys):
        # any warning fails the suite, so this also pins that none is printed
        code = main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(tmp_path / "run"), *TRAIN_FLAGS, "--init-std", "1e300"])
        assert_error_line(code, capsys, "W entries must be finite and within "
                                        "float32 range")

    def test_refused_allocation_leaves_no_output(self, synthetic_idx_dir,
                                                 tmp_path, capsys, monkeypatch):
        # what numpy raises for --n-hidden 1000000000, without allocating
        reason = ("Unable to allocate 5.70 TiB for an array with shape "
                  "(784, 1000000000) and data type float64")

        def refused(stats, config):
            raise MemoryError(reason)

        monkeypatch.setattr(spinrbm.cli, "init_model", refused)
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir), "--out",
                     str(out), *TRAIN_FLAGS])
        assert_error_line(code, capsys, f"error: {reason}")
        assert not out.exists()

    def test_divergence_saves_last_finite_model(self, synthetic_idx_dir,
                                                tmp_path, capsys, monkeypatch):
        # 1872 training rows in batches of 128: 15 steps per epoch, so the
        # 21st gradient falls mid-way through epoch 2, after the epoch-1 log;
        # a step completes its gradient in add_model_phase
        real = spinrbm.training.add_model_phase
        calls = []

        def failing(model, data_part, neg):
            calls.append(1)
            grads = real(model, data_part, neg)
            if len(calls) == 21:
                return GradientPair(d_b=grads.d_b * np.nan, d_W=grads.d_W)
            return grads

        monkeypatch.setattr(spinrbm.training, "add_model_phase", failing)
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir),
                     "--out", str(out), "--seed", "5", *TRAIN_FLAGS])
        assert_error_line(code, capsys, "training diverged")
        model, _ = load_checkpoint(out / "checkpoint.rbm")
        assert model.n_h == 32
        rows = (out / "metrics.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["epoch", "1"]


class TestBlasThreads:
    def test_package_import_loads_no_numpy(self):
        subprocess.run([sys.executable, "-c", "import spinrbm, sys; "
                        "assert 'numpy' not in sys.modules"],
                       env=_env_with_src(), check=True)

    def test_thread_variables_set_before_numpy_loads(self):
        # importing the command sets all three to 1, so the OpenBLAS that
        # numpy then loads starts with one thread
        env = {**_env_with_src(), **dict.fromkeys(THREAD_VARS, "2")}
        script = ("import os, spinrbm.cli as cli\n"
                  f"assert all(os.environ[v] == '1' for v in {THREAD_VARS})\n"
                  "calls = cli._openblas_thread_calls()\n"
                  "assert calls is None or calls[0]() == 1\n")
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_same_bytes_whatever_the_thread_variables(self, tmp_path):
        # rbm sets BLAS to one thread before numpy loads and splits its work
        # over two workers in a fixed way; main called in this process,
        # where numpy loaded first, sets numpy's OpenBLAS to one thread
        images, _ = synthetic_digits(np.random.default_rng(77), 600)
        (tmp_path / "train-images-idx3-ubyte").write_bytes(
            idx_image_bytes(images))
        args = ["train", "--data", str(tmp_path), "--n-hidden", "16",
                "--batch-size", "64", "--eval-batch", "64", "--epochs", "2"]

        def outputs(out):
            rows = [line.rsplit(",", 1)[0] for line in  # less wall_ms
                    (out / "metrics.csv").read_text().splitlines()]
            return (out / "checkpoint.rbm").read_bytes(), rows

        runs = []
        for threads in ("1", "2", None):
            env = _env_with_src()
            for name in THREAD_VARS:
                env.pop(name, None)
                if threads is not None:
                    env[name] = threads
            out = tmp_path / f"run-{threads}"
            subprocess.run([sys.executable, "-m", "spinrbm.cli", *args,
                            "--out", str(out)],
                           env=env, check=True, capture_output=True)
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["threads"]["blas_threads"] == 1
            assert all(manifest["threads"][name] == threads
                       for name in THREAD_VARS)
            runs.append(outputs(out))
        assert main([*args, "--out", str(tmp_path / "in-process")]) == 0
        runs.append(outputs(tmp_path / "in-process"))
        assert len(runs[0][1]) == 3
        assert all(run == runs[0] for run in runs[1:])

    def test_main_restores_the_blas_thread_count(self, synthetic_idx_dir,
                                                 tmp_path):
        calls = _openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS is no OpenBLAS")
        get, put = calls
        before = get()
        put(2)
        try:
            seen = []
            real = spinrbm.cli.train

            def spy(*args, **kwargs):
                seen.append(get())
                return real(*args, **kwargs)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spinrbm.cli, "train", spy)
                assert main(["train", "--data", str(synthetic_idx_dir),
                             "--out", str(tmp_path / "run"),
                             *TRAIN_FLAGS]) == 0
            assert seen == [1] and get() == 2
        finally:
            put(before)

    def test_no_thread_calls_without_a_readable_map(self, monkeypatch):
        monkeypatch.setattr(spinrbm.cli, "open", raising(PermissionError()),
                            raising=False)
        assert _openblas_thread_calls() is None

    def test_no_thread_calls_when_no_library_exports_them(self, monkeypatch):
        # a mapped file named like OpenBLAS whose library lacks the calls
        maps = ("7f0000000000-7f0000001000 r-xp 00000000 08:01 42 "
                "/usr/lib/libopenblas.so.0\n")
        opened = []
        monkeypatch.setattr(spinrbm.cli, "open",
                            lambda path: io.StringIO(maps), raising=False)
        monkeypatch.setattr(spinrbm.cli, "ctypes", SimpleNamespace(
            CDLL=lambda path: opened.append(path) or SimpleNamespace()))
        assert _openblas_thread_calls() is None
        assert opened == ["/usr/lib/libopenblas.so.0"]

    @pytest.mark.parametrize("confstr", [
        pytest.param(raising(AttributeError()), id="no-confstr"),
        pytest.param(raising(ValueError()), id="unknown-name"),
        pytest.param(raising(OSError()), id="oserror"),
        pytest.param(lambda name: None, id="no-value"),
        pytest.param(lambda name: "musl 1.2.4", id="not-glibc"),
    ])
    def test_malloc_arena_cap_skipped_without_glibc(self, monkeypatch,
                                                    confstr):
        monkeypatch.setattr(spinrbm.cli.os, "confstr", confstr)
        # no mallopt call: the libc is never opened
        monkeypatch.setattr(spinrbm.cli, "ctypes", SimpleNamespace(
            CDLL=raising(AssertionError("libc opened"))))
        spinrbm.cli._one_malloc_arena()


class TestSample:
    def test_default_grid_layout(self, trained_run, tmp_path):
        out = tmp_path / "samples.pgm"
        assert main(["sample", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                     "--out", str(out), "--seed", "3"]) == 0
        img = read_pgm(out)
        # 7 step rows x 16 chains of 28x28 tiles with 1px padding
        assert img.shape == (7 * 29 + 1, 16 * 29 + 1)

    def test_single_step_grid(self, trained_run, tmp_path):
        out = tmp_path / "s.pgm"
        assert main(["sample", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                     "--out", str(out), "--steps", "0"]) == 0
        assert read_pgm(out).shape == (29 + 1, 16 * 29 + 1)

    def test_empty_steps_rejected(self, trained_run, tmp_path, capsys):
        # a step that is not an integer, and a chain count below one
        out = tmp_path / "s.pgm"
        for flag, value, reason in (("--steps", "", "--steps"),
                                    ("--steps", "0,x", "--steps '0,x': invalid "
                                     "literal for int() with base 10: 'x'"),
                                    ("--chains", "0", "--chains must be >= 1, got 0"),
                                    ("--chains", "-3", "--chains must be >= 1, got -3")):
            code = main(["sample", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                         "--out", str(out), flag, value])
            assert_error_line(code, capsys, reason)
            assert not out.exists()

    def test_refused_allocation_leaves_no_pgm(self, trained_run, tmp_path,
                                              capsys, monkeypatch):
        # a MemoryError without a message, as Python's own allocations raise
        def refused(model, chains, steps, rng):
            raise MemoryError

        monkeypatch.setattr(spinrbm.cli, "gibbs_chain", refused)
        out = tmp_path / "s.pgm"
        code = main(["sample", "--checkpoint",
                     str(trained_run / "checkpoint.rbm"), "--out", str(out),
                     "--chains", "1000000000"])
        assert_error_line(code, capsys, "error: out of memory")
        assert not out.exists()

    def test_seed_determinism(self, trained_run, tmp_path):
        blobs = []
        for name in ("x.pgm", "y.pgm"):
            out = tmp_path / name
            assert main(["sample", "--checkpoint",
                         str(trained_run / "checkpoint.rbm"),
                         "--out", str(out), "--seed", "9"]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    # DataStats checks sigma and RbmModel checks W
    @pytest.mark.parametrize("array, value, reason", [
        pytest.param("sigma", np.nan, "sigma entries must be finite", id="nan"),
        pytest.param("sigma", np.inf, "sigma entries must be finite", id="inf"),
        pytest.param("sigma", 1e200, "sigma entries must be finite",
                     id="1e+200"),
        pytest.param("W", np.nan, "W entries must be finite", id="W-nan"),
        pytest.param("W", np.inf, "W entries must be finite", id="W-inf"),
        pytest.param("W", 1e200, "W entries must be finite", id="W-1e200"),
    ])
    def test_checkpoint_with_unusable_sigma_or_w_rejected(
            self, tmp_path, capsys, array, value, reason):
        path = tiny_checkpoint(tmp_path / "ck.rbm")
        blob = bytearray(path.read_bytes())
        # after the 20-byte header: b (4), W (4 x 3), mu (4), sigma (4 x 4)
        at, size = {"W": (20 + 8 * 4, 12),
                    "sigma": (20 + 8 * (4 + 12 + 4), 16)}[array]
        blob[at:at + 8 * size] = np.full(size, value).tobytes()
        path.write_bytes(resealed(bytes(blob)))
        out = tmp_path / "o.pgm"
        code = main(["sample", "--checkpoint", str(path), "--out", str(out)])
        assert_error_line(code, capsys, f"ck.rbm: {reason}")
        assert not out.exists()

    def test_checkpoint_with_overflowing_covariance_rejected(self, tmp_path,
                                                            capsys):
        # Sigma W = 1.2e38 lies within float32 range, W^T Sigma W does not
        model = RbmModel(W=np.ones((4, 3)), b=np.zeros(4), stats=stats_at(np.zeros(4)))
        path = tiny_checkpoint(tmp_path / "ck.rbm", model,
                               np.full((4, 4), 3e37))
        out = tmp_path / "o.pgm"
        code = main(["sample", "--checkpoint", str(path), "--out", str(out)])
        assert_error_line(code, capsys, "covariance W^T Sigma W overflows")
        assert not out.exists()

    def test_checkpoint_with_sigma_that_is_no_covariance_rejected(
            self, tmp_path, capsys):
        path = tiny_checkpoint(tmp_path / "ck.rbm", sigma=-np.eye(4))
        out = tmp_path / "o.pgm"
        code = main(["sample", "--checkpoint", str(path), "--out", str(out)])
        assert_error_line(code, capsys, "sigma is not a covariance")
        assert not out.exists()

    def test_visible_layer_that_is_no_square_image_rejected(self, tmp_path,
                                                            capsys):
        model = random_model(np.random.default_rng(0), 10, 3)
        path = tiny_checkpoint(tmp_path / "ck.rbm", model, sigma=np.eye(10))
        out = tmp_path / "o.pgm"
        code = main(["sample", "--checkpoint", str(path), "--out", str(out)])
        assert_error_line(code, capsys,
                          "visible layer of 10 units is not a square image")
        assert not out.exists()

    def test_config_echo_of_wrong_type_rejected(self, tmp_path, capsys):
        path = tiny_checkpoint(tmp_path / "ck.rbm")
        config = TrainConfig(n_hidden=3)
        path.write_bytes(with_config(path.read_bytes(), config,
                                     {**config.__dict__, "epochs": float("nan")}))
        out = tmp_path / "o.pgm"
        code = main(["sample", "--checkpoint", str(path), "--out", str(out)])
        assert_error_line(code, capsys,
                          f"{path}: epochs must be an int, got nan")
        assert not out.exists()

    def test_flipped_byte_error_line(self, tmp_path, capsys):
        # magic, version, checksum, n_v, n_h, b, W, mu, sigma, the config
        # length and the config echo
        blob = tiny_checkpoint(tmp_path / "ck.rbm").read_bytes()
        out = tmp_path / "o.pgm"
        for at in (0, 5, 8, 12, 17, 20, 60, 170, 300, 309, len(blob) - 1):
            bad = bytearray(blob)
            bad[at] ^= 0x01
            (tmp_path / "bad.rbm").write_bytes(bytes(bad))
            code = main(["sample", "--checkpoint", str(tmp_path / "bad.rbm"),
                         "--out", str(out)])
            assert_error_line(code, capsys, "bad.rbm: ")
            assert not out.exists()

    def test_overflowing_gibbs_field_rejected(self, tmp_path, capsys):
        # Sigma = 0 keeps phi at 0, but the fields of the Gibbs steps sum
        # entries of 2e38
        model = RbmModel(W=np.full((4, 3), 2e38), b=np.zeros(4),
                         stats=stats_at(np.zeros(4)))
        path = tiny_checkpoint(tmp_path / "ck.rbm", model, np.zeros((4, 4)))
        out = tmp_path / "o.pgm"
        code = main(["sample", "--checkpoint", str(path), "--out", str(out)])
        assert_error_line(code, capsys, "field overflows float32")
        assert not out.exists()

    def test_bad_checkpoint(self, tmp_path):
        bad = tmp_path / "bad.rbm"
        bad.write_bytes(b"nope")
        assert main(["sample", "--checkpoint", str(bad),
                     "--out", str(tmp_path / "o.pgm")]) != 0

    def test_malformed_checkpoint_error_line(self, tmp_path, capsys):
        model = random_model(np.random.default_rng(0), 4, 3)
        config = TrainConfig(n_hidden=3)
        path = tmp_path / "ck.rbm"
        model = replace(model, stats=DataStats(mu=model.mu, sigma=np.eye(4)))
        save_checkpoint(model, config, path)
        blob = path.read_bytes()
        truncated = tmp_path / "truncated.rbm"
        truncated.write_bytes(blob[:30])
        unknown = tmp_path / "unknown.rbm"
        unknown.write_bytes(with_config(blob, config,
                                        {**config.__dict__, "bogus": 1}))
        missing = tmp_path / "missing.rbm"
        missing.write_bytes(with_config(
            blob, config, {k: v for k, v in config.__dict__.items()
                           if k != "binarize_threshold"}))
        no_hidden = tmp_path / "no_hidden.rbm"
        save_checkpoint(replace(model, W=np.zeros((4, 0))), config, no_hidden)
        mismatch = tmp_path / "mismatch.rbm"
        save_checkpoint(model, TrainConfig(n_hidden=5), mismatch)
        version_1 = tmp_path / "version_1.rbm"
        version_1.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        version_2 = tmp_path / "version_2.rbm"
        version_2.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
        for bad, reason in ((truncated, "offset 20"), (unknown, "'bogus'"),
                            (missing, "missing checkpoint config key "
                                      "'binarize_threshold'"),
                            (no_hidden, "n_h 0) at offset 12"),
                            (mismatch, "config key 'n_hidden' is 5, "
                                       "header n_h is 3"),
                            (version_1, "unsupported checkpoint version 1"),
                            (version_2, "unsupported checkpoint version 2")):
            code = main(["sample", "--checkpoint", str(bad),
                         "--out", str(tmp_path / "o.pgm")])
            assert_error_line(code, capsys, reason)


class TestReconstruct:
    def test_two_row_grid(self, trained_run, synthetic_idx_dir, tmp_path):
        out = tmp_path / "rec.pgm"
        assert main(["reconstruct", "--checkpoint",
                     str(trained_run / "checkpoint.rbm"),
                     "--data", str(synthetic_idx_dir), "--out", str(out)]) == 0
        assert read_pgm(out).shape == (2 * 29 + 1, 16 * 29 + 1)

    def test_zero_count_rejected(self, trained_run, synthetic_idx_dir,
                                 tmp_path, capsys):
        # and a count beyond the 2000 rows of the data
        for count in ("0", "5000"):
            code = main(["reconstruct", "--checkpoint",
                         str(trained_run / "checkpoint.rbm"),
                         "--data", str(synthetic_idx_dir),
                         "--out", str(tmp_path / "rec.pgm"), "--count", count])
            assert_error_line(code, capsys, "--count")
            assert not (tmp_path / "rec.pgm").exists()


class TestEval:
    def test_csv_schema_and_determinism(self, trained_run, synthetic_idx_dir,
                                        tmp_path):
        args = ["eval", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                "--data", str(synthetic_idx_dir), "--batch-size", "256",
                "--seed", "2"]
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        lines = out1.read_text().splitlines()
        assert lines[0] == "step,recon_error,energy_coefficient"
        assert len(lines) == 7  # header + steps 0,2,4,8,16,32
        for line in lines[1:]:
            _, err, coeff = line.split(",")
            assert 0.0 <= float(err) <= 1.0
            assert float(coeff) <= 1.0
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_step(self, trained_run, synthetic_idx_dir, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["eval", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                     "--data", str(synthetic_idx_dir), "--out", str(out),
                     "--steps", "0", "--batch-size", "128"]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_empty_steps_rejected(self, trained_run, synthetic_idx_dir,
                                  tmp_path, capsys):
        # and a step that is not an integer
        out = tmp_path / "e.csv"
        for steps, reason in ((",", "--steps"),
                              ("0,x", "--steps '0,x': invalid literal for "
                               "int() with base 10: 'x'")):
            code = main(["eval", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                         "--data", str(synthetic_idx_dir), "--out", str(out),
                         "--steps", steps])
            assert_error_line(code, capsys, reason)
            assert not out.exists()


class TestWeights:
    def test_default_grid(self, trained_run, tmp_path):
        out = tmp_path / "w.pgm"
        assert main(["weights", "--checkpoint",
                     str(trained_run / "checkpoint.rbm"),
                     "--out", str(out), "--count", "16"]) == 0
        assert read_pgm(out).shape == (4 * 29 + 1, 4 * 29 + 1)

    def test_zero_count_rejected(self, trained_run, tmp_path, capsys):
        code = main(["weights", "--checkpoint",
                     str(trained_run / "checkpoint.rbm"),
                     "--out", str(tmp_path / "w.pgm"), "--count", "0"])
        assert_error_line(code, capsys, "--count")

    def test_seed_determinism(self, trained_run, tmp_path):
        blobs = []
        for name in ("w1.pgm", "w2.pgm"):
            out = tmp_path / name
            assert main(["weights", "--checkpoint",
                         str(trained_run / "checkpoint.rbm"),
                         "--out", str(out), "--seed", "4"]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestOptions:
    @pytest.mark.parametrize("command,name", [
        (command, name) for command, options in OPTIONS.items()
        for name, default in options.items() if default is None])
    def test_required_option_missing(self, tmp_path, capsys, command, name):
        args = [command]
        for other, default in OPTIONS[command].items():
            if default is None and other != name:
                args += [f"--{other}", str(tmp_path / other)]
        assert_error_line(main(args), capsys, f"--{name} is required")

    @pytest.mark.parametrize("command,name", [
        (command, name) for command, options in OPTIONS.items()
        for name in options])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys,
                                                 command, name):
        default = OPTIONS[command][name]
        noun = {int: "an int", float: "a float"}.get(type(default), "a str")
        for wrong in ({int: 1.5, float: "0.5"}.get(type(default), 7), True):
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({name: wrong}))
            assert_error_line(main([command, "--config", str(conf)]), capsys,
                              f"config key {name!r} must be {noun}, "
                              f"got {wrong!r}")

    @pytest.mark.parametrize("command", ["train", "sample"])
    def test_seed_outside_64_bits_rejected(self, synthetic_idx_dir, tmp_path,
                                           capsys, command):
        out = tmp_path / "out"
        if command == "train":
            args = ["train", "--data", str(synthetic_idx_dir), *TRAIN_FLAGS]
        else:
            args = ["sample", "--checkpoint",
                    str(tiny_checkpoint(tmp_path / "ck.rbm"))]
        code = main([*args, "--out", str(out), "--seed", "-1"])
        assert_error_line(code, capsys, "seed must lie in [0, 2**64)")
        assert not out.exists()


class TestThresholdFromCheckpoint:
    def test_reconstruct_binarizes_at_checkpoint_threshold(self, tmp_path):
        ck = tiny_checkpoint(tmp_path / "ck.rbm", binarize_threshold=0.9)
        data = tmp_path / "img"
        data.write_bytes(idx_image_bytes(np.full((10, 2, 2), 128)))
        out = tmp_path / "rec.pgm"
        assert main(["reconstruct", "--checkpoint", str(ck), "--data",
                     str(data), "--out", str(out), "--count", "4"]) == 0
        # 128/255 lies above 0.5 but not above 0.9: every original is -1
        # (black), between the 1-px mid-gray padding
        originals = read_pgm(out)[1:3]
        assert np.unique(originals).tolist() == [0, 128]

    @pytest.mark.parametrize("command", ["reconstruct", "eval"])
    def test_no_threshold_flag(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--checkpoint", "ck", "--data", "d",
                  "--threshold", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["reconstruct", "eval"])
    def test_no_threshold_config_key(self, tmp_path, capsys, command):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"threshold": 0.5}))
        assert_error_line(main([command, "--config", str(conf)]), capsys,
                          "unknown config key 'threshold'")
