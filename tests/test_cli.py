import json

import numpy as np
import pytest

import spinrbm.training
from conftest import random_model, with_config
from spinrbm.cli import main
from spinrbm.data import DataStats
from spinrbm.images import read_pgm
from spinrbm.model import GradientPair
from spinrbm.training import (AdamState, TrainConfig, load_checkpoint,
                              save_checkpoint)

TRAIN_FLAGS = ["--n-hidden", "32", "--epochs", "2", "--batch-size", "128",
               "--eval-batch", "128"]


def assert_error_line(code, capsys, reason):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and reason in err
    assert "Traceback" not in err


@pytest.fixture
def trained_run(synthetic_idx_dir, tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--data", str(synthetic_idx_dir), "--out", str(out),
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

    def test_manifest_records_thread_setting(self, trained_run):
        manifest = json.loads((trained_run / "manifest.json").read_text())
        threads = manifest["threads"]
        assert set(threads) == {"cpu_count", "affinity_count",
                                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS"}
        assert threads["cpu_count"] >= 1
        assert manifest["numpy_version"] == np.__version__

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

    def test_divergence_saves_matching_adam_state(self, synthetic_idx_dir,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        # 1872 training rows in batches of 128: 15 steps per epoch, so the
        # 21st gradient falls mid-way through epoch 2, after the epoch-1 log
        real = spinrbm.training.nll_gradient
        calls = []

        def failing(model, data, neg):
            calls.append(1)
            grads = real(model, data, neg)
            if len(calls) == 21:
                return GradientPair(d_b=grads.d_b * np.nan, d_W=grads.d_W)
            return grads

        monkeypatch.setattr(spinrbm.training, "nll_gradient", failing)
        out = tmp_path / "run"
        code = main(["train", "--data", str(synthetic_idx_dir),
                     "--out", str(out), "--seed", "5", *TRAIN_FLAGS])
        assert_error_line(code, capsys, "training diverged")
        _, adam, _, _ = load_checkpoint(out / "checkpoint.rbm")
        assert adam.t == 20


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
        out = tmp_path / "s.pgm"
        code = main(["sample", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                     "--out", str(out), "--steps", ""])
        assert_error_line(code, capsys, "--steps")
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

    def test_bad_checkpoint(self, tmp_path):
        bad = tmp_path / "bad.rbm"
        bad.write_bytes(b"nope")
        assert main(["sample", "--checkpoint", str(bad),
                     "--out", str(tmp_path / "o.pgm")]) != 0

    def test_malformed_checkpoint_error_line(self, tmp_path, capsys):
        model = random_model(np.random.default_rng(0), 4, 3)
        config = TrainConfig(n_hidden=3)
        path = tmp_path / "ck.rbm"
        save_checkpoint(model, AdamState.zeros(4, 3), config,
                        DataStats(mu=model.mu, Q=np.eye(4)), path)
        blob = path.read_bytes()
        truncated = tmp_path / "truncated.rbm"
        truncated.write_bytes(blob[:30])
        unknown = tmp_path / "unknown.rbm"
        unknown.write_bytes(with_config(blob, config,
                                        {**config.__dict__, "bogus": 1}))
        for bad, reason in ((truncated, "offset 20"), (unknown, "'bogus'")):
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
        code = main(["reconstruct", "--checkpoint",
                     str(trained_run / "checkpoint.rbm"),
                     "--data", str(synthetic_idx_dir),
                     "--out", str(tmp_path / "rec.pgm"), "--count", "0"])
        assert_error_line(code, capsys, "--count")


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
        out = tmp_path / "e.csv"
        code = main(["eval", "--checkpoint", str(trained_run / "checkpoint.rbm"),
                     "--data", str(synthetic_idx_dir), "--out", str(out),
                     "--steps", ","])
        assert_error_line(code, capsys, "--steps")
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
