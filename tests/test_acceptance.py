"""Acceptance suite: one criterion per test, each printing a pass/fail line.

Criterion 5 needs real MNIST IDX files; point RBM_MNIST_DIR at a directory
containing train-images-idx3-ubyte(.gz) to enable it.  Without the data it
skips (this sandbox has no network); the same pipeline is exercised on
synthetic digit-like data in the companion surrogate test below.  Criterion
6 (full paper-scale run) is an optional long run and is skipped by default.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (brute_visible_probs, idx_image_bytes, random_sigma,
                      random_spins, stats_at, synthetic_digits)
from spinrbm.cli import _one_blas_thread, main
from spinrbm.data import DataStats, binarize, compute_stats, load_idx
from spinrbm.metrics import energy_coefficient, eval_curve, recon_error
from spinrbm.model import RbmModel, exact_nll, exact_nll_gradient
from spinrbm.sampling import gibbs_steps, make_rng, sample_phi
from spinrbm.training import (TrainConfig, init_model, load_checkpoint,
                              save_checkpoint, train)

DESK = dict(n_hidden=128, epochs=20, batch_size=256, learning_rate=1e-3)
DESK_SUBSET = 10000
EVAL_STEPS = [0, 2, 4, 8, 16, 32]


def report(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_gradient_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        gen = np.random.default_rng(1000 + trial)
        model = RbmModel(W=gen.normal(0, 0.5, (6, 4)), b=gen.normal(0, 0.5, 6),
                         stats=stats_at(gen.uniform(-0.5, 0.5, 6)))
        data = random_spins(gen, (12, 6))
        g = exact_nll_gradient(model, data)
        step = 1e-5
        fd_b = np.zeros(6)
        fd_W = np.zeros((6, 4))
        for j in range(6):
            bp, bm = model.b.copy(), model.b.copy()
            bp[j] += step
            bm[j] -= step
            fd_b[j] = (exact_nll(replace(model, b=bp), data)
                       - exact_nll(replace(model, b=bm), data)) / (2 * step)
            for i in range(4):
                Wp, Wm = model.W.copy(), model.W.copy()
                Wp[j, i] += step
                Wm[j, i] -= step
                fd_W[j, i] = (exact_nll(replace(model, W=Wp), data)
                              - exact_nll(replace(model, W=Wm), data)) / (2 * step)
        scale = max(np.abs(fd_b).max(), np.abs(fd_W).max())
        err = max(np.abs(g.d_b - fd_b).max(), np.abs(g.d_W - fd_W).max()) / scale
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-6 and elapsed < 5.0,
           f"max relative gradient error {worst:.2e} over 20 models "
           f"(limit 1e-6), {elapsed:.1f}s (limit 5s)")


def test_criterion_2_gibbs_stationarity():
    t0 = time.perf_counter()
    gen = np.random.default_rng(2)
    model = RbmModel(W=gen.normal(0, 0.5, (5, 3)), b=gen.normal(0, 0.5, 5),
                     stats=stats_at(np.zeros(5)))
    exact = np.zeros(32)
    for key, p in brute_visible_probs(model).items():
        exact[sum(1 << j for j, s in enumerate(key) if s == 1)] = p
    chains = 1000
    rng = make_rng(20)
    v = random_spins(gen, (chains, 5))
    v = gibbs_steps(model, v, 200, rng)
    counts = np.zeros(32)
    kept = 0
    while kept < 10 ** 5:
        v = gibbs_steps(model, v, 10, rng)
        idx = ((v == 1) << np.arange(5)).sum(axis=1)
        counts += np.bincount(idx, minlength=32)
        kept += chains
    tv = 0.5 * np.abs(counts / kept - exact).sum()
    elapsed = time.perf_counter() - t0
    report(2, tv < 0.02 and elapsed < 30.0,
           f"total-variation distance {tv:.4f} over {kept} thinned samples "
           f"(limit 0.02), {elapsed:.1f}s (limit 30s)")


def test_criterion_3_field_law():
    t0 = time.perf_counter()
    gen = np.random.default_rng(3)
    W = gen.normal(0, 0.5, (6, 3))
    data = random_spins(gen, (400, 6))
    model = RbmModel(W=W, b=np.zeros(6), stats=compute_stats(data))
    n = 10 ** 5
    phi = sample_phi(model, n, make_rng(30))
    emp = phi.T @ phi / n
    target = W.T @ model.stats.sigma @ W
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / n)
    max_dev = np.abs((emp - target) / np.maximum(se, 1e-300)).max()
    elapsed = time.perf_counter() - t0
    report(3, max_dev < 5.0 and elapsed < 10.0,
           f"worst covariance entry at {max_dev:.2f} standard errors "
           f"(limit 5), {elapsed:.1f}s (limit 10s)")


def test_criterion_4_energy_coefficient_calibration():
    t0 = time.perf_counter()
    gen = np.random.default_rng(4)
    p = gen.random(24) * 0.6 + 0.2
    x = np.where(gen.random((1024, 24)) < p, 1, -1).astype(np.int8)
    y = np.where(gen.random((1024, 24)) < p, 1, -1).astype(np.int8)
    same_dist = energy_coefficient(x, y)
    a = np.ones((64, 9), dtype=np.int8)
    b = -np.ones((64, 9), dtype=np.int8)
    disjoint = energy_coefficient(a, b)
    elapsed = time.perf_counter() - t0
    report(4, abs(same_dist) < 0.02 and disjoint == 1.0 and elapsed < 5.0,
           f"identical-distribution coefficient {same_dist:+.4f} (limit 0.02), "
           f"disjoint constant case {disjoint} (expected exactly 1.0), "
           f"{elapsed:.1f}s (limit 5s)")


def _run_desk(spins):
    # numpy loaded first in this process: BLAS on one thread, as in rbm, so
    # that its threads do not compete with the two workers for the cores
    config = TrainConfig(seed=7, **DESK)
    with _one_blas_thread():
        model, _ = train(spins, init_model(compute_stats(spins), config),
                         config)
        step0 = recon_error(model, spins[:1024], make_rng(7, 0x99))
        curve = [(k, err) for k, err, _ in
                 eval_curve(model, spins, 1024, EVAL_STEPS, 7)]
    return step0, curve


def _check_curve(curve):
    values = [err for _, err in curve]
    return all(b <= a + 0.01 for a, b in zip(values, values[1:])), values


def test_criterion_5_desk_scale_mnist():
    mnist_dir = os.environ.get("RBM_MNIST_DIR")
    if not mnist_dir:
        pytest.skip("criterion 5 needs real MNIST: set RBM_MNIST_DIR "
                    "(no network in this environment; see the surrogate test)")
    for name in ("train-images-idx3-ubyte", "train-images-idx3-ubyte.gz"):
        path = os.path.join(mnist_dir, name)
        if os.path.exists(path):
            images = load_idx(path)
            break
    else:
        pytest.fail(f"no MNIST image file in {mnist_dir}")
    t0 = time.perf_counter()
    step0, curve = _run_desk(binarize(images[:DESK_SUBSET]))
    monotone, values = _check_curve(curve)
    elapsed = time.perf_counter() - t0
    report(5, step0 < 0.32 and monotone and elapsed < 900,
           f"MNIST desk run: step-0 recon error {step0:.4f} (limit 0.32), "
           f"curve {['%.3f' % v for v in values]} non-increasing within 0.01: "
           f"{monotone}, {elapsed:.0f}s (limit 900s)")


def test_desk_scale_surrogate_synthetic():
    """Not an acceptance criterion: same desk pipeline and thresholds on
    synthetic digit-like data, so the training path is exercised without
    MNIST."""
    gen = np.random.default_rng(55)
    images, _ = synthetic_digits(gen, DESK_SUBSET)
    step0, curve = _run_desk(binarize(images))
    monotone, values = _check_curve(curve)
    print(f"\nsurrogate desk run: step-0 recon error {step0:.4f}, "
          f"curve {['%.3f' % v for v in values]}")
    assert step0 < 0.32
    assert monotone


@pytest.mark.skip(reason="optional long run (paper preset, hours of CPU); "
                         "criterion 6 is explicitly out of CI")
def test_criterion_6_paper_preset_table():
    pass


def test_criterion_7_determinism(tmp_path):
    gen = np.random.default_rng(77)
    images, _ = synthetic_digits(gen, 12000)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "train-images-idx3-ubyte").write_bytes(idx_image_bytes(images))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["train", "--preset", "desk", "--seed", "7",
                     "--data", str(data_dir), "--out", str(out)])
        assert code == 0
        # the wall_ms column is wall-clock measurement, not computation
        # output; it is stripped before the byte comparison
        csv_rows = [",".join(line.split(",")[:3]) for line in
                    (out / "metrics.csv").read_text().splitlines()]
        outputs.append(((out / "checkpoint.rbm").read_bytes(), csv_rows))
    same_ck = outputs[0][0] == outputs[1][0]
    same_csv = outputs[0][1] == outputs[1][1]
    report(7, same_ck and same_csv,
           f"two desk-preset seed-7 runs byte-identical: checkpoint={same_ck}, "
           f"metrics CSV sans wall_ms={same_csv} (synthetic IDX data; MNIST "
           f"unavailable offline, determinism is data-independent)")


def test_criterion_8_checkpoint_roundtrip(tmp_path):
    ok = True
    for i in range(10):
        gen = np.random.default_rng(800 + i)
        n_v, n_h, r = gen.integers(2, 12, 3)
        W, b = gen.normal(0, 1, (n_v, n_h)), gen.normal(0, 1, n_v)
        stats = DataStats(mu=gen.uniform(-1, 1, n_v),
                          sigma=random_sigma(gen, n_v, r))
        model = RbmModel(W=W, b=b, stats=stats)
        config = TrainConfig(n_hidden=int(n_h), epochs=1, batch_size=1, seed=i)
        path = tmp_path / f"m{i}.rbm"
        save_checkpoint(model, config, path)
        m2, c2 = load_checkpoint(path)
        ok &= (model.W.tobytes() == m2.W.tobytes()
               and model.b.tobytes() == m2.b.tobytes()
               and model.mu.tobytes() == m2.mu.tobytes()
               and stats.sigma.tobytes() == m2.stats.sigma.tobytes()
               and c2 == config)
    report(8, ok, "10 random checkpoints round-trip bitwise identical")


def test_criterion_9_cd0_raises_the_likelihood():
    """The paper's claim at one width, judged by the exact held-out NLL:
    train() at k = 0 learns 14 x 14 synthetic digits with 12 hidden units,
    and ends below train() at k = 1.  Not a claim about every width: on 16
    and 49 visibles CD-10 from data ends below CD-0 (see the README)."""
    t0 = time.perf_counter()
    images, _ = synthetic_digits(np.random.default_rng(77), 3000, side=14)
    spins = binarize(images)
    train_rows, held_out = spins[:2500], spins[2500:]
    stats = compute_stats(train_rows)
    lines, ok = [], True
    with _one_blas_thread():
        for seed in (1, 2, 3):
            final = {}
            for k in (0, 1):
                config = TrainConfig(n_hidden=12, epochs=30, batch_size=100,
                                     learning_rate=1e-3, seed=seed, k=k)
                start = init_model(stats, config)
                model, _ = train(train_rows, start, config)
                final[k] = exact_nll(model, held_out)
            initial = exact_nll(start, held_out)
            # measured: CD-0 ends at 0.49-0.51 of the initial NLL, CD-1 at
            # 0.83-0.89
            ok &= final[0] < 0.55 * initial and final[0] < final[1]
            lines.append(f"seed {seed}: {initial:.1f} -> CD-0 {final[0]:.1f}, "
                         f"CD-1 {final[1]:.1f}")
    elapsed = time.perf_counter() - t0
    report(9, ok and elapsed < 60.0,
           f"exact held-out NLL in nats ({'; '.join(lines)}); CD-0 below "
           f"0.55 of the initial NLL and below CD-1 at every seed, "
           f"{elapsed:.1f}s (limit 60s)")
