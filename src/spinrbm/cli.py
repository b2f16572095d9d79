"""``rbm`` command line: train, sample, reconstruct, eval, weights.

Every flag has a config-file equivalent: ``--config run.json`` supplies a
flat JSON object keyed by flag name (dashes or underscores); explicit CLI
flags win over the file, which wins over the preset.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .data import binarize, compute_stats, load_idx
from .images import rescale_to_gray, spins_to_gray, tile_grid, write_pgm
from .io_util import atomic_write_text
from .metrics import RECON_ERROR_DEFINITION, energy_coefficient, recon_error
from .model import visible_mean
from .sampling import gibbs_chain, make_rng, sample_hidden
from .training import (AdamState, TrainConfig, TrainingDiverged,
                       load_checkpoint, save_checkpoint, train)

DEFAULT_STEPS = (0, 1, 2, 4, 8, 16, 32)
EVAL_STEPS = (0, 2, 4, 8, 16, 32)

PRESETS = {
    "paper": dict(n_hidden=512, epochs=300, batch_size=1024,
                  learning_rate=1e-3, init_std=0.1, subset=0),
    "desk": dict(n_hidden=128, epochs=20, batch_size=256,
                 learning_rate=1e-3, init_std=0.1, subset=10000),
}

# environment variables that set the BLAS thread count, on which the trained
# bytes depend (README, determinism contract)
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_IMAGE_NAMES = ("train-images-idx3-ubyte", "train-images.idx3-ubyte")
_LABEL_NAMES = ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte")


class CliError(Exception):
    pass


def _find_idx(data_path, names):
    p = Path(data_path)
    if p.is_file():
        return p
    for name in names:
        for candidate in (p / name, p / (name + ".gz")):
            if candidate.is_file():
                return candidate
    return None


def _load_dataset(data_path, threshold, subset=0, with_labels=False):
    img_path = _find_idx(data_path, _IMAGE_NAMES)
    if img_path is None:
        raise CliError(f"no IDX image file found under {data_path}")
    images = load_idx(img_path)
    labels = None
    if with_labels:
        lbl_path = _find_idx(data_path, _LABEL_NAMES)
        if lbl_path is not None:
            labels = load_idx(lbl_path)
    if subset:
        images = images[:subset]
        labels = labels[:subset] if labels is not None else None
    return binarize(images, threshold, labels=labels), img_path


def _parse_steps(text):
    """Step list from "0,1,2" or "0 1 2"; gibbs_chain checks the order."""
    steps = [int(s) for s in str(text).replace(",", " ").split()]
    if not steps:
        raise CliError(f"--steps names no step: {text!r}")
    return steps


def _check_config_value(key, value, default):
    """A config-file value must have the JSON type of the flag it stands for
    (a number for float flags, an integer for int flags, else a string)."""
    kinds = {float: (int, float), int: (int,)}.get(type(default), (str,))
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise CliError(f"config key {key!r} must be a {kinds[-1].__name__}, "
                       f"got {value!r}")


def _check_count(count):
    if count < 1:
        raise CliError(f"--count must be >= 1, got {count}")


def _resolve(args):
    """Layer option sources: base defaults < preset < config file < CLI flags."""
    merged = dict(args._defaults)
    preset = getattr(args, "preset", None)
    if preset:
        merged.update({k: v for k, v in PRESETS[preset].items() if k in merged})
    if args.config:
        with open(args.config) as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise CliError(f"{args.config}: config must be a JSON object")
        for key, value in file_conf.items():
            key = key.replace("-", "_")
            if key not in merged:
                raise CliError(f"unknown config key {key!r} for {args.command}")
            _check_config_value(key, value, args._defaults[key])
            merged[key] = value
    for key in merged:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
    return argparse.Namespace(**merged)


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _image_side(n_v):
    side = math.isqrt(n_v)
    if side * side != n_v:
        raise CliError(f"visible layer of {n_v} units is not a square image")
    return side


def _thread_setting():
    """Cores, CPU affinity and the thread variables the run saw."""
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {"cpu_count": os.cpu_count(), "affinity_count": affinity,
            **{name: os.environ.get(name) for name in _THREAD_VARS}}


def cmd_train(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset, img_path = _load_dataset(args.data, args.threshold,
                                      subset=args.subset, with_labels=True)
    config = TrainConfig(
        n_hidden=args.n_hidden, epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.learning_rate, init_std=args.init_std,
        seed=args.seed, negative_mode=args.negative_mode, k=args.k,
        binarize_threshold=args.threshold, eval_every=args.eval_every,
        eval_batch=args.eval_batch)

    checkpoint_path = out / "checkpoint.rbm"
    csv_path = out / "metrics.csv"
    manifest = {
        "command": "train",
        "config": dict(config.__dict__),
        "data": str(img_path),
        "checkpoint": str(checkpoint_path),
        "metrics_csv": str(csv_path),
        "image_dir": str(out),
        "seed": args.seed,
        "subset": args.subset,
        "recon_error_definition": RECON_ERROR_DEFINITION,
        "threads": _thread_setting(),
        "numpy_version": np.__version__,
    }
    atomic_write_text(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")

    stats = compute_stats(dataset)
    last = {"adam": None}

    def on_epoch(model, adam, record):
        last["adam"] = adam
        print(f"epoch {record.epoch:4d}  energy_coeff {record.energy_coefficient:.4f}"
              f"  recon_error {record.recon_error:.4f}  {record.wall_ms} ms")

    try:
        model, metrics = train(dataset, stats, config, on_epoch=on_epoch)
    except TrainingDiverged as exc:
        # keep the last finite model and its optimizer state so the run is
        # inspectable
        save_checkpoint(exc.model, exc.adam, config, stats, checkpoint_path)
        _write_metrics_csv(csv_path, exc.metrics)
        raise CliError(f"training diverged: {exc}") from exc

    adam = last["adam"] or AdamState.zeros(model.n_v, model.n_h)
    save_checkpoint(model, adam, config, stats, checkpoint_path)
    _write_metrics_csv(csv_path, metrics)
    print(f"checkpoint: {checkpoint_path}")
    return 0


def _write_metrics_csv(path, metrics):
    rows = [(m.epoch, repr(m.energy_coefficient), repr(m.recon_error), m.wall_ms)
            for m in metrics]
    _write_csv(path, ["epoch", "energy_coefficient", "recon_error", "wall_ms"], rows)


def cmd_sample(args):
    model, _, _, stats = load_checkpoint(args.checkpoint)
    steps = _parse_steps(args.steps)
    side = _image_side(model.n_v)
    rng = make_rng(args.seed, 0x5A)
    rows = []
    for _, v in gibbs_chain(model, stats, args.chains, steps, rng):
        rows.extend(spins_to_gray(v, side))
    write_pgm(args.out, tile_grid(rows, len(steps), args.chains))
    print(f"wrote {args.out}: {len(steps)} rows x {args.chains} chains")
    return 0


def cmd_reconstruct(args):
    _check_count(args.count)
    model, _, _, _ = load_checkpoint(args.checkpoint)
    dataset, _ = _load_dataset(args.data, args.threshold)
    side = _image_side(model.n_v)
    rng = make_rng(args.seed, 0x5B)
    idx = rng.choice(dataset.n, size=args.count, replace=False)
    originals = dataset.spins[idx]
    h = sample_hidden(model, originals, rng)
    v_hat = visible_mean(model, h)
    recon = np.where(v_hat >= 0, 1, -1).astype(np.int8)
    tiles = spins_to_gray(originals, side) + spins_to_gray(recon, side)
    write_pgm(args.out, tile_grid(tiles, 2, args.count))
    disagree = float(np.mean(originals != recon))
    print(f"wrote {args.out}; mean pixel disagreement {disagree:.4f}")
    return 0


def cmd_eval(args):
    model, _, _, stats = load_checkpoint(args.checkpoint)
    dataset, _ = _load_dataset(args.data, args.threshold)
    steps = _parse_steps(args.steps)
    rng = make_rng(args.seed, 0x5C)
    n = min(args.batch_size, dataset.n)
    data_idx = rng.choice(dataset.n, size=n, replace=False)
    data_batch = dataset.spins[data_idx]
    rows = []
    for k, v in gibbs_chain(model, stats, n, steps, rng):
        err = recon_error(model, v, make_rng(args.seed, 0x5D, k))
        coeff = energy_coefficient(data_batch, v)
        rows.append((k, repr(err), repr(coeff)))
        print(f"step {k:3d}  recon_error {err:.4f}  energy_coefficient {coeff:.4f}")
    _write_csv(args.out, ["step", "recon_error", "energy_coefficient"], rows)
    return 0


def cmd_weights(args):
    _check_count(args.count)
    model, _, _, _ = load_checkpoint(args.checkpoint)
    side = _image_side(model.n_v)
    rng = make_rng(args.seed, 0x5E)
    count = min(args.count, model.n_h)
    cols = rng.choice(model.n_h, size=count, replace=False)
    n_cols = math.isqrt(count)
    n_rows = -(-count // n_cols)
    tiles = rescale_to_gray(model.W[:, cols].T, side)
    while len(tiles) < n_rows * n_cols:
        tiles.append(np.full((side, side), 128, dtype=np.uint8))
    write_pgm(args.out, tile_grid(tiles, n_rows, n_cols))
    print(f"wrote {args.out}: {n_rows}x{n_cols} weight tiles")
    return 0


def _add_common(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON file of flag defaults")


def build_parser():
    parser = argparse.ArgumentParser(prog="rbm",
                                     description="Spin RBM trained with CD-0")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from IDX data")
    p.add_argument("--data", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--n-hidden", dest="n_hidden", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--init-std", dest="init_std", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--negative-mode", dest="negative_mode",
                   choices=("belief_cd0", "cd_k_from_data"), default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eval-every", dest="eval_every", type=int, default=None)
    p.add_argument("--eval-batch", dest="eval_batch", type=int, default=None)
    p.add_argument("--subset", type=int, default=None,
                   help="use only the first N samples (0 = all)")
    _add_common(p)
    p.set_defaults(func=cmd_train, _defaults=dict(
        data=None, out="run", n_hidden=512, epochs=300, batch_size=1024,
        learning_rate=1e-3, init_std=0.1, threshold=0.5,
        negative_mode="belief_cd0", k=1, eval_every=1, eval_batch=1024,
        subset=0, seed=0))

    p = sub.add_parser("sample", help="sample-evolution grid from a checkpoint")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--steps", default=None)
    p.add_argument("--chains", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sample, _defaults=dict(
        checkpoint=None, out="samples.pgm",
        steps=",".join(map(str, DEFAULT_STEPS)), chains=16, seed=0))

    p = sub.add_parser("reconstruct", help="originals vs one-step reconstructions")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct, _defaults=dict(
        checkpoint=None, data=None, out="reconstructions.pgm", count=16,
        threshold=0.5, seed=0))

    p = sub.add_parser("eval", help="reconstruction error vs Gibbs steps")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--steps", default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eval, _defaults=dict(
        checkpoint=None, data=None, out="eval.csv",
        steps=",".join(map(str, EVAL_STEPS)), batch_size=1024,
        threshold=0.5, seed=0))

    p = sub.add_parser("weights", help="tile a random subset of weight columns")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--count", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_weights, _defaults=dict(
        checkpoint=None, out="weights.pgm", count=64, seed=0))

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ns = _resolve(args)
        for required in ("data", "checkpoint", "out"):
            if hasattr(ns, required) and getattr(ns, required) is None:
                raise CliError(f"--{required} is required")
        return args.func(ns)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
