"""``rbm`` command line: train, sample, reconstruct, eval, weights.

``OPTIONS`` declares every option of every command once, by its default.
Each option is both a ``--flag`` and a config-file key of the same type
(``str`` where the default is None, and then the option is required):
``--config run.json`` supplies a flat JSON object keyed by option name
(dashes or underscores).  Explicit CLI flags win over the file, which wins
over the train ``--preset``; ``--preset`` and ``--config`` are
command-line only.  ``reconstruct`` and ``eval`` binarize their data at
the threshold recorded in the checkpoint.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import binarize, compute_stats, load_idx
from .images import rescale_to_gray, spins_to_gray, tile_grid, write_pgm
from .io_util import atomic_write_text
from .metrics import RECON_ERROR_DEFINITION, energy_coefficient, recon_error
from .model import visible_mean
from .sampling import gibbs_chain, make_rng, sample_hidden
from .training import (NEGATIVE_MODES, AdamState, TrainConfig,
                       TrainingDiverged, holdout_size, load_checkpoint,
                       save_checkpoint, train)

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

# rbm train flag of each TrainConfig field whose name differs from it
_TRAIN_FLAGS = {"binarize_threshold": "threshold"}

# each command's options and their defaults; a None default is required
OPTIONS = {
    "train": dict(data=None, out="run", subset=0,
                  **{_TRAIN_FLAGS.get(f.name, f.name): f.default
                     for f in fields(TrainConfig)}),
    "sample": dict(checkpoint=None, out="samples.pgm", steps="0,1,2,4,8,16,32",
                   chains=16, seed=0),
    "reconstruct": dict(checkpoint=None, data=None, out="reconstructions.pgm",
                        count=16, seed=0),
    "eval": dict(checkpoint=None, data=None, out="eval.csv",
                 steps="0,2,4,8,16,32", batch_size=1024, seed=0),
    "weights": dict(checkpoint=None, out="weights.pgm", count=64, seed=0),
}

_CHOICES = {"negative_mode": NEGATIVE_MODES}


class CliError(Exception):
    pass


def _find_idx(data_path):
    p = Path(data_path)
    if p.is_file():
        return p
    for name in _IMAGE_NAMES:
        for candidate in (p / name, p / (name + ".gz")):
            if candidate.is_file():
                return candidate
    return None


def _load_dataset(data_path, threshold, subset=0):
    img_path = _find_idx(data_path)
    if img_path is None:
        raise CliError(f"no IDX image file found under {data_path}")
    images = load_idx(img_path)
    if subset:
        images = images[:subset]
    return binarize(images, threshold), img_path


def _parse_steps(text):
    """Step list from "0,1,2" or "0 1 2"; gibbs_chain checks the order."""
    steps = [int(s) for s in str(text).replace(",", " ").split()]
    if not steps:
        raise CliError(f"--steps names no step: {text!r}")
    return steps


def _option_type(default):
    """Type of an option's flag and config value: its default's, else str."""
    return str if default is None else type(default)


def _check_config_value(key, value, default):
    """A config-file value must have the type of the flag it stands for; an
    integer also passes for a float."""
    kind = _option_type(default)
    kinds = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise CliError(f"config key {key!r} must be a {kinds[-1].__name__}, "
                       f"got {value!r}")


def _check_count(count):
    if count < 1:
        raise CliError(f"--count must be >= 1, got {count}")


def _resolve(args):
    """Layer option sources: OPTIONS < preset < config file < CLI flags."""
    options = OPTIONS[args.command]
    merged = dict(options)
    if getattr(args, "preset", None):
        merged.update(PRESETS[args.preset])
    if args.config:
        with open(args.config) as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise CliError(f"{args.config}: config must be a JSON object")
        for key, value in file_conf.items():
            key = key.replace("-", "_")
            if key not in options:
                raise CliError(f"unknown config key {key!r} for {args.command}")
            _check_config_value(key, value, options[key])
            merged[key] = value
    for key in options:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
        if merged[key] is None:
            raise CliError(f"--{key.replace('_', '-')} is required")
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
    """train a model from IDX data"""
    if args.subset < 0:
        raise CliError(f"--subset must be >= 0 (0 = all), got {args.subset}")
    config = TrainConfig(**{
        f.name: getattr(args, _TRAIN_FLAGS.get(f.name, f.name))
        for f in fields(TrainConfig)})
    dataset, img_path = _load_dataset(args.data, config.binarize_threshold,
                                      subset=args.subset)
    # size errors end the run before --out exists
    stats = compute_stats(dataset)
    holdout_size(dataset.n, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

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
    """sample-evolution grid from a checkpoint"""
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
    """originals vs one-step reconstructions"""
    _check_count(args.count)
    model, _, config, _ = load_checkpoint(args.checkpoint)
    dataset, _ = _load_dataset(args.data, config.binarize_threshold)
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
    """reconstruction error vs Gibbs steps"""
    model, _, config, stats = load_checkpoint(args.checkpoint)
    dataset, _ = _load_dataset(args.data, config.binarize_threshold)
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
    """tile a random subset of weight columns"""
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


_COMMANDS = {"train": cmd_train, "sample": cmd_sample,
             "reconstruct": cmd_reconstruct, "eval": cmd_eval,
             "weights": cmd_weights}


def build_parser():
    parser = argparse.ArgumentParser(prog="rbm",
                                     description="Spin RBM trained with CD-0")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        for name, default in options.items():
            p.add_argument("--" + name.replace("_", "-"), dest=name,
                           type=_option_type(default),
                           choices=_CHOICES.get(name),
                           help="required" if default is None
                           else f"default {default}")
        if command == "train":
            p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", help="JSON file of option values")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_resolve(args))
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
