"""``rbm`` command line: train, sample, reconstruct, eval, weights.

``OPTIONS`` declares every option of every command once, by its default.
Each option is both a ``--flag`` and a config-file key of the same type
(``str`` where the default is None, and then the option is required):
``--config run.json`` supplies a flat JSON object keyed by option name
(dashes or underscores).  Explicit CLI flags win over the file, which wins
over the train ``--preset``; ``--preset`` and ``--config`` are
command-line only.  ``reconstruct`` and ``eval`` binarize their data at
the threshold recorded in the checkpoint.

``rbm`` runs BLAS on one thread and splits its work over two workers in a
fixed way (``spinrbm.workers``), so its output bytes depend neither on the
thread variables nor on the core count, for one BLAS build.  BLAS reads
the variables when numpy first loads, so they are set before the imports
below.  Where numpy loaded first (``main`` called from Python), ``main``
sets an OpenBLAS to one thread for the command's run.
"""

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

# environment variables that set the BLAS thread count, as the run found
# them, and whether rbm set them to 1 before numpy loaded
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_ENV = {name: os.environ.get(name) for name in _THREAD_VARS}
_BLAS_PINNED = "numpy" not in sys.modules
if _BLAS_PINNED:
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

import numpy as np  # noqa: E402

from .data import binarize, compute_stats, load_idx  # noqa: E402
from .images import (rescale_to_gray, spins_to_gray, tile_grid,  # noqa: E402
                     write_pgm)
from .io_util import atomic_write_bytes  # noqa: E402
from .metrics import (RECON_ERROR_DEFINITION, eval_curve,  # noqa: E402
                      reconstruct)
from .model import spins_from_mask  # noqa: E402
from .sampling import gibbs_chain, make_rng  # noqa: E402
from .training import (NEGATIVE_MODES, TrainConfig,  # noqa: E402
                       TrainingDiverged, check_option, holdout_size,
                       init_model, load_checkpoint, save_checkpoint, train)

# what each preset changes; the option defaults are the paper's settings
PRESETS = {
    "paper": {},
    "desk": dict(n_hidden=128, epochs=20, batch_size=256, subset=10000),
}

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
    try:
        steps = [int(s) for s in str(text).replace(",", " ").split()]
    except ValueError as exc:
        raise CliError(f"--steps {text!r}: {exc}") from None
    if not steps:
        raise CliError(f"--steps names no step: {text!r}")
    return steps


def _check_count(count, rows=None):
    if count < 1:
        raise CliError(f"--count must be >= 1, got {count}")
    if rows is not None and count > rows:
        raise CliError(f"--count {count} exceeds the {rows} rows of the data")


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
            check_option(f"config key {key!r}", value, options[key])
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
    atomic_write_bytes(path, buf.getvalue().encode())


def _image_side(n_v):
    side = math.isqrt(n_v)
    if side * side != n_v:
        raise CliError(f"visible layer of {n_v} units is not a square image")
    return side


def _thread_setting():
    """Cores, CPU affinity, the BLAS thread count of the run (None where
    numpy loaded first and its BLAS is no OpenBLAS) and the thread
    variables the run found."""
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    if _BLAS_PINNED:
        blas_threads = 1
    else:
        calls = _openblas_thread_calls()
        blas_threads = calls[0]() if calls else None
    return {"cpu_count": os.cpu_count(), "affinity_count": affinity,
            "blas_threads": blas_threads, **_THREAD_ENV}


def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, found among the files it maps (Linux), or None.  numpy's own
    build prefixes the names with scipy_, 64-bit-integer builds suffix
    them with 64_."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.rpartition("/")[2]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)  # the loaded library, not a second copy
        for name in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{name}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{name}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    put.argtypes, put.restype = (ctypes.c_int,), None
                    return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run BLAS on one thread where numpy loaded before rbm could set the
    thread variables (main called from Python), restoring the count
    after; an rbm process has set them already."""
    calls = None if _BLAS_PINNED else _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# glibc's mallopt parameter that caps the number of malloc arenas
_M_ARENA_MAX = -8


def _one_malloc_arena():
    """Keep glibc to one malloc arena: by default each thread that
    allocates gets its own, and the worker thread's arena raised the peak
    memory of a paper run.  Skipped where libc is not glibc."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if glibc is None or not glibc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def cmd_train(args):
    """train a model from IDX data"""
    if args.subset < 0:
        raise CliError(f"--subset must be >= 0 (0 = all), got {args.subset}")
    try:
        config = TrainConfig(**{
            f.name: getattr(args, _TRAIN_FLAGS.get(f.name, f.name))
            for f in fields(TrainConfig)})
    except ValueError as exc:
        # the error begins with the TrainConfig field: name its flag instead
        field, _, reason = str(exc).partition(" ")
        flag = _TRAIN_FLAGS.get(field, field).replace("_", "-")
        raise CliError(f"--{flag} {reason}") from None
    spins, img_path = _load_dataset(args.data, config.binarize_threshold,
                                    subset=args.subset)
    # size and initial-weight errors end the run before --out exists
    stats = compute_stats(spins)
    holdout_size(len(spins), config)
    try:
        model = init_model(stats, config)
    except ValueError as exc:
        raise CliError(f"--init-std {config.init_std}: {exc}") from exc
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
    atomic_write_bytes(out / "manifest.json",
                       (json.dumps(manifest, indent=2) + "\n").encode())

    def on_epoch(record):
        print(f"epoch {record.epoch:4d}  energy_coeff {record.energy_coefficient:.4f}"
              f"  recon_error {record.recon_error:.4f}  {record.wall_ms} ms")

    try:
        model, metrics = train(spins, model, config, on_epoch=on_epoch)
    except TrainingDiverged as exc:
        # keep the last in-range model so the run is inspectable
        save_checkpoint(exc.model, config, checkpoint_path)
        _write_metrics_csv(csv_path, exc.metrics)
        raise CliError(f"training diverged: {exc}") from exc

    save_checkpoint(model, config, checkpoint_path)
    _write_metrics_csv(csv_path, metrics)
    print(f"checkpoint: {checkpoint_path}")
    return 0


def _write_metrics_csv(path, metrics):
    rows = [(m.epoch, repr(m.energy_coefficient), repr(m.recon_error), m.wall_ms)
            for m in metrics]
    _write_csv(path, ["epoch", "energy_coefficient", "recon_error", "wall_ms"], rows)


def cmd_sample(args):
    """sample-evolution grid from a checkpoint"""
    if args.chains < 1:
        raise CliError(f"--chains must be >= 1, got {args.chains}")
    model, _ = load_checkpoint(args.checkpoint)
    steps = _parse_steps(args.steps)
    side = _image_side(model.n_v)
    rng = make_rng(args.seed, 0x5A)
    rows = []
    for _, v in gibbs_chain(model, args.chains, steps, rng):
        rows.extend(spins_to_gray(v, side))
    write_pgm(args.out, tile_grid(rows, len(steps), args.chains))
    print(f"wrote {args.out}: {len(steps)} rows x {args.chains} chains")
    return 0


def cmd_reconstruct(args):
    """originals vs one-step reconstructions"""
    model, config = load_checkpoint(args.checkpoint)
    spins, _ = _load_dataset(args.data, config.binarize_threshold)
    _check_count(args.count, len(spins))
    side = _image_side(model.n_v)
    rng = make_rng(args.seed, 0x5B)
    idx = rng.choice(len(spins), size=args.count, replace=False)
    originals = spins[idx]
    v_hat = reconstruct(model, originals, rng)
    recon = spins_from_mask(v_hat >= 0)
    tiles = spins_to_gray(originals, side) + spins_to_gray(recon, side)
    write_pgm(args.out, tile_grid(tiles, 2, args.count))
    disagree = float(np.mean(originals != recon))
    print(f"wrote {args.out}; mean pixel disagreement {disagree:.4f}")
    return 0


def cmd_eval(args):
    """reconstruction error vs Gibbs steps"""
    model, config = load_checkpoint(args.checkpoint)
    spins, _ = _load_dataset(args.data, config.binarize_threshold)
    steps = _parse_steps(args.steps)
    rows = []
    for k, err, coeff in eval_curve(model, spins, args.batch_size, steps,
                                    args.seed):
        rows.append((k, repr(err), repr(coeff)))
        print(f"step {k:3d}  recon_error {err:.4f}  energy_coefficient {coeff:.4f}")
    _write_csv(args.out, ["step", "recon_error", "energy_coefficient"], rows)
    return 0


def cmd_weights(args):
    """tile a random subset of weight columns"""
    _check_count(args.count)
    model, _ = load_checkpoint(args.checkpoint)
    side = _image_side(model.n_v)
    rng = make_rng(args.seed, 0x5E)
    count = min(args.count, model.n_h)
    cols = rng.choice(model.n_h, size=count, replace=False)
    n_cols = math.isqrt(count)
    n_rows = -(-count // n_cols)
    tiles = rescale_to_gray(model.W[:, cols].T, side)
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
                           type=str if default is None else type(default),
                           choices=_CHOICES.get(name),
                           help="required" if default is None
                           else f"default {default}")
        if command == "train":
            p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", help="JSON file of option values")
    return parser


def main(argv=None):
    _one_malloc_arena()  # before the worker thread exists
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _one_blas_thread():
            return _COMMANDS[args.command](_resolve(args))
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
