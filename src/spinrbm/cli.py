"""``rbm`` command line: train, sample, reconstruct, eval, weights.

``OPTIONS`` declares every option of every command once, by its default.
Each option is both a ``--flag`` and a config-file key of the same type
(``str`` where the default is None, and then the option is required):
``--config run.json`` supplies a flat JSON object keyed by option name
(``batch_size``), and a flag is accepted only spelled in full
(``--batch-size``).  Explicit CLI flags win over the file, which wins
over the train ``--preset``; ``--preset`` and ``--config`` are
command-line only.

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
from .sampling import check_steps, gibbs_chain, make_rng  # noqa: E402
from .training import (TrainConfig, TrainingDiverged,  # noqa: E402
                       check_option, holdout_size, init_model,
                       load_checkpoint, read_config, save_checkpoint, train)

# what each preset changes; the option defaults are the paper's settings
PRESETS = {
    "paper": {},
    "desk": dict(n_hidden=128, epochs=20, batch_size=256, subset=10000),
}

_IMAGE_NAME = "train-images-idx3-ubyte"

# rng stream tags of rbm sample, reconstruct and weights
_STREAM_SAMPLE = 0x5A
_STREAM_RECONSTRUCT = 0x5B
_STREAM_WEIGHTS = 0x5E

# each command's options and their defaults; a None default is required
OPTIONS = {
    "train": dict(data=None, out="run", subset=0,
                  **{f.name: f.default for f in fields(TrainConfig)}),
    "sample": dict(checkpoint=None, out="samples.pgm", steps="0,1,2,4,8,16,32",
                   chains=16, seed=0),
    "reconstruct": dict(checkpoint=None, data=None, out="reconstructions.pgm",
                        count=16, seed=0),
    "eval": dict(checkpoint=None, data=None, out="eval.csv",
                 steps="0,2,4,8,16,32", batch_size=1024, seed=0),
    "weights": dict(checkpoint=None, out="weights.pgm", count=64, seed=0),
}

# the least value of each option that has one; TrainConfig checks its own
_LEAST = {"subset": 0, "chains": 1, "count": 1, "batch_size": 1}

# what an option's value picks, where --help says more than its default
_PICKS = {"k": "; 0 is belief-generated CD-0, K >= 1 is CD-K from the data "
               "batch"}


def _load_images(data_path, n_v=None):
    """The images of the IDX file data_path or of _IMAGE_NAME[.gz] in it,
    and the file's path; with a checkpoint's n_v, of n_v pixels each."""
    p = Path(data_path)
    for img_path in (p, p / _IMAGE_NAME, p / (_IMAGE_NAME + ".gz")):
        if img_path.is_file():
            break
    else:
        raise ValueError(f"no IDX image file found under {data_path}")
    images = load_idx(img_path)
    if n_v is not None and images[0].size != n_v:
        raise ValueError(f"{img_path}: images of {images[0].size} pixels, "
                         f"the checkpoint has {n_v} visible units")
    return images, img_path


def _parse_steps(text):
    """Step list from a comma list "0,1,2", ascending and nonnegative."""
    try:
        steps = [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"steps {text!r}: {exc}") from None
    return check_steps(steps)


def _fit(args, name, available, what):
    """Count option name capped at the available items: a default or
    preset value is a cap, a value named by a flag or the config file must
    fit."""
    value = getattr(args, name)
    if name in args.named and value > available:
        raise _flag_error(f"{name} {value} exceeds the {available} {what}")
    return min(value, available)


def _flag_error(text):
    """The error text, which begins with an option or TrainConfig field,
    as a ValueError that begins with the field's flag instead."""
    field, _, reason = text.partition(" ")
    return ValueError(f"--{field.replace('_', '-')} {reason}")


def _resolve(args):
    """Layer OPTIONS < preset < config file < CLI flags; check the values."""
    options = OPTIONS[args.command]
    merged = dict(options)
    if getattr(args, "preset", None):
        merged.update(PRESETS[args.preset])
    file_conf = {}
    if args.config:
        try:
            file_conf = read_config(Path(args.config).read_text())
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
        for key, value in file_conf.items():
            if key not in options:
                raise ValueError(f"unknown config key {key!r} for {args.command}")
            check_option(f"config key {key!r}", value, options[key])
            merged[key] = value
    for key in options:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
        if merged[key] is None:
            raise ValueError(f"--{key.replace('_', '-')} is required")
    try:
        for key, least in _LEAST.items():
            if merged.get(key, least) < least:
                aside = " (0 = all)" if key == "subset" else ""
                raise ValueError(f"{key} must be >= {least}{aside}, got {merged[key]}")
        make_rng(merged["seed"])
        if "steps" in merged:
            merged["steps"] = _parse_steps(merged["steps"])
        if args.command == "train":
            merged["config"] = TrainConfig(**{
                f.name: merged[f.name] for f in fields(TrainConfig)})
    except ValueError as exc:
        raise _flag_error(str(exc)) from None
    # the options a flag or the config file named, for _fit
    merged["named"] = file_conf.keys() | {
        key for key in options if getattr(args, key) is not None}
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
        raise ValueError(f"visible layer of {n_v} units is not a square image")
    return side


def _thread_setting(blas_threads):
    """Cores, CPU affinity, the BLAS thread count of the run and the
    thread variables the run found."""
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
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
    after; an rbm process has set them already.  Yields the run's BLAS
    thread count: 1, or None where numpy loaded first and its BLAS is no
    OpenBLAS."""
    calls = None if _BLAS_PINNED else _openblas_thread_calls()
    if calls is None:
        yield 1 if _BLAS_PINNED else None
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield 1
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
    config = args.config
    images, img_path = _load_images(args.data)
    subset = _fit(args, "subset", len(images), f"images of {img_path}")
    if subset:
        images = images[:subset]
    spins = binarize(images)
    # size errors end the run before --out exists, each naming the flag at
    # fault
    try:
        stats = compute_stats(spins)  # too few rows
    except ValueError as exc:
        if len(spins) != args.subset:  # --subset did not cut the rows
            raise ValueError(f"{img_path}: {exc}") from None
        raise _flag_error(f"subset {args.subset}: {exc}") from None
    try:
        holdout_rows = holdout_size(len(spins), config)
        model = init_model(stats, config)
    except ValueError as exc:
        raise _flag_error(str(exc)) from None
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
        # the rows kept, where a preset's subset exceeds the data
        "subset": subset,
        # the rows metrics.csv is scored on
        "holdout_rows": holdout_rows,
        "recon_error_definition": RECON_ERROR_DEFINITION,
        "threads": _thread_setting(args.blas_threads),
        "numpy_version": np.__version__,
    }
    atomic_write_bytes(out / "manifest.json",
                       (json.dumps(manifest, indent=2) + "\n").encode())

    def on_epoch(record, _model):
        print(f"epoch {record.epoch:4d}  energy_coeff {record.energy_coefficient:.4f}"
              f"  recon_error {record.recon_error:.4f}  {record.wall_ms} ms")

    try:
        model, metrics = train(spins, model, config, on_epoch=on_epoch)
    except TrainingDiverged as exc:
        # keep the last in-range model so the run is inspectable
        save_checkpoint(exc.model, config, checkpoint_path)
        _write_metrics_csv(csv_path, exc.metrics)
        raise ValueError(f"training diverged: {exc}") from exc

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
    model, _ = load_checkpoint(args.checkpoint)
    side = _image_side(model.n_v)
    rng = make_rng(args.seed, _STREAM_SAMPLE)
    try:  # every array drawn or tiled here scales with the chain count
        tiles = np.concatenate([spins_to_gray(v, side) for _, v in gibbs_chain(
            model, args.chains, args.steps, rng)])
        grid = tile_grid(tiles, args.chains)
    except MemoryError as exc:
        raise _flag_error(f"chains {args.chains}: "
                          f"{str(exc) or 'out of memory'}") from None
    write_pgm(args.out, grid)
    print(f"wrote {args.out}: {len(args.steps)} rows x {args.chains} chains")
    return 0


def cmd_reconstruct(args):
    """originals vs one-step reconstructions"""
    model, _ = load_checkpoint(args.checkpoint)
    images, _ = _load_images(args.data, model.n_v)
    spins = binarize(images)
    count = _fit(args, "count", len(spins), "rows of the data")
    side = _image_side(model.n_v)
    rng = make_rng(args.seed, _STREAM_RECONSTRUCT)
    idx = rng.choice(len(spins), size=count, replace=False)
    originals = spins[idx]
    v_hat = reconstruct(model, originals, rng)
    recon = spins_from_mask(v_hat >= 0)
    tiles = spins_to_gray(np.concatenate([originals, recon]), side)
    write_pgm(args.out, tile_grid(tiles, count))
    disagree = float(np.mean(originals != recon))
    print(f"wrote {args.out}; mean pixel disagreement {disagree:.4f}")
    return 0


def cmd_eval(args):
    """recon error of the chains' own samples, and energy coefficient, vs
    Gibbs steps (metrics.csv's recon_error is of held-out data rows)"""
    model, _ = load_checkpoint(args.checkpoint)
    images, _ = _load_images(args.data, model.n_v)
    spins = binarize(images)
    batch_size = _fit(args, "batch_size", len(spins), "rows of the data")
    rows = []
    for k, err, coeff in eval_curve(model, spins, batch_size, args.steps,
                                    args.seed):
        rows.append((k, repr(err), repr(coeff)))
        print(f"step {k:3d}  recon_error {err:.4f}  energy_coefficient {coeff:.4f}")
    _write_csv(args.out, ["step", "recon_error", "energy_coefficient"], rows)
    return 0


def cmd_weights(args):
    """tile a random subset of weight columns"""
    model, _ = load_checkpoint(args.checkpoint)
    side = _image_side(model.n_v)
    rng = make_rng(args.seed, _STREAM_WEIGHTS)
    count = _fit(args, "count", model.n_h, "hidden units of the checkpoint")
    cols = rng.choice(model.n_h, size=count, replace=False)
    n_cols = math.isqrt(count)
    tiles = rescale_to_gray(model.W[:, cols].T, side)
    write_pgm(args.out, tile_grid(tiles, n_cols))
    print(f"wrote {args.out}: {-(-count // n_cols)}x{n_cols} weight tiles")
    return 0


_COMMANDS = {"train": cmd_train, "sample": cmd_sample,
             "reconstruct": cmd_reconstruct, "eval": cmd_eval,
             "weights": cmd_weights}


def build_parser():
    parser = argparse.ArgumentParser(prog="rbm", allow_abbrev=False,
                                     description="Spin RBM trained with CD-0")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__,
                           allow_abbrev=False)
        for name, default in options.items():
            p.add_argument("--" + name.replace("_", "-"), dest=name,
                           type=str if default is None else type(default),
                           help="required" if default is None
                           else f"default {default}{_PICKS.get(name, '')}")
        if command == "train":
            p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", help="JSON file of option values")
    return parser


def main(argv=None):
    _one_malloc_arena()  # before the worker thread exists
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _one_blas_thread() as blas_threads:
            options = _resolve(args)
            options.blas_threads = blas_threads
            return _COMMANDS[args.command](options)
    except (OSError, ValueError, MemoryError) as exc:
        # numpy's MemoryError names the size it refused; a bare one is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
