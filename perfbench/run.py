#!/usr/bin/env python3
"""spinrbm benchmark: end-to-end runs of the ``rbm`` CLI and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0
    python3 perfbench/selftest.py          # harness self-test and tiny smoke runs

Each run writes 12,000 synthetic 28x28 digit images as an IDX file (the
input of the determinism acceptance test: the test suite's generator with
seed 77) and drives ``python3 -m spinrbm.cli`` on it, one fresh process per
command, with the BLAS thread count left at its default.  ``--seed`` is
passed to every command as ``rbm --seed``: it picks the initial weights,
minibatch order, held-out fold and every sampled spin.  The data stay fixed
because the synthetic generator draws new digit templates per seed, and the
quality metrics then spread by 15-40% between seeds; over ``rbm --seed``
they spread by under 5%.  Workloads:

- ``desk_train``: ``rbm train --preset desk --epochs 3`` (128 hidden units,
  batch 256, first 10k images, held-out eval every epoch).  The 784-wide
  phi draw is the largest stage of a step.
- ``paper_train``: ``rbm train --preset paper --epochs 2`` (512 hidden
  units, batch 1024, all 12k images).  Gradient and Adam carry most of a
  step; the phi draw less than in ``desk_train``.

A Gibbs-only workload (``rbm eval``, 1024 chains, 128 sweeps) was tried and
left out: on a shared 2-vCPU machine its wall time spread by 28% (quartile
distance over median) across ten 30-second runs, wider than any bound a
metric may have.  The Gibbs layers are still traced, through the output
check's ``rbm eval`` of each trained checkpoint.

With ``--trace 0`` the run alternates the set-up command (the same command
with no work: ``--epochs 0``) and the measured command until ``--seconds``
have passed, and reports medians: ``setup_s`` of the set-up command,
``wall_s`` of the measured one, ``samples_per_s`` = epochs x input images /
(measured wall - the preceding set-up wall), ``peak_rss_mb`` from wait4, and
the final ``recon_error``/``energy_coefficient`` of ``metrics.csv`` (fixed
per seed and BLAS thread count).  With ``--trace 1`` every command of the
workload (set-up, measured, output check) runs once under ``traced_cli.py``
and the per-layer metrics come from those spans; the measured command is
then repeated untraced for the overhead.

Every command's outputs are checked, and every repeat of a command must
reproduce the first byte for byte, also across runs of one seed in one
checkout.  A failed check counts in ``failed``.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); details and the machine record go to
``.perfbench_work/results/``.
"""

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import N_IMAGES, write_digit_idx  # noqa: E402
from spans import layer_table, percentile  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = WORK / "results"
RUN_LIMIT_S = 165.0  # a run must end within 180 s
MIN_REPEATS = 3
N_VISIBLE = 784
DATA_SEED = 77  # tests/test_acceptance.py::test_criterion_7_determinism
DESK_MAX_RECON = 0.32  # tests/test_acceptance.py::test_desk_scale_surrogate_synthetic

WORKLOADS = {
    "desk_train": dict(preset="desk", epochs=3, n_hidden=128, batch=256, images=10000),
    "paper_train": dict(preset="paper", epochs=2, n_hidden=512, batch=1024, images=N_IMAGES),
}
# --tiny: the same commands on 600 images, 16 hidden units, 64-row batches
TINY = dict(images=600, n_hidden=16, batch=64, epochs=1)
TINY_TRAIN_FLAGS = ["--n-hidden", str(TINY["n_hidden"]), "--batch-size", str(TINY["batch"]),
                    "--eval-batch", str(TINY["batch"])]
CHECK_STEPS = [0, 1]  # output check: the trained checkpoint must load and sample
CHECK_CHAINS = 64

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB",
    "final_recon_error": "fraction", "final_energy_coefficient": "fraction",
}
PER_LAYER = {
    "data.load_idx.ms": "ms",
    "data.compute_stats.ms": "ms",
    "sampling.sample_phi.ms_p50": "ms",
    "sampling.sample_phi.calls": "count",
    "sampling.sample_phi.gflop": "GFLOP",
    "sampling.sample_visible.ms_p50": "ms",
    "sampling.sample_hidden.ms_p50": "ms",
    "sampling.belief_generate.self_ms_p50": "ms",
    "sampling.gibbs_steps.sweeps": "count",
    "sampling.gibbs_steps.self_ms": "ms",
    "kernels.draw_spins.ms_p50": "ms",
    "kernels.draw_spins.calls": "count",
    "kernels.draw_spins.elements": "count",
    "kernels.draw_spins.mbytes": "MB",
    "kernels.draw_spins.bench_hidden_ms": "ms",
    "kernels.draw_spins.bench_visible_ms": "ms",
    "model.nll_gradient.ms_p50": "ms",
    "model.nll_gradient.gflop": "GFLOP",
    "model.check_spins.calls_per_step": "count",
    "model.check_spins.ms_total": "ms",
    "training.adam_step.ms_p50": "ms",
    "training.adam_step.mbytes": "MB",
    "training.save_checkpoint.ms": "ms",
    "training.load_checkpoint.ms": "ms",
    "io_util.atomic_write_bytes.ms_total": "ms",
    "io_util.atomic_write_bytes.bytes": "bytes",
    "metrics.energy_coefficient.ms_p50": "ms",
    "metrics.energy_coefficient.calls": "count",
    "metrics.recon_error.ms_p50": "ms",
    "trace.overhead_pct": "%",
}

# work counts derived from argument shapes in traced_cli.py, not hardware counters
COMPUTED = ["sampling.sample_phi.gflop", "kernels.draw_spins.mbytes",
            "model.nll_gradient.gflop", "training.adam_step.mbytes",
            "model.check_spins.calls_per_step"]


@dataclass
class Outcome:
    """One command: wall seconds, peak RSS, output directory or file, and,
    when every check passed, a fingerprint of the outputs and the final
    (recon_error, energy_coefficient)."""
    wall: float
    rss_mb: float
    out: Path
    fingerprint: str | None = None
    quality: tuple | None = None

    @property
    def ok(self):
        return self.fingerprint is not None


class Run:
    """One benchmark run of a workload: its commands, checks and tallies."""

    def __init__(self, name, seed, tiny):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.wl = dict(WORKLOADS[name], **(TINY if tiny else {}))
        self.work = self.wl["epochs"] * self.wl["images"]
        self.t0 = time.perf_counter()
        # fixed-width name: paths echoed into the outputs keep their length
        self.dir = WORK / f"{name}-{seed}-{os.getpid():07d}"
        self.data = self.dir / "data"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.data.mkdir(parents=True)
        self.attempted = 0
        self.failures = []
        self.spans = []  # one list per traced command
        self._serial = 0

    def time_left(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.t0)

    def fail(self, why):
        self.failures.append(why)

    def fresh(self, stem, suffix=""):
        self._serial += 1
        return self.dir / f"{stem}{self._serial}{suffix}"

    # -- the workload's commands ---------------------------------------------

    def setup(self, traced=False):
        return self.train(0, traced)

    def measured(self, traced=False):
        return self.train(self.wl["epochs"], traced)

    def check_output(self, outcome, traced=False):
        """The trained checkpoint must also load and sample through the CLI."""
        self.eval(outcome.out / "checkpoint.rbm", CHECK_STEPS, CHECK_CHAINS, traced)

    def train(self, epochs, traced):
        out = self.fresh("train")
        args = ["train", "--preset", self.wl["preset"], "--seed", str(self.seed), "--data",
                str(self.data), "--out", str(out), "--epochs", str(epochs)]
        outcome = self.spawn(args + (TINY_TRAIN_FLAGS if self.tiny else []), out, traced)
        if outcome.wall is not None:
            self.check_train(outcome, epochs)
        return outcome

    def eval(self, checkpoint, steps, chains, traced):
        out = self.fresh("eval", ".csv")
        args = ["eval", "--checkpoint", str(checkpoint), "--data", str(self.data),
                "--out", str(out), "--steps", ",".join(map(str, steps)),
                "--batch-size", str(chains), "--seed", str(self.seed)]
        outcome = self.spawn(args, out, traced)
        if outcome.wall is not None:
            self.check_eval(outcome, steps)
        return outcome

    def spawn(self, args, out, traced):
        """Run one CLI command in a fresh process.  The wall clock covers
        interpreter start-up to exit; peak RSS comes from wait4."""
        if traced:
            spans_file = self.fresh("spans", ".json")
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file)] + args
        else:
            argv = [sys.executable, "-m", "spinrbm.cli"] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        log = self.dir / "child.log"
        self.attempted += 1
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(max(self.time_left(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            self.fail(f"exit {code}: rbm {' '.join(args[:3])} ... {tail}")
            return Outcome(None, None, out)
        if traced:
            with open(spans_file) as fh:
                self.spans.append(json.load(fh)["spans"])
        return Outcome(wall, usage.ru_maxrss / 1024.0, out)

    # -- output checks: set outcome.fingerprint only when all pass --------------

    def check_train(self, outcome, epochs):
        checkpoint = outcome.out / "checkpoint.rbm"
        try:
            n_v, n_h = load_shape(checkpoint)
            rows = read_csv(outcome.out / "metrics.csv",
                            ("epoch", "energy_coefficient", "recon_error"))
        except Exception as exc:  # any loader error is a failed output check
            return self.fail(f"train outputs unreadable: {exc!r}")
        if (n_v, n_h) != (N_VISIBLE, self.wl["n_hidden"]):
            return self.fail(f"checkpoint is {n_v}x{n_h}, expected "
                             f"{N_VISIBLE}x{self.wl['n_hidden']}")
        if [int(r[0]) for r in rows] != list(range(1, epochs + 1)):
            return self.fail(f"metrics.csv epochs {[r[0] for r in rows]}, expected 1..{epochs}")
        if not all(0.0 <= float(x) <= 1.0 for r in rows for x in r[1:]):
            return self.fail("metrics.csv value outside [0, 1]")
        if (rows and self.name == "desk_train" and not self.tiny
                and float(rows[-1][2]) >= DESK_MAX_RECON):
            return self.fail(f"desk recon error {rows[-1][2]} >= {DESK_MAX_RECON}")
        outcome.quality = (float(rows[-1][2]), float(rows[-1][1])) if rows else None
        outcome.fingerprint = fingerprint(checkpoint, rows)

    def check_eval(self, outcome, steps):
        try:
            rows = read_csv(outcome.out, ("step", "recon_error", "energy_coefficient"))
        except (OSError, ValueError, KeyError) as exc:
            return self.fail(f"eval csv unreadable: {exc!r}")
        if [int(r[0]) for r in rows] != list(steps):
            return self.fail(f"eval steps {[r[0] for r in rows]}, expected {steps}")
        if not all(0.0 <= float(x) <= 1.0 for r in rows for x in r[1:]):
            return self.fail("eval csv value outside [0, 1]")
        outcome.quality = (float(rows[-1][1]), float(rows[-1][2]))
        outcome.fingerprint = fingerprint(outcome.out, rows)

    def same(self, outcomes, what):
        """Every repeat must reproduce the first one's outputs exactly; a
        mismatch is a failure, never averaged away."""
        prints = [o.fingerprint for o in outcomes if o.ok]
        for p in prints[1:]:
            if p != prints[0]:
                self.fail(f"{what}: outputs differ between repeats of one seed")
        return prints[0] if prints else None


def load_shape(path):
    """(n_v, n_h) of a checkpoint, through the package's own loader."""
    from spinrbm.training import load_checkpoint
    return load_checkpoint(path)[0].W.shape


def read_csv(path, columns):
    with open(path, newline="") as fh:
        rows = [tuple(row[c] for c in columns) for row in csv.DictReader(fh)]
    for row in rows:
        if not all(math.isfinite(float(x)) for x in row):
            raise ValueError(f"{path}: non-finite value in {row}")
    return rows


def fingerprint(path, rows):
    """Hash of a result file plus its metric rows (wall-clock columns left out)."""
    digest = hashlib.sha256(Path(path).read_bytes())
    digest.update(repr(rows).encode())
    return digest.hexdigest()


def tree_hash(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_across_runs(run, print_, threads):
    """The same code, seed and thread count must give the same outputs in
    every run; the first run of a key in this checkout records it."""
    if print_ is None:
        return
    store = RESULTS / "fingerprints.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{run.name}/seed{run.seed}/tiny{int(run.tiny)}/threads{threads}/{tree_hash(SRC)}"
    if known.setdefault(key, print_) != print_:
        run.fail("outputs differ from an earlier run of the same seed and thread count")
    store.write_text(json.dumps(known, indent=1) + "\n")


# -- measurement ----------------------------------------------------------------

def repeat(run, seconds, body, at_least):
    """Call body() at least ``at_least`` times, then until the next call
    would end past ``seconds``; returns the results."""
    deadline = time.perf_counter() + seconds
    results = []
    while run.time_left() > 0:
        t = time.perf_counter()
        results.append(body())
        now = time.perf_counter()
        if len(results) >= at_least and now + (now - t) > deadline:
            break
    return results


def measure(run, seconds):
    pairs = repeat(run, seconds, lambda: (run.setup(), run.measured()), MIN_REPEATS)
    run.same([s for s, _ in pairs], "set-up command")
    print_ = run.same([m for _, m in pairs], "measured command")
    run.check_output(pairs[-1][1])
    ok_pairs = [(s, m) for s, m in pairs if s.ok and m.ok]
    raw = {"setup_walls_s": [s.wall for s, _ in ok_pairs],
           "walls_s": [m.wall for _, m in ok_pairs],
           "peak_rss_mb": [m.rss_mb for _, m in ok_pairs], "work": run.work}
    if not ok_pairs:
        return {}, raw, print_
    recon, coeff = ok_pairs[0][1].quality
    # the work's own time: each measured command less the set-up run just before it
    work_s = statistics.median(m.wall - s.wall for s, m in ok_pairs)
    metrics = {
        "setup_s": statistics.median(raw["setup_walls_s"]),
        "wall_s": statistics.median(raw["walls_s"]),
        "samples_per_s": run.work / work_s,
        "peak_rss_mb": statistics.median(raw["peak_rss_mb"]),
        "final_recon_error": recon,
        "final_energy_coefficient": coeff,
    }
    return metrics, raw, print_


def measure_traced(run, seconds):
    start = time.perf_counter()
    run.setup(traced=True)
    traced = run.measured(traced=True)
    run.check_output(traced, traced=True)
    plain = repeat(run, seconds - (time.perf_counter() - start), run.measured, 1)
    print_ = run.same([traced] + plain, "traced and untraced command")
    raw = {"traced_wall_s": traced.wall, "untraced_walls_s": [o.wall for o in plain if o.ok]}
    if not traced.ok or not raw["untraced_walls_s"]:
        return {}, raw, print_
    base = statistics.median(raw["untraced_walls_s"])
    metrics = layer_metrics(run.spans)
    metrics["trace.overhead_pct"] = 100.0 * (traced.wall - base) / base
    metrics["kernels.draw_spins.bench_hidden_ms"] = bench_draw_spins(
        (run.wl["batch"], run.wl["n_hidden"]))
    metrics["kernels.draw_spins.bench_visible_ms"] = bench_draw_spins(
        (run.wl["batch"], N_VISIBLE))
    return metrics, raw, print_


def layer_metrics(span_lists):
    """Per-layer metrics over the spans of every traced command of a run.
    Counts are per run; ``ms``/``ms_p50`` are per-call medians and
    ``ms_total``/``self_ms`` sums.  A step is one Adam update or one Gibbs
    sweep."""
    table = layer_table(span_lists)
    empty = {"ms": [], "self_ms": [], "work": {}}

    def p50(label, key="ms"):
        return percentile(table.get(label, empty)[key], 50)

    def calls(label):
        return len(table.get(label, empty)["ms"])

    def total(label, key="ms"):
        return sum(table.get(label, empty)[key])

    def work(label, key):
        return table.get(label, empty)["work"].get(key, 0.0)

    steps = calls("training.adam_step") + work("sampling.gibbs_steps", "sweeps")
    return {
        "data.load_idx.ms": p50("data.load_idx"),
        "data.compute_stats.ms": p50("data.compute_stats"),
        "sampling.sample_phi.ms_p50": p50("sampling.sample_phi"),
        "sampling.sample_phi.calls": calls("sampling.sample_phi"),
        "sampling.sample_phi.gflop": work("sampling.sample_phi", "flop") / 1e9,
        "sampling.sample_visible.ms_p50": p50("sampling.sample_visible"),
        "sampling.sample_hidden.ms_p50": p50("sampling.sample_hidden"),
        "sampling.belief_generate.self_ms_p50": p50("sampling.belief_generate", "self_ms"),
        "sampling.gibbs_steps.sweeps": work("sampling.gibbs_steps", "sweeps"),
        "sampling.gibbs_steps.self_ms": total("sampling.gibbs_steps", "self_ms"),
        "kernels.draw_spins.ms_p50": p50("kernels.draw_spins"),
        "kernels.draw_spins.calls": calls("kernels.draw_spins"),
        "kernels.draw_spins.elements": work("kernels.draw_spins", "elements"),
        "kernels.draw_spins.mbytes": work("kernels.draw_spins", "bytes") / 1e6,
        "model.nll_gradient.ms_p50": p50("model.nll_gradient"),
        "model.nll_gradient.gflop": work("model.nll_gradient", "flop") / 1e9,
        "model.check_spins.calls_per_step": calls("model.check_spins") / max(steps, 1),
        "model.check_spins.ms_total": total("model.check_spins"),
        "training.adam_step.ms_p50": p50("training.adam_step"),
        "training.adam_step.mbytes": work("training.adam_step", "bytes") / 1e6,
        "training.save_checkpoint.ms": p50("training.save_checkpoint"),
        "training.load_checkpoint.ms": p50("training.load_checkpoint"),
        "io_util.atomic_write_bytes.ms_total": total("io_util.atomic_write_bytes"),
        "io_util.atomic_write_bytes.bytes": work("io_util.atomic_write_bytes", "bytes"),
        "metrics.energy_coefficient.ms_p50": p50("metrics.energy_coefficient"),
        "metrics.energy_coefficient.calls": calls("metrics.energy_coefficient"),
        "metrics.recon_error.ms_p50": p50("metrics.recon_error"),
    }


# -- spin kernel: microbenchmark and backend agreement ------------------------------

def spin_kernels():
    """The module that exports ``draw_spins`` (``spinrbm.kernels`` while the
    compiled backend exists)."""
    import spinrbm.sampling
    return getattr(spinrbm, "kernels", spinrbm.sampling)


def bench_draw_spins(shape, repeats=30):
    """Median ms of one ``draw_spins`` call on a (rows, units) field."""
    import numpy as np
    draw = spin_kernels().draw_spins
    gen = np.random.default_rng(0)
    phi, u = gen.normal(0, 1, shape), gen.random(shape)
    draw(phi, u)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        draw(phi, u)
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def check_backends(run):
    """When the compiled kernel is built it must agree with the numpy one."""
    kernels = spin_kernels()
    backend = getattr(kernels, "BACKEND", "python")
    if backend == "cython":
        import numpy as np
        run.attempted += 1
        gen = np.random.default_rng(run.seed)
        phi, u = gen.normal(0, 2, (256, N_VISIBLE)), gen.random((256, N_VISIBLE))
        if not np.array_equal(kernels.draw_spins(phi, u), kernels.draw_spins_python(phi, u)):
            run.fail("compiled and numpy draw_spins disagree")
    return backend


# -- machine record ---------------------------------------------------------------

def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import numpy as np
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def git_commit():
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def machine_record(backend, threads, inputs):
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads": threads,
                 "env": {k: os.environ.get(k) for k in (
                     "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": backend,
        "git_commit": git_commit(),
        "inputs": inputs,
    }


# -- entry point ----------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and layers, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "spinrbm" / "cli.py").is_file():
        print(f"error: no spinrbm sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(parents=True, exist_ok=True)

    run = Run(args.workload, args.seed, args.tiny)
    threads = blas_threads()
    try:
        inputs = write_digit_idx(run.data, DATA_SEED, TINY["images"] if args.tiny else N_IMAGES)
        backend = check_backends(run)
        run.setup()  # warm-up: page cache and bytecode, not timed
        metrics, raw, print_ = (measure_traced if args.trace else measure)(run, args.seconds)
        check_across_runs(run, print_, threads)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    names = PER_LAYER if args.trace else END_TO_END
    missing = [n for n in names if n not in metrics]
    if missing:
        run.fail(f"not measured: {missing}")
    report = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": min(len(run.failures), run.attempted),
        "metrics": {n: {"value": metrics[n], "unit": names[n]} for n in names if n in metrics},
    }
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "failures": run.failures, "raw": raw,
              "computed": COMPUTED if args.trace else [],
              "machine": machine_record(backend, threads, inputs), "report": report}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for why in run.failures:
        print(f"check failed: {why}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
