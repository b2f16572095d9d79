"""Run the ``rbm`` CLI with a span around each public layer function.

Usage: python3 perfbench/traced_cli.py SPANS_JSON rbm-args...

Each traced function is replaced, in every ``spinrbm`` module that holds a
reference to it, by a wrapper that records a span (label, start, end,
parent index, work counts).  Callers resolve these names at call time, so
the wrappers see every call without a change to the package.  A function
the package no longer defines is skipped; its metrics then read 0.
The spans are written to SPANS_JSON when the command returns.
"""

import functools
import json
import sys
import time

import numpy as np

# metric label -> function name, wherever in spinrbm it is defined
LAYERS = {
    "data.load_idx": "load_idx",
    "data.compute_stats": "compute_stats",
    "sampling.sample_phi": "sample_phi",
    "sampling.sample_visible": "sample_visible",
    "sampling.sample_hidden": "sample_hidden",
    "sampling.belief_generate": "belief_generate",
    "sampling.gibbs_steps": "gibbs_steps",
    "kernels.draw_spins": "draw_spins",
    "model.nll_gradient": "nll_gradient",
    "model.check_spins": "check_spins",
    "training.adam_step": "adam_step",
    "training.save_checkpoint": "save_checkpoint",
    "training.load_checkpoint": "load_checkpoint",
    "io_util.atomic_write_bytes": "atomic_write_bytes",
    "metrics.energy_coefficient": "energy_coefficient",
    "metrics.recon_error": "recon_error",
}


def _rows(x):
    return np.atleast_2d(np.asarray(x)).shape[0]


# Work counts computed from argument shapes ("computed": they follow the
# formulas below, not hardware counters).  Each takes the call's positional
# and keyword arguments.
def _phi_work(model, stats, batch, *_, **__):
    n_v, n_h = model.W.shape
    r = stats.Q.shape[1]
    # z (batch x r) @ Q^T (r x n_v), then @ W (n_v x n_h)
    return {"flop": 2.0 * batch * (r * n_v + n_v * n_h)}


def _grad_work(model, data_batch, model_batch, *_, **__):
    n_v, n_h = model.W.shape
    rows = _rows(data_batch) + _rows(model_batch)
    # per phase: (v - mu) @ W, weights @ v, (vc * w)^T @ tanh(.)
    return {"flop": rows * (4.0 * n_v * n_h + 2.0 * n_v)}


def _spin_work(phi, u, *_, **__):
    phi, u = np.asarray(phi), np.asarray(u)
    # read fields and uniforms, write one int8 spin per element
    return {"elements": phi.size, "bytes": phi.nbytes + u.nbytes + phi.size}


def _adam_work(state, grads, lr, params, *_, **__):
    params = [np.asarray(p) for p in params]
    moments = [state.m_b, state.m_W, state.v_b, state.v_W]
    read = sum(a.nbytes for a in params + moments + [grads.d_b, grads.d_W])
    written = sum(a.nbytes for a in params + moments)
    return {"bytes": read + written}


def _gibbs_work(model, v0, k, *_, **__):
    return {"sweeps": k}


def _write_work(path, blob, *_, **__):
    return {"bytes": len(blob)}


WORK = {
    "sampling.sample_phi": _phi_work,
    "model.nll_gradient": _grad_work,
    "kernels.draw_spins": _spin_work,
    "training.adam_step": _adam_work,
    "sampling.gibbs_steps": _gibbs_work,
    "io_util.atomic_write_bytes": _write_work,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, label, fn):
        count = WORK.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = {}
            if count is not None:
                try:
                    work = count(*args, **kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    work = {}  # signature changed: keep timing, drop counts
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (label, start, end, parent, work)

        return traced

    def install(self, modules):
        """Replace every module-level reference to a traced function."""
        for label, name in LAYERS.items():
            originals = {}
            for mod in modules:
                obj = getattr(mod, name, None)
                if callable(obj) and str(getattr(obj, "__module__", "")).startswith("spinrbm"):
                    originals[id(obj)] = obj
            wrappers = {key: self.wrap(label, fn) for key, fn in originals.items()}
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers and value is originals[id(value)]:
                        setattr(mod, attr, wrappers[id(value)])


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import spinrbm.cli

    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "spinrbm" or key.startswith("spinrbm."))]
    tracer = Tracer()
    tracer.install(modules)
    try:
        code = spinrbm.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
