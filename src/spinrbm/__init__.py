"""Spin (+/-1) restricted Boltzmann machines trained with zero-step
contrastive divergence, with a belief-generation negative phase.

The names below load their module, and with it numpy, on first use
(PEP 562): importing the package loads no numpy, so the ``rbm`` command
can set the BLAS thread count before numpy first loads.
"""

import importlib

_EXPORTS = {
    "data": ("DataStats", "binarize", "compute_stats", "load_idx",
             "minibatches"),
    "metrics": ("MetricsRecord", "energy_coefficient", "eval_curve",
                "recon_error"),
    "model": ("GradientPair", "RbmModel", "exact_nll", "exact_nll_gradient",
              "nll_gradient"),
    "sampling": ("belief_generate", "gibbs_chain", "gibbs_steps", "make_rng",
                 "sample_hidden", "sample_phi", "sample_visible"),
    "training": ("AdamState", "TrainConfig", "adam_step", "init_model",
                 "load_checkpoint", "save_checkpoint", "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
