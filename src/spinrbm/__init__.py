"""Spin (+/-1) restricted Boltzmann machines trained with zero-step
contrastive divergence, with a belief-generation negative phase."""

from .data import DataStats, binarize, compute_stats, load_idx, minibatches
from .metrics import MetricsRecord, energy_coefficient, eval_curve, recon_error
from .model import (GradientPair, RbmModel, exact_nll, exact_nll_gradient,
                    nll_gradient)
from .sampling import (belief_generate, gibbs_chain, gibbs_steps, make_rng,
                       sample_hidden, sample_phi, sample_visible)
from .training import (AdamState, TrainConfig, adam_step, init_model,
                       load_checkpoint, save_checkpoint, train)

__version__ = "0.1.0"
