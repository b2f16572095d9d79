"""Spin (+/-1) restricted Boltzmann machines trained with zero-step
contrastive divergence, with a belief-generation negative phase."""

from .data import DataStats, Dataset, binarize, compute_stats, load_idx, minibatches
from .metrics import (MetricsRecord, energy_coefficient, recon_error,
                      recon_error_vs_steps)
from .model import (GradientPair, RbmModel, energy, exact_nll,
                    exact_nll_gradient, hidden_field, hidden_mean,
                    nll_gradient, visible_field)
from .sampling import (belief_generate, gibbs_chain, gibbs_steps, make_rng,
                       sample_hidden, sample_phi, sample_visible)
from .training import (AdamState, TrainConfig, adam_step, init_model,
                       load_checkpoint, save_checkpoint, train)

__version__ = "0.1.0"
