"""Energy coefficient and one-step reconstruction error.

Reconstruction error definition (logged with every metrics CSV): sample
h ~ p(h|v) once per row, read back the mean field v_hat = tanh(b + W h),
and report mean |v - v_hat| / 2, which lies in [0, 1].
"""

from dataclasses import dataclass

import numpy as np

from .model import check_spins, visible_mean
from .sampling import gibbs_chain, make_rng, sample_hidden

RECON_ERROR_DEFINITION = (
    "recon_error = mean(|v - tanh(b + W h)|) / 2 with h ~ p(h|v), one draw"
)


@dataclass(frozen=True)
class MetricsRecord:
    epoch: int
    energy_coefficient: float
    recon_error: float
    wall_ms: int


def _mean_cross_distance(x, y):
    """Mean Euclidean distance over all ordered pairs of rows of the float32
    spin batches x and y (V-statistic form: within-batch calls include the
    zero i=j terms)."""
    n_v = x.shape[1]
    # a.b of spin rows is an integer of magnitude <= n_v < 2^24, so the
    # float32 product is exact (x @ x.T runs as syrk); ||a - b||^2 =
    # 2 (n_v - a.b) is formed in float64
    sq = np.subtract(n_v, x @ y.T, dtype=np.float64)
    sq *= 2.0
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    return float(sq.mean())


def energy_coefficient(x, y):
    """Normalized energy distance between two spin batches.

    (2 d_xy - d_xx - d_yy) / (2 d_xy) with d the all-pairs mean distances;
    0 for indistinguishable batches, 1 at maximal separation.  Returns 0
    when d_xy = 0 (both batches concentrated on one identical point).
    """
    x = np.atleast_2d(check_spins(x, name="x"))
    y = np.atleast_2d(check_spins(y, name="y"))
    if x.shape[0] == 0 or y.shape[0] == 0:
        raise ValueError("empty batch")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"unit count mismatch: {x.shape[1]} vs {y.shape[1]}")
    x, y = x.astype(np.float32), y.astype(np.float32)
    d_xy = _mean_cross_distance(x, y)
    if d_xy == 0.0:
        return 0.0
    d_xx = _mean_cross_distance(x, x)
    d_yy = _mean_cross_distance(y, y)
    return (2.0 * d_xy - d_xx - d_yy) / (2.0 * d_xy)


def recon_error(model, batch, rng):
    """One-step reconstruction error in [0, 1] (definition in module docstring)."""
    batch = np.atleast_2d(check_spins(batch, model.n_v, "batch"))
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    h = sample_hidden(model, batch, rng)
    v_hat = visible_mean(model, h)
    return float(np.abs(batch - v_hat).mean() / 2.0)


def recon_error_vs_steps(model, stats, batch_size, steps, rng):
    """Reconstruction error of belief-generated samples after k Gibbs sweeps,
    for each k in steps (sorted ascending), along one chain.  Each evaluation
    samples from its own stream, keyed by a draw from rng; the measurement's
    own draws stay out of the chain."""
    return [(k, recon_error(model, v, make_rng(rng.integers(1 << 62))))
            for k, v in gibbs_chain(model, stats, batch_size, steps, rng)]
