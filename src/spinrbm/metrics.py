"""Energy coefficient, one-step reconstruction error, and the eval curve.

Reconstruction error definition (logged with every metrics CSV): sample
h ~ p(h|v) once per row, read back the mean field v_hat = tanh(b + W h),
and report mean |v - v_hat| / 2, which lies in [0, 1].
"""

from dataclasses import dataclass

import numpy as np

from . import workers
from .model import check_spins
from .sampling import gibbs_chain, make_rng, sample_hidden

# rng stream tags of eval_curve: data batch and chain; recon error per step
_STREAM_CHAIN = 0x5C
_STREAM_RECON = 0x5D

RECON_ERROR_DEFINITION = (
    "recon_error = mean(|v - tanh(b + W h)|) / 2 with h ~ p(h|v), one draw"
)


@dataclass(frozen=True)
class MetricsRecord:
    epoch: int
    energy_coefficient: float
    recon_error: float
    wall_ms: int


# rows of x.y^T per float64 block in _distance_sum
_BLOCK_ROWS = 256


def _distance_sum(x, y):
    """Sum of the Euclidean distances over all ordered pairs of rows of the
    float32 spin batches x and y."""
    # a.b of spin rows is an integer of magnitude <= n_v < 2^24, so the
    # float32 product is exact (x @ x.T runs as syrk), and so is
    # ||a - b||^2 = 2 (n_v - a.b), formed in place; the square roots are
    # float64, over blocks of rows
    sq = x @ y.T
    np.subtract(x.shape[1], sq, out=sq)
    sq *= 2.0
    np.maximum(sq, 0.0, out=sq)
    return sum(float(np.sqrt(sq[lo:lo + _BLOCK_ROWS], dtype=np.float64).sum())
               for lo in range(0, sq.shape[0], _BLOCK_ROWS))


def energy_coefficient(x, y):
    """Normalized energy distance between two spin batches.

    (2 d_xy - d_xx - d_yy) / (2 d_xy) with d the all-pairs mean distances
    (V-statistic form: d_xx and d_yy include the zero i=j terms); 0 for
    indistinguishable batches, 1 at maximal separation.  Returns 0 when
    d_xy = 0 (both batches concentrated on one identical point).  The row
    halves of x in d_xy, then d_xx beside d_yy, run on the two workers.
    """
    x = check_spins(x, name="x")
    y = check_spins(y, name="y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"unit count mismatch: {x.shape[1]} vs {y.shape[1]}")
    x, y = x.astype(np.float32), y.astype(np.float32)
    n_x, n_y = x.shape[0], y.shape[0]
    d_xy = sum(workers.split_rows(
        lambda lo, hi: _distance_sum(x[lo:hi], y), n_x)) / (n_x * n_y)
    if d_xy == 0.0:
        return 0.0
    s_xx, s_yy = workers.pair(lambda: _distance_sum(x, x),
                              lambda: _distance_sum(y, y))
    d_xx, d_yy = s_xx / (n_x * n_x), s_yy / (n_y * n_y)
    return (2.0 * d_xy - d_xx - d_yy) / (2.0 * d_xy)


def reconstruct(model, v, rng):
    """Mean-field readback tanh(b + W h) of h ~ p(h|v), one draw per row;
    the row halves of W h are formed on the two workers."""
    h = sample_hidden(model, v, rng).astype(np.float64)
    t = workers.matmul(h, model.W.T)
    t += model.b
    return np.tanh(t, out=t)


def recon_error(model, batch, rng):
    """One-step reconstruction error in [0, 1] (definition in module docstring)."""
    batch = check_spins(batch, model.n_v, "batch")
    return float(np.abs(batch - reconstruct(model, batch, rng)).mean() / 2.0)


def eval_curve(model, spins, batch_size, steps, seed):
    """Yield (k, recon_error, energy_coefficient) for each k in steps: the
    quality of min(batch_size, rows) belief-generated chains after k Gibbs
    sweeps, against as many data rows drawn from spins.  The recon error at
    each k draws from its own stream, off the chain's.  Arguments are
    checked when iteration starts."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    spins = check_spins(spins, model.n_v, "spins")
    rng = make_rng(seed, _STREAM_CHAIN)
    n = min(batch_size, spins.shape[0])
    data_batch = spins[rng.choice(spins.shape[0], size=n, replace=False)]
    for k, v in gibbs_chain(model, n, steps, rng):
        yield (k, recon_error(model, v, make_rng(seed, _STREAM_RECON, k)),
               energy_coefficient(data_batch, v))
