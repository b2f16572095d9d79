"""Spin RBM parameterization, energy, conditionals, and likelihood machinery.

Units are Ising spins (+/-1).  The joint energy is

    U(v, h) = -b.(v - mu) - (v - mu).W.h

with the visible units centered about a fixed vector ``mu`` (the empirical
data mean) and no explicit hidden bias.  All conditionals below follow from
exp(-U), so p(h_i = +1 | v) = sigma(2 * phi_i) with phi = W^T (v - mu).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .workers import split_rows

# exact_nll refuses models beyond this many total units (~16M joint states)
ENUMERATION_LIMIT = 24

_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class RbmModel:
    """Immutable RBM parameters: couplings W (n_v x n_h), visible bias b and
    the training data's DataStats; mu = stats.mu is fixed, never trained."""

    W: np.ndarray
    b: np.ndarray
    stats: "DataStats"

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError(f"W must be a matrix, got shape {W.shape}")
        n_v, n_h = W.shape
        if b.shape != (n_v,):
            raise ValueError(f"b shape {b.shape} inconsistent with W {W.shape}")
        if self.mu.shape != (n_v,):
            raise ValueError(f"mu shape {self.mu.shape} inconsistent with W {W.shape}")
        for name, arr in (("W", W), ("b", b)):
            check_float32_range(arr, name)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def mu(self):
        return self.stats.mu

    @cached_property
    def W32(self):
        """W cast to float32 for the samplers, once per model."""
        return np.asarray(self.W, dtype=np.float32)

    @property
    def n_v(self):
        return self.W.shape[0]

    @property
    def n_h(self):
        return self.W.shape[1]


@dataclass(frozen=True)
class GradientPair:
    """Gradient of the NLL with respect to (b, W)."""

    d_b: np.ndarray
    d_W: np.ndarray


def check_float32_range(arr, name):
    """Reject an array with an entry that is not finite or lies beyond float32
    range: the samplers cast W, b, mu and sigma to float32."""
    # NaN fails the comparisons too; an empty array passes
    if arr.size and not -_F32_MAX <= arr.min() <= arr.max() <= _F32_MAX:
        raise ValueError(f"{name} entries must be finite and within float32 range")


def check_spins(arr, n_units=None, name="batch"):
    """Validate a non-empty batch of +/-1 rows, a vector being one row, and
    return it as a 2-D int8 array (copies only if needed)."""
    try:
        arr = np.asarray(arr)
    except ValueError:  # numpy's "inhomogeneous shape" for a ragged list
        raise ValueError(f"{name}: rows of unequal width") from None
    if arr.ndim == 0:
        raise ValueError(f"{name}: expected an array of spins, got a scalar")
    if arr.ndim > 2:
        raise ValueError(f"{name}: expected a vector or a matrix of spins, "
                         f"got shape {arr.shape}")
    arr = np.atleast_2d(arr)
    if arr.size == 0:
        raise ValueError(f"{name}: empty batch, shape {arr.shape}")
    if n_units is not None and arr.shape[1] != n_units:
        raise ValueError(f"{name}: expected {n_units} units, got shape {arr.shape}")
    if not np.all(np.abs(arr) == 1):
        raise ValueError(f"{name}: entries must be exactly -1 or +1")
    return arr.astype(np.int8, copy=False)


def spins_from_mask(mask):
    """Turn a fresh boolean array into int8 spins in place: True -> +1,
    False -> -1."""
    spins = mask.view(np.int8)
    spins += spins  # {0, 1} -> {-1, +1}
    spins -= 1
    return spins


def _all_spin_states(n):
    """All 2^n spin vectors of length n as an int8 matrix (2^n x n): bit j
    of the row index is set where unit j is +1."""
    states = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1)
    return (2 * states - 1).astype(np.int8)


def _exact_visible_table(model):
    """All 2^n_v visible states (as _all_spin_states) and their exact log p(v).

    The hidden spins sum out in closed form:
    log sum_h exp(-U(v, h)) = b.(v - mu) + sum_i log 2cosh(phi_i), with
    phi = W^T (v - mu); log Z is the log-sum-exp of that over all v.
    Tiny models only (n_v + n_h <= 24).
    """
    total = model.n_v + model.n_h
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration refused: n_v + n_h = {total} exceeds "
            f"limit {ENUMERATION_LIMIT}")
    V = _all_spin_states(model.n_v)
    vc = V - model.mu
    phi = vc @ model.W
    log_num = vc @ model.b + np.logaddexp(phi, -phi).sum(axis=1)
    m = log_num.max()
    return V, log_num - (m + np.log(np.exp(log_num - m).sum()))


def exact_nll(model, dataset):
    """Average negative log-likelihood -<log p(v)> over the dataset rows,
    by exact enumeration.  Tiny models only (n_v + n_h <= 24)."""
    dataset = check_spins(dataset, model.n_v, "dataset")
    _, log_p = _exact_visible_table(model)
    index = (dataset > 0) @ (1 << np.arange(model.n_v))
    return float(-log_p[index].mean())


def exact_visible_marginal(model):
    """Exact p(v) over all 2^n_v visible states, indexed like _all_spin_states."""
    return np.exp(_exact_visible_table(model)[1])


def _moments(model, rows, weights):
    """Weighted sums over spin rows, the one home of the moment formula:
    (weights @ v, (v - mu)^T (weights * tanh(W^T (v - mu)))).

    Derived from U: dU/db = -(v - mu), dU/dW = -(v - mu) h^T with h
    marginalized to tanh(W^T (v - mu)).
    """
    vc = rows.astype(np.float64)
    d_b = weights @ vc
    vc -= model.mu
    t = vc @ model.W
    np.tanh(t, out=t)
    # weight the (usually narrower) hidden side: rows x n_h, not rows x n_v
    t *= weights[:, None]
    return GradientPair(d_b=d_b, d_W=vc.T @ t)


def _add_moments(model, grads, rows, weights):
    """grads plus the moments of rows, its two row halves on the two
    workers, added in a fixed order."""
    for part in split_rows(
            lambda lo, hi: _moments(model, rows[lo:hi], weights[lo:hi]),
            rows.shape[0]):
        grads = GradientPair(d_b=grads.d_b + part.d_b,
                             d_W=grads.d_W + part.d_W)
    return grads


def data_phase(model, data_batch):
    """The data part of the NLL gradient: minus the data-phase average."""
    data_batch = check_spins(data_batch, model.n_v, "data_batch")
    n_d = data_batch.shape[0]
    return _moments(model, data_batch, np.full(n_d, -1.0 / n_d))


def add_model_phase(model, data_part, model_batch):
    """The stochastic NLL gradient from its data part (data_phase): plus the
    model-phase average, each model row weighing 1/n_m.  The returned
    direction ascends the NLL; the optimizer subtracts it."""
    model_batch = check_spins(model_batch, model.n_v, "model_batch")
    n_m = model_batch.shape[0]
    return _add_moments(model, data_part, model_batch, np.full(n_m, 1.0 / n_m))


def nll_gradient(model, data_batch, model_batch):
    """Stochastic NLL gradient: model-phase average minus data-phase average,
    each model row weighing 1/n_m."""
    return add_model_phase(model, data_phase(model, data_batch), model_batch)


def exact_nll_gradient(model, data_batch):
    """NLL gradient with the model phase computed by exact enumeration
    (weights p(v) over all visible states).  Tiny models only."""
    data_part = data_phase(model, data_batch)
    V, log_p = _exact_visible_table(model)
    return _add_moments(model, data_part, V, np.exp(log_p))
