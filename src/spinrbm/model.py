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

# the exact oracles' bound on their table of the 2^n_h hidden states, each a
# row of n_h spins and n_v entries of tanh(f): at most 2^24 entries in all
ENUMERATION_LIMIT = 1 << 24

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
    """Validate a non-empty matrix of +/-1 rows, of an integer or real
    float dtype, and return it as an int8 array (copies only if needed)."""
    try:
        arr = np.asarray(arr)
    except ValueError:  # numpy's "inhomogeneous shape" for a ragged list
        raise ValueError(f"{name}: rows of unequal width") from None
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a matrix of spin rows, "
                         f"got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name}: empty batch, shape {arr.shape}")
    if n_units is not None and arr.shape[1] != n_units:
        raise ValueError(f"{name}: expected {n_units} units, got shape {arr.shape}")
    if arr.dtype.kind not in "iuf" or not np.all(np.abs(arr) == 1):
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


def _exact_hidden_table(model):
    """All 2^n_h hidden states H (as _all_spin_states), tanh(f) with
    f = b + W h for each, their exact p(h), and log Z.

    The visible spins sum out in closed form:
    log sum_v exp(-U(v, h)) = -mu.f + sum_j log 2cosh(f_j); log Z is the
    log-sum-exp of that over all h.
    """
    n_v, n_h = model.W.shape
    if (n_v + n_h) << n_h > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration refused: 2^{n_h} hidden states of {n_v + n_h} "
            f"entries each exceed the limit of {ENUMERATION_LIMIT} entries")
    H = _all_spin_states(n_h)
    f = H @ model.W.T + model.b
    log_w = np.logaddexp(f, -f).sum(axis=1) - f @ model.mu
    m = log_w.max()
    log_z = m + np.log(np.exp(log_w - m).sum())
    return H, np.tanh(f, out=f), np.exp(log_w - log_z), log_z


def exact_nll(model, dataset):
    """Average negative log-likelihood -<log p(v)> over the dataset rows,
    exact: log p(v) = b.(v - mu) + sum_i log 2cosh(phi_i) - log Z, with
    phi = W^T (v - mu) and log Z from the hidden states (_exact_hidden_table)."""
    dataset = check_spins(dataset, model.n_v, "dataset")
    log_z = _exact_hidden_table(model)[3]
    vc = dataset - model.mu
    phi = vc @ model.W
    return float(log_z - (vc @ model.b + np.logaddexp(phi, -phi).sum(axis=1)).mean())


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


def data_phase(model, data_batch):
    """The data part of the NLL gradient: minus the data-phase average."""
    data_batch = check_spins(data_batch, model.n_v, "data_batch")
    n_d = data_batch.shape[0]
    return _moments(model, data_batch, np.full(n_d, -1.0 / n_d))


def add_model_phase(model, data_part, model_batch):
    """The stochastic NLL gradient from its data part (data_phase): plus the
    model-phase average, each model row weighing 1/n_m, its two row halves
    on the two workers, added in a fixed order.  The returned direction
    ascends the NLL; the optimizer subtracts it."""
    model_batch = check_spins(model_batch, model.n_v, "model_batch")
    n_m = model_batch.shape[0]
    weights = np.full(n_m, 1.0 / n_m)
    grads = data_part
    for part in split_rows(
            lambda lo, hi: _moments(model, model_batch[lo:hi], weights[lo:hi]),
            n_m):
        grads = GradientPair(d_b=grads.d_b + part.d_b,
                             d_W=grads.d_W + part.d_W)
    return grads


def exact_nll_gradient(model, data_batch):
    """NLL gradient with the model phase exact over the hidden states
    (_exact_hidden_table): E[v] = sum_h p(h) tanh(f) and
    E[(v - mu) h^T] = sum_h p(h) (tanh(f) - mu) h^T."""
    data_part = data_phase(model, data_batch)
    H, t, p, _ = _exact_hidden_table(model)
    d_b = p @ t
    t -= model.mu
    return GradientPair(d_b=data_part.d_b + d_b,
                        d_W=data_part.d_W + t.T @ (p[:, None] * H))
