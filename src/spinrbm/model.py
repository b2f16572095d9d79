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

# exact_nll refuses models beyond this many total units (~16M joint states)
ENUMERATION_LIMIT = 24

_ENUM_CHUNK = 1 << 16

_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class RbmModel:
    """Immutable RBM parameters: couplings W (n_v x n_h), visible bias b,
    centering vector mu.  mu is fixed data statistics, never trained."""

    W: np.ndarray
    b: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError(f"W must be a matrix, got shape {W.shape}")
        n_v, n_h = W.shape
        if b.shape != (n_v,):
            raise ValueError(f"b shape {b.shape} inconsistent with W {W.shape}")
        if mu.shape != (n_v,):
            raise ValueError(f"mu shape {mu.shape} inconsistent with W {W.shape}")
        for name, arr in (("W", W), ("b", b), ("mu", mu)):
            check_float32_range(arr, name)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mu", mu)

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
    range: the samplers cast W, b, mu and Q to float32."""
    # NaN fails the comparisons too; an empty array passes
    if arr.size and not -_F32_MAX <= arr.min() <= arr.max() <= _F32_MAX:
        raise ValueError(f"{name} entries must be finite and within float32 range")


def check_spins(arr, n_units=None, name="batch"):
    """Validate a +/-1 spin array and return it as int8 (copies only if needed)."""
    arr = np.asarray(arr)
    if arr.ndim == 0:
        raise ValueError(f"{name}: expected an array of spins, got a scalar")
    if n_units is not None and arr.shape[-1] != n_units:
        raise ValueError(f"{name}: expected {n_units} units, got shape {arr.shape}")
    if not np.all(np.abs(arr) == 1):
        raise ValueError(f"{name}: entries must be exactly -1 or +1")
    return arr.astype(np.int8, copy=False)


def visible_field(model, h):
    """Field b + W h acting on the visible units; p(v_j=+1|h) = sigma(2 field_j)."""
    h = check_spins(h, model.n_h, "h")
    field = h @ model.W.T
    field += model.b
    return field


def _all_spin_states(n):
    """All 2^n spin vectors of length n as an int8 matrix (2^n x n)."""
    states = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1)
    return (2 * states - 1).astype(np.int8)


def _guard_enumeration(model):
    total = model.n_v + model.n_h
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration refused: n_v + n_h = {total} exceeds "
            f"limit {ENUMERATION_LIMIT}")


def _log_unnorm_visible(model, v_batch):
    """log sum_h exp(-U(v, h)) per row, by explicit summation over all
    hidden states with log-sum-exp (chunked over rows)."""
    H = _all_spin_states(model.n_h).astype(np.float64)
    vc = v_batch.astype(np.float64) - model.mu
    lin = vc @ model.b
    out = np.empty(v_batch.shape[0])
    for lo in range(0, v_batch.shape[0], _ENUM_CHUNK):
        hi = min(lo + _ENUM_CHUNK, v_batch.shape[0])
        scores = (vc[lo:hi] @ model.W) @ H.T
        m = scores.max(axis=1)
        out[lo:hi] = lin[lo:hi] + m + np.log(
            np.exp(scores - m[:, None]).sum(axis=1))
    return out


def log_partition(model):
    """log Z by enumeration of all joint states (guarded by total unit count)."""
    _guard_enumeration(model)
    V = _all_spin_states(model.n_v)
    log_num = _log_unnorm_visible(model, V)
    m = log_num.max()
    return float(m + np.log(np.exp(log_num - m).sum()))


def exact_nll(model, dataset):
    """Average negative log-likelihood -<log p(v)> over the dataset rows,
    by exact enumeration.  Tiny models only (n_v + n_h <= 24)."""
    _guard_enumeration(model)
    dataset = check_spins(dataset, model.n_v, "dataset")
    dataset = np.atleast_2d(dataset)
    if dataset.shape[0] == 0:
        raise ValueError("empty dataset")
    log_z = log_partition(model)
    log_p = _log_unnorm_visible(model, dataset) - log_z
    return float(-log_p.mean())


def exact_visible_marginal(model):
    """Exact p(v) over all 2^n_v visible states, indexed like _all_spin_states."""
    _guard_enumeration(model)
    V = _all_spin_states(model.n_v)
    log_num = _log_unnorm_visible(model, V)
    log_num -= log_num.max()
    p = np.exp(log_num)
    return p / p.sum()


def _phase_moments(v_batch, weights, model):
    """Weighted statistics (sum w v, sum w (v-mu) tanh(phi)^T) over the rows."""
    vc = v_batch.astype(np.float64)
    mean_v = weights @ vc
    vc -= model.mu
    t = vc @ model.W
    np.tanh(t, out=t)
    # weight the (usually narrower) hidden side: rows x n_h, not rows x n_v
    t *= weights[:, None]
    return mean_v, vc.T @ t


def nll_gradient(model, data_batch, model_batch):
    """Stochastic NLL gradient: model-phase average minus data-phase average.

    Derived from U: dU/db = -(v - mu), dU/dW = -(v - mu) h^T with h
    marginalized to tanh(W^T (v - mu)).  The returned direction ascends the
    NLL; the optimizer subtracts it.
    """
    data_batch = np.atleast_2d(check_spins(data_batch, model.n_v, "data_batch"))
    model_batch = np.atleast_2d(check_spins(model_batch, model.n_v, "model_batch"))
    if data_batch.shape[0] == 0 or model_batch.shape[0] == 0:
        raise ValueError("empty batch")
    n_d, n_m = data_batch.shape[0], model_batch.shape[0]
    # one pass over both phases: data rows weigh -1/n_d, model rows +1/n_m
    weights = np.concatenate([np.full(n_d, -1.0 / n_d), np.full(n_m, 1.0 / n_m)])
    d_b, d_W = _phase_moments(np.concatenate([data_batch, model_batch]),
                              weights, model)
    return GradientPair(d_b=d_b, d_W=d_W)


def exact_nll_gradient(model, data_batch):
    """NLL gradient with the model phase computed by exact enumeration
    (weights p(v) over all visible states).  Tiny models only."""
    _guard_enumeration(model)
    data_batch = np.atleast_2d(check_spins(data_batch, model.n_v, "data_batch"))
    if data_batch.shape[0] == 0:
        raise ValueError("empty batch")
    w_d = np.full(data_batch.shape[0], 1.0 / data_batch.shape[0])
    v_d, o_d = _phase_moments(data_batch, w_d, model)
    V = _all_spin_states(model.n_v)
    p = exact_visible_marginal(model)
    v_m, o_m = _phase_moments(V, p, model)
    return GradientPair(d_b=v_m - v_d, d_W=o_m - o_d)
