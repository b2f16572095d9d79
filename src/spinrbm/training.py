"""CD-0 training loop with Adam, plus binary checkpointing.

The negative phase never starts from data in the default mode: every
minibatch draws a fresh batch from belief generation with zero Gibbs
refinement.  A conventional CD-k-from-data mode is kept as a baseline.
"""

import json
import math
import struct
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import DataStats, Dataset, minibatches
from .io_util import atomic_write_bytes
from .metrics import MetricsRecord, energy_coefficient, recon_error
from .model import RbmModel, nll_gradient
from .sampling import belief_generate, gibbs_steps, make_rng

CHECKPOINT_MAGIC = b"RBM0"
CHECKPOINT_VERSION = 1

NEGATIVE_MODES = ("belief_cd0", "cd_k_from_data")

# rng stream tags, disjoint across the pipeline
_STREAM_INIT = 0xA1
_STREAM_NEG = 0xA2
_STREAM_METRIC = 0xA3
_STREAM_SPLIT = 0xA4


@dataclass(frozen=True)
class TrainConfig:
    n_hidden: int = 512
    epochs: int = 300
    batch_size: int = 1024
    learning_rate: float = 1e-3
    init_std: float = 0.1
    seed: int = 0
    negative_mode: str = "belief_cd0"
    k: int = 1
    binarize_threshold: float = 0.5
    eval_every: int = 1
    eval_batch: int = 1024

    def __post_init__(self):
        if min(self.n_hidden, self.epochs + 1, self.batch_size,
               self.eval_every, self.eval_batch) < 1:
            raise ValueError("counts must be >= 1 (epochs >= 0)")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0, "
                             f"got {self.learning_rate}")
        if not 0 <= self.init_std < math.inf:
            raise ValueError(f"init_std must be finite and >= 0, got {self.init_std}")
        if self.negative_mode not in NEGATIVE_MODES:
            raise ValueError(f"negative_mode must be one of {NEGATIVE_MODES}")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        make_rng(self.seed)  # rejects a seed outside [0, 2**64)


@dataclass
class AdamState:
    m_b: np.ndarray
    m_W: np.ndarray
    v_b: np.ndarray
    v_W: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros(cls, n_v, n_h, **kwargs):
        return cls(m_b=np.zeros(n_v), m_W=np.zeros((n_v, n_h)),
                   v_b=np.zeros(n_v), v_W=np.zeros((n_v, n_h)), **kwargs)


class TrainingDiverged(RuntimeError):
    """Non-finite gradient or metric; carries the last finite model, the Adam
    state that goes with it, and the metrics logged so far."""

    def __init__(self, message, model, adam, metrics):
        super().__init__(message)
        self.model = model
        self.adam = adam
        self.metrics = metrics


def init_model(n_v, n_h, init_std, mu, seed):
    """Fresh model: W ~ N(0, init_std^2), b = 0, mu fixed from data stats."""
    rng = make_rng(seed, _STREAM_INIT)
    W = rng.normal(0.0, init_std, size=(n_v, n_h)) if init_std > 0 else np.zeros((n_v, n_h))
    return RbmModel(W=W, b=np.zeros(n_v), mu=np.asarray(mu, dtype=np.float64))


def _adam_update(param, m, v, g, lr, b1, b2, eps, c1, c2):
    """Adam for one array: (param', m', v') from the formula in adam_step.

    Each floating-point operation and its order are the formula's; only
    the temporaries are reused.  The inputs are never written to.
    """
    m_new = np.multiply(m, b1)
    tmp = np.multiply(g, 1 - b1)
    m_new += tmp                          # b1 m + (1 - b1) g
    v_new = np.square(g)
    v_new *= 1 - b2
    v_new += np.multiply(v, b2, out=tmp)  # b2 v + (1 - b2) g^2
    np.divide(v_new, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    step = np.divide(m_new, c1)
    step *= lr
    step /= tmp                           # lr (m / c1) / (sqrt(v / c2) + eps)
    return np.subtract(param, step, out=step), m_new, v_new


def adam_step(state, grads, lr, params):
    """One Adam update of params = (b, W); returns new params and state.

    m' = b1 m + (1 - b1) g, v' = b2 v + (1 - b2) g^2 and
    p' = p - lr (m' / c1) / (sqrt(v' / c2) + eps), c_i = 1 - b_i^t.
    """
    b, W = params
    if not (np.all(np.isfinite(grads.d_b)) and np.all(np.isfinite(grads.d_W))):
        raise FloatingPointError("non-finite gradient")
    t = state.t + 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1 - b1 ** t
    c2 = 1 - b2 ** t
    new_b, m_b, v_b = _adam_update(b, state.m_b, state.v_b, grads.d_b,
                                   lr, b1, b2, eps, c1, c2)
    new_W, m_W, v_W = _adam_update(W, state.m_W, state.v_W, grads.d_W,
                                   lr, b1, b2, eps, c1, c2)
    new_state = AdamState(m_b=m_b, m_W=m_W, v_b=v_b, v_W=v_W, t=t,
                          beta1=b1, beta2=b2, eps=eps)
    return (new_b, new_W), new_state


def holdout_size(n, config):
    """Rows of the held-out fold of an n-row dataset.

    Raises ValueError when the training split left over is smaller than
    one batch.
    """
    n_hold = min(config.eval_batch, n // 10)
    if n - n_hold < config.batch_size:
        raise ValueError(
            f"training split holds {n - n_hold} rows after the held-out "
            f"fold, fewer than batch_size {config.batch_size}")
    return n_hold


def _split_holdout(dataset, config):
    """Deterministic held-out fold for metric logging (never trained on)."""
    n_hold = holdout_size(dataset.n, config)
    if n_hold == 0:
        return dataset, dataset.spins  # tiny dataset: log metrics on train data
    order = make_rng(config.seed, _STREAM_SPLIT).permutation(dataset.n)
    hold = dataset.spins[order[:n_hold]]
    train = Dataset(spins=dataset.spins[order[n_hold:]])
    return train, hold


def _negative_batch(model, stats, data_batch, config, rng):
    if config.negative_mode == "belief_cd0":
        return belief_generate(model, stats, data_batch.shape[0], rng)
    return gibbs_steps(model, data_batch, config.k, rng)


def train(dataset, stats, config, on_epoch=None):
    """Train an RBM; returns (model, metrics history).

    Positive phase from each data minibatch; negative phase from belief
    generation (CD-0) or k Gibbs sweeps off the data batch, per config.
    Metrics are logged on a held-out fold every eval_every epochs.
    ``on_epoch(model, adam_state, record)`` is invoked at each logged epoch.
    """
    train_set, holdout = _split_holdout(dataset, config)
    model = init_model(dataset.n_v, config.n_hidden, config.init_std,
                       stats.mu, config.seed)
    adam = AdamState.zeros(dataset.n_v, config.n_hidden)
    metrics = []
    t0 = time.perf_counter()

    for epoch in range(1, config.epochs + 1):
        for i, batch in enumerate(minibatches(train_set, config.batch_size,
                                              config.seed, epoch)):
            neg_rng = make_rng(config.seed, _STREAM_NEG, epoch, i)
            neg = _negative_batch(model, stats, batch, config, neg_rng)
            grads = nll_gradient(model, batch, neg)
            try:
                (b, W), adam = adam_step(adam, grads, config.learning_rate,
                                         (model.b, model.W))
            except FloatingPointError as exc:
                raise TrainingDiverged(
                    f"epoch {epoch} batch {i}: {exc}", model, adam, metrics) from exc
            model = replace(model, b=b, W=W)

        if epoch % config.eval_every == 0 or epoch == config.epochs:
            record = _evaluate(model, stats, holdout, config, epoch, t0)
            if not (np.isfinite(record.energy_coefficient)
                    and np.isfinite(record.recon_error)):
                raise TrainingDiverged(
                    f"epoch {epoch}: non-finite metric", model, adam, metrics)
            metrics.append(record)
            if on_epoch is not None:
                on_epoch(model, adam, record)

    return model, metrics


def _evaluate(model, stats, holdout, config, epoch, t0):
    rng = make_rng(config.seed, _STREAM_METRIC, epoch)
    n = min(config.eval_batch, holdout.shape[0])
    data_batch = holdout[:n]
    gen = belief_generate(model, stats, n, rng)
    coeff = energy_coefficient(data_batch, gen)
    err = recon_error(model, data_batch, rng)
    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    return MetricsRecord(epoch=epoch, energy_coefficient=coeff,
                         recon_error=err, wall_ms=wall_ms)


def _pack_array(arr):
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _unpack(fmt, buf, offset):
    end = offset + struct.calcsize(fmt)
    if end > len(buf):
        raise ValueError(f"checkpoint truncated at offset {offset}")
    return struct.unpack_from(fmt, buf, offset), end


def _unpack_array(buf, offset, shape):
    end = offset + 8 * math.prod(shape)
    if end > len(buf):
        raise ValueError(f"checkpoint truncated at offset {offset}")
    arr = np.frombuffer(buf[offset:end], dtype="<f8").reshape(shape).copy()
    return arr, end


def save_checkpoint(model, adam_state, config, stats, path):
    """Serialize model + optimizer + config to the binary checkpoint format.

    Layout: magic "RBM0", version u32, (n_v, n_h, r) u32, little-endian
    float64 arrays b, W, mu, Q, then Adam state (t u64, beta1/beta2/eps
    f64, m_b, m_W, v_b, v_W), then a length-prefixed JSON config echo.
    Round-trips bit-exactly.
    """
    n_v, n_h = model.n_v, model.n_h
    r = stats.Q.shape[1]
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<IIII", CHECKPOINT_VERSION, n_v, n_h, r),
             _pack_array(model.b), _pack_array(model.W),
             _pack_array(model.mu), _pack_array(stats.Q),
             struct.pack("<Qddd", adam_state.t, adam_state.beta1,
                         adam_state.beta2, adam_state.eps),
             _pack_array(adam_state.m_b), _pack_array(adam_state.m_W),
             _pack_array(adam_state.v_b), _pack_array(adam_state.v_W)]
    config_json = json.dumps(config.__dict__, sort_keys=True).encode()
    parts.append(struct.pack("<I", len(config_json)))
    parts.append(config_json)
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (model, adam_state, config, stats).

    Every malformed input raises ValueError naming the file, and the byte
    offset or config key at fault.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _parse_checkpoint(buf)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_checkpoint(buf):
    if buf[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {buf[:4]!r}")
    (version, n_v, n_h, r), off = _unpack("<IIII", buf, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if min(n_v, n_h) < 1:
        raise ValueError(f"empty layer (n_v {n_v}, n_h {n_h}) at offset 8")
    b, off = _unpack_array(buf, off, (n_v,))
    W, off = _unpack_array(buf, off, (n_v, n_h))
    mu, off = _unpack_array(buf, off, (n_v,))
    Q, off = _unpack_array(buf, off, (n_v, r))
    (t, beta1, beta2, eps), off = _unpack("<Qddd", buf, off)
    m_b, off = _unpack_array(buf, off, (n_v,))
    m_W, off = _unpack_array(buf, off, (n_v, n_h))
    v_b, off = _unpack_array(buf, off, (n_v,))
    v_W, off = _unpack_array(buf, off, (n_v, n_h))
    (json_len,), off = _unpack("<I", buf, off)
    if off + json_len != len(buf):
        raise ValueError(f"config block size mismatch at offset {off}")
    config = _parse_config(buf[off:off + json_len])
    model = RbmModel(W=W, b=b, mu=mu)
    adam = AdamState(m_b=m_b, m_W=m_W, v_b=v_b, v_W=v_W, t=t,
                     beta1=beta1, beta2=beta2, eps=eps)
    stats = DataStats(mu=mu, Q=Q)
    return model, adam, config, stats


def _parse_config(blob):
    fields = json.loads(blob.decode())
    if not isinstance(fields, dict):
        raise ValueError("checkpoint config is not a JSON object")
    known = TrainConfig.__dataclass_fields__
    for key in fields:
        if key not in known:
            raise ValueError(f"unknown checkpoint config key {key!r}")
    try:
        return TrainConfig(**fields)
    except TypeError as exc:  # a value of the wrong type
        raise ValueError(f"bad checkpoint config: {exc}") from exc
