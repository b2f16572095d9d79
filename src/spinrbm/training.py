"""CD-0 training loop with Adam, plus binary checkpointing.

The negative phase never starts from data in the default mode: every
minibatch draws a fresh batch from belief generation with zero Gibbs
refinement.  A conventional CD-k-from-data mode is kept as a baseline.
"""

import json
import math
import numbers
import struct
import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .data import DataStats, minibatches
from .io_util import atomic_write_bytes
from .metrics import MetricsRecord, energy_coefficient, recon_error
from .model import RbmModel, add_model_phase, check_spins, data_phase
from .sampling import belief_generate, gibbs_steps, make_rng
from .workers import pair

CHECKPOINT_MAGIC = b"RBM0"
CHECKPOINT_VERSION = 3

NEGATIVE_MODES = ("belief_cd0", "cd_k_from_data")

# rng stream tags, disjoint across the pipeline
_STREAM_INIT = 0xA1
_STREAM_NEG = 0xA2
_STREAM_METRIC = 0xA3
_STREAM_SPLIT = 0xA4

# the values an option of each default type takes, and its name in errors
_OPTION_KINDS = {int: (numbers.Integral, "an int"),
                 float: (numbers.Real, "a float"), str: (str, "a str")}


def check_option(name, value, default):
    """Raise a ValueError that begins with name unless value has the type
    of the option's default (str where the default is None): an int default
    takes any integer and a float default any real number, numpy's
    included, and a bool is never a value."""
    kind, noun = _OPTION_KINDS[str if default is None else type(default)]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {noun}, got {value!r}")


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
        # each error begins with the name of its field, for which rbm train
        # names the flag; a number is stored as a Python int or float, so
        # the config echo is JSON whatever numeric type came in
        for name, field in self.__dataclass_fields__.items():
            value = getattr(self, name)
            check_option(name, value, field.default)
            kind = type(field.default)
            try:
                object.__setattr__(self, name, kind(value))
            except OverflowError:  # an integer beyond float range
                raise ValueError(f"{name} must lie within float range, got "
                                 "a number beyond it") from None
        for name, least in (("n_hidden", 1), ("epochs", 0), ("batch_size", 1),
                            ("k", 0), ("eval_every", 1), ("eval_batch", 1)):
            if getattr(self, name) < least:
                raise ValueError(
                    f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0, "
                             f"got {self.learning_rate}")
        if not 0 <= self.init_std < math.inf:
            raise ValueError(f"init_std must be finite and >= 0, got {self.init_std}")
        if self.negative_mode not in NEGATIVE_MODES:
            raise ValueError(f"negative_mode must be one of {NEGATIVE_MODES}, "
                             f"got {self.negative_mode!r}")
        if not 0 < self.binarize_threshold < 1:  # NaN fails too
            raise ValueError("binarize_threshold must lie in (0, 1), "
                             f"got {self.binarize_threshold}")
        make_rng(self.seed)  # "seed must lie in [0, 2**64), ..."


@dataclass
class AdamState:
    m_b: np.ndarray
    m_W: np.ndarray
    v_b: np.ndarray
    v_W: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n_v, n_h):
        return cls(m_b=np.zeros(n_v), m_W=np.zeros((n_v, n_h)),
                   v_b=np.zeros(n_v), v_W=np.zeros((n_v, n_h)))


class TrainingDiverged(RuntimeError):
    """Non-finite gradient or metric, weights beyond float32 range, or a
    sampler covariance W^T Sigma W or Gibbs field that overflows float32;
    carries the last in-range model and the metrics logged so far."""

    def __init__(self, message, model, metrics):
        super().__init__(message)
        self.model = model
        self.metrics = metrics


def init_model(stats, config):
    """Fresh model on data with these stats: W ~ N(0, init_std^2), b = 0."""
    n_v = stats.mu.shape[0]
    rng = make_rng(config.seed, _STREAM_INIT)
    W = rng.normal(0.0, config.init_std, size=(n_v, config.n_hidden))
    return RbmModel(W=W, b=np.zeros(n_v), stats=stats)


# Adam hyperparameters (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
        raise ValueError("non-finite gradient")
    t = state.t + 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1 = 1 - b1 ** t
    c2 = 1 - b2 ** t
    new_b, m_b, v_b = _adam_update(b, state.m_b, state.v_b, grads.d_b,
                                   lr, b1, b2, eps, c1, c2)
    new_W, m_W, v_W = _adam_update(W, state.m_W, state.v_W, grads.d_W,
                                   lr, b1, b2, eps, c1, c2)
    new_state = AdamState(m_b=m_b, m_W=m_W, v_b=v_b, v_W=v_W, t=t)
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


def _split_holdout(spins, config):
    """Deterministic (train, held-out) row split; held-out rows log metrics only."""
    n_hold = holdout_size(len(spins), config)
    if n_hold == 0:
        return spins, spins  # tiny dataset: log metrics on train data
    order = make_rng(config.seed, _STREAM_SPLIT).permutation(len(spins))
    return spins[order[n_hold:]], spins[order[:n_hold]]


def _negative_batch(model, data_batch, config, rng):
    if config.negative_mode == "belief_cd0":
        return belief_generate(model, data_batch.shape[0], rng)
    return gibbs_steps(model, data_batch, config.k, rng)


def train(spins, model, config, on_epoch=None):
    """Train an RBM on spins from model (as init_model draws it); returns the
    trained model, which carries the same data statistics, and the metrics.

    Positive phase from each data minibatch; negative phase from belief
    generation (CD-0) or k Gibbs sweeps off the data batch, per config.
    Each step draws its negative batch on the worker thread while the
    caller forms the data phase, then forms the model phase in two row
    halves (spinrbm.workers).
    Metrics are logged on a held-out fold every eval_every epochs.
    ``on_epoch(record)`` is invoked at each logged epoch.
    """
    spins = check_spins(spins, name="spins")
    if model.W.shape != (spins.shape[1], config.n_hidden):
        raise ValueError(f"model W shape {model.W.shape} does not match "
                         f"(n_v, n_hidden) {(spins.shape[1], config.n_hidden)}")
    train_set, holdout = _split_holdout(spins, config)
    adam = AdamState.zeros(*model.W.shape)
    metrics = []
    t0 = time.perf_counter()

    for epoch in range(1, config.epochs + 1):
        for i, batch in enumerate(minibatches(train_set, config.batch_size,
                                              config.seed, epoch)):
            neg_rng = make_rng(config.seed, _STREAM_NEG, epoch, i)
            try:
                neg, data_part = pair(
                    lambda: _negative_batch(model, batch, config, neg_rng),
                    lambda: data_phase(model, batch))
                grads = add_model_phase(model, data_part, neg)
                (b, W), adam = adam_step(adam, grads, config.learning_rate,
                                         (model.b, model.W))
                model = replace(model, b=b, W=W)
            except ValueError as exc:
                # a sampler covariance or field that overflows float32, a
                # non-finite gradient, or a step that leaves float32 range
                raise TrainingDiverged(
                    f"epoch {epoch} batch {i}: {exc}", model, metrics) from exc

        if epoch % config.eval_every == 0 or epoch == config.epochs:
            try:
                record = _evaluate(model, holdout, config, epoch, t0)
            except ValueError as exc:  # a sampler covariance or field overflows
                raise TrainingDiverged(
                    f"epoch {epoch}: {exc}", model, metrics) from exc
            if not (np.isfinite(record.energy_coefficient)
                    and np.isfinite(record.recon_error)):
                raise TrainingDiverged(
                    f"epoch {epoch}: non-finite metric", model, metrics)
            metrics.append(record)
            if on_epoch is not None:
                on_epoch(record)

    return model, metrics


def _evaluate(model, holdout, config, epoch, t0):
    rng = make_rng(config.seed, _STREAM_METRIC, epoch)
    n = min(config.eval_batch, holdout.shape[0])
    data_batch = holdout[:n]
    gen = belief_generate(model, n, rng)
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
    count = math.prod(shape)
    end = offset + 8 * count
    if end > len(buf):
        raise ValueError(f"checkpoint truncated at offset {offset}")
    arr = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
    return arr.reshape(shape).copy(), end


def save_checkpoint(model, config, path):
    """Serialize the model, with its data statistics, and config to the
    binary checkpoint format.

    Layout: magic "RBM0", version u32, the CRC32 u32 of every byte after
    it, (n_v, n_h) u32, little-endian float64 arrays b, W, mu, sigma
    (n_v x n_v), then a length-prefixed JSON config echo.  Round-trips
    bit-exactly.
    """
    config_json = json.dumps(config.__dict__, sort_keys=True).encode()
    body = [struct.pack("<II", model.n_v, model.n_h),
            _pack_array(model.b), _pack_array(model.W),
            _pack_array(model.mu), _pack_array(model.stats.sigma),
            struct.pack("<I", len(config_json)), config_json]
    crc = 0
    for part in body:
        crc = zlib.crc32(part, crc)
    header = struct.pack("<II", CHECKPOINT_VERSION, crc)
    atomic_write_bytes(path, b"".join([CHECKPOINT_MAGIC, header, *body]))


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (model, config).

    Every malformed input raises ValueError naming the file, and the byte
    offset, config key or array at fault; bytes that change no size fail
    the checksum.
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
    (version, crc), off = _unpack("<II", buf, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (n_v, n_h), off = _unpack("<II", buf, off)
    if min(n_v, n_h) < 1:
        raise ValueError(f"empty layer (n_v {n_v}, n_h {n_h}) at offset 12")
    b, off = _unpack_array(buf, off, (n_v,))
    W, off = _unpack_array(buf, off, (n_v, n_h))
    mu, off = _unpack_array(buf, off, (n_v,))
    sigma, off = _unpack_array(buf, off, (n_v, n_v))
    (json_len,), off = _unpack("<I", buf, off)
    if off + json_len != len(buf):
        raise ValueError(f"config block size mismatch at offset {off}")
    if zlib.crc32(memoryview(buf)[12:]) != crc:
        raise ValueError(f"checksum mismatch: header holds {crc:08x}")
    config = _parse_config(buf[off:off + json_len])
    if config.n_hidden != n_h:
        raise ValueError(f"checkpoint config key 'n_hidden' is "
                         f"{config.n_hidden}, header n_h is {n_h}")
    return RbmModel(W=W, b=b, stats=DataStats(mu=mu, sigma=sigma)), config


def _parse_config(blob):
    fields = json.loads(blob.decode())
    if not isinstance(fields, dict):
        raise ValueError("checkpoint config is not a JSON object")
    known = TrainConfig.__dataclass_fields__
    for key in fields:
        if key not in known:
            raise ValueError(f"unknown checkpoint config key {key!r}")
    for key in known:
        if key not in fields:
            raise ValueError(f"missing checkpoint config key {key!r}")
    return TrainConfig(**fields)
