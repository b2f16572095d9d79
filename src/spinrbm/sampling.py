"""Block Gibbs kernels and the belief-generation approximate sampler.

All randomness flows through make_rng: SFC64 Generators keyed by a numpy
SeedSequence, so every sampler is reproducible from (seed, inputs) and
distinct (seed, stream...) keys give independent streams.

The samplers compute in float32 from start to finish: their output is
spins, and float32 moves each spin probability by rounding only (~6e-8).
draw_spins casts any field to float32, and one function raises each
"... overflows float32" error of a field or of W^T Sigma W.  The gradient,
the optimizer, the metrics and the exact oracles in model.py stay float64.
sample_phi needs the model's sigma to be a covariance (positive
semidefinite), and raises when W^T Sigma W shows it is not.
"""

import numpy as np

from . import workers
from .model import check_spins, spins_from_mask


def draw_spins(phi, u):
    """Sample +/-1 spins from independent logistic conditionals.

    phi : array of local fields, cast to float32; a field beyond float32
          range saturates to +/-inf and draws +/-1.
    u   : array of the same shape, uniform variates in [0, 1).

    Returns an int8 array: +1 where u < sigma(2*phi), else -1.  The factor
    of 2 comes from P(s=+1)/P(s=-1) = exp(2*phi) for +/-1 units.
    sigma(2*phi) is computed in float32 and compared with u as given: a
    float64 u is compared in float64, with the probability widened exactly.
    """
    u = np.asarray(u)
    # sigma(2 phi) = 1 / (1 + exp(-2 phi)), computed in one buffer; exp
    # overflows to inf for phi below -44, and -2 phi for |phi| beyond 1.7e38,
    # which gives the correct limits p = 0 and p = 1
    with np.errstate(over="ignore"):
        phi = np.asarray(phi, dtype=np.float32)
        if phi.shape != u.shape:
            raise ValueError(f"shape mismatch: phi {phi.shape} vs u {u.shape}")
        p_plus = np.multiply(phi, -2.0, out=np.empty(phi.shape, np.float32))
        np.exp(p_plus, out=p_plus)
    p_plus += 1.0
    np.divide(1.0, p_plus, out=p_plus)
    return spins_from_mask(np.less(u, p_plus))


def make_rng(seed, *stream):
    """Deterministic SFC64 Generator for a (seed, stream...) key.

    SeedSequence hashes the whole key, so distinct keys give independent
    streams.  The seed must lie in [0, 2**64) and each stream tag must be a
    non-negative int: any other is rejected, not wrapped.
    """
    if not 0 <= int(seed) < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=stream)))


def sample_hidden(model, v_batch, rng):
    """Draw h ~ p(h|v) for each row: h_i = +1 w.p. sigma(2 phi_i).

    The field W^T (v - mu) and the uniforms are float32; the field's row
    halves are formed on the two workers.  Raises ValueError when the field
    overflows float32.
    """
    v = check_spins(v_batch, model.n_v, "v")
    vc = v.astype(np.float32)
    vc -= model.mu.astype(np.float32)
    phi = workers.matmul(vc, model.W32)
    _check_finite(phi, "hidden field")
    return draw_spins(phi, rng.random(phi.shape, dtype=np.float32))


def sample_visible(model, h_batch, rng):
    """Draw v ~ p(v|h) for each row: v_j = +1 w.p. sigma(2 (b + W h)_j).

    The field b + W h and the uniforms are float32; the row halves of W h
    are formed on the two workers.  Raises ValueError when the field
    overflows float32.
    """
    h = check_spins(h_batch, model.n_h, "h")
    field = workers.matmul(h.astype(np.float32), model.W32.T)
    with np.errstate(over="ignore", invalid="ignore"):
        field += model.b.astype(np.float32)
    _check_finite(field, "visible field")
    return draw_spins(field, rng.random(field.shape, dtype=np.float32))


def _check_finite(arr, what):
    # entries within float32 range can still overflow their sums and products
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} overflows float32")


def gibbs_steps(model, v0, k, rng):
    """k full block-Gibbs sweeps (h|v then v|h); k=0 returns v0 unchanged."""
    if k < 0:
        raise ValueError("k must be >= 0")
    v = check_spins(v0, model.n_v, "v0")
    for _ in range(k):
        h = sample_hidden(model, v, rng)
        v = sample_visible(model, h, rng)
    return v


def sample_phi(model, batch, rng):
    """Draw batch float32 rows phi ~ N(0, W^T Sigma W), Sigma = model.stats.sigma.

    C = W^T (Sigma W) is n_h x n_h; phi = z L^T with z ~ N(0, I_{n_h}) and
    L L^T = C.  L is the Cholesky factor, or V sqrt(max(lambda, 0)) from
    the eigendecomposition when C is singular (zero weights, Sigma = 0, or
    n_h > rank Sigma).  Sigma W, C, z and phi are float32; only the
    factoring of C runs in float64, and reads C's lower triangle only.
    Raises ValueError when C overflows float32, or when the
    eigendecomposition finds an eigenvalue below -n_v eps32 times the
    largest (0 if none is positive): float32 rounding moves the eigenvalues
    of C less than that, so Sigma is no covariance.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        C = (model.W32.T @ (model.stats.sigma32 @ model.W32)).astype(np.float64)
    _check_finite(C, "covariance W^T Sigma W")
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        lam, V = np.linalg.eigh(C)
        if lam[0] < -model.n_v * np.finfo(np.float32).eps * max(lam[-1], 0.0):
            raise ValueError("sigma is not a covariance: W^T Sigma W has "
                             f"eigenvalue {lam[0]:.3g}, largest {lam[-1]:.3g}")
        L = V * np.sqrt(np.maximum(lam, 0.0))
    z = rng.standard_normal((batch, model.n_h), dtype=np.float32)
    return z @ L.T.astype(np.float32)


def belief_generate(model, batch, rng):
    """Approximate model samples in one backward pass.

    Step 1: phi ~ N(0, W^T Sigma W), drawn in n_h dimensions (sample_phi).
    Step 2: h_i = +1 w.p. sigma(2 phi_i).
    Step 3: v ~ p(v|h).
    Refine with gibbs_steps, or walk a chain with gibbs_chain.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    phi = sample_phi(model, batch, rng)
    h = draw_spins(phi, rng.random(phi.shape, dtype=np.float32))
    return sample_visible(model, h, rng)


def gibbs_chain(model, batch, steps, rng):
    """Walk belief-generated chains through ascending Gibbs step counts.

    Yields (k, v) for each k in steps, v being the batch after k block-Gibbs
    sweeps in total; a repeated k yields the same v again.  steps must be
    sorted ascending and nonnegative (checked before anything is drawn).
    The chain draws from rng only when advanced, so a caller may draw from
    rng between steps.
    """
    steps = list(steps)
    if steps != sorted(steps) or any(k < 0 for k in steps):
        raise ValueError(
            f"steps must be sorted ascending and nonnegative, got {steps}")
    return _walk_chain(model, batch, steps, rng)


def _walk_chain(model, batch, steps, rng):
    v = belief_generate(model, batch, rng)
    done = 0
    for k in steps:
        v = gibbs_steps(model, v, k - done, rng)
        done = k
        yield k, v
