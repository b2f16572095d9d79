"""Block Gibbs kernels and the belief-generation approximate sampler.

All randomness flows through make_rng: SFC64 Generators keyed by a numpy
SeedSequence, so every sampler is reproducible from (seed, inputs) and
distinct (seed, stream...) keys give independent streams.

The samplers compute in float32 from start to finish: their output is
spins, and float32 moves each spin probability by rounding only (~6e-8).
The gradient, the optimizer, the metrics and the exact oracles in model.py
stay float64.
"""

import numpy as np

from .model import check_spins


def draw_spins(phi, u):
    """Sample +/-1 spins from independent logistic conditionals.

    phi : array of local fields; float32 stays float32, any other dtype is
          taken as float64.
    u   : array of the same shape, uniform variates in [0, 1).

    Returns an int8 array: +1 where u < sigma(2*phi), else -1.  The factor
    of 2 comes from P(s=+1)/P(s=-1) = exp(2*phi) for +/-1 units.
    sigma(2*phi) is computed in the dtype of phi and compared with u as
    given: a float64 u against a float32 phi is compared in float64, with
    the float32 probability widened exactly.
    """
    phi = np.asarray(phi)
    if phi.dtype != np.float32:
        phi = phi.astype(np.float64, copy=False)
    u = np.asarray(u)
    if phi.shape != u.shape:
        raise ValueError(f"shape mismatch: phi {phi.shape} vs u {u.shape}")
    # sigma(2 phi) = 1 / (1 + exp(-2 phi)), computed in one buffer; exp
    # overflows to inf for phi below -44 (float32) or -354 (float64), which
    # gives the correct limit p = 0
    p_plus = np.multiply(phi, -2.0, out=np.empty(phi.shape, phi.dtype))
    with np.errstate(over="ignore"):
        np.exp(p_plus, out=p_plus)
    p_plus += 1.0
    np.divide(1.0, p_plus, out=p_plus)
    spins = np.less(u, p_plus).view(np.int8)
    spins += spins  # {0, 1} -> {-1, +1}
    spins -= 1
    return spins


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

    The field W^T (v - mu) and the uniforms are float32.
    """
    v = np.atleast_2d(check_spins(v_batch, model.n_v, "v"))
    vc = v.astype(np.float32)
    vc -= model.mu.astype(np.float32)
    phi = vc @ model.W32
    return draw_spins(phi, rng.random(phi.shape, dtype=np.float32))


def sample_visible(model, h_batch, rng):
    """Draw v ~ p(v|h) for each row: v_j = +1 w.p. sigma(2 (b + W h)_j).

    The field b + W h and the uniforms are float32.
    """
    h = np.atleast_2d(check_spins(h_batch, model.n_h, "h"))
    field = h.astype(np.float32) @ model.W32.T
    field += model.b.astype(np.float32)
    return draw_spins(field, rng.random(field.shape, dtype=np.float32))


def gibbs_steps(model, v0, k, rng):
    """k full block-Gibbs sweeps (h|v then v|h); k=0 returns v0 unchanged."""
    if k < 0:
        raise ValueError("k must be >= 0")
    v = np.atleast_2d(check_spins(v0, model.n_v, "v0"))
    for _ in range(k):
        h = sample_hidden(model, v, rng)
        v = sample_visible(model, h, rng)
    return v


def sample_phi(model, stats, batch, rng):
    """Draw hidden fields phi ~ N(0, W^T Sigma W), one float32 row per sample.

    With A = Q^T W the covariance is C = A^T A = W^T Sigma W (Q Q^T = Sigma),
    an n_h x n_h matrix; phi = z L^T with z ~ N(0, I_{n_h}) and L L^T = C.
    L is the Cholesky factor, or V sqrt(max(lambda, 0)) from the
    eigendecomposition when C is singular (zero weights, a zero-width Q,
    or n_h > rank Sigma).  A, C, z and phi are float32; only the factoring
    of C runs in float64.
    """
    if stats is None:
        raise ValueError("data statistics with a covariance factor Q required")
    Q = stats.Q32
    if Q.shape[0] != model.n_v:
        raise ValueError(
            f"Q rows {Q.shape[0]} do not match model n_v {model.n_v}")
    A = Q.T @ model.W32
    C = (A.T @ A).astype(np.float64)
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        lam, V = np.linalg.eigh(C)
        L = V * np.sqrt(np.maximum(lam, 0.0))
    z = rng.standard_normal((batch, model.n_h), dtype=np.float32)
    return z @ L.T.astype(np.float32)


def belief_generate(model, stats, batch, rng):
    """Approximate model samples in one backward pass.

    Step 1: phi ~ N(0, W^T Sigma W), drawn in n_h dimensions.
    Step 2: h_i = +1 w.p. sigma(2 phi_i).
    Step 3: v ~ p(v|h).
    Refine with gibbs_steps, or walk a chain with gibbs_chain.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    phi = sample_phi(model, stats, batch, rng)
    h = draw_spins(phi, rng.random(phi.shape, dtype=np.float32))
    return sample_visible(model, h, rng)


def gibbs_chain(model, stats, batch, steps, rng):
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
    return _walk_chain(model, stats, batch, steps, rng)


def _walk_chain(model, stats, batch, steps, rng):
    v = belief_generate(model, stats, batch, rng)
    done = 0
    for k in steps:
        v = gibbs_steps(model, v, k - done, rng)
        done = k
        yield k, v
