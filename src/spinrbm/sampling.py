"""Block Gibbs kernels and the belief-generation approximate sampler.

All randomness flows through numpy Generators backed by the Philox
counter-based bit generator, so every sampler is reproducible from
(seed, inputs) and independent streams are cheap to derive.
"""

import numpy as np

from .model import check_spins, hidden_field, visible_field


def draw_spins(phi, u):
    """Sample +/-1 spins from independent logistic conditionals.

    phi : float64 array, local fields.
    u   : float64 array of the same shape, uniform variates in [0, 1).

    Returns an int8 array: +1 where u < sigma(2*phi), else -1.  The factor
    of 2 comes from P(s=+1)/P(s=-1) = exp(2*phi) for +/-1 units.
    """
    phi = np.asarray(phi, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if phi.shape != u.shape:
        raise ValueError(f"shape mismatch: phi {phi.shape} vs u {u.shape}")
    # sigma(2 phi) = 1 / (1 + exp(-2 phi)), computed in one buffer
    p_plus = np.multiply(phi, -2.0, out=np.empty(phi.shape))
    np.exp(p_plus, out=p_plus)
    p_plus += 1.0
    np.divide(1.0, p_plus, out=p_plus)
    spins = np.less(u, p_plus).view(np.int8)
    spins += spins  # {0, 1} -> {-1, +1}
    spins -= 1
    return spins


def make_rng(seed, *stream):
    """Deterministic Generator for a (seed, stream...) key.

    Philox keys are 128-bit; the stream ids are folded into the upper word
    so distinct lanes never share a counter sequence.
    """
    key = int(seed) & 0xFFFFFFFFFFFFFFFF
    for part in stream:
        key = (key * 0x9E3779B97F4A7C15 + int(part) + 1) & ((1 << 128) - 1)
    return np.random.Generator(np.random.Philox(key=key))


def sample_hidden(model, v_batch, rng):
    """Draw h ~ p(h|v) for each row: h_i = +1 w.p. sigma(2 phi_i)."""
    phi = hidden_field(model, np.atleast_2d(np.asarray(v_batch)))
    u = rng.random(phi.shape)
    return draw_spins(phi, u)


def sample_visible(model, h_batch, rng):
    """Draw v ~ p(v|h) for each row: v_j = +1 w.p. sigma(2 (b + W h)_j)."""
    field = visible_field(model, np.atleast_2d(np.asarray(h_batch)))
    u = rng.random(field.shape)
    return draw_spins(field, u)


def gibbs_steps(model, v0, k, rng):
    """k full block-Gibbs sweeps (h|v then v|h); k=0 returns v0 unchanged."""
    if k < 0:
        raise ValueError("k must be >= 0")
    v = check_spins(np.atleast_2d(np.asarray(v0)), model.n_v, "v0")
    for _ in range(k):
        h = sample_hidden(model, v, rng)
        v = sample_visible(model, h, rng)
    return v


def sample_phi(model, stats, batch, rng):
    """Draw hidden fields phi ~ N(0, W^T Sigma W), one row per sample.

    With A = Q^T W the covariance is C = A^T A = W^T Sigma W (Q Q^T = Sigma),
    an n_h x n_h matrix; phi = z L^T with z ~ N(0, I_{n_h}) and L L^T = C.
    L is the Cholesky factor, or V sqrt(max(lambda, 0)) from the
    eigendecomposition when C is singular (zero weights, a zero-width Q,
    or n_h > rank Sigma).
    """
    if stats is None or stats.Q is None:
        raise ValueError("data statistics with a covariance factor Q required")
    Q = stats.Q
    if Q.shape[0] != model.n_v:
        raise ValueError(
            f"Q rows {Q.shape[0]} do not match model n_v {model.n_v}")
    A = Q.T @ model.W
    C = A.T @ A
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        lam, V = np.linalg.eigh(C)
        L = V * np.sqrt(np.maximum(lam, 0.0))
    z = rng.standard_normal((batch, model.n_h))
    return z @ L.T


def belief_generate(model, stats, batch, rng, refine_k=0):
    """Approximate model samples in one backward pass.

    Step 1: phi ~ N(0, W^T Sigma W), drawn in n_h dimensions.
    Step 2: h_i = +1 w.p. sigma(2 phi_i).
    Step 3: v ~ p(v|h).
    Then refine_k optional Gibbs sweeps (0 during CD-0 training).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    phi = sample_phi(model, stats, batch, rng)
    h = draw_spins(phi, rng.random(phi.shape))
    v = sample_visible(model, h, rng)
    if refine_k:
        v = gibbs_steps(model, v, refine_k, rng)
    return v


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
