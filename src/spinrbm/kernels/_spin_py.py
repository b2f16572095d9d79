"""Numpy fallback for the spin-sampling kernel."""

import numpy as np


def draw_spins(phi, u):
    """Sample +/-1 spins from independent logistic conditionals.

    phi : float64 array, local fields.
    u   : float64 array of the same shape, uniform variates in [0, 1).

    Returns an int8 array: +1 where u < sigma(2*phi), else -1.
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
    return np.where(u < p_plus, np.int8(1), np.int8(-1))
