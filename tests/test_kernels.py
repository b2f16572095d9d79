import numpy as np
import pytest

from spinrbm import kernels
from spinrbm.kernels import draw_spins, draw_spins_python


def test_backend_reported():
    assert kernels.BACKEND in ("cython", "python")


def test_threshold_semantics():
    phi = np.array([[100.0, -100.0, 0.0]])
    u = np.array([[0.5, 0.5, 0.25]])
    for fn in (draw_spins, draw_spins_python):
        out = np.atleast_2d(fn(phi, u))
        # sigma(2*100) ~ 1 -> +1; sigma(-200) ~ 0 -> -1; u=0.25 < 0.5 -> +1
        assert out.tolist() == [[1, -1, 1]]
        assert out.dtype == np.int8


def test_backends_agree():
    gen = np.random.default_rng(0)
    phi = gen.normal(0, 2, (200, 50))
    u = gen.random((200, 50))
    assert np.array_equal(np.atleast_2d(draw_spins(phi, u)),
                          np.atleast_2d(draw_spins_python(phi, u)))


def test_matches_logistic_reference_exactly():
    # the kernel's in-place arithmetic must equal the plain expression bit
    # for bit, also where exp(-2 phi) overflows (phi = -400) or vanishes
    gen = np.random.default_rng(1)
    phi = gen.normal(0, 3, (300, 40))
    phi[:, :4] = [400.0, -400.0, 0.0, -0.0]
    u = gen.random(phi.shape)
    with np.errstate(over="ignore"):
        ref = np.where(u < 1 / (1 + np.exp(-2 * phi)), 1, -1)
        for fn in (draw_spins, draw_spins_python):
            out = np.atleast_2d(fn(phi, u))
            assert out.dtype == np.int8
            assert np.array_equal(out, ref)


def test_shape_mismatch_rejected():
    for fn in (draw_spins, draw_spins_python):
        with pytest.raises(ValueError):
            fn(np.zeros((2, 3)), np.zeros((2, 4)))


@pytest.mark.skipif(kernels.BACKEND != "cython",
                    reason="compiled backend not built")
def test_compiled_backend_active():
    from spinrbm.kernels import _spin_cy
    assert kernels.draw_spins is _spin_cy.draw_spins
