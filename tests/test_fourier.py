import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsav.fourier import apply_multipliers, forward_values, half_inner, inverse_values
from expsav.grids import (Field, GridSpec, fd_laplacian_eigenvalues, make_grid,
                          spectral_laplacian_eigenvalues)

import oracles
from oracles import norm_l2


def test_constant_field_is_mode_zero():
    g = make_grid(0, 1, 8, 1)
    coeffs = forward_values(np.full(8, 3.0 + 0j), g)
    assert coeffs[0] == pytest.approx(24.0)  # unnormalized forward transform
    np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-13)


def test_roundtrip_random():
    rng = np.random.default_rng(1)
    g = make_grid(0, 1, 64, 1)
    u = rng.normal(size=64) + 1j * rng.normal(size=64)
    back = inverse_values(forward_values(u, g), g)
    np.testing.assert_allclose(back, u, atol=1e-13)


def test_matches_naive_dft():
    rng = np.random.default_rng(2)
    g = make_grid(0, 1, 8, 1)
    u = rng.normal(size=8) + 1j * rng.normal(size=8)
    np.testing.assert_allclose(forward_values(u, g), oracles.naive_dft(u), atol=1e-12)


def test_roundtrip_2d():
    rng = np.random.default_rng(3)
    g = make_grid(0, 1, 8, 2)
    u = rng.normal(size=64) + 1j * rng.normal(size=64)
    back = inverse_values(forward_values(u, g), g)
    np.testing.assert_allclose(back, u, atol=1e-13)


def test_apply_identity():
    rng = np.random.default_rng(4)
    g = make_grid(0, 1, 16, 1)
    u = rng.normal(size=16)
    out = apply_multipliers(u, np.ones(16), g)
    np.testing.assert_allclose(out, u, atol=1e-13)  # imaginary residue included


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 4)])
def test_apply_fd_multipliers_is_stencil(dim, n):
    rng = np.random.default_rng(5)
    g = make_grid(-1, 1, n, dim)
    u = rng.normal(size=g.size)
    out = apply_multipliers(u, fd_laplacian_eigenvalues(g), g)
    dense = oracles.dense_fd_laplacian(g)
    np.testing.assert_allclose(out, dense @ u, atol=1e-11)


def test_apply_spectral_on_sine():
    g = make_grid(0, 2 * np.pi, 32, 1)
    x = g.axis_nodes(0)
    out = apply_multipliers(np.sin(x), spectral_laplacian_eigenvalues(g), g)
    np.testing.assert_allclose(out, -np.sin(x), atol=1e-12)


def test_parseval():
    rng = np.random.default_rng(6)
    g = make_grid(-2, 2, 32, 1)
    u = Field(g, rng.normal(size=32) + 1j * rng.normal(size=32))
    node_sq = norm_l2(u) ** 2
    coeffs = forward_values(u.values, g)
    mode_sq = g.cell * np.sum(np.abs(coeffs) ** 2) / g.size
    assert node_sq == pytest.approx(mode_sq, rel=1e-12)


HALF_LAYOUTS = [make_grid(0, 1, 16, 1), make_grid(0, 1, 2, 1),
                GridSpec(a=(0.0, 0.0), b=(1.0, 2.0), n=(4, 6)),
                GridSpec(a=(0.0, 0.0), b=(1.0, 2.0), n=(6, 2))]
layout_ids = lambda g: "x".join(map(str, g.n))


@pytest.mark.parametrize("g", HALF_LAYOUTS, ids=layout_ids)
def test_real_input_gives_half_spectrum(g):
    rng = np.random.default_rng(9)
    u = rng.normal(size=g.size)
    full = forward_values(u.astype(complex), g).reshape(g.shape)
    half = forward_values(u, g)
    assert half.size == g.size // g.n[-1] * (g.n[-1] // 2 + 1)
    np.testing.assert_allclose(half, full[..., : g.n[-1] // 2 + 1].ravel(), atol=1e-12)


@pytest.mark.parametrize("g", HALF_LAYOUTS[::2], ids=layout_ids)
def test_real_roundtrip_is_real(g):
    # a last axis of 2 nodes keeps the full spectrum and inverts complex
    u = np.random.default_rng(10).normal(size=g.size)
    back = inverse_values(forward_values(u, g), g)
    assert back.dtype == np.float64
    np.testing.assert_allclose(back, u, atol=1e-13)


@pytest.mark.parametrize("g", HALF_LAYOUTS, ids=layout_ids)
def test_half_inner_is_parseval(g):
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=g.size), rng.normal(size=g.size)
    physical = g.cell * float(np.sum(a * b))
    spectral = half_inner(forward_values(a, g), forward_values(b, g), g)
    assert spectral == pytest.approx(physical, rel=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31 - 1))
def test_apply_is_linear(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(0, 1, 16, 1)
    d = rng.normal(size=16) + 1j * rng.normal(size=16)
    u = rng.normal(size=16) + 1j * rng.normal(size=16)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    alpha, beta = rng.normal(), rng.normal()
    lhs = apply_multipliers(alpha * u + beta * v, d, g)
    rhs = alpha * apply_multipliers(u, d, g) + beta * apply_multipliers(v, d, g)
    scale = np.max(np.abs(rhs)) + 1.0
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31 - 1))
def test_apply_composes(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(0, 1, 16, 1)
    m1 = rng.normal(size=16) + 1j * rng.normal(size=16)
    m2 = rng.normal(size=16) + 1j * rng.normal(size=16)
    u = rng.normal(size=16) + 1j * rng.normal(size=16)
    once = apply_multipliers(u, m1 * m2, g)
    twice = apply_multipliers(apply_multipliers(u, m2, g), m1, g)
    scale = np.max(np.abs(once)) + 1.0
    np.testing.assert_allclose(twice, once, atol=1e-12 * scale)


def test_apply_grid_mismatch():
    g = make_grid(0, 1, 16, 1)
    with pytest.raises(ValueError, match="8 values for 16 nodes"):
        apply_multipliers(np.zeros(8), np.ones(16), g)
