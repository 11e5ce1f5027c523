import numpy as np
import pytest

from expsav.diagnostics import convergence_orders, error_norms
from expsav.grids import Field, make_grid, sample


def test_error_zero_when_exact():
    grid = make_grid(0, 1, 16, 1)
    exact = lambda x, t: np.sin(2 * np.pi * x) * t
    u = Field(grid, sample(grid, exact, t=0.7))
    assert error_norms(u, exact, 0.7) == (0.0, 0.0)


def test_error_constant_offset():
    grid = make_grid(0, 1, 16, 1)  # h * N = 1, so both norms equal the offset
    exact = lambda x, t: np.zeros_like(x)
    eps = 2.5e-4
    u = Field(grid, np.full(16, eps))
    err_l2, err_inf = error_norms(u, exact, 0.0)
    assert err_l2 == pytest.approx(eps)
    assert err_inf == pytest.approx(eps)


def test_error_translation_equivariance():
    rng = np.random.default_rng(3)
    grid = make_grid(-1, 1, 32, 1)
    base = rng.normal(size=32)
    exact = lambda x, t: np.sin(x)
    u1 = Field(grid, base)
    u2 = Field(grid, base + 5.0)
    shifted = lambda x, t: np.sin(x) + 5.0
    assert error_norms(u1, exact, 0.0) == pytest.approx(error_norms(u2, shifted, 0.0))


def test_orders_table_values():
    assert convergence_orders([1.287e-3, 3.217e-4])[0] == pytest.approx(2.00, abs=5e-3)


def test_orders_trivial():
    assert convergence_orders([0.5, 0.5]) == [0.0]


def test_orders_synthetic_h2_ladder():
    errs = [1.0 / 4.0**k for k in range(5)]
    for order in convergence_orders(errs):
        assert order == pytest.approx(2.0, abs=1e-12)


def test_orders_reject_nonpositive():
    with pytest.raises(ValueError):
        convergence_orders([1.0, 0.0])
    with pytest.raises(ValueError):
        convergence_orders([1.0, -2.0])
