import numpy as np
import pytest

from expsav.catalog import get_entry, sech
from expsav.grids import Field, make_grid
from expsav.runner import convergence_orders, error_norms


def test_error_zero_when_exact():
    grid = make_grid(0, 1, 16, 1)
    exact_at = lambda t: np.sin(2 * np.pi * grid.axis_nodes(0)) * t
    u = Field(grid, exact_at(0.7))
    assert error_norms(u, exact_at, 0.7) == (0.0, 0.0)


def test_error_constant_offset():
    grid = make_grid(0, 1, 16, 1)  # h * N = 1, so both norms equal the offset
    exact_at = lambda t: np.zeros(grid.size)
    eps = 2.5e-4
    u = Field(grid, np.full(16, eps))
    err_l2, err_inf = error_norms(u, exact_at, 0.0)
    assert err_l2 == pytest.approx(eps)
    assert err_inf == pytest.approx(eps)


def test_error_translation_equivariance():
    rng = np.random.default_rng(3)
    grid = make_grid(-1, 1, 32, 1)
    base = rng.normal(size=32)
    x = grid.axis_nodes(0)
    exact_at = lambda t: np.sin(x)
    u1 = Field(grid, base)
    u2 = Field(grid, base + 5.0)
    shifted = lambda t: np.sin(x) + 5.0
    assert error_norms(u1, exact_at, 0.0) == pytest.approx(error_norms(u2, shifted, 0.0))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_one_pass_norms_equal_the_two_pass_formula(kind):
    rng = np.random.default_rng(11)
    grid = make_grid(-3, 5, 24, 2)
    values = rng.normal(size=(2, grid.size))
    if kind == "complex":
        values = values + 1j * rng.normal(size=(2, grid.size))
    u_values, target = values
    d = u_values - target
    want = (float(np.sqrt(grid.cell * np.sum(np.abs(d) ** 2))), float(np.max(np.abs(d))))
    assert error_norms(Field(grid, u_values), lambda t: target, 0.3) == want  # bitwise


# the analytic solutions as closed forms of (coords..., t), evaluated from scratch
CLOSED_FORMS = {
    "sg1d": lambda x, t: 4.0 * np.arctan(t * sech(x)),
    "nls1d_soliton": lambda x, t: sech(x - 4.0 * t) * np.exp(2j * x - 3j * t),
    "nls2d_planewave": lambda x, y, t: np.exp(1j * (x + y - 3.0 * t)),
}


@pytest.mark.parametrize("problem", sorted(CLOSED_FORMS))
def test_exact_factory_matches_the_closed_form(problem):
    entry = get_entry(problem)
    grid = entry.make_grid()
    exact_at = entry.exact(grid)
    for t in (0.0, 0.37, 1.0):
        got = exact_at(t)
        want = np.asarray(CLOSED_FORMS[problem](*grid.coords(), t)).ravel()
        assert got.shape == (grid.size,)
        if entry.kind == "wave":
            np.testing.assert_array_equal(got, want)  # bitwise
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


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
