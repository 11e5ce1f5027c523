import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsav.fourier import apply_multipliers, forward_values, inverse_values
from expsav.grids import (GridSpec, fd_laplacian_eigenvalues, make_grid,
                          spectral_laplacian_eigenvalues)
from expsav.tables import (ExpPhiTables, NlsTables, build_kg_tables, build_nls_tables,
                           sin_over_x, versine_over_x2)

import oracles


def table_as_dense(table: np.ndarray, grid) -> np.ndarray:
    """Assemble the dense node-space matrix of one half-spectrum diagonal block."""
    cols = [inverse_values(table * forward_values(e, grid), grid).real
            for e in np.eye(grid.size)]
    return np.column_stack(cols)


# each builder with the one Laplacian it takes
BUILDERS = {
    "wave": (lambda g, lam: build_kg_tables(g, lam, omega=1.0, tau=0.1), fd_laplacian_eigenvalues),
    "nls": (lambda g, lam: build_nls_tables(g, lam, tau=0.1), spectral_laplacian_eigenvalues),
}


def refuses(family):
    """pytest.raises for a builder's refusal of any lam but its family's."""
    return pytest.raises(ValueError, match=re.escape(
        f"tables not built from {family.__name__}(grid), the Laplacian of the energies"))


def test_zero_mode_entries():
    g = make_grid(0, 1, 2, 1)
    t = build_kg_tables(g, fd_laplacian_eigenvalues(g), omega=1.0, tau=0.1)
    assert (t.e11[0], t.e12[0], t.e21[0]) == (1.0, 0.1, 0.0)
    assert t.e12[0] / t.tau == 1.0  # phi11
    assert t.p12[0] == pytest.approx(0.05)


def test_omega_zero_gives_shear_block():
    g = make_grid(0, 1, 4, 1)
    lam = fd_laplacian_eigenvalues(g)
    t = build_kg_tables(g, lam, omega=0.0, tau=0.7)
    np.testing.assert_allclose(t.e11, 1.0)
    np.testing.assert_allclose(t.e12, 0.7)
    np.testing.assert_allclose(t.e21, 0.0)


def test_rejects_positive_eigenvalues():
    g = make_grid(0, 1, 4, 1)
    for build, family in BUILDERS.values():
        with refuses(family):
            build(g, -family(g))


@pytest.mark.parametrize("kind", ["wave", "nls"])
def test_builders_refuse_the_other_familys_laplacian(kind):
    # wave tables from the spectral eigenvalues drift E_mod by 1.8e-4, NLS
    # tables from the FD eigenvalues by 2.8e-7
    g = make_grid(0, 1, 8, 1)
    build, family = BUILDERS[kind]
    _, other = BUILDERS["nls" if kind == "wave" else "wave"]
    with refuses(family):
        build(g, other(g))


@pytest.mark.parametrize("kind", ["wave", "nls"])
def test_builders_refuse_eigenvalues_of_the_wrong_size(kind):
    g = make_grid(0, 1, 8, 1)
    build, family = BUILDERS[kind]
    for lam in (family(g)[:-1], family(make_grid(0, 1, 16, 1)), family(make_grid(0, 1, 8, 2))):
        with refuses(family):
            build(g, lam)


@pytest.mark.parametrize("kind", ["wave", "nls"])
def test_an_equal_writable_copy_gives_bitwise_equal_tables(kind):
    g = make_grid(-3.0, 2.0, 8, 2)
    build, family = BUILDERS[kind]
    copy = family(g).copy()
    assert copy.flags.writeable
    shared, copied = build(g, family(g)), build(g, copy)
    for f in fields(shared):
        a, b = getattr(shared, f.name), getattr(copied, f.name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert a == b, f.name


def test_table_records_hold_exactly_their_fields():
    # no record of the Laplacian: the builders take only their family's
    assert [f.name for f in fields(ExpPhiTables)] == [
        "grid", "tau", "omega", "e11", "e12", "e21", "p12"]
    assert [f.name for f in fields(NlsTables)] == ["grid", "tau", "expD", "sigma"]


@pytest.mark.parametrize("tau", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_builders_reject_a_time_step_that_is_not_positive_and_finite(tau):
    # tau <= 0 is False for nan: non-finite values need a check of their own
    g = make_grid(0, 1, 4, 1)
    lam = fd_laplacian_eigenvalues(g)
    with pytest.raises(ValueError, match=f"tau must be positive and finite, got {tau!r}"):
        build_kg_tables(g, lam, omega=1.0, tau=tau)
    with pytest.raises(ValueError, match=f"tau must be positive and finite, got {tau!r}"):
        build_nls_tables(g, lam, tau=tau)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_builders_reject_non_finite_eigenvalues(bad):
    # nan > 0 is False, so a sign check alone let nan through to e11 and expD
    g = make_grid(0, 1, 4, 1)
    for build, family in BUILDERS.values():
        lam = family(g).copy()
        lam[2] = bad
        with refuses(family):
            build(g, lam)


def test_wave_tables_hold_four_arrays_and_their_omega():
    g = make_grid(0, 1, 8, 1)
    t = build_kg_tables(g, fd_laplacian_eigenvalues(g), omega=np.float64(1.3), tau=0.1)
    arrays = [name for name, value in vars(t).items() if isinstance(value, np.ndarray)]
    assert arrays == ["e11", "e12", "e21", "p12"]
    # a Python float, so that a sum of the tables' nbytes counts arrays only
    assert type(t.omega) is float and t.omega == 1.3


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
def test_wave_builder_rejects_a_non_finite_omega(omega):
    g = make_grid(0, 1, 4, 1)
    with pytest.raises(ValueError, match=f"omega must be finite, got {omega!r}"):
        build_kg_tables(g, fd_laplacian_eigenvalues(g), omega=omega, tau=0.1)


def test_exp_matches_dense_matrix_exponential():
    g = make_grid(0, 8, 8, 1)
    tau, omega = 0.3, 1.0
    t = build_kg_tables(g, fd_laplacian_eigenvalues(g), omega, tau)
    (e11, e12, e21, e22), (p11, p12, p21, p22) = oracles.dense_wave_operators(g, omega, tau)
    # the diagonal entries of each block are equal: e11 stands in for e22, and
    # e12/tau for phi11 and phi22
    for table, dense in [(t.e11, e11), (t.e12, e12), (t.e21, e21), (t.e11, e22)]:
        np.testing.assert_allclose(table_as_dense(table, g), dense, atol=1e-11)
    for table, dense in [(t.e12 / t.tau, p11), (t.p12, p12), (t.e12 / t.tau, p22)]:
        np.testing.assert_allclose(table_as_dense(table, g), dense, atol=1e-10)


def test_determinant_one_blocks():
    g = make_grid(-5, 5, 64, 1)
    t = build_kg_tables(g, fd_laplacian_eigenvalues(g), omega=2.3, tau=0.17)
    det = t.e11 * t.e11 - t.e12 * t.e21
    np.testing.assert_allclose(det, 1.0, atol=1e-13)


def table_arrays(tables) -> dict:
    return {f.name: getattr(tables, f.name) for f in fields(tables)
            if isinstance(getattr(tables, f.name), np.ndarray)}


# the wave cases keep their plain ids
@pytest.mark.parametrize("kind,dim,n", [
    pytest.param(kind, dim, n, id=f"{dim}-{n}" if kind == "wave" else f"{kind}-{dim}-{n}")
    for kind in ("wave", "nls") for dim, n in [(1, 8), (1, 64), (2, 8), (2, 16)]])
def test_blocks_even_in_k(kind, dim, n):
    # D_k = D_{-k} bit for bit along every axis, so the wave blocks map real
    # fields to real fields and both builders may mirror the leading axis.
    # The wave half layout stores only k >= 0 of the last axis, which takes
    # that evenness for granted; every axis stored whole is checked on the tables.
    mirror = lambda a, axis: np.flip(np.roll(a, -1, axis=axis), axis=axis)  # a at -k
    g = make_grid(-3.0, 2.0, n, dim)
    _, family = BUILDERS[kind]
    lam = family(g)
    full = lam.reshape(g.n)
    for axis in range(dim):
        np.testing.assert_array_equal(full, mirror(full, axis), err_msg=f"lam along {axis}")
    if kind == "wave":
        t, shape, axes = build_kg_tables(g, lam, omega=1.3, tau=0.4), (-1, n // 2 + 1), [0]
    else:
        t, shape, axes = build_nls_tables(g, lam, tau=0.4), g.n, range(dim)
    for name, table in table_arrays(t).items():
        block = table.reshape(shape)
        for axis in axes:
            np.testing.assert_array_equal(block, mirror(block, axis), err_msg=f"{name} along {axis}")


# leading-axis sizes 1 (the 1D wave half spectrum), 2, 4, 6 and 200, square and not
TABLE_GRIDS = [(2,), (4,), (6,), (200,), (2, 6), (4, 4), (6, 4), (4, 6), (200, 8), (200, 200)]


@pytest.mark.parametrize("shape", TABLE_GRIDS, ids=lambda shape: "x".join(map(str, shape)))
def test_tables_are_their_formulas_on_every_mode_bit_for_bit(shape):
    # the builders evaluate rows 0..r/2 of the leading axis and mirror the rest
    g = GridSpec(a=(-3.0,) * len(shape), b=(2.0,) * len(shape), n=shape)
    lam = fd_laplacian_eigenvalues(g)
    for omega, tau in [(1.0, 0.1), (2.3, 0.37)]:
        got = table_arrays(build_kg_tables(g, lam, omega, tau))
        want = oracles.kg_tables_per_mode(g, lam, omega, tau)
        assert got.keys() == want.keys()
        for name, table in want.items():
            assert (got[name].dtype, got[name].shape, got[name].tobytes()) == (
                table.dtype, table.shape, table.tobytes()), f"wave {name}"
    lam = spectral_laplacian_eigenvalues(g)
    for tau in (0.1, 0.37):
        got = table_arrays(build_nls_tables(g, lam, tau))
        want = oracles.nls_tables_per_mode(lam, tau)
        assert got.keys() == want.keys()
        for name, table in want.items():
            assert (got[name].dtype, got[name].shape, got[name].tobytes()) == (
                table.dtype, table.shape, table.tobytes()), f"nls {name}"


def test_series_branch_consistency():
    # the closed forms at x = 1e-3 vs their degree-6 series
    x = np.array([1e-3])
    x2 = x * x
    series_s1 = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
    series_c2 = 0.5 * (1.0 - x2 / 12.0 * (1.0 - x2 / 30.0 * (1.0 - x2 / 56.0)))
    assert sin_over_x(x)[0] == pytest.approx(series_s1[0], rel=1e-10)
    assert versine_over_x2(x)[0] == pytest.approx(series_c2[0], rel=1e-10)


@pytest.mark.parametrize("x", [0.0, -0.0, 1e-8, -1e-8, 5e-5, -5e-5, 9.99e-5, -9.99e-5, 1e-4, 1e-3])
def test_sin_over_x_within_an_ulp_of_its_series(x):
    x2 = x * x
    series = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
    assert abs(sin_over_x(np.array([x]))[0] - series) <= np.spacing(series)


def test_sin_over_x_is_one_at_zero_and_warns_about_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zero in (0.0, -0.0):
            assert sin_over_x(zero) == 1.0
            assert sin_over_x(np.array([zero, 1.0]))[0] == 1.0
        np.testing.assert_array_equal(sin_over_x(np.zeros((2, 3))), np.ones((2, 3)))


def test_versine_keeps_its_digits_above_the_series_cutoff():
    # the quotient (1 - cos x)/x^2 lost up to 5e-9 relative here
    x = np.array([1.01e-4, 2e-4, 5e-4])
    x2 = x * x
    series_c2 = 0.5 * (1.0 - x2 / 12.0 * (1.0 - x2 / 30.0 * (1.0 - x2 / 56.0)))
    np.testing.assert_allclose(versine_over_x2(x), series_c2, rtol=1e-14, atol=0.0)


def test_flow_property_squares():
    g = make_grid(0, 1, 16, 1)
    lam = fd_laplacian_eigenvalues(g)
    t1 = build_kg_tables(g, lam, omega=1.4, tau=0.05)
    t2 = build_kg_tables(g, lam, omega=1.4, tau=0.10)
    e11 = t1.e11 * t1.e11 + t1.e12 * t1.e21
    e12 = t1.e11 * t1.e12 + t1.e12 * t1.e11
    e21 = t1.e21 * t1.e11 + t1.e11 * t1.e21
    e22 = t1.e21 * t1.e12 + t1.e11 * t1.e11
    np.testing.assert_allclose(e11, t2.e11, atol=1e-12)
    np.testing.assert_allclose(e12, t2.e12, atol=1e-12)
    np.testing.assert_allclose(e21, t2.e21, atol=1e-12 * np.max(np.abs(t2.e21) + 1))
    np.testing.assert_allclose(e22, t2.e11, atol=1e-12)


def test_nls_zero_mode():
    g = make_grid(0, 1, 2, 1)
    t = build_nls_tables(g, spectral_laplacian_eigenvalues(g), tau=0.3)
    assert t.expD[0] == 1.0
    assert t.sigma[0] == 1.0


def test_nls_half_turn():
    # on [0, 2 pi) with two nodes lam = (0, -1); tau * lam = -pi: expD = -1,
    # sigma = (-1 - 1)/(-i pi) = -2i/pi
    g = make_grid(0, 2 * np.pi, 2, 1)
    np.testing.assert_array_equal(spectral_laplacian_eigenvalues(g), [0.0, -1.0])
    t = build_nls_tables(g, spectral_laplacian_eigenvalues(g), tau=np.pi)
    assert t.expD[1] == pytest.approx(-1.0)
    assert t.sigma[1] == pytest.approx(-2j / np.pi)


def test_nls_unit_modulus():
    g = make_grid(0, 2 * np.pi, 32, 1)
    t = build_nls_tables(g, spectral_laplacian_eigenvalues(g), tau=0.07)
    np.testing.assert_allclose(np.abs(t.expD), 1.0, atol=1e-14)
    assert np.all(np.isfinite(t.sigma))


def test_nls_sigma_matches_quadrature():
    g = make_grid(0, 2 * np.pi, 8, 1)
    lam = spectral_laplacian_eigenvalues(g)
    tau = 0.2
    t = build_nls_tables(g, lam, tau)
    _, sigma_dense = oracles.dense_schroedinger_operators(g, lam, tau)
    cols = [apply_multipliers(e.astype(complex), t.sigma, g) for e in np.eye(8)]
    np.testing.assert_allclose(np.column_stack(cols), sigma_dense, atol=1e-11)


@settings(deadline=None, max_examples=30)
@given(tau=st.floats(1e-3, 1.0), omega=st.floats(0.0, 4.0), length=st.floats(0.5, 50.0))
def test_determinant_one_property(tau, omega, length):
    # the domain length sets the FD eigenvalues: |lam| up to 4 (8/length)^2 = 1024
    g = make_grid(0, length, 8, 1)
    t = build_kg_tables(g, fd_laplacian_eigenvalues(g), omega, tau)
    det = t.e11 * t.e11 - t.e12 * t.e21
    np.testing.assert_allclose(det, 1.0, atol=1e-13)
