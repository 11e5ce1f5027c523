import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsav.catalog import CATALOG
from expsav.errors import SolverError
from expsav.grids import (Field, GridSpec, State, fd_laplacian_eigenvalues, make_grid, sample,
                          spectral_laplacian_eigenvalues)
from expsav.kg import KgState
from expsav.nls import NlsState

import oracles
from oracles import forward_diff_norm, inner_l2, norm_l2


def test_make_grid_1d_paper_domain():
    g = make_grid(-20, 20, 400, 1)
    assert g.h == (0.1,)
    x = g.axis_nodes(0)
    assert x[0] == -20.0
    assert np.isclose(x[1], -19.9)
    assert np.isclose(x[-1], 19.9)  # right endpoint excluded
    assert x.size == 400


def test_make_grid_smallest_legal():
    g = make_grid(0, 1, 2, 1)
    assert g.h == (0.5,)
    np.testing.assert_allclose(g.axis_nodes(0), [0.0, 0.5])


def test_make_grid_2d():
    g = make_grid(-30, 10, 200, 2)
    assert g.h == (0.2, 0.2)
    assert g.size == 200 * 200
    assert g.shape == (200, 200)


@pytest.mark.parametrize("bad", [(0, 1, 3), (0, 1, 0), (0, 1, -4), (1, 1, 4), (2, 1, 4),
                                 (np.nan, 1, 4), (0, np.nan, 4), (0, np.inf, 4),
                                 (-np.inf, 1, 4), (0, 1, 4.5), (0, 1, 4.0), (0, 1, "6")])
def test_make_grid_rejects(bad):
    # a node count that is not an integer reaches GridSpec as given, not truncated
    a, b, n = bad
    with pytest.raises(ValueError):
        make_grid(a, b, n, 1)


@pytest.mark.parametrize("n", [4.0, 4.5, "4"])
def test_grid_spec_rejects_a_node_count_that_is_not_an_integer(n):
    # n = 4.0 passed the check and failed with a TypeError at the first transform
    with pytest.raises(ValueError, match="node count must be an even integer"):
        GridSpec(a=(0.0,), b=(1.0,), n=(n,))


def test_fd_eigenvalues_endpoints():
    g = make_grid(0, 8, 8, 1)  # h = 1
    lam = fd_laplacian_eigenvalues(g)
    assert lam[0] == 0.0
    assert np.isclose(lam[4], -4.0)  # j = N/2 -> -4/h^2


def test_fd_eigenvalues_match_dense_circulant():
    g = make_grid(0, 8, 8, 1)
    lam = fd_laplacian_eigenvalues(g)
    dense = oracles.circulant_second_difference(8, 1.0)
    ev = np.linalg.eigvalsh(dense)
    np.testing.assert_allclose(np.sort(lam), ev, atol=1e-12)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_fd_eigenvalues_dense_oracle_sweep(n):
    g = make_grid(-3.0, 2.0, n, 1)
    lam = fd_laplacian_eigenvalues(g)
    assert np.all(lam <= 0.0)
    np.testing.assert_allclose(lam[1:], lam[:0:-1], rtol=1e-12)  # j <-> N-j symmetry
    ev = np.linalg.eigvalsh(oracles.circulant_second_difference(n, g.h[0]))
    np.testing.assert_allclose(np.sort(lam), ev, atol=1e-12 * np.max(np.abs(ev)))


def test_fd_eigenvalues_2d_tensor_sum():
    g = make_grid(0, 4, 4, 2)
    lam = fd_laplacian_eigenvalues(g).reshape(4, 4)
    lam1 = fd_laplacian_eigenvalues(make_grid(0, 4, 4, 1))
    np.testing.assert_allclose(lam, np.add.outer(lam1, lam1))


def test_spectral_eigenvalues_sequence():
    g = make_grid(0, 2 * np.pi, 8, 1)
    lam = spectral_laplacian_eigenvalues(g)
    np.testing.assert_allclose(lam, [0, -1, -4, -9, -16, -9, -4, -1], atol=1e-12)


@pytest.mark.parametrize("eigenvalues", [fd_laplacian_eigenvalues,
                                         spectral_laplacian_eigenvalues])
def test_eigenvalues_are_one_shared_read_only_array_per_grid(eigenvalues):
    # the tables, the energies and the catalog share the array: a write into it
    # would change all of them, so it is refused
    lam = eigenvalues(make_grid(0, 1, 8, 2))
    assert eigenvalues(make_grid(0, 1, 8, 2)) is lam
    assert not lam.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        lam[0] = 1.0
    assert eigenvalues(make_grid(0, 1, 16, 2)) is not lam


def test_spectral_eigenvalues_scaling():
    g = make_grid(0, 1, 8, 1)
    lam = spectral_laplacian_eigenvalues(g)
    assert np.isclose(lam[1], -(2 * np.pi) ** 2)


def test_inner_ones():
    g = make_grid(0, 1, 2, 1)
    u = Field(g, np.ones(2))
    assert inner_l2(u, u) == pytest.approx(1.0)


def test_inner_zero():
    g = make_grid(0, 1, 4, 1)
    assert inner_l2(Field(g, np.zeros(4)), Field(g, np.ones(4))) == 0.0


def test_inner_matches_naive_sum():
    rng = np.random.default_rng(0)
    g = make_grid(-2, 3, 16, 1)
    a = rng.normal(size=16) + 1j * rng.normal(size=16)
    b = rng.normal(size=16) + 1j * rng.normal(size=16)
    want = g.h[0] * sum(a[j] * np.conj(b[j]) for j in range(16))
    got = inner_l2(Field(g, a), Field(g, b))
    assert abs(got - want) <= 1e-14 * abs(want)


def test_field_rejects_nonfinite_and_wrong_length():
    g = make_grid(0, 1, 4, 1)
    with pytest.raises(ValueError):
        Field(g, np.zeros(5))
    with pytest.raises(ValueError):
        Field(g, np.array([0.0, np.nan, 0.0, 0.0]))


def test_state_advance_shifts_the_levels():
    g = make_grid(0, 1, 4, 1)
    u0 = Field(g, np.arange(4.0))
    state = KgState(u=u0, v=u0, q=2.0, u_prev=None, n=0, t=0.0)
    one = state.advance(0.25, np.ones(4), np.float64(3.0), v_spectrum=np.zeros(3))
    corr = np.ones(4)
    two = one.advance(0.25, np.full(4, 2.0), 4.0, v_spectrum=np.array([4.0, 0.0, 0.0]),
                      corrections=(corr,))
    assert type(two) is KgState
    assert state.corrections == one.corrections == () and two.corrections[0] is corr
    assert two.u_prev is one.u and one.u_prev is u0
    assert (two.n, two.t, type(two.q)) == (2, 0.5, float)
    np.testing.assert_array_equal(two.v.values, 1.0)
    np.testing.assert_array_equal(two.predictor(), 2.5)  # (3 * 2 - 1) / 2


def test_nls_state_is_the_common_record():
    g = make_grid(0, 1, 4, 1)
    state = NlsState(u=Field(g, np.ones(4, complex)), q=1.0, u_prev=None, n=0, t=0.0)
    new = state.advance(0.1, 1j * np.ones(4), 1.0)
    assert NlsState is State and type(new) is State
    assert not hasattr(new, "v")
    assert new.u.values.dtype == np.complex128


@pytest.mark.parametrize("bad", ["u", "v", "q"])
def test_state_advance_rejects_a_nonfinite_result(bad):
    g = make_grid(0, 1, 4, 1)
    state = KgState(u=Field(g, np.zeros(4)), v=Field(g, np.zeros(4)), q=1.0,
                    u_prev=Field(g, np.zeros(4)), n=6, t=0.6)
    values = {"u": np.zeros(4), "v": np.zeros(3), "q": 1.0}
    values[bad] = np.inf if bad == "q" else np.full(values[bad].size, np.nan)
    with pytest.raises(SolverError, match=f"step 7 yields .*{bad}"):
        state.advance(0.1, values["u"], values["q"], v_spectrum=values["v"])


@settings(deadline=None, max_examples=30)
@given(n=st.sampled_from([4, 8, 16]), seed=st.integers(0, 2**31 - 1))
def test_inner_conjugate_symmetry_and_norm(n, seed):
    rng = np.random.default_rng(seed)
    g = make_grid(0.0, 1.0, n, 1)
    u = Field(g, rng.normal(size=n) + 1j * rng.normal(size=n))
    v = Field(g, rng.normal(size=n) + 1j * rng.normal(size=n))
    assert inner_l2(u, v) == pytest.approx(np.conj(inner_l2(v, u)))
    nrm2 = inner_l2(u, u)
    assert abs(nrm2.imag) < 1e-14 * abs(nrm2)
    assert nrm2.real >= 0.0
    assert norm_l2(u) == pytest.approx(np.sqrt(nrm2.real))


@pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (2, 8)])
def test_summation_by_parts(dim, n):
    # ||d+ u||^2 == -<B2 u, u> under periodicity
    rng = np.random.default_rng(42 + n + dim)
    g = make_grid(-1.0, 2.0, n, dim)
    vals = rng.normal(size=g.size)
    u = Field(g, vals)
    arr = vals.reshape(g.shape)
    b2u = np.zeros_like(arr)
    for axis in range(dim):
        b2u += (np.roll(arr, -1, axis) - 2 * arr + np.roll(arr, 1, axis)) / g.h[axis] ** 2
    lhs = forward_diff_norm(u) ** 2
    rhs = -g.cell * float(np.sum(b2u.ravel() * vals))
    assert lhs == pytest.approx(rhs, rel=1e-12)



def test_sample_passes_coordinates_broadcastable_to_the_grid():
    # one value per node of an axis, not one per grid node: in 2D x is a
    # column and y a row
    seen = []

    def record(*coords):
        seen.append([c.shape for c in coords])
        return 0.0

    sample(GridSpec(a=(-1.0, 0.0), b=(2.0, 3.0), n=(6, 4)), record)
    sample(make_grid(0.0, 1.0, 8), record)
    assert seen == [[(6, 1), (1, 4)], [(8,)]]


@pytest.mark.parametrize("result", ["scalar", "column", "full"])
def test_sample_returns_a_new_flat_writable_array(result):
    grid = GridSpec(a=(-1.0, 0.0), b=(2.0, 3.0), n=(6, 4))
    x, y = grid.coords()
    fns = {"scalar": lambda x, y: 2.5, "column": lambda x, y: 3.0 * x,
           "full": lambda x, y: x * y}
    want = np.broadcast_to(fns[result](x, y), grid.shape).ravel()
    got = sample(grid, fns[result])
    assert got.shape == (grid.size,)
    assert got.flags.writeable and got.flags.c_contiguous and got.flags.owndata
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("problem_id", sorted(CATALOG))
def test_catalog_initial_data_are_their_values_on_the_full_coordinates(problem_id):
    entry = CATALOG[problem_id]
    small = (6, 4) if entry.dim == 2 else (6,)
    for grid in (entry.make_grid(), GridSpec(a=(entry.a,) * entry.dim, b=(entry.b,) * entry.dim,
                                             n=small)):
        problem = entry.make_problem(grid, entry.default_c0)
        for name in ("phi1", "phi2") if entry.kind == "wave" else ("u0",):
            fn = getattr(problem, name)
            got = sample(grid, fn)
            want = np.broadcast_to(fn(*grid.coords()), grid.shape).ravel()
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), (grid.n, name)
