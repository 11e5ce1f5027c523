import dataclasses

import numpy as np
import pytest

from expsav.avf import (FixedPointConfig, avf_gradient_kg, avf_gradient_nls, eavf_step_kg,
                        eavf_step_nls)
from expsav.catalog import get_entry
from expsav.errors import SolverError
from expsav.grids import (Field, GridSpec, fd_laplacian_eigenvalues, make_grid,
                          spectral_laplacian_eigenvalues)
from expsav.kg import KgProblem, KgState, kg_init, kg_original_energy
from expsav.nls import NlsProblem, nls_hamiltonian, nls_init
from expsav.tables import build_kg_tables, build_nls_tables

import oracles


def sine_gordon_problem(grid, c0=1.0, zero_data=False):
    entry = get_entry("sg1d")
    problem = entry.make_problem(grid, c0)
    if zero_data:
        problem = KgProblem(grid=grid, omega=1.0, G=problem.G, Gp=problem.Gp,
                            phi1=lambda x: np.zeros_like(x),
                            phi2=lambda x: np.zeros_like(x), C0=c0)
    return problem


def test_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(tol=0.0)
    with pytest.raises(ValueError):
        FixedPointConfig(max_iters=0)


def test_zero_state_converges_in_one_iteration():
    grid = make_grid(-20, 20, 64, 1)
    problem = sine_gordon_problem(grid, zero_data=True)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, 0.1)
    state, iters = eavf_step_kg(kg_init(problem), tables, problem, FixedPointConfig())
    assert iters == 1
    np.testing.assert_array_equal(state.u.values, 0.0)
    np.testing.assert_array_equal(state.v.values, 0.0)


def test_generic_step_needs_at_least_two_iterations():
    entry = get_entry("sg1d")
    grid = entry.make_grid(400)
    problem = entry.make_problem(grid, 1.0)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, 0.01)
    state, iters = eavf_step_kg(kg_init(problem), tables, problem, FixedPointConfig())
    assert iters >= 2


def test_nonconvergence_raises():
    entry = get_entry("sg1d")
    grid = entry.make_grid(64)
    problem = entry.make_problem(grid, 1.0)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, 0.01)
    with pytest.raises(SolverError, match="stalled"):
        eavf_step_kg(kg_init(problem), tables, problem,
                     FixedPointConfig(tol=1e-14, max_iters=1))


def test_discrete_gradient_identity_kg():
    # <fbar, u' - u> = <G(u') - G(u), 1> is the chain-rule surrogate
    rng = np.random.default_rng(11)
    grid = make_grid(-2, 2, 128, 1)
    problem = sine_gordon_problem(grid)
    u_old = rng.normal(size=128)
    u_new = u_old + rng.normal(size=128)  # O(1) chords: divided-difference branch
    fbar = avf_gradient_kg(problem, u_old, u_new)
    lhs = grid.cell * np.sum(fbar * (u_new - u_old))
    rhs = grid.cell * np.sum(problem.G(u_new) - problem.G(u_old))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_discrete_gradient_identity_kg_short_chords():
    rng = np.random.default_rng(12)
    grid = make_grid(-2, 2, 128, 1)
    problem = sine_gordon_problem(grid)
    u_old = rng.normal(size=128)
    u_new = u_old + 1e-5 * rng.normal(size=128)  # quadrature branch
    fbar = avf_gradient_kg(problem, u_old, u_new)
    lhs = grid.cell * np.sum(fbar * (u_new - u_old))
    rhs = grid.cell * np.sum(problem.G(u_new) - problem.G(u_old))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


def cubic_problem():
    entry = get_entry("kg2d_cubic")
    return entry.make_problem(entry.make_grid(8), 1.0)


@pytest.mark.parametrize("scale", [1.0, 1e-5], ids=["long", "short"])
def test_chord_mean_matches_the_generic_rule(scale):
    # O(1) chords take the divided difference, 1e-5 chords the Gauss rule
    problem = cubic_problem()
    rng = np.random.default_rng(15)
    u_old = rng.normal(size=256)
    u_new = u_old + scale * rng.normal(size=256)
    generic = dataclasses.replace(problem, chord_mean=None)
    np.testing.assert_allclose(problem.chord_mean(u_old, u_new),
                               avf_gradient_kg(generic, u_old, u_new), rtol=1e-12, atol=0.0)


def test_chord_mean_of_a_zero_chord_is_the_derivative():
    problem = cubic_problem()
    u = np.random.default_rng(16).normal(scale=3.0, size=256)
    np.testing.assert_array_equal(problem.chord_mean(u, u), problem.Gp(u))


def test_discrete_gradient_identity_closed_form():
    problem = cubic_problem()
    rng = np.random.default_rng(17)
    u_old = rng.normal(size=256)
    u_new = u_old + rng.normal(size=256)
    fbar = avf_gradient_kg(problem, u_old, u_new)
    np.testing.assert_array_equal(fbar, problem.chord_mean(u_old, u_new))
    lhs = np.sum(fbar * (u_new - u_old))
    rhs = np.sum(problem.G(u_new) - problem.G(u_old))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_discrete_gradient_identity_nls():
    # 2 Re <fbar, u' - u> = <|u'|^4 - |u|^4, 1> / 2
    rng = np.random.default_rng(13)
    grid = make_grid(-2, 2, 64, 1)
    u_old = rng.normal(size=64) + 1j * rng.normal(size=64)
    u_new = u_old + rng.normal(size=64) + 1j * rng.normal(size=64)
    fbar = avf_gradient_nls(u_old, u_new)
    lhs = 2.0 * (grid.cell * np.vdot(u_new - u_old, fbar)).real
    rhs = 0.5 * grid.cell * float(np.sum(np.abs(u_new) ** 4 - np.abs(u_old) ** 4))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def check_kg_step_against_dense_fixed_point(grid):
    rng = np.random.default_rng(14)
    problem = sine_gordon_problem(grid)
    tau = 0.05
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, tau)
    u = rng.normal(size=grid.size)
    v = rng.normal(size=grid.size)
    q = float(np.sqrt(grid.cell * np.sum(problem.G(u)) + 1.0))
    state = KgState(u=Field(grid, u), v=Field(grid, v), q=q, u_prev=None, n=0, t=0.0)
    new, _ = eavf_step_kg(state, tables, problem, FixedPointConfig())
    u_ref, v_ref = oracles.dense_eavf_kg_step(state, problem, 1.0, tau, 1e-14, 200,
                                              avf_gradient_kg)
    np.testing.assert_allclose(new.u.values, u_ref, atol=1e-11)
    np.testing.assert_allclose(new.v.values, v_ref, atol=1e-11)


def test_kg_step_matches_dense_fixed_point_oracle():
    check_kg_step_against_dense_fixed_point(make_grid(-1, 1, 8, 1))


@pytest.mark.parametrize("grid", [
    make_grid(-1, 1, 2, 1),
    GridSpec(a=(-1.0, -2.0), b=(1.0, 1.0), n=(4, 6)),
    GridSpec(a=(-1.0, -2.0), b=(1.0, 1.0), n=(6, 2)),
], ids=lambda g: "x".join(map(str, g.n)))
def test_kg_step_matches_dense_fixed_point_oracle_odd_layouts(grid):
    # a last axis of 2 nodes (half spectrum = full) and non-square grids
    check_kg_step_against_dense_fixed_point(grid)


def test_kg_energy_conservation_short_run():
    entry = get_entry("sg1d")
    grid = entry.make_grid(400)
    problem = entry.make_problem(grid, 1.0)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, 0.1)
    cfg = FixedPointConfig()
    state = kg_init(problem)
    e0 = kg_original_energy(state, problem)
    drift = 0.0
    for _ in range(200):
        state, _ = eavf_step_kg(state, tables, problem, cfg)
        drift = max(drift, abs(kg_original_energy(state, problem) - e0))
    assert drift <= 1e-10 * max(1.0, abs(e0))


def test_nls_energy_conservation_short_run():
    entry = get_entry("nls1d_soliton")
    grid = entry.make_grid(256)
    problem = entry.make_problem(grid, 0.0)
    tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), 0.01)
    cfg = FixedPointConfig()
    state = nls_init(problem)
    h0 = nls_hamiltonian(state, problem)
    drift, iters_seen = 0.0, []
    for _ in range(200):
        state, it = eavf_step_nls(state, tables, problem, cfg)
        iters_seen.append(it)
        drift = max(drift, abs(nls_hamiltonian(state, problem) - h0))
    assert drift <= 1e-10 * max(1.0, abs(h0))
    assert min(iters_seen) >= 2


def test_nls_zero_state_one_iteration():
    grid = make_grid(0, 2 * np.pi, 16, 1)
    problem = NlsProblem(grid=grid, beta=1.0, u0=lambda x: np.zeros_like(x, dtype=complex),
                         C0=1.0)
    tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), 0.05)
    state, iters = eavf_step_nls(nls_init(problem), tables, problem, FixedPointConfig())
    assert iters == 1
    np.testing.assert_array_equal(state.u.values, 0.0)
