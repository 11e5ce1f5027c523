import dataclasses

import numpy as np
import pytest

from expsav.catalog import get_entry, sech
from expsav.errors import SolverError
from expsav.grids import Field, GridSpec, fd_laplacian_eigenvalues, make_grid
from expsav.kg import (KgProblem, KgState, kg_init, kg_modified_energy, kg_original_energy,
                       kg_step)
from expsav.tables import build_kg_tables

import oracles


def sine_gordon_problem(grid, c0=1.0):
    return KgProblem(grid=grid, omega=1.0, G=lambda u: 1.0 - np.cos(u), Gp=np.sin,
                     phi1=lambda *xs: np.zeros_like(xs[0]),
                     phi2=lambda *xs: 4.0 * sech(xs[0]), C0=c0)


def random_state(problem, rng, tau):
    grid = problem.grid
    u = rng.normal(size=grid.size)
    v = rng.normal(size=grid.size)
    u_prev = u - tau * v + 0.1 * tau * rng.normal(size=grid.size)
    q = float(np.sqrt(grid.cell * np.sum(problem.G(u)) + problem.C0))
    return KgState(u=Field(grid, u), v=Field(grid, v), q=q,
                   u_prev=Field(grid, u_prev), n=3, t=3 * tau)


# ---------------------------------------------------------------- init


def test_init_sine_gordon_q0():
    entry = get_entry("sg1d")
    grid = entry.make_grid(400)
    state = kg_init(entry.make_problem(grid, 1.0))
    assert state.q == pytest.approx(1.0)  # u0 = 0 -> <1 - cos 0, 1> = 0
    assert state.u_prev is None
    assert state.n == 0
    np.testing.assert_array_equal(state.u.values, 0.0)


def test_init_constant_shift():
    grid = make_grid(0, 1, 8, 1)
    problem = KgProblem(grid=grid, omega=1.0, G=lambda u: np.zeros_like(u),
                        Gp=lambda u: np.zeros_like(u),
                        phi1=lambda x: np.zeros_like(x), phi2=lambda x: np.zeros_like(x),
                        C0=4.0)
    assert kg_init(problem).q == pytest.approx(2.0)


def test_init_cubic_2d_matches_direct_sum():
    entry = get_entry("kg2d_cubic")
    grid = entry.make_grid(32)
    problem = entry.make_problem(grid, 0.0)
    state = kg_init(problem)
    x, y = grid.coords()
    u0 = 2.0 * sech(np.cosh(x**2 + y**2))
    direct = np.sqrt(sum(0.25 * val**4 for val in u0.ravel()) * grid.cell)
    assert state.q == pytest.approx(direct, rel=1e-13)


def test_init_rejects_nonpositive_radicand():
    grid = make_grid(0, 1, 8, 1)
    problem = KgProblem(grid=grid, omega=1.0, G=lambda u: np.zeros_like(u),
                        Gp=lambda u: np.zeros_like(u),
                        phi1=lambda x: np.zeros_like(x), phi2=lambda x: np.zeros_like(x),
                        C0=0.0)
    with pytest.raises(ValueError):
        kg_init(problem)


# ---------------------------------------------------------------- predictor


def test_predictor_constant_state():
    grid = make_grid(0, 1, 8, 1)
    c = Field(grid, np.full(8, 2.7))
    state = KgState(u=c, v=c, q=1.0, u_prev=c, n=5, t=0.5)
    np.testing.assert_allclose(state.predictor(), 2.7)


def test_predictor_first_step_uses_u0():
    grid = make_grid(0, 1, 8, 1)
    u0 = Field(grid, np.arange(8.0))
    state = KgState(u=u0, v=u0, q=1.0, u_prev=None, n=0, t=0.0)
    np.testing.assert_array_equal(state.predictor(), u0.values)


def test_predictor_extrapolates():
    grid = make_grid(0, 1, 8, 1)
    state = KgState(u=Field(grid, np.full(8, 2.0)), v=Field(grid, np.zeros(8)), q=1.0,
                    u_prev=Field(grid, np.full(8, 1.0)), n=2, t=0.2)
    np.testing.assert_allclose(state.predictor(), 2.5)


# ---------------------------------------------------------------- stepping


def test_zero_state_is_fixed_point():
    grid = make_grid(-20, 20, 64, 1)
    problem = sine_gordon_problem(grid)
    problem = KgProblem(grid=grid, omega=1.0, G=problem.G, Gp=problem.Gp,
                        phi1=lambda x: np.zeros_like(x), phi2=lambda x: np.zeros_like(x),
                        C0=1.0)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, 0.1)
    state = kg_init(problem)
    for _ in range(20):
        state = kg_step(state, tables, problem)
    np.testing.assert_allclose(state.u.values, 0.0, atol=1e-14)
    np.testing.assert_allclose(state.v.values, 0.0, atol=1e-14)
    assert state.q == pytest.approx(1.0)


@pytest.mark.parametrize("trial", range(10))
def test_step_matches_dense_oracle(trial):
    rng = np.random.default_rng(100 + trial)
    grid = make_grid(-1.0, 1.0, 8, 1)
    problem = sine_gordon_problem(grid, c0=1.0)
    tau = 0.05
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), problem.omega, tau)
    state = random_state(problem, rng, tau)
    new = kg_step(state, tables, problem)
    u_ref, v_ref, q_ref = oracles.dense_kg_step(state, problem, problem.omega, tau)
    np.testing.assert_allclose(new.u.values, u_ref, atol=1e-11)
    np.testing.assert_allclose(new.v.values, v_ref, atol=1e-11)
    assert new.q == pytest.approx(q_ref, abs=1e-11)


def check_step_against_dense_oracle(grid):
    rng = np.random.default_rng(77)
    problem = KgProblem(grid=grid, omega=1.3, G=lambda u: 1.0 - np.cos(u), Gp=np.sin,
                        phi1=lambda *xs: np.zeros_like(xs[0]),
                        phi2=lambda *xs: np.zeros_like(xs[0]), C0=0.7)
    tau = 0.04
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), problem.omega, tau)
    state = random_state(problem, rng, tau)
    new = kg_step(state, tables, problem)
    u_ref, v_ref, q_ref = oracles.dense_kg_step(state, problem, problem.omega, tau)
    np.testing.assert_allclose(new.u.values, u_ref, atol=1e-11)
    np.testing.assert_allclose(new.v.values, v_ref, atol=1e-11)
    assert new.q == pytest.approx(q_ref, abs=1e-11)


def test_step_matches_dense_oracle_2d():
    check_step_against_dense_oracle(make_grid(-1.0, 1.0, 4, 2))


# the half spectrum keeps n//2 + 1 columns of the last axis: with 2 nodes
# there it is the full spectrum, and a non-square grid tells the axes apart
ODD_LAYOUTS = [
    make_grid(-1.0, 1.0, 2, 1),
    GridSpec(a=(-1.0, -2.0), b=(1.0, 1.0), n=(4, 6)),
    GridSpec(a=(-1.0, -2.0), b=(1.0, 1.0), n=(6, 2)),
]


@pytest.mark.parametrize("grid", ODD_LAYOUTS, ids=lambda g: "x".join(map(str, g.n)))
def test_step_matches_dense_oracle_odd_layouts(grid):
    check_step_against_dense_oracle(grid)


def test_first_step_bootstraps_with_u0():
    entry = get_entry("sg1d")
    grid = entry.make_grid(64)
    problem = entry.make_problem(grid, 1.0)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, 0.02)
    state = kg_init(problem)
    new = kg_step(state, tables, problem)
    u_ref, v_ref, q_ref = oracles.dense_kg_step(state, problem, 1.0, 0.02)
    np.testing.assert_allclose(new.u.values, u_ref, atol=1e-11)
    assert new.u_prev is state.u


def test_step_rejects_foreign_tables():
    grid = make_grid(-1, 1, 8, 1)
    other = make_grid(-1, 1, 16, 1)
    problem = sine_gordon_problem(grid)
    tables = build_kg_tables(other, fd_laplacian_eigenvalues(other), 1.0, 0.1)
    with pytest.raises(ValueError):
        kg_step(kg_init(problem), tables, problem)


@pytest.mark.parametrize("G,message", [
    (lambda u: np.full_like(u, np.nan), r"<G\(uhat\), 1> \+ C0 is non-finite \(nan\)"),
    (lambda u: np.full_like(u, np.inf), r"<G\(uhat\), 1> \+ C0 is non-finite \(inf\)"),
    (lambda u: np.full_like(u, -1.0), r"<G\(uhat\), 1> \+ C0 = -\d.* is not positive"),
])
def test_step_rejects_bad_radicand(G, message):
    grid = make_grid(-1, 1, 8, 1)
    problem = sine_gordon_problem(grid)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, 0.1)
    state = kg_init(problem)
    with pytest.raises(SolverError, match=message):
        kg_step(state, tables, dataclasses.replace(problem, G=G))


@pytest.mark.parametrize("bad", [np.nan, -1e6])
def test_step_rejects_bad_denominator(bad):
    grid = make_grid(-1, 1, 8, 1)
    problem = sine_gordon_problem(grid)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, 0.1)
    corrupted = dataclasses.replace(tables, p12=np.full(tables.p12.size, bad))
    state = random_state(problem, np.random.default_rng(3), 0.1)
    with pytest.raises(SolverError, match="scalar-solve denominator"):
        kg_step(state, corrupted, problem)


def test_step_does_two_real_transforms(transforms):
    # 1 forward (w) real in, 1 inverse (u') real out; v' stays a half spectrum
    grid = make_grid(-1.0, 1.0, 8, 2)
    problem = sine_gordon_problem(grid)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, 0.1)
    state = kg_step(random_state(problem, np.random.default_rng(5), 0.1), tables, problem)
    transforms.clear()
    kg_step(state, tables, problem)
    assert sorted(transforms) == [("forward", True), ("inverse", True)]


# ---------------------------------------------------------------- energies


def test_modified_energy_zero_state():
    grid = make_grid(0, 1, 8, 1)
    problem = sine_gordon_problem(grid, c0=1.0)
    state = KgState(u=Field(grid, np.zeros(8)), v=Field(grid, np.zeros(8)), q=1.0,
                    u_prev=None, n=0, t=0.0)
    assert kg_modified_energy(state, problem) == pytest.approx(0.0)


def test_modified_energy_constant_field():
    # u = c, v = 0: gradient term vanishes, q^2 - C0 = (1 - cos c)(b - a)
    grid = make_grid(-3.0, 5.0, 32, 1)
    problem = sine_gordon_problem(grid, c0=1.0)
    c = 0.9
    u = Field(grid, np.full(32, c))
    q = float(np.sqrt(grid.cell * np.sum(problem.G(u.values)) + 1.0))
    state = KgState(u=u, v=Field(grid, np.zeros(32)), q=q, u_prev=None, n=0, t=0.0)
    assert kg_modified_energy(state, problem) == pytest.approx((1 - np.cos(c)) * 8.0)


def test_energies_agree_at_init():
    entry = get_entry("sg1d")
    grid = entry.make_grid(128)
    problem = entry.make_problem(grid, 1.0)
    state = kg_init(problem)
    assert kg_modified_energy(state, problem) == pytest.approx(
        kg_original_energy(state, problem), rel=1e-13)


def test_original_energy_zero_state():
    grid = make_grid(0, 1, 8, 1)
    problem = sine_gordon_problem(grid, c0=0.5)
    state = KgState(u=Field(grid, np.zeros(8)), v=Field(grid, np.zeros(8)),
                    q=np.sqrt(0.5), u_prev=None, n=0, t=0.0)
    assert kg_original_energy(state, problem) == 0.0


@pytest.mark.parametrize("n", [50, 512])
def test_conservation_across_resolutions(n):
    entry = get_entry("sg1d")
    grid = entry.make_grid(n)
    problem = entry.make_problem(grid, 1.0)
    tau = 0.05
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, tau)
    state = kg_init(problem)
    e0 = kg_modified_energy(state, problem)
    drift = 0.0
    for _ in range(1000):
        state = kg_step(state, tables, problem)
        drift = max(drift, abs(kg_modified_energy(state, problem) - e0))
    assert drift <= 1e-9 * max(1.0, abs(e0))


def test_long_run_boundedness():
    # conserved quadratic energy caps ||v||, ||d+ u|| and |q| uniformly in time
    from oracles import forward_diff_norm, norm_l2
    entry = get_entry("sg1d")
    grid = entry.make_grid(400)
    problem = entry.make_problem(grid, 1.0)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, 0.1)
    state = kg_init(problem)
    for step in range(2000):
        state = kg_step(state, tables, problem)
        if step % 50 == 0:
            assert norm_l2(state.v) < 10.0
            assert forward_diff_norm(state.u) < 10.0
            assert abs(state.q) < 10.0
    assert state.t == pytest.approx(200.0)


def test_short_run_conservation_and_original_energy_drift():
    entry = get_entry("sg1d")
    grid = entry.make_grid(400)
    problem = entry.make_problem(grid, 1.0)
    tau = 0.01
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, tau)
    state = kg_init(problem)
    e0 = kg_modified_energy(state, problem)
    h0 = kg_original_energy(state, problem)
    drift_mod = drift_orig = 0.0
    for _ in range(200):
        state = kg_step(state, tables, problem)
        drift_mod = max(drift_mod, abs(kg_modified_energy(state, problem) - e0))
        drift_orig = max(drift_orig, abs(kg_original_energy(state, problem) - h0))
    assert drift_mod <= 1e-11 * max(1.0, abs(e0))
    # the Hamiltonian is only conserved up to the scheme's O(tau^2) accuracy
    assert 1e-9 < drift_orig < 50 * tau**2
