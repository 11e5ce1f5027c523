import dataclasses
import re

import numpy as np
import pytest

from expsav.catalog import get_entry, sech
from expsav.errors import SolverError
from expsav.diagnostics import convergence_orders, error_norms
from expsav.fourier import apply_multipliers
from expsav.grids import (Field, State, fd_laplacian_eigenvalues, make_grid,
                          spectral_laplacian_eigenvalues)
from expsav.kg import KgProblem, KgState, kg_step
from expsav.nls import (NlsProblem, nls_hamiltonian, nls_init, nls_kinetic,
                        nls_modified_energy, nls_step, quartic_sum)
from expsav.tables import build_kg_tables, build_nls_tables

import oracles


def random_state(problem, rng, tau):
    grid = problem.grid
    u = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    u_prev = u - tau * (rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    q = float(np.sqrt(grid.cell * np.sum(np.abs(u) ** 4) + problem.C0))
    return State(u=Field(grid, u), q=q, u_prev=Field(grid, u_prev), n=2, t=2 * tau)


def sav_gamma(state, problem):
    """gamma = |uhat|^2 uhat / sqrt(<|uhat|^4, 1> + C0) of a state that has a previous level."""
    uhat = 1.5 * state.u.values - 0.5 * state.u_prev.values
    abs2 = np.abs(uhat) ** 2
    return abs2 * uhat / np.sqrt(problem.grid.cell * np.sum(abs2**2) + problem.C0)


# ---------------------------------------------------------------- init


def test_init_zero_field():
    grid = make_grid(0, 1, 8, 1)
    problem = NlsProblem(grid=grid, beta=1.0, u0=lambda x: np.zeros_like(x, dtype=complex),
                         C0=9.0)
    assert nls_init(problem).q == pytest.approx(3.0)


def test_init_plane_wave_q0():
    entry = get_entry("nls2d_planewave")
    state = nls_init(entry.make_problem(entry.make_grid(16), 0.0))
    assert state.q == pytest.approx(2.0 * np.pi)  # |u|^4 = 1 -> q = sqrt((2 pi)^2)


def test_init_soliton_matches_direct_sum():
    entry = get_entry("nls1d_soliton")
    grid = entry.make_grid(4096)
    state = nls_init(entry.make_problem(grid, 0.0))
    x = grid.axis_nodes(0)
    direct = np.sqrt(grid.cell * float(np.sum(sech(x) ** 4)))
    assert state.q == pytest.approx(direct, rel=1e-13)


def test_quartic_sum_matches_abs_pow():
    rng = np.random.default_rng(5)
    grid = make_grid(-2, 3, 32, 2)
    u = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    want = grid.cell * np.sum(np.abs(u) ** 4)
    total, abs2 = quartic_sum(u, grid)
    assert total == pytest.approx(want, rel=1e-14, abs=0.0)
    np.testing.assert_allclose(abs2, np.abs(u) ** 2, rtol=1e-15, atol=0.0)


def test_init_rejects_nonpositive_radicand():
    grid = make_grid(0, 1, 8, 1)
    problem = NlsProblem(grid=grid, beta=1.0, u0=lambda x: np.zeros_like(x, dtype=complex),
                         C0=0.0)
    with pytest.raises(ValueError):
        nls_init(problem)


# ---------------------------------------------------------------- stepping


def test_zero_state_is_fixed_point():
    grid = make_grid(0, 2 * np.pi, 16, 1)
    problem = NlsProblem(grid=grid, beta=2.0, u0=lambda x: np.zeros_like(x, dtype=complex),
                         C0=1.0)
    tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), 0.05)
    state = nls_init(problem)
    for _ in range(10):
        state = nls_step(state, tables, problem)
    np.testing.assert_allclose(state.u.values, 0.0, atol=1e-15)
    assert state.q == pytest.approx(1.0)


@pytest.mark.parametrize("trial", range(10))
def test_step_matches_dense_oracle(trial):
    rng = np.random.default_rng(200 + trial)
    grid = make_grid(0, 2 * np.pi, 8, 1)
    lam = spectral_laplacian_eigenvalues(grid)
    problem = NlsProblem(grid=grid, beta=2.0, u0=lambda x: np.zeros_like(x, dtype=complex),
                         C0=0.4)
    tau = 0.01
    tables = build_nls_tables(grid, lam, tau)
    state = random_state(problem, rng, tau)
    new = nls_step(state, tables, problem)
    u_ref, q_ref = oracles.dense_nls_step(state, problem, lam, tau)
    np.testing.assert_allclose(new.u.values, u_ref, atol=1e-11)
    assert new.q == pytest.approx(q_ref, abs=1e-11)


def test_step_matches_dense_oracle_2d():
    rng = np.random.default_rng(321)
    grid = make_grid(0, 2 * np.pi, 4, 2)
    lam = spectral_laplacian_eigenvalues(grid)
    problem = NlsProblem(grid=grid, beta=-1.0, u0=lambda x, y: np.zeros_like(x, dtype=complex),
                         C0=0.2)
    tau = 0.02
    tables = build_nls_tables(grid, lam, tau)
    state = random_state(problem, rng, tau)
    new = nls_step(state, tables, problem)
    u_ref, q_ref = oracles.dense_nls_step(state, problem, lam, tau)
    np.testing.assert_allclose(new.u.values, u_ref, atol=1e-11)
    assert new.q == pytest.approx(q_ref, abs=1e-11)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_rejects_nonfinite_closure(bad):
    grid = make_grid(0, 2 * np.pi, 8, 1)
    problem = NlsProblem(grid=grid, beta=2.0, u0=lambda x: np.zeros_like(x, dtype=complex),
                         C0=0.5)
    tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), 0.01)
    corrupted = dataclasses.replace(tables, sigma=np.full(grid.size, bad, dtype=complex))
    state = random_state(problem, np.random.default_rng(4), 0.01)
    with pytest.raises(SolverError, match="<gamma, Phi gamma> is non-finite"):
        nls_step(state, corrupted, problem)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_rejects_a_nonfinite_u(bad):
    # a non-finite linear flow passes the closure and reaches u'
    grid = make_grid(0, 2 * np.pi, 8, 1)
    problem = NlsProblem(grid=grid, beta=2.0, u0=lambda x: np.zeros_like(x, dtype=complex),
                         C0=0.5)
    tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), 0.01)
    corrupted = dataclasses.replace(tables, expD=np.full(grid.size, bad, dtype=complex))
    state = random_state(problem, np.random.default_rng(4), 0.01)
    with pytest.raises(SolverError) as err:
        nls_step(state, corrupted, problem)
    assert str(err.value) == "step 3 yields an invalid u: field contains non-finite values"


def test_step_does_two_complex_transforms(transforms):
    # 1 forward (gamma) complex in, 1 inverse (u') complex out
    grid = make_grid(0, 2 * np.pi, 16, 1)
    problem = NlsProblem(grid=grid, beta=2.0, u0=lambda x: np.zeros_like(x, dtype=complex),
                         C0=0.5)
    tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), 0.01)
    state = nls_step(random_state(problem, np.random.default_rng(6), 0.01), tables, problem)
    transforms.clear()
    nls_step(state, tables, problem)
    assert sorted(transforms) == [("forward", False), ("inverse", False)]


def test_step_rejects_nonfinite_radicand():
    grid = make_grid(0, 2 * np.pi, 8, 1)
    problem = NlsProblem(grid=grid, beta=2.0, u0=lambda x: np.zeros_like(x, dtype=complex),
                         C0=np.inf)
    tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), 0.01)
    state = random_state(dataclasses.replace(problem, C0=0.5), np.random.default_rng(5), 0.01)
    with pytest.raises(SolverError, match=r"<\|uhat\|\^4, 1> \+ C0 is non-finite \(inf\)"):
        nls_step(state, tables, problem)


def _sav_step_from_a_random_state(family, rng):
    """(state, stepped state, w, s^2) of one esavs step; w is the gradient of the
    quadratized potential at the predictor and s^2 its radicand there."""
    if family == "nls":
        grid = make_grid(0, 2 * np.pi, 16, 1)
        problem = NlsProblem(grid=grid, beta=1.7, u0=lambda x: np.zeros_like(x, dtype=complex),
                             C0=0.3)
        tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), 0.02)
        state = random_state(problem, rng, 0.02)
        uhat = 1.5 * state.u.values - 0.5 * state.u_prev.values
        abs2 = np.abs(uhat) ** 2
        s2 = grid.cell * np.sum(abs2 * abs2) + 0.3
        return state, nls_step(state, tables, problem), 4.0 * abs2 * uhat, s2
    grid = make_grid(-1, 1, 16, 1)
    problem = KgProblem(grid=grid, omega=1.0, G=lambda u: 1.0 - np.cos(u), Gp=np.sin,
                        phi1=np.zeros_like, phi2=np.zeros_like, C0=0.3)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, 0.02)
    u, v = rng.normal(size=grid.size), rng.normal(size=grid.size)
    state = KgState(u=Field(grid, u), v=Field(grid, v), q=1.3,
                    u_prev=Field(grid, u - 0.02 * v), n=2, t=0.04)
    uhat = 1.5 * u - 0.5 * state.u_prev.values
    w = np.sin(uhat)
    return state, kg_step(state, tables, problem), w, grid.cell * np.sum(1.0 - np.cos(uhat)) + 0.3


@pytest.mark.parametrize("family", ["nls", "wave"])
def test_step_closes_on_the_half_step_auxiliary_value(family):
    # the closure's defining identity, for both esavs families:
    # q^{n+1/2} = (q + q')/2 = q + Re<w, u' - u>/(4 s), so q' - q = Re<w, u' - u>/(2 s)
    state, new, w, s2 = _sav_step_from_a_random_state(family, np.random.default_rng(9))
    grid = state.u.grid
    increment = grid.cell * np.vdot(new.u.values - state.u.values, w).real
    assert new.q - state.q == pytest.approx(increment / (2.0 * np.sqrt(s2)), abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_rejects_a_singular_closure():
    # scale sigma so that Re<gamma, Phi gamma> = 1: the denominator of q^{n+1/2} vanishes
    grid = make_grid(0, 2 * np.pi, 8, 1)
    problem = NlsProblem(grid=grid, beta=2.0, u0=lambda x: np.zeros_like(x, dtype=complex),
                         C0=0.5)
    tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), 0.01)
    state = random_state(problem, np.random.default_rng(4), 0.01)
    gamma = sav_gamma(state, problem)
    phi_gamma = 1j * problem.beta * tables.tau * apply_multipliers(gamma, tables.sigma, grid)
    re_a = grid.cell * np.vdot(phi_gamma, gamma).real
    assert re_a > 0.0
    singular = dataclasses.replace(tables, sigma=tables.sigma / re_a)
    with pytest.raises(SolverError) as err:
        nls_step(state, singular, problem)
    message = re.fullmatch(r"closure is singular \(1 - Re<gamma, Phi gamma> = (\S+)\)",
                           str(err.value))
    assert message is not None, str(err.value)
    assert abs(float(message.group(1))) < 2e-14


def test_plane_wave_tracks_dispersion_relation():
    # the numerical phase follows exp(-i w t) with w = k1^2 + k2^2 - beta|A|^2 = 3
    entry = get_entry("nls2d_planewave")
    grid = entry.make_grid(16)
    problem = entry.make_problem(grid, 0.0)
    lam = spectral_laplacian_eigenvalues(grid)
    errs = []
    for tau in (0.02, 0.01):
        tables = build_nls_tables(grid, lam, tau)
        state = nls_init(problem)
        for _ in range(round(1.0 / tau)):
            state = nls_step(state, tables, problem)
        errs.append(error_norms(state.u, entry.exact(grid), state.t)[0])
    assert errs[-1] < 3e-3
    order = convergence_orders(errs)[0]
    assert order == pytest.approx(2.0, abs=0.1)


# ---------------------------------------------------------------- energy


def test_energy_zero_state():
    grid = make_grid(0, 1, 8, 1)
    problem = NlsProblem(grid=grid, beta=1.0, u0=lambda x: np.zeros_like(x, dtype=complex),
                         C0=1.0)
    state = nls_init(problem)
    assert nls_modified_energy(state, problem) == pytest.approx(0.0)


def test_plane_wave_kinetic_term():
    entry = get_entry("nls2d_planewave")
    grid = entry.make_grid(16)
    problem = entry.make_problem(grid, 0.0)
    state = nls_init(problem)
    # single mode (k1, k2) = (1, 1): <-Lap u, u> = (k1^2 + k2^2) ||u||^2 exactly
    norm_sq = grid.cell * float(np.sum(np.abs(state.u.values) ** 2))
    assert -nls_kinetic(state, problem) == pytest.approx(2.0 * norm_sq, rel=1e-12)


def test_modified_energy_equals_hamiltonian_at_init():
    entry = get_entry("nls1d_soliton")
    problem = entry.make_problem(entry.make_grid(512), 0.0)
    state = nls_init(problem)
    assert nls_modified_energy(state, problem) == pytest.approx(
        nls_hamiltonian(state, problem), rel=1e-12)
    # continuum value for sech(x) e^{2ix} with beta = 2 is -22/3
    assert nls_modified_energy(state, problem) == pytest.approx(-22.0 / 3.0, rel=1e-6)


def test_conservation_audit_fixes_sign_convention():
    """Both sign conventions of the q^2 term are drift-free (they are negatives
    of each other up to a constant); the frozen one also matches the
    Hamiltonian at t = 0, which is what pins the convention."""
    entry = get_entry("nls1d_soliton")
    grid = entry.make_grid(256)
    problem = entry.make_problem(grid, 0.0)
    lam = spectral_laplacian_eigenvalues(grid)
    tables = build_nls_tables(grid, lam, 0.01)
    state = nls_init(problem)
    kin0 = nls_kinetic(state, problem)
    cand_plus0 = kin0 + 0.5 * problem.beta * state.q**2
    cand_minus0 = -kin0 - 0.5 * problem.beta * state.q**2
    e0 = nls_modified_energy(state, problem)
    h0 = nls_hamiltonian(state, problem)
    assert e0 == pytest.approx(h0, rel=1e-12)
    drift_plus = drift_minus = 0.0
    for _ in range(300):
        state = nls_step(state, tables, problem)
        kin = nls_kinetic(state, problem)
        drift_plus = max(drift_plus, abs(kin + 0.5 * problem.beta * state.q**2 - cand_plus0))
        drift_minus = max(drift_minus, abs(-kin - 0.5 * problem.beta * state.q**2 - cand_minus0))
    scale = max(1.0, abs(cand_plus0))
    assert drift_plus <= 1e-11 * scale
    assert drift_minus <= 1e-11 * scale


def test_short_run_conservation():
    entry = get_entry("nls1d_soliton")
    grid = entry.make_grid(512)
    problem = entry.make_problem(grid, 0.0)
    tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), 0.01)
    state = nls_init(problem)
    e0 = nls_modified_energy(state, problem)
    drift = 0.0
    for _ in range(300):
        state = nls_step(state, tables, problem)
        drift = max(drift, abs(nls_modified_energy(state, problem) - e0))
    assert drift <= 1e-11 * max(1.0, abs(e0))
