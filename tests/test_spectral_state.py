"""The spectra a state carries against its physical values, for all four steppers.

A stepper passes on the spectra it forms, and a state forms the side it was
not given on first read. These tests pin that both sides agree, that the
energies read the spectra with no transform, and that a state built from
physical fields steps as one that carries spectra. An eavfs step keeps its
fixed point's last correction for the next step's warm start; a state that
keeps none starts the iteration from its own u.
"""

import dataclasses

import numpy as np
import pytest

from expsav import avf
from expsav.avf import FixedPointConfig, eavf_step_kg, eavf_step_nls
from expsav.catalog import get_entry
from expsav.fourier import apply_multipliers, forward_values, inverse_values, real_part
from expsav.grids import (Field, GridSpec, State, fd_laplacian_eigenvalues,
                          make_grid, spectral_laplacian_eigenvalues)
from expsav.kg import KgState, kg_init, kg_modified_energy, kg_original_energy, kg_step
from expsav.nls import NlsProblem, nls_hamiltonian, nls_init, nls_modified_energy, nls_step
from expsav.tables import build_kg_tables, build_nls_tables

from oracles import forward_diff_norm, norm_l2

# the wave half spectrum keeps n//2 + 1 columns of the last axis: with 2 nodes
# there it is the full spectrum, and a non-square grid tells the axes apart
LAYOUTS = [
    make_grid(-1.0, 1.0, 8, 1),
    make_grid(-1.0, 1.0, 2, 1),
    GridSpec(a=(-1.0, -2.0), b=(1.0, 1.0), n=(4, 6)),
    GridSpec(a=(-1.0, -2.0), b=(1.0, 1.0), n=(6, 2)),
]
LAYOUT_IDS = ["x".join(map(str, g.n)) for g in LAYOUTS]


def wave_case(grid, rng):
    problem = dataclasses.replace(get_entry("sg1d").make_problem(grid, 0.7), omega=1.3,
                                  phi1=None, phi2=None)
    tau = 0.05
    u = rng.normal(size=grid.size)
    v = rng.normal(size=grid.size)
    q = float(np.sqrt(grid.cell * np.sum(problem.G(u)) + problem.C0))
    state = KgState(u=Field(grid, u), v=Field(grid, v), q=q,
                    u_prev=Field(grid, u - tau * v), n=1, t=tau)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), problem.omega, tau)
    return problem, tables, state


def nls_case(grid, rng):
    problem = NlsProblem(grid=grid, beta=2.0, u0=None, C0=0.4)
    tau = 0.01
    u = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    q = float(np.sqrt(grid.cell * np.sum(np.abs(u) ** 4) + problem.C0))
    state = State(u=Field(grid, u), q=q, u_prev=Field(grid, u), n=1, t=tau)
    tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), tau)
    return problem, tables, state


CFG = FixedPointConfig()
SCHEMES = {
    "esavs-wave": (wave_case, kg_step),
    "eavfs-wave": (wave_case, lambda st, tabs, prob: eavf_step_kg(st, tabs, prob, CFG)[0]),
    "esavs-nls": (nls_case, nls_step),
    "eavfs-nls": (nls_case, lambda st, tabs, prob: eavf_step_nls(st, tabs, prob, CFG)[0]),
}


def stepped(scheme, grid, steps):
    case, step = SCHEMES[scheme]
    problem, tables, state = case(grid, np.random.default_rng(11))
    for _ in range(steps):
        state = step(state, tables, problem)
    return problem, tables, state, step


def physical_copy(state):
    """The same level as a state built from physical fields only."""
    common = dict(u=state.u, q=state.q, u_prev=state.u_prev, n=state.n, t=state.t)
    if isinstance(state, KgState):
        return KgState(v=state.v, **common)
    return State(**common)


def assert_spectra_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("grid", LAYOUTS, ids=LAYOUT_IDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_spectra_and_energies_match_the_physical_values(scheme, grid):
    problem, _, state, _ = stepped(scheme, grid, 20)
    u = state.u
    assert_spectra_close(state.u_spectrum, forward_values(u.values, grid))
    if isinstance(state, KgState):
        v = state.v
        assert v.values.dtype == np.float64
        np.testing.assert_array_equal(
            v.values, real_part(inverse_values(state.v_spectrum, grid)))
        quadratic = (0.5 * norm_l2(v) ** 2
                     + 0.5 * problem.omega**2 * forward_diff_norm(u) ** 2)
        potential = grid.cell * np.sum(problem.G(u.values))
        assert kg_modified_energy(state, problem) == pytest.approx(
            quadratic + state.q**2 - problem.C0, rel=1e-12)
        assert kg_original_energy(state, problem) == pytest.approx(
            quadratic + potential, rel=1e-12)
    else:
        lam = spectral_laplacian_eigenvalues(grid).astype(np.complex128)
        kinetic = (grid.cell * np.vdot(u.values, apply_multipliers(u.values, lam, grid))).real
        quartic = grid.cell * np.sum(np.abs(u.values) ** 4)
        assert nls_modified_energy(state, problem) == pytest.approx(
            kinetic + 0.5 * problem.beta * (state.q**2 - problem.C0), rel=1e-12)
        assert nls_hamiltonian(state, problem) == pytest.approx(
            kinetic + 0.5 * problem.beta * quartic, rel=1e-12)


@pytest.mark.parametrize("grid", LAYOUTS, ids=LAYOUT_IDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_physical_state_steps_as_one_with_spectra(scheme, grid):
    problem, tables, state, step = stepped(scheme, grid, 3)
    from_spectra = step(state, tables, problem)
    from_physical = step(physical_copy(state), tables, problem)
    scale = np.max(np.abs(from_spectra.u.values))
    np.testing.assert_allclose(from_physical.u.values, from_spectra.u.values,
                               rtol=1e-12, atol=1e-12 * scale)
    if isinstance(state, KgState):
        np.testing.assert_allclose(from_physical.v.values, from_spectra.v.values,
                                   rtol=1e-12, atol=1e-12 * np.max(np.abs(from_spectra.v.values)))
    assert from_physical.q == pytest.approx(from_spectra.q, rel=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_energies_make_no_transform_on_a_stepped_state(scheme, transforms):
    problem, _, state, _ = stepped(scheme, LAYOUTS[2], 1)
    transforms.clear()
    if isinstance(state, KgState):
        kg_modified_energy(state, problem), kg_original_energy(state, problem)
    else:
        nls_modified_energy(state, problem), nls_hamiltonian(state, problem)
    assert transforms == []


@pytest.mark.parametrize("scheme", ["eavfs-wave", "eavfs-nls"])
def test_eavfs_step_makes_two_transforms_per_iteration_and_two_more(scheme, transforms):
    # one inverse starts the iteration and a forward/inverse pair per iteration;
    # the wave step makes one forward more, the chord average for v', while u'
    # keeps the spectrum of its last iteration in both steps. After 0, 1 and 2
    # eavfs steps the iteration starts at u^n, from c_n and from 2 c_n - c_{n-1}:
    # the warm start makes no transform.
    step = eavf_step_kg if scheme == "eavfs-wave" else eavf_step_nls
    real = scheme == "eavfs-wave"
    for eavfs_steps in (0, 1, 2):
        problem, tables, state, _ = stepped(scheme, LAYOUTS[2], eavfs_steps)
        # the hand-built state at 0 steps forms its spectra before the count
        state.u_spectrum, getattr(state, "v_spectrum", None)
        transforms.clear()
        _, iters = step(state, tables, problem, CFG)
        assert iters >= 2
        assert sorted(transforms) == ([("forward", real)] * (iters + real)
                                      + [("inverse", real)] * (iters + 1))


def catalog_start(problem_id):
    entry = get_entry(problem_id)
    grid = entry.make_grid(16)
    problem = entry.make_problem(grid, 1.0)
    lam = entry.laplacian_eigenvalues(grid)
    if entry.kind == "wave":
        return problem, build_kg_tables(grid, lam, problem.omega, entry.default_tau), \
            kg_init(problem)
    return problem, build_nls_tables(grid, lam, entry.default_tau), nls_init(problem)


def after_eavfs(scheme, then):
    """The state two eavfs steps leave, passed through then(state, tables, problem)."""
    problem, tables, state, _ = stepped(scheme, LAYOUTS[2], 2)
    return problem, tables, then(state, tables, problem)


COLD_STARTS = {
    "kg_init": lambda: catalog_start("sg1d"),
    "nls_init": lambda: catalog_start("nls1d_soliton"),
    "physical_copy-wave": lambda: after_eavfs("eavfs-wave", lambda st, *_: physical_copy(st)),
    "physical_copy-nls": lambda: after_eavfs("eavfs-nls", lambda st, *_: physical_copy(st)),
    "esavs-wave": lambda: after_eavfs("eavfs-wave", kg_step),
    "esavs-nls": lambda: after_eavfs("eavfs-nls", nls_step),
}


@pytest.mark.parametrize("start", COLD_STARTS)
def test_eavfs_step_from_a_state_without_corrections_starts_at_its_u(start, monkeypatch):
    problem, tables, state = COLD_STARTS[start]()
    solve, starts = avf._fixed_point, []

    def spy(update, u0, cfg):
        starts.append(u0)
        return solve(update, u0, cfg)

    monkeypatch.setattr(avf, "_fixed_point", spy)
    step = eavf_step_kg if isinstance(state, KgState) else eavf_step_nls
    new, _ = step(state, tables, problem, CFG)
    assert len(starts) == 1 and starts[0] is state.u.values
    # the step it made keeps a correction, so the next one starts warm
    step(new, tables, problem, CFG)
    assert not np.array_equal(starts[1], new.u.values)


def test_state_forms_each_spectrum_once(transforms):
    _, _, state = wave_case(LAYOUTS[0], np.random.default_rng(3))
    fu, fv = state.u_spectrum, state.v_spectrum
    assert state.u_spectrum is fu and state.v_spectrum is fv
    assert sorted(transforms) == [("forward", True)] * 2


def test_wave_state_needs_its_velocity():
    grid = LAYOUTS[0]
    with pytest.raises(ValueError, match="velocity"):
        KgState(u=Field(grid, np.zeros(8)), q=1.0, u_prev=None, n=0, t=0.0)


def test_wave_state_holds_one_velocity():
    # two velocities given together could disagree; the steppers pass one
    grid = LAYOUTS[0]
    v = Field(grid, np.ones(8))
    with pytest.raises(ValueError, match="velocity"):
        KgState(u=Field(grid, np.zeros(8)), v=v, v_spectrum=forward_values(v.values, grid),
                q=1.0, u_prev=None, n=0, t=0.0)
