import dataclasses
import math
import re

import numpy as np
import pytest

from expsav import avf
from expsav.avf import (FixedPointConfig, avf_gradient_kg, avf_gradient_nls, eavf_step_kg,
                        eavf_step_nls)
from expsav.catalog import CATALOG, get_entry
from expsav.errors import SolverError
from expsav.grids import (Field, GridSpec, fd_laplacian_eigenvalues, make_grid,
                          spectral_laplacian_eigenvalues)
from expsav.kg import KgProblem, KgState, kg_init, kg_original_energy, kg_step
from expsav.nls import NlsProblem, nls_hamiltonian, nls_init, nls_step
from expsav.runner import ProblemSpec, run
from expsav.tables import build_kg_tables, build_nls_tables

import oracles


def sine_gordon_problem(grid, c0=1.0, zero_data=False):
    entry = get_entry("sg1d")
    problem = entry.make_problem(grid, c0)
    if zero_data:
        problem = dataclasses.replace(problem, phi1=lambda x: np.zeros_like(x),
                                      phi2=lambda x: np.zeros_like(x))
    return problem


WAVE_IDS = sorted(e.id for e in CATALOG.values() if e.kind == "wave")


def wave_problem(problem_id):
    entry = get_entry(problem_id)
    return entry.make_problem(entry.make_grid(8), 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(tol=0.0)
    with pytest.raises(ValueError):
        FixedPointConfig(max_iters=0)


@pytest.mark.parametrize("max_iters", [2.5, 2.0, "3"])
def test_config_refuses_an_iteration_cap_that_is_not_an_integer(max_iters):
    # 2.5 was accepted, and the first step raised a TypeError from range()
    with pytest.raises(ValueError, match=re.escape(
            f"max_iters must be an integer >= 1, got {max_iters!r}")):
        FixedPointConfig(max_iters=max_iters)
    assert FixedPointConfig(max_iters=np.int64(3)).max_iters == 3


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


def linear_map(theta, c):
    """u <- theta u + c: from u = 0 its k-th increment is theta^(k-1) c."""
    def update(u):
        with np.errstate(over="ignore"):
            return theta * u + c, None
    return update


@pytest.mark.parametrize("theta,tol", [(1e-3, 1e-14), (0.6, 1e-9)])
def test_fixed_point_stops_at_the_first_absolute_or_rate_test(theta, tol):
    c = np.array([1.0, -0.25, 0.5])
    # increment k is theta^(k-1) max|c|, and the rate test sees theta/(1-theta) times
    # it from k = 2 on. Each test first holds at the integer k past its threshold;
    # every quantity compared lies at least 20 % from tol, beyond any roundoff.
    rate = theta / (1.0 - theta)
    k_abs = math.floor(math.log(1.0 / tol) / math.log(1.0 / theta)) + 2
    k_rate = max(2, math.floor(math.log(rate / tol) / math.log(1.0 / theta)) + 2)
    want = min(k_abs, k_rate)
    # theta = 1e-3 stops on the rate test, an iteration early; 0.6 on the absolute one
    assert (want, k_rate < k_abs) == {1e-3: (5, True), 0.6: (42, False)}[theta]
    u, _, iters = avf._fixed_point(linear_map(theta, c), np.zeros(3), FixedPointConfig(tol=tol))
    assert iters == want
    np.testing.assert_allclose(u, c / (1.0 - theta), rtol=0.0, atol=2.0 * tol)


@pytest.mark.parametrize("theta,max_iters,message", [
    (1.0, 30, "fixed point stalled at increment 1 after 30 iterations"),
    # theta/(1-theta) < 0 would pass a rate test that lacked its theta < 1 guard
    (2.0, 30, "fixed point stalled at increment 5.36871e+08 after 30 iterations"),
    (1e100, 200, "fixed point diverged at iteration 5"),
])
def test_fixed_point_rate_test_never_stops_a_growing_map(theta, max_iters, message):
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        avf._fixed_point(linear_map(theta, np.ones(2)), np.zeros(2),
                         FixedPointConfig(max_iters=max_iters))


def test_fixed_point_rate_stop_holds_when_the_ratios_alternate():
    # u <- M u + c swaps the components: from u = 0 the increment ratios alternate
    # 0.005 and 0.015, as nls2d_planewave's do. A theta from the last ratio alone
    # stopped 2.96 tol from the fixed point at tol = 1.9e-9.
    m = np.array([[0.0, 0.015], [0.005, 0.0]])
    c = np.array([1.0, 0.0])
    fixed = np.linalg.solve(np.eye(2) - m, c)
    dist = []
    for tol in np.geomspace(1e-12, 1e-6, 400):
        u, _, _ = avf._fixed_point(lambda u: (m @ u + c, None), np.zeros(2),
                                   FixedPointConfig(tol=tol))
        dist.append(np.max(np.abs(u - fixed)) / tol)
    assert max(dist) <= 2.0


def fixed_point_to_roundoff(update, u0):
    """The same iteration, continued until its increment stops shrinking."""
    u, prev = u0, np.inf
    for _ in range(100):
        u_next, _ = update(u)
        incr = np.max(np.abs(u_next - u))
        u = u_next
        if incr >= prev:
            return u
        prev = incr
    raise AssertionError("the increment kept shrinking for 100 iterations")


@pytest.mark.parametrize("problem_id", sorted(CATALOG))
def test_rate_stop_lies_within_two_tol_of_the_fixed_point(problem_id, monkeypatch):
    # what README says fp_tol bounds: each step's iterate is within 2 fp_tol of the
    # fixed point of the same step's map, solved to roundoff; the steps after the
    # first start warm, from the extrapolated correction, not from u^n
    solve, dist, warm, state_u = avf._fixed_point, [], [], []

    def checked(update, u0, cfg):
        u, fcorr, iters = solve(update, u0, cfg)
        dist.append(float(np.max(np.abs(u - fixed_point_to_roundoff(update, u0)))))
        warm.append(not np.array_equal(u0, state_u[-1]))
        return u, fcorr, iters

    for name in ("eavf_step_kg", "eavf_step_nls"):
        def spied(state, *args, _step=getattr(avf, name)):
            state_u.append(state.u.values)
            return _step(state, *args)
        monkeypatch.setattr(avf, name, spied)
    monkeypatch.setattr(avf, "_fixed_point", checked)
    spec = ProblemSpec(problem=problem_id, scheme="eavfs",
                       t_end=20 * get_entry(problem_id).default_tau)
    run(spec)
    assert len(dist) == 20
    assert max(dist) <= 2.0 * spec.fp_tol
    assert sum(warm) >= 18


@pytest.mark.parametrize("problem_id,most", [
    ("kg2d_cubic", 308), ("nls1d_soliton", 603), ("nls2d_planewave", 503), ("sg1d", 201)])
def test_eavfs_iteration_totals_at_catalog_defaults(problem_id, most):
    # from u^n with the absolute stop alone: 400 (sg1d) and 800 (nls2d_planewave);
    # with the rate stop: 300, 384, 800 and 600; the warm start takes about one
    # iteration more off every step
    assert run(ProblemSpec(problem=problem_id, scheme="eavfs")).total_iters <= most


@pytest.mark.parametrize("problem_id", ["sg2d_ring", "kg2d_cubic", "nls1d_soliton",
                                        "nls2d_planewave"])
def test_eavfs_step_budget(problem_id, transforms):
    # avf.py's count: 2 iters + 2 transforms (wave) or 2 iters + 1 (NLS, no
    # chord average for v'). A wave step calls the chord mean once per
    # iteration and once for v', the pair once for q, and neither kernel alone.
    entry = get_entry(problem_id)
    grid = entry.make_grid(16)
    problem = entry.make_problem(grid, entry.default_c0)
    wave = entry.kind == "wave"
    calls = []

    def counted(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    if wave:
        problem = dataclasses.replace(
            problem, G=counted("G", problem.G), Gp=counted("Gp", problem.Gp),
            sum_G_and_Gp=counted("pair", problem.sum_G_and_Gp),
            chord_mean=counted("chord_mean", problem.chord_mean))
        tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), 1.0, entry.default_tau)
        state, step = kg_init(problem), eavf_step_kg
    else:
        tables = build_nls_tables(grid, spectral_laplacian_eigenvalues(grid), entry.default_tau)
        state, step = nls_init(problem), eavf_step_nls
    # the initial state forms its spectra before the count
    state.u_spectrum, getattr(state, "v_spectrum", None)
    for _ in range(3):
        transforms.clear()
        calls.clear()
        state, iters = step(state, tables, problem, FixedPointConfig())
        assert iters >= 2
        assert len(transforms) == 2 * iters + 1 + wave
        assert sorted(calls) == (["chord_mean"] * (iters + 1) + ["pair"] if wave else [])


def test_discrete_gradient_identity_kg():
    # <fbar, u' - u> = <G(u') - G(u), 1> is the chain-rule surrogate
    rng = np.random.default_rng(11)
    grid = make_grid(-2, 2, 128, 1)
    problem = sine_gordon_problem(grid)
    u_old = rng.normal(size=128)
    u_new = u_old + rng.normal(size=128)  # O(1) chords
    fbar = avf_gradient_kg(problem, u_old, u_new)
    lhs = grid.cell * np.sum(fbar * (u_new - u_old))
    rhs = grid.cell * np.sum(problem.G(u_new) - problem.G(u_old))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_discrete_gradient_identity_kg_short_chords():
    rng = np.random.default_rng(12)
    grid = make_grid(-2, 2, 128, 1)
    problem = sine_gordon_problem(grid)
    u_old = rng.normal(size=128)
    u_new = u_old + 1e-5 * rng.normal(size=128)
    fbar = avf_gradient_kg(problem, u_old, u_new)
    lhs = grid.cell * np.sum(fbar * (u_new - u_old))
    rhs = grid.cell * np.sum(problem.G(u_new) - problem.G(u_old))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


def test_every_catalog_wave_problem_sets_its_chord_mean():
    for problem_id in WAVE_IDS:
        assert wave_problem(problem_id).chord_mean is not None, problem_id


@pytest.mark.parametrize("scale", [1.0, 1e-5], ids=["long", "short"])
@pytest.mark.parametrize("problem_id", WAVE_IDS)
def test_chord_mean_matches_the_generic_rule(problem_id, scale):
    # O(1) chords take the reference's divided difference, 1e-5 chords its Gauss rule
    problem = wave_problem(problem_id)
    rng = np.random.default_rng(15)
    u_old = rng.normal(size=256)
    u_new = u_old + scale * rng.normal(size=256)
    np.testing.assert_allclose(problem.chord_mean(u_old, u_new),
                               oracles.chord_mean_kg(problem, u_old, u_new),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("problem_id", WAVE_IDS)
def test_chord_mean_of_a_zero_chord_is_the_derivative(problem_id):
    problem = wave_problem(problem_id)
    u = np.random.default_rng(16).normal(scale=3.0, size=256)
    np.testing.assert_array_equal(problem.chord_mean(u, u), problem.Gp(u))


@pytest.mark.parametrize("scale", [1.0, 1e-5], ids=["long", "short"])
def test_nls_chord_mean_matches_the_gauss_rule(scale):
    rng = np.random.default_rng(18)
    u_old = rng.normal(size=256) + 1j * rng.normal(size=256)
    u_new = u_old + scale * (rng.normal(size=256) + 1j * rng.normal(size=256))
    np.testing.assert_allclose(avf_gradient_nls(u_old, u_new),
                               oracles.chord_mean_nls(u_old, u_new), rtol=1e-12, atol=0.0)


def test_discrete_gradient_identity_closed_form():
    problem = wave_problem("kg2d_cubic")
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


def readme_problem():
    # README's library example, with the chord mean so that eavfs can step it too
    grid = make_grid(-20.0, 20.0, 400, dim=1)
    return KgProblem(grid=grid, omega=1.0, G=lambda u: 1.0 - np.cos(u), Gp=np.sin,
                     phi1=lambda x: 0.0 * x, phi2=lambda x: 4.0 / np.cosh(x), C0=1.0,
                     chord_mean=sine_gordon_problem(grid).chord_mean)


def nls_problem():
    entry = get_entry("nls1d_soliton")
    return entry.make_problem(entry.make_grid(128), 0.0)


def step_with(family, scheme, lam):
    """(initial state, step: (state, tau) -> state) for a stepper whose tables
    are built from lam(grid) at each tau."""
    problem = readme_problem() if family == "wave" else nls_problem()
    grid = problem.grid

    def step(state, tau):
        if family == "wave":
            tables = build_kg_tables(grid, lam(grid), problem.omega, tau)
            if scheme == "esavs":
                return kg_step(state, tables, problem)
            return eavf_step_kg(state, tables, problem, FixedPointConfig())[0]
        tables = build_nls_tables(grid, lam(grid), tau)
        if scheme == "esavs":
            return nls_step(state, tables, problem)
        return eavf_step_nls(state, tables, problem, FixedPointConfig())[0]

    init = kg_init if family == "wave" else nls_init
    return init(problem), step


OWN_LAPLACIAN = {"wave": fd_laplacian_eigenvalues, "nls": spectral_laplacian_eigenvalues}
OTHER_LAPLACIAN = {"wave": spectral_laplacian_eigenvalues, "nls": fd_laplacian_eigenvalues}


@pytest.mark.parametrize("scheme", ["esavs", "eavfs"])
def test_wave_steppers_refuse_tables_built_for_another_omega(scheme):
    # README's library example with omega = 1.1 tables, which drifted silently;
    # the chord mean is there so that omega is the one thing wrong for eavfs
    problem = readme_problem()
    grid = problem.grid
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), omega=1.1, tau=0.01)
    state = kg_init(problem)
    with pytest.raises(ValueError, match=r"tables built for omega 1\.1, problem has 1\.0"):
        if scheme == "esavs":
            kg_step(state, tables, problem)
        else:
            eavf_step_kg(state, tables, problem, FixedPointConfig())


@pytest.mark.parametrize("scheme", ["esavs", "eavfs"])
@pytest.mark.parametrize("family", ["wave", "nls"])
def test_steppers_refuse_tables_built_from_another_laplacian(family, scheme):
    # wave tables from the spectral eigenvalues drifted E_mod silently by 1.8e-4,
    # NLS tables from the FD eigenvalues by 2.8e-7; a writable copy of the
    # family's own eigenvalues is the same Laplacian, and is stepped
    state, step = step_with(family, scheme, OTHER_LAPLACIAN[family])
    with pytest.raises(ValueError, match=r"tables not built from "
                       + OWN_LAPLACIAN[family].__name__ + r"\(grid\)"):
        step(state, 0.01)
    state, step = step_with(family, scheme, lambda grid: OWN_LAPLACIAN[family](grid).copy())
    assert step(state, 0.01).n == 1


@pytest.mark.parametrize("scheme", ["esavs", "eavfs"])
@pytest.mark.parametrize("family", ["wave", "nls"])
def test_steppers_refuse_tables_built_on_another_grid(family, scheme):
    # the builders settle the Laplacian; the grid (and the wave's omega) is what a step checks
    problem = readme_problem() if family == "wave" else nls_problem()
    g = problem.grid
    other = make_grid(g.a[0], g.b[0], 2 * g.n[0], 1)
    if family == "wave":
        tables = build_kg_tables(other, fd_laplacian_eigenvalues(other), problem.omega, 0.01)
        state, steppers = kg_init(problem), (kg_step, eavf_step_kg)
    else:
        tables = build_nls_tables(other, spectral_laplacian_eigenvalues(other), 0.01)
        state, steppers = nls_init(problem), (nls_step, eavf_step_nls)
    with pytest.raises(ValueError, match="tables built on a different grid"):
        if scheme == "esavs":
            steppers[0](state, tables, problem)
        else:
            steppers[1](state, tables, problem, FixedPointConfig())


@pytest.mark.parametrize("scheme", ["esavs", "eavfs"])
@pytest.mark.parametrize("family", ["wave", "nls"])
def test_a_state_refuses_a_step_size_it_was_not_stepped_with(family, scheme):
    # ten steps of 0.1 and one of 0.05 gave n = 11 and t = 0.55 silently, while
    # the predictor and the eavfs warm start assume equal steps
    state, step = step_with(family, scheme, OWN_LAPLACIAN[family])
    for _ in range(10):
        state = step(state, 0.1)
    with pytest.raises(ValueError, match="build a new initial state to change the step size"):
        step(state, 0.05)
    assert step(state, 0.1).t == pytest.approx(1.1)
