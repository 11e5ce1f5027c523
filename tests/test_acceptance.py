"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import numpy as np
import pytest

import expsav as es
from expsav.catalog import get_entry
from expsav.fourier import apply_multipliers, forward_values, inverse_values
from expsav.grids import Field, State
from expsav.kg import KgState
from expsav.runner import ProblemSpec, compare_driver, convergence_driver, run
from expsav.tables import sin_over_x, versine_over_x2

import oracles

TABLE_ESAVS_L2 = (1.287e-3, 3.217e-4, 8.044e-5, 2.011e-5)
TABLE_ESAVS_INF = (1.367e-3, 3.413e-4, 8.531e-5, 2.133e-5)
TABLE_EAVFS_L2 = (1.104e-3, 2.761e-4, 6.902e-5, 1.725e-5)


def criterion(number, description):
    """Print one PASS/FAIL line per criterion, whatever pytest's verbosity."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"\n[{verdict}] criterion {number}: {description}")
            return False

    return _Reporter()


def table_ladder(scheme):
    # base (h, tau) = (1/10, 1/100), halved jointly four times, errors at t = 1
    base = ProblemSpec(problem="sg1d", scheme=scheme, n=400, tau=0.01, t_end=1.0,
                       cadence=100)
    return convergence_driver(base, levels=4)


def test_criterion_1_error_table_esavs():
    with criterion(1, "1D sine-Gordon error table, linearly implicit scheme"):
        rows = table_ladder("esavs")
        for row, want_l2, want_inf in zip(rows, TABLE_ESAVS_L2, TABLE_ESAVS_INF):
            assert row.err_l2 == pytest.approx(want_l2, rel=0.02)
            assert row.err_inf == pytest.approx(want_inf, rel=0.02)
        for row in rows[1:]:
            assert row.order_l2 == pytest.approx(2.00, abs=0.05)
            assert row.order_inf == pytest.approx(2.00, abs=0.05)


def test_criterion_2_error_table_eavfs():
    with criterion(2, "1D sine-Gordon error table, implicit averaged-gradient baseline"):
        # fp_tol 1e-14 (spec default) bounds the last increment or the estimated
        # distance to the fixed point, whichever drops below it first
        rows = table_ladder("eavfs")
        for row, want in zip(rows, TABLE_EAVFS_L2):
            assert row.err_l2 == pytest.approx(want, rel=0.10)
        for row in rows[1:]:
            assert row.order_l2 == pytest.approx(2.00, abs=0.05)


def drift_of(spec):
    result = run(spec)
    e = np.array([r.E_mod for r in result.records])
    return float(np.max(np.abs(e - e[0]))), result.records[0].E_mod


@pytest.mark.parametrize("scheme", ["esavs", "eavfs"])
def test_criterion_3_conservation_1d(scheme):
    with criterion(3, f"1D sine-Gordon energy conservation to t = 200 ({scheme})"):
        drift, e0 = drift_of(ProblemSpec(problem="sg1d", scheme=scheme, n=400, tau=0.1,
                                         t_end=200.0, cadence=1))
        assert drift <= 1e-10 * max(1.0, abs(e0))


@pytest.mark.parametrize("problem,scheme", [
    ("sg2d_ring", "esavs"), ("sg2d_ring", "eavfs"),
    ("kg2d_cubic", "esavs"), ("kg2d_cubic", "eavfs"),
])
def test_criterion_3_conservation_2d(problem, scheme):
    with criterion(3, f"2D energy conservation to t = 100 ({problem}, {scheme})"):
        drift, e0 = drift_of(ProblemSpec(problem=problem, scheme=scheme,
                                         t_end=100.0, cadence=1))
        assert drift <= 1e-10 * max(1.0, abs(e0))


def test_criterion_4_nls_soliton_conservation():
    with criterion(4, "1D soliton modified-energy conservation to t = 100"):
        drift, e0 = drift_of(ProblemSpec(problem="nls1d_soliton", t_end=100.0, cadence=10))
        assert drift <= 1e-9 * max(1.0, abs(e0))


def test_criterion_4_nls_temporal_order():
    with criterion(4, "1D soliton temporal refinement is second order"):
        errs = []
        for tau in (0.0025, 0.00125, 0.000625):
            result = run(ProblemSpec(problem="nls1d_soliton", tau=tau, t_end=1.0,
                                     cadence=10**6))
            errs.append(result.records[-1].err_l2)
        for order in es.convergence_orders(errs):
            assert order == pytest.approx(2.00, abs=0.05)


def test_criterion_4_nls_plane_wave():
    with criterion(4, "2D plane wave tracks the dispersion relation at second order"):
        errs = []
        for tau in (0.01, 0.005, 0.0025):
            result = run(ProblemSpec(problem="nls2d_planewave", tau=tau, t_end=1.0,
                                     cadence=10**6))
            errs.append(result.records[-1].err_l2)
        for prev, cur in zip(errs, errs[1:]):
            assert prev / cur == pytest.approx(4.0, rel=0.15)  # order 2.00 +- 0.05
        for order in es.convergence_orders(errs):
            assert order == pytest.approx(2.00, abs=0.05)


def test_criterion_5_oracle_equivalence_wave():
    with criterion(5, "one wave step matches the dense-assembly oracle (10 trials)"):
        grid = es.make_grid(-1.0, 1.0, 8, 1)
        problem = es.KgProblem(grid=grid, omega=1.0,
                               G=lambda u: 1.0 - np.cos(u), Gp=np.sin,
                               phi1=lambda x: np.zeros_like(x),
                               phi2=lambda x: np.zeros_like(x), C0=1.0)
        tau = 0.05
        tables = es.build_kg_tables(grid, es.fd_laplacian_eigenvalues(grid), 1.0, tau)
        for trial in range(10):
            rng = np.random.default_rng(5000 + trial)
            u = rng.normal(size=8)
            v = rng.normal(size=8)
            u_prev = u - tau * v
            q = float(np.sqrt(grid.cell * np.sum(problem.G(u)) + 1.0))
            state = KgState(u=Field(grid, u), v=Field(grid, v), q=q,
                            u_prev=Field(grid, u_prev), n=1, t=tau)
            new = es.kg_step(state, tables, problem)
            u_ref, v_ref, q_ref = oracles.dense_kg_step(state, problem, 1.0, tau)
            np.testing.assert_allclose(new.u.values, u_ref, atol=1e-11)
            np.testing.assert_allclose(new.v.values, v_ref, atol=1e-11)
            assert abs(new.q - q_ref) <= 1e-11


def test_criterion_5_oracle_equivalence_schroedinger():
    with criterion(5, "one Schroedinger step matches the dense-assembly oracle (10 trials)"):
        grid = es.make_grid(0.0, 2.0 * np.pi, 8, 1)
        lam = es.spectral_laplacian_eigenvalues(grid)
        problem = es.NlsProblem(grid=grid, beta=2.0,
                                u0=lambda x: np.zeros_like(x, dtype=complex), C0=0.5)
        tau = 0.01
        tables = es.build_nls_tables(grid, lam, tau)
        for trial in range(10):
            rng = np.random.default_rng(6000 + trial)
            u = rng.normal(size=8) + 1j * rng.normal(size=8)
            u_prev = u - tau * (rng.normal(size=8) + 1j * rng.normal(size=8))
            q = float(np.sqrt(grid.cell * np.sum(np.abs(u) ** 4) + 0.5))
            state = State(u=Field(grid, u), q=q, u_prev=Field(grid, u_prev), n=1, t=tau)
            new = es.nls_step(state, tables, problem)
            u_ref, q_ref = oracles.dense_nls_step(state, problem, lam, tau)
            np.testing.assert_allclose(new.u.values, u_ref, atol=1e-11)
            assert abs(new.q - q_ref) <= 1e-11


def test_criterion_6_structural_cost(transforms):
    with criterion(6, "zero iterations vs >= 2, 2 transforms per step vs 2 iters + 2, "
                      "and the implicit scheme costs more"):
        rows = compare_driver(ProblemSpec(problem="sg2d_ring", t_end=1.0, cadence=10))
        by_scheme = {r.scheme: r for r in rows}
        n_steps = 10
        assert by_scheme["esavs"].total_iters == 0
        assert by_scheme["eavfs"].total_iters >= 2 * n_steps
        assert by_scheme["eavfs"].wall_seconds > by_scheme["esavs"].wall_seconds
        # avf.py's counts; each run also transforms its initial u and v once,
        # for the t = 0 energies, which are set aside
        per_step = 2 * n_steps + (2 * by_scheme["eavfs"].total_iters + 2 * n_steps)
        assert len(transforms) - 2 * len(rows) == per_step


def test_criterion_7_invariant_suite():
    with criterion(7, "Parseval, roundtrip, det-1, series branch, discrete gradient, parts"):
        rng = np.random.default_rng(99)
        # DFT roundtrip and Parseval
        g = es.make_grid(-2.0, 2.0, 64, 1)
        u = Field(g, rng.normal(size=64) + 1j * rng.normal(size=64))
        back = inverse_values(forward_values(u.values, g), g)
        np.testing.assert_allclose(back, u.values, atol=1e-13)
        mode_sq = g.cell * np.sum(np.abs(forward_values(u.values, g)) ** 2) / g.size
        assert oracles.norm_l2(u) ** 2 == pytest.approx(mode_sq, rel=1e-12)
        # determinant-1 exponential blocks
        tables = es.build_kg_tables(g, es.fd_laplacian_eigenvalues(g), 1.7, 0.23)
        np.testing.assert_allclose(tables.e11 * tables.e11 - tables.e12 * tables.e21,
                                   1.0, atol=1e-13)
        # series-branch consistency at x = 1e-3
        x = np.array([1e-3])
        s_series = 1.0 - x**2 / 6.0 * (1.0 - x**2 / 20.0 * (1.0 - x**2 / 42.0))
        c_series = 0.5 * (1.0 - x**2 / 12.0 * (1.0 - x**2 / 30.0 * (1.0 - x**2 / 56.0)))
        assert sin_over_x(x)[0] == pytest.approx(s_series[0], rel=1e-10)
        assert versine_over_x2(x)[0] == pytest.approx(c_series[0], rel=1e-10)
        # discrete-gradient identity
        entry = get_entry("sg1d")
        problem = entry.make_problem(g, 1.0)
        from expsav.avf import avf_gradient_kg
        u_old = rng.normal(size=64)
        u_new = u_old + rng.normal(size=64)
        fbar = avf_gradient_kg(problem, u_old, u_new)
        lhs = g.cell * np.sum(fbar * (u_new - u_old))
        rhs = g.cell * np.sum(problem.G(u_new) - problem.G(u_old))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # summation by parts: ||d+ u||^2 = -<B2 u, u>
        vals = rng.normal(size=64)
        b2u = apply_multipliers(vals.astype(complex),
                                es.fd_laplacian_eigenvalues(g).astype(complex), g).real
        lhs = oracles.forward_diff_norm(Field(g, vals)) ** 2
        rhs = -g.cell * float(np.sum(b2u * vals))
        assert lhs == pytest.approx(rhs, rel=1e-12)
