"""Generated wave problems: the library contract on problems a user can build.

Hypothesis draws (derandomized, with a capped example count) 1-D and 2-D
grids of 2 to 8 nodes per axis, square or not, a 2-node last axis included;
omega, tau and C0 > 0; G = a1 u^2/2 + a2 u^4/4 with a1, a2 >= 0, given with
its exact pair and chord mean; and random initial data. Over three steps:

* esavs conserves E_mod within criterion 3's 1e-10 max(1, |E0|);
* each esavs step matches the dense oracle to 1e-11 max(1, |ref|), the
  oracle's own roundoff growing with the size of the values;
* every eavfs step that succeeds keeps E_orig within 1e-10 max(1, |E0|);
* a step of either scheme fails only with SolverError or ValueError, never
  with a numpy warning or any other exception.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsav.avf import FixedPointConfig, eavf_step_kg
from expsav.errors import SolverError
from expsav.grids import GridSpec, fd_laplacian_eigenvalues
from expsav.kg import KgProblem, kg_init, kg_modified_energy, kg_original_energy, kg_step
from expsav.tables import build_kg_tables

import oracles

STEPS = 3


def quartic_problem(grid, omega, c0, a1, a2, u0, v0):
    """u_tt = omega^2 Lap u - G'(u) for G = a1 u^2/2 + a2 u^4/4."""

    def G(u):
        u2 = u * u
        return u2 * (0.5 * a1 + 0.25 * a2 * u2)

    def Gp(u):
        return u * (a1 + a2 * (u * u))

    def chord_mean(a, b):  # (G(b) - G(a)) / (b - a), exactly
        return (a + b) * (0.5 * a1 + 0.25 * a2 * (a * a + b * b))

    def field(values):
        return lambda *coords: values.reshape(grid.n)

    return KgProblem(grid=grid, omega=omega, G=G, Gp=Gp, phi1=field(u0), phi2=field(v0),
                     C0=c0, chord_mean=chord_mean,
                     sum_G_and_Gp=lambda u: (float(np.sum(G(u))), Gp(u)))


@st.composite
def grids(draw):
    n = draw(st.lists(st.sampled_from([2, 4, 6, 8]), min_size=1, max_size=2))
    a = [draw(st.floats(-5.0, 5.0)) for _ in n]
    length = [draw(st.floats(0.5, 20.0)) for _ in n]
    return GridSpec(a=tuple(a), b=tuple(x + d for x, d in zip(a, length)), n=tuple(n))


def steps(step, state, tables, problem):
    """Up to STEPS states after state; stops at a SolverError or ValueError,
    and turns every numpy warning into an error."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(STEPS):
            try:
                state = step(state, tables, problem)
            except (SolverError, ValueError):
                break
            out.append(state)
    return out


LAYOUTS = {"6x2": GridSpec(a=(0.0, -1.0), b=(2.0, 3.0), n=(6, 2)),
           "4x8": GridSpec(a=(-1.0, 0.0), b=(1.0, 7.0), n=(4, 8))}


# omega, tau and C0 are kept off subnormal values: with C0 = 5e-324 and zero
# data the dense oracle forms (tau / (4 s^2)) * 0 = inf * 0, where the package
# steps on (a hand check); that is the oracle's limit, not the contract's
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(grid=grids(), omega=st.floats(0.1, 3.0), tau=st.floats(1e-3, 0.5),
       c0=st.floats(1e-3, 10.0), a1=st.floats(0.0, 4.0), a2=st.floats(0.0, 4.0),
       amplitude=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
@example(grid=LAYOUTS["6x2"], omega=1.3, tau=0.2, c0=0.5, a1=1.0, a2=2.0, amplitude=1.5,
         seed=1)
@example(grid=LAYOUTS["4x8"], omega=2.0, tau=0.4, c0=1.0, a1=0.0, a2=4.0, amplitude=3.0,
         seed=2)
def test_generated_wave_problem(grid, omega, tau, c0, a1, a2, amplitude, seed):
    rng = np.random.default_rng(seed)
    u0, v0 = amplitude * rng.normal(size=(2, grid.size))
    problem = quartic_problem(grid, omega, c0, a1, a2, u0, v0)
    tables = build_kg_tables(grid, fd_laplacian_eigenvalues(grid), omega, tau)
    start = kg_init(problem)

    esavs = steps(kg_step, start, tables, problem)
    e0 = kg_modified_energy(start, problem)
    for state in esavs:
        assert abs(kg_modified_energy(state, problem) - e0) <= 1e-10 * max(1.0, abs(e0))
    operators = oracles.dense_wave_operators(grid, omega, tau)
    for before, after in zip([start] + esavs, esavs):
        u_ref, v_ref, q_ref = oracles.dense_kg_step(before, problem, omega, tau, operators)
        for got, ref in ((after.u.values, u_ref), (after.v.values, v_ref), (after.q, q_ref)):
            scale = max(1.0, np.max(np.abs(ref)))
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-11 * scale)

    cfg = FixedPointConfig()
    eavfs = steps(lambda st, tabs, prob: eavf_step_kg(st, tabs, prob, cfg)[0], start, tables,
                  problem)
    e0 = kg_original_energy(start, problem)
    for state in eavfs:
        assert abs(kg_original_energy(state, problem) - e0) <= 1e-10 * max(1.0, abs(e0))
