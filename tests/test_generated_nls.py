"""Generated Schroedinger problems: the library contract on problems a user can build.

Hypothesis draws (derandomized, with a capped example count) the grids of
tests/test_generated_wave.py (1-D and 2-D, 2 to 8 nodes per axis, square or
not, a 2-node last axis included); beta of either sign, |beta| in [0.1, 3];
tau and C0 > 0; and random complex initial data. Over three steps:

* esavs conserves E_mod within criterion 4's 1e-9 max(1, |E0|);
* each esavs step matches the dense oracle to 1e-11 max(1, |ref|);
* a step of either scheme fails only with SolverError or ValueError, never
  with a numpy warning or any other exception.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsav.avf import FixedPointConfig, eavf_step_nls
from expsav.grids import GridSpec, spectral_laplacian_eigenvalues
from expsav.nls import NlsProblem, nls_init, nls_modified_energy, nls_step
from expsav.tables import build_nls_tables

import oracles
from test_generated_wave import LAYOUTS, grids, steps


# tau and C0 are kept off subnormal values, as in tests/test_generated_wave.py
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(grid=grids(), beta=st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0)),
       tau=st.floats(1e-3, 0.5), c0=st.floats(1e-3, 10.0), amplitude=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
@example(grid=LAYOUTS["6x2"], beta=-2.0, tau=0.2, c0=0.5, amplitude=1.5, seed=1)
@example(grid=LAYOUTS["4x8"], beta=3.0, tau=0.4, c0=1.0, amplitude=3.0, seed=2)
# |tau lam| = 79 at the Nyquist mode, where a quadrature phi in the oracle
# loses digits
@example(grid=GridSpec(a=(0.0,), b=(0.5,), n=(2,)), beta=-1.0, tau=0.5, c0=1.0, amplitude=1.0,
         seed=0)
def test_generated_nls_problem(grid, beta, tau, c0, amplitude, seed):
    rng = np.random.default_rng(seed)
    re, im = amplitude * rng.normal(size=(2, grid.size))
    u0 = re + 1j * im
    problem = NlsProblem(grid=grid, beta=beta, u0=lambda *coords: u0.reshape(grid.n), C0=c0)
    lam = spectral_laplacian_eigenvalues(grid)
    tables = build_nls_tables(grid, lam, tau)
    start = nls_init(problem)

    esavs = steps(nls_step, start, tables, problem)
    e0 = nls_modified_energy(start, problem)
    for state in esavs:
        assert abs(nls_modified_energy(state, problem) - e0) <= 1e-9 * max(1.0, abs(e0))
    for before, after in zip([start] + esavs, esavs):
        u_ref, q_ref = oracles.dense_nls_step(before, problem, lam, tau)
        for got, ref in ((after.u.values, u_ref), (after.q, q_ref)):
            scale = max(1.0, np.max(np.abs(ref)))
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-11 * scale)

    cfg = FixedPointConfig()
    steps(lambda st, tabs, prob: eavf_step_nls(st, tabs, prob, cfg)[0], start, tables, problem)
