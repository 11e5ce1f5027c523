"""Peak heap of one step, for each stepper and family, without a clock.

The budget is tracemalloc's peak during one step taken after five, at
catalog defaults, in units of one field: grid.size float64 values for the
wave, complex128 for NLS. It counts what the step allocates, the state it
returns included (a wave esavs step returns u' and the spectra of u' and
v'). Each bound is the measured peak plus RESERVE, less than one field, so
a step that keeps one more full-size temporary alive at its peak fails.
"""

import tracemalloc

import pytest

from expsav.avf import FixedPointConfig, eavf_step_kg, eavf_step_nls
from expsav.catalog import get_entry
from expsav.kg import kg_init, kg_step
from expsav.nls import nls_init, nls_step
from expsav.tables import build_kg_tables, build_nls_tables

MEASURED_PEAK = {
    ("esavs", "sg1d"): 6.98, ("esavs", "sg2d_ring"): 7.06, ("esavs", "kg2d_cubic"): 7.06,
    ("esavs", "nls1d_soliton"): 6.52, ("esavs", "nls2d_planewave"): 6.52,
    ("eavfs", "sg1d"): 12.95, ("eavfs", "sg2d_ring"): 11.17, ("eavfs", "kg2d_cubic"): 11.06,
    ("eavfs", "nls1d_soliton"): 12.04, ("eavfs", "nls2d_planewave"): 12.04,
}
RESERVE = 0.5


def catalog_stepper(scheme, problem_id):
    """(one step as state -> state, the initial state, bytes of one field)."""
    entry = get_entry(problem_id)
    grid = entry.make_grid()
    problem = entry.make_problem(grid, entry.default_c0)
    lam = entry.laplacian_eigenvalues(grid)
    if entry.kind == "wave":
        tables = build_kg_tables(grid, lam, problem.omega, entry.default_tau)
        state, esavs, eavfs, field_bytes = kg_init(problem), kg_step, eavf_step_kg, 8
    else:
        tables = build_nls_tables(grid, lam, entry.default_tau)
        state, esavs, eavfs, field_bytes = nls_init(problem), nls_step, eavf_step_nls, 16
    cfg = FixedPointConfig()
    step = ((lambda st: esavs(st, tables, problem)) if scheme == "esavs"
            else (lambda st: eavfs(st, tables, problem, cfg)[0]))
    return step, state, field_bytes * grid.size


@pytest.mark.parametrize("scheme,problem_id", MEASURED_PEAK)
def test_step_peak_heap_budget(scheme, problem_id):
    step, state, field_bytes = catalog_stepper(scheme, problem_id)
    for _ in range(5):
        state = step(state)
    tracemalloc.start()
    try:
        state = step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / field_bytes <= MEASURED_PEAK[scheme, problem_id] + RESERVE
