"""Benchmark workloads, their seeded inputs and their correctness gates.

A workload is one catalog problem x scheme at a fixed size and run length.
Seed 0 runs the catalog data exactly; any other seed registers a derived
catalog entry whose initial data carry a small smooth amplitude
perturbation drawn from that seed, so the package only ever sees a
catalog id and the inputs generated for it.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the package is imported from this checkout's sources and nowhere else
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
import expsav  # noqa: E402

if not Path(expsav.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"expsav imported from {expsav.__file__}, not from {SRC}")

from expsav import avf, catalog, kg, nls, runner, tables
from expsav.errors import SolverError
from expsav.runner import ProblemSpec

# final err_l2 of nls1d_diag at seed 0, measured at the commit that added
# this benchmark; later commits must reproduce it to REFERENCE_RTOL
REFERENCE_ERR_L2 = {"nls1d_diag": 4.405649486089312e-03}
REFERENCE_RTOL = 1e-8

# relative amplitude of the seeded perturbation of the initial data
PERTURB_AMPLITUDE = 1e-2
# fixed-point stopping tolerance of the eavfs workload, as in the acceptance suite
FP_TOL = 1e-14


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    scheme: str
    n: int
    tau: float
    run_steps: int              # steps of one runner.run
    block_steps: int            # steps of one timed step block
    cadence: int                # diagnostics every this many steps
    snapshots: int = 0          # snapshot files, evenly spaced up to the end

    @property
    def drift_gate(self) -> float:
        """Acceptance-suite drift tolerance, relative to max(1, |E0|)."""
        kind = catalog.get_entry(self.problem).kind
        return 1e-10 if kind == "wave" else 1e-9


# Why each workload is here is recorded with it in BENCHMARK.json: wave2d_sav
# is led by transforms and the scalar closure, wave2d_avf by the nonlinearity
# kernels inside the fixed point, nls1d_diag by diagnostics, I/O and per-step
# overhead on small arrays. Diagnostics of the wave workloads run only at the
# first and last step.
WORKLOADS = {w.name: w for w in (
    Workload("wave2d_sav", problem="sg2d_ring", scheme="esavs", n=200, tau=0.1,
             run_steps=100, block_steps=100, cadence=100),
    Workload("wave2d_avf", problem="kg2d_cubic", scheme="eavfs", n=200, tau=0.1,
             run_steps=4, block_steps=10, cadence=4),
    Workload("nls1d_diag", problem="nls1d_soliton", scheme="esavs", n=4096, tau=0.01,
             run_steps=100, block_steps=100, cadence=1, snapshots=5),
)}


def seeded_problem_id(workload: Workload, seed: int) -> str:
    """Catalog id holding the workload's inputs for this seed; registers it if new."""
    if seed == 0:
        return workload.problem
    derived_id = f"{workload.problem}~seed{seed}"
    if derived_id not in catalog.CATALOG:
        base = catalog.get_entry(workload.problem)
        catalog.register(dataclasses.replace(
            base, id=derived_id,
            make_problem=_perturbed_factory(base.make_problem, base.kind, seed)))
    return derived_id


def _perturbed_factory(make_problem, kind: str, seed: int):
    rng = np.random.default_rng(seed)
    amplitude = PERTURB_AMPLITUDE * rng.uniform(0.5, 1.0)
    # one low wavenumber and phase per axis; the shape stays smooth on the domain
    freqs = rng.uniform(0.05, 0.2, size=2)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
    # the factor is generated once per grid, so set-up costs what seed 0 costs
    factors = {}

    def factor(grid):
        if grid not in factors:
            bump = 1.0
            for x, k, p in zip(grid.coords(), freqs, phases):
                bump = bump * np.cos(k * x + p)
            factors[grid] = 1.0 + amplitude * bump
        return factors[grid]

    def make(grid, c0):
        problem = make_problem(grid, c0)
        fac = factor(grid)

        def scaled(fn):
            return lambda *coords: fac * fn(*coords)

        if kind == "wave":
            return dataclasses.replace(problem, phi1=scaled(problem.phi1),
                                       phi2=scaled(problem.phi2))
        return dataclasses.replace(problem, u0=scaled(problem.u0))

    return make


def run_spec(workload: Workload, seed: int, out: str | None) -> ProblemSpec:
    t_end = workload.run_steps * workload.tau
    snaps = tuple(t_end * (k + 1) / workload.snapshots for k in range(workload.snapshots))
    return ProblemSpec(problem=seeded_problem_id(workload, seed), scheme=workload.scheme,
                       n=workload.n, tau=workload.tau, t_end=t_end,
                       cadence=workload.cadence, out=out, snapshot_times=snaps,
                       fp_tol=FP_TOL)


# --------------------------------------------------------------------------
# set-up and stepping through the package's public functions
# --------------------------------------------------------------------------


@dataclass
class Prepared:
    """What runner.run builds before its loop, plus the stepper to drive."""

    entry: catalog.CatalogEntry
    problem: object
    tables: object
    state: object
    step: object                # state -> (state, fixed-point iterations)


def prepare(spec: ProblemSpec) -> Prepared:
    """The set-up calls runner.run makes before its loop."""
    entry, grid, problem, tau, _, _ = runner.resolve(spec)
    lam = entry.laplacian_eigenvalues(grid)
    if entry.kind == "wave":
        tabs = tables.build_kg_tables(grid, lam, problem.omega, tau)
        state = kg.kg_init(problem)
    else:
        tabs = tables.build_nls_tables(grid, lam, tau)
        state = nls.nls_init(problem)
    return Prepared(entry, problem, tabs, state, _stepper(entry.kind, spec, tabs, problem))


def _stepper(kind: str, spec: ProblemSpec, tabs, problem):
    # module attributes are looked up per call, so a tracer's wrappers apply
    cfg = avf.FixedPointConfig(tol=spec.fp_tol, max_iters=spec.fp_max_iters)
    if spec.scheme == "eavfs":
        if kind == "wave":
            return lambda st: avf.eavf_step_kg(st, tabs, problem, cfg)
        return lambda st: avf.eavf_step_nls(st, tabs, problem, cfg)
    if kind == "wave":
        return lambda st: (kg.kg_step(st, tabs, problem), 0)
    return lambda st: (nls.nls_step(st, tabs, problem), 0)


def energies(prep: Prepared, state) -> tuple[float, float]:
    if prep.entry.kind == "wave":
        return (kg.kg_modified_energy(state, prep.problem),
                kg.kg_original_energy(state, prep.problem))
    return (nls.nls_modified_energy(state, prep.problem),
            nls.nls_hamiltonian(state, prep.problem))


# --------------------------------------------------------------------------
# correctness gates
# --------------------------------------------------------------------------

# what a failed step or run may raise; anything else is a defect of the benchmark
RUN_ERRORS = (SolverError, ValueError, AssertionError, FloatingPointError, OSError)


def _drift_problems(workload: Workload, mod: list[float], orig: list[float]) -> list[str]:
    """Energies from t = 0 on must stay within the acceptance drift gate.

    E_mod is the scheme's conserved quantity; eavfs conserves E_orig as well.
    """
    columns = {"E_mod": mod, "E_orig": orig} if workload.scheme == "eavfs" else {"E_mod": mod}
    found = []
    for name, series in columns.items():
        drift = max(abs(e - series[0]) for e in series)
        if drift > workload.drift_gate * max(1.0, abs(series[0])):
            found.append(f"{name} drift {drift:.3e} over the gate")
    return found


def check_block(workload: Workload, prep: Prepared, final_state) -> list[str]:
    """Gates on a timed step block that started from prep.state."""
    values = [final_state.u.values] + ([final_state.v.values] if hasattr(final_state, "v") else [])
    if not all(np.all(np.isfinite(v)) for v in values) or not math.isfinite(final_state.q):
        return ["non-finite state after step block"]
    (m0, o0), (m1, o1) = energies(prep, prep.state), energies(prep, final_state)
    return _drift_problems(workload, [m0, m1], [o0, o1])


def check_run(workload: Workload, seed: int, result) -> list[str]:
    """Gates on one runner.run result."""
    recs = result.records
    values = [v for r in recs for v in (r.t, r.E_mod, r.E_orig, r.err_l2, r.err_inf)
              if v is not None]
    if not all(math.isfinite(v) for v in values):
        return ["non-finite diagnostics"]
    if not np.all(np.isfinite(result.final_state.u.values)):
        return ["non-finite final state"]
    problems = _drift_problems(workload, [r.E_mod for r in recs], [r.E_orig for r in recs])
    if len(recs) < 2 or recs[-1].t < workload.run_steps * workload.tau - 1e-9:
        problems.append("run stopped early")
    ref = REFERENCE_ERR_L2.get(workload.name)
    if seed == 0 and ref is not None:
        got = recs[-1].err_l2
        if got is None or abs(got - ref) > REFERENCE_RTOL * ref:
            problems.append(f"final err_l2 {got!r} differs from reference {ref!r}")
    return problems
