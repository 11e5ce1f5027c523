"""Energy-conserving exponential integrators for nonlinear wave equations.

Two families on periodic grids (1D/2D):

* a linearly implicit scheme built on a scalar auxiliary variable, which
  conserves a quadratized modified energy exactly and solves one scalar
  equation per step, for the half-step auxiliary value, and
* a fully implicit averaged-gradient baseline that conserves the discrete
  Hamiltonian and is solved by fixed-point iteration.

The stiff linear part is integrated exactly through closed-form per-mode
exponentials diagonalized by the FFT.
"""

from .avf import FixedPointConfig, eavf_step_kg, eavf_step_nls
from .diagnostics import RunRecord, convergence_orders, error_norms
from .errors import SolverError
from .grids import (Field, GridSpec, fd_laplacian_eigenvalues, make_grid, sample,
                    spectral_laplacian_eigenvalues)
from .kg import (KgProblem, KgState, kg_init, kg_modified_energy, kg_original_energy,
                 kg_step)
from .nls import NlsProblem, nls_hamiltonian, nls_init, nls_modified_energy, nls_step
from .runner import ProblemSpec, compare_driver, convergence_driver, run
from .tables import build_kg_tables, build_nls_tables

__all__ = [
    "Field", "FixedPointConfig", "GridSpec", "KgProblem", "KgState",
    "NlsProblem", "ProblemSpec", "RunRecord", "SolverError",
    "build_kg_tables", "build_nls_tables", "compare_driver", "convergence_driver",
    "convergence_orders", "eavf_step_kg", "eavf_step_nls", "error_norms",
    "fd_laplacian_eigenvalues", "kg_init", "kg_modified_energy",
    "kg_original_energy", "kg_step", "make_grid", "nls_hamiltonian", "nls_init",
    "nls_modified_energy", "nls_step", "run", "sample",
    "spectral_laplacian_eigenvalues",
]
