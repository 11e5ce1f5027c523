"""Linearly implicit exponential integrator for the cubic Schroedinger equation.

i u_t + Lap(u) + beta |u|^2 u = 0 on a periodic box, discretized
pseudo-spectrally (the Laplacian is diagonal in Fourier space with symbol
lam). The auxiliary variable q = sqrt(<|u|^4, 1> + C0) quadratizes the
quartic energy term. One step reads

    u' = e u + q^{n+1/2} * Phi gamma,    e = F^-1 expD F,    Phi = i beta tau F^-1 Sigma F,
    gamma = |uhat|^2 uhat / sqrt(<|uhat|^4, 1> + C0),

with uhat the (3 u^n - u^{n-1})/2 extrapolation (u^0 at the first step),
and q^{n+1/2} = q + Re<gamma, u' - u> closes it in ONE real scalar equation:

    q^{n+1/2} = (q + Re<gamma, e u - u>) / (1 - Re<gamma, Phi gamma>),
    q' = 2 q^{n+1/2} - q.

The state keeps the spectrum of u: a step transforms gamma forward, takes
<gamma, e u> and <gamma, Phi gamma> by Parseval and inverts once for u':
two complex FFTs and one scalar division.

The conserved functional (see nls_modified_energy) is
<Lap u, u> + beta/2 q^2 - beta/2 C0, which reduces to the continuous
Hamiltonian integral of (-|grad u|^2 + beta/2 |u|^4) at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fourier
from .errors import SolverError, require_positive
# unused here; kept only because bench/tracer.py patches nls.apply_multipliers
from .fourier import apply_multipliers  # noqa: F401
from .grids import Field, GridSpec, State, sample, spectral_laplacian_eigenvalues
from .tables import NlsTables

# a closure denominator below this, relative to 1 + |Re<gamma, Phi gamma>|, is singular
_SINGULAR_TOL = 1e-14


@dataclass(frozen=True)
class NlsProblem:
    """Cubic Schroedinger equation with nonlinearity strength beta."""

    grid: GridSpec
    beta: float
    u0: Callable
    C0: float = 0.0


# the wave function needs no second field: the common record is the state
NlsState = State


# The reductions here stay on BLAS (np.dot, np.vdot), unlike the wave code's
# einsum: at 4096 points einsum is 2-3x slower than either (timeit, one
# thread: 5.5 against 2.4 us for np.dot, 8.2 against 3.6 us for np.vdot).
# The catalog's NLS arrays sit below OpenBLAS's threading threshold, so
# their run.csv bytes match at 1 and 2 threads.

def quartic_sum(u: np.ndarray, grid: GridSpec) -> float:
    """<|u|^4, 1> as cell * sum (re^2 + im^2)^2: products, no hypot and no pow."""
    a2 = u.real * u.real + u.imag * u.imag
    return grid.cell * float(np.dot(a2, a2))


def nls_init(problem: NlsProblem) -> NlsState:
    """Sample u0 and the consistent q(0) = sqrt(<|u0|^4, 1> + C0)."""
    grid = problem.grid
    u0 = sample(grid, problem.u0).astype(np.complex128)
    radicand = quartic_sum(u0, grid) + problem.C0
    if not 0.0 < radicand < np.inf:
        raise ValueError(
            f"<|u0|^4, 1> + C0 = {radicand:g} is not finite and positive; check C0"
        )
    return NlsState(u=Field(grid, u0), q=float(np.sqrt(radicand)),
                    u_prev=None, n=0, t=0.0)


def check_nls_tables(tables: NlsTables, problem: NlsProblem) -> None:
    """Refuse tables built for another grid or from another Laplacian."""
    if tables.grid != problem.grid:
        raise ValueError("tables built on a different grid")
    if not tables.spectral_laplacian:
        raise ValueError("tables not built from spectral_laplacian_eigenvalues(grid), "
                         "the Laplacian of the energies")


@np.errstate(all="ignore")
def nls_step(state: NlsState, tables: NlsTables, problem: NlsProblem) -> NlsState:
    """Advance one step of size tables.tau; returns the new state."""
    check_nls_tables(tables, problem)
    grid = problem.grid
    cell = grid.cell
    tau = tables.tau
    u, q = state.u.values, state.q

    uhat = state.predictor()
    abs2 = uhat.real * uhat.real + uhat.imag * uhat.imag
    s2 = require_positive(cell * float(np.dot(abs2, abs2)) + problem.C0, "<|uhat|^4, 1> + C0")
    s = np.sqrt(s2)
    gamma = (abs2 * uhat) / s
    fgamma = fourier.forward_values(gamma, grid)
    fphi_gamma = (1j * problem.beta * tau) * (tables.sigma * fgamma)

    # <a, b> = cell sum a conj(b) = cell/N sum A conj(B) (Parseval); vdot conjugates a
    cell_n = cell / grid.size
    a = cell_n * np.vdot(fphi_gamma, fgamma).real         # Re<gamma, Phi gamma>
    if not np.isfinite(a):
        raise SolverError(f"closure coefficient Re<gamma, Phi gamma> is non-finite ({a:g})")
    denom = 1.0 - a
    if abs(denom) < _SINGULAR_TOL * (1.0 + abs(a)):
        raise SolverError(f"closure is singular (1 - Re<gamma, Phi gamma> = {denom:g})")
    feu = tables.expD * state.u_spectrum
    eu_u = cell_n * np.vdot(feu, fgamma).real - cell * np.vdot(u, gamma).real  # Re<gamma, eu - u>
    q_half = (q + eu_u) / denom

    fu_new = feu + q_half * fphi_gamma
    u_new = fourier.inverse_values(fu_new, grid)
    q_new = 2.0 * q_half - q
    return state.advance(tau, u_new, q_new, u_spectrum=fu_new)


def nls_kinetic(state: NlsState, problem: NlsProblem) -> float:
    """<Lap u, u> = cell/N * sum lam |u_k|^2 by Parseval (a real number <= 0)."""
    grid, fu = problem.grid, state.u_spectrum
    lam = spectral_laplacian_eigenvalues(grid)
    return grid.cell / grid.size * float(np.vdot(fu, lam * fu).real)


def nls_modified_energy(state: NlsState, problem: NlsProblem) -> float:
    """Conserved functional <Lap u, u> + beta/2 q^2 - beta/2 C0.

    The sign convention is fixed so the value at t = 0 equals the discrete
    Hamiltonian <Lap u, u> + beta/2 <|u|^4, 1>; the negated functional is
    conserved too (trivially), but does not reduce to the Hamiltonian.
    """
    return nls_kinetic(state, problem) + 0.5 * problem.beta * (state.q**2 - problem.C0)


def nls_hamiltonian(state: NlsState, problem: NlsProblem) -> float:
    """Discrete Hamiltonian <Lap u, u> + beta/2 <|u|^4, 1> (monitored only)."""
    quartic = quartic_sum(state.u.values, problem.grid)
    return nls_kinetic(state, problem) + 0.5 * problem.beta * quartic
