"""Linearly implicit exponential integrator for the cubic Schroedinger equation.

i u_t + Lap(u) + beta |u|^2 u = 0 on a periodic box, discretized
pseudo-spectrally (the Laplacian is diagonal in Fourier space with symbol
lam). The auxiliary variable q = sqrt(<|u|^4, 1> + C0) quadratizes the
quartic energy term. One step reads

    u' = expD u + Phi gamma * q^{n+1/2},    Phi = i beta tau F^-1 Sigma F,
    gamma = |uhat|^2 uhat / sqrt(<|uhat|^4, 1> + C0),

with uhat the (3 u^n - u^{n-1})/2 extrapolation (u^0 at the first step).
Pairing the update with gamma in both inner-product slots closes a 2x2
linear system for (X, Y) = (<gamma, u'>, <u', gamma>), after which u' is
recovered explicitly and q advances through its midpoint value:

    q^{n+1/2} = q^n + (X + Y)/2 - Re<gamma, u^n>,   q' = 2 q^{n+1/2} - q^n.

The state keeps the spectrum of u: a step transforms gamma forward, takes
<gamma, Phi gamma> and <gamma, b> by Parseval and inverts once for u':
two complex FFTs and one 2x2 solve.

The conserved functional (see nls_modified_energy) is
<Lap u, u> + beta/2 q^2 - beta/2 C0, which reduces to the continuous
Hamiltonian integral of (-|grad u|^2 + beta/2 |u|^4) at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import fourier
from .errors import SolverError, require_positive
# unused here; kept only because bench/tracer.py patches nls.apply_multipliers
from .fourier import apply_multipliers  # noqa: F401
from .grids import ComplexField, GridSpec, State, sample, spectral_laplacian_eigenvalues
from .tables import NlsTables

# determinant of the 2x2 closure below this (relative) means corrupted tables
_DET_TOL = 1e-14


@dataclass(frozen=True)
class NlsProblem:
    """Cubic Schroedinger equation with nonlinearity strength beta."""

    grid: GridSpec
    beta: float
    u0: Callable
    C0: float = 0.0


# the wave function needs no second field: the common record is the state
NlsState = State


def nls_init(problem: NlsProblem) -> NlsState:
    """Sample u0 and the consistent q(0) = sqrt(<|u0|^4, 1> + C0)."""
    grid = problem.grid
    u0 = sample(grid, problem.u0).astype(np.complex128)
    radicand = grid.cell * float(np.sum(np.abs(u0) ** 4)) + problem.C0
    if not 0.0 < radicand < np.inf:
        raise ValueError(
            f"<|u0|^4, 1> + C0 = {radicand:g} is not finite and positive; check C0"
        )
    return NlsState(u=ComplexField(grid, u0), q=float(np.sqrt(radicand)),
                    u_prev=None, n=0, t=0.0)


@np.errstate(all="ignore")
def nls_step(state: NlsState, tables: NlsTables, problem: NlsProblem) -> NlsState:
    """Advance one step of size tables.tau; returns the new state."""
    grid = problem.grid
    if tables.grid != grid:
        raise ValueError("tables built on a different grid")
    cell = grid.cell
    tau = tables.tau
    u, q = state.u.values, state.q

    uhat = state.predictor()
    abs2 = np.abs(uhat) ** 2
    s2 = require_positive(cell * float(np.sum(abs2**2)) + problem.C0, "<|uhat|^4, 1> + C0")
    s = np.sqrt(s2)
    gamma = (abs2 * uhat) / s
    fgamma = fourier.forward_values(gamma, grid)
    fphi_gamma = (1j * problem.beta * tau) * (tables.sigma * fgamma)

    # <a, b> = cell sum a conj(b) = cell/N sum A conj(B) (Parseval); vdot conjugates a
    cell_n = cell / grid.size
    ip_gamma_u = cell * np.vdot(u, gamma)                 # <gamma, u^n>
    # <g,u> + <u,g> = 2 Re<g,u>
    fb = tables.expD * state.u_spectrum + fphi_gamma * (q - ip_gamma_u.real)
    a = cell_n * np.vdot(fphi_gamma, fgamma)              # <gamma, Phi gamma>

    # [[1 - a/2, -a/2], [-conj(a)/2, 1 - conj(a)/2]] @ (X, Y) = (<gamma,b>, <b,gamma>)
    if not np.isfinite(a):
        raise SolverError(f"2x2 closure coefficient <gamma, Phi gamma> is non-finite ({a:g})")
    det = 1.0 - a.real
    if abs(det) < _DET_TOL * (1.0 + abs(a)):
        raise SolverError(f"2x2 closure is singular (det = {det:g}); tables are corrupted")
    rhs1 = cell_n * np.vdot(fb, fgamma)                   # <gamma, b>
    rhs2 = np.conj(rhs1)                                  # <b, gamma>
    ac = np.conj(a)
    x = ((1.0 - 0.5 * ac) * rhs1 + 0.5 * a * rhs2) / det
    y = (0.5 * ac * rhs1 + (1.0 - 0.5 * a) * rhs2) / det

    fu_new = (0.5 * (x + y)) * fphi_gamma + fb
    u_new = fourier.inverse_values(fu_new, grid)
    q_half = q + 0.5 * (x + y).real - ip_gamma_u.real
    q_new = 2.0 * q_half - q
    return state.advance(tau, u_new, q_new, u_spectrum=fu_new)


# the eigenvalues are built once per grid
_laplacian_symbol = lru_cache(maxsize=16)(spectral_laplacian_eigenvalues)


def nls_kinetic(state: NlsState, problem: NlsProblem) -> float:
    """<Lap u, u> = cell/N * sum lam |u_k|^2 by Parseval (a real number <= 0)."""
    grid, fu = problem.grid, state.u_spectrum
    return grid.cell / grid.size * float(np.vdot(fu, _laplacian_symbol(grid) * fu).real)


def nls_modified_energy(state: NlsState, problem: NlsProblem) -> float:
    """Conserved functional <Lap u, u> + beta/2 q^2 - beta/2 C0.

    The sign convention is fixed so the value at t = 0 equals the discrete
    Hamiltonian <Lap u, u> + beta/2 <|u|^4, 1>; the negated functional is
    conserved too (trivially), but does not reduce to the Hamiltonian.
    """
    return nls_kinetic(state, problem) + 0.5 * problem.beta * (state.q**2 - problem.C0)


def nls_hamiltonian(state: NlsState, problem: NlsProblem) -> float:
    """Discrete Hamiltonian <Lap u, u> + beta/2 <|u|^4, 1> (monitored only)."""
    quartic = problem.grid.cell * float(np.sum(np.abs(state.u.values) ** 4))
    return nls_kinetic(state, problem) + 0.5 * problem.beta * quartic
