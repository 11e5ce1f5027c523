"""Linearly implicit exponential integrator for the cubic Schroedinger equation.

i u_t + Lap(u) + beta |u|^2 u = 0 on a periodic box, discretized
pseudo-spectrally (the Laplacian is diagonal in Fourier space with symbol
lam). The auxiliary variable q = sqrt(<|u|^4, 1> + C0) quadratizes the
quartic energy term. A step is kg.sav_solve, the closure the wave shares,
given w = 4 |uhat|^2 uhat (the gradient of |u|^4, so the wave's 1/(4 s)
constants hold), the phase flow e u of the kept spectrum and the kernel
(i beta tau / 4) sigma. With gamma = w / (4 s) and Phi = i beta tau F^-1 sigma F:

    u' = e u + q^{n+1/2} * Phi gamma.

The step refuses a non-finite Re<gamma, Phi gamma> and a singular
1 - Re<gamma, Phi gamma>, and makes two complex FFTs.

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
from .kg import sav_solve
from .tables import NlsTables

# a closure denominator below this, relative to 1 + |Re<gamma, Phi gamma>|, is singular
_SINGULAR_TOL = 1e-14


@dataclass(frozen=True)
class NlsProblem:
    """Cubic Schroedinger equation with nonlinearity strength beta.

    The initial data u0 is sampled by grids.sample: it takes the coordinates
    broadcastable to the grid (x in 1D; x of shape (n0, 1), y of (1, n1) in
    2D) and must act elementwise.
    """

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
    """Refuse tables built for another grid (the builder already refused any
    Laplacian but the grid's spectral one)."""
    if tables.grid != problem.grid:
        raise ValueError("tables built on a different grid")


def _inner(a_hat: np.ndarray, b_hat: np.ndarray, grid: GridSpec) -> complex:
    """<a, b> = cell sum a conj(b) = cell/N sum A conj(B) (Parseval); vdot conjugates b_hat."""
    return grid.cell / grid.size * np.vdot(b_hat, a_hat)


def _closure_denominator(a: float) -> float:
    """1 - a for a = Re<gamma, Phi gamma>; refuses a non-finite a and a singular closure."""
    if not np.isfinite(a):
        raise SolverError(f"closure coefficient Re<gamma, Phi gamma> is non-finite ({a:g})")
    denom = 1.0 - a
    if abs(denom) < _SINGULAR_TOL * (1.0 + abs(a)):
        raise SolverError(f"closure is singular (1 - Re<gamma, Phi gamma> = {denom:g})")
    return denom


@np.errstate(all="ignore")
def nls_step(state: NlsState, tables: NlsTables, problem: NlsProblem) -> NlsState:
    """Advance one step of size tables.tau; returns the new state."""
    check_nls_tables(tables, problem)
    grid = problem.grid
    uhat = state.predictor()
    abs2 = uhat.real * uhat.real + uhat.imag * uhat.imag
    s2 = require_positive(grid.cell * float(np.dot(abs2, abs2)) + problem.C0, "<|uhat|^4, 1> + C0")
    abs2 *= 4.0
    fu_new, _, q_new, _ = sav_solve(state, abs2 * uhat, s2, tables.expD * state.u_spectrum,
                                    tables.sigma, 0.25j * problem.beta * tables.tau,
                                    _inner, _closure_denominator)
    return state.advance(tables.tau, fourier.inverse_values(fu_new, grid), q_new,
                         u_spectrum=fu_new)


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
