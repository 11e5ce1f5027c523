"""Linearly implicit exponential integrator for the nonlinear wave equation.

The second-order system  u_tt = omega^2 * Lap(u) - G'(u)  is rewritten with
the scalar auxiliary variable q = sqrt(<G(u), 1> + C0), which turns the
energy into a quadratic in (u, v, q):

    E = 1/2 ||v||^2 + omega^2/2 ||d+ u||^2 + q^2 - C0.

One step applies the exact flow of the stiff linear part through the
per-mode exp/phi tables and treats the nonlinearity at the extrapolated
midpoint uhat = (3 u^n - u^{n-1})/2 (u^0 at the first step), which makes
the update linear in the unknowns. With w = G'(uhat), s^2 = <G(uhat), 1> + C0
and zu = e11 u + e12 v, the step is u' = zu - (tau q^{n+1/2} / s) * phi12 w,
and q^{n+1/2} = q + <w, u' - u>/(4 s) closes it in ONE scalar equation:

    q^{n+1/2} = (q + <w, zu - u>/(4 s)) / (1 + tau/(4 s^2) * <w, phi12 w>),
    q' = q + <w, u' - u>/(2 s),
    v' = e21 u + e11 v - (tau (q+q')/(2 s)) * phi11 w    (e22 = e11, phi22 = phi11).

The update conserves E exactly in exact arithmetic, with no nonlinear
iteration anywhere. The state keeps the half spectra of u and v, where
the linear flow is a product: a step transforms w forward, takes
<w, zu> and <w, phi12 w> by Parseval, and inverts once for u': two real
FFTs and one scalar division. v' stays a half spectrum. q' uses the
physical <w, u' - u> rather than 2 q^{n+1/2} - q, which keeps the energy
drift at roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import require_positive
from .fourier import forward_values, half_inner, half_spectrum, inverse_values, real_part
from .grids import Field, GridSpec, State, fd_laplacian_eigenvalues, sample
from .tables import ExpPhiTables


@dataclass(frozen=True)
class KgProblem:
    """Wave equation u_tt = omega^2 Lap(u) - G'(u) with initial data (phi1, phi2).

    G must be a nonnegative antiderivative of Gp (so the auxiliary variable
    stays real); both act pointwise on arrays. C0 >= 0 shifts the radicand.
    chord_mean(a, b) is the closed form of the mean of Gp along the chord
    from a to b, (G(b) - G(a))/(b - a), and equals Gp(a) at a = b. The
    implicit baseline (eavfs) requires it; the SAV step ignores it.
    """

    grid: GridSpec
    omega: float
    G: Callable[[np.ndarray], np.ndarray]
    Gp: Callable[[np.ndarray], np.ndarray]
    phi1: Callable
    phi2: Callable
    C0: float = 0.0
    chord_mean: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


class KgState(State):
    """The common state record plus the velocity v = u_t.

    v is given as node values, as its half spectrum v_spectrum (as the
    steppers do), or both; the other side is transformed on first read and kept.
    """

    def __init__(self, *, v: Field | None = None, v_spectrum: np.ndarray | None = None, **common):
        if v is None and v_spectrum is None:
            raise ValueError("the velocity needs its node values or its half spectrum")
        super().__init__(**common)
        self._keep(v=v, v_spectrum=v_spectrum)

    @cached_property
    def v(self) -> Field:
        return Field(self.u.grid, real_part(inverse_values(self.v_spectrum, self.u.grid)))

    @cached_property
    def v_spectrum(self) -> np.ndarray:
        return forward_values(self.v.values, self.u.grid)


def kg_init(problem: KgProblem) -> KgState:
    """Sample the initial data and the consistent auxiliary value q(0)."""
    grid = problem.grid
    u0 = sample(grid, problem.phi1)
    v0 = sample(grid, problem.phi2)
    radicand = grid.cell * float(np.sum(problem.G(u0))) + problem.C0
    if not 0.0 < radicand < np.inf:
        raise ValueError(
            f"<G(u0), 1> + C0 = {radicand:g} is not finite and positive; check C0 and G >= 0"
        )
    return KgState(u=Field(grid, u0), v=Field(grid, v0), q=float(np.sqrt(radicand)),
                   u_prev=None, n=0, t=0.0)


def linear_flow(fu: np.ndarray, fv: np.ndarray,
                tables: ExpPhiTables) -> tuple[np.ndarray, np.ndarray]:
    """Half spectra of the exact flow exp(V)(u, v) of the linear wave system over
    one step, from the half spectra of u and v."""
    return tables.e11 * fu + tables.e12 * fv, tables.e21 * fu + tables.e11 * fv


@np.errstate(all="ignore")
def kg_step(state: KgState, tables: ExpPhiTables, problem: KgProblem) -> KgState:
    """Advance one step of size tables.tau; returns the new state."""
    grid = problem.grid
    if tables.grid != grid:
        raise ValueError("tables built on a different grid")
    cell = grid.cell
    tau = tables.tau
    u, q = state.u.values, state.q

    uhat = state.predictor()
    s2 = require_positive(cell * float(np.sum(problem.G(uhat))) + problem.C0,
                          "<G(uhat), 1> + C0")
    s = np.sqrt(s2)
    w = problem.Gp(uhat)

    fw = forward_values(w, grid)
    fzu, fzv = linear_flow(state.u_spectrum, state.v_spectrum, tables)
    fphi12_w = tables.p12 * fw

    # the one scalar equation for q^{n+1/2}, its inner products by Parseval
    w_phi12_w = half_inner(fw, fphi12_w, grid)
    denom = require_positive(1.0 + tau / (4.0 * s2) * w_phi12_w, "scalar-solve denominator")
    w_zu_u = half_inner(fw, fzu, grid) - cell * float(w @ u)
    q_half = (q + w_zu_u / (4.0 * s)) / denom

    fu_new = fzu - (tau * q_half / s) * fphi12_w
    u_new = real_part(inverse_values(fu_new, grid))
    q_new = q + cell * float(w @ (u_new - u)) / (2.0 * s)
    beta = tau * 0.5 * (q + q_new) / s
    fv_new = fzv - beta * (tables.p11 * fw)
    return state.advance(tau, u_new, q_new, u_spectrum=fu_new, v_spectrum=fv_new)


@lru_cache(maxsize=16)
def _fd_symbol(grid: GridSpec) -> np.ndarray:
    """Eigenvalues of the FD Laplacian on the half spectrum, built once per grid."""
    return half_spectrum(fd_laplacian_eigenvalues(grid), grid)


def _quadratic_energy(state: KgState, problem: KgProblem) -> float:
    """1/2||v||^2 + omega^2/2 ||d+ u||^2 from the half spectra, with no transform.

    By summation by parts ||d+ u||^2 = -<B2 u, u>, and B2 has the FD symbol lam.
    """
    grid, fu, fv = state.u.grid, state.u_spectrum, state.v_spectrum
    gradient = -half_inner(_fd_symbol(grid) * fu, fu, grid)
    return 0.5 * half_inner(fv, fv, grid) + 0.5 * problem.omega**2 * gradient


def kg_modified_energy(state: KgState, problem: KgProblem) -> float:
    """Conserved quadratic energy 1/2||v||^2 + omega^2/2 ||d+ u||^2 + q^2 - C0."""
    return _quadratic_energy(state, problem) + state.q**2 - problem.C0


def kg_original_energy(state: KgState, problem: KgProblem) -> float:
    """Discrete Hamiltonian 1/2||v||^2 + omega^2/2 ||d+ u||^2 + <G(u), 1>.

    Monitored only: the SAV stepper conserves the modified energy, not this.
    """
    potential = state.u.grid.cell * float(np.sum(problem.G(state.u.values)))
    return _quadratic_energy(state, problem) + potential
