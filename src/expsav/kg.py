"""Linearly implicit exponential integrator for the nonlinear wave equation.

The second-order system  u_tt = omega^2 * Lap(u) - G'(u)  is rewritten with
the scalar auxiliary variable q = sqrt(<G(u), 1> + C0), which turns the
energy into a quadratic in (u, v, q):

    E = 1/2 ||v||^2 + omega^2/2 ||d+ u||^2 + q^2 - C0.

One step applies the exact flow of the stiff linear part through the
per-mode exp/phi tables and treats the nonlinearity at the extrapolated
midpoint uhat = (3 u^n - u^{n-1})/2 (u^0 at the first step), which makes
the update linear in the unknowns. Eliminating q^{n+1/2} reduces the whole
step to ONE scalar equation: with w = G'(uhat), s^2 = <G(uhat), 1> + C0,

    gamma = tau/(4 s^2) * phi12 w
    g     = e11 u + e12 v - (tau q^n / s) * phi12 w + gamma <w, u>
    <w, u'> = <w, g> / (1 + <w, gamma>)
    u' = g - gamma <w, u'>,   q' = q + <w, u' - u>/(2 s),
    v' = e21 u + e11 v - (tau (q+q')/(2 s)) * phi11 w    (e22 = e11, phi22 = phi11).

The update conserves E exactly in exact arithmetic, with no nonlinear
iteration anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import require_positive
from .fourier import forward_values, inverse_values, real_part
from .grids import Field, GridSpec, State, forward_diff_norm, norm_l2, sample
from .tables import ExpPhiTables


@dataclass(frozen=True)
class KgProblem:
    """Wave equation u_tt = omega^2 Lap(u) - G'(u) with initial data (phi1, phi2).

    G must be a nonnegative antiderivative of Gp (so the auxiliary variable
    stays real); both act pointwise on arrays. C0 >= 0 shifts the radicand.
    """

    grid: GridSpec
    omega: float
    G: Callable[[np.ndarray], np.ndarray]
    Gp: Callable[[np.ndarray], np.ndarray]
    phi1: Callable
    phi2: Callable
    C0: float = 0.0


@dataclass(frozen=True, eq=False)
class KgState(State):
    """The common state record plus the velocity v = u_t."""

    v: Field


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


def linear_flow(u: np.ndarray, v: np.ndarray, tables: ExpPhiTables,
                grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact flow exp(V)(u, v) of the linear wave system over one step."""
    fu = forward_values(u.astype(np.complex128), grid)
    fv = forward_values(v.astype(np.complex128), grid)
    zu = real_part(inverse_values(tables.e11 * fu + tables.e12 * fv, grid))
    zv = real_part(inverse_values(tables.e21 * fu + tables.e11 * fv, grid))
    return zu, zv


def kg_step(state: KgState, tables: ExpPhiTables, problem: KgProblem) -> KgState:
    """Advance one step of size tables.tau; returns the new state."""
    grid = problem.grid
    if tables.grid != grid:
        raise ValueError("tables built on a different grid")
    cell = grid.cell
    tau = tables.tau
    u, v, q = state.u.values, state.v.values, state.q

    uhat = state.predictor()
    s2 = require_positive(cell * float(np.sum(problem.G(uhat))) + problem.C0,
                          "<G(uhat), 1> + C0")
    s = np.sqrt(s2)
    w = problem.Gp(uhat)

    zu, zv = linear_flow(u, v, tables, grid)
    fw = forward_values(w.astype(np.complex128), grid)
    phi12_w = real_part(inverse_values(tables.p12 * fw, grid))
    phi22_w = real_part(inverse_values(tables.p11 * fw, grid))

    gamma = (tau / (4.0 * s2)) * phi12_w
    g = zu - (tau * q / s) * phi12_w + gamma * (cell * float(w @ u))

    denom = require_positive(1.0 + cell * float(w @ gamma), "scalar-solve denominator")
    w_dot_unew = cell * float(w @ g) / denom

    u_new = g - gamma * w_dot_unew
    q_new = q + cell * float(w @ (u_new - u)) / (2.0 * s)
    v_new = zv - (tau * 0.5 * (q + q_new) / s) * phi22_w

    return state.advance(tau, u_new, q_new, v=v_new)


def kg_modified_energy(state: KgState, problem: KgProblem) -> float:
    """Conserved quadratic energy 1/2||v||^2 + omega^2/2 ||d+ u||^2 + q^2 - C0."""
    kinetic = 0.5 * norm_l2(state.v) ** 2
    gradient = 0.5 * problem.omega**2 * forward_diff_norm(state.u) ** 2
    return kinetic + gradient + state.q**2 - problem.C0


def kg_original_energy(state: KgState, problem: KgProblem) -> float:
    """Discrete Hamiltonian 1/2||v||^2 + omega^2/2 ||d+ u||^2 + <G(u), 1>.

    Monitored only: the SAV stepper conserves the modified energy, not this.
    """
    kinetic = 0.5 * norm_l2(state.v) ** 2
    gradient = 0.5 * problem.omega**2 * forward_diff_norm(state.u) ** 2
    potential = state.u.grid.cell * float(np.sum(problem.G(state.u.values)))
    return kinetic + gradient + potential
