"""Linearly implicit exponential integrator for the nonlinear wave equation.

The second-order system  u_tt = omega^2 * Lap(u) - G'(u)  is rewritten with
the scalar auxiliary variable q = sqrt(<G(u), 1> + C0), which turns the
energy into a quadratic in (u, v, q) that the step conserves exactly:

    E = 1/2 ||v||^2 + omega^2/2 ||d+ u||^2 + q^2 - C0.

sav_solve below closes the step of both esavs families. The wave gives it
w = G'(uhat), the flow zu = e11 u + e12 v of the kept half spectra and the
kernel -tau phi12, and its denominator must be positive. The velocity is

    v' = e21 u + e11 v - (tau (q+q')/(2 s)) * phi11 w    (e22 = e11, phi22 = phi11 = e12/tau),

a half spectrum: a step makes two real FFTs. Set-up, step, E_orig and the
eavfs q read <G(u), 1> and G'(u) through potential() alone. u' is formed
in the buffer of phi12 w and v' in that of zv. Every reduction is an
einsum, not a BLAS dot, whose threaded sum order would make the last bits
depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import require_positive
from .fourier import forward_values, half_inner, half_rows, inverse_values, real_part
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
    sum_G_and_Gp(u), if set, returns (sum of G(u), Gp(u)) at flat node values
    u from one pass and must not write into u; potential() then calls it
    instead of G and Gp, for every reader of the potential.
    phi1 and phi2 are sampled by grids.sample: they take the coordinates
    broadcastable to the grid (x in 1D; x of shape (n0, 1), y of (1, n1) in
    2D), must act elementwise and must return real values.
    """

    grid: GridSpec
    omega: float
    G: Callable[[np.ndarray], np.ndarray]
    Gp: Callable[[np.ndarray], np.ndarray]
    phi1: Callable
    phi2: Callable
    C0: float = 0.0
    chord_mean: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    sum_G_and_Gp: Callable[[np.ndarray], tuple[float, np.ndarray]] | None = None


class KgState(State):
    """The common state record plus the velocity v = u_t.

    v is given either as node values or as its half spectrum v_spectrum (as
    the steppers do), never both; the other is transformed on first read and kept.
    """

    def __init__(self, *, v: Field | None = None, v_spectrum: np.ndarray | None = None, **common):
        if (v is None) == (v_spectrum is None):
            raise ValueError("the velocity needs its node values or its half spectrum, not both")
        super().__init__(**common)
        self._keep(v=v, v_spectrum=v_spectrum)

    @cached_property
    def v(self) -> Field:
        return Field(self.u.grid, real_part(inverse_values(self.v_spectrum, self.u.grid)))

    @cached_property
    def v_spectrum(self) -> np.ndarray:
        return forward_values(self.v.values, self.u.grid)


def potential(problem: KgProblem, u: np.ndarray) -> tuple[float, np.ndarray]:
    """(<G(u), 1>, G'(u)) at flat node values u, from the problem's pair if set."""
    if problem.sum_G_and_Gp is not None:
        total, gp = problem.sum_G_and_Gp(u)
    else:
        total, gp = float(np.sum(problem.G(u))), problem.Gp(u)
    return problem.grid.cell * total, gp


def kg_init(problem: KgProblem) -> KgState:
    """Sample the initial data and the consistent auxiliary value q(0)."""
    grid = problem.grid
    u0 = sample(grid, problem.phi1)
    v0 = sample(grid, problem.phi2)
    for name, values in (("phi1", u0), ("phi2", v0)):
        if np.iscomplexobj(values):
            raise ValueError(f"{name} returned complex values; wave initial data must be real")
    radicand = potential(problem, u0)[0] + problem.C0
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
    zu = tables.e11 * fu
    zu += tables.e12 * fv
    zv = tables.e21 * fu
    zv += tables.e11 * fv
    return zu, zv


def sav_solve(state: State, w: np.ndarray, s2: float, fz: np.ndarray, mult: np.ndarray,
              coeff: complex, inner: Callable, denominator: Callable[[float], float]
              ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """One esavs step's scalar closure, for both families: returns the spectrum
    of u', that of w, q' and the factor (q + q')/(2 s) of the wave's v'.

    w is the gradient of the quadratized potential at the predictor
    uhat = (3 u^n - u^{n-1})/2 (u^0 at the first step), s^2 the radicand
    there, fz the spectrum of the exact linear flow z of u, and K = coeff * mult
    the kernel. The step

        u' = z + (q^{n+1/2} / s) K w,    q^{n+1/2} = q + Re<w, u' - u>/(4 s)

    closes in ONE real scalar equation, with no nonlinear iteration:

        q^{n+1/2} = (q + Re<w, z - u>/(4 s)) / (1 - a),    a = Re<w, K w>/(4 s^2),
        q' = q + Re<w, u' - u>/(2 s).

    denominator(a) checks the closure and returns 1 - a. Every product is a
    Parseval sum, inner(A, B, grid) = <a, b>, of spectra the step already has.
    """
    grid, q = state.u.grid, state.q
    s = np.sqrt(s2)
    fw = forward_values(w, grid)
    fkw = mult * fw
    # Re<w, K w> = Re(coeff <mult w, w>)
    denom = denominator((coeff * inner(fkw, fw, grid)).real / (4.0 * s2))
    fu = state.u_spectrum
    q_half = (q + (inner(fz, fw, grid).real - inner(fu, fw, grid).real) / (4.0 * s)) / denom
    fkw *= coeff * q_half / s
    fu_new = np.add(fz, fkw, out=fkw)
    q_new = q + inner(fu_new - fu, fw, grid).real / (2.0 * s)
    return fu_new, fw, q_new, 0.5 * (q + q_new) / s


def check_kg_tables(tables: ExpPhiTables, problem: KgProblem) -> None:
    """Refuse tables built for another grid or omega (the builder already
    refused any Laplacian but the grid's FD one)."""
    if tables.grid != problem.grid:
        raise ValueError("tables built on a different grid")
    if tables.omega != problem.omega:
        raise ValueError(f"tables built for omega {tables.omega!r}, problem has {problem.omega!r}")


@np.errstate(all="ignore")
def kg_step(state: KgState, tables: ExpPhiTables, problem: KgProblem) -> KgState:
    """Advance one step of size tables.tau; returns the new state."""
    check_kg_tables(tables, problem)
    g, w = potential(problem, state.predictor())
    s2 = require_positive(g + problem.C0, "<G(uhat), 1> + C0")

    fzu, fzv = linear_flow(state.u_spectrum, state.v_spectrum, tables)
    fu_new, fw, q_new, v_factor = sav_solve(
        state, w, s2, fzu, tables.p12, -tables.tau, half_inner,
        lambda a: require_positive(1.0 - a, "scalar-solve denominator"))
    # v' = zv - ((q + q')/(2 s)) e12 w, accumulated in zv; w's spectrum is not read again
    fw *= tables.e12
    fw *= v_factor
    fzv -= fw
    u_new = real_part(inverse_values(fu_new, problem.grid))
    return state.advance(tables.tau, u_new, q_new, u_spectrum=fu_new, v_spectrum=fzv)


def _quadratic_energy(state: KgState, problem: KgProblem) -> float:
    """1/2||v||^2 + omega^2/2 ||d+ u||^2 from the half spectra, with no transform.

    By summation by parts ||d+ u||^2 = -<B2 u, u>, and B2 has the FD symbol lam.
    """
    grid, fu, fv = state.u.grid, state.u_spectrum, state.v_spectrum
    # the product on a view of the cached symbol's half-spectrum columns, not on a copy
    lam = half_rows(fd_laplacian_eigenvalues(grid), grid)
    gradient = -half_inner(lam * fu.reshape(lam.shape), fu, grid)
    return 0.5 * half_inner(fv, fv, grid) + 0.5 * problem.omega**2 * gradient


def kg_modified_energy(state: KgState, problem: KgProblem) -> float:
    """Conserved quadratic energy 1/2||v||^2 + omega^2/2 ||d+ u||^2 + q^2 - C0."""
    return _quadratic_energy(state, problem) + state.q**2 - problem.C0


def kg_original_energy(state: KgState, problem: KgProblem) -> float:
    """Discrete Hamiltonian 1/2||v||^2 + omega^2/2 ||d+ u||^2 + <G(u), 1>.

    Monitored only: the SAV stepper conserves the modified energy, not this.
    """
    return _quadratic_energy(state, problem) + potential(problem, state.u.values)[0]
