"""Fully implicit exponential averaged-gradient baseline, solved by fixed point.

Same exact linear flow as the SAV steppers, but the nonlinearity enters
through its average along the chord from u^n to u^{n+1}:

    wave:          fbar_j = (G(u'_j) - G(u_j)) / (u'_j - u_j)
    schroedinger:  fbar_j = integral_0^1 |u_xi|^2 u_xi dxi,  u_xi = (1-xi) u + xi u'

The divided difference IS the exact average of G' over the chord, and the
4-point Gauss rule integrates the cubic Schroedinger integrand exactly, so
both discrete gradients satisfy the chain-rule surrogate

    <fbar, u' - u> (+ conj. in the complex case) = <G(u') - G(u), 1>

to machine precision, which is what makes the baseline conserve its own
discrete (unmodified) energy. On chords shorter than _CHORD_CUTOFF the
wave gradient switches from the divided difference to a 4-point Gauss rule
on G' -- same identity up to O(du^8), but free of the eps/|du| cancellation
noise that would otherwise keep the iteration from reaching tol. Both
implicit updates share one fixed-point loop: it iterates from u^n until the
sup-norm increment drops below cfg.tol, and stops with SolverError at
the first non-finite increment or at the iteration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .fourier import apply_multipliers, forward_values, inverse_values, real_part
from .kg import KgProblem, KgState, linear_flow
from .nls import NlsProblem, NlsState
from .tables import ExpPhiTables, NlsTables

# chord shorter than this switches the divided difference (whose rounding
# noise grows like eps/|du| and can exceed the 1e-14 stopping tolerance) to
# Gauss quadrature of G' along the chord (error O(du^8), noise O(eps))
_CHORD_CUTOFF = 1e-3

# 4-point Gauss-Legendre on [0, 1]: exact for polynomials through degree 7
_GL4_NODES = np.array([
    0.5 - np.sqrt(525.0 + 70.0 * np.sqrt(30.0)) / 70.0,
    0.5 - np.sqrt(525.0 - 70.0 * np.sqrt(30.0)) / 70.0,
    0.5 + np.sqrt(525.0 - 70.0 * np.sqrt(30.0)) / 70.0,
    0.5 + np.sqrt(525.0 + 70.0 * np.sqrt(30.0)) / 70.0,
])
_GL4_WEIGHTS = np.array([
    (18.0 - np.sqrt(30.0)) / 72.0,
    (18.0 + np.sqrt(30.0)) / 72.0,
    (18.0 + np.sqrt(30.0)) / 72.0,
    (18.0 - np.sqrt(30.0)) / 72.0,
])


@dataclass(frozen=True)
class FixedPointConfig:
    """Stopping rule for the implicit solve."""

    tol: float = 1e-14
    max_iters: int = 200

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def avf_gradient_kg(problem: KgProblem, u_old: np.ndarray, u_new: np.ndarray) -> np.ndarray:
    """Chord average of G': exact divided difference, Gauss rule on short chords."""
    du = u_new - u_old
    quad = np.zeros_like(u_old)
    for xi, wt in zip(_GL4_NODES, _GL4_WEIGHTS):
        quad += wt * problem.Gp(u_old + xi * du)
    tiny = np.abs(du) < _CHORD_CUTOFF
    safe = np.where(tiny, 1.0, du)
    divided = (problem.G(u_new) - problem.G(u_old)) / safe
    return np.where(tiny, quad, divided)


def avf_gradient_nls(u_old: np.ndarray, u_new: np.ndarray) -> np.ndarray:
    """Chord average of |u|^2 u via 4-point Gauss quadrature (exact: cubic integrand)."""
    out = np.zeros_like(u_old)
    for xi, wt in zip(_GL4_NODES, _GL4_WEIGHTS):
        u_xi = (1.0 - xi) * u_old + xi * u_new
        out += wt * (np.abs(u_xi) ** 2 * u_xi)
    return out


def _fixed_point(update, u0: np.ndarray, cfg: FixedPointConfig) -> tuple[np.ndarray, int]:
    """Iterate u <- update(u) from u0; returns (converged iterate, iteration count)."""
    u_iter = u0
    for it in range(1, cfg.max_iters + 1):
        u_next = update(u_iter)
        incr = float(np.max(np.abs(u_next - u_iter)))
        if not math.isfinite(incr):
            raise SolverError(f"fixed point diverged at iteration {it}")
        u_iter = u_next
        if incr < cfg.tol:
            return u_iter, it
    raise SolverError(
        f"fixed point stalled at increment {incr:g} after {cfg.max_iters} iterations")


def eavf_step_kg(state: KgState, tables: ExpPhiTables, problem: KgProblem,
                 cfg: FixedPointConfig) -> tuple[KgState, int]:
    """One implicit step; returns (new state, fixed-point iteration count)."""
    grid = problem.grid
    if tables.grid != grid:
        raise ValueError("tables built on a different grid")
    tau = tables.tau
    u = state.u.values
    fu, fv = forward_values(u, grid), forward_values(state.v.values, grid)
    zu, zv = (real_part(inverse_values(fz, grid)) for fz in linear_flow(fu, fv, tables))

    # the iteration adds the small phi-gradient term to the physical zu: its
    # roundoff scales with that term, not with |zu|, near the 1e-14 stop
    def phi_gradient(u_iter, phi):
        ffb = forward_values(avf_gradient_kg(problem, u, u_iter), grid)
        return tau * real_part(inverse_values(phi * ffb, grid))

    u_new, it = _fixed_point(lambda u_iter: zu - phi_gradient(u_iter, tables.p12), u, cfg)
    v_new = zv - phi_gradient(u_new, tables.p11)

    # q is not evolved by this scheme; keep it consistent with its definition
    radicand = grid.cell * float(np.sum(problem.G(u_new))) + problem.C0
    return state.advance(tau, u_new, np.sqrt(radicand), v=v_new), it


def eavf_step_nls(state: NlsState, tables: NlsTables, problem: NlsProblem,
                  cfg: FixedPointConfig) -> tuple[NlsState, int]:
    """One implicit step of the Schroedinger baseline; returns (state, iterations)."""
    grid = problem.grid
    if tables.grid != grid:
        raise ValueError("tables built on a different grid")
    tau = tables.tau
    u = state.u.values

    eu = apply_multipliers(u, tables.expD, grid)
    coeff = 1j * problem.beta * tau
    u_new, it = _fixed_point(
        lambda u_iter: eu + coeff * apply_multipliers(avf_gradient_nls(u, u_iter),
                                                      tables.sigma, grid),
        u, cfg)

    radicand = grid.cell * float(np.sum(np.abs(u_new) ** 4)) + problem.C0
    return state.advance(tau, u_new, np.sqrt(radicand)), it
