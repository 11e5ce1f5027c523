"""Fully implicit exponential averaged-gradient baseline, solved by fixed point.

Same exact linear flow as the SAV steppers, but the nonlinearity enters
through its exact mean along the chord from u^n to u^{n+1}, in closed form:

    wave:          fbar = (G(u') - G(u)) / (u' - u), given by KgProblem.chord_mean
    schroedinger:  fbar = integral_0^1 |u_xi|^2 u_xi dxi,  u_xi = (1-xi) u + xi u'
                        = (|u|^2 + |u'|^2)(u + u')/4 + (u - u')(u conj(u') - conj(u) u')/12

Both discrete gradients satisfy the chain-rule surrogate

    <fbar, u' - u> (+ conj. in the complex case) = <G(u') - G(u), 1>

to machine precision, which is what makes the baseline conserve its own
discrete (unmodified) energy. Each closed form is one elementwise pass and
keeps its digits on short chords, where a quotient of differences would
lose them and keep the iteration from reaching tol. Both implicit updates
share one fixed-point loop: it iterates from u^n until the sup-norm
increment drops below cfg.tol, and stops with SolverError at the first
non-finite increment or at the iteration cap.

The linear flow acts on the state's spectra, and u' keeps the spectrum of
its last iteration. One inverse starts the iteration and each iteration
makes a forward/inverse pair; the wave step transforms the chord average in
v' forward once more. So a step makes 2 iters + 2 (wave) or 2 iters + 1 transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
# unused here; kept only because bench/tracer.py patches avf.apply_multipliers
from .fourier import apply_multipliers  # noqa: F401
from .fourier import forward_values, inverse_values, real_part
from .kg import KgProblem, KgState, linear_flow
from .nls import NlsProblem, NlsState
from .tables import ExpPhiTables, NlsTables


@dataclass(frozen=True)
class FixedPointConfig:
    """Stopping rule for the implicit solve."""

    tol: float = 1e-14
    max_iters: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def avf_gradient_kg(problem: KgProblem, u_old: np.ndarray, u_new: np.ndarray) -> np.ndarray:
    """Mean of G' along the chord from u_old to u_new: the problem's closed form."""
    return problem.chord_mean(u_old, u_new)


def avf_gradient_nls(u_old: np.ndarray, u_new: np.ndarray) -> np.ndarray:
    """Mean of |u|^2 u along the chord from u_old to u_new, in the closed form above."""
    a, b = u_old, u_new
    cross = a * np.conj(b)
    return (0.25 * ((a * np.conj(a)).real + (b * np.conj(b)).real) * (a + b)
            + (a - b) * (cross - np.conj(cross)) / 12.0)


def _fixed_point(update, u0: np.ndarray,
                 cfg: FixedPointConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Iterate u <- update(u) from u0; returns (converged iterate, its correction
    spectrum, iteration count). update(u) returns the next iterate and the spectrum
    of the correction it added to the linear flow; a stepper forms u's spectrum
    from those of the last call, unmixed."""
    u_iter = u0
    for it in range(1, cfg.max_iters + 1):
        u_next, fcorr = update(u_iter)
        incr = float(np.max(np.abs(u_next - u_iter)))
        if not math.isfinite(incr):
            raise SolverError(f"fixed point diverged at iteration {it}")
        u_iter = u_next
        if incr < cfg.tol:
            return u_iter, fcorr, it
    raise SolverError(
        f"fixed point stalled at increment {incr:g} after {cfg.max_iters} iterations")


@np.errstate(all="ignore")
def eavf_step_kg(state: KgState, tables: ExpPhiTables, problem: KgProblem,
                 cfg: FixedPointConfig) -> tuple[KgState, int]:
    """One implicit step; returns (new state, fixed-point iteration count)."""
    grid = problem.grid
    if tables.grid != grid:
        raise ValueError("tables built on a different grid")
    if problem.chord_mean is None:
        raise ValueError("the implicit wave step needs KgProblem.chord_mean")
    tau = tables.tau
    u = state.u.values
    fzu, fzv = linear_flow(state.u_spectrum, state.v_spectrum, tables)
    zu = real_part(inverse_values(fzu, grid))

    # the iteration adds the small phi-gradient term to the physical zu: its
    # roundoff scales with that term, not with |zu|, near the 1e-14 stop
    def update(u_iter):
        fcorr = tables.p12 * forward_values(avf_gradient_kg(problem, u, u_iter), grid)
        return zu - tau * real_part(inverse_values(fcorr, grid)), fcorr

    u_new, fcorr, it = _fixed_point(update, u, cfg)
    ffb = forward_values(avf_gradient_kg(problem, u, u_new), grid)
    fv_new = fzv - tau * (tables.p11 * ffb)

    # q is not evolved by this scheme; keep it consistent with its definition
    radicand = grid.cell * float(np.sum(problem.G(u_new))) + problem.C0
    return state.advance(tau, u_new, np.sqrt(radicand), u_spectrum=fzu - tau * fcorr,
                         v_spectrum=fv_new), it


@np.errstate(all="ignore")
def eavf_step_nls(state: NlsState, tables: NlsTables, problem: NlsProblem,
                  cfg: FixedPointConfig) -> tuple[NlsState, int]:
    """One implicit step of the Schroedinger baseline; returns (state, iterations)."""
    grid = problem.grid
    if tables.grid != grid:
        raise ValueError("tables built on a different grid")
    tau = tables.tau
    u = state.u.values

    feu = tables.expD * state.u_spectrum
    eu = inverse_values(feu, grid)
    coeff = 1j * problem.beta * tau

    def update(u_iter):
        fcorr = tables.sigma * forward_values(avf_gradient_nls(u, u_iter), grid)
        return eu + coeff * inverse_values(fcorr, grid), fcorr

    u_new, fcorr, it = _fixed_point(update, u, cfg)
    radicand = grid.cell * float(np.sum(np.abs(u_new) ** 4)) + problem.C0
    return state.advance(tau, u_new, np.sqrt(radicand),
                         u_spectrum=feu + coeff * fcorr), it
