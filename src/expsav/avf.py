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
lose them and keep the iteration from reaching tol.

Both families iterate u' = z + coeff c, c = F^-1(mult F fbar(u, u')), with z
the linear flow of u^n and (mult, coeff) = (phi12, -tau) (wave) or (sigma,
i beta tau) (Schroedinger), until the sup-norm increment, or the estimated
distance theta/(1-theta)*increment to the fixed point (theta the larger of
the last two ratios of consecutive increments, Hairer & Wanner II, IV.8),
drops below cfg.tol; a non-finite increment or the iteration cap raises
SolverError. A step keeps its last c in State.corrections, with the c the
previous step kept, and the next step starts from z + coeff (2 c_n - c_{n-1})
(Hairer, Lubich & Wanner, Geometric Numerical Integration, VIII.6), or
z + coeff c_n after one eavfs step. A state that keeps none (an initial state,
one built from physical fields, or one an esavs step made) starts from u^n.
The start moves the result only within the stopping tolerance.

u' keeps the spectrum F z + coeff F c of its last iteration. One inverse
starts the iteration and each iteration makes a forward/inverse pair; the
wave step transforms the chord average once more, for v' = zv - e12 F fbar
(e12 = tau phi11). So a step makes 2 iters + 2 (wave) or 2 iters + 1 transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, require_positive
# unused here; kept only because bench/tracer.py patches avf.apply_multipliers
from .fourier import apply_multipliers  # noqa: F401
from .fourier import forward_values, inverse_values, real_part
from .grids import State
from .kg import KgProblem, KgState, check_kg_tables, linear_flow, potential
from .nls import NlsProblem, check_nls_tables, quartic_sum
from .tables import ExpPhiTables, NlsTables


@dataclass(frozen=True)
class FixedPointConfig:
    """Stopping rule for the implicit solve: tol bounds the last sup-norm increment
    or the estimated distance theta/(1-theta)*increment to the fixed point,
    whichever drops below it first; max_iters caps the iterations."""

    tol: float = 1e-14
    max_iters: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


# a name of its own because bench/tracer.py times it as avf.gradient
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
                 cfg: FixedPointConfig) -> tuple[np.ndarray, object, int]:
    """Iterate u <- update(u) from u0; returns (converged iterate, its correction,
    iteration count). update(u) returns the next iterate and the correction it
    added to the linear flow; _solve forms u's spectrum from the last one,
    unmixed.

    theta is the larger of the last two increment ratios: ratios that alternate
    (as they do on nls2d_planewave) make the last one alone underestimate the
    distance to the fixed point."""
    # no ratio at iteration 1: theta is nan, never < 1 (max keeps a nan first
    # argument and drops a nan second one, so iteration 2 sees its own ratio)
    u_iter, prev, last = u0, math.nan, math.nan
    for it in range(1, cfg.max_iters + 1):
        u_next, fcorr = update(u_iter)
        d = u_next - u_iter
        incr = float(np.max(np.abs(d, out=d) if np.isrealobj(d) else np.abs(d)))
        if not math.isfinite(incr):
            raise SolverError(f"fixed point diverged at iteration {it}")
        u_iter = u_next
        ratio = incr / prev  # observed contraction ratio
        theta = max(ratio, last)
        if incr < cfg.tol or (theta < 1.0 and theta / (1.0 - theta) * incr < cfg.tol):
            return u_iter, fcorr, it
        prev, last = incr, ratio
    raise SolverError(
        f"fixed point stalled at increment {incr:g} after {cfg.max_iters} iterations")


def _solve(state, fz: np.ndarray, mult: np.ndarray, coeff: complex, gradient, inverse,
           cfg: FixedPointConfig) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], int]:
    """The iteration above from the state's warm start, z = inverse(fz), gradient(w)
    the chord mean from u^n to w; returns (u', its spectrum, the corrections to
    keep, iteration count). The steppers pass closures that look the module's
    names up per call, where bench/tracer.py times them."""
    grid = state.u.grid
    z = inverse(fz)

    # the iteration adds the small correction term to the physical z: its
    # roundoff scales with that term, not with |z|, near the 1e-14 stop. Each
    # product is formed in a transform's fresh output or in one new array,
    # with its operands in their order (mult * F, coeff * c; see fourier.py)
    def update(u_iter):
        fcorr = forward_values(gradient(u_iter), grid)
        np.multiply(mult, fcorr, out=fcorr)
        corr = inverse(fcorr)
        u_next = np.multiply(coeff, corr)
        u_next += z
        return u_next, (fcorr, corr)

    kept, u0 = state.corrections, state.u.values
    if kept:
        u0 = z + coeff * (kept[0] if len(kept) == 1 else 2.0 * kept[0] - kept[1])
    u_new, (fcorr, corr), it = _fixed_point(update, u0, cfg)
    fu_new = np.multiply(coeff, fcorr, out=fcorr)
    fu_new += fz
    return u_new, fu_new, (corr,) + kept[:1], it


@np.errstate(all="ignore")
def eavf_step_kg(state: KgState, tables: ExpPhiTables, problem: KgProblem,
                 cfg: FixedPointConfig) -> tuple[KgState, int]:
    """One implicit step; returns (new state, fixed-point iteration count)."""
    check_kg_tables(tables, problem)
    grid = problem.grid
    if problem.chord_mean is None:
        raise ValueError("the implicit wave step needs KgProblem.chord_mean")
    tau = tables.tau
    u = state.u.values
    fzu, fzv = linear_flow(state.u_spectrum, state.v_spectrum, tables)
    u_new, fu_new, kept, it = _solve(
        state, fzu, tables.p12, -tau, lambda w: avf_gradient_kg(problem, u, w),
        lambda f: real_part(inverse_values(f, grid)), cfg)
    ffb = forward_values(avf_gradient_kg(problem, u, u_new), grid)
    # not in ffb's buffer: in place, a kg2d_cubic step makes ~45 % more minor page faults
    fv_new = fzv - tables.e12 * ffb

    # q is not evolved by this scheme; keep it consistent with its definition
    radicand = require_positive(potential(problem, u_new)[0] + problem.C0, "<G(u'), 1> + C0")
    return state.advance(tau, u_new, np.sqrt(radicand), u_spectrum=fu_new,
                         corrections=kept, v_spectrum=fv_new), it


@np.errstate(all="ignore")
def eavf_step_nls(state: State, tables: NlsTables, problem: NlsProblem,
                  cfg: FixedPointConfig) -> tuple[State, int]:
    """One implicit step of the Schroedinger baseline; returns (state, iterations)."""
    check_nls_tables(tables, problem)
    grid = problem.grid
    u = state.u.values
    u_new, fu_new, kept, it = _solve(
        state, tables.expD * state.u_spectrum, tables.sigma, 1j * problem.beta * tables.tau,
        lambda w: avf_gradient_nls(u, w), lambda f: inverse_values(f, grid), cfg)
    radicand = require_positive(quartic_sum(u_new, grid)[0] + problem.C0, "<|u'|^4, 1> + C0")
    return state.advance(tables.tau, u_new, np.sqrt(radicand), u_spectrum=fu_new,
                         corrections=kept), it
