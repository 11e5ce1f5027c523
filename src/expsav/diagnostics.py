"""Error norms against analytic solutions, convergence orders."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import ComplexField, Field, sample


@dataclass(frozen=True)
class RunRecord:
    """One diagnostics row of a run; optional entries are None when not tracked."""

    t: float
    E_mod: float
    E_orig: float | None = None
    err_l2: float | None = None
    err_inf: float | None = None
    iters: int | None = None


def error_norms(u_num: Field | ComplexField, exact, t: float) -> tuple[float, float]:
    """Discrete L2 and sup-norm errors against the sampler exact(coords..., t)."""
    grid = u_num.grid
    diff = u_num.values - sample(grid, exact, t=t)
    err_l2 = float(np.sqrt(grid.cell * np.sum(np.abs(diff) ** 2)))
    err_inf = float(np.max(np.abs(diff)))
    return err_l2, err_inf


def convergence_orders(errors: list[float]) -> list[float]:
    """log2 ratios of consecutive errors on a step-halving ladder."""
    if any(e <= 0.0 for e in errors):
        raise ValueError("errors must be positive to estimate orders")
    return [math.log2(prev / cur) for prev, cur in zip(errors, errors[1:])]
