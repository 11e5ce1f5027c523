"""Error norms against analytic solutions, convergence orders."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import ComplexField, Field


@dataclass(frozen=True)
class RunRecord:
    """One diagnostics row of a run; optional entries are None when not tracked."""

    t: float
    E_mod: float
    E_orig: float | None = None
    err_l2: float | None = None
    err_inf: float | None = None
    iters: int | None = None


def error_norms(u_num: Field | ComplexField, exact_at: Callable[[float], np.ndarray],
                t: float) -> tuple[float, float]:
    """Discrete L2 and sup-norm errors against exact_at(t), the flat node values
    of the analytic solution at time t (what CatalogEntry.exact(grid) returns)."""
    a = np.abs(u_num.values - exact_at(t))
    return float(np.sqrt(u_num.grid.cell * np.sum(a * a))), float(np.max(a))


def convergence_orders(errors: list[float]) -> list[float]:
    """log2 ratios of consecutive errors on a step-halving ladder."""
    if any(e <= 0.0 for e in errors):
        raise ValueError("errors must be positive to estimate orders")
    return [math.log2(prev / cur) for prev, cur in zip(errors, errors[1:])]
