"""Built-in benchmark problems with their standard run settings.

Each entry bundles the physical setup (equation, domain, initial data, an
analytic solution when one exists) with the default discretization used by
the experiment drivers. Defaults can be overridden per run; the physics
cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import GridSpec, fd_laplacian_eigenvalues, make_grid, spectral_laplacian_eigenvalues
from .kg import KgProblem
from .nls import NlsProblem


def sech(z):
    """Numerically safe 1/cosh: decays to 0 instead of overflowing."""
    az = np.abs(z)
    e = np.exp(-az)
    return 2.0 * e / (1.0 + e * e)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    kind: str                      # "wave" or "schroedinger"
    dim: int
    a: float
    b: float
    default_n: int
    default_tau: float
    default_t_end: float
    default_c0: float
    make_problem: Callable[[GridSpec, float], KgProblem | NlsProblem]
    exact: Callable | None = None  # sampler (coords..., t) or None
    default_transform: str = "identity"

    def make_grid(self, n: int | None = None) -> GridSpec:
        return make_grid(self.a, self.b, n if n is not None else self.default_n, self.dim)

    def laplacian_eigenvalues(self, grid: GridSpec) -> np.ndarray:
        if self.kind == "wave":
            return fd_laplacian_eigenvalues(grid)
        return spectral_laplacian_eigenvalues(grid)


def _sg1d_problem(grid: GridSpec, c0: float) -> KgProblem:
    return KgProblem(
        grid=grid,
        omega=1.0,
        G=lambda u: 1.0 - np.cos(u),
        Gp=np.sin,
        phi1=lambda x: np.zeros_like(x),
        phi2=lambda x: 4.0 * sech(x),
        C0=c0,
    )


def _sg1d_exact(x, t):
    return 4.0 * np.arctan(t * sech(x))


def _ring_radius(x, y):
    return np.sqrt((x + 3.0) ** 2 + (y + 7.0) ** 2)


def _sg2d_problem(grid: GridSpec, c0: float) -> KgProblem:
    return KgProblem(
        grid=grid,
        omega=1.0,
        G=lambda u: 1.0 - np.cos(u),
        Gp=np.sin,
        phi1=lambda x, y: 4.0 * np.arctan(np.exp((4.0 - _ring_radius(x, y)) / 0.436)),
        phi2=lambda x, y: 4.13 * sech((4.0 - _ring_radius(x, y)) / 0.436),
        C0=c0,
    )


def _kg2d_problem(grid: GridSpec, c0: float) -> KgProblem:
    return KgProblem(
        grid=grid,
        omega=1.0,
        # products, not u**4 and u**3: numpy's pow is several times slower
        G=lambda u: 0.25 * (u * u) * (u * u),
        Gp=lambda u: u * u * u,
        phi1=lambda x, y: 2.0 * sech(np.cosh(x**2 + y**2)),
        phi2=lambda x, y: np.zeros_like(x),
        C0=c0,
        # (b^4 - a^4)/(4 (b - a)); at a = b the same rounded products as Gp(a)
        chord_mean=lambda a, b: 0.25 * (a + b) * (a * a + b * b),
    )


def _nls1d_problem(grid: GridSpec, c0: float) -> NlsProblem:
    return NlsProblem(
        grid=grid,
        beta=2.0,
        u0=lambda x: sech(x) * np.exp(2j * x),
        C0=c0,
    )


def _nls1d_exact(x, t):
    return sech(x - 4.0 * t) * np.exp(2j * x - 3j * t)


def _nls2d_problem(grid: GridSpec, c0: float) -> NlsProblem:
    return NlsProblem(
        grid=grid,
        beta=-1.0,
        u0=lambda x, y: np.exp(1j * (x + y)),
        C0=c0,
    )


def _nls2d_exact(x, y, t):
    # dispersion relation w = k1^2 + k2^2 - beta|A|^2 = 1 + 1 - (-1) = 3
    return np.exp(1j * (x + y - 3.0 * t))


CATALOG: dict[str, CatalogEntry] = {}


def register(entry: CatalogEntry):
    CATALOG[entry.id] = entry


def get_entry(problem_id: str) -> CatalogEntry:
    try:
        return CATALOG[problem_id]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown problem {problem_id!r}; known: {known}") from None


register(CatalogEntry(
    id="sg1d", kind="wave", dim=1, a=-20.0, b=20.0,
    default_n=400, default_tau=0.01, default_t_end=1.0, default_c0=1.0,
    make_problem=_sg1d_problem, exact=_sg1d_exact,
))
register(CatalogEntry(
    id="sg2d_ring", kind="wave", dim=2, a=-30.0, b=10.0,
    default_n=200, default_tau=0.1, default_t_end=10.0, default_c0=0.0,
    make_problem=_sg2d_problem, default_transform="sin_half",
))
register(CatalogEntry(
    id="kg2d_cubic", kind="wave", dim=2, a=-10.0, b=10.0,
    default_n=200, default_tau=0.1, default_t_end=8.0, default_c0=0.0,
    make_problem=_kg2d_problem,
))
register(CatalogEntry(
    id="nls1d_soliton", kind="schroedinger", dim=1, a=-40.0, b=40.0,
    default_n=4096, default_tau=0.01, default_t_end=1.0, default_c0=0.0,
    make_problem=_nls1d_problem, exact=_nls1d_exact,
))
register(CatalogEntry(
    id="nls2d_planewave", kind="schroedinger", dim=2, a=0.0, b=2.0 * np.pi,
    default_n=64, default_tau=0.01, default_t_end=1.0, default_c0=0.0,
    make_problem=_nls2d_problem, exact=_nls2d_exact,
))
