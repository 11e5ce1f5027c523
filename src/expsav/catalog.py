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

from .grids import (GridSpec, fd_laplacian_eigenvalues, make_grid, sample,
                    spectral_laplacian_eigenvalues)
from .kg import KgProblem
from .nls import NlsProblem
from .tables import sin_over_x


def sech(z):
    """Numerically safe 1/cosh: decays to 0 instead of overflowing. Bitwise
    2.0 * e / (1.0 + e * e) with e = exp(-|z|), formed in two work arrays."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = e * e
    denom += 1.0
    e *= 2.0
    e /= denom
    return e


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
    # analytic solution or None: exact(grid) samples the t-independent factors
    # once and returns t -> the flat node values at time t
    exact: Callable[[GridSpec], Callable[[float], np.ndarray]] | None = None

    def make_grid(self, n: int | None = None) -> GridSpec:
        return make_grid(self.a, self.b, n if n is not None else self.default_n, self.dim)

    def laplacian_eigenvalues(self, grid: GridSpec) -> np.ndarray:
        if self.kind == "wave":
            return fd_laplacian_eigenvalues(grid)
        return spectral_laplacian_eigenvalues(grid)


# The sine-Gordon pair from the half-angle tangent t = tan(u/2): numpy runs
# float64 sin and cos through scalar libm, while its tan is vectorized (2-7x
# faster per pass on an AVX-512 host, by argument range). On a sample of 1e6
# points in [-50, 50], sin u is within 1 ulp(1) of libm and 1 - cos u within 3.

def _tangent_and_sine(u):
    """(t, sin u) with t = tan(u/2) and sin u = 2 (t/(1 + t^2)); the sign of zero
    is kept."""
    t = np.multiply(u, 0.5)
    np.tan(t, out=t)
    sine = t * t
    sine += 1.0
    np.divide(t, sine, out=sine)
    sine += sine
    return t, sine


def _sine(u):
    return _tangent_and_sine(u)[1]


def _versine(u):
    """1 - cos u = t sin u >= 0, t = tan(u/2): no cancellation near u = 0."""
    t, sine = _tangent_and_sine(u)
    return np.multiply(t, sine, out=t)


def _versine_sum_and_sine(u):
    """(sum of 1 - cos u, sin u) from one t: the sum of _versine's terms as one
    dot product, with no versine array formed."""
    t, sine = _tangent_and_sine(u)
    return float(np.einsum("i,i", t, sine)), sine


def _sine_chord_mean(a, b):
    """Exact mean of sin on the chord from a to b; _sine(a) bitwise at a = b."""
    return _sine(0.5 * (a + b)) * sin_over_x(0.5 * (b - a))


def _sine_gordon(phi1: Callable, phi2: Callable) -> Callable[[GridSpec, float], KgProblem]:
    """Problem factory for u_tt = Lap(u) - sin(u) with u = phi1, u_t = phi2 at t = 0."""
    def make(grid: GridSpec, c0: float) -> KgProblem:
        return KgProblem(grid=grid, omega=1.0, G=_versine, Gp=_sine,
                         phi1=phi1, phi2=phi2, C0=c0, chord_mean=_sine_chord_mean,
                         sum_G_and_Gp=_versine_sum_and_sine)
    return make


def _sg1d_exact(grid: GridSpec) -> Callable[[float], np.ndarray]:
    s = sample(grid, sech)
    return lambda t: 4.0 * np.arctan(t * s)


def _ring_radius(x, y):
    return np.sqrt((x + 3.0) ** 2 + (y + 7.0) ** 2)


def _quartic_sum_and_cube(u):
    """(sum of u^4/4, u^3) from one u2 = u u, for the SAV step; the cube is
    Gp's rounded products bitwise."""
    u2 = u * u
    total = 0.25 * float(np.einsum("i,i", u2, u2))
    u2 *= u
    return total, u2


def _cubic_chord_mean(a, b):
    """(b^4 - a^4)/(4 (b - a)) = 0.25 (a + b) (a a + b b), in two work arrays;
    at a = b the same rounded products as Gp(a)."""
    mean = a + b
    mean *= 0.25
    squares = a * a
    squares += b * b
    mean *= squares
    return mean


def _kg2d_problem(grid: GridSpec, c0: float) -> KgProblem:
    return KgProblem(
        grid=grid,
        omega=1.0,
        # products, not powers: numpy's pow is several times slower
        G=lambda u: 0.25 * (u * u) * (u * u),
        Gp=lambda u: u * u * u,
        phi1=lambda x, y: 2.0 * sech(np.cosh(x**2 + y**2)),
        phi2=lambda x, y: np.zeros_like(x),
        C0=c0,
        chord_mean=_cubic_chord_mean,
        sum_G_and_Gp=_quartic_sum_and_cube,
    )


def _nls1d_problem(grid: GridSpec, c0: float) -> NlsProblem:
    return NlsProblem(
        grid=grid,
        beta=2.0,
        u0=lambda x: sech(x) * np.exp(2j * x),
        C0=c0,
    )


def _nls1d_exact(grid: GridSpec) -> Callable[[float], np.ndarray]:
    x = grid.axis_nodes(0)
    phase = np.exp(2j * x)
    return lambda t: sech(x - 4.0 * t) * np.exp(-3j * t) * phase


def _nls2d_problem(grid: GridSpec, c0: float) -> NlsProblem:
    return NlsProblem(
        grid=grid,
        beta=-1.0,
        u0=lambda x, y: np.exp(1j * (x + y)),
        C0=c0,
    )


def _nls2d_exact(grid: GridSpec) -> Callable[[float], np.ndarray]:
    # dispersion relation w = k1^2 + k2^2 - beta|A|^2 = 1 + 1 - (-1) = 3
    phase = sample(grid, lambda x, y: np.exp(1j * (x + y)))
    return lambda t: np.exp(-3j * t) * phase


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
    make_problem=_sine_gordon(lambda x: np.zeros_like(x), lambda x: 4.0 * sech(x)),
    exact=_sg1d_exact,
))
register(CatalogEntry(
    id="sg2d_ring", kind="wave", dim=2, a=-30.0, b=10.0,
    default_n=200, default_tau=0.1, default_t_end=10.0, default_c0=0.0,
    make_problem=_sine_gordon(
        lambda x, y: 4.0 * np.arctan(np.exp((4.0 - _ring_radius(x, y)) / 0.436)),
        lambda x, y: 4.13 * sech((4.0 - _ring_radius(x, y)) / 0.436)),
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
