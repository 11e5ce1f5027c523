"""Uniform periodic grids, sampled fields, and discrete inner products.

Grids live on [a, b) per axis with N equispaced nodes x_j = a + j*h,
h = (b - a)/N; the right endpoint is identified with the left one.
2D grids are tensor products, flattened row-major with axis 0 slowest.
The discrete inner product carries the cell measure:

    <u, v> = h * sum_j u_j * conj(v_j)        (h -> hx*hy in 2D)

which makes norms and energies direct analogues of their integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import fourier
from .errors import SolverError


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic tensor grid in 1 or 2 dimensions."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b) or len(self.a) != len(self.n):
            raise ValueError("a, b, n must have one entry per axis")
        if self.dim not in (1, 2):
            raise ValueError(f"only 1D and 2D grids supported, got dim={self.dim}")
        for lo, hi, num in zip(self.a, self.b, self.n):
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ValueError(f"domain endpoints must be finite with b > a, got [{lo}, {hi}]")
            if not isinstance(num, (int, np.integer)) or num < 2 or num % 2 != 0:
                raise ValueError(f"node count must be an even integer >= 2, got {num!r}")

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple((hi - lo) / num for lo, hi, num in zip(self.a, self.b, self.n))

    @cached_property  # read by every step and several times per diagnostics row
    def cell(self) -> float:
        """Measure of one grid cell: h in 1D, hx*hy in 2D."""
        return math.prod(self.h)

    @property
    def size(self) -> int:
        """Total node count."""
        return math.prod(self.n)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis (right endpoint excluded)."""
        lo = self.a[axis]
        return lo + self.h[axis] * np.arange(self.n[axis])

    def coords(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays broadcast over the full grid shape."""
        return tuple(np.meshgrid(*map(self.axis_nodes, range(self.dim)), indexing="ij"))


def make_grid(a: float, b: float, n: int, dim: int = 1) -> GridSpec:
    """Build a periodic grid on [a, b) with n nodes per axis (square in 2D)."""
    return GridSpec(a=(float(a),) * dim, b=(float(b),) * dim, n=(n,) * dim)


@dataclass(frozen=True, eq=False)
class Field:
    """Samples over a grid, flat in node order: complex128 if complex, else float64."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        dtype = np.complex128 if vals.dtype.kind == "c" else np.float64
        vals = vals.astype(dtype, copy=False).ravel()
        object.__setattr__(self, "values", vals)
        _check_values(vals, self.grid.size)


# an alias kept only for bench/tracer.py, which patches its __post_init__
ComplexField = Field


def _check_values(vals: np.ndarray, size: int | None = None) -> np.ndarray:
    if size is not None and vals.size != size:
        raise ValueError(f"field has {vals.size} values, grid has {size} nodes")
    if not np.all(np.isfinite(vals)):
        raise ValueError("field contains non-finite values")
    return vals


@dataclass(frozen=True, eq=False)
class State:
    """Solution u and auxiliary value q at step n, plus the previous u for the predictor.

    q starts positive; the evolved value may pass through zero when C0 = 0
    (only q^2 enters the energy, so the sign is immaterial).

    u_spectrum (the half spectrum if u is real) is the one a step passed on,
    or else u's transform, formed on first read; either way it is kept.
    corrections holds the fixed-point corrections c of the last two eavfs
    steps that led here, newest first, which warm-start the next eavfs step
    (avf.py); any other step leaves it empty.
    """

    u: Field
    q: float
    u_prev: Field | None
    n: int
    t: float
    corrections: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if self.u_prev is None and self.n != 0:
            raise ValueError("only the initial state may lack a previous level")

    @cached_property
    def u_spectrum(self) -> np.ndarray:
        return fourier.forward_values(self.u.values, self.u.grid)

    def _keep(self, **known) -> State:
        # seed the cached properties: a frozen dataclass blocks setattr, not the dict
        self.__dict__.update((name, val) for name, val in known.items() if val is not None)
        return self

    def predictor(self) -> np.ndarray:
        """Extrapolated half-step value (3 u^n - u^{n-1})/2; u^0 boots the first step."""
        if self.u_prev is None:
            return self.u.values
        uhat = np.multiply(self.u.values, 1.5)
        uhat -= 0.5 * self.u_prev.values
        return uhat

    def advance(self, tau: float, u: np.ndarray, q: float, u_spectrum: np.ndarray | None = None,
                corrections: tuple[np.ndarray, ...] = (), **spectra: np.ndarray) -> State:
        """The state one step of size tau later, holding the step's u, q, other
        fields and corrections.

        Other fields are given by their spectra (v_spectrum), the form every
        stepper has them in. Every stepper returns through here, so this is
        where a step's result is checked: a non-finite u, other field or q
        raises SolverError (u_spectrum is the transform of the checked u). The
        steppers run under np.errstate(all="ignore"): a failing step overflows
        on its way to their guards or to these checks, and numpy's warnings
        would only repeat them. A state that was stepped with another tau
        refuses this one (ValueError): the predictor and the eavfs warm start
        assume equal steps.
        """
        if self.n and abs(self.t - self.n * tau) > 1e-9 * max(1.0, abs(self.t)):
            raise ValueError(f"state at t = {self.t!r} after {self.n} steps was not stepped with "
                             f"tau = {tau!r}; build a new initial state to change the step size")
        n = self.n + 1
        name = "u"
        try:
            u_new = Field(self.u.grid, u)
            for name, values in spectra.items():
                _check_values(values)
        except ValueError as exc:
            raise SolverError(f"step {n} yields an invalid {name}: {exc}") from exc
        if not math.isfinite(q):
            raise SolverError(f"step {n} yields a non-finite q ({q:g})")
        new = type(self)(u=u_new, q=float(q), u_prev=self.u, n=n, t=n * tau,
                         corrections=corrections, **spectra)
        return new._keep(u_spectrum=u_spectrum)


def sample(grid: GridSpec, fn) -> np.ndarray:
    """Evaluate fn on the grid nodes, flat row-major, as a new writable array.

    fn takes the per-axis coordinates (x in 1D, x, y in 2D) broadcastable to
    the grid, not broadcast: in 2D x has shape (n0, 1) and y (1, n1), so a
    term in one coordinate is computed once per distinct value. fn must
    therefore be elementwise; its result may have any shape that broadcasts
    to the grid, a scalar included.
    """
    axes = map(grid.axis_nodes, range(grid.dim))
    out = np.asarray(fn(*np.meshgrid(*axes, indexing="ij", sparse=True)))
    return np.broadcast_to(out, grid.shape).flatten()


@lru_cache(maxsize=16)  # one read-only array per grid, shared by tables and energies
def fd_laplacian_eigenvalues(grid: GridSpec) -> np.ndarray:
    """Eigenvalues of the periodic second-difference Laplacian, in mode order.

    Along one axis: lam_j = -(4/h^2) sin^2(j*pi/N), j = 0..N-1; in 2D the
    tensor-product operator has eigenvalue lam_j + lam_k at mode (j, k).
    The sine is taken at min(j, N - j), so lam_j = lam_{N-j} bit for bit
    and every table built from lam is exactly even in k.
    """
    per_axis = []
    for N, h in zip(grid.n, grid.h):
        j = np.arange(N)
        per_axis.append(-(4.0 / h**2) * np.sin(np.minimum(j, N - j) * np.pi / N) ** 2)
    lam = reduce(np.add.outer, per_axis).ravel()
    lam.flags.writeable = False
    return lam


@lru_cache(maxsize=16)  # one read-only array per grid, shared by tables and energies
def spectral_laplacian_eigenvalues(grid: GridSpec) -> np.ndarray:
    """Fourier symbol of the Laplacian: -( (2*pi/(b-a)) * k )^2 in DFT mode order."""
    per_axis = []
    for N, lo, hi in zip(grid.n, grid.a, grid.b):
        k = np.fft.fftfreq(N, d=1.0 / N)  # signed wavenumbers 0, 1, ..., -1
        per_axis.append(-((2.0 * np.pi / (hi - lo)) * k) ** 2)
    lam = reduce(np.add.outer, per_axis).ravel()
    lam.flags.writeable = False
    return lam
