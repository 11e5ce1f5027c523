"""Per-mode diagonal blocks of the exponential and phi operators.

The blocks are functions of the Laplacian the family's energies are written
with, so each builder refuses any other lam (_family_eigenvalues).

For the wave system the stiff linear part decouples into 2x2 blocks per
Fourier mode. With lam <= 0 a mode's frequency is mu = |omega|*sqrt(-lam)
and, writing x = tau*mu,

    exp block:  [[cos x,        tau*s1(x)],      phi block: [[s1(x),          tau*c2(x)],
                 [-tau*mu^2*s1(x),  cos x]]                  [-tau*mu^2*c2(x), s1(x)   ]]

where s1(x) = sin(x)/x and c2(x) = (1 - cos x)/x^2, with s1(0) = 1 and
c2(0) = 1/2; so phi11 = e12/tau. phi is the average of exp over one step,
phi = integral_0^1 exp((1-xi)*V) dxi, so the lam = 0 block is
[[1, tau/2], [0, 1]] rather than the identity. Every exp block has
determinant cos^2 x + sin^2 x = 1.

The wave tables act on real fields, so they are stored on the half
spectrum (numpy's rfftn layout, see fourier.py): the eigenvalues are even
in k and a block depends on the mode only through its eigenvalue, so the
conjugate half is redundant.

Both builders evaluate their formulas on rows 0..r/2 of a table's r rows
only, and copy row j to row r - j. The wave tables' rows are those of the
half spectrum viewed as (-1, n_last//2 + 1): r = n0 in 2D, and r = 1 in 1D,
which has no mirror. The NLS tables view the full spectrum as (n0, -1), so
r = n0. The mirror is exact: lam is bitwise even along that axis (the FD
sine is taken at min(j, N - j), and the spectral symbol is (c*k)^2 =
(c*(-k))^2), and each entry is an elementwise function of lam, so the
mirrored tables have the bytes of the formulas evaluated on every mode.

For the Schroedinger system the linear flow is the unitary phase
exp(i*tau*lam) per mode and its step average is
sigma = (exp(i*tau*lam) - 1)/(i*tau*lam) = exp(i*x/2)*s1(x/2) with
x = tau*lam, sigma = 1 at lam = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fourier import half_spectrum
from .grids import GridSpec, fd_laplacian_eigenvalues, spectral_laplacian_eigenvalues


@dataclass(frozen=True, eq=False)
class ExpPhiTables:
    """Per-mode 2x2 blocks of exp(V) and phi(V) for the wave stepper, on the half spectrum.

    Each block's two diagonal entries are equal, so e11 also serves as e22, and
    e12/tau as phi11 = phi22. phi21 is not stored: the forcing (0, -G'(u)) has
    no u component, so no stepper reads it.
    omega is the wave speed the blocks are for; the steppers refuse another.
    """

    grid: GridSpec
    tau: float
    omega: float
    e11: np.ndarray
    e12: np.ndarray
    e21: np.ndarray
    p12: np.ndarray


@dataclass(frozen=True, eq=False)
class NlsTables:
    """Per-mode phase factors exp(i*tau*lam) and step averages sigma."""

    grid: GridSpec
    tau: float
    expD: np.ndarray
    sigma: np.ndarray


def sin_over_x(x: np.ndarray) -> np.ndarray:
    """sin(x)/x, 1 at x = 0. Near zero the quotient is within an ulp of the
    degree-6 series (checked on |x| <= 1e-3), so it needs no series branch."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = np.asarray(np.sin(x) / x)
        s1[x == 0.0] = 1.0
    return s1


def versine_over_x2(x: np.ndarray) -> np.ndarray:
    """(1 - cos(x))/x^2, as 2 sin^2(x/2)/x^2: no cancellation at any x."""
    return 0.5 * sin_over_x(0.5 * np.asarray(x, dtype=np.float64)) ** 2


def _family_eigenvalues(grid: GridSpec, lam: np.ndarray, tau: float,
                        family: Callable[[GridSpec], np.ndarray]) -> np.ndarray:
    """family(grid), once tau > 0 is finite and lam is that shared array or equal
    to it; tables from any other lam would not conserve the family's energy."""
    if not (np.isfinite(tau) and tau > 0.0):  # tau <= 0.0 is False for nan
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    own = family(grid)
    if lam is own or np.array_equal(np.asarray(lam).ravel(), own):
        return own
    raise ValueError(f"tables not built from {family.__name__}(grid), "
                     "the Laplacian of the energies")


def _mirrored(t: np.ndarray) -> np.ndarray:
    """The flat table of r rows from t, its rows 0..r/2: row r - j is row j."""
    return np.concatenate([t, t[-2:0:-1]]).ravel()


def build_kg_tables(grid: GridSpec, lam: np.ndarray, omega: float, tau: float) -> ExpPhiTables:
    """Tabulate the wave-system exp/phi blocks on the half spectrum; lam must be
    fd_laplacian_eigenvalues(grid), or an equal copy."""
    lam = _family_eigenvalues(grid, lam, tau, fd_laplacian_eigenvalues)
    if not np.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")

    half = half_spectrum(lam, grid).reshape(-1, grid.shape[-1] // 2 + 1)
    mu2 = omega * omega * (-half[: len(half) // 2 + 1])
    mu = np.sqrt(mu2)
    x = tau * mu
    s1 = sin_over_x(x)
    return ExpPhiTables(
        grid=grid,
        tau=float(tau),
        omega=float(omega),
        e11=_mirrored(np.cos(x)),
        e12=_mirrored(tau * s1),
        e21=_mirrored(-tau * mu2 * s1),
        p12=_mirrored(tau * versine_over_x2(x)),
    )


def build_nls_tables(grid: GridSpec, lam: np.ndarray, tau: float) -> NlsTables:
    """Tabulate exp(i*tau*lam) and sigma for the Schroedinger stepper; lam must
    be spectral_laplacian_eigenvalues(grid), or an equal copy."""
    lam = _family_eigenvalues(grid, lam, tau, spectral_laplacian_eigenvalues)
    n0 = grid.shape[0]
    x = tau * lam.reshape(n0, -1)[: n0 // 2 + 1]
    expD = np.exp(1j * x)
    # (e^{ix} - 1)/(ix) = e^{ix/2} sin(x/2)/(x/2), exact and cancellation-free
    sigma = np.exp(0.5j * x) * sin_over_x(0.5 * x)
    return NlsTables(grid=grid, tau=float(tau), expD=_mirrored(expD), sigma=_mirrored(sigma))
