"""Per-mode diagonal blocks of the exponential and phi operators.

For the wave system the stiff linear part decouples into 2x2 blocks per
Fourier mode. With lam <= 0 a mode's frequency is mu = |omega|*sqrt(-lam)
and, writing x = tau*mu,

    exp block:  [[cos x,        tau*s1(x)],      phi block: [[s1(x),          tau*c2(x)],
                 [-tau*mu^2*s1(x),  cos x]]                  [-tau*mu^2*c2(x), s1(x)   ]]

where s1(x) = sin(x)/x and c2(x) = (1 - cos x)/x^2, with s1(0) = 1 and
c2(0) = 1/2. phi is the average of exp over one step,
phi = integral_0^1 exp((1-xi)*V) dxi, so the lam = 0 block is
[[1, tau/2], [0, 1]] rather than the identity. Every exp block has
determinant cos^2 x + sin^2 x = 1.

For the Schroedinger system the linear flow is the unitary phase
exp(i*tau*lam) per mode and its step average is
sigma = (exp(i*tau*lam) - 1)/(i*tau*lam) = exp(i*x/2)*s1(x/2) with
x = tau*lam, sigma = 1 at lam = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec

# below this argument the direct sin/cos quotients lose digits; switch to series
_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True, eq=False)
class ExpPhiTables:
    """Per-mode 2x2 blocks of exp(V) and phi(V) for the wave stepper.

    Each block's two diagonal entries are equal, so e11/p11 also serve as e22/p22.
    phi21 is not stored: the forcing (0, -G'(u)) has no u component, so no
    stepper reads it.
    """

    grid: GridSpec
    tau: float
    omega: float
    e11: np.ndarray
    e12: np.ndarray
    e21: np.ndarray
    p11: np.ndarray
    p12: np.ndarray


@dataclass(frozen=True, eq=False)
class NlsTables:
    """Per-mode phase factors exp(i*tau*lam) and step averages sigma."""

    grid: GridSpec
    tau: float
    expD: np.ndarray
    sigma: np.ndarray


def sin_over_x(x: np.ndarray) -> np.ndarray:
    """sin(x)/x with a degree-6 series branch near zero."""
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < _SERIES_CUTOFF
    x2 = x * x
    series = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.sin(x) / x
    return np.where(small, series, direct)


def versine_over_x2(x: np.ndarray) -> np.ndarray:
    """(1 - cos(x))/x^2 with a degree-6 series branch near zero."""
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < _SERIES_CUTOFF
    x2 = x * x
    series = 0.5 * (1.0 - x2 / 12.0 * (1.0 - x2 / 30.0 * (1.0 - x2 / 56.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (1.0 - np.cos(x)) / x2
    return np.where(small, series, direct)


def build_kg_tables(grid: GridSpec, lam: np.ndarray, omega: float, tau: float) -> ExpPhiTables:
    """Tabulate the wave-system exp/phi blocks for Laplacian eigenvalues lam."""
    lam = np.asarray(lam, dtype=np.float64).ravel()
    if lam.size != grid.size:
        raise ValueError(f"{lam.size} eigenvalues for {grid.size} modes")
    if np.any(lam > 0.0):
        raise ValueError("Laplacian eigenvalues must be nonpositive")
    if tau <= 0.0:
        raise ValueError("time step must be positive")

    mu2 = omega * omega * (-lam)
    mu = np.sqrt(mu2)
    x = tau * mu
    s1 = sin_over_x(x)
    c2 = versine_over_x2(x)
    return ExpPhiTables(
        grid=grid,
        tau=float(tau),
        omega=float(omega),
        e11=np.cos(x),
        e12=tau * s1,
        e21=-tau * mu2 * s1,
        p11=s1,
        p12=tau * c2,
    )


def build_nls_tables(grid: GridSpec, lam: np.ndarray, tau: float) -> NlsTables:
    """Tabulate exp(i*tau*lam) and sigma for the Schroedinger stepper."""
    lam = np.asarray(lam, dtype=np.float64).ravel()
    if lam.size != grid.size:
        raise ValueError(f"{lam.size} eigenvalues for {grid.size} modes")
    if tau <= 0.0:
        raise ValueError("time step must be positive")

    x = tau * lam
    expD = np.exp(1j * x)
    # (e^{ix} - 1)/(ix) = e^{ix/2} sin(x/2)/(x/2), exact and cancellation-free
    sigma = np.exp(0.5j * x) * sin_over_x(0.5 * x)
    return NlsTables(grid=grid, tau=float(tau), expD=expD, sigma=sigma)
