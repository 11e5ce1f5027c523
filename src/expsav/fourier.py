"""Discrete Fourier transforms and frequency-space diagonal operators.

Convention: the forward transform is the plain unnormalized DFT
(numpy's fft), the inverse carries the 1/N factor, so inverse(forward(u))
is the identity up to roundoff. Diagonal operators in frequency space are
applied as

    apply(u) = inverse( multipliers * forward(u) )

which is independent of the normalization split. In 2D the transform acts
per axis on the row-major-reshaped field and multiplier tables are flat in
the same mode order as node order.
"""

from __future__ import annotations

import numpy as np

from .grids import GridSpec


def forward_values(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mode coefficients of flat node values, flat in the same ordering as the nodes."""
    if values.size != grid.size:
        raise ValueError(f"{values.size} values for {grid.size} nodes")
    if grid.dim == 1:
        return np.fft.fft(values)
    return np.fft.fft2(values.reshape(grid.shape)).ravel()


def inverse_values(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Flat node values whose forward transform is coeffs."""
    if grid.dim == 1:
        return np.fft.ifft(coeffs)
    return np.fft.ifft2(coeffs.reshape(grid.shape)).ravel()


def apply_multipliers(values: np.ndarray, multipliers: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Apply the diagonal operator inverse(multipliers * forward(values)); complex result."""
    return inverse_values(multipliers * forward_values(values, grid), grid)


def real_part(values: np.ndarray) -> np.ndarray:
    """Drop the imaginary residue of a result that is real up to roundoff.

    Callers apply only tables built from a real symbol that is even in k (to
    roundoff), so the operator maps real fields to real fields.
    """
    return np.ascontiguousarray(values.real)
