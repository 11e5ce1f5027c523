"""Discrete Fourier transforms and frequency-space diagonal operators.

Convention: the forward transform is the plain unnormalized DFT
(numpy's fft), the inverse carries the 1/N factor, so inverse(forward(u))
is the identity up to roundoff. Diagonal operators in frequency space are
applied as

    apply(u) = inverse( multipliers * forward(u) )

which is independent of the normalization split. In 2D the transform acts
per axis on the row-major-reshaped field.

Two layouts share these functions, chosen by the data type:

* complex fields have the full spectrum, flat in the same mode order as
  the node order;
* real fields have the half spectrum (numpy's rfftn layout): every mode
  of the leading axes, but only wavenumbers 0..n//2 of the last axis,
  flattened row-major to shape[:-1] + (n//2 + 1,). The other half is the
  complex conjugate and is not stored. A multiplier table that acts on
  half spectra must be real and even in k, so the operator maps real
  fields to real fields; half_spectrum cuts such a table from its full
  layout.

When the last axis has 2 nodes the half spectrum is the full one; it then
inverts through the complex path, which is exact there, and real_part
drops the zero imaginary part; so every inverse of a wave stepper or state
(u' of the SAV step, AVF iterates, a velocity from its spectrum) goes through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .grids import GridSpec


def _half_shape(grid: GridSpec) -> tuple[int, ...]:
    return (*grid.shape[:-1], grid.shape[-1] // 2 + 1)


def forward_values(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mode coefficients of flat node values: half spectrum if real, full if complex."""
    if values.size != grid.size:
        raise ValueError(f"{values.size} values for {grid.size} nodes")
    if not np.iscomplexobj(values):
        return np.fft.rfftn(values.reshape(grid.shape)).ravel()
    return np.fft.fftn(values.reshape(grid.shape)).ravel()


def inverse_values(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Flat node values whose forward transform is coeffs; real from a half spectrum."""
    if coeffs.size < grid.size:
        return np.fft.irfftn(coeffs.reshape(_half_shape(grid)), s=grid.shape,
                             axes=tuple(range(grid.dim))).ravel()
    return np.fft.ifftn(coeffs.reshape(grid.shape)).ravel()


def apply_multipliers(values: np.ndarray, multipliers: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Apply the diagonal operator inverse(multipliers * forward(values)).

    The values are taken as complex, so the multipliers cover the full
    spectrum and the result is complex.
    """
    values = np.asarray(values, dtype=np.complex128)
    return inverse_values(multipliers * forward_values(values, grid), grid)


def half_spectrum(full: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The half-spectrum part of a flat full-spectrum array, e.g. a table even in k."""
    return full.reshape(-1, grid.shape[-1])[:, : _half_shape(grid)[-1]].ravel()


def half_inner(a_hat: np.ndarray, b_hat: np.ndarray, grid: GridSpec) -> float:
    """<a, b> of two real fields from their half spectra, by Parseval.

    <a, b> = cell/N * sum weight * Re(A conj(B)), where the weight is 1 on
    the first and last columns of the last axis (wavenumbers 0 and n/2,
    which have no conjugate partner) and 2 elsewhere.
    """
    m = _half_shape(grid)[-1]
    a2, b2 = a_hat.reshape(-1, m), b_hat.reshape(-1, m)
    total = (2.0 * np.vdot(b2, a2).real - np.vdot(b2[:, 0], a2[:, 0]).real
             - np.vdot(b2[:, -1], a2[:, -1]).real)
    return grid.cell * float(total) / grid.size


def real_part(values: np.ndarray) -> np.ndarray:
    """Drop the imaginary residue of a result that is real up to roundoff.

    Callers apply only tables built from a real symbol that is even in k, so
    the operator maps real fields to real fields. A real array (an inverse
    half spectrum) is returned as it is.
    """
    return np.ascontiguousarray(values.real)
