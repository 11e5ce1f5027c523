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
  fields to real fields; half_rows views such a table's half-spectrum
  columns in its full layout.

When the last axis has 2 nodes the half spectrum is the full one; it then
inverts through the complex path, which is exact there, and real_part
drops the zero imaginary part; so every inverse of a wave stepper or state
(u' of the SAV step, AVF iterates, a velocity from its spectrum) goes through it.

Each transform allocates only the array it returns. It runs numpy's 1-D
passes in numpy's own axis order, so its results are numpy's rfftn, fftn,
ifftn and irfftn bitwise: the first pass (rfft or fft on the last axis)
allocates the result and the leading-axis pass runs in place on it, with
out=. A 2-D half-spectrum inverse keeps one intermediate, the ifft of the
leading axis, because irfft cannot write real values over complex input.
No transform writes into its argument, so a caller may update the array a
transform returns in place. Such an update keeps the operand order of the
product it replaces (np.multiply(mult, F, out=F) for mult * F, never
F *= mult): numpy's complex multiply is not bitwise commutative.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .grids import GridSpec


def _half_shape(grid: GridSpec) -> tuple[int, ...]:
    return (*grid.n[:-1], grid.n[-1] // 2 + 1)


def forward_values(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mode coefficients of flat node values: half spectrum if real, full if complex."""
    if values.size != grid.size:
        raise ValueError(f"{values.size} values for {grid.size} nodes")
    x = values.reshape(grid.n)
    out = np.fft.fft(x) if np.iscomplexobj(x) else np.fft.rfft(x)
    if grid.dim == 2:
        np.fft.fft(out, axis=0, out=out)
    return out.ravel()


def inverse_values(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Flat node values whose forward transform is coeffs; real from a half spectrum."""
    if coeffs.size < grid.size:
        x = coeffs.reshape(_half_shape(grid))
        if grid.dim == 2:
            # the one intermediate: irfft cannot write real values over it
            x = np.fft.ifft(x, axis=0)
        return np.fft.irfft(x, n=grid.n[-1]).ravel()
    out = np.fft.ifft(coeffs.reshape(grid.n))
    if grid.dim == 2:
        np.fft.ifft(out, axis=0, out=out)
    return out.ravel()


def apply_multipliers(values: np.ndarray, multipliers: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Apply the diagonal operator inverse(multipliers * forward(values)).

    The values are taken as complex, so the multipliers cover the full
    spectrum and the result is complex.
    """
    values = np.asarray(values, dtype=np.complex128)
    return inverse_values(multipliers * forward_values(values, grid), grid)


def half_rows(full: np.ndarray, grid: GridSpec) -> np.ndarray:
    """A view of the half-spectrum columns of a flat full-layout array (e.g. a
    table even in k), one row per mode of the leading axes: shape
    (-1, n_last//2 + 1), which a half spectrum takes by reshape(view.shape)."""
    return full.reshape(-1, grid.n[-1])[:, : _half_shape(grid)[-1]]


def half_inner(a_hat: np.ndarray, b_hat: np.ndarray, grid: GridSpec) -> float:
    """<a, b> of two real fields from their half spectra, by Parseval.

    <a, b> = cell/N * sum weight * Re(A conj(B)), where the weight is 1 on
    the first and last columns of the last axis (wavenumbers 0 and n/2,
    which have no conjugate partner) and 2 elsewhere.
    """
    # Re(A conj(B)) = A.re B.re + A.im B.im: a dot of the interleaved float64
    # views, summed by einsum rather than BLAS, whose threaded sum order (and
    # so the last bits) would depend on the thread count
    m2 = 2 * _half_shape(grid)[-1]
    a2, b2 = a_hat.view(np.float64).reshape(-1, m2), b_hat.view(np.float64).reshape(-1, m2)
    total = (2.0 * np.einsum("ij,ij", a2, b2) - np.einsum("ij,ij", a2[:, :2], b2[:, :2])
             - np.einsum("ij,ij", a2[:, -2:], b2[:, -2:]))
    return grid.cell * float(total) / grid.size


def real_part(values: np.ndarray) -> np.ndarray:
    """Drop the imaginary residue of a result that is real up to roundoff.

    Callers apply only tables built from a real symbol that is even in k, so
    the operator maps real fields to real fields. A real array (an inverse
    half spectrum) is returned as it is.
    """
    return np.ascontiguousarray(values.real)
