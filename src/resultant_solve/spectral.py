"""Unit-circle sampling and FFT-based determinant-coefficient recovery.

The determinant of a matrix polynomial has some fixed degree k.  Evaluating
it at the k+1 points  e^{-2*pi*i*j/(k+1)}  turns coefficient recovery into
an inverse DFT: the Vandermonde system linking samples to coefficients is
the DFT matrix, so it is never formed or inverted.  The (d+1, N, N)
coefficient stack is zero-padded to length k+1 along the degree axis and
a single forward FFT evaluates every matrix entry at every sample point at
once.  The recovered determinant is one 1-D coefficient array, ascending
degree.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TRIM_TOL = 1e-12


def batched_eval(stack: np.ndarray, k: int) -> np.ndarray:
    """Evaluate the (d+1, N, N) stack at the k+1 sample points in one transform.

    Returns a (k+1, N, N) complex stack; slice j equals the matrix evaluated
    at e^{-2*pi*i*j/(k+1)}.  The degree axis is zero-padded from d+1 to k+1
    so the FFT bins coincide with the sample points; k < d would alias
    entry degrees and is rejected.
    """
    if k < len(stack) - 1:
        raise ValueError(f"need k >= entry degree ({len(stack) - 1}), got k={k}")
    return np.fft.fft(stack, n=k + 1, axis=0)


def recover_coefficients(samples: np.ndarray) -> np.ndarray:
    """Coefficients c_0..c_k from the k+1 samples taken by ``batched_eval``.

    Each coefficient is  c_l = (1/(k+1)) * sum_j y_j e^{2*pi*i*j*l/(k+1)},
    i.e. the inverse FFT of the sample vector.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-D sequence")
    return np.fft.ifft(samples)


def trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop trailing coefficients below DEFAULT_TRIM_TOL of the largest magnitude.

    Returns a slice of ``coeffs``; the constant term always survives, so
    the result is never empty.
    """
    mags = np.abs(coeffs)
    cutoff = DEFAULT_TRIM_TOL * mags.max()
    top = len(coeffs)
    while top > 1 and mags[top - 1] <= cutoff:
        top -= 1
    return coeffs[:top]
