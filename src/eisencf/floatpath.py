"""Vectorized floating-point geometry for sampling runs.

Boundary handling follows one rule everywhere: a point whose classification
comes within ``tol`` of any constraint is banded and the caller must skip or
resample it, never guess a side.
"""

from __future__ import annotations

import numpy as np

from .exact import SQRT3

# bounding box (xlo, xhi, ylo, yhi) of the hexagon U in real coordinates
U_BOX = (-1.0, 1.0, -SQRT3 / 2, SQRT3 / 2)
ETA_C = complex(1.5, SQRT3 / 2.0)
S3_C = complex(0.0, SQRT3)

# the nine (dm, dn) offsets of the rounding search
_OFF = np.array(
    [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)],
    dtype=np.int64,
)


def hex_margin(z: np.ndarray) -> np.ndarray:
    """max constraint value of the open hexagon; negative means inside."""
    x = z.real
    y = z.imag / SQRT3
    return np.maximum.reduce(
        [np.abs(y) - 0.5, np.abs(x + y) - 1.0, np.abs(x - y) - 1.0]
    )


def nearest_digits(
    w: np.ndarray, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round an array of complex values to the digit module J.

    Returns (alpha, ok, band): alpha the complex digits, ok marking entries
    whose residual w - alpha is strictly inside the hexagon, band marking
    entries that came within tol of a hexagon edge (to be skipped).
    """
    w = np.asarray(w, dtype=np.complex128)
    x = w.real
    y = w.imag / SQRT3
    m0 = np.rint(2.0 * x / 3.0).astype(np.int64)
    n0 = np.rint(y - x / 3.0).astype(np.int64)

    alpha = np.empty_like(w)
    best = np.full(w.shape, np.inf)
    for dm, dn in _OFF:
        cand = (m0 + dm) * ETA_C + (n0 + dn) * S3_C
        marg = hex_margin(w - cand)
        take = marg < best
        best = np.where(take, marg, best)
        alpha = np.where(take, cand, alpha)
    band = np.abs(best) <= tol
    ok = (best < -tol) & ~band
    return alpha, ok, band


def t_step(
    z: np.ndarray, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One float step of the continued fraction map on an array.

    Returns (digit alpha, next point, alive mask); entries that hit the
    boundary band (or underflow at 0) come back dead and must be resampled
    by the caller.
    """
    z = np.asarray(z, dtype=np.complex128)
    alive = np.abs(z) > 1e-15
    w = np.where(alive, 1.0 / np.where(alive, z, 1.0), 0.0)
    alpha, ok, _band = nearest_digits(w, tol)
    alive &= ok
    z_next = np.where(alive, w - alpha, 0.0)
    return alpha, z_next, alive


def digit_matches(alpha: np.ndarray, target: complex) -> np.ndarray:
    """Digits of J are at mutual distance >= sqrt(3); 0.5 separates them."""
    return np.abs(alpha - target) < 0.5
