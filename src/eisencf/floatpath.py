"""Vectorized floating-point geometry for sampling runs.

Boundary handling follows one rule everywhere: a point whose classification
comes within ``tol`` of any constraint is banded and the caller must skip or
resample it, never guess a side.

Rounding to J is the A2 decoder of Conway and Sloane (IEEE Trans. Inf.
Theory 28, 1982), the float twin of hexdomain.floor_J: J is two shifted
rectangular lattices and U is its Voronoi cell.
"""

from __future__ import annotations

import numpy as np

from .exact import SQRT3

# bounding box (xlo, xhi, ylo, yhi) of the hexagon U in real coordinates
U_BOX = (-1.0, 1.0, -SQRT3 / 2, SQRT3 / 2)
ETA_C = complex(1.5, SQRT3 / 2.0)
S3_C = complex(0.0, SQRT3)


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

    With z = x + y*sqrt(-3), J is {x in 3Z, y in Z} and its shift by
    (3/2, 1/2).  Both cosets are rounded coordinate-wise and the point at
    the smaller squared distance dx^2 + 3 dy^2 is kept; (near-)ties lie on
    the hexagon's edges, inside the band.
    """
    w = np.asarray(w, dtype=np.complex128)
    x = w.real
    y = w.imag / SQRT3
    p0, q0 = np.rint(x / 3.0), np.rint(y)
    p1, q1 = np.rint((x - 1.5) / 3.0), np.rint(y - 0.5)
    one = ((x - 3.0 * p1 - 1.5) ** 2 + 3.0 * (y - q1 - 0.5) ** 2
           < (x - 3.0 * p0) ** 2 + 3.0 * (y - q0) ** 2)
    # alpha = m*eta + n*sqrt(-3) has x = 3m/2 and y = m/2 + n
    p = np.where(one, p1, p0)
    m = (2.0 * p + one).astype(np.int64)
    n = (np.where(one, q1, q0) - p).astype(np.int64)
    alpha = m * ETA_C + n * S3_C
    marg = hex_margin(w - alpha)
    band = np.abs(marg) <= tol
    ok = marg < -tol
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
