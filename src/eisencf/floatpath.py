"""Vectorized floating-point geometry for sampling runs: the float step of
the continued fraction map (`t_step`, and `_step`, which the orbit loop
calls inside its own error state) and the hexagon margin (`hex_margin`).

Boundary handling follows one rule everywhere: a point whose classification
comes within ``tol`` of any constraint is banded and the caller must skip or
resample it, never guess a side.

Rounding to J is the A2 decoder of Conway and Sloane (IEEE Trans. Inf.
Theory 28, 1982), the float twin of hexdomain.floor_J: J is two shifted
rectangular lattices and U is its Voronoi cell.  Both lattices are rounded
in one (2, n) array and the digit is assembled from the rounded floats: 25
numpy calls instead of the 37 of rounding each lattice on its own and
casting the digit to integers.  Every float operation is the one the
coordinate-wise formulas name, so the digits, residuals and masks are
bitwise theirs.
"""

from __future__ import annotations

import numpy as np

from .exact import SQRT3

# bounding box (xlo, xhi, ylo, yhi) of the hexagon U in real coordinates
U_BOX = (-1.0, 1.0, -SQRT3 / 2, SQRT3 / 2)
ETA_C = complex(1.5, SQRT3 / 2.0)
S3_C = complex(0.0, SQRT3)

# J and its shift by (3/2, 1/2), as the offsets of x and of y, one row each
_SHIFT_X = np.array([[0.0], [1.5]])
_SHIFT_Y = np.array([[0.0], [0.5]])


def hex_margin(z: np.ndarray) -> np.ndarray:
    """max constraint value of the open hexagon; negative means inside."""
    x = z.real
    y = z.imag / SQRT3
    return np.maximum(np.maximum(np.abs(y) - 0.5, np.abs(x + y) - 1.0),
                      np.abs(x - y) - 1.0)


def _step(z: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`t_step` on a 1-d array in the caller's floating-point error state,
    with a dead entry's next point w - alpha, w = 1/z, left as it comes.

    With w = x + y*sqrt(-3), J is {x in 3Z, y in Z} and its shift by
    (3/2, 1/2).  Both are rounded coordinate-wise and the point at the
    smaller dx^2 + 3 dy^2 is kept; (near-)ties lie in the band.  |z| > 1e-15
    keeps |w| well below 2^52, where doubles stop resolving J.  An infinite z,
    where w = 0 rounds to the digit 0 with residual 0, is dead."""
    w = 1.0 / z
    x, y = w.real, w.imag / SQRT3
    p = np.rint((x - _SHIFT_X) / 3.0)
    q = np.rint(y - _SHIFT_Y)
    dist = (x - 3.0 * p - _SHIFT_X) ** 2 + 3.0 * (y - q - _SHIFT_Y) ** 2
    one = dist[1] < dist[0]
    p, q = np.where(one, p[1], p[0]), np.where(one, q[1], q[0])
    # alpha = m*eta + n*sqrt(-3) has x = 3m/2 and y = m/2 + n
    alpha = (2.0 * p + one) * ETA_C + (q - p) * S3_C
    resid = w - alpha
    return alpha, resid, np.isfinite(z) & (np.abs(z) > 1e-15) & (hex_margin(resid) < -tol)


def t_step(
    z: np.ndarray, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One float step of the continued fraction map on an array.

    Returns (digit alpha, next point, alive mask); entries that hit the
    boundary band, underflow at 0 or are infinite come back dead, with next
    point 0, and must be resampled by the caller.  A dead entry's digit is
    meaningless: 1/z is rounded as it comes, inf and nan included.
    """
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        alpha, resid, alive = _step(z.reshape(-1), tol)
    z_next = np.where(alive, resid, 0.0)
    return alpha.reshape(z.shape), z_next.reshape(z.shape), alive.reshape(z.shape)
