"""Vectorized floating-point geometry for sampling runs: the float step of
the continued fraction map and the hexagon margin (`hex_margin`).

The step has two parts.  `_round` rounds w = 1/z to its digit alpha and
writes the residual w - alpha into a caller's buffer; `_alive` is the
boundary-band test on z and that residual.  `t_step` is both in one call.
The orbit loop calls `_round` every step, inside its own error state, and
`_alive` once per block of steps: the test is elementwise, so a block's
mask ANDed over its rows is the mask ANDed step by step.

Boundary handling follows one rule everywhere: a point whose classification
comes within ``exact.BAND`` of any constraint is banded and the caller must
skip or resample it, never guess a side.

Rounding to J is the A2 decoder of Conway and Sloane (IEEE Trans. Inf.
Theory 28, 1982), the float twin of hexdomain.floor_J: J is two shifted
rectangular lattices and U is its Voronoi cell.  Both lattices are rounded
in one (2, n) array and the digit is assembled from the rounded floats:
after 1/z, `_round` makes 25 numpy calls, against the 37 of rounding each
lattice on its own and casting the digit to integers.  Every float
operation is the one the coordinate-wise formulas name, so the digits,
residuals and masks are bitwise theirs.
"""

from __future__ import annotations

import numpy as np

from .exact import BAND, SQRT3

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


def _round(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rounding of `t_step` on a 1-d array, in the caller's
    floating-point error state: returns the digit alpha of w = 1/z and
    writes the residual w - alpha into `out`, which must not share memory
    with z.

    With w = x + y*sqrt(-3), J is {x in 3Z, y in Z} and its shift by
    (3/2, 1/2).  Both are rounded coordinate-wise and the point at the
    smaller dx^2 + 3 dy^2 is kept; (near-)ties lie in the band, which
    `_alive` tests."""
    w = np.divide(1.0, z, out=out)
    x, y = w.real, w.imag / SQRT3
    p = np.rint((x - _SHIFT_X) / 3.0)
    q = np.rint(y - _SHIFT_Y)
    dist = (x - 3.0 * p - _SHIFT_X) ** 2 + 3.0 * (y - q - _SHIFT_Y) ** 2
    one = dist[1] < dist[0]
    p, q = np.where(one, p[1], p[0]), np.where(one, q[1], q[0])
    # alpha = m*eta + n*sqrt(-3) has x = 3m/2 and y = m/2 + n
    alpha = (2.0 * p + one) * ETA_C + (q - p) * S3_C
    np.subtract(w, alpha, out=out)
    return alpha


def _alive(z: np.ndarray, resid: np.ndarray, tol: float) -> np.ndarray:
    """Whether the step from z to its residual `resid` is kept, elementwise
    on arrays of any one shape.  |z| > 1e-15 keeps |1/z| well below 2^52,
    where doubles stop resolving J.  An infinite z, where 1/z = 0 rounds to
    the digit 0 with residual 0, is dead."""
    return np.isfinite(z) & (np.abs(z) > 1e-15) & (hex_margin(resid) < -tol)


def t_step(
    z: np.ndarray, tol: float = BAND
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One float step of the continued fraction map on an array: `_round`
    and `_alive` in one call.

    Returns (digit alpha, next point, alive mask); entries that hit the
    boundary band, underflow at 0 or are infinite come back dead, with next
    point 0, and must be resampled by the caller.  A dead entry's digit is
    meaningless: 1/z is rounded as it comes, inf and nan included.
    """
    z = np.asarray(z, dtype=np.complex128)
    resid = np.empty(z.shape, dtype=np.complex128)
    with np.errstate(all="ignore"):
        alpha = _round(z.reshape(-1), resid.reshape(-1))
        alive = _alive(z, resid, tol)
    return alpha.reshape(z.shape), np.where(alive, resid, 0.0), alive
