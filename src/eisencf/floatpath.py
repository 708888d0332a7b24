"""Vectorized floating-point geometry for sampling runs: the float step of
the continued fraction map and the hexagon margin (`hex_margin`).

The step has two parts.  `_digit` rounds w = 1/z to its digit alpha;
`_alive` is the boundary-band test on z and the residual w - alpha.
`t_step` is both in one call.  The orbit loop steps z and the dual ratio as
one array, calls `_digit` every step, inside its own error state, and
`_alive` once per block of steps: the test is elementwise, so a block's
mask ANDed over its rows is the mask ANDed step by step.

Boundary handling follows one rule everywhere: a point whose classification
comes within ``exact.BAND`` of any constraint is banded and the caller must
skip or resample it, never guess a side.

Rounding to J is the A2 decoder of Conway and Sloane (IEEE Trans. Inf.
Theory 28, 1982), the float twin of hexdomain.floor_J: J is two shifted
rectangular lattices and U is its Voronoi cell.  Both lattices and both
coordinates are rounded in one (2, 2, n) stack and the digit is assembled
from the rounded floats in 18 numpy calls, against 24 with the lattices
stacked alone and 36 with each rounded on its own.  Every float operation
is the one the coordinate-wise formulas name, so the digits, residuals and
masks are bitwise theirs.
"""

from __future__ import annotations

import numpy as np

from .exact import BAND, SQRT3

# bounding box (xlo, xhi, ylo, yhi) of the hexagon U in real coordinates
U_BOX = (-1.0, 1.0, -SQRT3 / 2, SQRT3 / 2)
ETA_C = complex(1.5, SQRT3 / 2.0)
S3_C = complex(0.0, SQRT3)

# rows x and y by columns J and its shift by (3/2, 1/2): y from Im w, the
# lattice steps, the offsets (s_x, s_y) and the weights of dx^2 + 3 dy^2
_CONSTANTS = ((1.0, SQRT3), (3.0, 1.0), ((0.0, 1.5), (0.0, 0.5)), (1.0, 3.0))


def hex_margin(z: np.ndarray) -> np.ndarray:
    """max constraint value of the open hexagon; negative means inside."""
    x = z.real
    y = z.imag / SQRT3
    return np.maximum(np.maximum(np.abs(y) - 0.5, np.abs(x + y) - 1.0),
                      np.abs(x - y) - 1.0)


def _stacks(n: int) -> np.ndarray:
    """`_CONSTANTS` as (2, 2, n) arrays, which a caller builds once per width
    n: numpy takes about twice as long in place over a (2, 2, 1) operand."""
    return np.array([np.broadcast_to(np.reshape(c, (2, -1, 1)), (2, 2, n))
                     for c in _CONSTANTS])


def _digit(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """The digit alpha of w, a contiguous 1-d array, given `_stacks(w.size)`,
    in the caller's error state.

    With w = x + y*sqrt(-3), J is {x in 3Z, y in Z} and its shift by
    (3/2, 1/2).  Both are rounded coordinate-wise and the point at the
    smaller dx^2 + 3 dy^2 is kept; (near-)ties lie in the band, which
    `_alive` tests.  A stack's padding subtracts 0 or scales by 1, exactly,
    so each entry is its coordinate-wise expression."""
    scale, step, shift, weight = stacks
    xy = np.divide(w.view(np.float64).reshape(-1, 1, 2).T, scale)
    pq = np.rint((xy - shift) / step)
    d = xy - pq * step
    d -= shift
    d *= d
    d *= weight
    dist = d[0] + d[1]
    one = dist[1] < dist[0]
    p, q = np.where(one, pq[:, 1], pq[:, 0])
    # alpha = m*eta + n*sqrt(-3) has x = 3m/2 and y = m/2 + n
    return (2.0 * p + one) * ETA_C + (q - p) * S3_C


def _alive(z: np.ndarray, resid: np.ndarray, tol: float) -> np.ndarray:
    """Whether the step from z to its residual `resid` is kept, elementwise
    on arrays of any one shape.  |z| > 1e-15 keeps |1/z| well below 2^52,
    where doubles stop resolving J.  An infinite z, where 1/z = 0 rounds to
    the digit 0 with residual 0, is dead."""
    return np.isfinite(z) & (np.abs(z) > 1e-15) & (hex_margin(resid) < -tol)


def t_step(
    z: np.ndarray, tol: float = BAND
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One float step of the continued fraction map on an array: `_digit`
    of 1/z and `_alive` in one call.

    Returns (digit alpha, next point, alive mask); entries that hit the
    boundary band, underflow at 0 or are infinite come back dead, with next
    point 0, and must be resampled by the caller.  A dead entry's digit is
    meaningless: 1/z is rounded as it comes, inf and nan included.
    """
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        w = 1.0 / z.reshape(-1)
        alpha = _digit(w, _stacks(w.size))
        resid = (w - alpha).reshape(z.shape)
        alive = _alive(z, resid, tol)
    return alpha.reshape(z.shape), np.where(alive, resid, 0.0), alive
