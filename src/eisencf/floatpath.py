"""Vectorized floating-point geometry for sampling runs: the float step of
the continued fraction map and the hexagon margin (`hex_margin`).

The step has two parts.  A step bound by `_stepper` rounds w = 1/z to its
digit alpha and writes w - alpha; `_alive` is the boundary-band test on z
and that residual.  `t_step` binds a step over its one row and runs both.
The orbit loop binds one step per round over z and the dual ratio, and runs
`_alive` once per block of steps: the test is elementwise, so a block's
mask ANDed over its rows is the mask ANDed step by step.

Boundary handling follows one rule everywhere: a point whose classification
comes within ``exact.BAND`` of any constraint is banded and the caller must
skip or resample it, never guess a side.

Rounding to J is the A2 decoder of Conway and Sloane (IEEE Trans. Inf.
Theory 28, 1982), the float twin of hexdomain.floor_J: J is two shifted
rectangular lattices and U is its Voronoi cell.  Both lattices and both
coordinates are rounded in one (2, 2, n) stack and the digit is assembled
from the rounded floats in 19 numpy calls, each into a buffer made when
the step is bound.  Every float operation is the one the coordinate-wise
formulas name, so the digits, residuals and masks are bitwise theirs.
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
    """`_CONSTANTS` as (2, 2, n) arrays for `_stepper` at width n: numpy
    takes about twice as long in place over a (2, 2, 1) operand."""
    return np.array([np.broadcast_to(np.reshape(c, (2, -1, 1)), (2, 2, n))
                     for c in _CONSTANTS])


def _stepper(rows: np.ndarray):
    """`step(j)`, in the caller's error state, writes 1/rows[j] - alpha into
    rows[j + 1] of a (steps, k, n) complex array and returns alpha, the digit
    of 1/rows[j][0], in a buffer that the next step overwrites.

    With w = x + y*sqrt(-3), J is {x in 3Z, y in Z} and its shift by
    (3/2, 1/2).  Both are rounded coordinate-wise and the point at the
    smaller dx^2 + 3 dy^2 is kept; (near-)ties lie in the band, which
    `_alive` tests.  A stack's padding subtracts 0 or scales by 1, exactly,
    so each entry is its coordinate-wise expression."""
    scale, lat, shift, weight = _stacks(cols := rows.shape[2])
    # each row's w as (x, y) floats, (2, 1, cols), broadcast over both lattices
    xys = [r[0].view(np.float64).reshape(-1, 1, 2).T for r in rows]
    rows, one = list(rows), np.empty(cols, dtype=bool)
    xy, pq, d = np.empty((3, 2, 2, cols))
    sel, (m, n), dist = np.empty((3, 2, cols))
    alpha, beta = np.empty((2, cols), dtype=np.complex128)
    (p, q), (dist0, dist1), (dx, dy), pq0, pq1 = sel, dist, d, pq[:, 0], pq[:, 1]
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
    rint, less, copyto = np.rint, np.less, np.copyto

    def step(j: int) -> np.ndarray:
        div(1.0, rows[j], rows[j + 1])
        div(xys[j + 1], scale, xy)
        sub(xy, shift, pq)
        div(pq, lat, pq)
        rint(pq, pq)
        mul(pq, lat, d)
        sub(xy, d, d)
        sub(d, shift, d)
        mul(d, d, d)
        mul(d, weight, d)
        add(dx, dy, dist)
        less(dist1, dist0, one)
        copyto(sel, pq0)
        copyto(sel, pq1, where=one)
        # alpha = m*eta + n*sqrt(-3) has x = 3m/2 and y = m/2 + n
        mul(2.0, p, m)
        add(m, one, m)
        mul(m, ETA_C, alpha)
        sub(q, p, n)
        mul(n, S3_C, beta)
        add(alpha, beta, alpha)
        sub(rows[j + 1], alpha, rows[j + 1])
        return alpha

    return step


def _alive(z: np.ndarray, resid: np.ndarray, tol: float) -> np.ndarray:
    """Whether the step from z to its residual `resid` is kept, elementwise
    on arrays of any one shape.  |z| > 1e-15 keeps |1/z| well below 2^52,
    where doubles stop resolving J.  An infinite z, where 1/z = 0 rounds to
    the digit 0 with residual 0, is dead."""
    return np.isfinite(z) & (np.abs(z) > 1e-15) & (hex_margin(resid) < -tol)


def t_step(
    z: np.ndarray, tol: float = BAND
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One float step of the continued fraction map on an array: a
    `_stepper` bound over the one row z, and `_alive`, in one call.

    Returns (digit alpha, next point, alive mask); entries that hit the
    boundary band, underflow at 0 or are infinite come back dead, with next
    point 0, and must be resampled by the caller.  A dead entry's digit is
    meaningless: 1/z is rounded as it comes, inf and nan included.
    """
    z = np.asarray(z, dtype=np.complex128)
    rows = np.array([z.reshape(1, -1)] * 2)   # the step overwrites row 1
    with np.errstate(all="ignore"):
        alpha = _stepper(rows)(0)
        resid = rows[1, 0].reshape(z.shape)
        alive = _alive(z, resid, tol)
    return alpha.reshape(z.shape), np.where(alive, resid, 0.0), alive
