"""Floating-point simulation of the natural extension and its statistics.

The skew product acts on pairs (z, w) by (1/z - b, 1/w - b) with the digit
b read off z; started from w = infinity the second coordinate reproduces the
ratios -q_n/q_{n-1}, so Birkhoff averages of log|w| converge to the growth
rate lim (1/n) log|q_n|.  The invariant density of the extension is
C0 / |z - w|^4 on the union of cell products V_{k,l} x Vstar_{k,l}.

All area integrals substitute u = 1/w, which maps each unbounded dual cell
onto a bounded region of the unit disk and turns the kernel into
1/|z*u - 1|^4.  Both integrals are deterministic Gauss-Legendre rules.  The
kernel is the divergence of the field H(u) = -(v / (2|v|^4)) / z,
v = zu - 1, so

    g_cell(z) = integral over (Vstar_cell)^-1 of du / |z*u - 1|^4

is the flux of H through the arcs and segments of `Region.boundary()`, on
panels graded toward the arc ends on the unit circle, near which g peaks as
z nears a vertex of U.  In z, every cell lies between two graphs over the
chord that joins its farthest corners; the rule runs along the chord,
graded toward the corners at the vertices and at 0, and across in the
fraction of the width, which absorbs the cusps (there g ~ dist^-2 on a
width ~ dist^2).  V_{k,l} and its dual cell are V_{k,1} and its dual cell
turned by zeta^(l-1), and V_{3,1} and V_{5,1} with their dual cells are the
mirror images of V_{2,1} and V_{4,1} with theirs under z -> zeta*conj(z),
which leaves the kernel's integrals unchanged; so only four base cells are
integrated.  Each integral comes from a coarse and a fine rule; the fine
value is reported with their difference as its error.  These integrals and
the flux rules depend on no input, so their one read-only record,
`Quadrature`, is built once per process (`quadrature()`): `density` reads it
as it is, and a `levy` request adds only the seeded pair check below.

For the growth rate two independent routes are produced: the Birkhoff
average above, and the space average

    levy_integral = -C0 * sum_cells integral over V_cell of log|z| g(z) dA,

which equals the invariant integral of log|w| (chain both sides of the
convergent error identity |q_n z - p_n| = |z_0 ... z_n| through the ergodic
theorem: (1/n) log|q_n| -> -mean(log|z|) almost everywhere).  A
pair-sampled Monte Carlo estimate of the log|w| integral is recorded
alongside as an independent cross-check; it tests its pairs a lookup block
at a time and forms its integrand only on the pairs inside.

Denominators q_n are never materialized in floats (they overflow near
n ~ 10^3); the ratio recurrence is the only tracked quantity.  The Birkhoff
and the occupation batches are stepped side by side, one numpy call serving
both; every step is elementwise, so the bytes do not move.  Each batch keeps
only what its route reads: the Birkhoff batch log|w| per orbit-step, whose
row means then have the bits of a separate run, and the occupation batch
per-orbit cell counts, taken as its points are made, a lookup block at a
time.  No orbit point is stored.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field, replace
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ._util import derive_seed
from .exact import BAND
from .floatpath import SQRT3, U_BOX, _alive, _stepper, hex_margin
from .regions import (_LOOKUP_BLOCK, MIRROR_PAIRS, Catalog, Piece, Region,
                      build_catalog, classify_cells_complex)

CELLS = [(k, l) for k in range(1, 7) for l in range(1, 7)]


# --------------------------------------------------------------------------
# orbit simulation
# --------------------------------------------------------------------------

def _uniform_in_u0(rng: np.random.Generator, n: int) -> np.ndarray:
    out = np.empty(0, dtype=np.complex128)
    xlo, xhi, ylo, yhi = U_BOX
    while out.size < n:
        m = int((n - out.size) * 2.4) + 16
        z = rng.uniform(xlo, xhi, m) + 1j * rng.uniform(ylo, yhi, m)
        keep = hex_margin(z) < -1e-9
        out = np.concatenate([out, z[keep]])
    return out[:n]


# orbit steps buffered before their mask, log|w| and z are taken at once
_BLOCK = 64


@dataclass
class OrbitBatch:
    starts: np.ndarray          # (orbits,) complex
    log_w: np.ndarray           # (orbits, length) log|w_k|
    points: np.ndarray          # (orbits, length) z_k, k = 1..length


def _cell_counts(points: np.ndarray, tol: float) -> np.ndarray:
    """Per row of points (orbits, steps), how many lie in no cell (column 0)
    and in each of CELLS (column 1 + ci): the one counting rule of the
    occupation statistics, whole batches and streamed blocks alike."""
    orbits = points.shape[0]
    key = classify_cells_complex(points, tol=tol)
    key += 1 + 37 * np.arange(orbits)[:, None]
    return np.bincount(key.ravel(), minlength=37 * orbits).reshape(orbits, 37)


def _simulate_batches(orbits: int, length: int, keeps: list[tuple[int, tuple[str, ...]]],
                      tol: float = BAND) -> list[dict[str, np.ndarray]]:
    """simulate_orbits for each (seed, names) of keeps, stepped side by side
    in one array, each batch keeping only the arrays it names: "starts",
    "log_w" and "points", the fields of OrbitBatch, and "counts", the
    `_cell_counts` of its points, which it does not keep.

    Each round draws every unfinished batch's fresh starts from its own
    stream and steps them together.  The state is one (2, n) row per step,
    z on top and w below, so one step (`floatpath._stepper`, bound once per
    round) serves z -> 1/z - alpha and the dual recurrence w -> 1/w - alpha
    alike; the alive mask is then taken once per block, and log|w| and z of
    only the batches that keep them.  A counting batch stages its z rows
    until they fill a block of the cell lookup, then counts them, so it
    holds no more of its points than that.  A round's dead columns are
    dropped with all they kept, counts included; a batch whose orbits all
    survive keeps its arrays uncopied.
    """
    rngs = [np.random.Generator(np.random.PCG64(derive_seed(s, "orbits")))
            for s, _ in keeps]
    kept: list[list[dict]] = [[] for _ in keeps]   # per batch, one dict per round
    need = [orbits] * len(keeps)
    while any(need):
        if max(map(len, kept)) == 20:   # rounds so far
            raise RuntimeError("orbit batch kept hitting the boundary band")
        live = [b for b in range(len(keeps)) if need[b]]
        ends = np.cumsum([need[b] for b in live])
        sls = [slice(hi - need[b], hi) for b, hi in zip(live, ends)]
        outs, stages = [], []
        for b in live:
            m, names = need[b], keeps[b][1]
            out = {"starts": _uniform_in_u0(rngs[b], m)}
            if "log_w" in names:
                out["log_w"] = np.empty((m, length))
            if "points" in names:
                out["points"] = np.empty((m, length), dtype=np.complex128)
            if "counts" in names:
                out["counts"] = np.zeros((m, 37), dtype=np.int64)
            outs.append(out)
            stages.append(np.empty((m, _BLOCK * max(1, _LOOKUP_BLOCK // (_BLOCK * m))),
                                   dtype=np.complex128) if "counts" in names else None)
        # (z, w) of up to _BLOCK steps after the row carried in from the
        # last block (row 0: the starts, and a w the first step overwrites)
        zw = np.zeros((_BLOCK + 1, 2, ends[-1]), dtype=np.complex128)
        zw[0, 0] = np.concatenate([out["starts"] for out in outs])
        step = _stepper(zw)
        alive = np.ones(zw.shape[2], dtype=bool)
        with np.errstate(all="ignore"):
            for k0 in range(0, length, _BLOCK):
                n = min(_BLOCK, length - k0)
                for j in range(n):
                    alpha = step(j)
                    if not k0 + j:   # w_1 = -alpha: the start has no w
                        np.negative(alpha, out=zw[1, 1])
                # a dead orbit's column runs on as garbage and is never
                # read, so its mask can wait for the end of the block: each
                # test is elementwise, and the AND of a block's rows is the
                # AND taken step by step
                alive &= _alive(zw[:n, 0], zw[1:n + 1, 0], tol).all(axis=0)
                for sl, out, stage in zip(sls, outs, stages):
                    z = zw[1:n + 1, 0, sl].T
                    if "log_w" in out:
                        out["log_w"][:, k0:k0 + n] = np.log(np.abs(zw[1:n + 1, 1, sl])).T
                    if "points" in out:
                        out["points"][:, k0:k0 + n] = z
                    if stage is not None:   # its width is a whole number of blocks
                        r = k0 % stage.shape[1]
                        stage[:, r:r + n] = z
                        if r + n == stage.shape[1] or k0 + n == length:
                            out["counts"] += _cell_counts(stage[:, :r + n], tol)
                zw[0] = zw[n]
        for b, sl, out in zip(live, sls, outs):
            ok = alive[sl]
            kept[b].append({name: out[name] if ok.all() else out[name][ok]
                            for name in keeps[b][1]})
            need[b] -= int(ok.sum())
    return [{name: parts[0][name] if len(parts) == 1 else
             np.concatenate([p[name] for p in parts]) for name in names}
            for (_, names), parts in zip(keeps, kept)]


def simulate_orbits(orbits: int, length: int, seed: int,
                    tol: float = BAND) -> OrbitBatch:
    """Run `orbits` trajectories of the extension for `length` steps.

    Trajectories that fall into the boundary band are discarded and replaced
    by fresh starts, so the batch always comes back complete.  Batches of
    several seeds stepped side by side (`_simulate_batches`) have the bytes
    of separate runs: every operation is elementwise.
    """
    fields = ("starts", "log_w", "points")
    return OrbitBatch(**_simulate_batches(orbits, length, [(seed, fields)], tol)[0])


@dataclass
class LevyEstimate:
    value: float
    stderr: float

    def as_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr}


def levy_birkhoff(orbits: int = 64, length: int = 20000, seed: int = 0,
                  tol: float = BAND) -> LevyEstimate:
    """Growth rate lim (1/n) log|q_n| as a Birkhoff average of log|w|."""
    return _birkhoff(_simulate_batches(orbits, length, [(seed, ("log_w",))], tol)[0]["log_w"])


def _birkhoff(log_w: np.ndarray) -> LevyEstimate:
    per = log_w.mean(axis=1)
    return LevyEstimate(float(per.mean()), float(per.std(ddof=1) / math.sqrt(len(per))))


# --------------------------------------------------------------------------
# graded Gauss-Legendre rules
# --------------------------------------------------------------------------

# the sixth roots of unity: the vertices of U, and the rotations zeta^j that
# carry V_{k,1} and its dual cell onto V_{k,j+1} and its dual cell
_ROOTS = np.exp(1j * math.pi / 3 * np.arange(6))
# panels shrink by this ratio toward a singular end of an interval
_RATIO = 0.15
# innermost graded panel of the flux rule (radians); it must lie well below
# the distance from the nearest node of the cell rule to its vertex
_KERNEL_INNER = 1e-7
# innermost graded panel of the cell rules.  The integrand along a cell's
# chord is smooth down to the vertex, but g loses digits there: for V_{4,l}
# and V_{5,l} the fluxes through the two tangent arcs of the dual cusp cancel
# to ~ 1/dist, leaving about 1e-16/dist^2 relative accuracy
_CELL_INNER = 1e-3
# Gauss nodes per panel of the coarse and of the fine rule; every integral is
# the fine rule's, with the difference of the two as its error
_RULES = (12, 16)


def _graded_rule(length: float, left: bool, right: bool, inner: float,
                 max_len: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, length], n per panel.

    Toward each flagged end the panels shrink geometrically by _RATIO until
    the innermost is at most `inner` long; the rest of the interval is cut
    into equal panels of at most `max_len`.
    """
    half = length / 2 if left and right else length
    levels = max(0, math.ceil(math.log(inner / half) / math.log(_RATIO)))
    geo = [half * _RATIO**j for j in range(levels, 0, -1)]
    lo = [0.0] + geo if left else [0.0]
    hi = [length - h for h in reversed(geo)] + [length] if right else [length]
    m = max(1, math.ceil((hi[0] - lo[-1]) / max_len))
    edges = np.array(lo + [lo[-1] + (hi[0] - lo[-1]) * i / m for i in range(1, m)] + hi)
    gx, gw = np.polynomial.legendre.leggauss(n)
    mid, half_w = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half_w[:, None] * gx).ravel(), (half_w[:, None] * gw).ravel()


def _singular(z: complex) -> bool:
    """On the unit circle, where g blows up as z nears a vertex of U, or at
    0, where log|z| does."""
    return abs(abs(z) - 1.0) < 1e-9 or abs(z) < 1e-9


# --------------------------------------------------------------------------
# boundary-flux evaluation of the dual-cell kernel integral
# --------------------------------------------------------------------------

class ArcQuadrature(NamedTuple):
    """A flux rule; immutable, with read-only arrays, because one rule
    serves every request of a process."""
    nodes: np.ndarray    # complex points on the boundary arcs
    normals: np.ndarray  # outward unit normals (complex)
    weights: np.ndarray  # Gauss weight * arc radius * half-span


def region_arc_quadrature(reg: Region, n: int = _RULES[-1]) -> ArcQuadrature:
    """Gauss nodes along the pieces of `reg.boundary()`, arcs and segments.

    Each piece is cut into panels of at most pi/6 (radians on an arc, length
    on a segment) with n nodes each, graded toward every `_singular` end:
    as z nears a vertex v of U, the flux of g_cell(z) peaks within |z - v|
    of 1/v, an end on the unit circle.
    """
    nodes, normals, weights = [], [], []
    for pc in reg.boundary():
        t, w = _graded_rule(pc.t2 - pc.t1, _singular(pc.start), _singular(pc.end),
                            _KERNEL_INNER, math.pi / 6, n)
        nodes.append(pc.at(pc.t1 + t))
        normals.append(pc.normal(pc.t1 + t))
        weights.append(w * (pc.radius or 1.0))
    arrays = [np.concatenate(a) for a in (nodes, normals, weights)]
    for a in arrays:
        a.setflags(write=False)
    return ArcQuadrature(*arrays)


# (z, node) pairs per block of kernel_integral, which bounds its working
# memory; a block of this size stays in cache
_KERNEL_BLOCK = 1 << 16


def kernel_integral(z: np.ndarray, arcs: ArcQuadrature) -> np.ndarray:
    """integral over the region of du / |z*u - 1|^4, vectorized over z != 0.

    The flux of H = (-v / (2|v|^4)) / z, v = z*u - 1, computed in place on
    blocks of rows; each row's sum is independent of the blocking.  The
    factor -1/2 of H is exact, so it is applied once to the row sums."""
    z = np.asarray(z, dtype=np.complex128)
    col = z.reshape(-1, 1)
    out = np.empty(col.shape[0])
    rows = max(1, _KERNEL_BLOCK // arcs.nodes.size)
    for lo in range(0, out.size, rows):
        zb = col[lo:lo + rows]
        v = zb * arcs.nodes
        v -= 1.0
        a = np.abs(v)
        a **= 4
        v /= a
        v /= zb
        v *= np.conj(arcs.normals)
        out[lo:lo + rows] = np.sum(v.real * arcs.weights, axis=-1)
    out *= -0.5
    return out.reshape(z.shape)[()]


# --------------------------------------------------------------------------
# deterministic quadrature over the cell products
# --------------------------------------------------------------------------

def _height(pc: Piece, p: complex, e: complex, x: np.ndarray) -> np.ndarray:
    """Height of the piece above the chord through p with direction e, at
    abscissae x along it; the piece must be a graph over the chord."""
    a, b = (pc.start - p) / e, (pc.end - p) / e
    if not pc.radius:
        return a.imag + (x - a.real) * ((b.imag - a.imag) / (b.real - a.real))
    c = (pc.base - p) / e
    side = math.copysign(1.0, ((pc.at(0.5 * (pc.t1 + pc.t2)) - p) / e).imag - c.imag)
    # c.imag + side*sqrt(r^2 - dx^2) without cancellation; an arc tangent to
    # the chord line (a cusp) meets it at exactly height 0
    base = c.imag + side * pc.radius
    base = 0.0 if abs(base) < 1e-12 else base
    dx = x - c.real
    return base - side * dx * dx / (pc.radius + np.sqrt(pc.radius**2 - dx * dx))


def _cell_rule(reg: Region, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and area weights of a Gauss rule over one cell.

    Every cell V_{k,l} lies between two graphs over the chord that joins its
    two farthest corners.  The chord is cut at the feet of the other corners;
    over each cut the cell lies between two boundary pieces.  The rule is
    Gauss-Legendre along the chord, graded toward a singular corner, times n
    Gauss-Legendre nodes in the fraction across.  At a cusp the chord is the
    common tangent, so g (~ dist^-2) times the width (~ dist^2) stays
    bounded and the mapped integrand is smooth.
    """
    pieces = reg.boundary()
    corners = [z for pc in pieces for z in (pc.start, pc.end)]
    p, q = max(itertools.combinations(corners, 2), key=lambda pq: abs(pq[1] - pq[0]))
    length = abs(q - p)
    e = (q - p) / length
    cuts = [0.0]
    for x in sorted(((c - p) / e).real for c in corners):
        if cuts[-1] + 1e-9 < x < length - 1e-9:
            cuts.append(x)
    cuts.append(length)
    spans = [(pc, ((pc.start - p) / e).real, ((pc.end - p) / e).real) for pc in pieces]
    gx, gw = np.polynomial.legendre.leggauss(n)
    frac, frac_w = 0.5 * (gx + 1.0), 0.5 * gw
    zs, ws = [], []
    for xa, xb in zip(cuts, cuts[1:]):
        over = [pc for pc, a, b in spans if min(a, b) < 0.5 * (xa + xb) < max(a, b)]
        if len(over) != 2:
            raise ValueError(f"{reg.name} is not two graphs over its chord")
        x, wx = _graded_rule(xb - xa, xa == 0.0 and _singular(p),
                             xb == length and _singular(q), _CELL_INNER, 0.125, n)
        x += xa
        y0, y1 = (_height(pc, p, e, x) for pc in over)
        lo, width = np.minimum(y0, y1), np.abs(y1 - y0)
        y = lo[:, None] + width[:, None] * frac
        zs.append((p + (x[:, None] + 1j * y) * e).ravel())
        ws.append(((wx * width)[:, None] * frac_w).ravel())
    return np.concatenate(zs), np.concatenate(ws)


def _cell_integrals(cat: Catalog, kl: tuple[int, int],
                    n: int) -> tuple[float, float, ArcQuadrature]:
    """(integral of g, integral of -log|z| g, flux rule) over V_kl, with n
    Gauss nodes per panel in both the flux rule and the cell rule."""
    arcs = region_arc_quadrature(cat.v_star[kl].invert(), n)
    z, w = _cell_rule(cat.v_cells[kl], n)
    wg = w * kernel_integral(z, arcs)
    return float(wg.sum()), float(-(np.log(np.abs(z)) * wg).sum()), arcs


def _pair_check(kl: tuple[int, int], cell: tuple[Region, Region, tuple, tuple],
                m: int, seed: int, tol: float) -> tuple[float, float, float]:
    """Pair-sampled integral of the kernel with the uninverted weight
    -log|u| = log|w| over V_kl x (Vstar_kl)^-1, from m uniform pairs in the
    two boxes drawn from the cell's own stream of seed: (value, stderr,
    smallest |z*u - 1| of a pair inside).  `cell` is (V_kl, (Vstar_kl)^-1,
    and their two bounding boxes).  The pairs are tested a lookup block at a
    time, u only where z lies in V_kl, and the integrand is formed only on
    the pairs inside."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, f"quad:{kl}")))
    v, u_reg, box, ub = cell
    zx, zy = rng.uniform(box[0], box[1], m), rng.uniform(box[2], box[3], m)
    ux, uy = rng.uniform(ub[0], ub[1], m), rng.uniform(ub[2], ub[3], m)
    # the kernel times the weight on the pairs inside, 0 elsewhere
    integrand, dist_mins = np.zeros(m), [math.inf]
    for lo in range(0, m, _LOOKUP_BLOCK):
        blk = slice(lo, lo + _LOOKUP_BLOCK)
        kept = lo + np.flatnonzero(v.inside_xy(zx[blk], zy[blk] / SQRT3, tol))
        kept = kept[u_reg.inside_xy(ux[kept], uy[kept] / SQRT3, tol)]
        u = ux[kept] + 1j * uy[kept]
        dist = np.abs((zx[kept] + 1j * zy[kept]) * u - 1.0)
        integrand[kept] = (1.0 / np.maximum(dist, 1e-30) ** 4
                           * -np.log(np.maximum(np.abs(u), 1e-300)))
        dist_mins.append(dist.min(initial=math.inf))
    scale = ((box[1] - box[0]) * (box[3] - box[2])
             * (ub[1] - ub[0]) * (ub[3] - ub[2]))
    return (scale * float(integrand.mean()),
            scale * float(integrand.std(ddof=1)) / math.sqrt(m),
            float(np.min(dist_mins)))


@functools.cache
def _pair_cells() -> dict[int, tuple[Region, Region, tuple, tuple]]:
    """Per base cell V_{k,1} what `_pair_check` samples from: V_{k,1},
    (Vstar_{k,1})^-1 and their bounding boxes, built once per process."""
    cat = build_catalog()
    cells = {k: (cat.v_cells[(k, 1)], cat.v_star[(k, 1)].invert()) for k in range(1, 7)}
    return {k: (v, u, v.bbox_real(), u.bbox_real()) for k, (v, u) in cells.items()}


# --------------------------------------------------------------------------
# invariant density
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Quadrature:
    """The invariant measure: C0, the growth-rate integral, and per base cell
    V_{k,1} its mass and the fine flux rule of its dual, from which it
    evaluates the density; read-only, because `quadrature()` builds one per
    process.  The pair-sampled cross-check of the growth-rate integral is NaN
    there, and set on each copy `estimate_C0_and_levy_integral` returns."""
    c0: float
    c0_err: float
    levy_integral: float
    levy_err: float
    masses: MappingProxyType[int, float]         # integral of g over V_{k,1}
    arcs: MappingProxyType[int, ArcQuadrature]   # fine flux rule of (Vstar_{k,1})^-1
    levy_integral_pairs: float = math.nan
    levy_pairs_err: float = math.nan
    min_kernel_dist: float = math.nan

    def cell_masses(self) -> dict[tuple[int, int], float]:
        return {(k, l): self.c0 * self.masses[k] for k, l in CELLS}

    def density(self, z: np.ndarray) -> np.ndarray:
        """h(z) = C0 * integral over (Vstar_cell(z))^-1 of du / |z*u - 1|^4
        at an array of points; NaN off the open cells.

        On V_{k,l}, g(z) is g of V_{k,1} at zeta^(1-l) z."""
        z = np.asarray(z, dtype=np.complex128)
        flat = z.ravel()
        idx = classify_cells_complex(flat)
        out = np.full(flat.shape, np.nan)
        for ci, (k, l) in enumerate(CELLS):
            sel = idx == ci
            if not sel.any():
                continue
            out[sel] = self.c0 * kernel_integral(
                flat[sel] * np.conj(_ROOTS[l - 1]), self.arcs[k])
        return out.reshape(z.shape)

    def density_grid(self, n: int):
        """Density on an n x n grid over the bounding box of U.

        Returns (x nodes, y nodes, values); off-domain values are 0.
        """
        xlo, xhi, ylo, yhi = U_BOX
        xs = np.linspace(xlo, xhi, n)
        ys = np.linspace(ylo, yhi, n)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        vals = self.density(gx + 1j * gy)
        return xs, ys, np.nan_to_num(vals, nan=0.0)


@functools.cache
def quadrature() -> Quadrature:
    """The cell integrals and flux rules, which depend on no input, built
    once per process like the catalogue.

    The four base cells V_{k,1}, k not in MIRROR_PAIRS, are integrated by
    the coarse and the fine rule; V_{3,1} and V_{5,1} have the integrals of
    their mirror images, and every V_{k,l} those of V_{k,1}.
    """
    cat = build_catalog()
    base = [k for k in range(1, 7) if k not in MIRROR_PAIRS]
    coarse, fine = ({k: _cell_integrals(cat, (k, 1), n) for k in base} for n in _RULES)

    # an integrated cell stands for its rotations and its mirror image's
    copies = {k: 1 + (k in MIRROR_PAIRS.values()) for k in base}

    def c0_and_levy(rule):
        mass = 6 * sum(copies[k] * rule[k][0] for k in base)
        return 1.0 / mass, 6 * sum(copies[k] * rule[k][1] for k in base) / mass

    (c0_coarse, levy_coarse), (c0, levy) = c0_and_levy(coarse), c0_and_levy(fine)
    return Quadrature(
        c0=c0, c0_err=abs(c0 - c0_coarse),
        levy_integral=levy, levy_err=abs(levy - levy_coarse),
        masses=MappingProxyType({k: fine[MIRROR_PAIRS.get(k, k)][0] for k in range(1, 7)}),
        arcs=MappingProxyType({k: fine[k][2] if k in fine else
                               region_arc_quadrature(cat.v_star[(k, 1)].invert())
                               for k in range(1, 7)}),
    )


def estimate_C0_and_levy_integral(quad_samples: int = 1000000, seed: int = 0,
                                  tol: float = BAND) -> Quadrature:
    """`quadrature()` with its pair-sampled cross-check: a third of
    quad_samples in (z, u) pairs over the six base cells, drawn from seed
    and banded by tol."""
    quad = quadrature()
    logu, logu_err, dist = zip(*(_pair_check((k, 1), cell, max(200, quad_samples // 18),
                                             seed, tol) for k, cell in _pair_cells().items()))
    return replace(quad, levy_integral_pairs=6 * quad.c0 * sum(logu),
                   levy_pairs_err=6 * quad.c0 * math.sqrt(sum(e**2 for e in logu_err)),
                   min_kernel_dist=min(dist))


# --------------------------------------------------------------------------
# cell occupation
# --------------------------------------------------------------------------

def occupation_frequencies(batch: OrbitBatch, tol: float = BAND) -> tuple[np.ndarray, np.ndarray]:
    """Empirical cell frequencies per orbit: (orbits x 36 matrix, means)."""
    return _frequencies(_cell_counts(batch.points, tol), batch.points.shape[1])


def _frequencies(counts: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """`occupation_frequencies` from the `_cell_counts` of orbits of length."""
    freq = counts[:, 1:] / length
    return freq, freq.mean(axis=0)


# --------------------------------------------------------------------------
# report container
# --------------------------------------------------------------------------

@dataclass
class ErgodicReport:
    levy_birkhoff: LevyEstimate
    levy_integral: float
    levy_integral_err: float
    c0: float
    c0_err: float
    min_kernel_dist: float
    occupation: list = dc_field(default_factory=list)
    cell_masses: list = dc_field(default_factory=list)
    info: dict = dc_field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "levy_birkhoff": self.levy_birkhoff.as_dict(),
            "levy_integral": {"value": self.levy_integral,
                              "error": self.levy_integral_err},
            "C0": {"value": self.c0, "error": self.c0_err},
            "min_kernel_dist": self.min_kernel_dist,
            "occupation": self.occupation,
            "cell_masses": self.cell_masses,
            "info": self.info,
        }


def ergodic_report(orbits: int = 64, length: int = 20000,
                   quad_samples: int = 1000000, seed: int = 0) -> ErgodicReport:
    quad = estimate_C0_and_levy_integral(quad_samples, seed)
    # the Birkhoff route reads only log|w|, the occupation route only counts
    birk, occ = _simulate_batches(orbits, length, [(seed, ("log_w",)),
                                                   (derive_seed(seed, "occ"), ("counts",))])
    birkhoff = _birkhoff(birk["log_w"])
    _, mean_freq = _frequencies(occ["counts"], length)
    masses = quad.cell_masses()
    return ErgodicReport(
        levy_birkhoff=birkhoff,
        levy_integral=quad.levy_integral,
        levy_integral_err=quad.levy_err,
        c0=quad.c0,
        c0_err=quad.c0_err,
        min_kernel_dist=quad.min_kernel_dist,
        occupation=[{"cell": list(kl), "frequency": float(mean_freq[ci])}
                    for ci, kl in enumerate(CELLS)],
        cell_masses=[{"cell": list(kl), "mass": masses[kl]} for kl in CELLS],
        info={"orbits": orbits, "length": length, "quad_samples": quad_samples,
              "seed": seed,
              "levy_integral_pair_sampled": quad.levy_integral_pairs,
              "levy_integral_pair_err": quad.levy_pairs_err},
    )
