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
value is reported with their difference as its error.

For the growth rate two independent routes are produced: the Birkhoff
average above, and the space average

    levy_integral = -C0 * sum_cells integral over V_cell of log|z| g(z) dA,

which equals the invariant integral of log|w| (chain both sides of the
convergent error identity |q_n z - p_n| = |z_0 ... z_n| through the ergodic
theorem: (1/n) log|q_n| -> -mean(log|z|) almost everywhere).  A
pair-sampled Monte Carlo estimate of the log|w| integral is recorded
alongside as an independent cross-check.

Denominators q_n are never materialized in floats (they overflow near
n ~ 10^3); the ratio recurrence is the only tracked quantity.  The Birkhoff
and the occupation batches are stepped side by side in one array, one numpy
call serving both; every step is elementwise, so the bytes do not move.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._util import CheckReport, derive_seed
from .floatpath import SQRT3, U_BOX, _step, hex_margin
from .regions import (MIRROR_PAIRS, Catalog, Piece, Region, build_catalog,
                      classify_cells_complex)

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


# orbit steps buffered before their |w| and z are copied into the batches
_BLOCK = 64


@dataclass
class OrbitBatch:
    starts: np.ndarray          # (orbits,) complex
    log_w: np.ndarray           # (orbits, length) log|w_k|
    points: np.ndarray          # (orbits, length) z_k, k = 1..length


def _simulate_batches(orbits: int, length: int, seeds: list[int],
                      tol: float = 1e-12) -> list[OrbitBatch]:
    """simulate_orbits for each seed, stepped side by side in one array.

    Each round draws every unfinished batch's fresh starts from its own
    stream and steps them together; each block of steps is copied into
    per-batch arrays, and a batch whose orbits all survive keeps them
    without a copy.
    """
    rngs = [np.random.Generator(np.random.PCG64(derive_seed(s, "orbits")))
            for s in seeds]
    kept: list[list] = [[] for _ in seeds]   # [starts, log_w, points] per round
    need = [orbits] * len(seeds)
    while any(need):
        if max(map(len, kept)) == 20:   # rounds so far
            raise RuntimeError("orbit batch kept hitting the boundary band")
        live = [b for b in range(len(seeds)) if need[b]]
        z0 = [_uniform_in_u0(rngs[b], need[b]) for b in live]
        ends = np.cumsum([need[b] for b in live])
        sls = [slice(hi - need[b], hi) for b, hi in zip(live, ends)]
        lws = [np.empty((need[b], length)) for b in live]
        zzs = [np.empty((need[b], length), dtype=np.complex128) for b in live]
        z = np.concatenate(z0)
        alive = np.ones(z.size, dtype=bool)
        # |w| and z of the last _BLOCK steps, one row per step, copied out
        # per batch a block at a time; np.log is elementwise, so taking it
        # on a block gives the bits of taking it step by step
        abs_w = np.empty((_BLOCK, z.size))
        zs = np.empty((_BLOCK, z.size), dtype=np.complex128)
        # a dead row runs on as garbage and is never read
        with np.errstate(all="ignore"):
            for k0 in range(0, length, _BLOCK):
                n = min(_BLOCK, length - k0)
                for j in range(n):
                    alpha, z, ok = _step(z, tol)
                    alive &= ok
                    w = 1.0 / w - alpha if k0 + j else -alpha
                    np.abs(w, out=abs_w[j])
                    zs[j] = z
                np.log(abs_w[:n], out=abs_w[:n])
                for sl, lw, zz in zip(sls, lws, zzs):
                    lw[:, k0:k0 + n] = abs_w[:n, sl].T
                    zz[:, k0:k0 + n] = zs[:n, sl].T
        for b, sl, *arrays in zip(live, sls, z0, lws, zzs):
            ok = alive[sl]
            kept[b].append(arrays if ok.all() else [a[ok] for a in arrays])
            need[b] -= int(ok.sum())
    return [OrbitBatch(*(a[0] if len(a) == 1 else np.concatenate(a)
                         for a in zip(*parts)))
            for parts in kept]


def simulate_orbits(orbits: int, length: int, seed: int,
                    tol: float = 1e-12) -> OrbitBatch:
    """Run `orbits` trajectories of the extension for `length` steps.

    Trajectories that fall into the boundary band are discarded and replaced
    by fresh starts, so the batch always comes back complete.  Batches of
    several seeds stepped side by side (`_simulate_batches`) have the bytes
    of separate runs: every operation is elementwise.
    """
    return _simulate_batches(orbits, length, [seed], tol)[0]


@dataclass
class LevyEstimate:
    value: float
    stderr: float

    def as_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr}


def levy_birkhoff(orbits: int = 64, length: int = 20000, seed: int = 0,
                  tol: float = 1e-12) -> LevyEstimate:
    """Growth rate lim (1/n) log|q_n| as a Birkhoff average of log|w|."""
    return _birkhoff(simulate_orbits(orbits, length, seed, tol))


def _birkhoff(batch: OrbitBatch) -> LevyEstimate:
    per = batch.log_w.mean(axis=1)
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

@dataclass
class ArcQuadrature:
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
    return ArcQuadrature(np.concatenate(nodes), np.concatenate(normals),
                         np.concatenate(weights))


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


def region_area_flux(arcs: ArcQuadrature) -> float:
    """Exact-area cross-check: the field u/2 has divergence one."""
    return float(np.sum(np.real(arcs.nodes / 2 * np.conj(arcs.normals))
                        * arcs.weights))


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


def _pair_check(cat: Catalog, kl: tuple[int, int], m: int,
                seed: int, tol: float) -> tuple[float, float, float]:
    """Pair-sampled integral of the kernel with the uninverted weight
    -log|u| = log|w| over V_kl x (Vstar_kl)^-1, from m uniform pairs in the
    two boxes drawn from the cell's own stream of seed: (value, stderr,
    smallest |z*u - 1| of a pair inside)."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, f"quad:{kl}")))
    v, u_reg = cat.v_cells[kl], cat.v_star[kl].invert()
    box, ub = v.bbox_real(), u_reg.bbox_real()
    zp = rng.uniform(box[0], box[1], m) + 1j * rng.uniform(box[2], box[3], m)
    u = rng.uniform(ub[0], ub[1], m) + 1j * rng.uniform(ub[2], ub[3], m)
    both = (v.inside_xy(zp.real, zp.imag / SQRT3, tol)
            & u_reg.inside_xy(u.real, u.imag / SQRT3, tol))
    dist = np.abs(zp * u - 1.0)
    kern = np.where(both, 1.0 / np.maximum(dist, 1e-30) ** 4, 0.0)
    logu = np.where(both, -np.log(np.maximum(np.abs(u), 1e-300)), 0.0)
    scale = ((box[1] - box[0]) * (box[3] - box[2])
             * (ub[1] - ub[0]) * (ub[3] - ub[2]))
    return (scale * float((kern * logu).mean()),
            scale * float((kern * logu).std(ddof=1)) / math.sqrt(m),
            float(dist[both].min()) if both.any() else math.inf)


# --------------------------------------------------------------------------
# invariant density
# --------------------------------------------------------------------------

def _sextant_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and area weights of a Gauss rule over U that ignores the cells.

    Each sextant triangle (0, v_s, v_{s+1}) is cut at the midpoint of its
    outer edge into two triangles, each mapped to the square by a Duffy
    transform from its vertex on the unit circle.  The radius is graded
    toward the vertex, and the angle toward both sides, which the cusps of
    the cells hug.  The jumps of h across cell boundaries limit the rule to
    about 1e-3, so it grades only to 1e-2.
    """
    r, wr = _graded_rule(1.0, True, False, 1e-2, 0.5, n)
    f, wf = _graded_rule(1.0, True, True, 1e-2, 0.5, n)
    zs, ws = [], []
    for s in range(6):
        v0, v1 = _ROOTS[s], _ROOTS[(s + 1) % 6]
        mid = 0.5 * (v0 + v1)
        for vert, a, b in ((v0, mid, 0j), (v1, 0j, mid)):
            # z = vert + r*((a - vert) + f*(b - a)), Jacobian r * 2 * area
            jac = abs((np.conj(a - vert) * (b - a)).imag)
            zs.append((vert + r[:, None] * ((a - vert) + f * (b - a))).ravel())
            ws.append(((r * wr * jac)[:, None] * wf).ravel())
    return np.concatenate(zs), np.concatenate(ws)


@dataclass
class Quadrature:
    """The invariant measure: C0, the growth-rate integral and its
    pair-sampled cross-check, and per base cell V_{k,1} its mass and the
    fine flux rule of its dual, from which it evaluates the density."""
    c0: float
    c0_err: float
    levy_integral: float
    levy_err: float
    levy_integral_pairs: float
    levy_pairs_err: float
    min_kernel_dist: float
    masses: dict[int, float]           # integral of g over V_{k,1}
    arcs: dict[int, ArcQuadrature]     # fine flux rule of (Vstar_{k,1})^-1

    def cell_masses(self) -> dict[tuple[int, int], float]:
        return {(k, l): self.c0 * self.masses[k] for k, l in CELLS}

    def density(self, z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """h(z) = C0 * integral over (Vstar_cell(z))^-1 of du / |z*u - 1|^4
        at an array of points; NaN off the open cells.

        On V_{k,l}, g(z) is g of V_{k,1} at zeta^(1-l) z."""
        z = np.asarray(z, dtype=np.complex128)
        flat = z.ravel()
        idx = classify_cells_complex(flat, tol=tol)
        out = np.full(flat.shape, np.nan)
        for ci, (k, l) in enumerate(CELLS):
            sel = idx == ci
            if not sel.any():
                continue
            out[sel] = self.c0 * kernel_integral(
                flat[sel] * np.conj(_ROOTS[l - 1]), self.arcs[k])
        return out.reshape(z.shape)

    def density_integral(self, tol: float = 1e-12) -> tuple[float, float]:
        """Total mass of h by the cell-blind sextant rule (should be ~ 1).

        Returns the fine rule's value and its difference from the coarse
        rule's; nodes in a boundary band count as 0."""
        vals = []
        for n in _RULES:
            z, w = _sextant_rule(n)
            vals.append(float(np.sum(w * np.nan_to_num(self.density(z, tol), nan=0.0))))
        return vals[-1], abs(vals[-1] - vals[0])

    def density_grid(self, n: int, tol: float = 1e-12):
        """Density on an n x n grid over the bounding box of U.

        Returns (x nodes, y nodes, values); off-domain values are 0.
        """
        xlo, xhi, ylo, yhi = U_BOX
        xs = np.linspace(xlo, xhi, n)
        ys = np.linspace(ylo, yhi, n)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        vals = self.density(gx + 1j * gy, tol)
        return xs, ys, np.nan_to_num(vals, nan=0.0)


def estimate_C0_and_levy_integral(quad_samples: int = 1000000, seed: int = 0,
                                  tol: float = 1e-12) -> Quadrature:
    """Normalizing constant and the invariant growth-rate integral.

    The four base cells V_{k,1}, k not in MIRROR_PAIRS, are integrated by
    the coarse and the fine rule; V_{3,1} and V_{5,1} have the integrals of
    their mirror images, and every V_{k,l} those of V_{k,1}.  quad_samples
    sizes only the pair-sampled cross-check: a third of it in (z, u) pairs
    over the six base cells, drawn from seed and banded by tol.
    """
    cat = build_catalog()
    base = [k for k in range(1, 7) if k not in MIRROR_PAIRS]
    coarse, fine = ({k: _cell_integrals(cat, (k, 1), n) for k in base} for n in _RULES)
    logu, logu_err, dist = zip(*(_pair_check(cat, (k, 1), max(200, quad_samples // 18),
                                             seed, tol) for k in range(1, 7)))

    # an integrated cell stands for its rotations and its mirror image's
    copies = {k: 1 + (k in MIRROR_PAIRS.values()) for k in base}

    def c0_and_levy(rule):
        mass = 6 * sum(copies[k] * rule[k][0] for k in base)
        return 1.0 / mass, 6 * sum(copies[k] * rule[k][1] for k in base) / mass

    (c0_coarse, levy_coarse), (c0, levy) = c0_and_levy(coarse), c0_and_levy(fine)
    return Quadrature(
        c0=c0,
        c0_err=abs(c0 - c0_coarse),
        levy_integral=levy,
        levy_err=abs(levy - levy_coarse),
        levy_integral_pairs=6 * c0 * sum(logu),
        levy_pairs_err=6 * c0 * math.sqrt(sum(e**2 for e in logu_err)),
        min_kernel_dist=min(dist),
        masses={k: fine[MIRROR_PAIRS.get(k, k)][0] for k in range(1, 7)},
        arcs={k: fine[k][2] if k in fine else
              region_arc_quadrature(cat.v_star[(k, 1)].invert()) for k in range(1, 7)},
    )


# --------------------------------------------------------------------------
# occupation versus quadrature masses
# --------------------------------------------------------------------------

def occupation_frequencies(batch: OrbitBatch, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Empirical cell frequencies per orbit: (orbits x 36 matrix, means)."""
    orbits, length = batch.points.shape
    counts = np.zeros((orbits, 37), dtype=np.int64)   # column 0 counts no cell
    chunk = max(1, 400000 // max(length, 1))
    for lo in range(0, orbits, chunk):
        sl = batch.points[lo:lo + chunk]
        key = classify_cells_complex(sl.ravel(), tol=tol) + 1
        key += np.repeat(37 * np.arange(len(sl)), length)
        counts[lo:lo + chunk] = np.bincount(key, minlength=37 * len(sl)).reshape(-1, 37)
    freq = counts[:, 1:] / length
    return freq, freq.mean(axis=0)


def invariance_check(orbits: int = 64, length: int = 20000, seed: int = 0,
                     quad: Quadrature | None = None,
                     tol: float = 1e-12) -> CheckReport:
    """Empirical occupation of long orbits against the density cell masses.

    PASS when every cell discrepancy is below max(3 * stderr, 0.01), the
    stderr of the occupation; the masses are exact to about 1e-10.
    """
    with CheckReport("invariance") as rep:
        if quad is None:
            quad = estimate_C0_and_levy_integral(0, 0, tol)
        batch = simulate_orbits(orbits, length, seed, tol)
        freq, mean_freq = occupation_frequencies(batch, tol=tol)
        rep.samples = orbits * length
        masses = quad.cell_masses()
        sum_f = float(mean_freq.sum())
        rep.info["frequency_sum"] = sum_f
        if abs(sum_f - 1.0) > 0.02:
            rep.fail(kind="band_loss", frequency_sum=sum_f)
        worst = 0.0
        for ci, kl in enumerate(CELLS):
            f = float(mean_freq[ci])
            sf = float(freq[:, ci].std(ddof=1) / math.sqrt(len(freq)))
            mu = masses[kl]
            tol_cell = max(3.0 * sf, 0.01)
            worst = max(worst, abs(f - mu))
            if abs(f - mu) > tol_cell:
                rep.fail(cell=kl, empirical=f, quadrature=mu, tolerance=tol_cell)
        rep.info["max_discrepancy"] = worst
        # rotation symmetry of the construction: occupation of V_{k,l}
        # should not depend on l
        by_k = mean_freq.reshape(6, 6)
        rep.info["rotation_spread"] = float(np.max(by_k.max(axis=1) - by_k.min(axis=1)))
    return rep


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
                   quad_samples: int = 1000000, seed: int = 0,
                   tol: float = 1e-12) -> ErgodicReport:
    quad = estimate_C0_and_levy_integral(quad_samples, seed, tol)
    # the Birkhoff batch is dropped before the occupation pass
    batches = _simulate_batches(orbits, length, [seed, derive_seed(seed, "occ")], tol)
    birkhoff = _birkhoff(batches.pop(0))
    _, mean_freq = occupation_frequencies(batches.pop(), tol=tol)
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
