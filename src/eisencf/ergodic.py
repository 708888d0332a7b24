"""Floating-point simulation of the natural extension and its statistics.

The skew product acts on pairs (z, w) by (1/z - b, 1/w - b) with the digit
b read off z; started from w = infinity the second coordinate reproduces the
ratios -q_n/q_{n-1}, so Birkhoff averages of log|w| converge to the growth
rate lim (1/n) log|q_n|.  The invariant density of the extension is
C0 / |z - w|^4 on the union of cell products V_{k,l} x Vstar_{k,l}.

All area integrals substitute u = 1/w, which maps each unbounded dual cell
onto a bounded region of the unit disk and turns the kernel into
1/|z*u - 1|^4.  The u-integral is then evaluated essentially exactly: the
kernel is the divergence of the field H(u) = -(v / (2|v|^4)) / z, v = zu - 1,
so integrating H by Gauss quadrature along the exact boundary of the
(inverted) dual cell, the arcs and segments of `Region.boundary()`, gives

    g_cell(z) = integral over (Vstar_cell)^-1 of du / |z*u - 1|^4

to machine accuracy; only the smooth z-integrals are left to Monte Carlo.
For the growth rate two independent routes are produced: the Birkhoff
average above, and the space average

    levy_integral = -C0 * sum_cells integral over V_cell of log|z| g(z) dA,

which equals the invariant integral of log|w| (chain both sides of the
convergent error identity |q_n z - p_n| = |z_0 ... z_n| through the ergodic
theorem: (1/n) log|q_n| -> -mean(log|z|) almost everywhere).  A direct
pair-sampled estimate of the log|w| integral is recorded alongside as a
cross-check.

Denominators q_n are never materialized in floats (they overflow near
n ~ 10^3); the ratio recurrence is the only tracked quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._util import CheckReport, derive_seed
from .exact import FieldElement
from .floatpath import SQRT3, U_BOX, hex_margin, t_step
from .regions import Catalog, Region, build_catalog, classify_cells_complex

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


@dataclass
class OrbitBatch:
    starts: np.ndarray          # (orbits,) complex
    log_w: np.ndarray           # (orbits, length) log|w_k|
    points: np.ndarray          # (orbits, length) z_k, k = 1..length
    min_abs_w: float


def simulate_orbits(orbits: int, length: int, seed: int,
                    tol: float = 1e-12) -> OrbitBatch:
    """Run `orbits` trajectories of the extension for `length` steps.

    Trajectories that fall into the boundary band are discarded and replaced
    by fresh starts, so the batch always comes back complete.
    """
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "orbits")))
    starts = np.empty(0, dtype=np.complex128)
    logs = np.empty((0, length))
    pts = np.empty((0, length), dtype=np.complex128)
    min_w = np.inf
    need = orbits
    attempts = 0
    while need > 0:
        attempts += 1
        if attempts > 20:
            raise RuntimeError("orbit batch kept hitting the boundary band")
        z0 = _uniform_in_u0(rng, need)
        z = z0.copy()
        w = np.ones(need, dtype=np.complex128)
        alive = np.ones(need, dtype=bool)
        lw = np.zeros((need, length))
        zz = np.zeros((need, length), dtype=np.complex128)
        for k in range(length):
            alpha, z_next, ok = t_step(np.where(alive, z, 0.25), tol)
            alive &= ok
            if k == 0:
                w = np.where(alive, -alpha, 1.0)
            else:
                w = np.where(alive, 1.0 / w - alpha, 1.0)
            z = np.where(alive, z_next, 0.25)
            lw[:, k] = np.where(alive, np.log(np.abs(w)), 0.0)
            zz[:, k] = z
            if alive.any():
                min_w = min(min_w, float(np.abs(w[alive]).min()))
        starts = np.concatenate([starts, z0[alive]])
        logs = np.concatenate([logs, lw[alive]])
        pts = np.concatenate([pts, zz[alive]])
        need = orbits - len(starts)
    return OrbitBatch(starts[:orbits], logs[:orbits], pts[:orbits], min_w)


@dataclass
class LevyEstimate:
    value: float
    stderr: float
    per_orbit: np.ndarray

    def as_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr}


def levy_birkhoff(orbits: int = 64, length: int = 20000, seed: int = 0,
                  tol: float = 1e-12) -> LevyEstimate:
    """Growth rate lim (1/n) log|q_n| as a Birkhoff average of log|w|."""
    batch = simulate_orbits(orbits, length, seed, tol)
    per = batch.log_w.mean(axis=1)
    return LevyEstimate(float(per.mean()),
                        float(per.std(ddof=1) / math.sqrt(len(per))), per)


# --------------------------------------------------------------------------
# boundary-flux evaluation of the dual-cell kernel integral
# --------------------------------------------------------------------------

@dataclass
class ArcQuadrature:
    nodes: np.ndarray    # complex points on the boundary arcs
    normals: np.ndarray  # outward unit normals (complex)
    weights: np.ndarray  # Gauss weight * arc radius * half-span


def region_arc_quadrature(reg: Region, max_span: float = math.pi / 12,
                          nodes_per_arc: int = 24) -> ArcQuadrature:
    """Gauss nodes along the pieces of `reg.boundary()`, arcs and segments.

    Each piece is split into parts of at most `max_span` (radians on an arc,
    length on a segment) carrying `nodes_per_arc` nodes each.
    """
    gx, gw = np.polynomial.legendre.leggauss(nodes_per_arc)
    all_nodes, all_norms, all_wts = [], [], []
    for pc in reg.boundary():
        t1, t2 = pc.t1, pc.t2
        nsub = max(1, math.ceil((t2 - t1) / max_span))
        for s in range(nsub):
            a1 = t1 + (t2 - t1) * s / nsub
            a2 = t1 + (t2 - t1) * (s + 1) / nsub
            mid, half = 0.5 * (a1 + a2), 0.5 * (a2 - a1)
            th = mid + half * gx
            all_nodes.append(pc.at(th))
            all_norms.append(pc.normal(th))
            all_wts.append(gw * half * (pc.radius or 1.0))
    return ArcQuadrature(np.concatenate(all_nodes), np.concatenate(all_norms),
                         np.concatenate(all_wts))


# (z, node) pairs per block of kernel_integral, which bounds its working
# memory; a block of this size stays in cache
_KERNEL_BLOCK = 1 << 16


def kernel_integral(z: np.ndarray, arcs: ArcQuadrature) -> np.ndarray:
    """integral over the region of du / |z*u - 1|^4, vectorized over z != 0.

    The flux of H = (-v / (2|v|^4)) / z, v = z*u - 1, computed in place on
    blocks of rows; each row's sum is independent of the blocking."""
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
        a *= 2.0
        np.negative(v, out=v)
        v /= a
        v /= zb
        v *= np.conj(arcs.normals)
        out[lo:lo + rows] = np.sum(v.real * arcs.weights, axis=-1)
    return out.reshape(z.shape)[()]


def region_area_flux(arcs: ArcQuadrature) -> float:
    """Exact-area cross-check: the field u/2 has divergence one."""
    return float(np.sum(np.real(arcs.nodes / 2 * np.conj(arcs.normals))
                        * arcs.weights))


# --------------------------------------------------------------------------
# quadrature over the cell products
# --------------------------------------------------------------------------

@dataclass
class CellQuadrature:
    kl: tuple[int, int]
    mass_raw: float             # integral of g over the cell
    mass_err: float
    levy_raw: float             # integral of -log|z| g over the cell
    levy_err: float
    logu_raw: float             # pair-sampled integral with weight -log|u|
    logu_err: float
    v_area: float
    u_area: float
    min_kernel_dist: float
    arcs: ArcQuadrature


# the six unit-circle vertices of the hexagon
_VERTICES = np.array([
    complex(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
    for k in range(6)
])
_VERTICES_EXACT = [FieldElement(1, 0), FieldElement(1, 1, 2), FieldElement(-1, 1, 2),
                   FieldElement(-1, 0), FieldElement(-1, -1, 2), FieldElement(1, -1, 2)]
# Cells reach the six unit-circle vertices through corners and parabolic
# cusps where the flux integral g grows like dist^-1 .. dist^-2; uniform
# sampling of g has unbounded variance there.  Each (vertex, tangent
# direction) pair that carries cell mass gets an importance component that
# is log-uniform in the distance s along the tangent and ~ 1/(|t| + s^2)
# across it, which bounds the weighted integrand.
_IMP_RC = 0.28      # radius of the vertex balls handled by cusp components
_IMP_S0 = 0.36      # tangential reach of a component (covers the ball)
_IMP_SMIN = 1e-8    # inner cutoff; unsampled mass is O(s_min)
_IMP_T0 = 0.30      # transverse reach of a component
_STRATA = 12        # stratification grid for the bulk integral
_LOG_S = math.log(_IMP_S0 / _IMP_SMIN)


@dataclass(frozen=True)
class _CuspComponent:
    vertex: complex
    tau: complex


def _cell_cusp_components(cat: Catalog, kl: tuple[int, int]) -> list[_CuspComponent]:
    """Vertex/tangent pairs along which the cell's boundary pieces leave a
    unit-circle vertex, where g grows like dist^-1 .. dist^-2.  Each tangent
    is that of the first primitive through the vertex with that direction."""
    reg = cat.v_cells[kl]
    pieces = reg.boundary()
    comps: list[_CuspComponent] = []
    for vc, ve in zip(_VERTICES, _VERTICES_EXACT):
        leaving = [sgn * 1j * pc.gradient(t) for pc in pieces
                   for sgn, t, end in ((1, pc.t1, pc.start), (-1, pc.t2, pc.end))
                   if abs(end - vc) < 1e-9]
        x, y = vc.real, vc.imag / SQRT3
        live: list[complex] = []
        for p in reg.prims:
            if not leaving or p.value_int(ve) != 0:
                continue
            g = complex(2 * p.qq * x + p.bx, (6 * p.qq * y + p.by) / SQRT3)
            tau = complex(-g.imag / abs(g), g.real / abs(g))
            for t in (tau, -tau):
                if (any(abs(t - e) < 1e-6 for e in leaving)
                        and all(abs(t - u) >= 1e-9 for u in live)):
                    live.append(t)
        comps += [_CuspComponent(vc, tau) for tau in live]
    return comps


def _comp_density(z: np.ndarray, comp: _CuspComponent) -> np.ndarray:
    """Exact density of the component sampler at arbitrary points."""
    d = z - comp.vertex
    s = d.real * comp.tau.real + d.imag * comp.tau.imag
    t = -d.real * comp.tau.imag + d.imag * comp.tau.real
    ok = (s >= _IMP_SMIN) & (s <= _IMP_S0) & (np.abs(t) <= _IMP_T0)
    s_safe = np.where(ok, s, 1.0)
    norm_t = 2.0 * np.log1p(_IMP_T0 / s_safe**2)
    q = 1.0 / (_LOG_S * s_safe) / (norm_t * (np.abs(t) + s_safe**2))
    return np.where(ok, q, 0.0)


def _comp_sample(rng: np.random.Generator, n: int,
                 comp: _CuspComponent) -> np.ndarray:
    """Log-uniform along the tangent, ~ 1/(|t| + s^2) across it."""
    s = _IMP_SMIN * np.exp(rng.uniform(size=n) * _LOG_S)
    u = rng.uniform(size=n)
    t = s * s * ((1.0 + _IMP_T0 / s**2) ** u - 1.0)
    t *= np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    return comp.vertex + comp.tau * s + 1j * comp.tau * t


def _quadrature_cell(cat: Catalog, kl: tuple[int, int], n: int,
                     rng: np.random.Generator, tol: float) -> CellQuadrature:
    """Integrals of g and -log|z| g over one cell.

    The cell is split into the vertex balls (importance-sampled by the cusp
    components, whose densities dominate the singular growth of g) and the
    bulk (two-pass Neyman-stratified over the cell box).  Both pieces have
    bounded weights, so the reported standard errors are trustworthy.
    """
    v = cat.v_cells[kl]
    u_reg = cat.v_star[kl].invert()
    arcs = region_arc_quadrature(u_reg)
    box = v.bbox_real(default=U_BOX)
    comps = _cell_cusp_components(cat, kl)

    def masked_g(z: np.ndarray, mask: np.ndarray) -> np.ndarray:
        g = np.zeros(z.shape)
        g[mask] = kernel_integral(z[mask], arcs)
        return g

    acc = np.zeros(3)      # [mass, levy, area]
    acc_var = np.zeros(3)
    min_dist = math.inf

    # group the components by vertex; each vertex ball is handled by the
    # equal mixture of its components
    groups: dict[complex, list[_CuspComponent]] = {}
    for comp in comps:
        groups.setdefault(comp.vertex, []).append(comp)
    verts = list(groups)

    def ball_density(z: np.ndarray, vert: complex) -> np.ndarray:
        qs = [_comp_density(z, comp) for comp in groups[vert]]
        return sum(qs) / len(qs)

    def in_covered_ball(z: np.ndarray) -> np.ndarray:
        out = np.zeros(z.shape, dtype=bool)
        for vert in verts:
            near = np.abs(z - vert) < _IMP_RC
            if near.any():
                out |= near & (ball_density(z, vert) > 0)
        return out

    # vertex balls via the component mixtures
    n_comp = (int(0.35 * n) // len(verts)) if verts else 0
    for vert in verts:
        m = max(n_comp, 64)
        comp_list = groups[vert]
        pick = rng.integers(0, len(comp_list), m)
        z = np.empty(m, dtype=np.complex128)
        for ci, comp in enumerate(comp_list):
            sel = np.flatnonzero(pick == ci)
            if sel.size:
                z[sel] = _comp_sample(rng, sel.size, comp)
        q = ball_density(z, vert)
        use = ((np.abs(z - vert) < _IMP_RC) & (q > 0)
               & (v.classify_complex(z, tol) == 1))
        g = masked_g(z, use)
        w = np.where(use, g / np.where(q > 0, q, 1.0), 0.0)
        lw = np.where(use, -np.log(np.maximum(np.abs(z), 1e-300)), 0.0) * w
        aw = np.where(use, 1.0 / np.where(q > 0, q, 1.0), 0.0)
        for slot, vals in enumerate((w, lw, aw)):
            acc[slot] += vals.mean()
            acc_var[slot] += vals.var(ddof=1) / m

    # bulk: two-pass stratified sampling over the cell box
    s = _STRATA
    xs = np.linspace(box[0], box[1], s + 1)
    ys = np.linspace(box[2], box[3], s + 1)
    box_area = (box[1] - box[0]) * (box[3] - box[2]) / (s * s)
    n_bulk = n - n_comp * len(verts)
    n1 = max(6, n_bulk // (3 * s * s))
    sums = np.zeros((s * s, 3))
    sqs = np.zeros((s * s, 3))
    cnts = np.zeros(s * s, dtype=np.int64)

    def run_stratum(b: int, m: int) -> None:
        i, j = divmod(b, s)
        z = (rng.uniform(xs[i], xs[i + 1], m)
             + 1j * rng.uniform(ys[j], ys[j + 1], m))
        use = ~in_covered_ball(z) & (v.classify_complex(z, tol) == 1)
        g = masked_g(z, use)
        lg = np.where(use, -np.log(np.maximum(np.abs(z), 1e-300)), 0.0) * g
        av = use.astype(float)
        for slot, vals in enumerate((g, lg, av)):
            sums[b, slot] += vals.sum()
            sqs[b, slot] += (vals * vals).sum()
        cnts[b] += m

    for b in range(s * s):
        run_stratum(b, n1)
    sigma = np.sqrt(np.maximum(sqs[:, 0] / cnts - (sums[:, 0] / cnts) ** 2, 0.0))
    n2 = max(0, n_bulk - int(cnts.sum()))
    if sigma.sum() > 0 and n2 > 0:
        alloc = np.floor(n2 * sigma / sigma.sum()).astype(np.int64)
        for b in np.flatnonzero(alloc):
            run_stratum(b, int(alloc[b]))
    means = sums / cnts[:, None]
    spreads = np.maximum(sqs / cnts[:, None] - means**2, 0.0)
    for slot in range(3):
        acc[slot] += box_area * means[:, slot].sum()
        acc_var[slot] += box_area**2 * float((spreads[:, slot] / cnts).sum())

    # pair-sampled cross-check of the growth-rate integral with the
    # uninverted weight -log|u| = log|w| (higher variance, recorded only)
    m = max(200, n // 3)
    ub = u_reg.bbox_real(default=(-1.0, 1.0, -1.0, 1.0))
    zp = rng.uniform(box[0], box[1], m) + 1j * rng.uniform(box[2], box[3], m)
    u = rng.uniform(ub[0], ub[1], m) + 1j * rng.uniform(ub[2], ub[3], m)
    both = (v.classify_complex(zp, tol) == 1) & (u_reg.classify_complex(u, tol) == 1)
    dist = np.abs(zp * u - 1.0)
    kern = np.where(both, 1.0 / np.maximum(dist, 1e-30) ** 4, 0.0)
    logu = np.where(both, -np.log(np.maximum(np.abs(u), 1e-300)), 0.0)
    scale = ((box[1] - box[0]) * (box[3] - box[2])
             * (ub[1] - ub[0]) * (ub[3] - ub[2]))
    logu_raw = scale * (kern * logu).mean()
    logu_err = scale * (kern * logu).std(ddof=1) / math.sqrt(m)
    if both.any():
        min_dist = min(min_dist, float(dist[both].min()))

    return CellQuadrature(
        kl, float(acc[0]), math.sqrt(acc_var[0]),
        float(acc[1]), math.sqrt(acc_var[1]),
        float(logu_raw), float(logu_err),
        float(acc[2]), region_area_flux(arcs),
        min_dist, arcs,
    )


@dataclass
class Quadrature:
    c0: float
    c0_err: float
    levy_integral: float
    levy_err: float
    levy_integral_pairs: float
    levy_pairs_err: float
    cells: dict[tuple[int, int], CellQuadrature]
    min_kernel_dist: float

    def cell_masses(self) -> dict[tuple[int, int], float]:
        return {kl: self.c0 * q.mass_raw for kl, q in self.cells.items()}

    def cell_mass_errs(self) -> dict[tuple[int, int], float]:
        return {kl: self.c0 * q.mass_err for kl, q in self.cells.items()}


def estimate_C0_and_levy_integral(quad_samples: int = 1000000, seed: int = 0,
                                  tol: float = 1e-12) -> Quadrature:
    """Normalizing constant and the invariant growth-rate integral.

    quad_samples is the total z-sample budget spread over the 36 cells; the
    dual-cell direction is integrated by boundary flux, so the error comes
    from the smooth z-average alone.
    """
    cat = build_catalog()
    per = max(200, quad_samples // len(CELLS))
    cells: dict[tuple[int, int], CellQuadrature] = {}
    for kl in CELLS:
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, f"quad:{kl}")))
        cells[kl] = _quadrature_cell(cat, kl, per, rng, tol)
    total = sum(q.mass_raw for q in cells.values())
    total_err = math.sqrt(sum(q.mass_err**2 for q in cells.values()))
    levy_num = sum(q.levy_raw for q in cells.values())
    levy_num_err = math.sqrt(sum(q.levy_err**2 for q in cells.values()))
    logu_num = sum(q.logu_raw for q in cells.values())
    logu_num_err = math.sqrt(sum(q.logu_err**2 for q in cells.values()))
    c0 = 1.0 / total
    levy = levy_num / total
    return Quadrature(
        c0=c0,
        c0_err=total_err / total**2,
        levy_integral=levy,
        levy_err=(levy_num_err + abs(levy) * total_err) / total,
        levy_integral_pairs=logu_num / total,
        levy_pairs_err=(logu_num_err + abs(logu_num / total) * total_err) / total,
        cells=cells,
        min_kernel_dist=min(q.min_kernel_dist for q in cells.values()),
    )


# --------------------------------------------------------------------------
# invariant density
# --------------------------------------------------------------------------

class DensityEstimator:
    """h(z) = C0 * integral over (Vstar_cell(z))^-1 of du / |z*u - 1|^4."""

    def __init__(self, quad: Quadrature, catalog: Catalog | None = None):
        self.quad = quad
        self.cat = catalog or build_catalog()

    def at_points(self, z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Density at an array of points; NaN off the open cells."""
        z = np.asarray(z, dtype=np.complex128)
        flat = z.ravel()
        idx = classify_cells_complex(flat, self.cat, tol)
        out = np.full(flat.shape, np.nan)
        for ci, kl in enumerate(CELLS):
            sel = idx == ci
            if not sel.any():
                continue
            out[sel] = self.quad.c0 * kernel_integral(flat[sel], self.quad.cells[kl].arcs)
        return out.reshape(z.shape)

    def at(self, z: complex, tol: float = 1e-12) -> float:
        return float(self.at_points(np.array([z]), tol)[0])

    def integral_over_U(self, n: int = 1000000, seed: int = 0,
                        tol: float = 1e-12) -> tuple[float, float]:
        """Independent Monte Carlo check of the total mass (should be ~ 1).

        Fresh samples, same variance-controlled cell estimator; returns
        (value, stderr).  n is the total fresh z-budget.
        """
        per = max(200, n // len(CELLS))
        total = 0.0
        err2 = 0.0
        for kl in CELLS:
            rng = np.random.Generator(
                np.random.PCG64(derive_seed(seed, f"hmass:{kl}")))
            q = _quadrature_cell(self.cat, kl, per, rng, tol)
            total += q.mass_raw
            err2 += q.mass_err**2
        err = self.quad.c0 * math.sqrt(err2) + self.quad.c0_err * total
        return self.quad.c0 * total, err

    def grid(self, n: int, tol: float = 1e-12):
        """Density on an n x n grid over the bounding box of U.

        Returns (x nodes, y nodes, values); off-domain values are 0.
        """
        xlo, xhi, ylo, yhi = U_BOX
        xs = np.linspace(xlo, xhi, n)
        ys = np.linspace(ylo, yhi, n)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        vals = self.at_points(gx + 1j * gy, tol)
        return xs, ys, np.nan_to_num(vals, nan=0.0)


# --------------------------------------------------------------------------
# occupation versus quadrature masses
# --------------------------------------------------------------------------

def occupation_frequencies(batch: OrbitBatch, catalog: Catalog | None = None,
                           tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Empirical cell frequencies per orbit: (orbits x 36 matrix, means)."""
    cat = catalog or build_catalog()
    orbits, length = batch.points.shape
    freq = np.zeros((orbits, 36))
    chunk = max(1, 400000 // max(length, 1))
    for lo in range(0, orbits, chunk):
        sl = batch.points[lo:lo + chunk]
        idx = classify_cells_complex(sl.ravel(), cat, tol).reshape(sl.shape)
        for ci in range(36):
            freq[lo:lo + chunk, ci] = (idx == ci).mean(axis=1)
    return freq, freq.mean(axis=0)


def invariance_check(orbits: int = 64, length: int = 20000, seed: int = 0,
                     quad: Quadrature | None = None,
                     quad_samples: int = 1000000,
                     tol: float = 1e-12) -> CheckReport:
    """Empirical occupation of long orbits against the density cell masses.

    PASS when every cell discrepancy is below max(3 * combined stderr, 0.01).
    """
    with CheckReport("invariance") as rep:
        if quad is None:
            quad = estimate_C0_and_levy_integral(quad_samples, seed, tol)
        batch = simulate_orbits(orbits, length, seed, tol)
        freq, mean_freq = occupation_frequencies(batch, tol=tol)
        rep.samples = orbits * length
        masses = quad.cell_masses()
        mass_errs = quad.cell_mass_errs()
        sum_f = float(mean_freq.sum())
        rep.info["frequency_sum"] = sum_f
        if abs(sum_f - 1.0) > 0.02:
            rep.fail(kind="band_loss", frequency_sum=sum_f)
        worst = 0.0
        for ci, kl in enumerate(CELLS):
            f = float(mean_freq[ci])
            sf = float(freq[:, ci].std(ddof=1) / math.sqrt(len(freq)))
            mu = masses[kl]
            tol_cell = max(3.0 * (sf + mass_errs[kl]), 0.01)
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
    birkhoff = levy_birkhoff(orbits, length, seed, tol)
    batch = simulate_orbits(orbits, length, derive_seed(seed, "occ"), tol)
    _, mean_freq = occupation_frequencies(batch, tol=tol)
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
