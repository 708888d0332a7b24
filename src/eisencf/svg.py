"""SVG emission of catalogue regions (qualitative figures).

Coordinates are the complex plane with y up; every float is written with 12
significant digits so repeated runs emit identical bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .exact import SQRT3
from .regions import Catalog, Primitive, Region, build_catalog

_HEX = [complex(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
        for k in range(6)]


def _f(x: float) -> str:
    return f"{x:.12g}"


class SvgCanvas:
    def __init__(self, half: float = 1.35):
        self.half = half
        self.parts: list[str] = []

    def line(self, a: complex, b: complex, width=0.008, color="#444444"):
        self.parts.append(
            f'<line x1="{_f(a.real)}" y1="{_f(-a.imag)}" x2="{_f(b.real)}" '
            f'y2="{_f(-b.imag)}" stroke="{color}" stroke-width="{_f(width)}"/>'
        )

    def circle(self, c: complex, r: float, width=0.006, color="#777777"):
        self.parts.append(
            f'<circle cx="{_f(c.real)}" cy="{_f(-c.imag)}" r="{_f(r)}" '
            f'fill="none" stroke="{color}" stroke-width="{_f(width)}"/>'
        )

    def dot(self, c: complex, r=0.02, color="#000000"):
        self.parts.append(
            f'<circle cx="{_f(c.real)}" cy="{_f(-c.imag)}" r="{_f(r)}" '
            f'fill="{color}"/>'
        )

    def rect(self, x: float, y: float, w: float, h: float, color="#c8d8f0"):
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(-y - h)}" width="{_f(w)}" '
            f'height="{_f(h)}" fill="{color}"/>'
        )

    def text(self, c: complex, s: str, size=0.09, color="#202020"):
        self.parts.append(
            f'<text x="{_f(c.real)}" y="{_f(-c.imag)}" font-size="{_f(size)}" '
            f'font-family="monospace" fill="{color}">{s}</text>'
        )

    def save(self, path: Path):
        h = self.half
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_f(-h)} {_f(-h)} {_f(2 * h)} {_f(2 * h)}" '
            f'width="600" height="600">\n'
            f'<rect x="{_f(-h)}" y="{_f(-h)}" width="{_f(2 * h)}" '
            f'height="{_f(2 * h)}" fill="#ffffff"/>\n'
        )
        Path(path).write_text(head + "\n".join(self.parts) + "\n</svg>\n")


def draw_primitive(cv: SvgCanvas, p: Primitive, **kw) -> None:
    """Outline of a primitive: full circle, or line clipped to the canvas."""
    data = p.circle_data()
    if data is not None and p.qq != 0:
        cx, cy, r_sq = data
        cv.circle(complex(float(cx), float(cy) * SQRT3), math.sqrt(float(r_sq)), **kw)
        return
    # line bx*x + by*y + dd = 0 in x + y*sqrt(-3) coordinates
    a, b, c = p.bx, p.by / SQRT3, p.dd  # a*Re + b*Im + c = 0 in real coords
    h = cv.half
    pts = []
    for X in (-h, h):
        if abs(b) > 1e-15:
            Y = -(a * X + c) / b
            if abs(Y) <= h + 1e-9:
                pts.append(complex(X, Y))
    for Y in (-h, h):
        if abs(a) > 1e-15:
            X = -(b * Y + c) / a
            if abs(X) <= h + 1e-9:
                pts.append(complex(X, Y))
    uniq: list[complex] = []
    for z in pts:
        if all(abs(z - u) > 1e-9 for u in uniq):
            uniq.append(z)
    if len(uniq) >= 2:
        cv.line(uniq[0], uniq[1], **kw)


def shade_region(cv: SvgCanvas, reg: Region, grid: int = 56,
                 color="#c8d8f0", box: float | None = None) -> None:
    half = box if box is not None else cv.half
    step = 2 * half / grid
    xs = -half + step * (np.arange(grid) + 0.5)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    inside = reg.classify_complex(gx + 1j * gy, 1e-9) == 1
    for i, j in np.argwhere(inside):
        cv.rect(float(gx[i, j]) - step / 2, float(gy[i, j]) - step / 2,
                step, step, color)


def _hex_outline(cv: SvgCanvas) -> None:
    for i in range(6):
        cv.line(_HEX[i], _HEX[(i + 1) % 6], width=0.004, color="#999999")


def render_region(reg: Region, path: Path, half: float = 1.35,
                  grid: int = 56) -> Path:
    """One catalogue region: shaded membership plus its bounding curves."""
    cv = SvgCanvas(half=half)
    _hex_outline(cv)
    shade_region(cv, reg, grid=grid, box=half)
    for prim in reg.prims:
        draw_primitive(cv, prim, color="#334455", width=0.006)
    cv.save(Path(path))
    return Path(path)


def render_figures(outdir: Path, catalog: Catalog | None = None) -> list[Path]:
    """Five qualitative figures: the fundamental domain, the coarse image
    cells, the cell partition, the dual cells, and the boundary curves."""
    cat = catalog or build_catalog()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out: list[Path] = []

    # the half-open hexagon: thick kept edges, dots on the two kept vertices
    cv = SvgCanvas()
    cv.circle(0, 1.0, width=0.003, color="#cccccc")
    _hex_outline(cv)
    kept = [( _HEX[5], _HEX[0]), (_HEX[2], _HEX[1]), (_HEX[3], _HEX[4])]
    for a, b in kept:
        cv.line(a, b, width=0.014, color="#111111")
    cv.dot(_HEX[4])  # -zeta
    cv.dot(_HEX[5])  # conj(zeta)
    cv.text(complex(0.02, -0.08), "0")
    p = outdir / "fig_domain.svg"
    cv.save(p)
    out.append(p)

    # coarse image cells U_{k,1}
    cv = SvgCanvas()
    _hex_outline(cv)
    shade_region(cv, cat.u_cells[(1, 1)], color="#e8f0fc")
    for k in range(1, 6):
        for prim in cat.u_cells[(k, 1)].prims[6:]:
            draw_primitive(cv, prim, color="#336699", width=0.006)
    p = outdir / "fig_u_cells.svg"
    cv.save(p)
    out.append(p)

    # the 36-cell partition: diagonals plus the twelve partition circles
    cv = SvgCanvas()
    _hex_outline(cv)
    for i in range(3):
        cv.line(_HEX[i], _HEX[i + 3], width=0.006, color="#555555")
    drawn = set()
    for k in range(1, 7):
        for reg in (cat.v_cells[(1, k)], cat.v_cells[(4, k)]):
            for prim in reg.prims[6:]:
                key = (prim.qq, prim.bx, prim.by, prim.dd)
                if key not in drawn and prim.qq != 0:
                    drawn.add(key)
                    draw_primitive(cv, prim, color="#aa5533", width=0.005)
    shade_region(cv, cat.v_cells[(4, 1)], color="#f6dfd2")
    shade_region(cv, cat.v_cells[(1, 1)], color="#d2e6f6")
    p = outdir / "fig_v_partition.svg"
    cv.save(p)
    out.append(p)

    # dual cells: the bounding circles and one shaded representative
    cv = SvgCanvas(half=2.6)
    _hex_outline(cv)
    shade_region(cv, cat.v_star[(1, 1)], grid=72, color="#e4eefa", box=2.6)
    for prim in cat.v_star[(1, 1)].prims + cat.v_star[(6, 1)].prims:
        draw_primitive(cv, prim, color="#336699", width=0.008)
    cv.dot(0, r=0.03)
    p = outdir / "fig_dual_cells.svg"
    cv.save(p)
    out.append(p)

    # boundary segments and arcs
    cv = SvgCanvas()
    _hex_outline(cv)
    for j, reg in cat.segments.items():
        eq = next(pr for pr in reg.prims if pr.rel == "==")
        if eq.qq == 0:
            ends = {1: (_HEX[2], _HEX[1]), 2: (_HEX[3], _HEX[4]),
                    3: (_HEX[5], _HEX[0]), 4: (_HEX[4], _HEX[1]),
                    5: (_HEX[3], _HEX[0]), 6: (_HEX[2], _HEX[5])}[j]
            cv.line(*ends, width=0.012, color="#116611")
        else:
            draw_primitive(cv, eq, color="#661166", width=0.009)
    p = outdir / "fig_boundary_curves.svg"
    cv.save(p)
    out.append(p)
    return out
