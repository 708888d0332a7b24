"""SVG emission of catalogue regions (qualitative figures).

Every region is drawn as one exact <path> of arc (A) and line (L) commands,
chained end to end from the pieces of `Region.boundary()`.  A region is first
clipped to a box with rational sides just outside the canvas, so unbounded
dual cells get a finite outline, and `fill-rule="evenodd"` makes the hole of a
clipped exterior come out right.

Coordinates are the complex plane with y up; every float is written with 12
significant digits so repeated runs emit identical bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

from .regions import Piece, Region, build_catalog, circle, half_plane

# fills of the V_{k,l} cells by k
_CELL_FILLS = ["#d2e6f6", "#e6f2d2", "#f6efd2", "#f6dfd2", "#ead2f6", "#d2f6ee"]


def _disk(cx, cy, r_sq) -> Region:
    """|z - (cx + cy*sqrt(-3))|^2 < r_sq."""
    return Region("disk", (circle(cx, cy, r_sq, "<"),))


def _f(x: float) -> str:
    return f"{x:.12g}"


def _pt(z: complex) -> str:
    return f"{_f(z.real)},{_f(-z.imag)}"


class SvgCanvas:
    def __init__(self, half: float = 1.35):
        self.half = half
        self.parts: list[str] = []

    def text(self, c: complex, s: str, size=0.09, color="#202020"):
        self.parts.append(
            f'<text x="{_f(c.real)}" y="{_f(-c.imag)}" font-size="{_f(size)}" '
            f'font-family="monospace" fill="{color}">{s}</text>'
        )

    def region(self, reg: Region, fill="none", color="#334455", width=0.006):
        """The region clipped to a box just outside the canvas, as one path."""
        # |x| < m and |y| < m in z = x + y*sqrt(-3) contain the canvas
        m = Fraction(math.floor(10 * self.half) + 1, 10)
        box = (half_plane(1, 0, m, "<"), half_plane(1, 0, -m, ">"),
               half_plane(0, 1, m, "<"), half_plane(0, 1, -m, ">"))
        pieces = Region(reg.name, reg.prims + box).boundary()
        self.parts.append(
            f'<path d="{_path_data(pieces)}" fill="{fill}" fill-rule="evenodd" '
            f'stroke="{color}" stroke-width="{_f(width)}"/>'
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


def _path_data(pieces: list[Piece]) -> str:
    """Chain the pieces end to end: one subpath per chain, Z on closed loops."""
    rest, out, cur, first = list(pieces), [], None, None
    while rest:
        k = next((k for k, pc in enumerate(rest) if cur is not None
                  and min(abs(pc.start - cur), abs(pc.end - cur)) < 1e-9), None)
        if k is None:
            k, cur = 0, rest[0].start
            first = cur
            out.append(f"M{_pt(cur)}")
        pc = rest.pop(k)
        back = abs(pc.start - cur) >= 1e-9
        t_end = pc.t1 if back else pc.t2
        if pc.radius:
            # arcs above pi go through their midpoint; increasing t is
            # counter-clockwise, which is sweep-flag 0 once y points down
            ts = [0.5 * (pc.t1 + pc.t2)] * (pc.t2 - pc.t1 > math.pi) + [t_end]
            r = _f(pc.radius)
            out += [f"A{r},{r} 0 0 {int(back)} {_pt(pc.at(t))}" for t in ts]
        else:
            out.append(f"L{_pt(pc.at(t_end))}")
        cur = complex(pc.at(t_end))
        if abs(cur - first) < 1e-9:
            out.append("Z")
            cur = None
    return " ".join(out)


def render_figures(outdir: Path) -> list[Path]:
    """Five qualitative figures: the fundamental domain, the coarse image
    cells, the cell partition, the dual cells, and the boundary curves."""
    cat = build_catalog()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out: list[Path] = []

    def save(cv: SvgCanvas, name: str) -> None:
        cv.save(outdir / name)
        out.append(outdir / name)

    def hexagon(cv: SvgCanvas) -> None:
        cv.region(cat.u0, color="#999999", width=0.004)

    # the half-open hexagon: thick kept edges (segments L1-L3), dots on the
    # two kept vertices
    cv = SvgCanvas()
    cv.region(_disk(0, 0, 1), color="#cccccc", width=0.003)
    hexagon(cv)
    for j in (1, 2, 3):
        cv.region(cat.segments[j], color="#111111", width=0.014)
    for x in (-1, 1):  # -zeta and conj(zeta)
        cv.region(_disk(Fraction(x, 2), -Fraction(1, 2), Fraction(1, 2500)), fill="#000000")
    cv.text(complex(0.02, -0.08), "0")
    save(cv, "fig_domain.svg")

    # coarse image cells U_{k,1}, the first one filled
    cv = SvgCanvas()
    for k in range(1, 6):
        cv.region(cat.u_cells[(k, 1)], fill="#e8f0fc" if k == 1 else "none",
                  color="#336699")
    save(cv, "fig_u_cells.svg")

    # the 36-cell partition, filled by k
    cv = SvgCanvas()
    for (k, _l), reg in cat.v_cells.items():
        cv.region(reg, fill=_CELL_FILLS[k - 1], color="#aa5533", width=0.005)
    save(cv, "fig_v_partition.svg")

    # the dual cells V*_{k,1}, the first one filled
    cv = SvgCanvas(half=2.6)
    hexagon(cv)
    for k in range(1, 7):
        cv.region(cat.v_star[(k, 1)], fill="#e4eefa" if k == 1 else "none",
                  color="#336699", width=0.008)
    cv.region(_disk(0, 0, Fraction(9, 10000)), fill="#000000")
    save(cv, "fig_dual_cells.svg")

    # boundary segments L1-L6 and arcs L7-L12
    cv = SvgCanvas()
    hexagon(cv)
    for j, reg in cat.segments.items():
        cv.region(reg, color="#116611" if j <= 6 else "#661166",
                  width=0.012 if j <= 6 else 0.009)
    save(cv, "fig_boundary_curves.svg")
    return out
