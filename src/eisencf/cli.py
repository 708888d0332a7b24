"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage/configuration error
(an unwritable --out included), 3 domain error.  With a fixed seed every
artifact is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from ._util import canonical_json
from .cf import DomainError, convergents, expand
from .exact import BAND, embed, field_element_to_json, parse_field_element

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
# _ratio divides floats while every part of p and q is below this
_RATIO_SAFE = 2**1020


class RunConfig:
    """The run settings: the class defaults, overridden per instance by the
    options a command was given."""

    seed: int = 0
    samples: int = 10000
    orbits: int = 64
    length: int = 20000
    depth: int = 20
    grid: int = 200
    digits: int = 40
    tol: float = BAND

    def validate(self) -> None:
        for name in ("samples", "orbits", "length", "depth", "grid", "digits"):
            least = 2 if name == "orbits" else 1  # a standard error needs two orbits
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    for name in RunConfig.__annotations__:
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    cfg.validate()
    return cfg


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)


def _eint_json(e) -> dict:
    return {"a": e.a, "b": e.b}


def _ratio(p, q) -> complex:
    """p/q as the quotient of the floats of p and q, or as the exact
    quotient rounded once p or q nears the end of float range."""
    if max(abs(p.a), abs(p.b), abs(q.a), abs(q.b)) < _RATIO_SAFE:
        return p.approx() / q.approx()
    return (embed(p) / embed(q)).approx()


def cmd_expand(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        z = parse_field_element(args.z)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        e = expand(z, cfg.digits)
    except DomainError:
        print(f"error: {z} is not in the fundamental domain (violates the "
              "half-open hexagon constraints)", file=sys.stderr)
        return EXIT_DOMAIN
    convs = convergents(e.digits)
    terminal = {**e.terminal._asdict(), "type": type(e.terminal).__name__}
    if "point" in terminal:
        terminal["point"] = field_element_to_json(terminal["point"])
    zf = z.approx()
    errors = [None if c.q.is_zero() else abs(zf - _ratio(c.p, c.q)) for c in convs[1:]]
    doc = {
        "schema": 1,
        "z": field_element_to_json(z),
        "digits": [_eint_json(d) for d in e.digits],
        "terminal": terminal,
        "exact": e.exact,
        "convergents": [
            {"p": _eint_json(c.p), "q": _eint_json(c.q)} for c in convs[1:]
        ],
        "abs_errors": errors,
    }
    _write(args.out, canonical_json(doc))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .verifier import run_checks

    reports = run_checks([args.which], cfg.samples, cfg.depth, cfg.seed)
    doc = {
        "schema": 1,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "depth": cfg.depth,
        "checks": [r.as_dict() for r in reports],
        "verdict": "PASS" if all(r.verdict == "PASS" for r in reports) else "FAIL",
    }
    _write(args.out, canonical_json(doc))
    if doc["verdict"] != "PASS":
        for r in reports:
            if r.failures:
                print(f"FAIL {r.name}: {r.failures[0]}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_levy(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .ergodic import ergodic_report

    rep = ergodic_report(orbits=cfg.orbits, length=cfg.length,
                         quad_samples=cfg.samples, seed=cfg.seed)
    _write(args.out, canonical_json(rep.as_dict()))
    return EXIT_OK


def cmd_density(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .ergodic import quadrature

    xs, ys, vals = quadrature().density_grid(cfg.grid)
    lines = ["x,y,h"]
    for i in range(cfg.grid):
        for j in range(cfg.grid):
            lines.append(f"{xs[i]:.12g},{ys[j]:.12g},{vals[i, j]:.12g}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_render(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .svg import render_figures

    paths = render_figures(Path(args.out))
    for p in paths:
        print(p)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` leaves it as
    it is and returns a fresh namespace, so in-process callers of ``main``
    share it and no request sees another's options."""
    ap = argparse.ArgumentParser(
        prog="eisencf",
        description="Continued fractions over the Eisenstein field: exact "
                    "expansions, structural verification, ergodic statistics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    out_help = "output path (default stdout)"

    p = sub.add_parser("expand", help="digit expansion of an exact point")
    p.add_argument("--z", required=True, help="point literal, e.g. 3/10+1/7r")
    p.add_argument("--digits", type=int)
    p.add_argument("--out", help=out_help)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="run structural checks")
    p.add_argument("which", nargs="?", default="all",
                   choices=["inversions", "frs", "dual", "orbit",
                            "monotonic", "special", "all"])
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--out", help=out_help)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("levy", help="growth-rate estimates by two routes")
    p.add_argument("--orbits", type=int)
    p.add_argument("--length", type=int)
    p.add_argument("--samples", type=int, default=1000000,
                   help="budget of the pair-sampled cross-check (default "
                        "%(default)s); C0 and the integral are deterministic")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help=out_help)
    p.set_defaults(func=cmd_levy)

    p = sub.add_parser("density", help="invariant density on a grid (CSV)")
    p.add_argument("--grid", type=int)
    p.add_argument("--out", help=out_help)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("render", help="emit qualitative SVG figures")
    p.add_argument("what", choices=["regions"])
    p.add_argument("--out", default="figs")
    p.set_defaults(func=cmd_render)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # keep negative point literals (`--z -1/2-1/2r`) out of option parsing;
    # any other token after `--z` is left for argparse to judge.  Right to
    # left, so that a splice shifts no token still to be visited.
    for i in reversed(range(len(argv) - 1)):
        nxt = argv[i + 1]
        if argv[i] == "--z" and nxt[:1] == "-" and nxt[1:2].isdecimal():
            argv[i:i + 2] = [f"--z={nxt}"]
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, cfg)
    except OSError as exc:  # the output could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
