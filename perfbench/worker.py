"""One benchmark process: a set-up probe, or one workload run.

run.py starts this file in a fresh interpreter with the thread environment
pinned; it is not meant to be started by hand.

    worker.py probe
        time `import eisencf.cli` and a cold `build_catalog()`
    worker.py run --workload W --seed S --seconds T --trace 0|1 --scale S --out DIR
        run workload W (trace 0) or the traced layer profile (trace 1)

The last line of standard output is one JSON object with the result.

Every request goes through `eisencf.cli.main` exactly as a user would type
it.  The traced profile repeats the calls each CLI command makes, in the
same order and with the same arguments, inside spans recorded here; its
artifacts must be byte-identical to the untraced CLI's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks

# Request sizes.  "full" is the benchmark; "tiny" only exercises the code
# paths (smoke.py).  levy's length and sample budget are the smallest at
# which acceptance 11's 2% agreement holds with a wide margin: the
# quadrature error dominates, see README.md.
SCALES = {
    "full": {
        "verify_samples": 1000, "verify_warm_samples": 10,
        "expand_digits": 40, "expand_round": 100, "expand_den_digits": 33,
        "levy_orbits": 64, "levy_length": 16000, "levy_samples": 1600000,
        "levy_warm_length": 20, "levy_warm_samples": 200,
        "levy_err_cap": 0.0029,
        "kernel_ops": 2000, "kernel_reps": 5,
    },
    "tiny": {
        "verify_samples": 10, "verify_warm_samples": 10,
        "expand_digits": 8, "expand_round": 5, "expand_den_digits": 33,
        "levy_orbits": 64, "levy_length": 30, "levy_samples": 200,
        "levy_warm_length": 20, "levy_warm_samples": 200,
        "levy_err_cap": None,
        "kernel_ops": 60, "kernel_reps": 2,
    },
}

WORKLOADS = ("verify", "expand", "levy")


def derive(seed: int, label: str) -> int:
    """32-bit seed for one labelled input stream of a run."""
    h = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=4)
    return int.from_bytes(h.digest(), "big")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# The shared machine this benchmark was built on swings between speeds
# about 40% apart, for seconds to minutes at a time, which moves plain wall
# times of identical work by 15-30% from run to run.  So the worker pins
# itself to one CPU and a background thread times a small fixed job every
# SAMPLE_PERIOD_S in thread CPU time, which waiting for the interpreter
# lock does not count.  Reported times are scaled to the speed at which
# the job takes CAL_REF_S.  The job is plain Python integer and object work
# that shares no code with the package, so no change to the package can
# move it.  Unscaled times are printed alongside.
CAL_REF_S = 0.0007
CAL_STEPS = 300
SAMPLE_PERIOD_S = 0.1
SAMPLE_WINDOW_S = 0.25   # samples this close to a unit also describe it


def calibration_s() -> float:
    """Thread CPU time of the fixed calibration job."""
    t0 = time.thread_time()
    a, b, c = 3**70 + 1, 5**45 + 7, 7**38 + 11
    for i in range(CAL_STEPS):
        a, b, c = (a * 3 + b) % (1 << 120), (b * c + i) % (1 << 110), c + a % 997
        str({"a": a, "g": math.gcd(a, b, c)}["g"])
    return time.thread_time() - t0


class SpeedSampler:
    """Background thread that times the calibration job periodically."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (perf_counter, job s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> SpeedSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        return False

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self.samples.append((time.perf_counter(), calibration_s()))

    def scale(self, start: float, end: float) -> float:
        """CAL_REF_S over the mean job time sampled around [start, end]."""
        while not self.samples or self.samples[-1][0] < end + SAMPLE_WINDOW_S:
            time.sleep(SAMPLE_PERIOD_S / 2)
        near = [c for t, c in list(self.samples)
                if start - SAMPLE_WINDOW_S <= t <= end + SAMPLE_WINDOW_S]
        return CAL_REF_S / statistics.mean(near)


def pin_to_one_cpu() -> None:
    """Keep the worker and its sampler on the same CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def call_cli(argv: list[str]) -> tuple[int, str]:
    from eisencf import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def config_from(args: argparse.Namespace):
    """The CLI's run configuration: defaults overridden by given options."""
    from eisencf.cli import RunConfig

    cfg = RunConfig()
    for name in ("seed", "samples", "orbits", "length", "depth", "grid",
                 "digits", "tol"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    cfg.validate()
    return cfg


def parse_cli(argv: list[str]) -> argparse.Namespace:
    from eisencf import cli

    argv = list(argv)
    # as cli.main: keep point literals with a leading minus out of option parsing
    for i, tok in enumerate(argv[:-1]):
        if tok == "--z" and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"--z={argv[i + 1]}"]
            break
    return cli.build_parser().parse_args(argv)


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: name, start, end, parent span and request."""

    def __init__(self, speed: SpeedSampler) -> None:
        self.speed = speed
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent,
               "request": sid if parent is None else self.spans[parent]["request"],
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, span: dict) -> float:
        """Span time scaled to the reference speed."""
        return (span["end"] - span["start"]) * self.speed.scale(span["start"], span["end"])

    def durations(self, name: str) -> list[float]:
        return [self.duration(s) for s in self.spans if s["name"] == name]

    def uncovered(self, root_ids: list[int]) -> float:
        """Time inside the given root spans that no child span covers."""
        total = 0.0
        for rid in root_ids:
            root = self.spans[rid]
            kids = sum(s["end"] - s["start"] for s in self.spans
                       if s["parent"] == rid)
            total += (root["end"] - root["start"]) - kids
        return total


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

@dataclass
class Request:
    argv: list[str]
    point: tuple[int, int, int] | None = None   # expand: (a, b, c)
    out: Path | None = None                      # verify: artifact path


@dataclass
class Outcome:
    seconds: float
    rc: int
    text: str
    failures: list[str] = field(default_factory=list)


class Workload:
    name = ""
    min_rounds = 1

    def __init__(self, scale: dict, seed: int, out_dir: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.out_dir = out_dir

    def requests(self, phase: str, r: int) -> list[Request]:
        raise NotImplementedError

    def check(self, req: Request, text: str) -> list[str]:
        raise NotImplementedError

    def traced(self, req: Request, tr: Tracer) -> str:
        raise NotImplementedError

    def artifact(self, req: Request, stdout: str) -> str:
        return stdout

    def execute(self, req: Request) -> Outcome:
        """One timed CLI request; its output is checked after the clock stops."""
        t0 = time.perf_counter()
        try:
            rc, out = call_cli(req.argv)
        except Exception:
            dt = time.perf_counter() - t0
            return Outcome(dt, -1, "", [traceback.format_exc(limit=3)])
        dt = time.perf_counter() - t0
        if rc != 0:
            return Outcome(dt, rc, out, [f"exit code {rc}"])
        text = self.artifact(req, out)
        try:
            fails = self.check(req, text)
        except (KeyError, TypeError, ValueError) as exc:
            fails = [f"malformed artifact: {exc!r}"]
        return Outcome(dt, rc, text, fails)


class Verify(Workload):
    """`eisencf verify all --seed S --samples N --out FILE`: exact layer,
    dominated by the finite range structure check."""

    name = "verify"
    min_rounds = 3

    def requests(self, phase: str, r: int) -> list[Request]:
        seed = derive(self.seed, f"verify:{phase}:{r}")
        samples = self.scale["verify_warm_samples" if phase == "warm" else "verify_samples"]
        out = self.out_dir / f"verify-{phase}.json"
        return [Request(["verify", "all", "--seed", str(seed), "--samples",
                         str(samples), "--out", str(out)], out=out)]

    def artifact(self, req: Request, stdout: str) -> str:
        text = req.out.read_text()
        req.out.unlink()
        return text

    def check(self, req: Request, text: str) -> list[str]:
        from eisencf.verifier import CHECKS

        return checks.check_verify(json.loads(text), len(CHECKS))

    def traced(self, req: Request, tr: Tracer) -> str:
        from eisencf._util import canonical_json
        from eisencf.verifier import CHECKS

        with tr.span("request") as root:
            with tr.span("cli.parse"):
                args = parse_cli(req.argv)
                cfg = config_from(args)
            reports = []
            for name, check in CHECKS.items():
                with tr.span(f"verifier.{name}"):
                    reports.append(check(cfg.samples, cfg.depth, cfg.seed))
            with tr.span("cli.doc"):
                doc = {
                    "schema": 1, "seed": cfg.seed, "samples": cfg.samples,
                    "depth": cfg.depth,
                    "checks": [r.as_dict() for r in reports],
                    "verdict": ("PASS" if all(r.verdict == "PASS" for r in reports)
                                else "FAIL"),
                }
                for chk in doc["checks"]:
                    chk.pop("elapsed_s", None)
                text = canonical_json(doc)
            with tr.span("cli.write"):
                req.out.write_text(text)
        root["samples"] = sum(r.samples for r in reports)
        return self.artifact(req, "")


def u0_point(rng: random.Random, den_digits: int) -> tuple[int, int, int]:
    """Generic exact point (a + b*sqrt(-3))/c of the open hexagon with
    c around 10^den_digits, drawn like the acceptance corpus."""
    while True:
        c = rng.randint(10**den_digits, 4 * 10**den_digits)
        a, b = rng.randint(-c, c), rng.randint(-c, c)
        if abs(2 * b) < c and abs(a + b) < c and abs(a - b) < c:
            return a, b, c


class Expand(Workload):
    """Closed loop of `eisencf expand --z X+Yr --digits D` on 110-bit points:
    exact layer on big integers plus per-request CLI work."""

    name = "expand"
    min_rounds = 5

    def requests(self, phase: str, r: int) -> list[Request]:
        rng = random.Random(derive(self.seed, f"expand:{phase}:{r}"))
        digits = str(self.scale["expand_digits"])
        out = []
        for _ in range(self.scale["expand_round"]):
            pt = u0_point(rng, self.scale["expand_den_digits"])
            out.append(Request(["expand", "--z", checks.field_literal(*pt),
                                "--digits", digits], point=pt))
        return out

    def check(self, req: Request, text: str) -> list[str]:
        return checks.check_expand(json.loads(text), req.point,
                                   self.scale["expand_digits"])

    def traced(self, req: Request, tr: Tracer) -> str:
        from eisencf._util import canonical_json
        from eisencf.cf import convergents, expand
        from eisencf.exact import field_element_to_json, parse_field_element
        from eisencf.hexdomain import in_U

        with tr.span("request") as root:
            with tr.span("cli.parse"):
                args = parse_cli(req.argv)
                cfg = config_from(args)
            with tr.span("exact.parse_field_element"):
                z = parse_field_element(args.z)
            with tr.span("hexdomain.in_U"):
                if not in_U(z):
                    raise ValueError(f"{args.z} is not in U")
            with tr.span("cf.expand"):
                e = expand(z, cfg.digits)
            with tr.span("cf.convergents"):
                convs = convergents(e.digits)
            with tr.span("cli.doc"):
                terminal: dict = {"type": type(e.terminal).__name__}
                if hasattr(e.terminal, "step"):
                    terminal["step"] = e.terminal.step
                if hasattr(e.terminal, "entry_index"):
                    terminal["entry_index"] = e.terminal.entry_index
                    terminal["point"] = field_element_to_json(e.terminal.point)
                zf = z.approx()
                errors = [None if c.q.is_zero()
                          else abs(zf - c.p.approx() / c.q.approx())
                          for c in convs[1:]]
                doc = {
                    "schema": 1,
                    "z": field_element_to_json(z),
                    "digits": [{"a": d.a, "b": d.b} for d in e.digits],
                    "terminal": terminal,
                    "exact": e.exact,
                    "convergents": [
                        {"p": {"a": c.p.a, "b": c.p.b},
                         "q": {"a": c.q.a, "b": c.q.b}} for c in convs[1:]
                    ],
                    "abs_errors": errors,
                }
                text = canonical_json(doc)
        root["digits"] = len(e.digits)
        return text


class Levy(Workload):
    """One `eisencf levy --orbits 64 --length L --samples Q --seed S`:
    floating-point orbits, cell classification and boundary-flux quadrature."""

    name = "levy"
    min_rounds = 1

    def requests(self, phase: str, r: int) -> list[Request]:
        s = self.scale
        length, samples = ((s["levy_warm_length"], s["levy_warm_samples"])
                           if phase == "warm"
                           else (s["levy_length"], s["levy_samples"]))
        seed = derive(self.seed, f"levy:{phase}:{r}")
        return [Request(["levy", "--orbits", str(s["levy_orbits"]), "--length",
                         str(length), "--samples", str(samples), "--seed",
                         str(seed)])]

    def check(self, req: Request, text: str) -> list[str]:
        return checks.check_levy(json.loads(text), self.scale["levy_err_cap"])

    def traced(self, req: Request, tr: Tracer) -> str:
        from eisencf._util import canonical_json, derive_seed
        from eisencf.ergodic import (
            CELLS,
            ErgodicReport,
            estimate_C0_and_levy_integral,
            levy_birkhoff,
            occupation_frequencies,
            simulate_orbits,
        )

        with tr.span("request") as root:
            with tr.span("cli.parse"):
                args = parse_cli(req.argv)
                cfg = config_from(args)
                quad_samples = cfg.samples if args.samples is not None else 1000000
            with tr.span("ergodic.quadrature"):
                quad = estimate_C0_and_levy_integral(quad_samples, cfg.seed, cfg.tol)
            with tr.span("ergodic.birkhoff"):
                birkhoff = levy_birkhoff(cfg.orbits, cfg.length, cfg.seed, cfg.tol)
            with tr.span("ergodic.occ_orbits"):
                batch = simulate_orbits(cfg.orbits, cfg.length,
                                        derive_seed(cfg.seed, "occ"), cfg.tol)
            with tr.span("ergodic.occupation"):
                _, mean_freq = occupation_frequencies(batch, tol=cfg.tol)
            with tr.span("cli.doc"):
                masses = quad.cell_masses()
                rep = ErgodicReport(
                    levy_birkhoff=birkhoff,
                    levy_integral=quad.levy_integral,
                    levy_integral_err=quad.levy_err,
                    c0=quad.c0,
                    c0_err=quad.c0_err,
                    min_kernel_dist=quad.min_kernel_dist,
                    occupation=[{"cell": list(kl), "frequency": float(mean_freq[ci])}
                                for ci, kl in enumerate(CELLS)],
                    cell_masses=[{"cell": list(kl), "mass": masses[kl]}
                                 for kl in CELLS],
                    info={"orbits": cfg.orbits, "length": cfg.length,
                          "quad_samples": quad_samples, "seed": cfg.seed,
                          "levy_integral_pair_sampled": quad.levy_integral_pairs,
                          "levy_integral_pair_err": quad.levy_pairs_err},
                )
                text = canonical_json(rep.as_dict())
        root.update(orbit_steps=2 * cfg.orbits * cfg.length,
                    quad_samples=quad_samples,
                    levy_integral_err=quad.levy_err,
                    birkhoff_err=birkhoff.stderr)
        return text


WORKLOAD_TYPES = {w.name: w for w in (Verify, Expand, Levy)}


# --------------------------------------------------------------------------
# untraced run
# --------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 8:
                self.messages.append(failures[0])


def warm_up(wl: Workload) -> None:
    """One small request, uncounted: lazy imports and first-call costs."""
    for req in wl.requests("warm", 0):
        wl.execute(req)


def timing_metrics(rounds: list[list[float]]) -> dict:
    """Median round time and request-latency percentiles."""
    lat = [x for r in rounds for x in r]
    return {"wall_s": statistics.median(map(sum, rounds)),
            "req_p50_ms": 1e3 * statistics.median(lat),
            "req_p99_ms": 1e3 * percentile(lat, 99.0)}


def run_untraced(wl: Workload, seconds: float, speed: SpeedSampler) -> dict:
    """Closed loop of rounds until the next one would end after `seconds`.

    Each round's times are scaled by the machine speed sampled around it.
    """
    warm_up(wl)
    tally = Tally()
    raw: list[list[float]] = []       # request latencies, per round
    spans: list[tuple[float, float]] = []
    levy_docs: list[dict] = []
    t0 = time.perf_counter()
    while True:
        lat = []
        start = time.perf_counter()
        for req in wl.requests("run", len(raw)):
            res = wl.execute(req)
            lat.append(res.seconds)
            tally.add(res.failures)
            if wl.name == "levy" and res.rc == 0 and res.text:
                levy_docs.append(json.loads(res.text))
        spans.append((start, time.perf_counter()))
        raw.append(lat)
        elapsed = time.perf_counter() - t0
        if len(raw) >= wl.min_rounds and \
                elapsed + statistics.median(map(sum, raw)) > seconds:
            break
    scales = [speed.scale(*span) for span in spans]
    metrics = timing_metrics([[x * k for x in lat] for lat, k in zip(raw, scales)])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {"requests": sum(map(len, raw)), "rounds": len(raw),
            "requests_per_round": len(raw[0]),
            "speed_scale_median": statistics.median(scales)}
    if levy_docs:
        # the quadrature error and the relative gap between the two routes
        info["levy_integral_err"] = statistics.median(
            d["levy_integral"]["error"] for d in levy_docs)
        info["levy_rel_gap"] = statistics.median(
            abs(d["levy_integral"]["value"] / d["levy_birkhoff"]["value"] - 1)
            for d in levy_docs)
    return {"metrics": metrics, "raw": timing_metrics(raw), "info": info,
            "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.messages}


# --------------------------------------------------------------------------
# traced layer profile
# --------------------------------------------------------------------------

def _best_rate(fn, ops: int, reps: int, speed: SpeedSampler) -> float:
    """Median over reps of ops per second of one call of fn(), scaled."""
    spans = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        spans.append((t0, time.perf_counter()))
    return statistics.median(ops / ((t1 - t0) * speed.scale(t0, t1)) for t0, t1 in spans)


def exact_kernels(scale: dict, seed: int, speed: SpeedSampler) -> dict:
    """Exact-layer rates on operands replayed from the two exact workloads.

    The small operands are drawn as the verifier draws its finite range
    structure samples: a point of U0 with denominator 2^16 and its cylinder
    preimage 1/(eta_k + w).  The big ones are expand-corpus points and their
    first T-iterates.
    """
    from eisencf.cf import DomainError, OrbitSignal, convergents, expand, step_T
    from eisencf.exact import ETAS, FieldElement, embed
    from eisencf.hexdomain import floor_J, in_U
    from eisencf.regions import build_catalog

    n, reps = scale["kernel_ops"], scale["kernel_reps"]
    rng = random.Random(derive(seed, "kernels:verify"))
    den = 1 << 16
    small: list[tuple] = []
    while len(small) < n:
        w = FieldElement(rng.randint(-den, den), rng.randint(-den // 2, den // 2), den)
        if w.is_zero() or not in_U(w):
            continue
        small.append((w, (embed(ETAS[rng.randint(1, 6)]) + w).inv()))

    rng = random.Random(derive(seed, "kernels:expand"))
    big: list[tuple] = []
    digit_lists = []
    while len(big) < n:
        a, b, c = u0_point(rng, scale["expand_den_digits"])
        e = expand(FieldElement(a, b, c), scale["expand_digits"])
        digit_lists.append(e.digits)
        big.extend(zip(e.points[:3], e.points[1:4]))

    def field_ops(pairs):
        def run():
            for u, v in pairs:
                u + v
                u - v
                u * v
                v.inv()
        return run

    def step_operands(pairs):
        pts = [v for _, v in pairs if in_U(v)] + [u for u, _ in pairs]
        out = []
        for z in pts:
            try:
                step_T(z)
            except (OrbitSignal, DomainError):
                continue
            out.append(z)
        return out

    def over(fn, items):
        def run():
            for x in items:
                fn(x)
        return run

    cat = build_catalog()
    cells = list(cat.v_cells.values())
    small_pts = [z for pair in small for z in pair]
    small_steps = step_operands(small)
    big_steps = step_operands(big)
    small_inv = [z.inv() for z in small_steps]
    big_inv = [z.inv() for z in big_steps]

    def contains_all():
        for z in small_steps:
            for reg in cells:
                reg.contains(z)

    return {
        "exact.field_ops_per_s": _best_rate(field_ops(small), 4 * len(small), reps, speed),
        "hexdomain.floor_J_per_s": _best_rate(over(floor_J, small_inv), len(small_inv), reps, speed),
        "hexdomain.in_U_per_s": _best_rate(over(in_U, small_pts), len(small_pts), reps, speed),
        "cf.step_T_per_s": _best_rate(over(step_T, small_steps), len(small_steps), reps, speed),
        "regions.contains_per_s": _best_rate(contains_all, len(small_steps) * len(cells), reps, speed),
        "exact.field_ops_per_s.big": _best_rate(field_ops(big), 4 * len(big), reps, speed),
        "hexdomain.floor_J_per_s.big": _best_rate(over(floor_J, big_inv), len(big_inv), reps, speed),
        "cf.step_T_per_s.big": _best_rate(over(step_T, big_steps), len(big_steps), reps, speed),
        "cf.convergents_digits_per_s": _best_rate(
            over(convergents, digit_lists), sum(map(len, digit_lists)), reps, speed),
    }


def float_kernels(scale: dict, seed: int, speed: SpeedSampler) -> dict:
    """Float-layer costs on orbit points at the orbit width and on a wide
    uniform sample of U, as the frs coverage pass uses."""
    import numpy as np

    from eisencf.ergodic import kernel_integral, region_arc_quadrature, simulate_orbits
    from eisencf.floatpath import SQRT3, hex_margin, t_step
    from eisencf.regions import build_catalog, classify_cells_complex

    reps = scale["kernel_reps"]
    orbits = scale["levy_orbits"]
    length = max(50, scale["kernel_ops"] // 2)
    batch = simulate_orbits(orbits, length, derive(seed, "kernels:orbits"))
    cols = [np.ascontiguousarray(batch.points[:, k]) for k in range(length)]

    def narrow():
        for col in cols:
            t_step(col)

    rng = np.random.Generator(np.random.PCG64(derive(seed, "kernels:wide")))
    width = 100 * scale["kernel_ops"] // 2
    wide = rng.uniform(-1, 1, 2 * width) + 1j * rng.uniform(-SQRT3 / 2, SQRT3 / 2, 2 * width)
    wide = wide[hex_margin(wide) < 0][:width]

    cat = build_catalog()
    flat = batch.points.ravel()
    kl = (1, 1)
    arcs = region_arc_quadrature(cat.v_star[kl].invert())
    in_cell = flat[classify_cells_complex(flat, cat) == 0]
    return {
        "floatpath.t_step.narrow_us": 1e6 / _best_rate(narrow, len(cols), reps, speed),
        "floatpath.t_step.wide_ns_per_pt": 1e9 / _best_rate(
            lambda: t_step(wide), wide.size, reps, speed),
        "regions.classify_cells_ns_per_pt": 1e9 / _best_rate(
            lambda: classify_cells_complex(flat, cat), flat.size, reps, speed),
        "ergodic.kernel_integral_ns_per_eval": 1e9 / _best_rate(
            lambda: kernel_integral(in_cell, arcs), in_cell.size * arcs.nodes.size, reps, speed),
    }


def trace_requests(wl: Workload, tr: Tracer, tally: Tally, compare: bool,
                   speed: SpeedSampler) -> dict:
    """Trace one round of the workload's requests.

    With compare, the same requests first run untraced through cli.main and
    the traced artifacts must equal theirs byte for byte; that pair gives
    the tracing overhead.  Every traced artifact is also checked as the
    CLI's would be.
    """
    reqs = wl.requests("trace", 0)
    plain: list[Outcome] = []
    if compare:
        warm_up(wl)
        t_plain = time.perf_counter()
        for req in reqs:
            res = wl.execute(req)
            tally.add(res.failures)
            plain.append(res)
        untraced = sum(res.seconds for res in plain) * speed.scale(
            t_plain, time.perf_counter())
    roots = []
    for i, req in enumerate(reqs):
        roots.append(len(tr.spans))
        try:
            text = wl.traced(req, tr)
            fails = wl.check(req, text)
        except Exception:
            tally.add([traceback.format_exc(limit=3)])
            continue
        if plain and text != plain[i].text:
            fails.append(f"traced {wl.name} artifact differs from the CLI's")
        tally.add(fails)
    traced = sum(tr.spans[i]["end"] - tr.spans[i]["start"] for i in roots)
    out = {"trace.uncovered_share": tr.uncovered(roots) / traced}
    if plain:
        # both sides scaled to the reference speed, as in the untraced run
        scale = speed.scale(tr.spans[roots[0]]["start"], tr.spans[roots[-1]]["end"])
        out["trace.overhead_share"] = traced * scale / untraced - 1
    return out


def run_traced(first: str, scale: dict, seed: int, out_dir: Path,
               speed: SpeedSampler) -> dict:
    """The layer profile: the run's workload traced against an untraced
    replay of the same requests, then one traced round of each other
    workload so that every layer's spans are present."""
    tr = Tracer(speed)
    tally = Tally()
    metrics: dict[str, float] = {}
    for name in [first] + [w for w in WORKLOADS if w != first]:
        wl = WORKLOAD_TYPES[name](scale, seed, out_dir)
        got = trace_requests(wl, tr, tally, name == first, speed)
        if name == first:
            metrics.update(got)

    from eisencf.verifier import CHECKS

    def med(name: str) -> float:
        return statistics.median(tr.durations(name))

    roots = [s for s in tr.spans if s["parent"] is None]
    ver = next(s for s in roots if "samples" in s)
    exp = [s for s in roots if "digits" in s]
    lv = next(s for s in roots if "quad_samples" in s)
    for c in CHECKS:
        metrics[f"verifier.{c}.s"] = med(f"verifier.{c}")
    metrics["verifier.samples_per_s"] = ver["samples"] / sum(
        metrics[f"verifier.{c}.s"] for c in CHECKS)
    metrics["work.verify_samples"] = ver["samples"]

    exp_ms = [1e3 * d for d in tr.durations("cf.expand")]
    conv_ms = [1e3 * d for d in tr.durations("cf.convergents")]
    req_ms = [1e3 * tr.duration(s) for s in exp]
    metrics["cf.expand_ms"] = statistics.median(exp_ms)
    metrics["cf.convergents_ms"] = statistics.median(conv_ms)
    metrics["cli.expand_overhead_ms"] = statistics.median(
        r - e - c for r, e, c in zip(req_ms, exp_ms, conv_ms))
    metrics["work.expand_digits"] = sum(s["digits"] for s in exp)

    for stage in ("quadrature", "birkhoff", "occ_orbits", "occupation"):
        metrics[f"ergodic.{stage}.s"] = med(f"ergodic.{stage}")
    metrics["ergodic.orbit_steps_per_s"] = (lv["orbit_steps"] / 2) / metrics["ergodic.birkhoff.s"]
    metrics["ergodic.quad_var_time"] = lv["levy_integral_err"] ** 2 * metrics["ergodic.quadrature.s"]
    metrics["levy.integral_err"] = lv["levy_integral_err"]
    metrics["levy.birkhoff_err"] = lv["birkhoff_err"]
    metrics["work.orbit_steps"] = lv["orbit_steps"]
    metrics["work.quad_samples"] = lv["quad_samples"]

    metrics.update(exact_kernels(scale, seed, speed))
    metrics.update(float_kernels(scale, seed, speed))

    trace_file = out_dir / f"trace-{first}-{seed}.json"
    trace_file.write_text(json.dumps(tr.spans))
    return {"metrics": metrics, "info": {"spans": len(tr.spans),
                                         "trace_file": str(trace_file)},
            "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.messages}


# --------------------------------------------------------------------------
# entry
# --------------------------------------------------------------------------

def probe() -> dict:
    cals = [calibration_s() for _ in range(5)]
    t0 = time.perf_counter()
    import eisencf.cli  # noqa: F401
    t1 = time.perf_counter()
    from eisencf.regions import build_catalog
    build_catalog()
    t2 = time.perf_counter()
    cals += [calibration_s() for _ in range(5)]
    return {"import_s": t1 - t0, "catalog_s": t2 - t1,
            "scale": CAL_REF_S / statistics.median(cals)}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["probe", "run"])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--scale", choices=sorted(SCALES))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.mode == "probe":
        print(json.dumps(probe()))
        return 0
    import numpy

    from eisencf.regions import build_catalog

    build_catalog()
    scale = SCALES[args.scale]
    args.out.mkdir(parents=True, exist_ok=True)
    pin_to_one_cpu()
    with SpeedSampler() as speed:
        if args.trace:
            result = run_traced(args.workload, scale, args.seed, args.out, speed)
        else:
            wl = WORKLOAD_TYPES[args.workload](scale, args.seed, args.out)
            result = run_untraced(wl, args.seconds, speed)
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
