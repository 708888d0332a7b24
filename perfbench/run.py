"""Benchmark of eisencf: three workloads through the public CLI entry point.

    python3 perfbench/run.py --workload verify|expand|levy --seed N \
        --seconds T --trace 0|1 [--scale full|tiny]

Run it from the root of a checkout of the repository; the package is used
from `src/` as it stands, nothing is installed.  Each run starts fresh
interpreters with one thread for BLAS/OpenMP and without CF_THREADS:

* several set-up probes, each timing `import eisencf.cli` plus a cold
  `build_catalog()` (one more first, uncounted, warms the file cache);
* one worker that runs the workload (trace 0) or the traced layer profile
  (trace 1), see worker.py.

Lines before the last are for people: provenance, then one line per metric
with its unit.  The last line is the JSON result.  Exit code 0 means a
result was printed, also when a correctness check failed ("correct": false);
any other exit code means no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 6
DEADLINE_S = 170.0

# end-to-end metrics and their units, in the order printed
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "req_p50_ms": "ms", "req_p99_ms": "ms"}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("CF_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_files() -> list[Path]:
    return sorted((ROOT / "src" / "eisencf").rglob("*.py"))


def provenance(seed: int, numpy_version: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for p in src_files():
        digest.update(p.relative_to(ROOT).as_posix().encode())
        digest.update(p.read_bytes())
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files()),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["verify", "expand", "levy"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "eisencf" / "__init__.py").is_file():
        print(f"error: no eisencf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = pinned_env()
    out_dir = HERE / ".out"
    try:
        # half the probes before the workload and half after, so that their
        # median spans more of the machine's load swings; the first warms
        # the file cache and is not counted
        probes = [run_worker(["probe"], env, deadline) for _ in range(PROBES // 2 + 1)][1:]
        res = run_worker(["run", "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--scale", args.scale, "--out", str(out_dir)], env, deadline)
        probes += [run_worker(["probe"], env, deadline) for _ in range(PROBES - len(probes))]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prov = provenance(args.seed, res["numpy"])
    import_s = statistics.median(p["import_s"] * p["scale"] for p in probes)
    catalog_s = statistics.median(p["catalog_s"] * p["scale"] for p in probes)
    if args.trace:
        metrics = {"cli.import_s": (import_s, "s"),
                   "regions.build_catalog_s": (catalog_s, "s"),
                   "src.lines": (prov["src_lines"], "lines")}
        metrics.update((k, (v, unit_of(k))) for k, v in res["metrics"].items())
    else:
        setup = statistics.median((p["import_s"] + p["catalog_s"]) * p["scale"]
                                  for p in probes)
        metrics = {"setup_s": (setup, "s")}
        metrics.update((k, (res["metrics"][k], E2E_UNITS[k]))
                       for k in E2E_UNITS if k != "setup_s")
        res["raw"]["setup_s"] = statistics.median(p["import_s"] + p["catalog_s"]
                                                  for p in probes)

    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"scale {args.scale} " + json.dumps(res["info"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        raw = res.get("raw", {}).get(name)
        print(f"metric {name} {value:.6g} {unit}"
              + ("" if raw is None else f" (unscaled {raw:.6g})"))
    share = res["failed"] / res["attempted"]
    print(f"fail_share {share:.6g} share ({res['failed']} of {res['attempted']} "
          "operations failed)")
    if "levy_integral_err" in res["info"]:
        print(f"levy_integral_err {res['info']['levy_integral_err']:.6g} 1")
    for msg in res["failures"]:
        print("failure " + msg.strip().replace("\n", " | "))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s") or name.endswith("_per_s.big"):
        return "1/s"
    if name.endswith("_share"):
        return "share"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_ns_per_pt", "ns"),
                         ("_ns_per_eval", "ns"), (".s", "s"), ("_s", "s"),
                         ("_var_time", "s"), ("_err", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
