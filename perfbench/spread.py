"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads verify,expand,levy]
                                [--seeds 101-110] [--trace 0]

Runs run.py once per (seed, workload), seed-major, with BENCHMARK.json's
run_seconds.  It keeps each run's output under perfbench/.out/spread/ and
prints, for every workload and metric, the median, the quartiles from
`statistics.quantiles(values, n=4)`, and the spread: the interquartile
distance as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    out = HERE / ".out" / "spread"
    out.mkdir(parents=True, exist_ok=True)
    values: dict[tuple[str, str], list[float]] = {}
    failed = 0
    for seed in seed_list(args.seeds):
        for wl in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            (out / f"{wl}-{seed}-trace{args.trace}.txt").write_text(proc.stdout + proc.stderr)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                failed += 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: {res['failed']} of {res['attempted']} failed",
                      file=sys.stderr)
                failed += 1
            for name, m in res["metrics"].items():
                values.setdefault((wl, name), []).append(m["value"])
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in specs}
    print(f"{'workload':8} {'metric':36} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for (wl, name), vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        print(f"{wl:8} {name:36} {len(vals):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.3f} {'' if bound is None else bound:>6}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
