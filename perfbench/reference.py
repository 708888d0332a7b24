"""One-off reference at README scale, for the notes in README.md.

    python3 perfbench/reference.py

Takes about four minutes on two cores.  Runs the README commands once each,
using the package in `src/` without installing it, with one BLAS thread:

* `verify all --seed 42` (10000 samples) and `levy --orbits 64 --length 20000
  --samples 1000000 --seed 7` as CLI processes, timed end to end, then once
  more as the traced replay of worker.py for the per-stage split;
* `expand --z 3/10+1/7r --digits 40` as a CLI process.

Prints a markdown table and the seed-7 growth-rate estimates.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import pinned_env  # noqa: E402


def cli(args: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "eisencf.cli", *args], cwd=ROOT,
                          env=pinned_env(), capture_output=True, text=True, check=True)
    return time.perf_counter() - t0, proc.stdout


def split(workload: str, argv: list[str], out_dir: Path) -> dict[str, float]:
    import worker

    wl = worker.WORKLOAD_TYPES[workload](worker.SCALES["full"], 0, out_dir)
    req = worker.Request(argv, out=out_dir / "ref.json")
    with worker.SpeedSampler() as speed:
        tr = worker.Tracer(speed)
        wl.traced(req, tr)
    # unscaled: the reference reports plain wall time
    return {s["name"]: s["end"] - s["start"] for s in tr.spans if s["parent"] is not None}


def main() -> int:
    levy_args = ["levy", "--orbits", "64", "--length", "20000", "--samples",
                 "1000000", "--seed", "7"]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp)
        verify_args = ["verify", "all", "--seed", "42", "--out", str(out / "ref.json")]
        t_verify, _ = cli(verify_args)
        t_levy, levy_out = cli(levy_args)
        t_expand, _ = cli(["expand", "--z", "3/10+1/7r", "--digits", "40"])
        v_split = split("verify", verify_args, out)
        l_split = split("levy", levy_args, out)
    doc = json.loads(levy_out)
    fmt = lambda d: ", ".join(f"{k} {v:.1f} s" for k, v in d.items() if v >= 0.05)
    print("| What | Time | Split (traced replay) |")
    print("|---|---|---|")
    print(f"| `verify all --seed 42` | {t_verify:.1f} s | {fmt(v_split)} |")
    print(f"| `levy` at README scale, seed 7 | {t_levy:.1f} s | {fmt(l_split)} |")
    print(f"| `expand --z 3/10+1/7r --digits 40` | {t_expand:.2f} s | process start and import included |")
    b, i = doc["levy_birkhoff"], doc["levy_integral"]
    print(f"\nseed 7: Birkhoff {b['value']:.5f} +- {b['stderr']:.5f}, "
          f"integral {i['value']:.5f} +- {i['error']:.5f}, "
          f"C0 {doc['C0']['value']:.5f} +- {doc['C0']['error']:.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
