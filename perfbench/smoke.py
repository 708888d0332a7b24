"""Smoke test of the benchmark harness at the tiny scale.

    python3 perfbench/smoke.py

Takes under a minute.  It runs every workload untraced and one traced
layer profile with `--scale tiny`, and checks that

* every metric printed matches BENCHMARK.json by name and unit, and the
  result line has exactly the keys the benchmark contract names;
* the correctness checks ran and passed, except levy's agreement of its
  two growth-rate routes, which the tiny scale is too small to reach;
* the checks reject corrupted artifacts.

Exits with 1 and a message on the first mismatch.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402


class SmokeFailure(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SmokeFailure(msg)


def run_bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0,
           f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(workload: str, trace: int, specs: list[dict]) -> None:
    lines, res = run_bench(workload, trace)
    tag = f"{workload} trace {trace}"
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result keys {sorted(res)}")
    expect(isinstance(res["attempted"], int) and res["attempted"] >= 1,
           f"{tag}: no operation attempted")
    expect(0 <= res["failed"] <= res["attempted"], f"{tag}: bad failure count")
    # at the tiny scale only levy's statistical agreement may fail
    unexpected = [l for l in lines
                  if l.startswith("failure") and "routes disagree" not in l]
    expect(not unexpected, f"{tag}: checks failed: {unexpected}")
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    expect(got == want, f"{tag}: metrics differ from BENCHMARK.json: "
           f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
           f"units {[k for k in want if k in got and got[k] != want[k]]}")
    printed = {l.split()[1]: l.split()[3] for l in lines if l.startswith("metric ")}
    expect(printed == want, f"{tag}: printed metric lines differ from BENCHMARK.json")
    for k, v in res["metrics"].items():
        expect(isinstance(v["value"], (int, float)), f"{tag}: {k} is not a number")
    print(f"ok {tag}: {len(got)} metrics, {res['attempted']} operations checked")


def check_checks() -> None:
    """The checks pass a real artifact and reject corrupted copies."""
    from eisencf.cli import main

    pt = (1023577065188464309936690526649959, -341181325488988676569917117268179,
          2930403148760804962564836646021691)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["expand", "--z", checks.field_literal(*pt), "--digits", "20"])
    doc = json.loads(buf.getvalue())
    expect(checks.check_expand(doc, pt, 20) == [], "expand check rejects a good artifact")

    def broken(edit) -> dict:
        bad = copy.deepcopy(doc)
        edit(bad)
        return bad

    corruptions = {
        "digit outside J": lambda d: d["digits"][3].update(a=d["digits"][3]["a"] + 1),
        "convergent": lambda d: d["convergents"][5]["q"].update(b=d["convergents"][5]["q"]["b"] + 1),
        "error identity": lambda d: d["abs_errors"].__setitem__(7, 1.0),
        "point": lambda d: d["z"].update(x="1/3"),
    }
    for what, edit in corruptions.items():
        expect(checks.check_expand(broken(edit), pt, 20) != [],
               f"expand check accepts a corrupted {what}")

    ver = {"verdict": "PASS", "checks": [{"name": n, "verdict": "PASS"} for n in "abcdef"]}
    expect(checks.check_verify(ver, 6) == [], "verify check rejects a good artifact")
    bad = copy.deepcopy(ver)
    bad["checks"][2]["verdict"] = "FAIL"
    expect(checks.check_verify(bad, 6) != [], "verify check accepts a FAIL verdict")

    levy = {"levy_birkhoff": {"value": 0.485}, "levy_integral": {"value": 0.483, "error": 0.003},
            "C0": {"value": 0.102}, "occupation": [{"frequency": 1 / 36}] * 36}
    expect(checks.check_levy(levy, 0.004) == [], "levy check rejects a good artifact")
    for what, edit in {
        "disagreement": lambda d: d["levy_integral"].update(value=0.47),
        "occupation": lambda d: d.update(occupation=[{"frequency": 0.9 / 36}] * 36),
        "C0": lambda d: d["C0"].update(value=float("nan")),
        "error": lambda d: d["levy_integral"].update(error=0.005),
    }.items():
        bad = copy.deepcopy(levy)
        edit(bad)
        expect(checks.check_levy(bad, 0.004) != [], f"levy check accepts a bad {what}")
    print("ok checks reject corrupted artifacts")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_checks()
        for wl in bench["workloads"]:
            check_result(wl["name"], 0, bench["end_to_end"])
        check_result(bench["workloads"][0]["name"], 1, bench["per_layer"])
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
