#!/usr/bin/env python3
"""Run every workload once untraced and once traced, and print every metric.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--tier1] [--out FILE]

Each run is a fresh ``run.py`` process.  The table lists each end-to-end
metric with its unit, the failed fraction of operations, and the tracing
overhead (traced minus untraced round time, measured on the same inputs).
It also runs ``relaxed-readme-k200``, which is not in BENCHMARK.json: it
shows the relaxed certificate's ``NoRootError`` on a non-empty core.

``--tier1`` also times the tier-1 test suite in a separate invocation and
records its ten slowest tests; that figure is metadata, not a gated metric.
The summary is written as JSON to ``--out``.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GATED = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
PROBE = "relaxed-readme-k200"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next(json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env "))
    problems = [ln for ln in lines if ln.startswith("INCORRECT")]
    latency = [ln[2:] for ln in lines if ln.startswith("# op_p")]
    return {**result, "env": env, "problems": problems, "latency": latency, "exit": proc.returncode}


def tier1() -> dict:
    """Tier-1 wall time and the ten slowest tests, from one pytest run."""
    env = {**os.environ, "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=10", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env)
    wall = time.perf_counter() - t0
    slowest = [
        {"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
        for m in re.finditer(r"^([\d.]+)s (call|setup|teardown)\s+(\S+)$", proc.stdout, re.M)
    ]
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall, "summary": summary, "exit": proc.returncode, "slowest": slowest}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_work" / "report.json")
    args = parser.parse_args()

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in GATED + (PROBE,):
        untraced = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        report["workloads"][workload] = {"untraced": untraced, "traced": traced}
        ok &= untraced["correct"] and traced["correct"]

        frac = untraced["failed"] / untraced["attempted"]
        print(f"\n== {workload}  (correct={untraced['correct']}, "
              f"failed_frac={frac:.4f} = {untraced['failed']}/{untraced['attempted']})")
        for line in untraced["problems"]:
            print(f"   {line}")
        for name, m in untraced["metrics"].items():
            print(f"   {name:<14} {m['value']:>14.6g} {m['unit']}")
        for line in untraced["latency"]:
            print(f"   {line}")
        layer = traced["metrics"]
        print(f"   tracing overhead {layer['trace.overhead_s']['value']:.4g} s per round "
              f"({100 * layer['trace.overhead_frac']['value']:.2f}%), top-level span coverage "
              f"{layer['trace.top_level_coverage']['value']:.4f}")
    if args.tier1:
        report["tier1"] = tier1()
        t = report["tier1"]
        print(f"\n== tier-1: {t['wall_s']:.1f} s wall ({t['summary']})")
        for row in t["slowest"]:
            print(f"   {row['seconds']:>8.2f}s {row['phase']:<8} {row['test']}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
