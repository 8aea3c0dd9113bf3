#!/usr/bin/env python3
"""coalisure benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload coverage-n3-k50 --seed 1 --seconds 30 --trace 0

The run repeats the workload's round (see ``workloads.py``) until
``--seconds`` of measured time have passed, checks every output, and
prints as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` alternates untraced and traced rounds on the
same inputs and reports the per-layer metrics (per round) from the traced
ones, plus the tracing overhead; the spans go to
``.perfbench_work/traces/``.  Metric names and units are those of
``BENCHMARK.json``.  The program under test is imported from ``src/`` next
to this directory; without it the run exits with code 2.
"""

import os

# before numpy loads: ambient BLAS threading changes LP times by orders of
# magnitude on small machines
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "COALISURE_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import coalisure.cli as cli; cli.load_config(sys.argv[2])"
)


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        **{var: os.environ[var] for var in PINNED},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(config: Path) -> float:
    """Median wall time of a fresh interpreter importing coalisure.cli and
    loading the workload's config, the cost every CLI call pays."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config)],
            check=True, stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def p90(values) -> float | None:
    """The 90th percentile, when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_rounds(wl, seconds: float, tracer=None):
    """Run rounds until ``seconds`` of round time have passed.

    Without a tracer every round is measured bare.  With one, each round's
    inputs run twice, bare and traced, in alternating order; returns the
    bare times, the traced times and the traced windows.
    """
    clock = time.perf_counter
    bare, traced, windows = [], [], []
    r = 0
    while sum(bare) + sum(traced) < seconds:
        if tracer is None:
            order = (False,)
        else:
            order = (False, True) if r % 2 == 0 else (True, False)
        for with_trace in order:
            wl.before_round(r)
            if with_trace:
                tracer.trial = f"round{r}"
                tracer.install()
            t0 = clock()
            wl.round(r, clock)
            t1 = clock()
            if with_trace:
                tracer.uninstall()
                traced.append(t1 - t0)
                windows.append((t0, t1))
            else:
                bare.append(t1 - t0)
        r += 1
    return bare, traced, windows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coalisure" / "__init__.py").is_file():
        print(f"perfbench: no coalisure package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coalisure

    if Path(coalisure.__file__).resolve().parent != (SRC / "coalisure").resolve():
        print(f"perfbench: imported coalisure from {coalisure.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracer as tracing
    from workloads import ROUND, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.prepare()
    setup_s = measure_setup(workdir / "config.json") if args.trace == 0 else None
    wl.warmup()
    tracer = tracing.Tracer() if args.trace else None
    bare, traced, windows = timed_rounds(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = wl.check()

    if args.trace == 0:
        measured = sum(bare)
        values = {
            "setup_s": setup_s,
            "wall_s": measured / len(bare),
            "trials_per_s": wl.trials_done / measured,
            "peak_rss_mb": peak_rss_mb,
        }
        section = "end_to_end"
    else:
        values = tracing.layer_metrics(tracer, len(traced))
        overhead = statistics.median(t - b for b, t in zip(bare, traced))
        values["trace.overhead_s"] = overhead
        values["trace.overhead_frac"] = overhead / statistics.median(bare)
        values["trace.top_level_coverage"] = tracing.top_level_coverage(tracer.spans, windows)
        section = "per_layer"
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "trial", "attrs"],
            "windows": windows,
            "spans": tracer.spans,
        }))
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    env = environment(args)
    result = {
        "correct": not problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }
    info = {
        "round": ROUND[args.workload],
        "rounds": len(bare) + len(traced),
        "failed_frac": wl.failed / max(wl.attempted, 1),
        # latency of one operation; not gated (see README.md)
        "op_p50_ms": statistics.median(wl.op_ms) if args.trace == 0 else None,
        "op_p90_ms": p90(wl.op_ms) if args.trace == 0 else None,
        "round_s": bare,
        "op_ms": wl.op_ms,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "problems": problems, "info": info}, indent=1)
    )
    shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload}: {info['rounds']} rounds of {info['round']}; failed {wl.failed} "
          f"of {wl.attempted} operations (failed_frac {info['failed_frac']:.4f})")
    if info["op_p50_ms"] is not None:
        print(f"# op_p50_ms (not gated) = {info['op_p50_ms']:.6g} ms over {len(wl.op_ms)} operations")
    if info["op_p90_ms"] is not None:
        print(f"# op_p90_ms (not gated) = {info['op_p90_ms']:.6g} ms")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
