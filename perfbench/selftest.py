#!/usr/bin/env python3
"""Self-test of the tracer: every layer span turns up on the workload
named for it, and top-level spans cover at least 95% of traced time.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seconds 4] [--seed 1]

Each workload runs once with ``--trace 1`` in a fresh process; the test
reads the spans that run wrote.  ``(span, parent)`` pairs check that calls
through by-value imports are seen: ``cli.draw_private``,
``validation.draw_private``, ``validation.draw_fresh`` and
``zeta_core.solve_campi_polynomial`` all resolve to the wrapped function.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACES = HERE.parent / ".perfbench_work" / "traces"
MIN_COVERAGE = 0.95

# span name -> required parent span (None: any parent)
EXPECTED = {
    "coverage-n3-k50": {
        "validation.run_trial": None,
        "sampling.draw_private": "validation.run_trial",
        "sampling.draw_fresh": "validation.estimate_allocation_instability",
        "game.value_batch": None,
        "lp.solve": None,
        "lp.feasible": None,
        "scenario_core.tighten": "validation.run_trial",
        "scenario_core.is_empty": "validation.estimate_core_instability",
        "scenario_core.coalition_min": "validation.estimate_core_instability",
        "scenario_core.lexicographic_allocation": "validation.run_trial",
        "compression.compress_all": "validation.run_trial",
        "zeta_core.solve_zeta_program": "validation.run_trial",
        "zeta_core.zeta_certificate": "validation.run_trial",
        "zeta_core.complexity_counts_from_slacks": "zeta_core.solve_zeta_program",
        "risk.solve_campi_polynomial": "zeta_core.zeta_certificate",
        "risk.budget": None,
        "risk.epsilon_implicit": None,
        "risk.epsilon_closed_form": "risk.a_posteriori_allocation_bound",
        "risk.beta_from_support_rank": "risk.a_priori_allocation_bound",
        "validation.estimate_core_instability": "validation.run_trial",
        "validation.clopper_pearson": None,
    },
    "relaxed-n3-k200": {
        "validation.run_trial": None,
        "sampling.draw_private": "validation.run_trial",
        "sampling.draw_fresh": "validation.estimate_allocation_instability",
        "game.value_batch": None,
        "lp.solve": "zeta_core.solve_zeta_program",
        "zeta_core.solve_zeta_program": "validation.run_trial",
        "risk.solve_campi_polynomial": "zeta_core.zeta_certificate",
    },
    "runall-n5-k200": {
        "cli.run_all": None,
        "cli.prepare": "cli.run_all",
        "cli.load_config": "cli.prepare",
        "cli.write_json": "cli.run_all",
        "cli.write_text": None,
        "cli.certify": "cli.run_all",
        "sampling.draw_private": "cli.run_all",
        "sampling.samples_to_csv": "cli.run_all",
        "scenario_core.tighten": "cli.run_all",
        "scenario_core.build": "cli.run_all",
        "scenario_core.vertices": "cli.run_all",
        "scenario_core.coalition_min": None,
        "compression.compress_all": "cli.certify",
        "zeta_core.solve_zeta_program": "cli.run_all",
        "risk.solve_campi_polynomial": "zeta_core.zeta_certificate",
        "validation.coverage_experiment": "cli.run_all",
        "validation.run_trial": "validation.coverage_experiment",
        "lp.solve": None,
        "game.value_batch": None,
    },
}


def check(workload: str, seed: int, seconds: float) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if run.returncode != 0:
        return [f"{workload}: run exited {run.returncode}: {run.stderr[-2000:]}"]
    metrics = json.loads(run.stdout.strip().splitlines()[-1])["metrics"]
    trace = json.loads((TRACES / f"{workload}-seed{seed}.json").read_text())
    spans = trace["spans"]
    seen = {(s[0], spans[s[3]][0] if s[3] >= 0 else None) for s in spans}
    names = {name for name, _ in seen}
    bad = []
    for name, parent in EXPECTED[workload].items():
        if name not in names:
            bad.append(f"{workload}: no {name} span")
        elif parent is not None and (name, parent) not in seen:
            bad.append(f"{workload}: no {name} span under {parent}")
    if any(s[4] is None for s in spans):
        bad.append(f"{workload}: spans without a trial id")
    coverage = metrics["trace.top_level_coverage"]["value"]
    if coverage < MIN_COVERAGE:
        bad.append(f"{workload}: top-level spans cover {coverage:.3f} < {MIN_COVERAGE} of traced time")
    print(f"{workload}: {len(spans)} spans, {len(names)} span names, "
          f"top-level coverage {coverage:.4f}, {'ok' if not bad else 'FAILED'}")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bad = []
    for workload in EXPECTED:
        bad += check(workload, args.seed, args.seconds)
    for line in bad:
        print(f"SELFTEST FAILURE: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
