"""The library surface the benchmark in ``perfbench/`` reaches into.

``perfbench/tracer.py`` wraps functions by (module, attribute) name, and
the ``relaxed-n3-k200`` workload replaces ``zeta_core.solve_zeta_program``
with a hook that takes exactly ``(spec, samples)``, which sample sets call
on empty cores only.  The correctness gate of ``runall-n5-k200`` loads the
config with ``cli.load_config``, reads ``samples.csv`` back and calls
``scenario_core.build``/``tighten``/``contains`` and
``compression.compression_reproduces_bounds``.  The
trial workloads build a ``validation.CoverageConfig`` from keywords read
off a ``cli.load_config`` result and call ``validation.run_trial`` on it.
Renaming a traced function or changing one of those calls breaks
``perfbench/run.py`` at run time; these tests make it fail here instead.
The perfbench files are parsed, or imported without writing bytecode, so
nothing under ``perfbench/`` is touched.
"""

import ast
import dataclasses
import importlib
import json
from pathlib import Path

import numpy as np

from coalisure import cli, compression, risk, scenario_core, validation, zeta_core
from coalisure.game import GameSpec
from coalisure.sampling import DistributionSpec, draw_private, samples_from_csv

from test_benchmark_gates import load_workloads, workload_game
from test_pipeline import README_GAME, run, write_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def tracer_targets() -> list[tuple[str, str, str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_traced_target_resolves():
    targets = tracer_targets()
    assert targets
    for module, attribute, _ in targets:
        obj = importlib.import_module(f"coalisure.{module}")
        for part in attribute.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attribute)


def test_sample_set_calls_the_zeta_program_with_two_arguments(monkeypatch):
    """The hook sees empty cores only: the acceptance suite's empty-core
    game (grand value 3.8) calls it once, the README game never."""
    solve = zeta_core.solve_zeta_program
    seen = []

    def capture(spec, samples):
        seen.append(samples.master_seed)
        return solve(spec, samples)

    monkeypatch.setattr(zeta_core, "solve_zeta_program", capture)
    empty = workload_game(load_workloads().EMPTY_CORE_VALUES, 3.8)
    unit = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
    mode = compression.CompressionMode.default()
    sampled = validation.SampleSet(empty, draw_private(unit, (20, 20, 20), 11), mode)
    assert np.isfinite(sampled.zeta.objective)
    assert seen == [11]
    readme = validation.SampleSet(GameSpec.from_json_dict(README_GAME), draw_private(unit, (6, 6, 6), 12), mode)
    assert np.isfinite(readme.zeta.objective)
    assert seen == [11]


def test_gate_calls_on_a_sample_set_read_back_from_csv(tmp_path):
    config_path = write_config(
        tmp_path, methods=[risk.METHOD_CORE_APRIORI], validation={"trials": 1, "n_fresh": 100, "seed": 3}
    )
    out = tmp_path / "out"
    r = run("run-all", "--config", config_path, "--out", out)
    assert r.exit_code == 0, r.output
    config = cli.load_config(config_path)
    fields = (config.spec, config.dist, config.counts, config.beta, config.beta_split,
              config.compression_mode, config.epsilon, config.n_fresh, config.validation_seed)
    assert all(f is not None for f in fields)
    spec = config.spec
    samples = samples_from_csv((out / "samples.csv").read_text())
    core = scenario_core.build(spec, scenario_core.tighten(spec, samples))
    vertices = json.loads((out / "core.json").read_text())["vertices"]
    assert vertices and all(scenario_core.contains(core, v) for v in vertices)
    comp = json.loads((out / "compression.json").read_text())
    selection = tuple(tuple(s["index"] - 1 for s in a["samples"]) for a in comp["agents"])
    assert compression.compression_reproduces_bounds(spec, samples, selection)
    assert zeta_core.solve_zeta_program(spec, samples).s_star == tuple(
        json.loads((out / "zeta.json").read_text())["s_star"]
    )


def _method_of(tree: ast.Module, cls: str, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"perfbench/workloads.py defines no {cls}.{name}")


def _argument(node: ast.expr, config, method):
    """A keyword argument of ``TrialWorkload._coverage_config``: a constant,
    its ``method`` or an attribute of its ``config``."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name) and node.id == "method":
        return method
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "config":
        return getattr(config, node.attr)
    raise AssertionError(f"unexpected CoverageConfig argument {ast.unparse(node)}")


def test_trial_workload_config_runs_a_trial(tmp_path):
    tree = ast.parse(WORKLOADS.read_text())
    build = _method_of(tree, "TrialWorkload", "_coverage_config")
    (call,) = [
        n for n in ast.walk(build) if isinstance(n, ast.Call) and ast.unparse(n.func) == "validation.CoverageConfig"
    ]
    read = {  # every key a workload reads off a trial record
        n.slice.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name) and n.value.id == "rec"
        and isinstance(n.slice, ast.Constant)
    }
    assert {"error", "epsilon", "p_hat", "cp_lower", "cp_upper", "s_values", "counts"} <= read
    config = cli.load_config(write_config(tmp_path))
    for method in risk.ALL_METHODS:
        kwargs = {kw.arg: _argument(kw.value, config, method) for kw in call.keywords}
        cfg = validation.CoverageConfig(**kwargs)
        assert cfg.method == method
        cfg = dataclasses.replace(cfg, seed=5, counts=(20, 20, 20))
        # the record ``trial_record`` builds from a trial
        rec = {"counts": list(cfg.counts), **validation.run_trial(cfg, 0).to_json_dict()}
        assert read <= rec.keys(), method
