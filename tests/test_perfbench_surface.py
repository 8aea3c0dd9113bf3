"""The library surface the benchmark in ``perfbench/`` reaches into.

``perfbench/tracer.py`` wraps functions by (module, attribute) name, and
the ``relaxed-n3-k200`` workload replaces ``zeta_core.solve_zeta_program``
with a hook that takes exactly ``(spec, samples)``.  Renaming a traced
function or changing that call breaks ``perfbench/run.py`` at run time;
these tests make it fail here instead.  The tracer file is parsed, not
imported, so nothing under ``perfbench/`` is touched.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from coalisure import compression, validation, zeta_core
from coalisure.game import GameSpec
from coalisure.sampling import DistributionSpec, draw_private

from test_pipeline import README_GAME

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
    solve = zeta_core.solve_zeta_program
    seen = []

    def capture(spec, samples):
        seen.append(samples.master_seed)
        return solve(spec, samples)

    monkeypatch.setattr(zeta_core, "solve_zeta_program", capture)
    spec = GameSpec.from_json_dict(README_GAME)
    samples = draw_private(DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]), (6, 6, 6), 11)
    sampled = validation.SampleSet(spec, samples, compression.CompressionMode.default())
    assert np.isfinite(sampled.zeta.objective)
    assert seen == [11]
