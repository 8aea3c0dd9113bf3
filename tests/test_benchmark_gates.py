"""The benchmark's correctness gates, run on a few rounds of each gated
workload.

``perfbench/workloads.py`` is imported read only (no bytecode is written
next to it).  Each gated workload runs ``prepare``, ``warmup``, two
rounds and ``check`` in a temporary directory, as ``perfbench/run.py``
does; a change that breaks a gate, or makes an operation fail, fails here
before a benchmark run.  ``relaxed-readme-k200`` is ungated and fails by
design (``NoRootError`` at s* = 0), so it is left out.
"""

import functools
import importlib.util
import sys
import time
from pathlib import Path

import pytest

from coalisure import zeta_core
from coalisure.game import GameSpec

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
GATED = ("coverage-n3-k50", "relaxed-n3-k200", "runall-n5-k200")


@functools.cache
def load_workloads():
    """``perfbench/workloads.py`` as a module, without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def workload_game(values, grand_value) -> GameSpec:
    """The game ``perfbench/workloads.py`` writes into its configs."""
    return GameSpec.from_json_dict(load_workloads().config_doc(values, grand_value, 1, 1, 1, [])["game"])


@pytest.mark.parametrize("name", GATED)
def test_gate_passes_on_two_rounds(name, tmp_path, monkeypatch):
    # ``relaxed-n3-k200`` rebinds the ζ program until its check; restore it
    # even if the check is never reached
    monkeypatch.setattr(zeta_core, "solve_zeta_program", zeta_core.solve_zeta_program)
    wl = load_workloads().WORKLOADS[name](1, tmp_path)
    wl.prepare()
    wl.warmup()
    for r in range(2):
        wl.before_round(r)
        wl.round(r, time.perf_counter)
    assert wl.check() == []
    assert wl.attempted > 0 and wl.failed == 0
