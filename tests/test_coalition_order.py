"""One coalition order per game: ``spec.coalitions`` in ascending mask
order is the row order of the incidence matrix, of each agent's allowed
rows and of every per-coalition array built on them; only ``game.py``
builds membership rows."""

import ast
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from coalisure import game, scenario_core
from coalisure.game import Coalition, GameSpec, ValueModel

from test_pipeline import run


def structures(n):
    agents = range(n)
    full = [Coalition.from_members(s) for size in range(1, n) for s in itertools.combinations(agents, size)]
    out = {"full": None}
    if n >= 3:
        out["pairs"] = [Coalition.from_members(s) for s in itertools.combinations(agents, 2)]
        out["no-singleton"] = [c for c in full if c.size >= 2]
    return {name: (full if cs is None else cs, cs) for name, cs in out.items()}


CASES = [(n, name) for n in range(2, 9) for name in structures(n)]


@pytest.mark.parametrize("n, name", CASES)
def test_incidence_and_allowed_rows_follow_the_coalitions(n, name):
    defined, coalitions = structures(n)[name]
    model = ValueModel.affine(1, {c: (0.0, [1.0]) for c in defined})
    spec = GameSpec(n, 1.0, model, None if coalitions is None else tuple(reversed(coalitions)))
    masks = [c.mask for c in spec.coalitions]
    assert masks == sorted(masks)
    a = spec.incidence
    assert a.shape == (len(spec.coalitions), n) and not a.flags.writeable
    assert set(np.unique(a)) <= {0.0, 1.0}
    for row, c in zip(a, spec.coalitions):
        assert np.flatnonzero(row).tolist() == list(c.members)
        assert row.tolist() == c.indicator(n).tolist()
    x = np.random.default_rng(n).normal(size=n)
    assert spec.payoffs(x).tolist() == [x[list(c.members)].sum() for c in spec.coalitions]
    for agent in range(n):
        rows = spec.allowed_rows(agent)
        assert not rows.flags.writeable
        assert rows.tolist() == sorted(rows.tolist())
        assert tuple(spec.coalitions[r] for r in rows) == spec.allowed(agent)
        assert spec.allowed(agent) == tuple(c for c in spec.coalitions if agent in c)


def test_only_game_builds_membership_rows():
    package = Path(game.__file__).parent
    callers = {
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "indicator"
    }
    assert callers <= {"game.py"}


def _write_size_bound_config(tmp_path, n):
    """Constant values u_S = |S| and grand value N - 1e-8: the singleton
    bounds alone exceed the grand value, so the core is empty."""
    values = {
        ",".join(str(a + 1) for a in members): [{"a": float(size), "b": [0.0]}]
        for size in range(1, n)
        for members in itertools.combinations(range(n), size)
    }
    doc = {
        "schema_version": 1,
        "game": {"n_agents": n, "grand_value": n - 1e-8, "uncertainty_dim": 1, "values": values},
        "distribution": {"kind": "uniform", "lo": [0.0], "hi": [1.0]},
        "counts": [2] * n,
        "master_seed": 5,
        "beta": 0.2,
        "methods": ["core-aposteriori"],
        "validation": {"trials": 1, "n_fresh": 100, "seed": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _core_doc(tmp_path, n):
    config, out = _write_size_bound_config(tmp_path, n), tmp_path / "out"
    for command in ("generate", "core"):
        r = run(command, "--config", config, "--out", out)
        assert r.exit_code == 0, r.output
    return json.loads((out / "core.json").read_text())


def test_empty_core_skips_vertex_enumeration(tmp_path, monkeypatch):
    # at N=6 enumeration would solve all 6,471,002 subsets to find none
    def refuse(core):
        raise AssertionError("vertices enumerated on an empty core")

    monkeypatch.setattr(scenario_core, "vertices", refuse)
    doc = _core_doc(tmp_path, 6)
    assert doc["empty"] is True and doc["vertices"] == []


def test_empty_core_beyond_the_subset_guard_lists_no_vertices(tmp_path):
    doc = _core_doc(tmp_path, 7)
    assert doc["empty"] is True and doc["vertices"] == []
    assert "vertices_omitted" not in doc
